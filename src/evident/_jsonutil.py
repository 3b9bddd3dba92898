"""Shared JSON parsing with line-aware errors, the one number check and the
one type check."""

from __future__ import annotations

import json
import math

from .errors import ParseError, WrongType


def _reject_constant(name: str):
    raise ParseError(f"invalid JSON: non-finite number {name} is not allowed")


def parse_document(text: str):
    """json.loads that reports the failing line as a :class:`ParseError`.

    ``NaN``, ``Infinity`` and ``-Infinity``, which :func:`json.loads` accepts,
    are rejected: no document field takes a non-finite number. Nesting past
    the interpreter's recursion limit and integers past its digit limit are
    a :class:`ParseError` too.
    """
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ParseError(f"invalid JSON: {exc}") from None


def require(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def number(value, name: str, error=ParseError, lo=-math.inf, hi=math.inf, lo_open=False) -> float:
    """``value`` as a float if it is a finite int or float, not a bool, in [lo, hi].

    The range is (lo, hi] when ``lo_open``. Anything else raises ``error``,
    whose message starts with ``name``. An integer past the float range, or
    a float literal that parsed as ``inf`` (``1e400``), is outside any range.
    """
    if type(value) is not float:  # a plain float, the common case, is used as it is
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise error(f"{name} must be a number")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
    if (lo < value if lo_open else lo <= value) and value <= hi and math.isfinite(value):
        return value
    if lo == -math.inf and hi == math.inf:
        bounds = "the float range"
    else:
        bounds = f"{'(' if lo_open else '['}{lo!r}, {hi!r}{')' if hi == math.inf else ']'}"
    raise error(f"{name} {value!r} outside {bounds}")


def of_type(value, kind: type, name: str):
    """``value`` if it is an instance of ``kind``, else :class:`WrongType`."""
    if not isinstance(value, kind):
        raise WrongType(f"{name} must be of type {kind.__name__}, not {type(value).__name__}")
    return value
