"""Shared JSON parsing with line-aware errors."""

from __future__ import annotations

import json
import math

from .errors import ParseError


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


def is_number(value) -> bool:
    """True for an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def number(value, message: str) -> float:
    """A finite JSON number, not a bool, as a float; otherwise a :class:`ParseError`.

    An integer or a float literal past the float range (``1e400`` parses as
    ``inf``) is refused too.
    """
    require(is_number(value), message)
    try:
        result = float(value)
    except OverflowError:  # an integer beyond the float range
        result = math.inf
    require(math.isfinite(result), f"{message} within the float range")
    return result
