"""Shared JSON parsing with line-aware errors."""

from __future__ import annotations

import json

from .errors import ParseError


def _reject_constant(name: str):
    raise ParseError(f"invalid JSON: non-finite number {name} is not allowed")


def parse_document(text: str):
    """json.loads that reports the failing line as a :class:`ParseError`.

    ``NaN``, ``Infinity`` and ``-Infinity``, which :func:`json.loads` accepts,
    are rejected: no document field takes a non-finite number.
    """
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None


def require(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)
