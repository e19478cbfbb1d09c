"""Deterministic JSON output with exact float round-trips.

``dumps`` is the stdlib's ``json.dumps`` at indent 2 with a trailing newline:
floats print as their shortest ``repr``, which reads back as the same float64,
and a ``Fraction`` prints as ``{"num": p, "den": q}``.  Parsing wraps the
stdlib decoder to surface the line/column of the first syntax error.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import JsonInputError, PreconditionError

__all__ = ["dumps", "loads"]


def _fraction(obj) -> dict:
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps(obj) -> str:
    try:
        return json.dumps(obj, indent=2, allow_nan=False, default=_fraction) + "\n"
    except (TypeError, ValueError) as exc:
        raise PreconditionError(str(exc)) from exc


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise JsonInputError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno, column=exc.colno,
        ) from exc
