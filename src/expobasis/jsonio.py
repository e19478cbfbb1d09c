"""Deterministic JSON output with exact float round-trips.

``dumps`` writes JSON at indent 2 with a trailing newline, byte for byte what
the stdlib's ``json.dumps(obj, indent=2, allow_nan=False)`` writes, with a
``Fraction`` written as ``{"num": p, "den": q}``: strings
are escaped to ASCII, floats print as their shortest ``repr``, which reads
back as the same float64.  It writes the text directly: at an indent the
stdlib runs its pure-Python encoder, whose closures leave reference cycles
behind every call.  Parsing wraps the stdlib decoder to surface the
line/column of the first syntax error.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import JsonInputError, PreconditionError

__all__ = ["dumps", "loads"]

_quote = json.encoder.encode_basestring_ascii


def _leaf(obj) -> str:
    """The JSON text of a str, None, a bool, an int or a finite float."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


#: the leaves most documents are made of, by exact type, written without ``_leaf``'s checks
_COMMON_LEAVES = {str: _quote, int: int.__repr__}


def _key(key) -> str:
    if key is None or isinstance(key, (int, float)):
        return _leaf(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(obj, out: list, indent: str) -> None:
    """Append the text of ``obj`` to ``out``; ``indent`` is a newline and the
    spaces of obj's own nesting level."""
    common = _COMMON_LEAVES.get(type(obj))
    if common is not None:
        out.append(common(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        out.append("[")
        sep = inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        out.append("{")
        sep = inner
        for key, value in obj.items():
            out.append(sep + _quote(key if isinstance(key, str) else _key(key)) + ": ")
            _write(value, out, inner)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(obj, Fraction):
        _write({"num": obj.numerator, "den": obj.denominator}, out, indent)
    else:
        out.append(_leaf(obj))


def dumps(obj) -> str:
    """``obj`` as indent-2 JSON plus a newline.  A non-finite float, a value
    or key of a type JSON has no form for, and a document that contains
    itself (or nests past the recursion limit) raise ``PreconditionError``."""
    out: list[str] = []
    try:
        _write(obj, out, "\n")
    except (TypeError, ValueError, RecursionError) as exc:
        raise PreconditionError(str(exc)) from exc
    out.append("\n")
    return "".join(out)


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise JsonInputError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno, column=exc.colno,
        ) from exc
