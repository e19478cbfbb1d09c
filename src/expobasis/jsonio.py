"""Deterministic JSON output with full-precision floats.

Floats print with 17 significant digits so every float64 round-trips exactly
and identical invocations produce byte-identical reports.  Parsing wraps the
stdlib decoder to surface the line/column of the first syntax error.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import JsonInputError, PreconditionError

__all__ = ["dumps", "loads"]


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise PreconditionError(f"cannot serialize non-finite float {x!r}")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _write(obj, out: list, indent: int, level: int):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, Fraction):
        _write({"num": obj.numerator, "den": obj.denominator}, out, indent, level)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise PreconditionError(f"JSON object keys must be strings, got {k!r}")
            out.append(pad_in + json.dumps(k) + ": ")
            _write(v, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad_in)
            _write(v, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif obj is None:
        out.append("null")
    else:
        raise PreconditionError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps(obj, indent: int = 2) -> str:
    out: list[str] = []
    _write(obj, out, indent, 0)
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
