"""Deterministic JSON output with exact float round-trips.

``dumps`` writes JSON at indent 2 with a trailing newline, byte for byte what
the stdlib's ``json.dumps(obj, indent=2, allow_nan=False)`` writes for
documents whose keys are strings: strings are escaped to ASCII, floats print
as their shortest ``repr``, which reads back as the same float64.  A
``Fraction`` has no form here; the certificate codec (``constructions``)
writes it before a document reaches ``dumps``.  It writes the text directly:
at an indent the stdlib runs its pure-Python encoder, whose closures leave
reference cycles behind every call.  Parsing wraps the stdlib decoder to
surface the line/column of the first syntax error.
"""

from __future__ import annotations

import json
import math

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
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _write(value, out, inner)
            sep = "," + inner
        out.append(indent + "}")
    else:
        out.append(_leaf(obj))


def dumps(obj) -> str:
    """``obj`` as indent-2 JSON plus a newline.  A non-finite float, a value
    of a type JSON has no form for (a ``Fraction`` among them), a key that is
    not a string, and a document that contains itself (or nests past the
    recursion limit) raise ``PreconditionError``."""
    out: list[str] = []
    try:
        _write(obj, out, "\n")
    except (TypeError, ValueError, RecursionError) as exc:
        raise PreconditionError(str(exc)) from exc
    out.append("\n")
    return "".join(out)


def loads(text: str):
    """Parse JSON text.  A syntax error, nesting past the recursion limit and
    an integer past the interpreter's digit limit raise ``JsonInputError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise JsonInputError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno, column=exc.colno,
        ) from exc
    except (RecursionError, ValueError) as exc:
        raise JsonInputError(f"malformed JSON: {exc}") from exc
