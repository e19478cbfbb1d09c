"""Node matrices for exponent systems on integer interval unions.

A system with branch offsets ``{delta_j}`` on a union with integer nodes
``{p_k}`` is a Riesz basis exactly when the square matrix
``Gamma[j, k] = exp(2 pi i delta_j p_k)`` is nonsingular, and its optimal
frame constants are the extreme squared singular values of Gamma.  Offsets
are exact rationals (a float converts exactly on entry), and the phases
``delta_j * p_k`` are reduced mod 1 in integer arithmetic, so entries are
accurate to one rounding of the phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domains import IntegerIntervalUnion, as_fraction
from .errors import PreconditionError

__all__ = [
    "NodeMatrix",
    "nodes_of_union",
    "build_gamma",
    "progression_matrix",
    "wrap_distance",
    "sin_ratio",
    "coherence",
    "matrix_to_json",
    "matrix_from_json",
    "matrix_to_bytes",
    "matrix_from_bytes",
]

TWO_PI_I = 1j * (2.0 * math.pi)


@dataclass(frozen=True)
class NodeMatrix:
    """Square matrix Gamma with its generating data.

    Columns follow ascending node order; rows follow the given offset order.
    """

    entries: np.ndarray
    nodes: tuple[int, ...]
    deltas: tuple[float, ...]

    @property
    def size(self) -> int:
        return len(self.nodes)


def nodes_of_union(union: IntegerIntervalUnion) -> tuple[int, ...]:
    """All integers covered by the union's blocks, ascending."""
    nodes = union.nodes
    if len(set(nodes)) != len(nodes):
        raise PreconditionError("blocks overlap: duplicate integer nodes")
    return nodes


def build_gamma(deltas: Sequence, nodes: Sequence[int]) -> NodeMatrix:
    """Assemble Gamma[j, k] = exp(2 pi i deltas[j] * nodes[k]).

    The phase of delta = p/q at node n is ``(p n mod q) / q``, exact up to its
    one rounding.  Nodes must be distinct integers and are sorted ascending.
    """
    if len(deltas) != len(nodes) or not deltas:
        raise PreconditionError(
            f"need equally many offsets and nodes (L >= 1), got {len(deltas)} and {len(nodes)}"
        )
    ordered = sorted(int(n) for n in nodes)
    if len(set(ordered)) != len(ordered):
        raise PreconditionError("nodes must be pairwise distinct")
    deltas = [as_fraction(d) for d in deltas]
    L = len(ordered)
    entries = np.empty((L, L), dtype=np.complex128)
    for j, d in enumerate(deltas):
        p, q = d.numerator, d.denominator
        entries[j] = [cmath.exp(TWO_PI_I * (p * n % q / q)) for n in ordered]
    return NodeMatrix(
        entries=entries,
        nodes=tuple(ordered),
        deltas=tuple(float(d) for d in deltas),
    )


def progression_matrix(nodes: Sequence[int], spacing, size: int | None = None) -> NodeMatrix:
    """Gamma for the uniform offsets delta_j = j * spacing, j = 0..L-1."""
    L = len(nodes) if size is None else size
    if L != len(nodes):
        raise PreconditionError("progression matrix must be square: size == len(nodes)")
    spacing = as_fraction(spacing)
    return build_gamma([j * spacing for j in range(L)], nodes)


def wrap_distance(t: float, s: float = 0.0) -> float:
    """Distance on the unit circle: min_n |t - s - n|, in [0, 1/2]."""
    r = abs(math.fmod(t - s, 1.0))
    return min(r, 1.0 - r)


def _wrap_value(x) -> float:
    """Wrap representative in [0, 1/2], reduced exactly."""
    f = as_fraction(x)
    r = f - (f.numerator // f.denominator)
    return float(min(r, 1 - r))


def sin_ratio(m: int, x) -> float:
    """|sin(pi m x) / sin(pi x)| with its removable limit m at integer x.

    Even and 1-periodic in x; ranges over [0, m].
    """
    if m < 1:
        raise PreconditionError(f"m must be >= 1, got {m}")
    r = _wrap_value(x)
    if r == 0.0:
        return float(m)
    # the true ratio never exceeds m; min() trims float overshoot (the raw
    # quotient of two subnormal sines can exceed m by a large margin)
    return min(abs(math.sin(math.pi * m * r) / math.sin(math.pi * r)), float(m))


def coherence(node_a: int, node_b: int, spacing, length: int) -> float:
    """|<column_a, column_b>| for the uniform matrix with ``length`` rows.

    Equals sin_ratio(length, (node_a - node_b) * spacing).
    """
    if node_a == node_b:
        raise PreconditionError("coherence needs two distinct nodes")
    return sin_ratio(length, (node_a - node_b) * as_fraction(spacing))


# --- serialization -------------------------------------------------------

def matrix_to_json(m: NodeMatrix) -> dict:
    return {
        "rows": m.size,
        "cols": m.size,
        "nodes": list(m.nodes),
        "deltas": list(m.deltas),
        "re": m.entries.real.tolist(),
        "im": m.entries.imag.tolist(),
    }


def matrix_from_json(doc: dict) -> NodeMatrix:
    entries = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise PreconditionError("matrix JSON must describe a square matrix")
    nodes = tuple(int(n) for n in doc.get("nodes", range(entries.shape[0])))
    deltas = tuple(float(d) for d in doc.get("deltas", [0.0] * entries.shape[0]))
    return NodeMatrix(entries.astype(np.complex128), nodes, deltas)


def matrix_to_bytes(m: NodeMatrix) -> bytes:
    """Row-major interleaved float64 re/im pairs, little-endian, no header."""
    inter = np.empty((m.size, m.size, 2), dtype="<f8")
    inter[..., 0] = m.entries.real
    inter[..., 1] = m.entries.imag
    return inter.tobytes()


def matrix_from_bytes(buf: bytes) -> np.ndarray:
    n_values = len(buf) // 8
    if len(buf) % 16:
        raise PreconditionError("byte length is not a whole number of complex entries")
    L = math.isqrt(n_values // 2)
    if 2 * L * L != n_values:
        raise PreconditionError("byte length is not a square matrix")
    flat = np.frombuffer(buf, dtype="<f8").reshape(L, L, 2)
    return (flat[..., 0] + 1j * flat[..., 1]).astype(np.complex128)
