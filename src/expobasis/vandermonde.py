"""Node matrices, the wrap-around distance, the sine ratio and coherence.

A system with branch offsets ``{delta_j}`` on a union with integer nodes
``{p_k}`` is a Riesz basis exactly when the square matrix
``Gamma[j, k] = exp(2 pi i delta_j p_k)`` is nonsingular, and its optimal
frame constants are the extreme squared singular values of Gamma.  Offsets
are exact rationals (a float converts exactly on entry), and ``unit_phases``
reduces the phases ``delta_j * p_k`` mod 1 in integer arithmetic, so entries
are accurate to one rounding of the phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .domains import as_fraction, finite_float, lcd
from .errors import PreconditionError

__all__ = [
    "NodeMatrix",
    "unit_phases",
    "build_gamma",
    "progression_matrix",
    "sin_ratio",
    "coherence",
]


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


def unit_phases(xs: Sequence, ys: Sequence) -> np.ndarray:
    """The len(xs) x len(ys) array exp(2 pi i x y) over exact rationals x, y.

    Over common denominators x = X/Q and y = Y/P, the phase ``x y mod 1`` is
    ``(X Y mod QP) / QP``: reduced in integers and rounded once, however large
    x or y is.  A float converts exactly.
    """
    xs = [as_fraction(x) for x in xs]
    ys = [as_fraction(y) for y in ys]
    q, p = lcd(xs), lcd(ys)
    mod = q * p
    rows = [x.numerator * (q // x.denominator) for x in xs]
    cols = [y.numerator * (p // y.denominator) % mod for y in ys]
    turns = np.fromiter((a * b % mod / mod for a in rows for b in cols), float,
                        len(rows) * len(cols)).reshape(len(rows), len(cols))
    return np.exp(2j * np.pi * turns)


def build_gamma(deltas: Sequence, nodes: Sequence[int]) -> NodeMatrix:
    """Assemble Gamma[j, k] = exp(2 pi i deltas[j] * nodes[k]).

    The entries are ``unit_phases(deltas, nodes)``, exact up to one rounding
    of each phase.  Nodes must be distinct integers and are sorted ascending.
    """
    if len(deltas) != len(nodes) or not deltas:
        raise PreconditionError(
            f"need equally many offsets and nodes (L >= 1), got {len(deltas)} and {len(nodes)}"
        )
    ordered = sorted(int(n) for n in nodes)
    if len(set(ordered)) != len(ordered):
        raise PreconditionError("nodes must be pairwise distinct")
    deltas = [as_fraction(d) for d in deltas]
    return NodeMatrix(
        entries=unit_phases(deltas, ordered),
        nodes=tuple(ordered),
        deltas=tuple(finite_float(d, "an offset") for d in deltas),
    )


def progression_matrix(nodes: Sequence[int], spacing) -> NodeMatrix:
    """Gamma for the uniform offsets delta_j = j * spacing, j = 0..L-1, L = len(nodes)."""
    spacing = as_fraction(spacing)
    return build_gamma([j * spacing for j in range(len(nodes))], nodes)


def _wrap_value(x) -> Fraction:
    """Exact distance from x to the nearest integer, in [0, 1/2]."""
    f = as_fraction(x)
    r = f - (f.numerator // f.denominator)
    return min(r, 1 - r)


def sin_ratio(m: int, x) -> float:
    """|sin(pi m x) / sin(pi x)| with its removable limit m at integer x.

    Even and 1-periodic in x; ranges over [0, m].
    """
    if m < 1:
        raise PreconditionError(f"m must be >= 1, got {m}")
    r = float(_wrap_value(x))
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
