"""Node matrices from exact rational phases.

A system with branch offsets ``{delta_j}`` on a union with integer nodes
``{p_k}`` is a Riesz basis exactly when the square matrix
``Gamma[j, k] = exp(2 pi i delta_j p_k)`` is nonsingular, and its optimal
frame constants are the extreme squared singular values of Gamma.  Offsets
are exact rationals (a float converts exactly on entry), and ``unit_phases``
reduces the phases ``delta_j * p_k`` mod 1 in integer arithmetic, so entries
are accurate to one rounding of the phase.  With offsets j * spacing, j < L,
two columns have coherence ``domains.sin_ratio(L, (p_a - p_b) * spacing)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .domains import as_fraction, finite_float
from .errors import PreconditionError

__all__ = [
    "NodeMatrix",
    "unit_phases",
    "build_gamma",
    "progression_matrix",
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

    Each x = X/q is read over its own denominator and the ys over their
    common one, y = Y/P, so the phase ``x y mod 1`` is ``(X Y mod qP) / qP``:
    reduced in integers and rounded once, however large x or y is.  An int
    or a Fraction is read as it is, and a float converts exactly.
    """
    xs = [x if isinstance(x, (int, Fraction)) else as_fraction(x) for x in xs]
    ys = [y if isinstance(y, (int, Fraction)) else as_fraction(y) for y in ys]
    p = math.lcm(*[y.denominator for y in ys])
    rows = [(x.numerator, x.denominator * p) for x in xs]
    cols = [y.numerator * (p // y.denominator) for y in ys]
    turns = np.fromiter((a * b % mod / mod for a, mod in rows for b in cols), float,
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
        deltas=tuple([finite_float(d, "an offset") for d in deltas]),
    )


def progression_matrix(nodes: Sequence[int], spacing) -> NodeMatrix:
    """Gamma for the uniform offsets delta_j = j * spacing, j = 0..L-1, L = len(nodes)."""
    spacing = as_fraction(spacing)
    return build_gamma([j * spacing for j in range(len(nodes))], nodes)
