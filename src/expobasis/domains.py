"""Domains and exponent systems, in exact rationals.

A domain is a sorted tuple of non-empty runs ``(start, end)`` with
``fractions.Fraction`` endpoints, no two of which overlap or touch.
``validated_intervals`` is the one rule that builds and checks that tuple,
and ``FrameCertificate`` applies it to every certificate, however it was
made.  Branch offsets and domain scales are exact too (a float converts
exactly on entry), so frequencies are exact and phases reduce mod 1 without
rounding.  The sine ratio of the certified bounds, ``sin_ratio``, lives here
too, in pure ``math``: the constructions need no numpy.  Nothing here knows
JSON; ``constructions`` owns the document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import OverlapError, PreconditionError

Interval = tuple[Fraction, Fraction]

__all__ = [
    "ExponentSystem",
    "Interval",
    "as_fraction",
    "finite_float",
    "residues_distinct",
    "sin_ratio",
    "validated_intervals",
]


def as_fraction(x: int | float | Fraction | str) -> Fraction:
    """Coerce to an exact Fraction.

    Floats convert exactly (every float is a binary rational); strings accept
    the ``p/q`` form.
    """
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def finite_float(x: Fraction, what: str) -> float:
    """float(x), or a PreconditionError naming ``what`` when x is beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        raise PreconditionError(f"{what} is beyond the float range") from None


def validated_intervals(pairs: Iterable) -> tuple[Interval, ...]:
    """The one domain rule: ``(start, end)`` pairs as a sorted tuple of exact runs.

    Refused with a named error, in this order: no interval at all, an empty
    or reversed interval, an overlap (``OverlapError``).  Touching intervals
    are then joined into runs, so a set has one form however it is listed,
    and a run whose length does not convert to a finite float is refused,
    since the Gram form integrates over float run lengths.  Endpoints may be
    arbitrarily large.  The endpoints are sorted and compared as the exact
    rationals they are, each over its own denominator.
    """
    ends = sorted([(as_fraction(lo), as_fraction(hi)) for lo, hi in pairs])
    if not ends:
        raise PreconditionError("a domain needs at least one interval")
    for lo, hi in ends:
        if hi <= lo:
            raise PreconditionError(f"empty interval [{lo}, {hi})")
    for (lo, hi), (nxt, _) in zip(ends, ends[1:]):
        if nxt < hi:
            raise OverlapError(f"interval [{lo}, {hi}) overlaps the one starting at {nxt}")
    runs: list[Interval] = []
    for lo, hi in ends:
        if runs and lo == runs[-1][1]:
            runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((lo, hi))
    for lo, hi in runs:
        finite_float(hi - lo, "an interval length")
    return tuple(runs)


def residues_distinct(endpoints: Sequence[int], modulus: int) -> bool:
    """True iff the integers are pairwise distinct modulo ``modulus``."""
    if modulus < 1:
        raise PreconditionError(f"modulus must be >= 1, got {modulus}")
    res = [e % modulus for e in endpoints]
    return len(set(res)) == len(res)


def _wrap_value(x) -> Fraction:
    """Exact distance from x to the nearest integer, in [0, 1/2]."""
    p, q = as_fraction(x).as_integer_ratio()
    return Fraction(min(p % q, q - p % q), q)


def sin_ratio(m: int, x) -> float:
    """|sin(pi m x) / sin(pi x)| with its removable limit m at integer x.

    Even and 1-periodic in x; ranges over [0, m].
    """
    if m < 1:
        raise PreconditionError(f"m must be >= 1, got {m}")
    if isinstance(x, float) and math.isfinite(x):
        r = abs(x) % 1.0  # exact, as is 1 - r where r >= 1/2 (Sterbenz)
        r = min(r, 1.0 - r)
    else:
        r = float(_wrap_value(x))
    if r == 0.0:
        return float(m)
    # the true ratio never exceeds m; min() trims float overshoot (the raw
    # quotient of two subnormal sines can exceed m by a large margin)
    return min(abs(math.sin(math.pi * m * r) / math.sin(math.pi * r)), float(m))


@dataclass(frozen=True)
class ExponentSystem:
    """A union of integer-translate branches of exponentials.

    Branch ``j`` is the frequency set ``{(n + phi_j) / domain_scale : n in Z}``;
    ``domain_scale`` tracks a dilation of the domain, exactly.
    """

    branch_offsets: tuple[Fraction, ...]
    domain_scale: Fraction = field(default=Fraction(1))

    def __init__(self, branch_offsets: Iterable, domain_scale=Fraction(1)):
        offs = tuple([as_fraction(phi) for phi in branch_offsets])
        if not offs:
            raise PreconditionError("a system needs at least one branch")
        # p/q in lowest terms has residue (p mod q)/q mod 1, also in lowest terms
        if len({(phi.numerator % phi.denominator, phi.denominator) for phi in offs}) < len(offs):
            raise PreconditionError("branch offsets must be pairwise distinct mod 1")
        scale = as_fraction(domain_scale)
        if scale <= 0:
            raise PreconditionError(f"domain_scale must be positive, got {scale}")
        object.__setattr__(self, "branch_offsets", offs)
        object.__setattr__(self, "domain_scale", scale)

    @property
    def branches(self) -> int:
        return len(self.branch_offsets)

    def frequencies(self, n_max: int) -> list[Fraction]:
        """Exact truncated frequency list: branch-major, n from -n_max to n_max."""
        if n_max < 0:
            raise PreconditionError(f"n_max must be >= 0, got {n_max}")
        # (n + p/q) / (a/b) = (n q + p) b / (q a)
        a, b = self.domain_scale.numerator, self.domain_scale.denominator
        return [Fraction((n * phi.denominator + phi.numerator) * b, phi.denominator * a)
                for phi in self.branch_offsets for n in range(-n_max, n_max + 1)]
