"""Domains and exponent systems, in exact rationals.

A domain is a sorted tuple of disjoint, non-empty intervals ``(start, end)``
with ``fractions.Fraction`` endpoints; touching intervals are allowed.
``validated_intervals`` is the one rule that builds and checks that tuple,
and ``FrameCertificate`` applies it to every certificate, however it was
made.  Branch offsets and domain scales are exact too (a float converts
exactly on entry), so truncated frequencies are exact rationals and phases
reduce mod 1 without rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite, lcm
from typing import Iterable, Sequence

from .errors import OverlapError, PreconditionError

RationalLike = int | Fraction
Interval = tuple[Fraction, Fraction]

__all__ = [
    "ExponentSystem",
    "Interval",
    "as_fraction",
    "finite_float",
    "fraction_to_json",
    "fraction_from_json",
    "lcd",
    "residues_distinct",
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


def fraction_to_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _json_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def fraction_from_json(obj: dict) -> Fraction:
    """Read ``{"num": p, "den": q}``: p a JSON integer, q a positive one."""
    if not (isinstance(obj, dict) and _json_int(obj.get("num"))
            and _json_int(obj.get("den")) and obj["den"] > 0):
        raise PreconditionError(
            f"malformed rational {obj!r}: need integer 'num' and positive integer 'den'")
    return Fraction(obj["num"], obj["den"])


def validated_intervals(pairs: Iterable) -> tuple[Interval, ...]:
    """The one domain rule: ``(start, end)`` pairs as a sorted tuple of exact intervals.

    Refused with a named error: no interval at all, an empty or reversed
    interval, an overlap (``OverlapError``), and a length that does not
    convert to a finite float, since the Gram form integrates over float
    lengths.  Endpoints themselves may be arbitrarily large.
    """
    out = sorted((as_fraction(lo), as_fraction(hi)) for lo, hi in pairs)
    if not out:
        raise PreconditionError("a domain needs at least one interval")
    for lo, hi in out:
        if hi <= lo:
            raise PreconditionError(f"empty interval [{lo}, {hi})")
        finite_float(hi - lo, "an interval length")
    for (lo, hi), (nxt, _) in zip(out, out[1:]):
        if nxt < hi:
            raise OverlapError(f"interval [{lo}, {hi}) overlaps the one starting at {nxt}")
    return tuple(out)


def lcd(values: Iterable[RationalLike | float]) -> int:
    """Least common denominator of a nonempty collection of rationals."""
    fracs = [as_fraction(v) for v in values]
    if not fracs:
        raise PreconditionError("lcd of an empty collection")
    return lcm(*(f.denominator for f in fracs))


def residues_distinct(endpoints: Sequence[int], modulus: int) -> bool:
    """True iff the integers are pairwise distinct modulo ``modulus``."""
    if modulus < 1:
        raise PreconditionError(f"modulus must be >= 1, got {modulus}")
    res = [e % modulus for e in endpoints]
    return len(set(res)) == len(res)


def _wrapped_offsets_distinct(offsets: Sequence[Fraction]) -> bool:
    reduced = sorted(phi.numerator % phi.denominator / phi.denominator for phi in offsets)
    if len(reduced) < 2:
        return True
    gaps = [b - a for a, b in zip(reduced, reduced[1:])]
    gaps.append(reduced[0] + 1.0 - reduced[-1])  # wrap-around gap
    return min(gaps) >= 1e-12


@dataclass(frozen=True)
class ExponentSystem:
    """A union of integer-translate branches of exponentials.

    Branch ``j`` is the frequency set ``{(n + phi_j) / domain_scale : n in Z}``;
    ``domain_scale`` tracks a dilation of the domain, exactly.
    """

    branch_offsets: tuple[Fraction, ...]
    domain_scale: Fraction = field(default=Fraction(1))

    def __init__(self, branch_offsets: Iterable, domain_scale=Fraction(1)):
        offs = tuple(as_fraction(phi) for phi in branch_offsets)
        if not offs:
            raise PreconditionError("a system needs at least one branch")
        if not _wrapped_offsets_distinct(offs):
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

    def to_json(self) -> dict:
        return {
            "branch_offsets": [fraction_to_json(phi) for phi in self.branch_offsets],
            "domain_scale": fraction_to_json(self.domain_scale),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ExponentSystem":
        """Offsets are ``{num, den}`` objects or, as older documents wrote them, numbers."""
        offs = [fraction_from_json(phi) if isinstance(phi, dict) else _json_number(phi)
                for phi in doc["branch_offsets"]]
        return cls(offs, fraction_from_json(doc["domain_scale"]))


def _json_number(v) -> Fraction:
    if not (_json_int(v) or isinstance(v, float) and isfinite(v)):
        raise PreconditionError(f"a branch offset must be a finite number or a rational, got {v!r}")
    return Fraction(v)

