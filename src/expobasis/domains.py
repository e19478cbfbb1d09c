"""Domains (finite unions of unit intervals) and exponent systems.

All interval endpoints and branch offsets are exact rationals
(`fractions.Fraction`; a float converts exactly on entry), so dilating a union
onto its integer grid and reducing phases mod 1 are exact operations.
A union is stored by the left endpoints of its unit-length intervals:
``{e_j}`` represents ``U_j [e_j, e_j + 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite, lcm
from typing import Iterable, Sequence

from .errors import OverlapError, PreconditionError

RationalLike = int | Fraction

__all__ = [
    "RationalIntervalUnion",
    "IntegerIntervalUnion",
    "ExponentSystem",
    "as_fraction",
    "fraction_to_json",
    "fraction_from_json",
    "lcd",
    "normalize_to_integer_grid",
    "rescale_system",
    "residues_distinct",
]


def as_fraction(x: int | float | Fraction | str) -> Fraction:
    """Coerce to an exact Fraction.

    Floats convert exactly (every float is a binary rational); strings accept
    the ``p/q`` form.
    """
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


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


def _validated_endpoints(endpoints: Sequence[Fraction], min_gap) -> tuple:
    if not endpoints:
        raise PreconditionError("a union needs at least one interval")
    for a, b in zip(endpoints, endpoints[1:]):
        if b - a < min_gap:
            raise OverlapError(
                f"interval at {b} overlaps the one at {a} (gap {b - a} < {min_gap})"
            )
    return tuple(endpoints)


@dataclass(frozen=True)
class RationalIntervalUnion:
    """Disjoint union of unit-length intervals with rational left endpoints."""

    left_endpoints: tuple[Fraction, ...]
    label: str | None = None

    def __init__(self, left_endpoints: Iterable, label: str | None = None):
        eps = [as_fraction(e) for e in left_endpoints]
        object.__setattr__(self, "left_endpoints", _validated_endpoints(eps, 1))
        object.__setattr__(self, "label", label)

    @property
    def measure(self) -> int:
        return len(self.left_endpoints)

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((e, e + 1) for e in self.left_endpoints)

    @property
    def is_canonical(self) -> bool:
        return self.left_endpoints[0] == 0

    def canonicalize(self) -> tuple["RationalIntervalUnion", Fraction]:
        """Translate so the first endpoint is 0; returns (union, shift applied)."""
        v = -self.left_endpoints[0]
        if v == 0:
            return self, Fraction(0)
        return RationalIntervalUnion([e + v for e in self.left_endpoints], self.label), v

    def translate(self, v) -> "RationalIntervalUnion":
        v = as_fraction(v)
        return RationalIntervalUnion([e + v for e in self.left_endpoints], self.label)

    def to_json(self) -> dict:
        doc = {"endpoints": [fraction_to_json(e) for e in self.left_endpoints]}
        if self.label is not None:
            doc["label"] = self.label
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "RationalIntervalUnion":
        return cls(
            [fraction_from_json(e) for e in doc["endpoints"]],
            label=doc.get("label"),
        )


@dataclass(frozen=True)
class IntegerIntervalUnion:
    """Union of blocks ``[e_j, e_j + N)`` of integers — a unit union dilated by N."""

    left_endpoints: tuple[int, ...]
    scale: int = 1

    def __post_init__(self):
        if self.scale < 1 or int(self.scale) != self.scale:
            raise PreconditionError(f"scale must be a positive integer, got {self.scale}")
        object.__setattr__(self, "scale", int(self.scale))
        eps = tuple(int(e) for e in self.left_endpoints)
        if eps and eps[0] < 0:
            raise PreconditionError("integer unions are canonical: endpoints must be >= 0")
        object.__setattr__(self, "left_endpoints", _validated_endpoints(eps, self.scale))

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(e + r for e in self.left_endpoints for r in range(self.scale))


def lcd(values: Iterable[RationalLike | float]) -> int:
    """Least common denominator of a nonempty collection of rationals."""
    fracs = [as_fraction(v) for v in values]
    if not fracs:
        raise PreconditionError("lcd of an empty collection")
    return lcm(*(f.denominator for f in fracs))


def normalize_to_integer_grid(union: RationalIntervalUnion) -> IntegerIntervalUnion:
    """Dilate a rational union by the least common denominator of its endpoints.

    The result has integer endpoints and carries the dilation factor as
    ``scale``; applying it to an already-integer union is the identity
    (scale 1).
    """
    n = lcd(union.left_endpoints)
    scaled = [e * n for e in union.left_endpoints]
    assert all(s.denominator == 1 for s in scaled)
    if scaled and scaled[0] < 0:
        raise PreconditionError(
            "union is not in canonical position (first endpoint < 0); canonicalize first"
        )
    return IntegerIntervalUnion(tuple(int(s) for s in scaled), scale=n)


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
    ``domain_scale`` tracks dilations so rescaling round-trips exactly when the
    factor is rational.
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

    def frequencies(self, n_max: int) -> list[float]:
        """Truncated frequency list: branch-major, n from -n_max to n_max."""
        if n_max < 0:
            raise PreconditionError(f"n_max must be >= 0, got {n_max}")
        # (n + p/q) / (a/b) = (n q + p) b / (q a): one rounding, in int / int
        a, b = self.domain_scale.numerator, self.domain_scale.denominator
        return [(n * phi.denominator + phi.numerator) * b / (phi.denominator * a)
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


def rescale_system(
    system: ExponentSystem,
    rho,
    v=0,
    constants: tuple[float, float] | None = None,
):
    """Dilate the underlying domain by rho (and translate by v).

    Frequencies are divided by rho, i.e. ``domain_scale`` is multiplied by it;
    attached frame constants scale by rho; translation leaves both the offsets
    and the constants unchanged.

    Returns the rescaled system, or ``(system, (A*rho, B*rho))`` when
    ``constants`` is given.
    """
    rho = as_fraction(rho)
    if rho <= 0:
        raise PreconditionError(f"rho must be positive, got {rho}")
    scaled = ExponentSystem(system.branch_offsets, system.domain_scale * rho)
    if constants is None:
        return scaled
    a, b = constants
    return scaled, (a * float(rho), b * float(rho))
