"""Certified exponential-basis constructions on modified interval unions.

Each constructor converts its rational inputs to ``Fraction`` on entry,
validates its admissibility window exactly, and emits a ``FrameCertificate``
with closed-form lower/upper Riesz constants.  ``CONSTRUCTIONS`` declares
every construction once: its method name, its builder and its inputs.  The
certificate names its exponent system and its domain, and
``associated_matrix`` reduces that pair to the node matrix the
singular-value oracle checks.

The certified bounds are closed forms in sine ratios, the pairwise column
coherence of a node matrix: an envelope factor ``1 -/+ M sin(1/M)``, or
``1 -/+ c`` with c the parity cosine bound, times a column-spread factor.  The
two lattice variants share one validator and one certificate body; the paired
one clusters large-coherence pairs with ``partition_by_coherence`` and widens
its spread by the largest within-cluster sine ratio, read from the partition.
``associated_matrix`` imports its numpy module when called, so a certificate
is built, written and read without numpy.

The v1 certificate document lives here too: one encoder writes each rational
as a ``{num, den}`` object and one strict reader reads it back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .clusters import partition_by_coherence
from .domains import (
    ExponentSystem,
    Interval,
    _wrap_value,
    as_fraction,
    finite_float,
    residues_distinct,
    sin_ratio,
    validated_intervals,
)
from .errors import (
    ClusterSizeError,
    ComplementRangeError,
    DeltaWindowError,
    EpsilonError,
    LatticeError,
    PreconditionError,
    ResidueClashError,
    SeparationError,
    ThresholdError,
    VerificationError,
)

if TYPE_CHECKING:
    from .vandermonde import NodeMatrix

__all__ = [
    "BetaSolution",
    "CONSTRUCTIONS",
    "FrameCertificate",
    "METHODS",
    "solve_beta",
    "delta_window_perturbed_union",
    "construct_perturbed_union",
    "delta_window_interval_removal",
    "threshold_u",
    "separation_margin",
    "certify_lattice_subset",
    "certify_lattice_subset_paired",
    "construct_interval_removal",
    "residue_orthogonal_basis",
    "complement_certificate",
    "associated_matrix",
    "certificate_to_json",
    "certificate_from_json",
]

#: method -> (builder, the builder's inputs in call order, named as the CLI
#: options that carry them).  Builders are named, not bound, so a lookup at
#: call time sees any wrapper later placed on this module's attributes.
CONSTRUCTIONS = {
    "perturbed_union": ("construct_perturbed_union", ("s", "a", "epsilons", "delta")),
    "lattice_subset": ("certify_lattice_subset", ("N", "M", "a", "u")),
    "lattice_subset_paired": ("certify_lattice_subset_paired", ("N", "M", "a", "u")),
    "interval_removal": ("construct_interval_removal", ("N", "m", "delta")),
    "residue_orthogonal": ("residue_orthogonal_basis", ("s", "a")),
    "complement": ("complement_certificate", ("Delta", "input")),
}
METHODS = tuple(CONSTRUCTIONS)


# --- scalar helpers -------------------------------------------------------

@dataclass(frozen=True)
class BetaSolution:
    """Root of sin(pi M beta)/sin(pi beta) = M sin(1/M) on (0, 1/M)."""

    m: int
    beta: float
    residual: float
    iterations: int

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0 / self.m:
            raise VerificationError(f"beta = {self.beta} escaped (0, 1/{self.m})")


#: Largest m ``solve_beta`` takes: the window edge 1/m - beta cancels, with a
#: relative error near m * 2**-52 (at most 2.3 m * 2**-52 on 4,000 sampled m
#: in [1e6, 1e9]), so beyond 1e9 the edge is not given to 1e-6.
MAX_BETA_M = 10**9


@functools.lru_cache
def solve_beta(m: int) -> BetaSolution:
    """Bisect for the unique beta with sin(pi m beta)/sin(pi beta) = m sin(1/m).

    The ratio decreases from m to 0 across (0, 1/m), so the root is simple.
    Bisection runs until the residual drops below 1e-13 or the float bracket
    is exhausted (the midpoint equals an endpoint); the reported residual is
    evaluated at the returned double.  m above ``MAX_BETA_M`` is refused.  The
    solution is immutable, so it is solved once per m and shared by every
    window and construction that asks for it.
    """
    if m < 2:
        raise PreconditionError(f"need m >= 2 for a nondegenerate root, got {m}")
    if m > MAX_BETA_M:
        raise PreconditionError(f"need m <= MAX_BETA_M = {MAX_BETA_M} for a window edge "
                                f"1/m - beta good to 1e-6, got {m}")
    target = m * math.sin(1.0 / m)
    lo, hi = 0.0, 1.0 / m
    for iterations in range(1, 201):
        beta = 0.5 * (lo + hi)
        r = sin_ratio(m, beta) - target
        if abs(r) <= 1e-13 or beta in (lo, hi):
            break
        if r > 0.0:
            lo = beta
        else:
            hi = beta
    return BetaSolution(m=m, beta=beta, residual=abs(r), iterations=iterations)


# --- certificates ---------------------------------------------------------

@dataclass(frozen=True)
class FrameCertificate:
    """Certified Riesz bounds A <= ||sum a_j v_j||^2 / sum |a_j|^2 <= B.

    ``params`` keeps the construction inputs (rationals as ``Fraction``) for
    the record; verification reads only ``system`` and
    ``domain_intervals``.  The domain is stored as ``validated_intervals``
    returns it, as its runs, so every certificate, built or read, obeys one
    domain rule and holds one tuple per set.
    ``flags`` records conventions and vacuity warnings.
    """

    method: str
    A: float
    B: float
    system: ExponentSystem
    domain_intervals: tuple[Interval, ...]
    params: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.method not in METHODS:
            raise PreconditionError(f"unknown method {self.method!r}")
        if not (math.isfinite(self.A) and math.isfinite(self.B)) or self.A > self.B:
            raise PreconditionError(f"invalid constants A={self.A}, B={self.B}")
        object.__setattr__(self, "domain_intervals", validated_intervals(self.domain_intervals))

    @property
    def vacuous(self) -> bool:
        return self.A <= 0.0


def _vacuity_flags(a: float) -> tuple[str, ...]:
    return ("vacuous_lower_bound",) if a <= 0.0 else ()


# --- perturbed unions -----------------------------------------------------

def _validated_perturbation(s: int, a: Sequence[int], eps: Sequence):
    if s < 1:
        raise PreconditionError(f"s must be >= 1, got {s}")
    a = [int(v) for v in a]
    if len(a) != s:
        raise PreconditionError(f"need {s} endpoints, got {len(a)}")
    if a[0] != 0:
        raise PreconditionError("canonical position: first endpoint must be 0")
    if any(y <= x for x, y in zip(a, a[1:])):
        raise PreconditionError("endpoints must be strictly increasing")
    if not residues_distinct(a, s):
        raise ResidueClashError(f"endpoints {a} are not distinct mod {s}")
    try:
        eps = [as_fraction(e) for e in eps]
    except (TypeError, ValueError) as exc:
        raise EpsilonError(f"perturbations must be rational: {exc}") from exc
    if len(eps) != s:
        raise EpsilonError(f"need {s} perturbations, got {len(eps)}")
    if eps[0] != 0:
        raise EpsilonError("canonical form requires eps_0 = 0")
    if any(abs(e) >= Fraction(1, 2) for e in eps):
        raise EpsilonError("perturbations must satisfy |eps| < 1/2 (strict)")
    domain = validated_intervals([(a_j + e_j, a_j + e_j + 1) for a_j, e_j in zip(a, eps)])
    return a, eps, domain


def _approx(x: Fraction) -> str:
    """``str(float(x))`` for a message; past the float range, where float()
    raises, the leading digits of x in e-notation."""
    try:
        return str(float(x))
    except OverflowError:
        digits = str(abs(x.numerator) // x.denominator)
        return f"{'-' if x < 0 else ''}{digits[0]}.{digits[1:7]}e+{len(digits) - 1}"


def delta_window_perturbed_union(s: int, a: Sequence[int], eps: Sequence):
    """Admissible |delta| window [lo, hi] plus (N, m, beta) for these inputs.

    lo = 1/(2 s^2 N^3 m) is exact (a Fraction); hi = 1/(s N^2 m) - beta/(N m)
    is a float through beta.  The window is never empty: 1/(2M^2) < 1/M - beta
    for every M = sN >= 2.
    """
    a, eps, _ = _validated_perturbation(s, a, eps)
    return _perturbed_window(s, a, eps)


def _perturbed_window(s: int, a: list[int], eps: list[Fraction]):
    n = math.lcm(*[e.denominator for e in eps])
    m_frac = n * (a[-1] + eps[-1])
    assert m_frac.denominator == 1
    m = int(m_frac)
    if m < 1:
        raise PreconditionError(f"grid position m = N*(a_last + eps_last) must be >= 1, got {m}")
    big_m = s * n
    if big_m < 2:
        raise PreconditionError("s*N >= 2 required (a single unperturbed interval needs no shift)")
    beta = solve_beta(big_m)
    lo = Fraction(1, 2 * s * s * n**3 * m)
    hi = 1.0 / finite_float(s * n * n * m, "s*N^2*m") - beta.beta / (n * m)
    return lo, hi, n, m, beta


def construct_perturbed_union(s: int, a: Sequence[int], eps: Sequence, delta) -> FrameCertificate:
    """Certified basis on U_j [a_j + eps_j, a_j + eps_j + 1).

    The system has branch offsets ``j/s + j*delta``.  Its node matrix lives
    on the N-fold dilated grid, with the s*N branches (r + j/s + j*delta)/N
    for 0 <= r < N, and its squared singular values must fall in [N*A, N*B]
    (see ``associated_matrix``).
    """
    a, eps, domain = _validated_perturbation(s, a, eps)
    lo, hi, n, m, beta = _perturbed_window(s, a, eps)
    delta = as_fraction(delta)
    if not lo <= abs(delta) <= hi:
        raise DeltaWindowError(
            f"|delta| = {_approx(abs(delta))} outside [{float(lo)}, {hi}] for (s={s}, N={n}, m={m})"
        )
    big_m = s * n
    ratio = math.sin(math.pi / (2 * n * m)) / math.sin(
        math.pi / finite_float(2 * s * n * n * m, "2*s*N^2*m"))
    envelope = big_m * math.sin(1.0 / big_m)
    A = (1.0 - envelope) * (big_m - ratio) / n
    B = (1.0 + envelope) * (big_m + ratio) / n
    system = ExponentSystem([j * (Fraction(1, s) + delta) for j in range(s)], domain_scale=1)
    return FrameCertificate(
        method="perturbed_union",
        A=A,
        B=B,
        system=system,
        domain_intervals=domain,
        params={
            "s": s,
            "a": list(a),
            "eps": list(eps),
            "delta": delta,
            "N": n,
            "m": m,
            "beta": beta.beta,
            "window": [lo, hi],
        },
        flags=("statement_offsets", "m_includes_grid_factor") + _vacuity_flags(A),
    )


# --- lattice subsets ------------------------------------------------------

def threshold_u(n: int, m: int) -> float:
    """Least real the integer shift u must exceed, by the parity of n."""
    nf = finite_float(n, "N")
    v = m * math.sin(1.0 / m)
    if n % 2 == 0:
        return (nf / math.pi) * math.acos(v)
    return (nf / math.pi) * math.acos(v * math.cos(math.pi / (2 * nf))) - 0.5


def separation_margin(d: int, n: int, m: int) -> Fraction:
    """Exact wrap-metric margin |d/n|_T - |d m / n|_T for a node difference d."""
    return _wrap_value(Fraction(d, n)) - _wrap_value(Fraction(d * m, n))


def _parity_cos(n: int, u: int) -> float:
    if n % 2 == 0:
        return abs(math.cos(math.pi * u / n))
    return abs(math.cos(math.pi / (2 * n) + math.pi * u / n)) / math.cos(math.pi / (2 * n))


def _validated_lattice_subset(n: int, m: int, a: Sequence[int], u: int) -> list[int]:
    if not (isinstance(n, int) and isinstance(m, int) and isinstance(u, int)):
        raise PreconditionError("N, M, u must be integers")
    if not (2 < m and 2 * m <= n):
        raise PreconditionError(f"need 2 < M <= N/2, got M={m}, N={n}")
    if u < 1:
        raise ThresholdError(f"u must be a positive integer, got {u}")
    thr = threshold_u(n, m)
    if not u > thr:
        raise ThresholdError(f"u = {u} does not exceed the admissibility threshold {thr:.6f}")
    a = sorted(int(v) for v in a)
    if len(a) != m:
        raise PreconditionError(f"need {m} endpoints, got {len(a)}")
    if len(set(a)) != m:
        raise PreconditionError("endpoints must be distinct")
    if a[0] < 0 or a[-1] >= n:
        raise PreconditionError(f"endpoints must lie in [0, {n})")
    return a


def _lattice_certificate(method: str, n: int, m: int, a: list[int], u: int,
                         paired: dict[tuple[int, int], float]) -> FrameCertificate:
    """The one lattice certificate body.  ``paired`` maps the index pairs exempt
    from the separation check to their sine ratios, whose largest is alpha."""
    bound = Fraction(u, n)
    for i in range(m):
        for j in range(i + 1, m):
            if (i, j) in paired:
                continue
            margin = separation_margin(a[j] - a[i], n, m)
            if margin <= bound:
                raise SeparationError(f"pair ({a[i]}, {a[j]}): margin {margin} <= u/N = {u}/{n}")
    alpha = max(paired.values(), default=0.0)
    c = _parity_cos(n, u)
    A, B = (m - alpha) * (1.0 - c), (m + alpha) * (1.0 + c)
    params = {"N": n, "M": m, "u": u, "a": list(a)}
    if method == "lattice_subset_paired":
        params["alpha"] = alpha
    return FrameCertificate(
        method=method,
        A=A,
        B=B,
        system=ExponentSystem([Fraction(j, n) for j in range(m)], domain_scale=1),
        domain_intervals=[(e, e + 1) for e in a],
        params=params,
        flags=_vacuity_flags(A),
    )


def certify_lattice_subset(n: int, m: int, a: Sequence[int], u: int) -> FrameCertificate:
    """Certified basis with offsets j/N on M unit intervals inside [0, N).

    Every endpoint pair must keep wrap-metric margin > u/N (checked exactly);
    the constants are M(1 -/+ c) with c the parity cosine bound.
    """
    a = _validated_lattice_subset(n, m, a, u)
    return _lattice_certificate("lattice_subset", n, m, a, u, {})


def certify_lattice_subset_paired(n: int, m: int, a: Sequence[int], u: int) -> FrameCertificate:
    """Paired variant: clusters of <= 2 endpoints may violate the separation.

    Cross-cluster pairs must still satisfy it; alpha is the largest
    within-cluster sine ratio, read from the partition's coherences (0 when
    all clusters are singletons), and the constants widen to
    (M - alpha)(1 - c), (M + alpha)(1 + c).
    """
    a = _validated_lattice_subset(n, m, a, u)
    partition = partition_by_coherence(a, Fraction(1, n))
    if partition.max_cluster_size > 2:
        raise ClusterSizeError(
            f"paired certificate needs clusters of size <= 2, found {partition.max_cluster_size}"
        )
    paired = {c: partition.coherences[c] for c in partition.clusters if len(c) == 2}
    return _lattice_certificate("lattice_subset_paired", n, m, a, u, paired)


# --- one interval removed -------------------------------------------------

def delta_window_interval_removal(n: int):
    """Open window (1/(2M^2), 1/M - beta) for the delta of [0, N) minus one interval, M = N-1.

    lo is exact (a Fraction); hi is a float through beta.
    """
    if not isinstance(n, int) or n <= 2:
        raise PreconditionError(f"need integer N > 2, got {n}")
    beta = solve_beta(n - 1)
    return Fraction(1, 2 * (n - 1) ** 2), 1.0 / (n - 1) - beta.beta, beta


def construct_interval_removal(n: int, m: int, delta) -> FrameCertificate:
    """Certified basis on the two runs [0, m) and [m+1, N): [0, N) less (m, m+1).

    Offsets are j/(N-1) - j*delta for a delta in the strict window
    (1/(2(N-1)^2), 1/(N-1) - beta); the constants do not depend on m.
    """
    lo, hi, beta = delta_window_interval_removal(n)
    if not isinstance(m, int) or not 1 <= m < n - 1:
        raise PreconditionError(f"need integer 1 <= m < N-1 = {n - 1}, got {m}")
    big_m = n - 1
    delta = as_fraction(delta)
    if not lo < delta < hi:
        raise DeltaWindowError(
            f"delta = {_approx(delta)} outside the open window ({float(lo)}, {hi}) for N = {n}")
    envelope = big_m * math.sin(1.0 / big_m)
    spread = 1.0 / math.sin(math.pi / (2 * big_m))
    A = (1.0 - envelope) * (big_m - spread)
    B = (1.0 + envelope) * (big_m + spread)
    step = Fraction(1, big_m) - delta
    return FrameCertificate(
        method="interval_removal",
        A=A,
        B=B,
        system=ExponentSystem([j * step for j in range(big_m)], domain_scale=1),
        domain_intervals=((0, m), (m + 1, n)),
        params={"N": n, "m": m, "delta": delta, "beta": beta.beta, "window": [lo, hi]},
        flags=_vacuity_flags(A),
    )


def residue_orthogonal_basis(s: int, a: Sequence[int]) -> FrameCertificate:
    """Orthogonal basis with offsets j/s when endpoints fill all residues mod s."""
    if s < 1:
        raise PreconditionError(f"s must be >= 1, got {s}")
    a = sorted(int(v) for v in a)
    if len(a) != s:
        raise PreconditionError(f"need exactly {s} endpoints, got {len(a)}")
    if any(y - x < 1 for x, y in zip(a, a[1:])):
        raise PreconditionError("endpoints must be >= 1 apart")
    if not residues_distinct(a, s):
        raise ResidueClashError(f"endpoints {a} are not distinct mod {s}")
    return FrameCertificate(
        method="residue_orthogonal",
        A=float(s),
        B=float(s),
        system=ExponentSystem([Fraction(j, s) for j in range(s)], domain_scale=1),
        domain_intervals=[(e, e + 1) for e in a],
        params={"s": s, "a": list(a)},
    )


# --- complements ----------------------------------------------------------

def _complement_intervals(delta: Fraction, pieces: Sequence[Interval]) -> tuple[Interval, ...]:
    """The gaps of a sorted, disjoint domain inside [0, delta)."""
    if pieces[0][0] < 0 or pieces[-1][1] > delta:
        raise PreconditionError(f"domain escapes [0, {delta})")
    cuts = [Fraction(0)] + [x for piece in pieces for x in piece] + [delta]
    return tuple([(lo, hi) for lo, hi in zip(cuts[::2], cuts[1::2]) if lo < hi])


def complement_certificate(delta_total, cert: FrameCertificate) -> FrameCertificate:
    """Reflected certificate for the complement system on [0, Delta) minus the domain.

    Frequencies must form whole residue classes of (1/Delta)Z; the remaining
    classes make the complement system, with constants A' = Delta - B and
    B' = Delta - A.  These reflected bounds are carried as stated but are not
    guaranteed sound (see the ``unverified_reflection_bounds`` flag); the
    verifier will report any oracle excursion.
    """
    delta_total = as_fraction(delta_total)
    if delta_total <= 0:
        raise PreconditionError(f"Delta must be positive, got {delta_total}")
    if cert.B >= delta_total:
        raise ComplementRangeError(f"need B < Delta, got B = {cert.B}, Delta = {delta_total}")
    q = delta_total / cert.system.domain_scale
    if q.denominator != 1 or q < 1:
        raise LatticeError(
            f"Delta/domain_scale = {q} is not a positive integer: frequencies escape (1/Delta)Z"
        )
    q = int(q)
    residues = set()
    for phi in cert.system.branch_offsets:
        r = phi * q
        if r.denominator != 1:
            raise LatticeError(f"branch offset {phi} is not a multiple of 1/{q}")
        residues.add(int(r) % q)
    if q - len(residues) > MAX_MATRIX_ROWS:
        raise PreconditionError(
            f"complement too large: Delta/domain_scale = {_approx(q)} leaves more than "
            f"MAX_MATRIX_ROWS = {MAX_MATRIX_ROWS} branches, the node-matrix oracle's row bound")
    remaining = [r for r in range(q) if r not in residues]
    if not remaining:
        raise ComplementRangeError("complement is empty: the system fills the whole lattice")
    comp_intervals = _complement_intervals(delta_total, cert.domain_intervals)
    if not comp_intervals:
        raise ComplementRangeError("complement domain is empty")
    delta_f = finite_float(delta_total, "Delta")
    a_new = delta_f - cert.B
    b_new = delta_f - cert.A
    return FrameCertificate(
        method="complement",
        A=a_new,
        B=b_new,
        system=ExponentSystem(
            [Fraction(r, q) for r in remaining], domain_scale=cert.system.domain_scale
        ),
        domain_intervals=comp_intervals,
        params={"Delta": delta_total, "parent_method": cert.method,
                "parent_constants": [cert.A, cert.B]},
        flags=("reflected_constants", "upper_from_delta_minus_lower",
               "unverified_reflection_bounds") + _vacuity_flags(a_new),
    )


# --- matrices for verification -------------------------------------------

#: Rows of the largest square complex matrix route 1 builds, the node matrix,
#: D*branches square for a read certificate's common denominator D; squared,
#: the entries of the largest array route 2's GramForm.build allocates, whose
#: peak is about 1.6 times that array (100 to 106 MiB under tracemalloc for
#: the 63.8 MiB symbol of 356 branches on two runs at n_max = 8).
#: Neither size is otherwise bounded: a denominator of 1e5 would ask for
#: 160 GB.  2048 rows is 64 MiB, above what the tests, the benchmark
#: workloads and perfbench/ladder.py build (192-row node matrices; symbols
#: of 33 * 192**2 entries, 192 branches at n_max = 8).
MAX_MATRIX_ROWS = 2048


def associated_matrix(cert: FrameCertificate) -> tuple[NodeMatrix, float] | None:
    """The node matrix of the certificate's own system on its own domain.

    With c the domain scale and D the common denominator of the run endpoints
    over c, the nodes are the integers in D/c times the domain and the
    branches are (r + phi_j)/D for 0 <= r < D.  Returns (matrix, D/c), whose
    soundness contract is ``scale*A <= sigma^2 <= scale*B``, or None when the
    matrix would not be square.  A matrix of more than ``MAX_MATRIX_ROWS`` rows
    is refused before any node is built.  The endpoints over c are read as
    integer numerators over D, so the measure is an integer sum and each
    run's nodes are one integer range.
    """
    from .vandermonde import build_gamma
    c = cert.system.domain_scale
    ends = [x for piece in cert.domain_intervals for x in piece]
    q = math.lcm(*[x.denominator for x in ends])
    nums = [x.numerator * (q // x.denominator) * c.denominator for x in ends]
    g = math.gcd(q * c.numerator, *nums)  # x/c = (num/g) / D in lowest terms
    d = q * c.numerator // g
    nums = [num // g for num in nums]
    branches = cert.system.branches
    if sum(nums[1::2]) - sum(nums[::2]) != branches * d:
        return None
    if d * branches > MAX_MATRIX_ROWS:
        raise PreconditionError(
            f"node matrix too large: {d} (common denominator) x {branches} "
            f"(branches) rows > MAX_MATRIX_ROWS = {MAX_MATRIX_ROWS}")
    scale = finite_float(d / c, "oracle scale D/c")
    nodes = [p for lo, hi in zip(nums[::2], nums[1::2]) for p in range(lo, hi)]
    offsets = cert.system.branch_offsets
    if d > 1:
        offsets = [Fraction(r * phi.denominator + phi.numerator, phi.denominator * d)
                   for phi in offsets for r in range(d)]
    return build_gamma(offsets, nodes), scale


# --- JSON -----------------------------------------------------------------

def _encode(v):
    """A ``Fraction`` as ``{num, den}``, a list or tuple element-wise, else ``v``."""
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    if isinstance(v, (list, tuple)):
        return [_encode(x) for x in v]
    return v


def _rational(obj) -> Fraction:
    """Read ``{"num": p, "den": q}``: p a JSON integer, q a positive one."""
    p, q = (obj.get("num"), obj.get("den")) if isinstance(obj, dict) else (None, None)
    if isinstance(p, bool) or isinstance(q, bool) or not (
            isinstance(p, int) and isinstance(q, int) and q > 0):
        raise PreconditionError(
            f"malformed rational {obj!r}: need integer 'num' and positive integer 'den'")
    return Fraction(p, q)


def _offset(v) -> Fraction:
    """A branch offset: a rational or, as older documents wrote it, a finite number."""
    if isinstance(v, dict):
        return _rational(v)
    if isinstance(v, bool) or not (isinstance(v, int) or isinstance(v, float) and math.isfinite(v)):
        raise PreconditionError(f"a branch offset must be a finite number or a rational, got {v!r}")
    return Fraction(v)


def _decode_param(v):
    if isinstance(v, dict) and set(v) == {"num", "den"}:
        return _rational(v)
    if isinstance(v, list):
        return [_decode_param(x) for x in v]
    return v


def certificate_to_json(cert: FrameCertificate) -> dict:
    return {
        "schema": "v1",
        "method": cert.method,
        "A": cert.A,
        "B": cert.B,
        "system": {"branch_offsets": _encode(cert.system.branch_offsets),
                   "domain_scale": _encode(cert.system.domain_scale)},
        "domain": {"intervals": [{"start": _encode(lo), "end": _encode(hi)}
                                 for lo, hi in cert.domain_intervals]},
        "params": {k: _encode(v) for k, v in cert.params.items()},
        "flags": list(cert.flags),
    }


def _read(doc: dict, key: str, parse):
    """parse(doc[key]); a missing, ill-typed or too deeply nested value raises a
    PreconditionError naming the key."""
    try:
        return parse(doc[key])
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError) as exc:
        raise PreconditionError(f"certificate key {key!r} is missing or ill-typed: {exc!r}") from exc


def _real(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def _flags(v) -> tuple[str, ...]:
    if not (isinstance(v, list) and all(isinstance(f, str) for f in v)):
        raise TypeError(f"expected a list of strings, got {v!r}")
    return tuple(v)


def certificate_from_json(doc: dict) -> FrameCertificate:
    if not isinstance(doc, dict):
        raise PreconditionError(f"a certificate must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != "v1":
        raise PreconditionError(f"unsupported schema {doc.get('schema')!r}")
    return FrameCertificate(
        domain_intervals=_read(doc, "domain", lambda d: tuple([
            (_rational(iv["start"]), _rational(iv["end"])) for iv in d["intervals"]])),
        method=_read(doc, "method", lambda m: m),
        A=_read(doc, "A", _real),
        B=_read(doc, "B", _real),
        system=_read(doc, "system", lambda s: ExponentSystem(
            [_offset(v) for v in s["branch_offsets"]], _rational(s["domain_scale"]))),
        params=_read(doc, "params", lambda p: {k: _decode_param(v) for k, v in p.items()}),
        flags=_read(doc, "flags", _flags) if "flags" in doc else (),
    )
