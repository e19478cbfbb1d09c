"""Independent verification: Gram quadratic forms, ratio sampling, regressions.

Everything here deliberately avoids the singular-value oracle's machinery so
that certificates are checked by two unrelated routes: exact closed-form Gram
matrices probed with random coefficients, and (where a node matrix exists) the
Jacobi spectrum.  Every domain argument goes through ``validated_intervals``,
the rule each certificate already obeys.  Gram phases are reduced mod 1 in
exact arithmetic, from the exact frequencies of ``ExponentSystem``, so large
endpoints or frequencies cost no accuracy.  Sampling is deterministic: each
sample draws its trials, in order, from one ``np.random.default_rng(seed)``
stream, so distinct seeds share no trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .constructions import MAX_MATRIX_ROWS, FrameCertificate, associated_matrix
from .domains import (
    ExponentSystem,
    Interval,
    as_fraction,
    finite_float,
    validated_intervals,
)
from .errors import PreconditionError, RegressionFailure, VerificationError
from .spectral import SingularSpectrum, singular_values
from .vandermonde import NodeMatrix, build_gamma, progression_matrix, unit_phases

__all__ = [
    "DEFAULT_SEED",
    "GramForm",
    "RatioSample",
    "gram_entry",
    "gram_matrix",
    "riesz_ratio_sample",
    "VerificationReport",
    "verify_certificate",
    "RegressionResult",
    "regression_examples",
]

DEFAULT_SEED = 42
_TOL = 1e-8  # each side of a certificate is widened by this fraction of itself


# --- Gram forms -------------------------------------------------------------

def gram_entry(lam: float, mu: float, u) -> complex:
    """<e_lam, e_mu> = integral of e^{2 pi i (lam - mu) x} over the union.

    Each block integrates to length * e^{pi i nu (lo+hi)} * sinc(nu * length);
    the centered form has no cancellation at small nu (the endpoint-difference
    form loses ~1e-16/nu absolute accuracy there).
    """
    intervals = validated_intervals(u)
    nu = float(lam) - float(mu)
    total = 0j
    for lo, hi in intervals:
        lo, hi = float(lo), float(hi)
        phase = np.exp(1j * math.pi * nu * (lo + hi))
        total += (hi - lo) * phase * np.sinc(nu * (hi - lo))
    return complex(total)


def _merged_runs(u) -> list[Interval]:
    """The union's intervals, ascending, with touching ones joined exactly."""
    runs: list[list[Fraction]] = []
    for lo, hi in validated_intervals(u):  # sorted and disjoint
        if runs and lo == runs[-1][1]:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi])
    return [(lo, hi) for lo, hi in runs]


_GRAM_ROWS = 64  # rows per block: a 64 x size block of temporaries stays in cache


def gram_matrix(frequencies: Sequence, u) -> np.ndarray:
    """Hermitian matrix of pairwise gram_entry values, built per run length.

    Touching intervals are first merged into runs (exact endpoints), so a
    contiguous union is one run.  A run of length l centred at m contributes
    ``l * sinc(nu * l) * e^{2 pi i f m} * conj(e^{2 pi i f' m})`` with
    ``nu = f - f'``, so the K runs of one length sum to
    ``l * sinc(nu * l) * (W W^H)``, where ``W = exp(2 pi i outer(f, m))`` is
    size x K.  The transcendental work is size^2 per distinct run length plus
    size * K exponentials; the phase sum is one matrix product.

    Only the lower block triangle is computed: each block of 64 rows
    ``[start, stop)`` fills ``g[start:stop, :stop]``, its diagonal block is
    made Hermitian in place, and the block left of it is mirrored, conjugated,
    into the columns above it.  That is half the sinc and product work of the
    full matrix, the result is exactly Hermitian, and the peak memory is one
    Gram plus one row block of temporaries.

    Frequencies are read exactly (pass ``ExponentSystem.frequencies``; a
    float converts exactly), and the columns ``W`` of every length come from
    one ``unit_phases(f, m)`` over all runs: each phase ``f m mod 1`` is
    reduced in integers and rounded once, however large f or m is.
    """
    exact = [as_fraction(x) for x in frequencies]
    f = np.asarray([finite_float(x, "a frequency") for x in exact], dtype=float)
    runs = _merged_runs(u)
    every_w = unit_phases(exact, [(lo + hi) / 2 for lo, hi in runs])
    lengths = [hi - lo for lo, hi in runs]
    phases = [(float(length), every_w[:, [k for k, x in enumerate(lengths) if x == length]])
              for length in dict.fromkeys(lengths)]
    g = np.empty((f.size, f.size), dtype=complex)
    for start in range(0, f.size, _GRAM_ROWS):
        stop = min(start + _GRAM_ROWS, f.size)
        rows = slice(start, stop)
        nu = f[rows, None] - f[None, :stop]
        g[rows, :stop] = sum(length * np.sinc(nu * length) * (w[rows] @ w[:stop].conj().T)
                             for length, w in phases)
        diagonal = g[rows, rows]  # a view: the updates below write into g
        diagonal += diagonal.conj().T  # diagonal.conj() is a fresh array, never a view of g
        diagonal *= 0.5
        g[:start, rows] = g[rows, :start].conj().T
    return g


@dataclass(frozen=True)
class GramForm:
    """Finite-section quadratic form ||sum a_l e_{lambda_l}||^2 over a domain."""

    frequencies: tuple[Fraction, ...]
    gram: np.ndarray
    n_max: int

    @classmethod
    def build(cls, system: ExponentSystem, u, n_max: int = 8) -> "GramForm":
        """The section |n| <= n_max, refused before any frequency is listed when
        it has more than ``MAX_MATRIX_ROWS`` rows."""
        rows = system.branches * (2 * n_max + 1)
        if rows > MAX_MATRIX_ROWS:
            raise PreconditionError(
                f"Gram section too large: {system.branches} (branches) x {2 * n_max + 1} "
                f"(frequencies per branch) rows > MAX_MATRIX_ROWS = {MAX_MATRIX_ROWS}")
        freqs = system.frequencies(n_max)
        return cls(frequencies=tuple(freqs), gram=gram_matrix(freqs, u), n_max=n_max)

    @property
    def size(self) -> int:
        return len(self.frequencies)

    def ratio(self, coeffs: np.ndarray) -> float:
        c = np.asarray(coeffs, dtype=complex)
        den = float(np.vdot(c, c).real)
        if den == 0.0:
            raise PreconditionError("all-zero coefficient vector")
        return float(np.vdot(c, self.gram @ c).real) / den


@dataclass(frozen=True)
class RatioSample:
    min_ratio: float
    max_ratio: float
    trials: int
    seed: int
    n_max: int

    def __post_init__(self):
        if self.min_ratio > self.max_ratio:
            raise VerificationError("min_ratio exceeds max_ratio")


def _power_extreme(gram: np.ndarray, v: np.ndarray, steps: int, largest: bool) -> float:
    """Rayleigh quotient after a few power steps toward the extreme eigenvalue.

    Toward the smallest eigenvalue the steps apply ``shift*I - G`` as
    ``shift*v - G v``, where the Gershgorin bound ``shift`` >= lambda_max is the
    largest absolute row sum, taken one 64-row block at a time.  Nothing the
    size of G is allocated besides G itself.
    """
    if not largest:
        shift = max(float(np.max(np.sum(np.abs(gram[start:start + _GRAM_ROWS]), axis=1)))
                    for start in range(0, gram.shape[0], _GRAM_ROWS))
    for _ in range(steps):
        v = gram @ v if largest else shift * v - gram @ v
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            break
        v = v / norm
    ray = float(np.vdot(v, gram @ v).real / np.vdot(v, v).real)
    return ray


_TRIAL_BLOCK = 256  # trial columns per product: C and G C stay size x 256


def _rayleigh_quotients(gram: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(c* G c)/(c* c) for every column c of ``coeffs``, from one product G C.

    G C is conjugated and multiplied by C in place, whose real part is that of
    conj(C) * (G C); so besides C only G C is allocated, and it is freed on
    return.
    """
    norms = np.sum(np.abs(coeffs) ** 2, axis=0)
    forms = gram @ coeffs
    np.conjugate(forms, out=forms)
    forms *= coeffs
    return np.sum(forms, axis=0).real / norms


def riesz_ratio_sample(
    system, u=None, n_max: int = 8, trials: int = 128, seed: int = DEFAULT_SEED,
    refine: int = 0,
) -> RatioSample:
    """Sample Rayleigh quotients (a* G a)/(a* a) over random complex Gaussians.

    ``system`` may be an ExponentSystem (with ``u`` the domain) or a prebuilt
    GramForm, whose own ``n_max`` the sample reports.  All trials come from
    one ``np.random.default_rng(seed)``: trial t is the t-th run of
    2 * size standard normals, read as size complex numbers.  The trials are
    stacked as the columns of a matrix C (up to 256 at a time, drawn in order,
    so the block width does not change them), and their quotients come from
    one product G C.  The extremes are the first minimum and first maximum in
    trial order; ``refine`` > 0 polishes them with that many power-iteration
    steps on G.
    """
    if n_max < 1 or trials < 1 or seed < 0:
        raise PreconditionError("need n_max >= 1, trials >= 1 and seed >= 0")
    form = system if isinstance(system, GramForm) else GramForm.build(system, u, n_max)
    rng = np.random.default_rng(seed)
    lo = math.inf
    hi = -math.inf
    v_lo = v_hi = None
    for first in range(0, trials, _TRIAL_BLOCK):
        width = min(_TRIAL_BLOCK, trials - first)
        coeffs = rng.standard_normal((width, 2 * form.size)).view(complex).T
        ratios = _rayleigh_quotients(form.gram, coeffs)
        i_lo, i_hi = int(np.argmin(ratios)), int(np.argmax(ratios))
        if ratios[i_lo] < lo:
            lo, v_lo = float(ratios[i_lo]), coeffs[:, i_lo].copy()
        if ratios[i_hi] > hi:
            hi, v_hi = float(ratios[i_hi]), coeffs[:, i_hi].copy()
    if refine > 0:
        lo = min(lo, _power_extreme(form.gram, v_lo, refine, largest=False))
        hi = max(hi, _power_extreme(form.gram, v_hi, refine, largest=True))
    return RatioSample(min_ratio=lo, max_ratio=hi, trials=trials, seed=seed, n_max=form.n_max)


# --- certificate verification ----------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Both routes' findings; ``matrix`` is the node matrix route 1 checked."""

    certificate: FrameCertificate
    matrix: NodeMatrix | None
    oracle: SingularSpectrum | None
    oracle_scale: float
    sample: RatioSample
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def oracle_constants(self) -> tuple[float, float] | None:
        if self.oracle is None:
            return None
        return (self.oracle.sigma_min ** 2, self.oracle.sigma_max ** 2)


def verify_certificate(
    cert: FrameCertificate, n_max: int = 8, trials: int = 128,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Check a certificate against both routes and collect any violations.

    Each side carries its own relative tolerance: the lower bound is
    ``A - tol*|A|`` and the upper bound ``B + tol*|B|``, with tol = 1e-8.
    Route 1 (when the certificate's system on its domain has a square node
    matrix): every oracle sigma^2 must lie between ``scale`` times those
    bounds, each one outside is reported in index order, and a certificate
    with A > 0 must not be numerically singular (reported once, as its last
    index).  Route 2: sampled Gram ratios of the (unscaled) system over the
    certified domain must lie between the bounds themselves.
    """
    violations: list[dict] = []
    lower, upper = cert.A - _TOL * abs(cert.A), cert.B + _TOL * abs(cert.B)
    pair = associated_matrix(cert)
    matrix = oracle = None
    scale = 1.0
    if pair is not None:
        matrix, scale = pair
        oracle = singular_values(matrix)
        squares = [v * v for v in oracle.values]
        for j, s2 in enumerate(squares):
            if s2 < scale * lower:
                side, bound = "lower", cert.A * scale
            elif s2 > scale * upper:
                side, bound = "upper", cert.B * scale
            else:
                continue
            violations.append({
                "route": "oracle", "index": j, "side": side,
                "value": s2, "bound": bound,
            })
        if cert.A > 0.0 and oracle.is_singular and squares[-1] >= scale * lower:
            # singular, yet sigma_min^2 cleared the widened bound above
            violations.append({
                "route": "oracle", "index": int(len(oracle.values) - 1),
                "side": "lower", "value": oracle.sigma_min ** 2,
                "bound": cert.A * scale,
            })
    sample = riesz_ratio_sample(cert.system, cert.domain_intervals,
                                n_max=n_max, trials=trials, seed=seed)
    if sample.min_ratio < lower:
        violations.append({"route": "sample", "index": -1, "side": "lower",
                           "value": sample.min_ratio, "bound": cert.A})
    if sample.max_ratio > upper:
        violations.append({"route": "sample", "index": -1, "side": "upper",
                           "value": sample.max_ratio, "bound": cert.B})
    return VerificationReport(certificate=cert, matrix=matrix, oracle=oracle,
                              oracle_scale=scale, sample=sample, violations=tuple(violations))


# --- frozen counterexample regressions --------------------------------------

@dataclass(frozen=True)
class RegressionResult:
    name: str
    passed: bool
    detail: str


def regression_examples() -> list[RegressionResult]:
    """Re-run the two counterexample fixtures; raise on any mismatch.

    The 2x2 matrix for offsets {0, 1/2} on blocks at {0, 3} is orthogonal with
    both optimal constants 2.  Pulling the second block to 3 - 1/N makes the
    grid-dilated matrix singular for every N (two integer nodes collide mod
    2N), which is why the certified windows must exclude such placements.
    """
    results: list[RegressionResult] = []

    gamma = build_gamma([Fraction(0), Fraction(1, 2)], [0, 3])
    spec0 = singular_values(gamma)
    a_opt, b_opt = spec0.sigma_min ** 2, spec0.sigma_max ** 2
    ok = (abs(a_opt - 2.0) <= 1e-10 and abs(b_opt - 2.0) <= 1e-10
          and float(np.max(np.abs(gamma.entries - np.array([[1, 1], [1, -1]])))) <= 1e-12)
    results.append(RegressionResult(
        "orthogonal_pair_blocks", ok, f"A_opt={a_opt!r}, B_opt={b_opt!r}"))

    for n in range(2, 9):
        nodes = list(range(n)) + list(range(3 * n - 1, 4 * n - 1))
        mat = progression_matrix(nodes, Fraction(1, 2 * n))
        spec = singular_values(mat)
        col_a = mat.entries[:, n - 1]  # node n-1
        col_b = mat.entries[:, n]      # node 3n-1, same residue mod 2n
        coincide = float(np.max(np.abs(col_a - col_b))) <= 1e-12
        results.append(RegressionResult(
            f"perturbed_pair_singular_N{n}", spec.is_singular and coincide,
            f"sigma_min/sigma_max={spec.sigma_min / spec.sigma_max:.3e}, "
            f"node_collision={coincide}"))

    gamma2 = build_gamma([Fraction(0), Fraction(1, 2)], [0, 2])
    spec2 = singular_values(gamma2)
    ok2 = (spec2.is_singular
           and abs(spec2.sigma_max - 2.0) <= 1e-12 and spec2.sigma_min <= 1e-12
           and float(np.max(np.abs(gamma2.entries - np.ones((2, 2))))) <= 1e-12)
    results.append(RegressionResult(
        "all_ones_pair_singular", ok2, f"sigma={spec2.values!r}"))

    failed = [r for r in results if not r.passed]
    if failed:
        err = RegressionFailure(
            "regression mismatch: " + ", ".join(r.name for r in failed))
        err.results = results
        raise err
    return results
