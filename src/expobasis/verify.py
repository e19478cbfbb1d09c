"""Independent verification: Gram quadratic forms, ratio sampling, regressions.

Everything here deliberately avoids the singular-value oracle's machinery so
that certificates are checked by two unrelated routes: exact closed-form Gram
matrices probed with random coefficients, and (where a node matrix exists) the
Jacobi spectrum.  Every domain argument goes through ``validated_intervals``,
the rule each certificate already obeys.  Gram phases are reduced mod 1 in
exact arithmetic, from the exact frequencies of ``ExponentSystem``, so large
endpoints or frequencies cost no accuracy.  Sampling is deterministic: trial
``t`` draws from ``PCG64(seed + t)``, and min/max aggregation makes the result
independent of trial order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

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
from .vandermonde import build_gamma, progression_matrix, unit_phases

__all__ = [
    "DEFAULT_SEED",
    "GramForm",
    "RatioSample",
    "gram_entry",
    "gram_matrix",
    "riesz_ratio_sample",
    "bessel_restriction_sample",
    "bessel_check_restriction",
    "adaptive_simpson",
    "intervals_contained",
    "VerificationReport",
    "verify_certificate",
    "RegressionResult",
    "regression_examples",
]

DEFAULT_SEED = 42


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
    size * K exponentials; the phase sum is one matrix product.  Rows are
    filled a block at a time, so the temporaries stay a block in size.

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
        rows = slice(start, start + _GRAM_ROWS)
        nu = f[rows, None] - f[None, :]
        g[rows] = sum(length * np.sinc(nu * length) * (w[rows] @ w.conj().T)
                      for length, w in phases)
    g += g.conj().T  # in place: g.conj() is a fresh array, never a view of g
    g *= 0.5
    return g


@dataclass(frozen=True)
class GramForm:
    """Finite-section quadratic form ||sum a_l e_{lambda_l}||^2 over a domain."""

    frequencies: tuple[Fraction, ...]
    gram: np.ndarray

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
        return cls(frequencies=tuple(freqs), gram=gram_matrix(freqs, u))

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


def _complex_gaussians(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard complex Gaussians via Box-Muller: r*exp(2 pi i theta)."""
    u1 = rng.random(n)
    u2 = rng.random(n)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    return r * np.exp(2j * np.pi * u2)


def _power_extreme(gram: np.ndarray, v: np.ndarray, steps: int, largest: bool) -> float:
    """Rayleigh quotient after a few power steps toward the extreme eigenvalue."""
    shift = float(np.max(np.sum(np.abs(gram), axis=1)))  # Gershgorin >= lambda_max
    op = gram if largest else shift * np.eye(gram.shape[0]) - gram
    for _ in range(steps):
        v = op @ v
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            break
        v = v / norm
    ray = float(np.vdot(v, gram @ v).real / np.vdot(v, v).real)
    return ray


_TRIAL_BLOCK = 256  # trial columns per product: C and G C stay size x 256


def riesz_ratio_sample(
    system, u=None, n_max: int = 8, trials: int = 128, seed: int = DEFAULT_SEED,
    refine: int = 0,
) -> RatioSample:
    """Sample Rayleigh quotients (a* G a)/(a* a) over random complex Gaussians.

    ``system`` may be an ExponentSystem (with ``u`` the domain) or a prebuilt
    GramForm.  Trial t draws its coefficients from PCG64(seed + t), redrawing
    an all-zero vector.  The trials are stacked as the columns of a matrix C
    (up to 256 at a time), and their quotients come from one product G C.
    The extremes are the first minimum and first maximum in trial order;
    ``refine`` > 0 polishes them with that many power-iteration steps on G.
    """
    if n_max < 1 or trials < 1:
        raise PreconditionError("need n_max >= 1 and trials >= 1")
    form = system if isinstance(system, GramForm) else GramForm.build(system, u, n_max)
    lo = math.inf
    hi = -math.inf
    v_lo = v_hi = None
    for first in range(0, trials, _TRIAL_BLOCK):
        block = range(first, min(first + _TRIAL_BLOCK, trials))
        coeffs = np.empty((form.size, len(block)), dtype=complex)
        for col, trial in enumerate(block):
            rng = np.random.Generator(np.random.PCG64(seed + trial))
            c = _complex_gaussians(rng, form.size)
            while not np.any(c):
                c = _complex_gaussians(rng, form.size)
            coeffs[:, col] = c
        ratios = (np.sum(coeffs.conj() * (form.gram @ coeffs), axis=0).real
                  / np.sum(np.abs(coeffs) ** 2, axis=0))
        i_lo, i_hi = int(np.argmin(ratios)), int(np.argmax(ratios))
        if ratios[i_lo] < lo:
            lo, v_lo = float(ratios[i_lo]), coeffs[:, i_lo]
        if ratios[i_hi] > hi:
            hi, v_hi = float(ratios[i_hi]), coeffs[:, i_hi]
    if refine > 0:
        lo = min(lo, _power_extreme(form.gram, v_lo, refine, largest=False))
        hi = max(hi, _power_extreme(form.gram, v_hi, refine, largest=True))
    return RatioSample(min_ratio=lo, max_ratio=hi, trials=trials, seed=seed, n_max=n_max)


# --- band-limited restriction probe ----------------------------------------

def intervals_contained(sub, sup) -> bool:
    """Exact containment of one rational interval union in another."""
    runs = _merged_runs(sup)
    return all(
        any(rlo <= lo and hi <= rhi for rlo, rhi in runs)
        for lo, hi in validated_intervals(sub)
    )


_GL_NODES = 200


def bessel_restriction_sample(
    system: ExponentSystem, domain, sub,
    n_max: int = 32, trials: int = 64, seed: int = DEFAULT_SEED,
) -> RatioSample:
    """Ratios sum_l |<f, e_l>|^2 / ||f||^2 for bumps supported inside ``sub``.

    Probes are modulated near-Gaussian windows: sigma tied to the host piece
    (widened if the truncated frequency set is too narrow-band), centered with
    a 6.5 sigma margin so the cutoff at the window edge sits below 1e-9; the
    spectral tail beyond n_max then stays orders of magnitude under the 1e-8
    comparison tolerances.
    """
    if not intervals_contained(sub, domain):
        raise PreconditionError("restriction domain is not contained in the host domain")
    pieces = validated_intervals(sub)
    freqs = np.asarray(system.frequencies(n_max), dtype=float)
    bandwidth = (n_max - 1) / float(system.domain_scale)
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    lo_r = math.inf
    hi_r = -math.inf
    for trial in range(trials):
        rng = np.random.Generator(np.random.PCG64(seed + trial))
        p_lo, p_hi = pieces[trial % len(pieces)]
        length = float(p_hi - p_lo)
        sigma = length / 16.0
        if 4.8 / (2.0 * math.pi * sigma) > bandwidth:
            sigma = 4.8 / (2.0 * math.pi * bandwidth)
        if sigma > length / 13.5:
            raise PreconditionError(
                f"n_max = {n_max} is too narrow-band to probe a piece of length {length}"
            )
        margin = 6.5 * sigma
        theta_max = min(4.0, bandwidth - 4.8 / (2.0 * math.pi * sigma))
        center = float(p_lo) + margin + (length - 2.0 * margin) * rng.random()
        theta = theta_max * (2.0 * rng.random() - 1.0)
        x = center + margin * nodes  # window [center - margin, center + margin]
        w = margin * weights
        f = np.exp(-((x - center) ** 2) / (2.0 * sigma * sigma) + 2j * np.pi * theta * x)
        norm2 = float(np.sum(w * np.abs(f) ** 2))
        # <f, e_lambda> = integral f(x) e^{-2 pi i lambda x} dx, all lambdas at once
        inner = (w * f) @ np.exp(-2j * np.pi * np.outer(x, freqs))
        ratio = float(np.sum(np.abs(inner) ** 2)) / norm2
        lo_r = min(lo_r, ratio)
        hi_r = max(hi_r, ratio)
    return RatioSample(min_ratio=lo_r, max_ratio=hi_r, trials=trials, seed=seed, n_max=n_max)


def bessel_check_restriction(
    system: ExponentSystem, domain, sub, lower: float, upper: float,
    n_max: int = 32, trials: int = 64, seed: int = DEFAULT_SEED, tol: float = 1e-8,
) -> bool:
    """True when every sampled restriction ratio lies in [lower - tol, upper + tol]."""
    sample = bessel_restriction_sample(system, domain, sub, n_max=n_max, trials=trials, seed=seed)
    return lower - tol <= sample.min_ratio and sample.max_ratio <= upper + tol


# --- quadrature oracle ------------------------------------------------------

def adaptive_simpson(f: Callable[[float], complex], a: float, b: float,
                     tol: float = 1e-12, max_depth: int = 40) -> complex:
    """Adaptive Simpson quadrature (works for complex-valued integrands)."""
    def simp(x0, f0, x1, f1, x2, f2):
        return (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    def rec(x0, f0, x2, f2, x4, f4, whole, tol, depth):
        x1, x3 = 0.5 * (x0 + x2), 0.5 * (x2 + x4)
        f1, f3 = f(x1), f(x3)
        left = simp(x0, f0, x1, f1, x2, f2)
        right = simp(x2, f2, x3, f3, x4, f4)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (rec(x0, f0, x1, f1, x2, f2, left, 0.5 * tol, depth - 1)
                + rec(x2, f2, x3, f3, x4, f4, right, 0.5 * tol, depth - 1))

    a, b = float(a), float(b)
    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    return rec(a, fa, mid, fm, b, fb, simp(a, fa, mid, fm, b, fb), tol, max_depth)


# --- certificate verification ----------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    certificate: FrameCertificate
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
    seed: int = DEFAULT_SEED, tol: float = 1e-8,
) -> VerificationReport:
    """Check a certificate against both routes and collect any violations.

    Each side carries its own relative tolerance: the lower bound is
    ``A - tol*|A|`` and the upper bound ``B + tol*|B|``.  Route 1 (when the
    certificate's system on its domain has a square node matrix): every
    oracle sigma^2 must lie between ``scale`` times those bounds, each one
    outside is reported in index order, and a certificate with A > 0 must
    not be numerically singular (reported once, as its last index).  Route 2:
    sampled Gram ratios of the (unscaled) system over the certified domain
    must lie between the bounds themselves.
    """
    violations: list[dict] = []
    lower, upper = cert.A - tol * abs(cert.A), cert.B + tol * abs(cert.B)
    pair = associated_matrix(cert)
    oracle = None
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
    return VerificationReport(certificate=cert, oracle=oracle, oracle_scale=scale,
                              sample=sample, violations=tuple(violations))


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
