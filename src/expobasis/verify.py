"""Independent verification: Gram quadratic forms, ratio sampling, regressions.

Certificates are checked by two unrelated routes: route 1 is the LAPACK SVD
spectrum (``spectral.singular_values``) of the node matrix, where one exists;
route 2 is the closed-form Gram form of the truncated system on its domain,
whose smallest and largest Rayleigh quotients over random coefficients are
checked.  The section Gram is block Toeplitz, so route 2 never builds it:
``GramForm`` keeps the branch-pair x lag table that defines it, transformed
along the lag axis, and applies it as 4 n_max + 1 small branch x branch
products.  ``gram_matrix`` is the dense Gram of arbitrary frequencies, off
the verification path.  Every domain argument is read as its runs, through
``validated_intervals``, the rule each certificate already obeys.  Gram
phases are reduced mod 1 in exact arithmetic, so large endpoints or
frequencies cost no accuracy.  Sampling is deterministic: each sample draws
its trials, in order, from one ``np.random.default_rng(seed)`` stream, so
distinct seeds share no trials.
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
from .errors import PreconditionError, VerificationError
from .spectral import SingularSpectrum, singular_values
from .vandermonde import NodeMatrix, build_gamma, progression_matrix, unit_phases

__all__ = [
    "DEFAULT_SEED",
    "GramForm",
    "RatioSample",
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

_GRAM_ROWS = 64  # rows per block: a 64 x size block of temporaries stays in cache


def gram_matrix(frequencies: Sequence, u) -> np.ndarray:
    """Dense Hermitian Gram of the frequencies on u, ``GramForm``'s reference.

    The domain is read as ``validated_intervals`` gives it, its runs, so a
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
    runs = validated_intervals(u)
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


def _sinc(x: np.ndarray) -> np.ndarray:
    """``np.sinc(x)``, computed over x in place: two arrays the size of x
    instead of np.sinc's five."""
    x[x == 0] = 1e-20  # sin(y)/y is 1 to rounding there, as in np.sinc
    x *= np.pi
    s = np.sin(x)
    s /= x
    return s


def _nonnegative_lags(system: ExponentSystem, runs: Sequence[Interval], n_max: int) -> np.ndarray:
    """T[., ., 2 n_max + d] for the lags d = 0..2 n_max, lag-major; the lags
    -d are their conjugate transposes.

    A run of length l centred at m adds l sinc(nu l) e^{2 pi i nu m} to
    T[j, j', 2 n_max + d], with nu = (d + phi_j - phi_j')/c.  The phase is
    exact: e^{2 pi i nu m} = D[d] P[j] conj(P[j']), with the lag phases
    D = ``unit_phases(d/c, m)`` and the branch phases
    P = ``unit_phases(phi/c, m)``, so K runs cost (2 n_max + 1 + branches) * K
    exact products however large m is, and the runs of one length sum their
    phases in one batched product.  Each distinct run length costs one sinc
    over the (2 n_max + 1) * branches^2 lags.
    """
    scale = system.domain_scale
    offsets = [phi / scale for phi in system.branch_offsets]
    lags = [Fraction(d) / scale for d in range(2 * n_max + 1)]
    centres = [(lo + hi) / 2 for lo, hi in runs]
    branch_w = unit_phases(offsets, centres)
    lag_w = unit_phases(lags, centres)
    lag_f = np.asarray([finite_float(x, "a frequency") for x in lags])
    g = np.asarray([finite_float(x, "a frequency") for x in offsets])
    diff = g[:, None] - g[None, :]
    lengths = [hi - lo for lo, hi in runs]
    table = np.zeros((len(lags),) + diff.shape, dtype=complex)
    for length in dict.fromkeys(lengths):
        ks = [k for k, x in enumerate(lengths) if x == length]
        w = branch_w[:, ks]
        term = (lag_w[:, None, ks] * w) @ w.conj().T
        term *= _sinc(np.add.outer(lag_f, diff) * float(length))
        term *= float(length)
        table += term
    return table


def _dft(n_max: int) -> np.ndarray:
    """F[q, n] = exp(-2 pi i q n / Q) for the Q = 4 n_max + 1 frequencies q and
    the 2 n_max + 1 positions n of one branch, the exponent reduced mod Q in
    integers."""
    q = 4 * n_max + 1
    turns = np.outer(np.arange(q), np.arange(2 * n_max + 1)) % q
    return np.exp(-2j * np.pi / q * turns)


@dataclass(frozen=True)
class GramForm:
    """Finite-section quadratic form ||sum a_l e_{lambda_l}||^2 over a domain.

    The section |n| <= n_max of the branches (n + phi_j)/c is block Toeplitz:
    G[(j, n), (j', n')] = T[j, j', n - n' + 2 n_max], for the branches x
    branches x Q lag table T, Q = 4 n_max + 1, with
    T[j, j', 2 n_max + d] = conj T[j', j, 2 n_max - d].  A Toeplitz block of
    order 2 n_max + 1 embeds in a circulant of order Q, which the DFT
    diagonalises: with F the Q x (2 n_max + 1) DFT of ``_dft``, the block of
    branches (j, j') is F^H diag(H[:, j, j']) F for the symbol
    H_q = (1/Q) sum_{|d| <= 2 n_max} T[., ., 2 n_max + d] e^{-2 pi i d q / Q}.
    The form keeps only the symbol, Q Hermitian branches x branches blocks
    (G has (2 n_max + 1)^2 blocks of that size).  ``apply`` gives G c and
    ``quadratic_forms`` gives c* G c, both from the symbol and from F, which
    the form keeps as ``dft``.
    """

    symbol: np.ndarray
    n_max: int
    dft: np.ndarray

    @classmethod
    def build(cls, system: ExponentSystem, u, n_max: int = 8) -> "GramForm":
        """The section |n| <= n_max >= 1 on u's runs, refused before
        anything is built when an array it allocates would exceed
        ``MAX_MATRIX_ROWS**2`` entries: the DFT, Q x (2 n_max + 1), the
        symbol, Q x branches^2, or a run length's phase product,
        (2 n_max + 1) x branches x runs.

        The lags d >= 0 of T (``_nonnegative_lags``) go straight into the
        symbol: with A_q = sum_{d >= 0} T[., ., 2 n_max + d] e^{-2 pi i d q / Q}
        and T_0 counted half, H_q = (A_q + A_q^H)/Q.  So the lags d < 0 are
        never built, and every block of the symbol is exactly Hermitian: the
        form it represents is that of the Hermitian part of T_0 and of the
        lags d > 0 with their conjugate transposes.
        """
        if n_max < 1:
            raise PreconditionError(f"n_max must be >= 1, got {n_max}")
        runs = validated_intervals(u)
        q, width, b = 4 * n_max + 1, 2 * n_max + 1, system.branches
        largest = max(q * width, q * b * b, width * b * len(runs))
        if largest > MAX_MATRIX_ROWS ** 2:
            raise PreconditionError(
                f"Gram form too large: {b} branches, n_max = {n_max} and {len(runs)} runs "
                f"need {largest} entries > MAX_MATRIX_ROWS**2 = {MAX_MATRIX_ROWS ** 2}")
        lags = _nonnegative_lags(system, runs, n_max)
        lags[0] *= 0.5
        f = _dft(n_max)
        symbol = (f @ lags.reshape(2 * n_max + 1, -1)).reshape(q, *lags.shape[1:])
        symbol /= q
        for block in symbol:
            block += block.conj().T
        return cls(symbol=symbol, n_max=n_max, dft=f)

    @property
    def branches(self) -> int:
        return self.symbol.shape[1]

    @property
    def size(self) -> int:
        return self.branches * (2 * self.n_max + 1)

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """G c for a vector c, or for each column of a size x k matrix."""
        c = np.asarray(coeffs, dtype=complex)
        spectra = np.matmul(self.dft, c.reshape(self.branches, 2 * self.n_max + 1, -1))
        spectra = np.matmul(self.symbol, spectra.transpose(1, 0, 2))
        return np.matmul(self.dft.conj().T, spectra.transpose(1, 0, 2)).reshape(c.shape)

    def quadratic_forms(self, coeffs: np.ndarray) -> np.ndarray:
        """c* G c for every column c of ``coeffs`` (size x trials), real.

        By Parseval, c* G c = sum_q (F c)_q^H H_q (F c)_q: the forward
        transform alone, one branches x branches product per frequency q,
        and no inverse transform.  The transform of every (trial, branch)
        row is one product with F, laid out frequency-major, so each H_q
        meets a contiguous trials x branches block.
        """
        trials = coeffs.shape[1]
        rows = coeffs.T.reshape(trials * self.branches, 2 * self.n_max + 1)
        spectra = (self.dft @ rows.T).reshape(-1, trials, self.branches)
        forms = np.zeros(trials)
        for spectrum, block in zip(spectra, self.symbol):
            forms += np.vecdot(spectrum, spectrum @ block.T).real
        return forms


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


_BLOCK_ENTRIES = 2**15  # coefficients per block: C stays 512 KiB, its transform ~1 MiB
MAX_SAMPLE_ENTRIES = 10**8  # coefficients per sample: about 10 s at ~100 ns each


def riesz_ratio_sample(form: GramForm, trials: int = 128, seed: int = DEFAULT_SEED) -> RatioSample:
    """Sample Rayleigh quotients (a* G a)/(a* a) of the form over random
    complex Gaussians, refused before the first draw past
    ``MAX_SAMPLE_ENTRIES`` coefficients in all.

    All trials come from one ``np.random.default_rng(seed)``: trial t is the
    t-th run of 2 * size standard normals, read as size complex numbers.  The
    trials are stacked as the columns of a matrix C, at most 2**15
    coefficients per block (drawn in order, so the block width does not
    change them), and their quadratic forms come from the form's symbol
    (``GramForm.quadratic_forms``), never from a dense G.  The extremes are
    the smallest and the largest ratio drawn, at the form's ``n_max``; a
    ratio past the float range is refused.
    """
    if trials < 1 or seed < 0:
        raise PreconditionError("need trials >= 1 and seed >= 0")
    if trials * form.size > MAX_SAMPLE_ENTRIES:
        raise PreconditionError(f"{trials} trials x {form.size} coefficients > "
                                f"MAX_SAMPLE_ENTRIES = {MAX_SAMPLE_ENTRIES}")
    rng = np.random.default_rng(seed)
    lo = math.inf
    hi = -math.inf
    block = max(1, _BLOCK_ENTRIES // form.size)
    for first in range(0, trials, block):
        width = min(block, trials - first)
        coeffs = rng.standard_normal((width, 2 * form.size)).view(complex).T
        ratios = form.quadratic_forms(coeffs) / np.sum(np.abs(coeffs) ** 2, axis=0)
        if not np.isfinite(ratios).all():
            raise PreconditionError("the Gram form's ratios are beyond the float range")
        lo = min(lo, float(ratios.min()))
        hi = max(hi, float(ratios.max()))
    return RatioSample(min_ratio=lo, max_ratio=hi, trials=trials, seed=seed, n_max=form.n_max)


# --- certificate verification ----------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Both routes' findings; ``matrix`` is the node matrix route 1 checked."""

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
    with np.errstate(over="ignore", invalid="ignore"):  # the sampler refuses what overflows
        form = GramForm.build(cert.system, cert.domain_intervals, n_max)
        sample = riesz_ratio_sample(form, trials=trials, seed=seed)
    if sample.min_ratio < lower:
        violations.append({"route": "sample", "index": -1, "side": "lower",
                           "value": sample.min_ratio, "bound": cert.A})
    if sample.max_ratio > upper:
        violations.append({"route": "sample", "index": -1, "side": "upper",
                           "value": sample.max_ratio, "bound": cert.B})
    return VerificationReport(matrix=matrix, oracle=oracle, oracle_scale=scale,
                              sample=sample, violations=tuple(violations))


# --- frozen counterexample regressions --------------------------------------

@dataclass(frozen=True)
class RegressionResult:
    name: str
    passed: bool
    detail: str


def regression_examples() -> list[RegressionResult]:
    """Re-run the two counterexample fixtures, each result with its verdict.

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

    return results
