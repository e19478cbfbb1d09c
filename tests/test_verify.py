"""Gram-form oracles, randomized ratio sampling, and certificate verification."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import gram_entry, oscillatory_integral
from expobasis import (
    DEFAULT_SEED,
    ExponentSystem,
    FrameCertificate,
    GramForm,
    PreconditionError,
    RatioSample,
    complement_certificate,
    construct_interval_removal,
    construct_perturbed_union,
    delta_window_interval_removal,
    gram_matrix,
    regression_examples,
    residue_orthogonal_basis,
    riesz_ratio_sample,
    validated_intervals,
    verify_certificate,
)
from expobasis.vandermonde import unit_phases

SPLIT = ((Fraction(0), Fraction(1)), (Fraction(3), Fraction(4)))


# --- closed-form Gram entries -------------------------------------------------

def test_gram_entry_diagonal_is_measure():
    assert gram_entry(0.5, 0.5, SPLIT) == pytest.approx(2.0, abs=1e-15)
    assert gram_entry(-1.25, -1.25, ((Fraction(0), Fraction(1)),)) == pytest.approx(1.0)


def test_gram_entry_integer_frequency_gaps_vanish():
    for nu in (1.0, 2.0, -3.0):
        assert abs(gram_entry(nu, 0.0, SPLIT)) < 1e-14


def test_gram_entry_half_frequency_gap():
    val = gram_entry(0.5, 0.0, ((Fraction(0), Fraction(1)),))
    assert val == pytest.approx(complex(0, 2 / math.pi), abs=1e-15)


def test_gram_entry_is_hermitian():
    a = gram_entry(0.731, -0.2, SPLIT)
    b = gram_entry(-0.2, 0.731, SPLIT)
    assert a == pytest.approx(b.conjugate(), abs=1e-15)


@given(st.floats(-4, 4), st.floats(-4, 4))
@settings(max_examples=30, deadline=None)
def test_gram_entry_matches_quadrature(lam, mu):
    direct = sum(oscillatory_integral(lam - mu, float(a), float(b)) for a, b in SPLIT)
    assert gram_entry(lam, mu, SPLIT) == pytest.approx(direct, abs=1e-10)


def test_gram_matrix_matches_entries():
    freqs = [0.0, 0.5, 1.3, -0.7]
    g = gram_matrix(freqs, SPLIT)
    assert g.shape == (4, 4)
    np.testing.assert_allclose(g, g.conj().T, atol=1e-15)
    for i, li in enumerate(freqs):
        for j, lj in enumerate(freqs):
            assert g[i, j] == pytest.approx(gram_entry(li, lj, SPLIT), abs=1e-12)


_RUN_GAPS = {
    "touching": st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(2)]),
    "scattered": st.fractions(Fraction(1, 4), Fraction(2), max_denominator=8),
    "rational": st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(3, 4)]),
    "scaled": st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
    "float": st.sampled_from([Fraction(0), Fraction(1), Fraction(5, 4)]),
}


@st.composite
def _gram_case(draw, kind):
    """(system, domain) for one kind of union; see _RUN_GAPS."""
    lengths = draw(st.lists(
        st.fractions(Fraction(1, 6), Fraction(2), max_denominator=6)
        if kind == "rational" else st.just(Fraction(1)),
        min_size=1, max_size=5))
    x = draw(st.floats(-2, 2)) if kind == "float" else draw(
        st.fractions(-2, 2, max_denominator=4))
    domain = []
    for i, length in enumerate(lengths):
        if i:
            x += draw(_RUN_GAPS[kind])
        domain.append((x, x + length))
        x += length
    scale = draw(st.sampled_from([Fraction(2), Fraction(1, 2), Fraction(5, 3)])
                 ) if kind == "scaled" else Fraction(1)
    domain = [(scale * lo, scale * hi) for lo, hi in domain]
    ks = draw(st.lists(st.integers(0, 11), min_size=1, max_size=3, unique=True))
    if kind == "float":
        offsets = [k / 12 + draw(st.floats(-0.03, 0.03)) for k in ks]
    else:
        offsets = [Fraction(k, 12) for k in ks]
    return ExponentSystem(offsets, domain_scale=scale), domain


@pytest.mark.parametrize("kind", sorted(_RUN_GAPS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_gram_matrix_matches_entries_on_merged_runs(kind, data):
    system, domain = data.draw(_gram_case(kind))
    freqs = system.frequencies(3)
    g = gram_matrix(freqs, domain)
    measure = float(sum(hi - lo for lo, hi in domain))
    assert np.array_equal(g, g.conj().T)
    assert np.abs(g - _full_rows_gram(freqs, domain)).max() <= 1e-14 * measure
    for i, li in enumerate(freqs):
        for j, lj in enumerate(freqs):
            assert abs(g[i, j] - gram_entry(li, lj, domain)) <= 1e-12 * measure


def _full_rows_gram(freqs, domain):
    """The Gram built every entry twice, full 64-row blocks, then averaged
    with its conjugate transpose: the reference for the triangular build."""
    f = np.asarray([float(x) for x in freqs])
    runs = validated_intervals(domain)
    every_w = unit_phases(freqs, [(lo + hi) / 2 for lo, hi in runs])
    lengths = [hi - lo for lo, hi in runs]
    phases = [(float(length), every_w[:, [k for k, x in enumerate(lengths) if x == length]])
              for length in dict.fromkeys(lengths)]
    g = np.empty((f.size, f.size), dtype=complex)
    for start in range(0, f.size, 64):
        rows = slice(start, start + 64)
        nu = f[rows, None] - f[None, :]
        g[rows] = sum(length * np.sinc(nu * length) * (w[rows] @ w.conj().T)
                      for length, w in phases)
    return 0.5 * (g + g.conj().T)


def _removal_section(n_intervals):
    """Frequencies and domain of interval removal from n_intervals + 1 blocks,
    delta mid-window: 17 * n_intervals Gram rows at n_max = 8."""
    lo, hi, _ = delta_window_interval_removal(n_intervals + 1)
    cert = construct_interval_removal(n_intervals + 1, n_intervals // 2, (lo + hi) / 2)
    return cert.system.frequencies(8), cert.domain_intervals


@pytest.mark.parametrize("n_intervals", [16, 32, 64])
def test_triangular_gram_equals_the_full_rows_build_on_interval_removal(n_intervals):
    freqs, domain = _removal_section(n_intervals)
    g = gram_matrix(freqs, domain)
    assert g.shape == (17 * n_intervals,) * 2
    assert np.array_equal(g, _full_rows_gram(freqs, domain))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gram_build_peak_memory_is_one_gram_and_a_row_block():
    freqs, domain = _removal_section(64)
    g = gram_matrix(freqs, domain)
    assert g.nbytes == 1088 * 1088 * 16
    assert _traced_peak(lambda: gram_matrix(freqs, domain)) < 1.25 * g.nbytes


_GRAM_BYTES_64 = 16 * 1088 ** 2  # the dense section Gram of interval removal at L = 64


def test_sample_allocates_nothing_gram_sized():
    lo, hi, _ = delta_window_interval_removal(65)
    cert = construct_interval_removal(65, 32, (lo + hi) / 2)
    form = GramForm.build(cert.system, cert.domain_intervals, n_max=8)
    assert form.size == 1088
    riesz_ratio_sample(form, trials=1)  # numpy imports numpy.random lazily
    peak = _traced_peak(lambda: riesz_ratio_sample(form))
    assert peak < 0.25 * _GRAM_BYTES_64


def test_verify_allocates_nothing_gram_sized():
    lo, hi, _ = delta_window_interval_removal(65)
    cert = construct_interval_removal(65, 32, (lo + hi) / 2)
    verify_certificate(cert, trials=1)  # numpy imports numpy.random lazily
    assert _traced_peak(lambda: verify_certificate(cert)) < 0.25 * _GRAM_BYTES_64


@pytest.mark.parametrize("s, a", [(3, [0, 3 * 2**22 + 1, 6 * 2**22 + 2]), (2, [0, 2**52 + 1])])
def test_far_apart_tight_frames_have_an_exact_section_gram(s, a):
    # a float phase f*m keeps too few fraction bits once m reaches 2**22 and beyond
    cert = residue_orthogonal_basis(s, a)
    form = GramForm.build(cert.system, cert.domain_intervals, n_max=8)
    assert np.abs(form.apply(np.eye(form.size)) - s * np.eye(form.size)).max() <= 1e-12
    assert verify_certificate(cert, trials=16).ok


def _assert_table_form_is_the_dense_gram(system, domain, n_max):
    form = GramForm.build(system, domain, n_max)
    dense = gram_matrix(system.frequencies(n_max), domain)
    measure = float(sum(hi - lo for lo, hi in validated_intervals(domain)))
    assert form.size == dense.shape[0]
    assert np.abs(form.apply(np.eye(form.size)) - dense).max() <= 1e-12 * measure


@pytest.mark.parametrize("kind", sorted(_RUN_GAPS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_table_form_matches_the_dense_gram(kind, data):
    system, domain = data.draw(_gram_case(kind))
    _assert_table_form_is_the_dense_gram(system, domain, data.draw(st.integers(1, 4)))


@pytest.mark.parametrize("n_intervals", [16, 32, 64])
def test_table_form_matches_the_dense_gram_on_interval_removal(n_intervals):
    lo, hi, _ = delta_window_interval_removal(n_intervals + 1)
    cert = construct_interval_removal(n_intervals + 1, n_intervals // 2, (lo + hi) / 2)
    _assert_table_form_is_the_dense_gram(cert.system, cert.domain_intervals, 8)


@pytest.mark.parametrize("gap", [2**52 + 1, 2 * 10**400 + 1])
def test_table_form_matches_the_dense_gram_on_far_apart_tight_frames(gap):
    cert = residue_orthogonal_basis(2, [0, gap])
    _assert_table_form_is_the_dense_gram(cert.system, cert.domain_intervals, 8)


# --- Gram quadratic form ----------------------------------------------------------

def test_gram_form_size_and_basis_ratios():
    system = ExponentSystem((Fraction(0), Fraction(1, 2)), domain_scale=Fraction(1))
    form = GramForm.build(system, SPLIT, n_max=3)
    assert form.size == 2 * 7
    e0 = np.zeros(form.size, dtype=complex)
    e0[0] = 1.0
    assert form.quadratic_forms(e0[:, None]) == pytest.approx([2.0], abs=1e-12)  # diagonal = measure


def test_tight_system_samples_at_its_frame_constant():
    system = ExponentSystem((Fraction(0), Fraction(1, 2)), domain_scale=Fraction(1))
    sample = riesz_ratio_sample(GramForm.build(system, SPLIT, 6), trials=50, seed=13)
    assert sample.min_ratio == pytest.approx(2.0, abs=1e-10)
    assert sample.max_ratio == pytest.approx(2.0, abs=1e-10)
    assert sample.min_ratio <= sample.max_ratio


def test_ratio_sample_is_seed_deterministic():
    # non-orthogonal offsets so the sampled ratios genuinely vary with the draw
    system = ExponentSystem((Fraction(0), Fraction(1, 3)), domain_scale=Fraction(1))
    a = riesz_ratio_sample(GramForm.build(system, SPLIT, 4), trials=20, seed=99)
    b = riesz_ratio_sample(GramForm.build(system, SPLIT, 4), trials=20, seed=99)
    c = riesz_ratio_sample(GramForm.build(system, SPLIT, 4), trials=20, seed=100)
    assert a == b
    assert (a.min_ratio, a.max_ratio) != (c.min_ratio, c.max_ratio)


def test_prebuilt_form_reports_its_own_n_max():
    system = ExponentSystem((Fraction(0), Fraction(1, 2)), domain_scale=Fraction(1))
    form = GramForm.build(system, SPLIT, n_max=3)
    assert (form.size, form.n_max) == (14, 3)
    assert riesz_ratio_sample(form, trials=4).n_max == 3


def test_sample_does_not_depend_on_the_trial_block(monkeypatch):
    import expobasis.verify as verify
    cert = construct_interval_removal(6, 2, 0.025)
    form = GramForm.build(cert.system, cert.domain_intervals, n_max=4)
    wide = riesz_ratio_sample(form, trials=50, seed=11)
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 7 * form.size)
    assert riesz_ratio_sample(form, trials=50, seed=11) == wide


def test_ratio_sample_validates_inputs():
    from expobasis import VerificationError
    system = ExponentSystem((Fraction(0),), domain_scale=Fraction(1))
    form = GramForm.build(system, SPLIT, 8)
    for bad in ({"trials": 0}, {"seed": -1}):
        with pytest.raises(PreconditionError):
            riesz_ratio_sample(form, **bad)
    with pytest.raises(VerificationError):
        RatioSample(min_ratio=2.0, max_ratio=1.0, trials=4, seed=0, n_max=2)


def test_oversized_section_is_refused_before_it_is_built():
    import tracemalloc
    system = ExponentSystem((Fraction(0),), domain_scale=Fraction(1))
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="MAX_MATRIX_ROWS"):
            GramForm.build(system, SPLIT, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sampler_takes_only_a_form():
    import inspect
    assert list(inspect.signature(riesz_ratio_sample).parameters) == ["form", "trials", "seed"]
    form = GramForm.build(ExponentSystem((Fraction(0),)), SPLIT, 2)
    with pytest.raises(TypeError):
        riesz_ratio_sample(form, n_max=3)


@pytest.mark.parametrize("n_max", [0, -1])
def test_gram_form_needs_a_positive_n_max(n_max):
    with pytest.raises(PreconditionError, match="n_max must be >= 1"):
        GramForm.build(ExponentSystem((Fraction(0),)), SPLIT, n_max)


def test_many_run_form_is_refused_before_it_is_built():
    # 100 branches on 4,000 unit intervals 2 apart: each run adds 17 x 100 phase
    # products at n_max = 8, 129 MiB in all, though the section has only 1,700 rows
    cert = FrameCertificate(
        method="residue_orthogonal", A=1.0, B=1.0,
        system=ExponentSystem(tuple(Fraction(k, 100) for k in range(100))),
        domain_intervals=tuple((Fraction(2 * k), Fraction(2 * k + 1)) for k in range(4000)))
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="MAX_MATRIX_ROWS"):
            verify_certificate(cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_sample_past_its_budget_is_refused_before_the_first_draw(monkeypatch):
    import expobasis.verify as verify

    def no_draws(seed):
        raise AssertionError("the generator was reached")

    form = GramForm.build(ExponentSystem((Fraction(0),)), SPLIT, 1)
    monkeypatch.setattr(verify.np.random, "default_rng", no_draws)
    with pytest.raises(PreconditionError, match="MAX_SAMPLE_ENTRIES"):
        riesz_ratio_sample(form, trials=verify.MAX_SAMPLE_ENTRIES // form.size + 1)


def test_aliased_offsets_collapse_under_refinement():
    """Offsets {0, 1/2} on blocks 3 apart are tight, but on blocks 2 apart the
    truncated Gram develops a near-null vector: the section's smallest
    eigenvalue lies far below any plausible frame bound.  Read here from the
    dense eigenvalues of ``GramForm.apply``; an extreme-eigenvalue estimator
    on the form must find the same."""
    system = ExponentSystem((Fraction(0), Fraction(1, 2)), domain_scale=Fraction(1))
    degenerate = ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(3)))
    for n_max in (2, 4):
        form = GramForm.build(system, degenerate, n_max=n_max)
        eigenvalues = np.linalg.eigvalsh(form.apply(np.eye(form.size)))
        assert eigenvalues[0] < 0.01
        assert eigenvalues[-1] > 3.9  # mass piles up on the doubled direction


def test_sound_certificate_sampled_within_bounds():
    cert = construct_interval_removal(4, 1, 0.08)
    sample = riesz_ratio_sample(GramForm.build(cert.system, cert.domain_intervals, 8),
                                trials=64, seed=7)
    assert cert.A - 1e-6 <= sample.min_ratio
    assert sample.max_ratio <= cert.B + 1e-6


def _looped_sample(form, trials, seed):
    """One Rayleigh quotient c* G c / c* c per trial, from ``form.apply``, each
    trial the next 2 * size normals of one stream read as complex numbers."""
    rng = np.random.default_rng(seed)
    lo, hi = math.inf, -math.inf
    for _ in range(trials):
        pairs = rng.standard_normal((form.size, 2))
        c = pairs[:, 0] + 1j * pairs[:, 1]
        r = float(np.vdot(c, form.apply(c)).real) / float(np.vdot(c, c).real)
        lo, hi = min(lo, r), max(hi, r)
    return lo, hi


@pytest.mark.parametrize("seed, trials", [(0, 50), (40, 50), (40, 600)])
def test_batched_sample_matches_per_trial_loop(seed, trials):
    removal = construct_interval_removal(6, 2, 0.025)
    offsets = ExponentSystem((Fraction(0), Fraction(1, 3)), domain_scale=Fraction(1))
    for system, domain in ((removal.system, removal.domain_intervals), (offsets, SPLIT)):
        form = GramForm.build(system, domain, n_max=4)
        sample = riesz_ratio_sample(form, trials=trials, seed=seed)
        lo, hi = _looped_sample(form, trials, seed)
        assert sample.min_ratio == pytest.approx(lo, rel=1e-12)
        assert sample.max_ratio == pytest.approx(hi, rel=1e-12)


# --- certificate verification ----------------------------------------------------------------

def test_verify_accepts_orthogonal_basis():
    report = verify_certificate(residue_orthogonal_basis(2, [0, 3]), trials=40)
    assert report.ok
    assert report.violations == ()
    lo, hi = report.oracle_constants
    assert lo == pytest.approx(2.0, abs=1e-9)
    assert hi == pytest.approx(2.0, abs=1e-9)


def test_verify_rejects_reflected_complement_bounds():
    comp = complement_certificate(3, residue_orthogonal_basis(1, [0]))
    report = verify_certificate(comp, trials=40)
    assert not report.ok
    routes = {(v["route"], v["side"]) for v in report.violations}
    assert ("oracle", "upper") in routes
    assert ("sample", "lower") in routes and ("sample", "upper") in routes
    oracle_hit = next(v for v in report.violations if v["route"] == "oracle")
    assert oracle_hit["value"] == pytest.approx(3.0, abs=1e-9)
    assert oracle_hit["bound"] == 2.0
    for v in report.violations:
        assert set(v) == {"route", "index", "side", "value", "bound"}


def test_verify_reports_every_oracle_violation_in_index_order():
    comp = complement_certificate(3, residue_orthogonal_basis(1, [0]))
    report = verify_certificate(comp, trials=40)
    oracle_hits = [(v["index"], v["side"]) for v in report.violations
                   if v["route"] == "oracle"]
    assert oracle_hits == [(0, "upper"), (1, "lower")]


def test_verify_reports_a_singular_lower_bound_once():
    # offsets {0, 1/2} on blocks 2 apart: the node matrix is all ones, sigma^2 = 4, 0
    cert = FrameCertificate(
        method="residue_orthogonal", A=2.0, B=2.0,
        system=ExponentSystem((Fraction(0), Fraction(1, 2))),
        domain_intervals=((Fraction(0), Fraction(1)), (Fraction(2), Fraction(3))))
    report = verify_certificate(cert, trials=8)
    assert report.oracle.is_singular
    oracle_hits = [(v["index"], v["side"]) for v in report.violations
                   if v["route"] == "oracle"]
    assert oracle_hits == [(0, "upper"), (1, "lower")]


def test_verify_accepts_certified_constructions():
    for cert in (construct_interval_removal(4, 1, 0.08),):
        report = verify_certificate(cert, trials=40)
        assert report.ok, report.violations


def test_verify_rejects_a_lower_bound_above_the_optimum():
    # certified A = 2.02e-8 while the system's optimal lower constant is 7.19e-9;
    # the miss is far below max(1, B), so only a per-side tolerance sees it
    cert = construct_perturbed_union(2, [0, 1], [Fraction(0), Fraction(3, 10)],
                                     -1.349625582624321e-05)
    report = verify_certificate(cert, trials=8)
    assert not report.ok
    assert ("oracle", "lower") in {(v["route"], v["side"]) for v in report.violations}
    assert report.oracle_scale == 10.0
    assert report.oracle.sigma_min ** 2 / 10.0 == pytest.approx(7.19e-9, rel=1e-3)


def test_regression_examples_all_reproduce():
    results = regression_examples()
    assert len(results) == 9
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert "orthogonal_pair_blocks" in names
    assert "all_ones_pair_singular" in names
    assert {f"perturbed_pair_singular_N{n}" for n in range(2, 9)} <= names


def test_default_seed_is_stable_constant():
    assert DEFAULT_SEED == 42
