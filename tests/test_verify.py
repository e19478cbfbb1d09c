"""Gram-form oracles, randomized ratio sampling, and certificate verification."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expobasis import (
    DEFAULT_SEED,
    ExponentSystem,
    FrameCertificate,
    GramForm,
    PreconditionError,
    RatioSample,
    adaptive_simpson,
    bessel_check_restriction,
    bessel_restriction_sample,
    complement_certificate,
    construct_interval_removal,
    construct_perturbed_union,
    gram_entry,
    gram_matrix,
    intervals_contained,
    regression_examples,
    residue_orthogonal_basis,
    riesz_ratio_sample,
    verify_certificate,
)
from expobasis.verify import _power_extreme

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
    nu = lam - mu
    direct = 0j
    for a, b in SPLIT:
        # pre-split below the half-period so adaptive Simpson cannot alias
        panels = int(2 * abs(nu)) + 3
        cuts = [float(a) + (float(b) - float(a)) * j / panels for j in range(panels + 1)]
        direct += sum(adaptive_simpson(lambda x: cmath.exp(2j * math.pi * nu * x),
                                       x0, x1, 1e-13)
                      for x0, x1 in zip(cuts, cuts[1:]))
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
    """(frequencies, domain) for one kind of union; see _RUN_GAPS."""
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
    system = ExponentSystem(offsets, domain_scale=scale)
    return system.frequencies(3), domain


@pytest.mark.parametrize("kind", sorted(_RUN_GAPS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_gram_matrix_matches_entries_on_merged_runs(kind, data):
    freqs, domain = data.draw(_gram_case(kind))
    g = gram_matrix(freqs, domain)
    measure = float(sum(hi - lo for lo, hi in domain))
    for i, li in enumerate(freqs):
        for j, lj in enumerate(freqs):
            assert abs(g[i, j] - gram_entry(li, lj, domain)) <= 1e-12 * measure


@pytest.mark.parametrize("s, a", [(3, [0, 3 * 2**22 + 1, 6 * 2**22 + 2]), (2, [0, 2**52 + 1])])
def test_far_apart_tight_frames_have_an_exact_section_gram(s, a):
    # a float phase f*m keeps too few fraction bits once m reaches 2**22 and beyond
    cert = residue_orthogonal_basis(s, a)
    form = GramForm.build(cert.system, cert.domain_intervals, n_max=8)
    assert np.abs(form.gram - s * np.eye(form.size)).max() <= 1e-12
    assert verify_certificate(cert, trials=16).ok


# --- Gram quadratic form ----------------------------------------------------------

def test_gram_form_size_and_basis_ratios():
    system = ExponentSystem((Fraction(0), Fraction(1, 2)), domain_scale=Fraction(1))
    form = GramForm.build(system, SPLIT, n_max=3)
    assert form.size == 2 * 7
    e0 = np.zeros(form.size, dtype=complex)
    e0[0] = 1.0
    assert form.ratio(e0) == pytest.approx(2.0, abs=1e-12)  # diagonal = measure
    with pytest.raises(PreconditionError):
        form.ratio(np.zeros(form.size, dtype=complex))


def test_tight_system_samples_at_its_frame_constant():
    system = ExponentSystem((Fraction(0), Fraction(1, 2)), domain_scale=Fraction(1))
    sample = riesz_ratio_sample(system, SPLIT, n_max=6, trials=50, seed=13)
    assert sample.min_ratio == pytest.approx(2.0, abs=1e-10)
    assert sample.max_ratio == pytest.approx(2.0, abs=1e-10)
    assert sample.min_ratio <= sample.max_ratio


def test_ratio_sample_is_seed_deterministic():
    # non-orthogonal offsets so the sampled ratios genuinely vary with the draw
    system = ExponentSystem((Fraction(0), Fraction(1, 3)), domain_scale=Fraction(1))
    a = riesz_ratio_sample(system, SPLIT, n_max=4, trials=20, seed=99)
    b = riesz_ratio_sample(system, SPLIT, n_max=4, trials=20, seed=99)
    c = riesz_ratio_sample(system, SPLIT, n_max=4, trials=20, seed=100)
    assert a == b
    assert (a.min_ratio, a.max_ratio) != (c.min_ratio, c.max_ratio)


def test_ratio_sample_validates_inputs():
    from expobasis import VerificationError
    system = ExponentSystem((Fraction(0),), domain_scale=Fraction(1))
    with pytest.raises(PreconditionError):
        riesz_ratio_sample(system, SPLIT, trials=0)
    with pytest.raises(VerificationError):
        RatioSample(min_ratio=2.0, max_ratio=1.0, trials=4, seed=0, n_max=2)


def test_oversized_section_is_refused_before_it_is_built():
    import tracemalloc
    system = ExponentSystem((Fraction(0),), domain_scale=Fraction(1))
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="MAX_MATRIX_ROWS"):
            riesz_ratio_sample(system, SPLIT, n_max=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_aliased_offsets_collapse_under_refinement():
    """Offsets {0, 1/2} on blocks 3 apart are tight, but on blocks 2 apart the
    truncated Gram develops a near-null vector; power refinement must drive the
    sampled minimum well below any plausible frame bound."""
    system = ExponentSystem((Fraction(0), Fraction(1, 2)), domain_scale=Fraction(1))
    degenerate = ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(3)))
    for n_max in (2, 4):
        sample = riesz_ratio_sample(system, degenerate, n_max=n_max, trials=64,
                                    seed=5, refine=300)
        assert sample.min_ratio < 0.01
        assert sample.max_ratio > 3.9  # mass piles up on the doubled direction


def test_sound_certificate_sampled_within_bounds():
    cert = construct_interval_removal(4, 1, 0.08)
    sample = riesz_ratio_sample(cert.system, cert.domain_intervals, n_max=8,
                                trials=64, seed=7, refine=50)
    assert cert.A - 1e-6 <= sample.min_ratio
    assert sample.max_ratio <= cert.B + 1e-6


def _looped_sample(form, trials, seed, refine):
    """One form.ratio per trial, keeping the first minimum and maximum."""
    lo, hi = math.inf, -math.inf
    for trial in range(trials):
        rng = np.random.Generator(np.random.PCG64(seed + trial))
        c = np.zeros(form.size)
        while not np.any(c):
            u1, u2 = rng.random(form.size), rng.random(form.size)
            c = np.sqrt(-2.0 * np.log1p(-u1)) * np.exp(2j * np.pi * u2)
        r = form.ratio(c)
        if r < lo:
            lo, v_lo = r, c
        if r > hi:
            hi, v_hi = r, c
    if refine > 0:
        lo = min(lo, _power_extreme(form.gram, v_lo, refine, largest=False))
        hi = max(hi, _power_extreme(form.gram, v_hi, refine, largest=True))
    return lo, hi


@pytest.mark.parametrize("refine, trials", [(0, 50), (40, 50), (40, 600)])
def test_batched_sample_matches_per_trial_loop(refine, trials):
    removal = construct_interval_removal(6, 2, 0.025)
    offsets = ExponentSystem((Fraction(0), Fraction(1, 3)), domain_scale=Fraction(1))
    for system, domain in ((removal.system, removal.domain_intervals), (offsets, SPLIT)):
        form = GramForm.build(system, domain, n_max=4)
        sample = riesz_ratio_sample(form, trials=trials, seed=11, refine=refine)
        lo, hi = _looped_sample(form, trials, 11, refine)
        assert sample.min_ratio == pytest.approx(lo, rel=1e-12)
        assert sample.max_ratio == pytest.approx(hi, rel=1e-12)


# --- restriction (Bessel-type) sampling ----------------------------------------------

def test_full_integer_system_restricts_with_flat_ratio():
    system = ExponentSystem((Fraction(0),), domain_scale=Fraction(3))
    host = ((Fraction(0), Fraction(3)),)
    sub = ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(3)))
    sample = bessel_restriction_sample(system, host, sub, n_max=32, trials=16, seed=3)
    assert sample.min_ratio == pytest.approx(3.0, abs=1e-8)
    assert sample.max_ratio == pytest.approx(3.0, abs=1e-8)
    assert bessel_check_restriction(system, host, sub, 3.0, 3.0,
                                    n_max=32, trials=16, seed=3)


def test_restriction_to_whole_domain_is_identity():
    system = ExponentSystem((Fraction(0),), domain_scale=Fraction(3))
    host = ((Fraction(0), Fraction(3)),)
    sample = bessel_restriction_sample(system, host, host, n_max=32, trials=8, seed=3)
    assert sample.min_ratio == pytest.approx(3.0, abs=1e-8)


def test_restriction_of_unit_fourier_to_half_interval():
    system = ExponentSystem((Fraction(0),), domain_scale=Fraction(1))
    host = ((Fraction(0), Fraction(1)),)
    sub = ((Fraction(0), Fraction(1, 2)),)
    sample = bessel_restriction_sample(system, host, sub, n_max=32, trials=16, seed=3)
    assert sample.min_ratio == pytest.approx(1.0, abs=1e-8)
    assert sample.max_ratio == pytest.approx(1.0, abs=1e-8)


def test_restriction_preconditions():
    system = ExponentSystem((Fraction(0),), domain_scale=Fraction(1))
    host = ((Fraction(0), Fraction(1)),)
    with pytest.raises(PreconditionError):
        bessel_restriction_sample(system, host, ((Fraction(0), Fraction(2)),))
    with pytest.raises(PreconditionError):
        bessel_restriction_sample(system, host, ((Fraction(0), Fraction(1, 2)),), n_max=2)


def test_intervals_contained():
    host = ((Fraction(0), Fraction(3)),)
    sub = ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(3)))
    assert intervals_contained(sub, host)
    assert not intervals_contained(host, sub)
    # adjacent pieces of the cover merge
    assert intervals_contained(((Fraction(0), Fraction(2)),),
                               ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))))


# --- quadrature ---------------------------------------------------------------------------

def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(lambda x: x * x, 0.0, 1.0, 1e-12) == pytest.approx(1 / 3, abs=1e-12)
    osc = adaptive_simpson(lambda x: cmath.exp(2j * math.pi * 3 * x), 0.0, 1.0, 1e-12)
    assert abs(osc) < 1e-11
    mixed = adaptive_simpson(lambda x: cmath.exp(2j * math.pi * 0.5 * x), 0.0, 1.0, 1e-12)
    assert mixed == pytest.approx(complex(0, 2 / math.pi), abs=1e-11)


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
