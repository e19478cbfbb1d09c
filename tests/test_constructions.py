"""Certificate constructors: windows, closed-form constants, oracle containment."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expobasis import (
    ClusterSizeError,
    ComplementRangeError,
    DeltaWindowError,
    EpsilonError,
    ExponentSystem,
    FrameCertificate,
    LatticeError,
    OverlapError,
    PreconditionError,
    ResidueClashError,
    SeparationError,
    ThresholdError,
    associated_matrix,
    build_gamma,
    certify_lattice_subset,
    certify_lattice_subset_paired,
    complement_certificate,
    construct_interval_removal,
    construct_perturbed_union,
    delta_window_interval_removal,
    delta_window_perturbed_union,
    optimal_frame_constants,
    partition_by_coherence,
    progression_matrix,
    residue_orthogonal_basis,
    separation_margin,
    sin_ratio,
    singular_values,
    solve_beta,
    threshold_u,
    verify_certificate,
)
from expobasis import certificate_from_json, certificate_to_json, jsonio
from expobasis.constructions import MAX_BETA_M


def oracle_contained(cert):
    """True when verify_certificate finds no route-1 (node-matrix) violation."""
    return not any(v["route"] == "oracle" for v in verify_certificate(cert).violations)


# --- beta ---------------------------------------------------------------------------

def test_solve_beta_closed_form_pair():
    sol = solve_beta(2)
    assert abs(sol.beta - (0.5 - 1 / (2 * math.pi))) <= 1e-12
    assert sol.m == 2
    assert abs(sol.residual) <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 6, 10, 100, 1000])
def test_solve_beta_residual_and_range(m):
    sol = solve_beta(m)
    assert 0 < sol.beta < 1 / m
    # the root equation: g_m evaluated at 1/m - beta equals u-shift target
    assert abs(sol.residual) <= 1e-12
    assert solve_beta(m).beta == sol.beta  # bitwise deterministic


def test_solve_beta_rejects_small_m():
    with pytest.raises(PreconditionError):
        solve_beta(1)


@pytest.mark.parametrize("k", range(4, 11))
def test_window_edge_matches_its_expansion_or_is_refused(k):
    """1/M - beta against gamma = 1/M^2 - 1/M^3 + 5/(6 M^4), good to about
    1e-12 for M >= 1e4, in both windows; an M whose edge cannot be given to
    1e-6 is refused instead."""
    big_m = 10**k
    gamma = 1 / big_m**2 - 1 / big_m**3 + 5 / (6 * big_m**4)
    n = big_m // 2  # a perturbed union with s = 2 and grid N: M = 2N, m = 3N + 1
    if big_m > MAX_BETA_M:
        with pytest.raises(PreconditionError, match="MAX_BETA_M"):
            delta_window_interval_removal(big_m + 1)
        with pytest.raises(PreconditionError, match="MAX_BETA_M"):
            delta_window_perturbed_union(2, [0, 3], [Fraction(0), Fraction(1, n)])
        return
    _, hi, _ = delta_window_interval_removal(big_m + 1)
    assert abs(hi - gamma) <= 1e-6 * gamma
    _, hi, _, m, _ = delta_window_perturbed_union(2, [0, 3], [Fraction(0), Fraction(1, n)])
    assert abs(hi * n * m - gamma) <= 1e-6 * gamma


# --- perturbed unions ------------------------------------------------------------------

def test_delta_window_unperturbed_pair():
    lo, hi, n, m, beta = delta_window_perturbed_union(2, [0, 3], [Fraction(0), Fraction(0)])
    assert (lo, n, m) == (Fraction(1, 24), 1, 3)
    assert hi == pytest.approx(1 / 6 - beta.beta / 3, abs=1e-15)
    assert hi == pytest.approx(0.05305164769729723, abs=1e-15)


def test_delta_window_third_perturbation():
    lo, hi, n, m, _ = delta_window_perturbed_union(2, [0, 3], [Fraction(0), Fraction(1, 3)])
    assert (lo, n, m) == (Fraction(1, 2160), 3, 10)
    assert hi == pytest.approx(1 / 180 - solve_beta(6).beta / 30, abs=1e-15)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_delta_window_nonempty_at_desk_scale(s):
    a = [j * (s + 1) for j in range(s)]
    for eps_last in (Fraction(0), Fraction(1, 3), Fraction(1, 4)):
        eps = [Fraction(0)] * (s - 1) + [eps_last]
        lo, hi, _, _, _ = delta_window_perturbed_union(s, a, eps)
        assert float(lo) < hi
    # every grid N = 1..40 that a perturbation |eps| < 1/2 can have (not 2)
    for n in [1, *range(3, 41)]:
        for eps_last in [Fraction(0)] if n == 1 else [Fraction(1, n), Fraction(-1, n)]:
            eps = [Fraction(0)] * (s - 1) + [eps_last]
            lo, hi, grid, _, _ = delta_window_perturbed_union(s, a, eps)
            assert grid == n and lo < hi, (s, n, eps_last)


def test_single_interval_needs_no_shift():
    with pytest.raises(PreconditionError):
        delta_window_perturbed_union(1, [0], [Fraction(0)])


def test_perturbed_union_frozen_pair():
    cert = construct_perturbed_union(2, [0, 3], [Fraction(0), Fraction(0)], 0.05)
    assert cert.A == 0.0028042310864369794
    assert cert.B == 7.701911845076334
    # the float 0.05 enters as its exact binary value, not rounded again
    assert cert.system.branch_offsets == (0, Fraction(1, 2) + Fraction(0.05))
    assert cert.params["delta"] == Fraction(0.05)
    assert set(cert.flags) >= {"statement_offsets", "m_includes_grid_factor"}
    assert not cert.vacuous

    matrix, scale = associated_matrix(cert)
    assert scale == 1.0
    spec = singular_values(matrix)
    sig2 = sorted(v * v for v in spec.values)
    assert sig2 == pytest.approx([1.0920190005209056, 2.9079809994790935], abs=1e-12)
    assert oracle_contained(cert)


def test_perturbed_union_dilated_grid():
    cert = construct_perturbed_union(2, [0, 3], [Fraction(0), Fraction(1, 3)], 0.0006)
    matrix, scale = associated_matrix(cert)
    assert scale == 3.0
    assert matrix.size == 6
    # the 3-fold dilation of [0, 1) u [10/3, 13/3), with branches (r + phi_j)/3
    assert matrix.nodes == (0, 1, 2, 10, 11, 12)
    phis = (0.0, 0.5 + 0.0006)
    assert matrix.deltas == pytest.approx([(r + phi) / 3 for phi in phis for r in range(3)],
                                          abs=1e-15)
    assert oracle_contained(cert)
    assert cert.domain_intervals[1][0] == Fraction(10, 3)


def test_perturbed_union_matrix_is_its_own_system_on_its_own_domain():
    # lcd 4: the node matrix of the certified system, not a progression on the grid
    cert = construct_perturbed_union(2, [0, 1], [Fraction(0), Fraction(1, 4)],
                                     0.0005416971729666823)
    matrix, scale = associated_matrix(cert)
    assert scale == 4.0
    assert matrix.nodes == (0, 1, 2, 3, 5, 6, 7, 8)
    lo, hi = optimal_frame_constants(matrix)
    assert lo / scale == pytest.approx(1.158437094313158e-05, rel=1e-9)
    assert hi / scale == pytest.approx(3.999988415629059, rel=1e-12)
    assert oracle_contained(cert)


def test_perturbed_union_window_is_inclusive():
    cert = construct_perturbed_union(2, [0, 3], [Fraction(0), Fraction(0)], Fraction(1, 24))
    assert cert.A > 0
    with pytest.raises(DeltaWindowError):
        construct_perturbed_union(2, [0, 3], [Fraction(0), Fraction(0)],
                                  Fraction(1, 24) - Fraction(1, 10**9))
    with pytest.raises(DeltaWindowError):
        construct_perturbed_union(2, [0, 3], [Fraction(0), Fraction(0)], 0.0531)


def test_perturbed_union_negative_delta_allowed():
    cert = construct_perturbed_union(2, [0, 3], [Fraction(0), Fraction(0)], -0.05)
    assert cert.A > 0
    assert oracle_contained(cert)


def test_perturbed_union_preconditions():
    zeros = [Fraction(0), Fraction(0)]
    with pytest.raises(ResidueClashError):
        construct_perturbed_union(2, [0, 2], zeros, 0.05)
    with pytest.raises(EpsilonError):
        construct_perturbed_union(2, [0, 3], [Fraction(1, 3), Fraction(0)], 0.05)
    with pytest.raises(EpsilonError):
        construct_perturbed_union(2, [0, 3], [Fraction(0), Fraction(1, 2)], 0.05)
    with pytest.raises(EpsilonError):
        construct_perturbed_union(2, [0, 3], [Fraction(0)], 0.05)
    with pytest.raises(PreconditionError):
        construct_perturbed_union(2, [1, 4], zeros, 0.05)


def test_perturbed_intervals_that_overlap_are_refused_before_the_window():
    # [1/6 + 1, 1/6 + 2) and [2 - 1/3, 3 - 1/3) overlap by 1/2
    eps = [Fraction(0), Fraction(1, 6), Fraction(-1, 3)]
    with pytest.raises(OverlapError):
        delta_window_perturbed_union(3, [0, 1, 2], eps)
    with pytest.raises(OverlapError):
        construct_perturbed_union(3, [0, 1, 2], eps, 1.0)


# --- lattice subsets ----------------------------------------------------------------------

def test_threshold_examples():
    assert threshold_u(12, 3) == pytest.approx(0.7341954931581837, abs=1e-12)
    assert threshold_u(12, 3) == pytest.approx((12 / math.pi) * math.acos(3 * math.sin(1 / 3)),
                                               abs=1e-12)
    # odd N uses the half-shifted variant
    assert threshold_u(9, 3) == pytest.approx(
        (9 / math.pi) * math.acos(3 * math.sin(1 / 3) * math.cos(math.pi / 18)) - 0.5,
        abs=1e-12)


def test_separation_margin_is_exact():
    assert separation_margin(4, 12, 3) == Fraction(1, 3)
    assert separation_margin(1, 12, 3) == Fraction(-1, 6)
    assert separation_margin(16, 12, 3) == separation_margin(4, 12, 3)


def test_lattice_certificate_closed_form():
    cert = certify_lattice_subset(12, 3, [0, 4, 8], 1)
    assert cert.A == 3 * (1 - math.cos(math.pi / 12))
    assert cert.B == 3 * (1 + math.cos(math.pi / 12))
    matrix, scale = associated_matrix(cert)
    spec = singular_values(matrix)
    for v in spec.values:  # this subset is exactly orthogonal
        assert v * v == pytest.approx(3.0, abs=1e-12)
    assert oracle_contained(cert)


def test_lattice_certificate_separated_generic_subset():
    cert = certify_lattice_subset(10, 3, [0, 3, 7], 1)
    assert cert.A > 0
    assert oracle_contained(cert)


def test_lattice_preconditions():
    with pytest.raises(SeparationError):
        certify_lattice_subset(12, 3, [0, 1, 6], 1)
    with pytest.raises(ThresholdError):
        certify_lattice_subset(20, 3, [0, 7, 14], 1)
    with pytest.raises(PreconditionError):
        certify_lattice_subset(12, 2, [0, 6], 1)
    with pytest.raises(PreconditionError):
        certify_lattice_subset(12, 7, [0, 1, 2, 3, 4, 5, 6], 1)
    with pytest.raises(PreconditionError):
        certify_lattice_subset(12, 3, [0, 4, 12], 1)
    with pytest.raises(PreconditionError):
        certify_lattice_subset(12, 3, [0, 4, 8], 1.5)


def _lattice_outcome(certify, n, m, a, u):
    """(A, B, params) of a certificate, or (error class, message) of its refusal."""
    try:
        cert = certify(n, m, a, u)
    except PreconditionError as exc:
        return type(exc), str(exc)
    return cert.A, cert.B, cert.params


def test_paired_reduces_to_plain_when_all_singletons():
    plain = certify_lattice_subset(12, 3, [0, 4, 8], 1)
    paired = certify_lattice_subset_paired(12, 3, [0, 4, 8], 1)
    assert paired.A == plain.A and paired.B == plain.B
    assert paired.params.get("alpha") == 0.0
    # every endpoint set whose partition is all singletons: the same constants,
    # bit for bit, or the same refusal, at the least admissible u
    for n, m in ((10, 3), (12, 4), (16, 4)):
        u = math.floor(threshold_u(n, m)) + 1
        admissible = 0
        for a in itertools.combinations(range(n), m):
            if partition_by_coherence(a, Fraction(1, n), m).max_cluster_size > 1:
                continue
            want = _lattice_outcome(certify_lattice_subset, n, m, a, u)
            got = _lattice_outcome(certify_lattice_subset_paired, n, m, a, u)
            if isinstance(want[0], float):
                admissible += 1
                assert got == (want[0], want[1], {**want[2], "alpha": 0.0}), (n, m, a)
            else:
                assert got == want, (n, m, a)
        assert admissible > 0, (n, m)


def test_paired_certificate_with_adjacent_pairs():
    cert = certify_lattice_subset_paired(16, 4, [0, 1, 8, 9], 1)
    assert cert.A == 0.007214939184647871
    assert cert.B == 15.102516753233594
    assert cert.params["alpha"] == sin_ratio(4, Fraction(1, 16))
    matrix, scale = associated_matrix(cert)
    sig2 = sorted(v * v for v in singular_values(matrix).values)
    assert sig2[0] == pytest.approx(0.3044818699548526, abs=1e-10)
    assert sig2[-1] == pytest.approx(7.695518130045148, abs=1e-10)
    assert oracle_contained(cert)


def test_paired_rejects_chains_and_cross_violations():
    with pytest.raises(ClusterSizeError):
        certify_lattice_subset_paired(16, 4, [0, 1, 2, 8], 1)
    # the refusal names the margin, as the plain method's does; (0, 1) is a
    # cluster, so the first pair checked is (1, 12)
    with pytest.raises(SeparationError, match=r"^pair \(1, 12\): margin 1/16 <= u/N = 1/16$"):
        certify_lattice_subset_paired(16, 4, [0, 1, 8, 12], 1)
    with pytest.raises(SeparationError, match=r"^pair \(0, 3\): margin 1/7 <= u/N = 1/7$"):
        certify_lattice_subset_paired(7, 3, [0, 3, 5], 1)


# --- interval removal -----------------------------------------------------------------------

def test_interval_removal_frozen_quad():
    cert = construct_interval_removal(4, 1, 0.08)
    assert cert.A == 0.018415909611543373
    assert cert.B == 9.907920451942282
    # closed forms in terms of M = N - 1
    M = 3
    assert cert.A == pytest.approx((1 - M * math.sin(1 / M)) * (M - 1 / math.sin(math.pi / (2 * M))),
                                   abs=1e-15)
    assert cert.B == pytest.approx((1 + M * math.sin(1 / M)) * (M + 1 / math.sin(math.pi / (2 * M))),
                                   abs=1e-15)
    assert oracle_contained(cert)


@pytest.mark.parametrize("n, m", [(4, 1), (9, 4), (33, 31)])
def test_interval_removal_domain_is_its_two_runs(n, m):
    lo, hi, _ = delta_window_interval_removal(n)
    cert = construct_interval_removal(n, m, (lo + hi) / 2)
    assert cert.domain_intervals == ((Fraction(0), Fraction(m)), (Fraction(m + 1), Fraction(n)))


def test_interval_removal_constants_ignore_m_and_delta():
    base = construct_interval_removal(4, 1, 0.08)
    assert construct_interval_removal(4, 2, 0.08).A == base.A
    assert construct_interval_removal(4, 1, 0.06).B == base.B
    # exact rational delta takes the same path
    frac = construct_interval_removal(4, 1, Fraction(2, 25))
    assert (frac.A, frac.B) == (base.A, base.B)
    assert oracle_contained(frac)


def test_interval_removal_window_formula():
    lo, hi, beta = delta_window_interval_removal(4)
    assert lo == Fraction(1, 18)
    assert beta == solve_beta(3)
    assert hi == 1 / 3 - beta.beta
    assert construct_interval_removal(4, 1, 0.08).params["window"] == [lo, hi]
    with pytest.raises(PreconditionError):
        delta_window_interval_removal(2)


def test_interval_removal_window_is_strict():
    lo = Fraction(1, 18)
    hi = 1 / 3 - solve_beta(3).beta
    with pytest.raises(DeltaWindowError):
        construct_interval_removal(4, 1, lo)
    with pytest.raises(DeltaWindowError):
        construct_interval_removal(4, 1, hi)
    with pytest.raises(PreconditionError):
        construct_interval_removal(2, 1, 0.1)
    with pytest.raises(PreconditionError):
        construct_interval_removal(4, 3, 0.08)


@pytest.mark.parametrize("n", range(4, 9))
def test_interval_removal_certifies_across_windows(n):
    lo = 1.0 / (2 * (n - 1) ** 2)
    hi = 1.0 / (n - 1) - solve_beta(n - 1).beta
    for frac in (0.25, 0.5, 0.75):
        cert = construct_interval_removal(n, 1, lo + (hi - lo) * frac)
        assert cert.A > 0
        assert oracle_contained(cert)


# --- plain bases -------------------------------------------------------------------------------

@pytest.mark.parametrize("s, a", [(1, [0]), (2, [0, 3]), (4, [0, 1, 2, 3])])
def test_residue_orthogonal_basis(s, a):
    cert = residue_orthogonal_basis(s, a)
    assert cert.A == cert.B == float(s)
    lo, hi = optimal_frame_constants(associated_matrix(cert)[0])
    assert lo == pytest.approx(s, abs=1e-9)
    assert hi == pytest.approx(s, abs=1e-9)


def test_residue_orthogonal_preconditions():
    with pytest.raises(ResidueClashError):
        residue_orthogonal_basis(2, [0, 2])
    with pytest.raises(PreconditionError):
        residue_orthogonal_basis(2, [0, 0])
    with pytest.raises(PreconditionError):
        residue_orthogonal_basis(3, [0, 1])


# --- complement reflection ----------------------------------------------------------------------

def test_complement_of_single_interval_keeps_reflected_constants():
    comp = complement_certificate(3, residue_orthogonal_basis(1, [0]))
    assert comp.A == comp.B == 2.0
    assert comp.system.branch_offsets == (Fraction(1, 3), Fraction(2, 3))
    assert comp.domain_intervals == ((Fraction(1), Fraction(3)),)
    assert set(comp.flags) == {"reflected_constants", "upper_from_delta_minus_lower",
                               "unverified_reflection_bounds"}
    # reflection is NOT a certificate: the true spectrum spreads past [2, 2]
    matrix, scale = associated_matrix(comp)
    sig2 = sorted(v * v for v in singular_values(matrix).values)
    assert sig2 == pytest.approx([1.0, 3.0], abs=1e-9)
    assert not oracle_contained(comp)


def test_complement_counterexample_with_two_blocks():
    comp = complement_certificate(6, residue_orthogonal_basis(2, [0, 3]))
    assert comp.A == comp.B == 4.0
    assert comp.system.branch_offsets == (Fraction(1, 6), Fraction(1, 3),
                                          Fraction(2, 3), Fraction(5, 6))
    assert comp.domain_intervals == ((Fraction(1), Fraction(3)), (Fraction(4), Fraction(6)))
    sig2 = sorted(v * v for v in singular_values(associated_matrix(comp)[0]).values)
    assert sig2[0] == pytest.approx(2.0, abs=1e-9)
    assert sig2[-1] == pytest.approx(6.0, abs=1e-9)


def test_complement_is_an_involution():
    parent = residue_orthogonal_basis(1, [0])
    back = complement_certificate(3, complement_certificate(3, parent))
    assert (back.A, back.B) == (parent.A, parent.B)
    assert back.system.branch_offsets == parent.system.branch_offsets
    assert back.domain_intervals == parent.domain_intervals


def test_complement_off_unit_scale_has_scaled_matrix_oracle():
    parent = FrameCertificate(
        method="residue_orthogonal", A=1.0, B=1.0,
        system=ExponentSystem((Fraction(0),), domain_scale=Fraction(3)),
        domain_intervals=((Fraction(0), Fraction(3)),))
    comp = complement_certificate(9, parent)
    assert comp.system.branch_offsets == (Fraction(1, 3), Fraction(2, 3))
    assert comp.domain_intervals == ((Fraction(3), Fraction(9)),)
    # (Z + 1/3)/3 u (Z + 2/3)/3 on [3, 9) is Z + {1/3, 2/3} on [1, 3), times 3
    matrix, scale = associated_matrix(comp)
    assert scale == 1 / 3
    assert matrix.nodes == (1, 2)
    lo, hi = optimal_frame_constants(matrix)
    assert (lo / scale, hi / scale) == pytest.approx((3.0, 9.0), abs=1e-9)
    assert (comp.A, comp.B) == (8.0, 8.0)
    report = verify_certificate(comp, trials=8)
    assert not report.ok
    assert any(v["route"] == "oracle" for v in report.violations)


def test_complement_preconditions():
    with pytest.raises(ComplementRangeError):
        complement_certificate(3, residue_orthogonal_basis(4, [0, 1, 2, 3]))
    with pytest.raises(LatticeError):
        complement_certificate(3, residue_orthogonal_basis(2, [0, 3]))
    full = FrameCertificate(
        method="residue_orthogonal", A=2.0, B=2.0,
        system=ExponentSystem((Fraction(0), Fraction(1, 3), Fraction(2, 3)),
                              domain_scale=Fraction(1)),
        domain_intervals=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)),
                          (Fraction(2), Fraction(3))))
    with pytest.raises(ComplementRangeError):
        complement_certificate(3, full)
    escape = FrameCertificate(
        method="lattice_subset", A=1.0, B=2.0,
        system=ExponentSystem((Fraction(0), Fraction(1, 3)), domain_scale=Fraction(1)),
        domain_intervals=((Fraction(0), Fraction(1)), (Fraction(3), Fraction(4))))
    with pytest.raises(PreconditionError):
        complement_certificate(3, escape)


# --- node matrices on the unit grid ----------------------------------------------------------

def _perturbed_union_progression(s, a, delta):
    return progression_matrix(a, Fraction(1, s) + delta)  # integer endpoints: D = 1


@pytest.mark.parametrize("build, expected", [
    (lambda: construct_interval_removal(6, 2, 0.03),
     lambda: progression_matrix([0, 1, 3, 4, 5], 1 / 5 - 0.03)),
    (lambda: construct_interval_removal(5, 1, Fraction(1, 25)),
     lambda: progression_matrix([0, 2, 3, 4], Fraction(1, 4) - Fraction(1, 25))),
    (lambda: certify_lattice_subset(10, 3, [0, 3, 7], 1),
     lambda: progression_matrix([0, 3, 7], Fraction(1, 10))),
    (lambda: certify_lattice_subset_paired(16, 4, [0, 1, 8, 9], 1),
     lambda: progression_matrix([0, 1, 8, 9], Fraction(1, 16))),
    (lambda: residue_orthogonal_basis(3, [0, 4, 8]),
     lambda: progression_matrix([0, 4, 8], Fraction(1, 3))),
    (lambda: construct_perturbed_union(2, [0, 3], [Fraction(0), Fraction(0)], 0.05),
     lambda: _perturbed_union_progression(2, [0, 3], 0.05)),
    (lambda: construct_perturbed_union(3, [0, 4, 8], [Fraction(0)] * 3, Fraction(-1, 120)),
     lambda: _perturbed_union_progression(3, [0, 4, 8], Fraction(-1, 120))),
    (lambda: complement_certificate(6, residue_orthogonal_basis(2, [0, 3])),
     lambda: build_gamma([Fraction(k, 6) for k in (1, 2, 4, 5)], [1, 2, 4, 5])),
], ids=["interval_removal", "interval_removal_exact", "lattice_subset", "lattice_subset_paired",
        "residue_orthogonal", "perturbed_union", "perturbed_union_exact", "complement"])
def test_unit_grid_matrix_matches_the_construction_formula(build, expected):
    matrix, scale = associated_matrix(build())
    want = expected()
    assert scale == 1.0
    assert matrix.nodes == want.nodes
    assert float(abs(matrix.entries - want.entries).max()) <= 1e-12


def _node_matrix_from_fractions(cert):
    """The node matrix by Fraction arithmetic alone: endpoints divided by c,
    branches (r + phi)/D as Fractions."""
    c = cert.system.domain_scale
    pieces = [(lo / c, hi / c) for lo, hi in cert.domain_intervals]
    d = math.lcm(*[x.denominator for piece in pieces for x in piece])
    nodes = [p for lo, hi in pieces for p in range(int(lo * d), int(hi * d))]
    branches = [(r + phi) / d for phi in cert.system.branch_offsets for r in range(d)]
    return build_gamma(branches, nodes), float(d / c)


@pytest.mark.parametrize("build, d", [
    (lambda: construct_interval_removal(9, 3, 0.01), 1),
    (lambda: construct_perturbed_union(2, [0, 3], [Fraction(0), Fraction(1, 3)], 0.0006), 3),
    (lambda: construct_perturbed_union(2, [0, 1], [Fraction(0), Fraction(1, 4)],
                                       0.0005416971729666823), 4),
    (lambda: construct_perturbed_union(2, [0, 1], [Fraction(0), Fraction(3, 10)],
                                       -1.349625582624321e-05), 10),
    (lambda: complement_certificate(9, FrameCertificate(
        method="residue_orthogonal", A=1.0, B=1.0,
        system=ExponentSystem((Fraction(0),), domain_scale=Fraction(3)),
        domain_intervals=((Fraction(0), Fraction(3)),))), 1),
    # [0, 1/3) u [1/2, 3/2) over c = 2/3 is [0, 1/2) u [3/4, 9/4)
    (lambda: FrameCertificate(
        method="lattice_subset", A=0.0, B=4.0,
        system=ExponentSystem((Fraction(0), Fraction(1, 2)), domain_scale=Fraction(2, 3)),
        domain_intervals=((Fraction(0), Fraction(1, 3)), (Fraction(1, 2), Fraction(3, 2)))), 4),
], ids=["D1", "D3", "D4", "D10", "complement_scale_3", "scale_2_3_D4"])
def test_node_matrix_is_bitwise_the_fraction_built_one(build, d):
    cert = build()
    matrix, scale = associated_matrix(cert)
    want, want_scale = _node_matrix_from_fractions(cert)
    assert matrix.size == d * cert.system.branches
    assert (matrix.nodes, matrix.deltas, scale) == (want.nodes, want.deltas, want_scale)
    assert np.array_equal(matrix.entries.view(np.uint64), want.entries.view(np.uint64))


# --- certificate container ------------------------------------------------------------------------

def test_certificate_validation():
    system = ExponentSystem((Fraction(0),), domain_scale=Fraction(1))
    box = ((Fraction(0), Fraction(1)),)
    with pytest.raises(PreconditionError):
        FrameCertificate(method="residue_orthogonal", A=2.0, B=1.0, system=system,
                         domain_intervals=box)
    for unknown in ("mystery", "oracle"):  # no constructor emits "oracle"
        with pytest.raises(PreconditionError):
            FrameCertificate(method=unknown, A=1.0, B=1.0, system=system, domain_intervals=box)
    vac = FrameCertificate(method="residue_orthogonal", A=-0.5, B=1.0, system=system,
                           domain_intervals=box)
    assert vac.vacuous


@pytest.mark.parametrize("build", [
    lambda: residue_orthogonal_basis(2, [0, 3]),
    lambda: construct_perturbed_union(2, [0, 3], [Fraction(0), Fraction(1, 3)], 0.0006),
    lambda: certify_lattice_subset(12, 3, [0, 4, 8], 1),
    lambda: certify_lattice_subset_paired(16, 4, [0, 1, 8, 9], 1),
    lambda: construct_interval_removal(4, 1, 0.08),
    lambda: complement_certificate(3, residue_orthogonal_basis(1, [0])),
    # hand-built: float-born offsets, a domain scale other than 1, Fraction endpoints
    lambda: FrameCertificate(
        method="residue_orthogonal", A=0.5, B=2.0,
        system=ExponentSystem((0.0, 0.51, 1 / 3), domain_scale=Fraction(3, 2)),
        domain_intervals=[(Fraction(1, 3), Fraction(7, 6)), (Fraction(5, 2), 4)],
        params={"delta": Fraction(-1, 7), "window": [Fraction(1, 9), 0.2]}),
    lambda: FrameCertificate(
        method="interval_removal", A=-0.25, B=1.5,
        system=ExponentSystem((0.1, -0.7), domain_scale=Fraction(1, 3)),
        domain_intervals=[(Fraction(-10, 3), Fraction(-1, 2))], flags=("vacuous_lower_bound",)),
])
def test_certificate_json_round_trip(build):
    cert = build()
    doc = certificate_to_json(cert)
    assert doc["schema"] == "v1"
    assert certificate_from_json(doc) == cert
    # a second to_json -> dumps -> loads -> from_json trip writes the same text
    text = jsonio.dumps(doc)
    back = certificate_from_json(jsonio.loads(text))
    assert back == cert
    assert jsonio.dumps(certificate_to_json(back)) == text


def test_certificate_json_rejects_unknown_schema():
    doc = certificate_to_json(residue_orthogonal_basis(1, [0]))
    doc["schema"] = "v2"
    with pytest.raises(PreconditionError):
        certificate_from_json(doc)
