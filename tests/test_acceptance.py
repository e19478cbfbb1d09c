"""End-to-end acceptance gate.

Each test exercises one advertised guarantee at its stated tolerance and
records a one-line verdict (see conftest.py) so the run log ends with a
criterion-by-criterion summary.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import oscillatory_integral, record_acceptance
from expobasis import (
    ExponentSystem,
    GramForm,
    RankDeficientError,
    associated_matrix,
    certify_lattice_subset,
    cluster_spectrum,
    construct_interval_removal,
    construct_perturbed_union,
    delta_window_perturbed_union,
    optimal_frame_constants,
    partition_by_coherence,
    principal_angle_check,
    progression_matrix,
    residue_orthogonal_basis,
    riesz_ratio_sample,
    separation_margin,
    singular_values,
    solve_beta,
    threshold_u,
    verify_certificate,
)


def verdict(criterion, ok, detail):
    line = f"ACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    record_acceptance(line)
    return line


def test_criterion_1_orthogonal_pair_and_singular_perturbations():
    start = time.perf_counter()
    gamma = np.array([[1, 1], [1, -1]], dtype=complex)
    lo, hi = optimal_frame_constants(gamma)
    constants_ok = abs(lo - 2.0) <= 1e-10 and abs(hi - 2.0) <= 1e-10

    ratios = []
    for n in range(2, 9):
        nodes = list(range(n)) + list(range(3 * n - 1, 4 * n - 1))
        spec = singular_values(progression_matrix(nodes, Fraction(1, 2 * n)))
        ratios.append(spec.sigma_min / spec.sigma_max)
    singular_ok = all(r < 1e-10 for r in ratios)
    elapsed = time.perf_counter() - start

    ok = constants_ok and singular_ok and elapsed < 1.0
    line = verdict(1, ok, f"A_opt=B_opt={lo:.12f}; max sigma_min/sigma_max over "
                          f"N=2..8 is {max(ratios):.3e}; {elapsed:.2f}s")
    assert ok, line


def test_criterion_2_degenerate_pair_spectrum():
    start = time.perf_counter()
    spec = singular_values(np.ones((2, 2), dtype=complex))
    elapsed = time.perf_counter() - start
    ok = (abs(spec.values[0] - 2.0) <= 1e-12 and abs(spec.values[1]) <= 1e-12
          and spec.is_singular and elapsed < 0.1)
    line = verdict(2, ok, f"spectrum={tuple(round(v, 12) for v in spec.values)}, "
                          f"singular={spec.is_singular}; {elapsed:.3f}s")
    assert ok, line


def _random_residue_endpoints(rng, s):
    residues = rng.permutation(s)
    lifts = rng.integers(0, 4, size=s)
    return sorted(int(r + s * k) for r, k in zip(residues, lifts))


def test_criterion_3_tight_frames_on_residue_complete_unions():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_const = 0.0
    worst_ratio = 0.0
    for s in range(1, 11):
        for _ in range(50):
            a = _random_residue_endpoints(rng, s)
            cert = residue_orthogonal_basis(s, a)
            lo, hi = optimal_frame_constants(associated_matrix(cert)[0])
            worst_const = max(worst_const, abs(lo - s), abs(hi - s))
            sample = riesz_ratio_sample(GramForm.build(cert.system, cert.domain_intervals, 6),
                                        trials=100, seed=42)
            worst_ratio = max(worst_ratio, abs(sample.min_ratio - s),
                              abs(sample.max_ratio - s))
    elapsed = time.perf_counter() - start
    ok = worst_const <= 1e-9 and worst_ratio <= 1e-8 and elapsed < 30.0
    line = verdict(3, ok, f"500 unions: max |constant - s| = {worst_const:.2e}, "
                          f"max sampled deviation = {worst_ratio:.2e}; {elapsed:.1f}s")
    assert ok, line


def test_criterion_4_beta_solver_range():
    start = time.perf_counter()
    worst_residual = 0.0
    margin_ok = True
    for m in range(2, 1001):
        sol = solve_beta(m)
        worst_residual = max(worst_residual, abs(sol.residual))
        if not 1.0 / (2 * m * m) < 1.0 / m - sol.beta:
            margin_ok = False
    pair_error = abs(solve_beta(2).beta - (0.5 - 1 / (2 * math.pi)))
    elapsed = time.perf_counter() - start
    ok = worst_residual <= 1e-12 and margin_ok and pair_error <= 1e-12 and elapsed < 5.0
    line = verdict(4, ok, f"M=2..1000: max residual {worst_residual:.2e}, window "
                          f"margin holds {margin_ok}, beta(2) error {pair_error:.2e}; "
                          f"{elapsed:.1f}s")
    assert ok, line


def _oracle_violations(cert):
    """Route-1 violations from the product's own check: sigma^2 outside the
    scaled [A, B] (per-side relative tolerance), or a singular matrix under A > 0."""
    return [v for v in verify_certificate(cert).violations if v["route"] == "oracle"]


def test_criterion_5_interval_removal_soundness():
    start = time.perf_counter()
    checked = 0
    failures = []
    for n in range(4, 11):
        big_m = n - 1
        lo = 1.0 / (2 * big_m * big_m)
        hi = 1.0 / big_m - solve_beta(big_m).beta
        for m in range(1, n - 1):
            for k in range(1, 6):
                delta = lo + (hi - lo) * k / 6.0
                cert = construct_interval_removal(n, m, delta)
                hits = _oracle_violations(cert)
                if hits:
                    failures.append((n, m, delta, hits))
                checked += 1
    elapsed = time.perf_counter() - start
    ok = not failures and checked == sum(5 * (n - 2) for n in range(4, 11)) and elapsed < 10.0
    line = verdict(5, ok, f"{checked} (N, m, delta) certificates contained their "
                          f"oracle spectra, {len(failures)} failures; {elapsed:.1f}s")
    assert ok, line


def _draw_perturbed_instance(rng, s, n_target):
    """Random admissible (a, eps, delta) with lcd(eps) == n_target (1 or 3)."""
    tail_residues = rng.permutation(np.arange(1, s))
    a = [0] + sorted(
        int(r + s * (1 + k))
        for r, k in zip(tail_residues, rng.integers(0, 3, size=s - 1))
    )
    eps = [Fraction(0)] * s
    if n_target == 3:
        eps[-1] = Fraction(int(rng.choice([-1, 1])), 3)
    lo, hi, n, m, _ = delta_window_perturbed_union(s, a, eps)
    assert n == n_target
    u = rng.uniform(0.05, 0.95)
    delta = Fraction(float(lo) + (hi - float(lo)) * u)  # exact binary rational
    if rng.integers(0, 2):
        delta = -delta
    return a, eps, delta


def test_criterion_6_perturbed_union_soundness_grid():
    start = time.perf_counter()
    rng = np.random.default_rng(60)
    notes = []
    failures = []
    checked = 0
    for s, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        if n == 2:
            # |k/2| < 1/2 forces k = 0: no perturbation has exact denominator 2.
            # Reported (not skipped): the cell degenerates to lcd 1 instances.
            notes.append(f"(s={s}, N=2) has no admissible eps with lcd 2; "
                         f"ran 10 lcd-1 fallbacks")
            n_eff = 1
        else:
            n_eff = n
        for _ in range(10):
            a, eps, delta = _draw_perturbed_instance(rng, s, n_eff)
            cert = construct_perturbed_union(s, a, eps, delta)
            assert s * n_eff * associated_matrix(cert)[0].size <= 36
            hits = _oracle_violations(cert)
            if hits:
                failures.append((s, n, a, eps, float(delta), hits))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = not failures and checked == 50 and elapsed < 60.0
    note_text = "; ".join(notes)
    line = verdict(6, ok, f"{checked} instances over the (s, N) grid contained their "
                          f"oracle constants, {len(failures)} failures; {note_text}; "
                          f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_7_lattice_subset_enumeration():
    start = time.perf_counter()
    expected_empty = {(8, 3), (10, 4)}
    found = {}
    failures = []
    for n, m in itertools.product((8, 10, 12), (3, 4)):
        u = math.floor(threshold_u(n, m)) + 1
        admissible = []
        for a in itertools.combinations(range(n), m):
            margins = [separation_margin(y - x, n, m) for x, y in itertools.combinations(a, 2)]
            if all(margin > Fraction(u, n) for margin in margins):
                admissible.append(a)
        found[(n, m)] = admissible
        for a in admissible:
            cert = certify_lattice_subset(n, m, list(a), u)
            if _oracle_violations(cert):
                failures.append((n, m, a))
    elapsed = time.perf_counter() - start

    empty = {key for key, sets in found.items() if not sets}
    counts = {key: len(sets) for key, sets in sorted(found.items())}
    ok = (not failures and empty == expected_empty and elapsed < 120.0
          and counts == {(8, 3): 0, (8, 4): 2, (10, 3): 10,
                         (10, 4): 0, (12, 3): 4, (12, 4): 3}
          and (0, 2, 4, 6) in found[(8, 4)])
    line = verdict(7, ok, f"admissible sets per (N, M): {counts}; no admissible "
                          f"configuration exists for {sorted(expected_empty)} "
                          f"(reported explicitly); {len(failures)} containment "
                          f"failures; {elapsed:.1f}s")
    assert ok, line


def _sandwich_instance_stream(rng):
    """Alternate interval-removal and perturbed-union draws, yielding
    (nodes, spacing) for progression matrices: the removal's offsets, and the
    perturbed union's N-dilated grid nodes with per-step phase 1/(sN) + delta."""
    cells = [(2, 1), (2, 3), (3, 1)]
    toggle = 0
    while True:
        toggle += 1
        if toggle % 2:
            n = int(rng.integers(4, 11))
            big_m = n - 1
            lo = 1.0 / (2 * big_m * big_m)
            hi = 1.0 / big_m - solve_beta(big_m).beta
            delta = lo + (hi - lo) * rng.uniform(0.02, 0.98)
            yield list(range(big_m)), 1.0 / big_m - delta
        else:
            s, n = cells[(toggle // 2) % 3]
            a, eps, delta = _draw_perturbed_instance(rng, s, n)
            yield ([int((a_j + e_j) * n) + r for a_j, e_j in zip(a, eps) for r in range(n)],
                   float(Fraction(1, s * n) + delta))


def test_criterion_8_cluster_sandwich_on_random_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    stream = _sandwich_instance_stream(rng)
    checked = 0
    skipped = {"cluster": 0, "angle": 0, "rank": 0}
    worst_margin = math.inf
    violations = []
    draws = 0
    while checked < 200 and draws < 4000:
        draws += 1
        nodes, spacing = next(stream)
        length = len(nodes)
        part = partition_by_coherence(nodes, spacing)
        if part.max_cluster_size > 2:
            skipped["cluster"] += 1
            continue
        try:
            alpha = max(math.pi / 2 - principal_angle_check(part), 0.0)
        except RankDeficientError:
            skipped["rank"] += 1
            continue
        if length * alpha >= 1.0:
            skipped["angle"] += 1
            continue
        tilde = sorted(
            (v for i in range(len(part.clusters)) for v in cluster_spectrum(part, i)),
            reverse=True)
        sigmas = singular_values(progression_matrix(nodes, spacing)).values
        low = math.sqrt(1.0 - length * alpha)
        high = math.sqrt(1.0 + length * alpha)
        for t, sv in zip(tilde, sigmas):
            worst_margin = min(worst_margin, sv - low * t, high * t - sv)
            if not (low * t - 1e-8 <= sv <= high * t + 1e-8):
                violations.append((nodes, spacing, t, sv))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and not violations
    line = verdict(8, ok, f"200 admissible instances, per-index containment with the "
                          f"exact principal angle held (worst margin {worst_margin:+.3f}); "
                          f"skipped: {skipped['cluster']} oversized/chained clusters, "
                          f"{skipped['angle']} wide-angle, {skipped['rank']} rank-deficient; "
                          f"{elapsed:.1f}s")
    assert ok, line


def _random_union(rng):
    endpoints = []
    cursor = Fraction(int(rng.integers(0, 8)), 4)
    for _ in range(int(rng.integers(1, 4))):
        endpoints.append(cursor)
        cursor += 1 + Fraction(int(rng.integers(0, 8)), 4)
    return tuple((e, e + 1) for e in endpoints)


def _section(system, union, n_max):
    """The dense section Gram, read from ``GramForm.apply`` on the identity."""
    form = GramForm.build(system, union, n_max)
    return form.apply(np.eye(form.size))


def test_criterion_9_gram_form_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(900)
    worst = 0.0
    for _ in range(500):
        union = _random_union(rng)
        lam, mu = rng.uniform(-6, 6, size=2)
        direct = sum(oscillatory_integral(lam - mu, float(a), float(b))
                     for a, b in union)
        # <e_lam, e_mu>: row (branch 0, n = 0), column (branch 1, n = 0) at n_max = 1
        entry = _section(ExponentSystem([lam, mu]), union, 1)[1, 4]
        worst = max(worst, abs(entry - direct))

    min_eig = math.inf
    for s in range(1, 11):
        cert = residue_orthogonal_basis(s, [j * (s + 1) for j in range(s)])
        gram = _section(cert.system, cert.domain_intervals, 6)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gram)[0]))
    for n in range(4, 11):
        big_m = n - 1
        lo = 1.0 / (2 * big_m * big_m)
        hi = 1.0 / big_m - solve_beta(big_m).beta
        cert = construct_interval_removal(n, 1, (lo + hi) / 2)
        gram = _section(cert.system, cert.domain_intervals, 8)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gram)[0]))
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-10 and min_eig >= -1e-10
    line = verdict(9, ok, f"500 quadrature cross-checks agree to {worst:.2e}; "
                          f"min Gram eigenvalue {min_eig:.2e} over criteria-3/5 "
                          f"truncations; {elapsed:.1f}s")
    assert ok, line


def test_criterion_10_no_tables_to_transcribe():
    ok = True
    line = verdict(10, ok, "no experimental tables exist upstream; every check above "
                           "is property- or oracle-based at desk scale")
    assert ok, line
