"""Coherence clustering, closed-form cluster spectra and exact principal angles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expobasis import (
    ClusterSizeError,
    RankDeficientError,
    cluster_spectrum,
    default_threshold,
    partition_by_coherence,
    principal_angle_check,
    progression_matrix,
    sin_ratio,
    singular_values,
)


def _cross_coherence(part) -> float:
    """The largest coherence between columns in different clusters."""
    return max((part.coherences[i, j] for a, ca in enumerate(part.clusters)
                for cb in part.clusters[a + 1:] for i in ca for j in cb), default=0.0)


def _pairwise_alpha(part) -> float:
    """arcsin(cross / L), the pairwise near-orthogonality angle defect."""
    return math.asin(min(_cross_coherence(part) / part.length, 1.0))


def test_default_threshold():
    assert default_threshold(3) == pytest.approx(3 * math.sin(1 / 3), abs=1e-15)
    assert default_threshold(1) == pytest.approx(math.sin(1.0), abs=1e-15)


def test_well_separated_nodes_stay_singletons():
    part = partition_by_coherence(range(6), Fraction(1, 6), 6)
    assert part.clusters == ((0,), (1,), (2,), (3,), (4,), (5,))
    assert _cross_coherence(part) == pytest.approx(0.0, abs=1e-12)
    assert _pairwise_alpha(part) == pytest.approx(0.0, abs=1e-12)
    assert not part.chained
    assert part.max_cluster_size == 1


def test_aliased_pair_forms_a_cluster():
    spacing = 1.0 / 6 + 0.001
    part = partition_by_coherence([0, 6], spacing, 6)
    assert part.clusters == ((0, 1),)
    assert part.max_cluster_size == 2


def test_partition_of_punctured_block():
    spacing = 1.0 / 6 + 0.002
    part = partition_by_coherence([0, 1, 2, 10, 11, 12], spacing, 6)
    # only the pair at wrap-distance 12 crosses the default threshold
    node_sets = {frozenset(part.nodes[i] for i in c) for c in part.clusters}
    assert frozenset({0, 12}) in node_sets
    assert part.max_cluster_size == 2
    assert not part.chained


def test_partition_is_order_independent():
    spacing = 1.0 / 6 + 0.002
    a = partition_by_coherence([0, 1, 2, 10, 11, 12], spacing, 6)
    b = partition_by_coherence([12, 0, 11, 1, 10, 2], spacing, 6)
    sets_a = {frozenset(a.nodes[i] for i in c) for c in a.clusters}
    sets_b = {frozenset(b.nodes[i] for i in c) for c in b.clusters}
    assert sets_a == sets_b
    assert _cross_coherence(a) == pytest.approx(_cross_coherence(b), abs=1e-12)


def test_partition_keeps_each_pair_coherence_once():
    spacing = 1.0 / 6 + 0.002
    nodes = [0, 1, 2, 10, 11, 12]
    part = partition_by_coherence(nodes, spacing, 6)
    for i in range(6):
        for j in range(6):
            want = 0.0 if i == j else sin_ratio(6, (nodes[i] - nodes[j]) * Fraction(spacing))
            assert part.coherences[i, j] == want
    # the matrix is derived from the other fields, so equality ignores it
    assert part == partition_by_coherence(nodes, spacing, 6)
    assert part != partition_by_coherence(nodes, Fraction(1, 6), 6)


# --- per-cluster spectra ---------------------------------------------------------

def test_singleton_spectrum_is_column_norm():
    part = partition_by_coherence(range(4), Fraction(1, 4), 4)
    assert cluster_spectrum(part, 0) == (2.0,)


def test_pair_spectrum_matches_block_svd():
    spacing = 1.0 / 6 + 0.001
    part = partition_by_coherence([0, 6], spacing, 6)
    sigmas = cluster_spectrum(part, 0)
    deltas = spacing * np.arange(6)
    block = np.exp(2j * np.pi * np.outer(deltas, [0, 6]))
    ref = np.linalg.svd(block, compute_uv=False)
    np.testing.assert_allclose(sigmas, ref, atol=1e-10)
    b = sin_ratio(6, 6 * Fraction(spacing))
    assert sigmas[0] == pytest.approx(math.sqrt(6 + b), abs=1e-12)
    assert sigmas[1] == pytest.approx(math.sqrt(max(6 - b, 0.0)), abs=1e-12)


def test_triple_cluster_has_no_closed_form():
    # at 3/100 every pair clears 3 sin(1/3) = 0.98; at 1/5 the neighbours do
    # (1.618) but the outer pair does not (0.618), so the component is a chain
    for spacing, chained in ((Fraction(3, 100), False), (Fraction(1, 5), True)):
        part = partition_by_coherence([0, 1, 2], spacing, 3)
        assert part.clusters == ((0, 1, 2),)
        assert part.chained is chained
        with pytest.raises(ClusterSizeError):
            cluster_spectrum(part, 0)


# --- the pairwise angle against the exact one ------------------------------------

def test_pairwise_alpha_can_understate_subspace_overlap():
    """Frozen instance where the pairwise angle understates the overlap.

    Nodes 0..2 and 4..6 at spacing 1/6 + 0.0015 produce one aliased pair
    {0, 6} whose near-null direction leans much further into the remaining
    columns than arcsin(cross/L) suggests: a sandwich built on the pairwise
    alpha would miss the smallest singular value.  The exact principal angle
    reports the overlap (and takes itself out of scope: L*alpha_exact >= 1).
    """
    spacing = 1.0 / 6 + 0.0015
    nodes = [0, 1, 2, 4, 5, 6]
    part = partition_by_coherence(nodes, spacing, 6)
    assert part.clusters == ((0, 5), (1,), (2,), (3,), (4,))
    assert not part.chained
    assert _cross_coherence(part) == pytest.approx(0.29387615391763017, abs=1e-12)
    assert 6 * _pairwise_alpha(part) == pytest.approx(0.2939937813308142, abs=1e-12)

    spec = singular_values(progression_matrix(nodes, spacing))
    assert spec.sigma_min == pytest.approx(0.045713247744494624, abs=1e-12)

    alpha_exact = math.pi / 2 - principal_angle_check(part)
    assert alpha_exact == pytest.approx(0.6493676487896598, abs=1e-12)
    assert 6 * alpha_exact >= 1.0  # exact route refuses this partition


# --- principal angles ----------------------------------------------------------------

def test_principal_angle_between_two_singletons():
    part = partition_by_coherence([0, 1], 0.38, 2)
    assert part.max_cluster_size == 1
    expected = math.acos(sin_ratio(2, Fraction(0.38)) / 2)
    assert principal_angle_check(part) == pytest.approx(expected, abs=1e-9)


def test_principal_angle_orthogonal_and_trivial_cases():
    part = partition_by_coherence([0, 1], Fraction(1, 2), 2)
    assert _cross_coherence(part) == pytest.approx(0.0, abs=1e-12)
    assert principal_angle_check(part) == pytest.approx(math.pi / 2, abs=1e-9)
    solo = partition_by_coherence([0], Fraction(1, 3), 1)
    assert principal_angle_check(solo) == pytest.approx(math.pi / 2, abs=1e-12)


def test_principal_angle_rejects_rank_deficient_blocks():
    # spacing 1/2 makes nodes 0 and 4 produce identical columns
    part = partition_by_coherence([0, 4], Fraction(1, 2), 2)
    assert part.max_cluster_size == 2
    with pytest.raises(RankDeficientError):
        principal_angle_check(part)


@given(st.lists(st.integers(1, 6), min_size=1, max_size=5), st.floats(0.02, 0.45))
@settings(max_examples=60, deadline=None)
def test_exact_angle_never_below_coherence_proxy(gaps, spacing):
    """arcsin(cross/L) is a pairwise lower bound on the true subspace angle."""
    nodes = [0]
    for step in gaps:
        nodes.append(nodes[-1] + step)
    part = partition_by_coherence(nodes, spacing, len(nodes))
    try:
        pac = principal_angle_check(part)
    except RankDeficientError:
        return
    if len(part.clusters) < 2:
        return
    assert math.pi / 2 - pac >= _pairwise_alpha(part) - 1e-9
