"""Phase matrices, wrap-around metrics, and the Dirichlet-style sine ratio."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expobasis import (
    IntegerIntervalUnion,
    PreconditionError,
    build_gamma,
    coherence,
    matrix_from_bytes,
    matrix_from_json,
    matrix_to_bytes,
    matrix_to_json,
    nodes_of_union,
    progression_matrix,
    sin_ratio,
    wrap_distance,
)


# --- node extraction ----------------------------------------------------------

def test_nodes_of_union():
    assert nodes_of_union(IntegerIntervalUnion((0, 3), scale=1)) == (0, 3)
    assert nodes_of_union(IntegerIntervalUnion((0, 10), scale=3)) == (0, 1, 2, 10, 11, 12)
    assert nodes_of_union(IntegerIntervalUnion((0,), scale=4)) == (0, 1, 2, 3)


# --- build_gamma ---------------------------------------------------------------

def test_gamma_two_point_orthogonal():
    m = build_gamma([Fraction(0), Fraction(1, 2)], [0, 3])
    np.testing.assert_allclose(m.entries, [[1, 1], [1, -1]], atol=1e-15)
    assert m.size == 2
    assert m.nodes == (0, 3)


def test_gamma_two_point_degenerate():
    m = build_gamma([Fraction(0), Fraction(1, 2)], [0, 2])
    np.testing.assert_allclose(m.entries, [[1, 1], [1, 1]], atol=1e-15)


def test_gamma_sorts_nodes_and_rejects_duplicates():
    m = build_gamma([0.0, 0.25], [5, 0])
    assert m.nodes == (0, 5)
    with pytest.raises(PreconditionError):
        build_gamma([0.0], [1, 1])
    with pytest.raises(PreconditionError):
        build_gamma([0.0, 0.1], [0])  # non-square


@given(st.lists(st.floats(-3, 3), min_size=1, max_size=6, unique=True),
       st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True))
def test_gamma_entries_are_plain_phases(deltas, nodes):
    if len(deltas) != len(nodes):
        n = min(len(deltas), len(nodes))
        deltas, nodes = deltas[:n], nodes[:n]
    m = build_gamma(deltas, nodes)
    for j, d in enumerate(deltas):
        for k, p in enumerate(sorted(nodes)):
            assert cmath.isclose(m.entries[j, k], cmath.exp(2j * cmath.pi * d * p),
                                 abs_tol=1e-12)


def test_gamma_exact_phase_for_huge_rational_arguments():
    # float(delta * node) would lose the fractional part entirely here
    node = 3 * 10**15 + 1
    m = build_gamma([Fraction(1, 3)], [node])
    expected = cmath.exp(2j * cmath.pi / 3)  # node = 3k + 1
    assert cmath.isclose(m.entries[0, 0], expected, abs_tol=1e-12)


def test_progression_matrix_records_spacing():
    m = progression_matrix([0, 4, 8], Fraction(1, 12), 3)
    assert m.deltas == (0.0, 1 / 12, 2 / 12)
    with pytest.raises(PreconditionError):
        progression_matrix([0, 4], Fraction(1, 12), 3)


@pytest.mark.parametrize("length", [2, 3, 5, 8])
def test_full_progression_is_orthogonal(length):
    m = progression_matrix(list(range(length)), Fraction(1, length), length)
    gram = m.entries.conj().T @ m.entries
    np.testing.assert_allclose(gram, length * np.eye(length), atol=1e-10)


# --- wrap distance --------------------------------------------------------------

def test_wrap_distance_examples():
    assert wrap_distance(0.7, 0.1) == pytest.approx(0.4)
    assert wrap_distance(0.3, 0.3) == 0
    assert wrap_distance(Fraction(3, 4), Fraction(1, 4)) == Fraction(1, 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_wrap_distance_aliased_pair(n):
    # (3n-1)/(2n) and (n-1)/(2n) differ by exactly 1
    assert wrap_distance(Fraction(3 * n - 1, 2 * n), Fraction(n - 1, 2 * n)) == 0


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_wrap_distance_symmetric_and_bounded(t, s):
    d = wrap_distance(t, s)
    assert 0 <= d <= 0.5 + 1e-12
    assert wrap_distance(s, t) == d


# --- sin_ratio -------------------------------------------------------------------

def test_sin_ratio_examples():
    assert sin_ratio(2, 0.25) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert sin_ratio(5, 0) == 5
    assert sin_ratio(7, 3) == 7  # integer argument: removable limit again
    assert sin_ratio(3, Fraction(1, 3)) == pytest.approx(0.0, abs=1e-12)


def test_sin_ratio_stable_next_to_integers():
    for t in (1 - 1e-12, 1 + 1e-12, 2 - 3e-13, -1 + 1e-12):
        direct = abs(sum(cmath.exp(2j * cmath.pi * t * j) for j in range(40)))
        assert sin_ratio(40, t) == pytest.approx(direct, abs=1e-10)


@given(st.integers(1, 64), st.floats(-2, 2))
def test_sin_ratio_is_geometric_sum_modulus(m, x):
    direct = abs(sum(cmath.exp(2j * cmath.pi * x * j) for j in range(m)))
    assert sin_ratio(m, x) == pytest.approx(direct, abs=1e-10)


@given(st.integers(1, 32), st.floats(-2, 2))
def test_sin_ratio_even_periodic_bounded(m, x):
    v = sin_ratio(m, x)
    assert 0 <= v <= m + 1e-12
    assert sin_ratio(m, -x) == pytest.approx(v, abs=1e-12)
    assert sin_ratio(m, x + 1) == pytest.approx(v, abs=1e-10)


@pytest.mark.parametrize("m", range(2, 41))
def test_sin_ratio_strictly_decreasing_below_first_zero(m):
    # start where the deficit from the limit m is representable in float
    ts = np.linspace(1e-6, 1.0 / m - 1e-9, 200)
    vals = [sin_ratio(m, t) for t in ts]
    assert vals[0] < m
    assert all(a > b for a, b in zip(vals, vals[1:]))


# --- coherence --------------------------------------------------------------------

def test_coherence_examples():
    # nodes 0 and 2 at spacing 1/2 alias (offset 1 wraps to 0): full coherence
    assert coherence(0, 2, Fraction(1, 2), 2) == pytest.approx(2.0, abs=1e-12)
    # nodes 0 and 3 at spacing 1/2 give columns (1, 1) and (1, -1): orthogonal
    assert coherence(0, 3, Fraction(1, 2), 2) == pytest.approx(0.0, abs=1e-12)
    assert coherence(0, 1, Fraction(1, 6), 6) == pytest.approx(0.0, abs=1e-12)
    assert coherence(0, 6, 1.0 / 6 + 0.001, 6) == pytest.approx(sin_ratio(6, 0.006), abs=1e-12)
    with pytest.raises(PreconditionError):
        coherence(4, 4, 0.1, 3)


@given(st.integers(0, 20), st.integers(21, 40), st.integers(2, 8),
       st.floats(0.01, 0.3))
def test_coherence_matches_column_inner_product(a, b, length, spacing):
    deltas = spacing * np.arange(length)
    cols = np.exp(2j * np.pi * np.outer(deltas, [a, b]))
    ip = abs(np.vdot(cols[:, 0], cols[:, 1]))
    assert coherence(a, b, spacing, length) == pytest.approx(ip, abs=1e-9)


# --- serialization -----------------------------------------------------------------

def test_matrix_json_round_trip():
    m = progression_matrix([0, 2, 5], 0.21, 3)
    doc = matrix_to_json(m)
    assert doc["rows"] == doc["cols"] == 3
    back = matrix_from_json(doc)
    np.testing.assert_array_equal(back.entries, m.entries)
    assert back.nodes == m.nodes


def test_matrix_bytes_round_trip():
    m = build_gamma([0.0, 0.37], [1, 4])
    blob = matrix_to_bytes(m)
    assert len(blob) == 2 * 2 * 2 * 8  # L^2 entries, re+im, float64
    back = matrix_from_bytes(blob)
    np.testing.assert_array_equal(back, m.entries)


def test_matrix_bytes_rejects_bad_payloads():
    with pytest.raises(PreconditionError):
        matrix_from_bytes(b"\x00" * 24)  # odd float count
    with pytest.raises(PreconditionError):
        matrix_from_bytes(b"\x00" * (2 * 8 * 3))  # 3 complex entries: not square
