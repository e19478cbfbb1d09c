"""Phase matrices, wrap-around metrics, and the Dirichlet-style sine ratio."""

import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import coprime_denominators, reference_unit_phases
from expobasis import (
    ExponentSystem,
    FrameCertificate,
    PreconditionError,
    associated_matrix,
    build_gamma,
    progression_matrix,
    sin_ratio,
    singular_values,
)
from expobasis.domains import _wrap_value
from expobasis.vandermonde import unit_phases


# --- node extraction ----------------------------------------------------------

def _grid_nodes(starts, branches):
    """Nodes of a certificate whose unit intervals start at ``starts``."""
    system = ExponentSystem([Fraction(j, branches) for j in range(branches)])
    cert = FrameCertificate(method="residue_orthogonal", A=0.0, B=1.0, system=system,
                            domain_intervals=[(x, x + 1) for x in starts])
    return associated_matrix(cert)[0].nodes


def test_nodes_of_union():
    # the integers covered by the domain dilated onto its grid
    assert _grid_nodes([0, 3], 2) == (0, 3)
    assert _grid_nodes([0, Fraction(10, 3)], 2) == (0, 1, 2, 10, 11, 12)
    assert _grid_nodes([Fraction(1, 4)], 1) == (1, 2, 3, 4)


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


_OFFSETS = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
    st.floats(-3, 3).map(Fraction),
)


@given(st.lists(_OFFSETS, min_size=1, max_size=6),
       st.lists(st.integers(-10**20, 10**20), min_size=1, max_size=6, unique=True))
def test_gamma_equals_the_per_entry_phase_rule_bitwise(deltas, nodes):
    # frac(p n / q) rounded once, then one complex exponential per entry
    n = min(len(deltas), len(nodes))
    deltas, nodes = deltas[:n], nodes[:n]
    m = build_gamma(deltas, nodes)
    expected = np.array([[cmath.exp(1j * (2.0 * math.pi) * (d.numerator * p % d.denominator
                                                              / d.denominator))
                          for p in sorted(nodes)] for d in deltas])
    assert np.array_equal(m.entries.view(np.uint64), expected.view(np.uint64))


def test_gamma_exact_phase_for_huge_rational_arguments():
    # float(delta * node) would lose the fractional part entirely here
    node = 3 * 10**15 + 1
    m = build_gamma([Fraction(1, 3)], [node])
    expected = cmath.exp(2j * cmath.pi / 3)  # node = 3k + 1
    assert cmath.isclose(m.entries[0, 0], expected, abs_tol=1e-12)


# --- unit_phases ------------------------------------------------------------------

_ROWS = st.one_of(
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
    st.floats(allow_nan=False, allow_infinity=False),
)
_COLUMNS = st.one_of(
    st.lists(st.integers(-10**20, 10**20), max_size=6),  # node matrices
    st.lists(st.integers(-10**20, 10**20).map(lambda k: Fraction(2 * k + 1, 2)),
             max_size=6),  # run centres
    st.lists(st.one_of(st.integers(-10**20, 10**20),
                       st.fractions(-10**6, 10**6, max_denominator=10**9)), max_size=6),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_ROWS, max_size=6), _COLUMNS)
def test_unit_phases_equals_the_common_denominator_form_bitwise(xs, ys):
    got = unit_phases(xs, ys)
    ref = reference_unit_phases(xs, ys)
    assert got.shape == ref.shape == (len(xs), len(ys))
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_node_matrix_with_coprime_huge_offset_denominators_is_cheap():
    # 64 branches whose offsets have pairwise coprime ~4,000-digit
    # denominators, on the run [0, 64): Gamma is 64 x 64, and each row is
    # reduced over its own denominator, not over their 256,000-digit product
    branches = 64
    rng = random.Random(7)
    offsets = [Fraction(rng.randrange(q), q) for q in coprime_denominators(branches, 13_280, 13)]
    cert = FrameCertificate(method="residue_orthogonal", A=0.0, B=1.0,
                            system=ExponentSystem(offsets),
                            domain_intervals=[(0, branches)])
    start = time.process_time()
    matrix, scale = associated_matrix(cert)
    spectrum = singular_values(matrix)
    elapsed = time.process_time() - start
    assert matrix.size == branches and scale == 1.0
    assert spectrum.sigma_max > 0
    assert elapsed < 1.5, f"node matrix and SVD took {elapsed:.2f} s of CPU"


def test_progression_matrix_records_spacing():
    m = progression_matrix([0, 4, 8], Fraction(1, 12))
    assert m.deltas == (0.0, 1 / 12, 2 / 12)


@pytest.mark.parametrize("length", [2, 3, 5, 8])
def test_full_progression_is_orthogonal(length):
    m = progression_matrix(list(range(length)), Fraction(1, length))
    gram = m.entries.conj().T @ m.entries
    np.testing.assert_allclose(gram, length * np.eye(length), atol=1e-10)


# --- wrap distance --------------------------------------------------------------

def test_wrap_distance_examples():
    assert _wrap_value(Fraction(7, 10) - Fraction(1, 10)) == Fraction(2, 5)
    assert _wrap_value(Fraction(3, 10) - Fraction(3, 10)) == 0
    assert _wrap_value(Fraction(3, 4) - Fraction(1, 4)) == Fraction(1, 2)
    assert _wrap_value(Fraction(-13, 4)) == Fraction(1, 4)


@pytest.mark.parametrize("n", range(2, 9))
def test_wrap_distance_aliased_pair(n):
    # (3n-1)/(2n) and (n-1)/(2n) differ by exactly 1
    assert _wrap_value(Fraction(3 * n - 1, 2 * n) - Fraction(n - 1, 2 * n)) == 0


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_wrap_distance_symmetric_and_bounded(t, s):
    d = _wrap_value(Fraction(t) - Fraction(s))
    assert 0 <= d <= Fraction(1, 2)
    assert _wrap_value(Fraction(s) - Fraction(t)) == d


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


@given(st.integers(1, 10**6), st.floats(allow_nan=False, allow_infinity=False))
@example(3, -0.0)
@example(7, 5e-324)
@example(5, 2.0**52 + 0.5)
@example(4, 0.5)
def test_sin_ratio_of_a_float_is_the_exact_path_bitwise(m, x):
    # floats take a float reduction mod 1, which is exact
    assert sin_ratio(m, x).hex() == sin_ratio(m, Fraction(x)).hex()


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
# the coherence of columns a, b of the uniform matrix with L rows is
# sin_ratio(L, (a - b) * spacing)

def test_coherence_examples():
    # nodes 0 and 2 at spacing 1/2 alias (offset 1 wraps to 0): full coherence
    assert sin_ratio(2, (0 - 2) * Fraction(1, 2)) == pytest.approx(2.0, abs=1e-12)
    # nodes 0 and 3 at spacing 1/2 give columns (1, 1) and (1, -1): orthogonal
    assert sin_ratio(2, (0 - 3) * Fraction(1, 2)) == pytest.approx(0.0, abs=1e-12)
    assert sin_ratio(6, (0 - 1) * Fraction(1, 6)) == pytest.approx(0.0, abs=1e-12)
    assert sin_ratio(6, (0 - 6) * Fraction(1.0 / 6 + 0.001)) == pytest.approx(
        sin_ratio(6, 0.006), abs=1e-12)


@given(st.integers(0, 20), st.integers(21, 40), st.integers(2, 8),
       st.floats(0.01, 0.3))
def test_coherence_matches_column_inner_product(a, b, length, spacing):
    deltas = spacing * np.arange(length)
    cols = np.exp(2j * np.pi * np.outer(deltas, [a, b]))
    ip = abs(np.vdot(cols[:, 0], cols[:, 1]))
    assert sin_ratio(length, (a - b) * Fraction(spacing)) == pytest.approx(ip, abs=1e-9)
