"""One-sided Jacobi singular values against closed forms and numpy."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expobasis import (
    Condition,
    PreconditionError,
    build_gamma,
    is_singular,
    optimal_frame_constants,
    progression_matrix,
    singular_values,
)


def random_gamma(rng, size):
    """A phase matrix with well-spread deltas and distinct nodes."""
    deltas = (np.arange(size) + rng.uniform(0.1, 0.9, size)) / size
    nodes = rng.choice(np.arange(6 * size), size=size, replace=False)
    return build_gamma(list(deltas), [int(v) for v in nodes])


def test_orthogonal_pair_spectrum():
    spec = singular_values(build_gamma([Fraction(0), Fraction(1, 2)], [0, 3]))
    np.testing.assert_allclose(spec.values, [math.sqrt(2), math.sqrt(2)], atol=1e-12)
    assert spec.condition is Condition.NONSINGULAR
    assert optimal_frame_constants(build_gamma([Fraction(0), Fraction(1, 2)], [0, 3])) == \
        pytest.approx((2.0, 2.0), abs=1e-12)


def test_coincident_pair_spectrum_is_singular():
    m = build_gamma([Fraction(0), Fraction(1, 2)], [0, 2])
    spec = singular_values(m)
    np.testing.assert_allclose(spec.values, [2.0, 0.0], atol=1e-12)
    assert spec.is_singular
    assert is_singular(m)


def test_golden_pair_constants():
    matrix = progression_matrix([0, 1], Fraction(1, 5))
    assert not singular_values(matrix).is_singular
    lo, hi = optimal_frame_constants(matrix)
    # Gram eigenvalues 2 +- |1 + e^{2 pi i/5}| = 2 -+ golden ratio.
    assert lo == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)
    assert hi == pytest.approx((5 + math.sqrt(5)) / 2, abs=1e-12)


def test_orthogonal_progression_pair_constants():
    matrix = progression_matrix([0, 2], Fraction(1, 4))
    assert optimal_frame_constants(matrix) == pytest.approx((2.0, 2.0), abs=1e-12)


def test_one_by_one():
    spec = singular_values(np.array([[1.0 + 0j]]))
    assert spec.values == (1.0,)
    assert spec.sigma_min == spec.sigma_max == 1.0


@pytest.mark.parametrize("s", range(1, 7))
def test_root_of_unity_matrix_has_flat_spectrum(s):
    m = progression_matrix(list(range(s)), Fraction(1, s))
    spec = singular_values(m)
    np.testing.assert_allclose(spec.values, [math.sqrt(s)] * s, atol=1e-10)


def test_matches_numpy_svd():
    rng = np.random.default_rng(7)
    for _ in range(30):
        size = int(rng.integers(1, 11))
        m = random_gamma(rng, size)
        mine = np.array(singular_values(m).values)
        ref = np.linalg.svd(m.entries, compute_uv=False)
        np.testing.assert_allclose(mine, ref, atol=1e-10 * max(1.0, ref[0]))


def test_values_sorted_descending_and_deterministic():
    rng = np.random.default_rng(11)
    m = random_gamma(rng, 7)
    a = singular_values(m).values
    b = singular_values(m).values
    assert a == b
    assert all(x >= y for x, y in zip(a, a[1:]))


def test_sum_of_squares_is_size_squared():
    rng = np.random.default_rng(3)
    for _ in range(10):
        size = int(rng.integers(2, 12))
        spec = singular_values(random_gamma(rng, size))
        assert sum(v * v for v in spec.values) == pytest.approx(size * size, rel=1e-8)


def test_product_of_squares_matches_determinant():
    rng = np.random.default_rng(5)
    for _ in range(10):
        size = int(rng.integers(2, 13))
        m = random_gamma(rng, size)
        det2 = abs(np.linalg.det(m.entries)) ** 2
        prod2 = math.prod(v * v for v in singular_values(m).values)
        assert prod2 == pytest.approx(det2, rel=1e-8, abs=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(13)
    m = random_gamma(rng, 6).entries
    base = singular_values(m).values
    p = rng.permutation(6)
    q = rng.permutation(6)
    shuffled = singular_values(m[np.ix_(p, q)]).values
    np.testing.assert_allclose(shuffled, base, atol=1e-10)


def test_rejects_bad_input():
    with pytest.raises(PreconditionError):
        singular_values(np.ones((2, 3), dtype=complex))
    with pytest.raises(PreconditionError):
        singular_values(np.array([[np.nan + 0j]]))


@given(st.integers(2, 8), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_spectrum_invariants_hold_generically(size, seed):
    rng = np.random.default_rng(seed)
    spec = singular_values(random_gamma(rng, size))
    assert len(spec.values) == size
    assert spec.sigma_max <= size + 1e-9          # columns have norm sqrt(L)
    assert spec.sigma_min >= -1e-12
    assert spec.sigma_max == spec.values[0]
    assert spec.sigma_min == spec.values[-1]
