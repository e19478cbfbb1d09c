"""The domain rule, grid dilation, and exponent systems."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expobasis import (
    ExponentSystem,
    FrameCertificate,
    OverlapError,
    PreconditionError,
    as_fraction,
    associated_matrix,
    certificate_from_json,
    certificate_to_json,
    lcd,
    residues_distinct,
    validated_intervals,
)
from expobasis.domains import fraction_from_json, fraction_to_json


fractions_st = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=24
)


def sorted_endpoints(draws):
    """Turn arbitrary fractions into a valid left-endpoint list (gaps >= 1)."""
    out = []
    cur = None
    for f in sorted(set(draws)):
        if cur is None or f - cur >= 1:
            out.append(f)
            cur = f
    return out


# --- as_fraction / lcd ------------------------------------------------------

@pytest.mark.parametrize("value, expected", [
    ("3/4", Fraction(3, 4)),
    ("-2/5", Fraction(-2, 5)),
    ("7", Fraction(7)),
    (Fraction(1, 3), Fraction(1, 3)),
    (5, Fraction(5)),
    (0.25, Fraction(1, 4)),
])
def test_as_fraction(value, expected):
    assert as_fraction(value) == expected


def test_as_fraction_rejects_garbage():
    with pytest.raises(ValueError):
        as_fraction("3/4/5")
    with pytest.raises(ValueError):
        as_fraction(float("nan"))


@pytest.mark.parametrize("values, expected", [
    ([0, Fraction(1, 3), Fraction(1, 2)], 6),
    ([0], 1),
    ([Fraction(1, 4), Fraction(5, 6), Fraction(-3, 10)], 60),
    ([Fraction(2, 4)], 2),
])
def test_lcd(values, expected):
    assert lcd(values) == expected


def test_lcd_empty_rejected():
    with pytest.raises(PreconditionError):
        lcd([])


@given(st.lists(fractions_st, min_size=1, max_size=6))
def test_lcd_clears_denominators(values):
    n = lcd(values)
    assert n >= 1
    for v in values:
        assert (v * n).denominator == 1
    # minimality: no proper divisor of n works
    for d in range(1, n):
        if n % d == 0 and all((v * d).denominator == 1 for v in values):
            pytest.fail(f"{d} already clears denominators, lcd returned {n}")


# --- the domain rule -----------------------------------------------------------

def _units(starts):
    return [(x, x + 1) for x in starts]


def test_union_basics():
    assert validated_intervals(_units([0, 3])) == (
        (Fraction(0), Fraction(1)), (Fraction(3), Fraction(4)))
    # floats convert exactly; endpoints beyond the float range are fine
    assert validated_intervals([(0.25, 1)]) == ((Fraction(1, 4), Fraction(1)),)
    huge = Fraction(10) ** 400
    assert validated_intervals([(huge, huge + 1)]) == ((huge, huge + 1),)


def test_union_requires_sorted_disjoint():
    with pytest.raises(OverlapError):
        validated_intervals(_units([0, Fraction(1, 2)]))
    for bad in ([], [(0, 0), (0, 1)], [(1, 0)], [(0, Fraction(10) ** 400)]):
        with pytest.raises(PreconditionError):
            validated_intervals(bad)
    # out-of-order input comes back sorted
    assert validated_intervals(_units([3, 0])) == validated_intervals(_units([0, 3]))


def test_union_touching_blocks_allowed():
    assert len(validated_intervals(_units([0, 1, 2]))) == 3


@pytest.mark.parametrize("domain, error", [
    ([(0, 0), (0, 1)], PreconditionError),
    ([(1, 0)], PreconditionError),
    ([(0, 1), (Fraction(1, 2), Fraction(3, 2))], OverlapError),
], ids=["empty_interval", "reversed_interval", "overlap"])
def test_certificates_apply_the_domain_rule(domain, error):
    system = ExponentSystem([Fraction(0)])
    with pytest.raises(error):
        FrameCertificate(method="residue_orthogonal", A=1.0, B=1.0, system=system,
                         domain_intervals=domain)


def test_union_json_round_trip():
    # the domain's one JSON form is the certificate's list of {start, end} rationals
    cert = FrameCertificate(method="residue_orthogonal", A=1.0, B=2.0,
                            system=ExponentSystem([Fraction(0), Fraction(1, 2)]),
                            domain_intervals=_units([Fraction(10, 3), 0]))
    doc = certificate_to_json(cert)
    assert doc["domain"]["intervals"][1]["start"] == {"num": 10, "den": 3}
    assert certificate_from_json(doc).domain_intervals == cert.domain_intervals


def test_fraction_json_helpers():
    assert fraction_to_json(Fraction(-7, 3)) == {"num": -7, "den": 3}
    assert fraction_from_json({"num": -7, "den": 3}) == Fraction(-7, 3)
    with pytest.raises(PreconditionError):
        fraction_from_json({"num": 1})


@pytest.mark.parametrize("doc", [
    {"num": 0.5, "den": 1}, {"num": 1, "den": 2.0}, {"num": True, "den": 1},
    {"num": 1, "den": False}, {"num": "3", "den": 1}, {"num": 1, "den": 0},
    {"num": 1, "den": -2}, {"num": [], "den": 1}, {"num": {}, "den": 1}, [1, 2], 0.5,
])
def test_fraction_from_json_reads_only_integers(doc):
    # int() would have truncated 0.5 to 0 and read true as 1
    with pytest.raises(PreconditionError):
        fraction_from_json(doc)


@pytest.mark.parametrize("offset", [True, "0.5", None, [], float("inf"), {"num": 0.5, "den": 1}])
def test_system_json_rejects_ill_typed_offsets(offset):
    doc = {"branch_offsets": [{"num": 0, "den": 1}, offset], "domain_scale": {"num": 1, "den": 1}}
    with pytest.raises(PreconditionError):
        ExponentSystem.from_json(doc)


# --- grid dilation -------------------------------------------------------------

def _node_matrix(starts):
    """associated_matrix of a unit-offset system on unit intervals at ``starts``."""
    branches = len(starts)
    system = ExponentSystem([Fraction(j, branches) for j in range(branches)])
    cert = FrameCertificate(method="residue_orthogonal", A=0.0, B=1.0, system=system,
                            domain_intervals=_units(starts))
    return associated_matrix(cert)


def test_normalize_examples():
    matrix, scale = _node_matrix([Fraction(0), Fraction(10, 3)])
    assert (scale, matrix.nodes) == (3.0, (0, 1, 2, 10, 11, 12))
    matrix, scale = _node_matrix([Fraction(0), Fraction(3)])
    assert (scale, matrix.nodes) == (1.0, (0, 3))


# small denominators keep the common-denominator scale (and node count) modest
grid_endpoint_lists = st.lists(
    st.fractions(min_value=Fraction(0), max_value=Fraction(12), max_denominator=6),
    min_size=1, max_size=4,
).map(sorted_endpoints)


@given(grid_endpoint_lists)
def test_normalize_node_count_is_scale_times_measure(endpoints):
    matrix, scale = _node_matrix(endpoints)
    d = lcd(endpoints)
    assert scale == d
    assert len(set(matrix.nodes)) == len(matrix.nodes) == d * len(endpoints)
    # nodes tile each dilated interval contiguously
    for a in endpoints:
        for k in range(d):
            assert a * d + k in matrix.nodes


def _optimal_constants(starts):
    matrix, scale = _node_matrix(starts)
    sigma = np.linalg.svd(matrix.entries, compute_uv=False)
    return sigma[-1] ** 2 / scale, sigma[0] ** 2 / scale


def test_canonicalize_shifts_to_zero():
    # the optimal constants do not see where the domain starts
    shifted = _optimal_constants([Fraction(5, 2), Fraction(11, 2)])
    assert shifted == pytest.approx(_optimal_constants([0, 3]), rel=1e-12)
    assert shifted == pytest.approx((2.0, 2.0), rel=1e-12)


@given(grid_endpoint_lists,
       st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=2))
@settings(max_examples=50, deadline=None)
def test_translate_preserves_measure_and_gaps(endpoints, shift):
    # a translate multiplies each exponential by a unimodular constant, so the
    # node matrix on the translated grid has the same optimal constants
    before = _optimal_constants(endpoints)
    after = _optimal_constants([e + shift for e in endpoints])
    assert after == pytest.approx(before, rel=1e-9, abs=1e-9)


# --- residues ----------------------------------------------------------------

@pytest.mark.parametrize("endpoints, modulus, expected", [
    ((0, 3), 2, True),
    ((0, 2), 2, False),
    ((0, 1, 5), 3, True),
    ((0, 1, 4), 3, False),
    ((0,), 1, True),
])
def test_residues_distinct(endpoints, modulus, expected):
    assert residues_distinct(endpoints, modulus) is expected


def test_residues_distinct_bad_modulus():
    with pytest.raises(PreconditionError):
        residues_distinct((0, 1), 0)


@given(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True),
       st.integers(1, 12))
def test_residues_distinct_matches_set_size(endpoints, modulus):
    expected = len({e % modulus for e in endpoints}) == len(endpoints)
    assert residues_distinct(tuple(endpoints), modulus) is expected


# --- ExponentSystem ------------------------------------------------------------

def test_system_branches_and_frequencies():
    sys_ = ExponentSystem((Fraction(0), Fraction(1, 2)), domain_scale=Fraction(1))
    assert sys_.branches == 2
    freqs = sys_.frequencies(1)
    # branch-major: all shifts of branch 0, then branch 1
    assert freqs == [-1.0, 0.0, 1.0, -0.5, 0.5, 1.5]


def test_system_scaled_frequencies():
    sys_ = ExponentSystem((Fraction(0),), domain_scale=Fraction(3))
    freqs = sys_.frequencies(1)
    assert freqs == [Fraction(-1, 3), 0, Fraction(1, 3)]  # exact
    assert [float(f) for f in freqs] == [-1 / 3, 0.0, 1 / 3]


def test_system_rejects_offset_collision_mod_one():
    with pytest.raises(PreconditionError):
        ExponentSystem((Fraction(0), Fraction(1)), domain_scale=Fraction(1))
    with pytest.raises(PreconditionError):
        ExponentSystem((0.0, 5e-13), domain_scale=Fraction(1))
    with pytest.raises(PreconditionError):
        ExponentSystem((Fraction(0),), domain_scale=Fraction(0))


def test_system_float_offsets_allowed():
    sys_ = ExponentSystem((0.0, 0.55), domain_scale=Fraction(1))
    assert sys_.branch_offsets == (Fraction(0), Fraction(0.55))  # converted exactly
    assert sys_.frequencies(1)[-1] == pytest.approx(1.55)


def test_system_json_round_trip():
    sys_ = ExponentSystem((Fraction(0), 0.51), domain_scale=Fraction(2))
    doc = sys_.to_json()
    back = ExponentSystem.from_json(doc)
    assert back.domain_scale == Fraction(2)
    assert back.branch_offsets[0] == Fraction(0)
    assert back.branch_offsets[1] == 0.51
    assert doc["branch_offsets"][1] == {"num": Fraction(0.51).numerator,
                                        "den": Fraction(0.51).denominator}
    # documents that stored an offset as a plain number still read, exactly
    doc["branch_offsets"][1] = 0.51
    assert ExponentSystem.from_json(doc) == back
