"""Interval unions, integer normalization, and exponent systems."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from expobasis import (
    ExponentSystem,
    IntegerIntervalUnion,
    OverlapError,
    PreconditionError,
    RationalIntervalUnion,
    as_fraction,
    lcd,
    normalize_to_integer_grid,
    rescale_system,
    residues_distinct,
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


endpoint_lists = st.lists(fractions_st, min_size=1, max_size=5).map(sorted_endpoints)


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


# --- RationalIntervalUnion ---------------------------------------------------

def test_union_basics():
    u = RationalIntervalUnion((Fraction(0), Fraction(3)))
    assert u.measure == 2
    assert u.intervals == ((Fraction(0), Fraction(1)), (Fraction(3), Fraction(4)))
    assert u.is_canonical


def test_union_requires_sorted_disjoint():
    with pytest.raises(OverlapError):
        RationalIntervalUnion((Fraction(0), Fraction(1, 2)))
    with pytest.raises(OverlapError):
        RationalIntervalUnion((Fraction(3), Fraction(0)))
    with pytest.raises(PreconditionError):
        RationalIntervalUnion(())


def test_union_touching_blocks_allowed():
    u = RationalIntervalUnion((Fraction(0), Fraction(1), Fraction(2)))
    assert u.measure == 3


def test_canonicalize_shifts_to_zero():
    u = RationalIntervalUnion((Fraction(5, 2), Fraction(9, 2)))
    canon, shift = u.canonicalize()
    assert shift == Fraction(-5, 2)
    assert canon.left_endpoints == (Fraction(0), Fraction(2))
    assert canon.is_canonical
    assert u.translate(shift) == canon


@given(endpoint_lists, fractions_st)
def test_translate_preserves_measure_and_gaps(endpoints, shift):
    u = RationalIntervalUnion(tuple(endpoints))
    v = u.translate(shift)
    assert v.measure == u.measure
    assert [b - a for a, b in zip(v.left_endpoints, v.left_endpoints[1:])] == [
        b - a for a, b in zip(u.left_endpoints, u.left_endpoints[1:])
    ]


def test_union_json_round_trip():
    u = RationalIntervalUnion((Fraction(0), Fraction(10, 3)), label="demo")
    doc = u.to_json()
    assert doc["endpoints"][1] == {"num": 10, "den": 3}
    assert doc["label"] == "demo"
    assert RationalIntervalUnion.from_json(doc) == u


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


# --- integer normalization ----------------------------------------------------

def test_normalize_examples():
    u = RationalIntervalUnion((Fraction(0), Fraction(10, 3)))
    g = normalize_to_integer_grid(u)
    assert (g.scale, g.left_endpoints) == (3, (0, 10))

    v = RationalIntervalUnion((Fraction(0), Fraction(3)))
    h = normalize_to_integer_grid(v)
    assert (h.scale, h.left_endpoints) == (1, (0, 3))


def test_normalize_rejects_negative_start():
    u = RationalIntervalUnion((Fraction(-1, 2), Fraction(2)))
    with pytest.raises(PreconditionError):
        normalize_to_integer_grid(u)


# small denominators keep the common-denominator scale (and node count) modest
grid_endpoint_lists = st.lists(
    st.fractions(min_value=Fraction(0), max_value=Fraction(12), max_denominator=6),
    min_size=1, max_size=4,
).map(sorted_endpoints)


@given(grid_endpoint_lists)
def test_normalize_node_count_is_scale_times_measure(endpoints):
    u = RationalIntervalUnion(tuple(endpoints))
    g = normalize_to_integer_grid(u)
    assert len(g.nodes) == g.scale * u.measure
    # nodes tile each block contiguously
    node_set = set(g.nodes)
    for a in g.left_endpoints:
        for k in range(g.scale):
            assert a + k in node_set


def test_integer_union_nodes():
    g = IntegerIntervalUnion((0, 10), scale=3)
    assert g.nodes == (0, 1, 2, 10, 11, 12)
    with pytest.raises(PreconditionError):
        IntegerIntervalUnion((-1, 5), scale=2)
    with pytest.raises(OverlapError):
        IntegerIntervalUnion((0, 2), scale=3)
    with pytest.raises(PreconditionError):
        IntegerIntervalUnion((0,), scale=0)


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
    assert sys_.frequencies(1) == [-1 / 3, 0.0, 1 / 3]


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


# --- rescaling -----------------------------------------------------------------

def test_rescale_halves_domain_and_constants():
    sys_ = ExponentSystem((Fraction(0), Fraction(1, 2)), domain_scale=Fraction(1))
    scaled, (a, b) = rescale_system(sys_, Fraction(1, 2), constants=(2.0, 2.0))
    assert scaled.domain_scale == Fraction(1, 2)
    # frequencies of the dilated system are the originals divided by rho
    assert scaled.frequencies(1) == [2 * f for f in sys_.frequencies(1)]
    assert (a, b) == (1.0, 1.0)


@given(st.fractions(min_value=Fraction(1, 8), max_value=Fraction(8), max_denominator=8),
       st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8))
def test_rescale_round_trip(rho, shift):
    sys_ = ExponentSystem((Fraction(0), Fraction(1, 3)), domain_scale=Fraction(1))
    there = rescale_system(sys_, rho, v=shift)
    back = rescale_system(there, 1 / rho, v=-shift / rho)
    assert back.domain_scale == sys_.domain_scale
    assert back.branch_offsets == sys_.branch_offsets


def test_rescale_rejects_nonpositive_rho():
    sys_ = ExponentSystem((Fraction(0),), domain_scale=Fraction(1))
    with pytest.raises(PreconditionError):
        rescale_system(sys_, 0)
