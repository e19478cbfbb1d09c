"""The domain rule, grid dilation, and exponent systems."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import coprime_denominators, reference_validated_intervals
from expobasis import (
    ExponentSystem,
    FrameCertificate,
    OverlapError,
    PreconditionError,
    as_fraction,
    associated_matrix,
    certificate_from_json,
    certificate_to_json,
    residues_distinct,
    validated_intervals,
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


# --- as_fraction -----------------------------------------------------------

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
    # touching blocks are allowed, and come back as the one run they make
    assert validated_intervals(_units([0, 1, 2])) == ((Fraction(0), Fraction(3)),)


def test_a_run_length_past_the_float_range_is_refused():
    # each piece has a finite float length; the run they join does not
    half = Fraction(10) ** 308
    assert validated_intervals([(0, half)]) == ((0, half),)
    with pytest.raises(PreconditionError, match="beyond the float range"):
        validated_intervals([(half, 2 * half), (0, half)])


_HUGE = Fraction(10) ** 400
_ENDPOINTS = st.one_of(
    st.fractions(-4, 4, max_denominator=6),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
    st.integers(-3, 3).map(lambda k: _HUGE + k),
)
_LENGTHS = st.one_of(
    st.fractions(Fraction(1, 6), 3, max_denominator=6),
    st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40)),
    st.just(Fraction(10) ** 308),  # two of these touching pass the float range
)


@st.composite
def _interval_lists(draw):
    """Up to 8 pairs, shuffled: each starts where the last ended, a gap
    after it, inside it, or somewhere new; one may be empty or reversed."""
    x = draw(_ENDPOINTS)
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        hi = x + draw(_LENGTHS)
        pairs.append((x, hi))
        x = draw(st.sampled_from([hi, hi, hi + Fraction(1, 2), hi + 2, hi - Fraction(1, 2)])
                 | _ENDPOINTS)
    if pairs and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(pairs) - 1))
        lo = pairs[k][0]
        pairs[k] = (lo, lo - draw(st.fractions(0, 1, max_denominator=6)))
    return draw(st.permutations(pairs))


def _outcome(rule, pairs):
    try:
        return rule(pairs)
    except PreconditionError as err:
        return type(err), str(err)


@settings(max_examples=100, deadline=None)
@given(_interval_lists())
def test_domain_rule_equals_the_common_denominator_form(pairs):
    # the same runs, or the same error type and message
    assert _outcome(validated_intervals, pairs) == _outcome(reference_validated_intervals, pairs)


def test_domain_rule_on_coprime_huge_denominators_is_cheap():
    # 100 unit intervals whose starts have pairwise coprime ~4,000-digit
    # denominators: their common denominator would have 400,000 digits
    starts = [k * 2 + Fraction(1, q) for k, q in enumerate(coprime_denominators(100, 13_280, 5))]
    pairs = [(x, x + 1) for x in reversed(starts)]
    start = time.process_time()
    runs = validated_intervals(pairs)
    elapsed = time.process_time() - start
    assert runs == tuple((x, x + 1) for x in starts)
    assert elapsed < 0.5, f"validated_intervals took {elapsed:.2f} s of CPU"


def _rationals(lo, hi):
    return st.fractions(lo, hi, max_denominator=12)


@st.composite
def _cut_domain(draw):
    """(runs, pieces): runs that do not touch, and the same set cut at rational
    points inside its runs, the pieces shuffled."""
    x = draw(_rationals(-5, 5))
    runs, pieces = [], []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(_rationals(Fraction(1, 12), 4))
        end = x + length
        cuts = sorted({x + t for t in draw(st.lists(_rationals(0, 4), max_size=4))
                       if 0 < t < length})
        ends = [x, *cuts, end]
        pieces += zip(ends, ends[1:])
        runs.append((x, end))
        x = end + draw(_rationals(Fraction(1, 12), 3))
    return tuple(runs), draw(st.permutations(pieces))


@given(_cut_domain())
def test_a_set_has_one_form(case):
    runs, pieces = case
    out = validated_intervals(pieces)
    assert out == runs
    assert all(hi < lo for (_, hi), (lo, _) in zip(out, out[1:]))  # no two runs touch
    assert validated_intervals(out) == out


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


def _cert_doc(**changes):
    """The JSON document of a small certificate with a rational param, as
    ``certificate_to_json`` writes it; ``changes`` override the certificate's fields."""
    fields = dict(method="residue_orthogonal", A=1.0, B=2.0,
                  system=ExponentSystem([Fraction(0), Fraction(1, 2)]),
                  domain_intervals=_units([0, 3]), params={"delta": Fraction(1, 40)})
    return certificate_to_json(FrameCertificate(**{**fields, **changes}))


def test_fraction_json_helpers():
    # the certificate codec writes and reads each rational as {num, den}
    doc = _cert_doc(domain_intervals=[(Fraction(-7, 3), Fraction(-4, 3))])
    assert doc["domain"]["intervals"][0]["start"] == {"num": -7, "den": 3}
    assert certificate_from_json(doc).domain_intervals[0][0] == Fraction(-7, 3)
    doc["domain"]["intervals"][0]["start"] = {"num": 1}
    with pytest.raises(PreconditionError, match="malformed rational"):
        certificate_from_json(doc)


#: where a strict rational sits in a document, and the certificate key an error names
_RATIONAL_SITES = [
    (("domain", "intervals", 0, "start"), "domain"),
    (("domain", "intervals", 0, "end"), "domain"),
    (("system", "domain_scale"), "system"),
]


def _placed(doc, path, value):
    inner = doc
    for step in path[:-1]:
        inner = inner[step]
    inner[path[-1]] = value
    return doc


@pytest.mark.parametrize("doc", [
    {"num": 0.5, "den": 1}, {"num": 1, "den": 2.0}, {"num": True, "den": 1},
    {"num": 1, "den": False}, {"num": "3", "den": 1}, {"num": 1, "den": 0},
    {"num": 1, "den": -2}, {"num": [], "den": 1}, {"num": {}, "den": 1}, [1, 2], 0.5,
])
def test_fraction_from_json_reads_only_integers(doc):
    # int() would have truncated 0.5 to 0 and read true as 1; a {num, den}-keyed
    # param value is read as a rational too, by the same rule
    sites = list(_RATIONAL_SITES)
    if isinstance(doc, dict):
        sites.append((("params", "delta"), "params"))
    for path, key in sites:
        with pytest.raises(PreconditionError, match=f"{key!r} .*malformed rational"):
            certificate_from_json(_placed(_cert_doc(), path, doc))


@pytest.mark.parametrize("offset", [True, "0.5", None, [], float("inf"), {"num": 0.5, "den": 1}])
def test_system_json_rejects_ill_typed_offsets(offset):
    doc = _placed(_cert_doc(), ("system", "branch_offsets", 1), offset)
    with pytest.raises(PreconditionError, match="'system'"):
        certificate_from_json(doc)


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
    d = math.lcm(*[x.denominator for x in endpoints])
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
    # offsets collide mod 1 exactly when their residues are the same rational
    for offsets in [(Fraction(0), Fraction(1)), (Fraction(1, 3), Fraction(-2, 3)), (0.25, 1.25)]:
        with pytest.raises(PreconditionError, match="distinct mod 1"):
            ExponentSystem(offsets, domain_scale=Fraction(1))
    with pytest.raises(PreconditionError):
        ExponentSystem((Fraction(0),), domain_scale=Fraction(0))
    # exactly distinct offsets are accepted however close they are: route 1
    # judges how nearly singular the system is
    for offsets in [(0.0, 5e-13), (Fraction(0), Fraction(1, 10**13)),
                    (Fraction(0), 1 - Fraction(1, 2**60)),
                    (Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**20))]:
        assert ExponentSystem(offsets).branch_offsets == tuple(map(Fraction, offsets))
    # floats that differ by an integer only after rounding are distinct too
    assert Fraction(1.1) - Fraction(0.1) == 1 + Fraction(3, 2**55)
    assert ExponentSystem((0.1, 1.1)).branches == 2


def test_system_float_offsets_allowed():
    sys_ = ExponentSystem((0.0, 0.55), domain_scale=Fraction(1))
    assert sys_.branch_offsets == (Fraction(0), Fraction(0.55))  # converted exactly
    assert sys_.frequencies(1)[-1] == pytest.approx(1.55)


def test_system_json_round_trip():
    doc = _cert_doc(system=ExponentSystem((Fraction(0), 0.51), domain_scale=Fraction(2)))
    back = certificate_from_json(doc).system
    assert back.domain_scale == Fraction(2)
    assert back.branch_offsets[0] == Fraction(0)
    assert back.branch_offsets[1] == 0.51
    assert doc["system"]["branch_offsets"][1] == {"num": Fraction(0.51).numerator,
                                                  "den": Fraction(0.51).denominator}
    # documents that stored an offset as a plain number still read, exactly
    doc["system"]["branch_offsets"][1] = 0.51
    assert certificate_from_json(doc).system == back
