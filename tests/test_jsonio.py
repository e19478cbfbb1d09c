"""Deterministic JSON encoding with exact float round-trips."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from expobasis.errors import JsonInputError, PreconditionError
from expobasis.jsonio import dumps, loads


def test_float_formatting():
    assert dumps({"x": 1.0}) == '{\n  "x": 1.0\n}\n'
    assert '"x": 0.1\n' in dumps({"x": 0.1})
    assert '"x": -0.0\n' in dumps({"x": -0.0})
    big = loads(dumps({"x": 1e16}))["x"]
    assert isinstance(big, float) and big == 1e16


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_float_round_trips_exactly(x):
    assert loads(dumps({"x": x}))["x"] == x


def test_non_finite_floats_rejected():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(PreconditionError):
            dumps({"x": bad})


def test_fraction_encoding():
    # the certificate codec is the one Fraction encoder; dumps takes JSON types only
    with pytest.raises(PreconditionError):
        dumps({"delta": Fraction(-3, 8)})


def test_scalar_zoo():
    doc = loads(dumps({"b": True, "i": 7, "s": "a\"b", "n": None, "seq": (1, 2)}))
    assert doc == {"b": True, "i": 7, "s": 'a"b', "n": None, "seq": [1, 2]}


def test_bools_are_not_ints():
    assert '"flag": true' in dumps({"flag": True})
    assert '"flag": 1' in dumps({"flag": 1})


def test_key_order_preserved_and_deterministic():
    doc = {"z": 1, "a": 2, "m": [1.5, {"k": 0.25}]}
    once = dumps(doc)
    assert once == dumps(doc)
    assert once.index('"z"') < once.index('"a"') < once.index('"m"')


def test_unserializable_objects_rejected():
    for bad in ({"x": object()}, {"k": [1, {2}]}, {(1, 2): 0}, [Fraction(1, 2), 1j],
                {"x": Fraction(1, 2)}, {1: 0}):
        with pytest.raises(PreconditionError):
            dumps(bad)


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, "\u00e9\n\"\\\t\x00\ud83d", "\U0001f600"]),
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=20,
)


@given(_DOCUMENTS)
def test_dumps_is_the_stdlib_text_byte_for_byte(doc):
    want = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    assert dumps(doc) == want


def test_loads_reports_error_position():
    with pytest.raises(JsonInputError) as err:
        loads('{\n  "a": 1,\n  "b": }\n')
    assert err.value.line == 3
    assert err.value.column >= 1
