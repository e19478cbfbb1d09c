"""Deterministic JSON encoding with exact float round-trips."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from expobasis.errors import JsonInputError, PreconditionError
from expobasis.jsonio import dumps, loads


def test_float_formatting():
    assert dumps({"x": 1.0}) == '{\n  "x": 1.0\n}\n'
    assert '"x": 0.10000000000000001' in dumps({"x": 0.1})
    assert '"x": -0.0' in dumps({"x": -0.0})


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_float_round_trips_exactly(x):
    assert loads(dumps({"x": x}))["x"] == x


def test_non_finite_floats_rejected():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(PreconditionError):
            dumps({"x": bad})


def test_fraction_encoding():
    doc = dumps({"delta": Fraction(-3, 8)})
    assert loads(doc)["delta"] == {"num": -3, "den": 8}


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
    with pytest.raises(PreconditionError):
        dumps({"x": object()})
    with pytest.raises(PreconditionError):
        dumps({1: "non-string key"})


def test_loads_reports_error_position():
    with pytest.raises(JsonInputError) as err:
        loads('{\n  "a": 1,\n  "b": }\n')
    assert err.value.line == 3
    assert err.value.column >= 1
