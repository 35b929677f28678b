"""Exact rational helpers: the dyadic sum against the plain Fraction sum."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from realcert.rational import ZERO, SpecError, SpecValue, dyadic_sum

_DYADIC = st.builds(lambda num, bits: Fraction(num, 1 << bits),
                    st.integers(min_value=-(1 << 300), max_value=1 << 300),
                    st.integers(min_value=0, max_value=2000))
_ANY = st.fractions(max_denominator=10**6)


@given(st.lists(_DYADIC, max_size=30))
@settings(max_examples=200, deadline=None)
def test_dyadic_sum_matches_sum_on_dyadic_terms(terms):
    got = dyadic_sum(terms)
    assert got == sum(terms, ZERO)
    assert got.denominator & (got.denominator - 1) == 0


@given(st.lists(st.one_of(_DYADIC, _ANY), max_size=30))
@settings(max_examples=200, deadline=None)
def test_dyadic_sum_matches_sum_on_mixed_terms(terms):
    assert dyadic_sum(terms) == sum(terms, ZERO)


def test_dyadic_sum_edge_cases():
    assert dyadic_sum([]) == 0
    assert dyadic_sum(iter([Fraction(1, 2), Fraction(1, 4)])) == Fraction(3, 4)
    assert dyadic_sum([Fraction(3, 8), Fraction(-3, 8)]) == 0
    assert dyadic_sum([Fraction(1, 2), Fraction(1, 3)]) == Fraction(5, 6)


# -- spec readers -------------------------------------------------------------


@pytest.mark.parametrize("value,message", [
    (True, "body.n: bool is not an integer"),
    ("3", "body.n: str is not an integer"),
    (None, "body.n: null is not an integer"),
    ([3], "body.n: list is not an integer"),
])
def test_integer_refuses_bool_str_and_containers(value, message):
    with pytest.raises(SpecError) as err:
        SpecValue({"n": value})["n"].integer()
    assert str(err.value) == message


def test_readers_name_the_json_path():
    body = SpecValue({"G": [{"c": "1/0", "exp": [1, False]}], "alphas": {"1": "2"}})
    term = body["G"].elements()[0]
    assert term["exp"].elements()[0].integer() == 1
    assert term["exp"].path == "body.G[0].exp"
    for read, message in (
            (lambda: term["exp"].integers(), "body.G[0].exp[1]: bool is not an integer"),
            (lambda: term["c"].rational(), "body.G[0].c: '1/0' has a zero denominator"),
            (lambda: term["basis"], "body.G[0].basis: required key is missing"),
            (lambda: body["alphas"].elements(), "body.alphas: dict is not an array"),
            (lambda: "x" in body["G"], "body.G: list is not an object")):
        with pytest.raises(SpecError) as err:
            read()
        assert str(err.value) == message


def test_optional_keys_and_items():
    body = SpecValue({"alphas": {"2": "1/3", "1": 5}, "shift": None})
    assert body.get("lo", 0).rational() == 0 and body.get("lo", 0).path == "body.lo"
    assert body.get("shift").value is None
    assert [(k, v.path, v.rational()) for k, v in body["alphas"].items()] == [
        ("2", "body.alphas.2", Fraction(1, 3)), ("1", "body.alphas.1", Fraction(5))]
