"""Exact rational helpers: the dyadic sum against the plain Fraction sum."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from realcert.rational import ZERO, SpecError, SpecValue, dyadic_reduce, dyadic_sum

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


# denominators up to 2^20000, as the lower ends of check 13's norms carry
_WIDE = st.builds(lambda num, bits: Fraction(num, 1 << bits),
                  st.integers(min_value=-(1 << 80), max_value=1 << 80),
                  st.integers(min_value=0, max_value=20000))
_SUMS = st.one_of(
    st.just([]),
    st.lists(_WIDE, max_size=12),
    # terms that cancel to zero, in any order
    st.lists(_WIDE, max_size=6).flatmap(
        lambda terms: st.permutations(terms + [-q for q in terms])),
    st.lists(_WIDE.map(lambda q: -abs(q)), min_size=1, max_size=12),
    # terms on one grid, whose sum may end in many zero bits
    st.lists(st.integers(min_value=-50, max_value=50), max_size=12).map(
        lambda ns: [Fraction(n, 1 << 64) for n in ns] + [Fraction(1, 1 << 64)]),
)


@given(_SUMS)
@settings(max_examples=300, deadline=None)
def test_dyadic_sum_builds_the_reduced_fraction(terms):
    # dyadic_sum skips Fraction's gcd, so its result must already be the
    # reduced fraction the plain sum gives, down to the hash
    got, want = dyadic_sum(terms), sum(terms, ZERO)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator, hash(got)) == (
        want.numerator, want.denominator, hash(want))


def test_dyadic_sum_edge_cases():
    assert dyadic_sum([]) == 0
    assert dyadic_sum(iter([Fraction(1, 2), Fraction(1, 4)])) == Fraction(3, 4)
    assert dyadic_sum([Fraction(3, 8), Fraction(-3, 8)]) == 0
    assert dyadic_sum([Fraction(1, 2), Fraction(1, 3)]) == Fraction(5, 6)
    for terms, want in (([], (0, 1)), ([Fraction(3, 8), Fraction(5, 8)], (1, 1)),
                        ([Fraction(-3, 8), Fraction(1, 8)], (-1, 4)),
                        ([Fraction(5, 1 << 9), Fraction(3, 1 << 9)], (1, 64))):
        got = dyadic_sum(terms)
        assert (got.numerator, got.denominator) == want


@pytest.mark.parametrize("n,bits,want", [
    (0, 0, (0, 0)), (0, 7, (0, 0)), (12, 0, (12, 0)), (12, 1, (6, 0)), (12, 5, (3, 3)),
    (-40, 2, (-10, 0)), (-40, 9, (-5, 6)), (7, 3, (7, 3))])
def test_dyadic_reduce(n, bits, want):
    assert dyadic_reduce(n, bits) == want


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
