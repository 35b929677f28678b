"""Exact rational helpers: the dyadic sum against the plain Fraction sum."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from realcert.rational import ZERO, dyadic_sum

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
