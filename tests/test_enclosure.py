"""Kernel soundness: every operation's output interval contains the real result.

mpmath at 160 bits is the independent referee; its own rounding error is
far below the slack used in the comparisons.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from realcert.enclosure import (
    DivisorContainsZero,
    Enclosure,
    NegativeSqrtDomain,
    _naive_exp,
    _pi_bracket,
    _sin_pi_fx,
    _taylor_sin_fx,
    cos_pi,
    exp_enc,
    pi_const,
    sin_pi,
    sqrt_enc,
)
from realcert.rational import ceil_scaled, floor_scaled

mp.prec = 160

REF_SLACK = mpf(2) ** -120


def as_mp(q: Fraction) -> mpf:
    return mpf(q.numerator) / q.denominator


def holds(enc: Enclosure, ref) -> bool:
    return as_mp(enc.lo) - REF_SLACK <= ref <= as_mp(enc.hi) + REF_SLACK


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=10**6)
small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=10**4)


def test_constructor_rejects_inverted():
    with pytest.raises(ValueError):
        Enclosure(Fraction(1), Fraction(0))


def test_constructor_reads_endpoints_as_exact_rationals():
    # the coercion in __post_init__ is the public constructor's float refusal
    assert Enclosure(1, "3/2") == Enclosure(Fraction(1), Fraction(3, 2))
    with pytest.raises(TypeError, match=r"^cannot interpret 0\.5 as an exact rational$"):
        Enclosure(0.5, 1)
    with pytest.raises(TypeError, match="^bool is not a rational$"):
        Enclosure(True, 2)


def test_point_and_membership():
    e = Enclosure.point(Fraction(3, 7))
    assert e.lo == e.hi == Fraction(3, 7)
    assert e.contains(Fraction(3, 7)) and not e.contains(Fraction(1, 2))


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=200)
def test_arithmetic_contains_endpoint_products(a, b, c, d):
    x = Enclosure(min(a, b), max(a, b))
    y = Enclosure(min(c, d), max(c, d))
    for px in (x.lo, x.hi, (x.lo + x.hi) / 2):
        for py in (y.lo, y.hi):
            assert (x + y).contains(px + py)
            assert (x - y).contains(px - py)
            assert (x * y).contains(px * py)
            assert abs(x).contains(abs(px))


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=200)
def test_division_sound_or_rejected(a, b, c, d):
    x = Enclosure(min(a, b), max(a, b))
    y = Enclosure(min(c, d), max(c, d))
    if y.contains_zero():
        with pytest.raises(DivisorContainsZero):
            x / y
        return
    q = x / y
    assert q.contains(x.lo / y.lo) and q.contains(x.hi / y.hi)


def test_hull_and_intersect():
    x = Enclosure(Fraction(0), Fraction(2))
    y = Enclosure(Fraction(1), Fraction(3))
    assert x.hull(y) == Enclosure(Fraction(0), Fraction(3))
    assert x.intersect(y) == Enclosure(Fraction(1), Fraction(2))


def test_outward_widens_and_caps_denominator():
    e = Enclosure(Fraction(1, 3), Fraction(2, 3))
    r = e.outward(8)
    assert r.lo <= e.lo and e.hi <= r.hi
    assert r.lo.denominator <= 256 and r.hi.denominator <= 256


def test_mignitude_and_mag():
    e = Enclosure(Fraction(-3), Fraction(2))
    assert e.mag() == 3 and e.mignitude() == 0
    assert Enclosure(Fraction(1), Fraction(2)).mignitude() == 1


@given(small_rationals, st.integers(min_value=24, max_value=96))
@settings(max_examples=120, deadline=None)
def test_transcendentals_contain_reference(q, precision):
    assert holds(exp_enc(q, precision), mp.exp(as_mp(q)))
    if q > 0:
        assert holds(sqrt_enc(q, precision), mp.sqrt(as_mp(q)))


@given(small_rationals)
@settings(max_examples=80, deadline=None)
def test_precision_tightens(q):
    rough = exp_enc(q, 24)
    fine = exp_enc(q, 96)
    assert fine.hi - fine.lo <= rough.hi - rough.lo


def ladder_exp(q: Fraction, precision: int) -> Enclosure:
    """The rung ladder exp_enc once ran: intersect every rung 8, 16, .., 8*ceil(p/8)."""
    lo, hi = _naive_exp(q, q, 8)
    for bits in range(16, 8 * ((precision + 7) // 8) + 1, 8):
        rung = _naive_exp(q, q, bits)
        lo, hi = max(lo, rung[0]), min(hi, rung[1])
    return Enclosure(lo, hi)


@given(rationals, st.integers(min_value=1, max_value=512))
@settings(max_examples=100, deadline=None)
def test_exp_point_matches_rung_ladder(q, precision):
    # one evaluation at the top rung returns the ladder's bytes on points
    assert exp_enc(q, precision) == ladder_exp(q, precision)


# widths in [0, 4], and widths within 2**-k of 2, where a grid-rounded
# width test would pick different paths at different precisions
widths = st.one_of(
    st.fractions(min_value=0, max_value=4, max_denominator=10**4),
    st.builds(lambda k, sign: 2 + sign * Fraction(1, 2**k),
              st.integers(min_value=1, max_value=1100), st.sampled_from((-1, 1))),
)


@given(small_rationals, widths, st.integers(min_value=1, max_value=1024))
@settings(max_examples=60, deadline=None)
def test_refinement_nests(q, width, precision):
    # the p -> p + 8 contract of the enclosure module docstring
    finer = precision + 8
    assert exp_enc(q, precision).contains(exp_enc(q, finer))
    box = Enclosure(q, q + width)
    assert exp_enc(box, precision).contains(exp_enc(box, finer))
    assert sqrt_enc(abs(q), precision).contains(sqrt_enc(abs(q), finer))
    assert pi_const(precision).contains(pi_const(finer))


def test_exp_nests_on_width_just_below_two():
    # 2**-40 grid rounding puts this width above 2 and the 2**-48 grid
    # below it; deciding on the exact width keeps one path at both
    box = Enclosure(Fraction(1, 3), Fraction(7, 3) - Fraction(1, 2**45))
    assert exp_enc(box, 8).contains(exp_enc(box, 16))


_SIN_COS_PI_NOT_NESTED = pytest.mark.xfail(
    strict=True,
    reason="sin_pi and cos_pi take their Taylor cutoff and grid from the precision, "
           "so p + 8 need not nest in p")


@pytest.mark.parametrize("kernel, c, precision", [
    pytest.param(sin_pi, Fraction(70446, 4663), 24, marks=_SIN_COS_PI_NOT_NESTED, id="sin_pi"),
    pytest.param(cos_pi, Fraction(18200, 4051), 188, marks=_SIN_COS_PI_NOT_NESTED, id="cos_pi"),
])
def test_refinement_nests_sin_cos_pi(kernel, c, precision):
    assert kernel(c, precision).contains(kernel(c, precision + 8))


def test_sqrt_rejects_negative():
    with pytest.raises(NegativeSqrtDomain):
        sqrt_enc(Fraction(-1), 32)


def test_pi_contains_reference():
    for precision in (24, 64, 128):
        enc = pi_const(precision)
        assert holds(enc, mp.pi)
        assert enc.hi - enc.lo <= Fraction(1, 2**(precision - 4))


def test_sin_pi_exact_on_half_integers():
    # rational phase reduction is exact: no width at integer multiples
    assert sin_pi(Enclosure.point(Fraction(0)), 64) == Enclosure.point(Fraction(0))
    assert sin_pi(Enclosure.point(Fraction(7)), 64) == Enclosure.point(Fraction(0))
    assert sin_pi(Enclosure.point(Fraction(1, 2)), 64) == Enclosure.point(Fraction(1))
    assert sin_pi(Enclosure.point(Fraction(5, 2)), 64) == Enclosure.point(Fraction(1))
    assert sin_pi(Enclosure.point(Fraction(3, 2)), 64) == Enclosure.point(Fraction(-1))
    assert cos_pi(Enclosure.point(Fraction(1, 2)), 64) == Enclosure.point(Fraction(0))
    assert cos_pi(Enclosure.point(Fraction(1)), 64) == Enclosure.point(Fraction(-1))


@given(st.fractions(min_value=-8, max_value=8, max_denominator=999))
@settings(max_examples=150, deadline=None)
def test_sin_pi_contains_reference(q):
    assert holds(sin_pi(Enclosure.point(q), 80), mp.sin(mp.pi * as_mp(q)))
    assert holds(cos_pi(Enclosure.point(q), 80), mp.cos(mp.pi * as_mp(q)))


@given(st.fractions(min_value=0, max_value=3, max_denominator=500),
       st.fractions(min_value=0, max_value=1, max_denominator=500))
@settings(max_examples=100, deadline=None)
def test_sin_pi_interval_contains_midpoint(lo, width):
    box = Enclosure(lo, lo + width)
    out = sin_pi(box, 64)
    mid = (box.lo + box.hi) / 2
    assert holds(out, mp.sin(mp.pi * as_mp(mid)))
    assert Fraction(-1) <= out.lo and out.hi <= Fraction(1)


@given(st.lists(st.tuples(st.fractions(min_value=-8, max_value=8, max_denominator=999),
                          st.integers(min_value=8, max_value=160)), min_size=1, max_size=12),
       st.fractions(min_value=0, max_value=Fraction(499, 500), max_denominator=500))
@settings(max_examples=80, deadline=None)
def test_sin_pi_point_memo_returns_fresh_values(points, width):
    # every point twice, so the second of each pair is a warm hit
    _sin_pi_fx.cache_clear()
    cold = [sin_pi(c, p) for c, p in points + points]
    warm = [sin_pi(c, p) for c, p in points]
    fresh = [_sin_pi_fx.__wrapped__(c.numerator, c.denominator, p) for c, p in points]
    fresh = [Enclosure(Fraction(lo, 1 << w), Fraction(hi, 1 << w)) for lo, hi, w in fresh]
    assert cold == fresh + fresh and warm == fresh
    # an interval narrower than 1 holds at most one extremum, so it reads
    # its endpoints through the memo
    c, p = points[0]
    box = Enclosure(c, c + width)
    _sin_pi_fx.cache_clear()
    assert sin_pi(box, p) == sin_pi(box, p)
    assert _sin_pi_fx.cache_info().hits > 0


# -- exact oracle: the Fraction sine that the integer kernel replaced ----------


def reference_sin_pi_point(c: Fraction, precision: int) -> Enclosure:
    r = c - 2 * (c.numerator // (2 * c.denominator))  # c mod 2, in [0, 2)
    if r == 0 or r == 1:
        return Enclosure(Fraction(0), Fraction(0))
    if r == Fraction(1, 2):
        return Enclosure(Fraction(1), Fraction(1))
    if r == Fraction(3, 2):
        return Enclosure(Fraction(-1), Fraction(-1))
    sign = 1
    if r > 1:
        r = r - 1
        sign = -1
    if r > Fraction(1, 2):
        r = 1 - r
    plo, phi = _pi_bracket(precision + 8)
    bits = precision + 4
    w = bits + 32
    lo, hi = _taylor_sin_fx(floor_scaled(plo * r, w), ceil_scaled(phi * r, w), w, bits)
    lo, hi = Fraction(lo, 1 << w), Fraction(hi, 1 << w)
    if sign < 0:
        lo, hi = -hi, -lo
    return Enclosure(max(lo, Fraction(-1)), min(hi, Fraction(1)))


def reference_sin_pi(c: Enclosure, precision: int) -> Enclosure:
    if c.lo == c.hi:
        return reference_sin_pi_point(c.lo, precision)
    if c.hi - c.lo >= 2:
        return Enclosure(Fraction(-1), Fraction(1))
    has_max = False
    has_min = False
    n = -((-2 * c.lo.numerator) // c.lo.denominator)  # ceil(2*lo)
    while Fraction(n, 2) <= c.hi:
        if n % 2:
            if n % 4 == 1:
                has_max = True
            else:
                has_min = True
        n += 1
    a = reference_sin_pi_point(c.lo, precision)
    b = reference_sin_pi_point(c.hi, precision)
    lo = Fraction(-1) if has_min else min(a.lo, b.lo)
    hi = Fraction(1) if has_max else max(a.hi, b.hi)
    return Enclosure(max(lo, Fraction(-1)), min(hi, Fraction(1)))


def reference_cos_pi(c: Enclosure, precision: int) -> Enclosure:
    return reference_sin_pi(Enclosure(c.lo + Fraction(1, 2), c.hi + Fraction(1, 2)), precision)


# exact zeros and peaks (integers, half-integers, 3/2 mod 2), their
# near neighbours, negative values and numerators far beyond the denominator
SINE_POINTS = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=999),
    st.integers(min_value=-10**6, max_value=10**6).map(Fraction),
    st.integers(min_value=-10**6, max_value=10**6).map(lambda k: Fraction(2 * k + 1, 2)),
    st.integers(min_value=-10**6, max_value=10**6).map(lambda k: Fraction(4 * k + 3, 2)),
    st.builds(lambda k, e: Fraction(2 * k + 1, 2) + Fraction(1, 10**e),
              st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=40)),
    st.builds(Fraction, st.integers(min_value=-10**60, max_value=10**60),
              st.integers(min_value=1, max_value=10**12)),
)
PRECISIONS = st.integers(min_value=32, max_value=160)


@given(SINE_POINTS, PRECISIONS)
@settings(max_examples=400, deadline=None)
def test_sin_pi_point_is_the_fraction_reference(c, precision):
    want = reference_sin_pi_point(c, precision)
    assert sin_pi(c, precision) == want
    assert sin_pi(Enclosure.point(c), precision) == want
    # the kernel needs no lowest terms: an unreduced key gives the same value
    lo, hi, w = _sin_pi_fx(3 * c.numerator, 3 * c.denominator, precision)
    assert Enclosure(Fraction(lo, 1 << w), Fraction(hi, 1 << w)) == want


@given(SINE_POINTS, st.one_of(st.fractions(min_value=0, max_value=3, max_denominator=10**4),
                              st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2),
                                               Fraction(2), Fraction(5, 2)])),
       PRECISIONS)
@settings(max_examples=300, deadline=None)
def test_sin_cos_pi_intervals_are_the_fraction_reference(lo, width, precision):
    box = Enclosure(lo, lo + width)
    assert sin_pi(box, precision) == reference_sin_pi(box, precision)
    assert cos_pi(box, precision) == reference_cos_pi(box, precision)
