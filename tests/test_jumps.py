"""Dense-jump machinery: enumeration, staircase series, jump certificates.

The enumeration oracle is independent of the implementation: the breadth
first tree order equals the classic next-term recurrence
q -> 1/(2*floor(q) + 1 - q) pushed through q -> q/(1+q), so the first few
thousand entries are recomputed that way and compared.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from realcert.certificates import CERTIFIED, InconclusiveAtBudget, canonical_dumps
from realcert.enclosure import Enclosure
from realcert.jumps import (
    ConstantTermPresent,
    ContributionTable,
    ExpPoly,
    JumpPolynomial,
    JumpSeries,
    JumpWitness,
    OutOfRange,
    RationalEnumeration,
    ShiftCombination,
    SqrtShift,
    ZeroPolynomial,
    enum_index,
    enum_rational,
    eval_jump_series,
    expand_generator_polynomial,
    jump_contribution_table,
    jump_enclosure,
    jump_search,
    one_sided_limits,
    staircase_polynomial,
    variation_bounds,
)

mp.prec = 160
ROOT = Path(__file__).resolve().parents[1]


def as_mp(q: Fraction) -> mpf:
    return mpf(q.numerator) / q.denominator


# -- enumeration ------------------------------------------------------------


def newman_entries(count: int) -> list[Fraction]:
    out = []
    q = Fraction(1)
    for _ in range(count):
        out.append(q / (1 + q))
        q = 1 / (2 * math.floor(q) + 1 - q)
    return out


def test_enumeration_matches_newman_recurrence():
    want = newman_entries(5000)
    assert [enum_rational(i) for i in range(1, 5001)] == want
    assert want[:7] == [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
                        Fraction(3, 5), Fraction(2, 5), Fraction(3, 4)]


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200)
def test_enumeration_round_trip_from_index(i):
    assert enum_index(enum_rational(i)) == i


@given(st.fractions(min_value=Fraction(1, 300), max_value=Fraction(299, 300),
                    max_denominator=300))
@settings(max_examples=200)
def test_enumeration_round_trip_from_rational(q):
    if not 0 < q < 1:
        return
    assert enum_rational(enum_index(q)) == q


def test_enumeration_pairs_grow_level_by_level():
    # requests inside a level, at its last entry and one past it
    e = RationalEnumeration()
    for n in (1, 2, 3, 4, 7, 8, 100, 1023, 1024, 5000):
        nums, dens = e.pairs(n)
        assert len(nums) == len(dens) == (1 << n.bit_length()) - 1
        assert [Fraction(a, d) for a, d in zip(nums, dens)] == [
            e.rational(i) for i in range(1, len(nums) + 1)]


def test_enumeration_growth_keeps_no_pending_level():
    # the lists themselves take about 6 MB; a kept next level would add 13 MB
    tracemalloc.start()
    try:
        RationalEnumeration().pairs(10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_enumeration_range_checks():
    with pytest.raises(OutOfRange):
        enum_rational(0)
    for bad in (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(OutOfRange):
            enum_index(bad)


# -- staircase series -------------------------------------------------------


def test_staircase_exact_partial_sums():
    # first three entries 1/2, 1/3, 2/3 carry weights 1/2, 1/4, 1/8
    s = JumpSeries()
    assert eval_jump_series(s, Fraction(9, 10), terms=3) == Enclosure(Fraction(7, 8), Fraction(1))
    assert eval_jump_series(s, Fraction(1, 2), terms=3) == Enclosure(Fraction(1, 4), Fraction(3, 8))
    assert eval_jump_series(s, Fraction(0), terms=3) == Enclosure(Fraction(0), Fraction(1, 8))


@given(st.fractions(min_value=0, max_value=1, max_denominator=997),
       st.integers(min_value=4, max_value=40))
@settings(max_examples=150)
def test_staircase_point_width_and_range(x, terms):
    enc = eval_jump_series(JumpSeries(), x, terms=terms)
    assert Fraction(0) <= enc.lo <= enc.hi <= Fraction(1)
    assert enc.hi - enc.lo <= Fraction(1, 2**terms)


@given(st.fractions(min_value=0, max_value=1, max_denominator=499),
       st.fractions(min_value=0, max_value=1, max_denominator=499))
@settings(max_examples=150)
def test_staircase_is_monotone(x, y):
    if x > y:
        x, y = y, x
    ex = eval_jump_series(JumpSeries(), x, terms=24)
    ey = eval_jump_series(JumpSeries(), y, terms=24)
    assert ex.lo <= ey.lo and ex.hi <= ey.hi


@given(st.fractions(min_value=0, max_value=1, max_denominator=313))
@settings(max_examples=100)
def test_staircase_budgets_nest(x):
    rough = eval_jump_series(JumpSeries(), x, terms=16)
    fine = eval_jump_series(JumpSeries(), x, terms=64)
    assert rough.lo <= fine.lo and fine.hi <= rough.hi


def test_staircase_interval_argument_hulls():
    box = Enclosure(Fraction(1, 3), Fraction(2, 3))
    enc = eval_jump_series(JumpSeries(), box, terms=24)
    lo_pt = eval_jump_series(JumpSeries(), Fraction(1, 3), terms=24)
    hi_pt = eval_jump_series(JumpSeries(), Fraction(2, 3), terms=24)
    assert enc.lo <= lo_pt.lo and hi_pt.hi <= enc.hi


def test_staircase_rejects_outside():
    with pytest.raises(OutOfRange):
        eval_jump_series(JumpSeries(), Fraction(3, 2))


# -- shifted copies ---------------------------------------------------------


def test_shifted_series_drops_at_wrap():
    # wrap point is sqrt(2) - 1 ~ 0.4142: high just before, low just after
    s = JumpSeries(SqrtShift(1))
    before = eval_jump_series(s, Fraction(41, 100), terms=32)
    after = eval_jump_series(s, Fraction(42, 100), terms=32)
    assert before.lo > after.hi
    assert before.lo > Fraction(9, 10) and after.hi < Fraction(1, 10)


@given(st.fractions(min_value=0, max_value=1, max_denominator=271),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=120, deadline=None)
def test_shifted_series_stays_in_range(x, k):
    enc = eval_jump_series(JumpSeries(SqrtShift(k)), x, terms=24)
    assert Fraction(0) <= enc.lo <= enc.hi <= Fraction(1)


def test_shifted_series_refines_the_shift_to_place_a_point_near_the_wrap():
    # both points lie inside the 96-bit enclosure of the wrap point
    # sqrt(2) - 1, within 2^-199 of it, one on either side
    s = JumpSeries(SqrtShift(1))
    coarse, fine = SqrtShift(1).enclosure(96), SqrtShift(1).enclosure(400)
    before, after = fine.lo - Fraction(1, 2**200), fine.hi + Fraction(1, 2**200)
    assert coarse.lo < before < after < coarse.hi
    high = Enclosure(1 - Fraction(1, 2**32), Fraction(1))
    assert eval_jump_series(s, before, terms=32) == high
    assert eval_jump_series(s, after, terms=32) == Enclosure(Fraction(0), Fraction(1, 2**32))


def test_shifted_series_hulls_both_branches_across_the_wrap():
    s = JumpSeries(SqrtShift(1))
    box = Enclosure(Fraction(2, 5), Fraction(3, 7))  # around sqrt(2) - 1
    enc = eval_jump_series(s, box, terms=32)
    # the branch before the wrap climbs to 1; the one past it starts at 0
    assert enc == Enclosure(Fraction(0), Fraction(1))
    assert eval_jump_series(s, box.lo, terms=32).lo > Fraction(9, 10)
    assert eval_jump_series(s, box.hi, terms=32).hi < Fraction(1, 10)


@pytest.mark.parametrize("obj", [
    JumpSeries(),
    JumpSeries(SqrtShift(3)),
    ShiftCombination(((Fraction(2), SqrtShift(1)), (Fraction(-1, 3), SqrtShift(2)))),
], ids=["plain", "wrapped", "combination"])
def test_staircase_shapes_json_round_trip(obj):
    assert type(obj).from_json(json.loads(canonical_dumps(obj))) == obj


def test_shift_enclosure_is_fractional_part():
    for k in (1, 2, 3, 10):
        v = SqrtShift(k).enclosure(96)
        ref = mp.sqrt(2) * k
        ref = ref - mp.floor(ref)
        assert as_mp(v.lo) <= ref <= as_mp(v.hi)
        assert Fraction(0) < v.lo and v.hi < Fraction(1)


def test_shift_combination_scales_single_copy():
    single = eval_jump_series(JumpSeries(SqrtShift(1)), Fraction(7, 10), terms=32)
    combo = ShiftCombination(((Fraction(2), SqrtShift(1)),))
    assert combo.value_at(Fraction(7, 10), terms=32) == 2 * single
    assert combo.coefficient_mass() == 2


def test_shift_combination_validation():
    with pytest.raises(ValueError):
        ShiftCombination(((Fraction(0), SqrtShift(1)),))
    with pytest.raises(ValueError):
        ShiftCombination(((Fraction(1), SqrtShift(1)), (Fraction(2), SqrtShift(1))))
    with pytest.raises(ValueError):
        SqrtShift(0)


# -- exponential polynomials ------------------------------------------------


def test_exp_poly_merge_is_exact():
    g = ExpPoly((2, 3), ((Fraction(5, 3), (2, 0)),))
    assert not g.is_zero
    assert ExpPoly((2, 3), g.terms + ((Fraction(-5, 3), (2, 0)),)).is_zero
    h = ExpPoly((2, 3), ((Fraction(1), (2, 0)), (Fraction(-1), (2, 0))))
    assert h.is_zero


def test_exp_poly_algebra_against_reference():
    basis = (2, 3)
    p = ExpPoly(basis, ((Fraction(1, 2), (1, 0)), (Fraction(-2), (0, 1))))
    q = ExpPoly(basis, ((Fraction(3), (1, 1)),))
    x = Fraction(2, 7)
    for poly in (p, q):
        enc = poly.evaluate(x, precision=96)
        ref = mpf(0)
        for c, (n2, n3) in poly.terms:
            rate = n2 * mp.sqrt(2) + n3 * mp.sqrt(3)
            ref += as_mp(c) * mp.exp(rate * as_mp(x))
        assert as_mp(enc.lo) - mpf(2) ** -80 <= ref <= as_mp(enc.hi) + mpf(2) ** -80


@given(st.fractions(min_value=0, max_value=1, max_denominator=97))
@settings(max_examples=60, deadline=None)
def test_exp_poly_sup_bound_dominates(x):
    p = ExpPoly((2, 5), ((Fraction(2), (1, 0)), (Fraction(-1, 3), (0, 2)),
                         (Fraction(1), (1, 1))))
    assert abs(p.evaluate(x, 64)).hi <= p.sup_bound(64) + Fraction(1, 2**30)


def test_exp_poly_validation():
    with pytest.raises(ValueError):
        ExpPoly((4,), ())  # not squarefree
    with pytest.raises(ValueError):
        ExpPoly((2, 2), ())
    with pytest.raises(ValueError):
        ExpPoly((2, 3), ((Fraction(1), (1,)),))
    with pytest.raises(ValueError):
        JumpPolynomial((ExpPoly.constant((2,), 1), ExpPoly.constant((3,), 1)))


def test_exp_poly_json_round_trip():
    p = ExpPoly((2, 3), ((Fraction(1, 2), (1, 0)), (Fraction(-2), (0, 1))))
    assert ExpPoly.from_json(p.as_json(), (2, 3)) == p
    assert ExpPoly.from_json(json.loads(canonical_dumps(p)), (2, 3)) == p


# -- jump polynomials -------------------------------------------------------


def exp_times_staircase() -> JumpPolynomial:
    return JumpPolynomial((ExpPoly((1,), ((Fraction(1), (1,)),)),))


def test_degree_trims_trailing_zeros():
    one = ExpPoly.constant((1,), 1)
    zero = ExpPoly.zero((1,))
    assert JumpPolynomial((one, zero)).degree == 1
    assert JumpPolynomial((zero, one)).degree == 2
    with pytest.raises(ZeroPolynomial):
        JumpPolynomial((zero,))
    with pytest.raises(ZeroPolynomial):
        JumpPolynomial(())


def test_unit_staircase_jumps_are_exact():
    g = staircase_polynomial()
    for i in range(1, 201):
        cert = jump_enclosure(g, enum_rational(i))
        assert cert.value == Enclosure.point(Fraction(1, 2**i))
        assert cert.certified_nonzero
        assert cert.index == i


def test_unit_staircase_limits_differ_by_gap():
    g = staircase_polynomial()
    left, right = one_sided_limits(g, Fraction(2, 5))
    gap = Fraction(1, 2**6)
    # the shared series value does not cancel in interval arithmetic, so the
    # difference is the gap widened by the evaluation width only
    diff = right - left
    assert diff.contains(gap)
    assert diff.hi - diff.lo <= Fraction(1, 2**62)


def test_exp_staircase_jump_oracle():
    # jump at 1/2 is exp(1/2)/2 = 0.82436063535006407...
    cert = jump_enclosure(exp_times_staircase(), Fraction(1, 2))
    ref = mp.exp(mpf(1) / 2) / 2
    assert as_mp(cert.value.lo) <= ref <= as_mp(cert.value.hi)
    assert cert.value.hi - cert.value.lo < Fraction(1, 2**60)
    assert cert.certified_nonzero


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=60, deadline=None)
def test_exp_staircase_jump_scales_like_gap(i):
    q = enum_rational(i)
    cert = jump_enclosure(exp_times_staircase(), q)
    ref = mp.exp(as_mp(q)) / mpf(2) ** i
    assert as_mp(cert.value.lo) - mpf(2) ** -90 <= ref <= as_mp(cert.value.hi) + mpf(2) ** -90


def test_degree_two_limits_bracket_jump():
    one = ExpPoly.constant((1,), 1)
    g = JumpPolynomial((one, ExpPoly.constant((1,), Fraction(1, 2))))
    q = Fraction(1, 3)
    left, right = one_sided_limits(g, q)
    jump = jump_enclosure(g, q).value
    # both enclose the true difference, so they must overlap
    (right - left).intersect(jump)
    assert jump.hi - jump.lo <= (right - left).hi - (right - left).lo


def test_value_at_matches_plain_series_for_unit_polynomial():
    g = staircase_polynomial()
    for x in (Fraction(1, 7), Fraction(1, 2), Fraction(9, 10)):
        got = g.value_at(x, terms=32)
        base = eval_jump_series(JumpSeries(), x, terms=32)
        assert got.lo == base.lo and got.hi == base.hi


def cubic_with_continuous_part() -> JumpPolynomial:
    basis = (1, 2)
    return JumpPolynomial(
        (ExpPoly(basis, ((Fraction(1), (1, 0)),)),
         ExpPoly(basis, ((Fraction(-2, 3), (0, 1)), (Fraction(1, 5), (0, 0)))),
         ExpPoly(basis, ((Fraction(3), (1, 1)),))),
        continuous=ExpPoly(basis, ((Fraction(-1, 2), (2, 0)), (Fraction(1), (0, 0)))),
    )


def loop_value_at(g: JumpPolynomial, x, terms: int, precision: int) -> Enclosure:
    """value_at as it summed the staircase powers before sharing one helper."""
    base = eval_jump_series(JumpSeries(), x, terms, precision)
    base = base.intersect(Enclosure(Fraction(0), Fraction(1)))
    total = g.coeffs[0].evaluate(x, precision) * base
    power = base
    for coeff in g.coeffs[1:]:
        power = power * base
        total = total + coeff.evaluate(x, precision) * power
    if g.continuous is not None:
        total = total + g.continuous.evaluate(x, precision)
    return total


def mp_exp_poly(p: ExpPoly, x: mpf) -> mpf:
    return sum(as_mp(c) * mp.exp(sum(n * mp.sqrt(d) for n, d in zip(vec, p.basis)) * x)
               for c, vec in p.terms)


@pytest.mark.parametrize("x", [Fraction(1, 7), Fraction(2, 5), Fraction(9, 10)])
def test_value_at_degree_three_with_continuous_part(x):
    g = cubic_with_continuous_part()
    got = g.value_at(x, terms=200, precision=128)
    s = eval_jump_series(JumpSeries(), x, terms=200)
    xm, sm = as_mp(x), as_mp((s.lo + s.hi) / 2)
    ref = (sum(mp_exp_poly(c, xm) * sm**j for j, c in enumerate(g.coeffs, 1))
           + mp_exp_poly(g.continuous, xm))
    slack = mpf(2) ** -150
    assert as_mp(got.lo) - slack <= ref <= as_mp(got.hi) + slack
    assert got.hi - got.lo < Fraction(1, 2**100)


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 3), Fraction(9, 10),
                               Enclosure(Fraction(1, 4), Fraction(3, 5))])
@pytest.mark.parametrize("g", [cubic_with_continuous_part(), exp_times_staircase()],
                         ids=["cubic", "linear"])
def test_value_at_equals_the_power_loop(g, x):
    assert g.value_at(x, 48, 96) == loop_value_at(g, x, 48, 96)


def test_jump_polynomial_json_round_trip():
    g = JumpPolynomial(
        (ExpPoly((2,), ((Fraction(1), (1,)),)), ExpPoly((2,), ((Fraction(-1, 3), (2,)),))),
        continuous=ExpPoly((2,), ((Fraction(2), (0,)),)),
    )
    plain = staircase_polynomial()
    for poly in (g, plain):
        assert JumpPolynomial.from_json(poly.as_json()) == poly
        assert JumpPolynomial.from_json(json.loads(canonical_dumps(poly))) == poly


# -- jump search ------------------------------------------------------------


def test_jump_search_direct_hit():
    got = jump_search(staircase_polynomial(), Fraction(2, 5), Fraction(3, 5),
                      Fraction(1, 1000), index_budget=100)
    assert isinstance(got, JumpWitness)
    assert got.index == 1 and got.point == Fraction(1, 2)
    assert got.jump == Enclosure.point(Fraction(1, 2))
    assert got.via == "direct" and got.analytic_margin is None


def test_jump_witness_claim_is_the_cli_claim():
    got = jump_search(staircase_polynomial(), Fraction(2, 5), Fraction(3, 5),
                      Fraction(1, 1000), index_budget=100)
    assert got.certificate().claim == "jump-dense-sample"


def test_jump_search_threshold_route():
    # narrow window around 2/5 (index 6): margin eps*(2^6-1) > 1 at eps = 1/30
    lo = Fraction(2, 5) - Fraction(1, 1000)
    hi = Fraction(2, 5) + Fraction(1, 1000)
    got = jump_search(staircase_polynomial(), lo, hi, Fraction(1, 30), index_budget=1000)
    assert isinstance(got, JumpWitness)
    assert got.index == 6 and got.via == "threshold"
    assert got.analytic_margin == Fraction(1, 64) * (Fraction(1, 30) - Fraction(1, 63))


def test_jump_search_below_coverage_is_inconclusive():
    with pytest.raises(InconclusiveAtBudget) as spent:
        jump_search(staircase_polynomial(), Fraction(3, 10000), Fraction(13, 10000),
                    Fraction(1, 1000), index_budget=2000)
    assert spent.value.budget["candidates"] == 0


def test_jump_search_grows_enumeration_only_to_the_witness_level():
    # a fresh interpreter, so no other test has grown the shared enumeration
    code = ("from fractions import Fraction as F\n"
            "from realcert.jumps import CALKIN_WILF, jump_search, staircase_polynomial\n"
            "got = jump_search(staircase_polynomial(), F(3001, 10000), F(3011, 10000),\n"
            "                  F(1, 1000))\n"
            "print(got.index, len(CALKIN_WILF.pairs(0)[0]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    index, entries = map(int, done.stdout.split())
    assert index == 8220
    # levels 1..L hold 2^L - 1 entries; i needs L = ceil(log2(i+1)) = i.bit_length()
    assert entries < 2 * 2 ** index.bit_length()


def test_jump_search_inconclusive_reports_every_candidate():
    # G(s) = s^2 - s: at terms=1 the staircase value is only known to lie in
    # [0, 1/2], so no jump excludes zero and the whole budget is scanned
    g = JumpPolynomial((ExpPoly.constant((1,), -1), ExpPoly.constant((1,), 1)))
    lo, hi, budget = Fraction(1, 25), Fraction(1, 17), 10 ** 5  # partly below coverage
    with pytest.raises(InconclusiveAtBudget) as spent:
        jump_search(g, lo, hi, Fraction(1, 1000), budget, terms=1, precision=32)
    got = spent.value
    candidates = sum(lo <= enum_rational(i) <= hi for i in range(1, budget + 1))
    assert candidates == 2  # 1/17 and 1/18, at indices 2^15 and 2^16
    assert got.budget == {"index_budget": budget, "candidates": candidates,
                          "terms": 1, "precision": 32}


def test_jump_search_validation():
    with pytest.raises(ValueError):
        jump_search(staircase_polynomial(), Fraction(0), Fraction(1, 2), Fraction(1, 10))
    with pytest.raises(ValueError):
        jump_search(staircase_polynomial(), Fraction(1, 2), Fraction(1, 3), Fraction(1, 10))
    with pytest.raises(ValueError):
        jump_search(staircase_polynomial(), Fraction(1, 3), Fraction(1, 2), Fraction(0))


# -- variation --------------------------------------------------------------


def test_variation_plain_staircase():
    got = variation_bounds(JumpSeries(), terms=64)
    assert got.upper == 1
    assert got.lower == 1 - Fraction(1, 2**64)
    assert got.certificate().verdict == CERTIFIED


def test_variation_wrapped_copy():
    got = variation_bounds(JumpSeries(SqrtShift(2)), terms=10)
    assert got.upper == 3
    assert got.lower == 1 + (1 - Fraction(1, 2**10))


def test_variation_combination_oracle():
    combo = ShiftCombination(((Fraction(2), SqrtShift(1)), (Fraction(3), SqrtShift(2))))
    got = variation_bounds(combo)
    assert got.lower == 5 and got.upper == 15


def test_variation_polynomial_probes():
    # enumeration indices 1 and 2 are the points 1/2 and 1/3
    got = variation_bounds(staircase_polynomial(), terms=2)
    assert got.lower == Fraction(1, 2) + Fraction(1, 4)
    assert got.upper is None
    assert len(got.probes) == 2


def test_variation_rejects_unknown_type():
    with pytest.raises(TypeError):
        variation_bounds(object())


# -- generator expansion ----------------------------------------------------


def test_expand_collects_by_degree():
    g = expand_generator_polynomial({(1, 0): Fraction(1), (0, 2): Fraction(1)}, (2, 3))
    assert g.degree == 2
    assert g.coeffs[0] == ExpPoly((2, 3), ((Fraction(1), (1, 0)),))
    assert g.coeffs[1] == ExpPoly((2, 3), ((Fraction(1), (0, 2)),))


def test_expand_single_generator_is_exp_staircase():
    assert expand_generator_polynomial({(1,): 1}, (1,)) == exp_times_staircase()


def test_expand_validation():
    with pytest.raises(ConstantTermPresent):
        expand_generator_polynomial({(0, 0): Fraction(5), (1, 0): Fraction(1)}, (2, 3))
    with pytest.raises(ZeroPolynomial):
        expand_generator_polynomial({(1, 0): Fraction(0)}, (2, 3))
    with pytest.raises(ValueError):
        expand_generator_polynomial({(-1, 2): Fraction(1)}, (2, 3))
    with pytest.raises(ValueError):
        expand_generator_polynomial({(1,): Fraction(1)}, (2, 3))


def test_continuous_part_keeps_jumps_and_shifts_limits():
    factor = ExpPoly((1,), ((Fraction(1), (1,)),))
    dense = JumpPolynomial((factor,), continuous=factor)
    bare = JumpPolynomial((factor,))
    q = Fraction(3, 5)
    assert jump_enclosure(dense, q).value == jump_enclosure(bare, q).value
    dl, dr = one_sided_limits(dense, q)
    bl, br = one_sided_limits(bare, q)
    smooth = factor.evaluate(q)
    assert dl == bl + smooth and dr == br + smooth


# -- contribution tables ----------------------------------------------------


def test_contribution_table_matches_direct_enclosures():
    table = jump_contribution_table(Fraction(1, 2), (2, 3), 2, terms=48, precision=96)
    assert table.index == 1 and table.gap == Fraction(1, 2)
    # each entry is the expanded monomial's own jump enclosure, exactly
    for vec, entry in table.entries:
        g = expand_generator_polynomial({vec: Fraction(1)}, (2, 3))
        direct = jump_enclosure(g, Fraction(1, 2), terms=48, precision=96).value
        assert entry == direct
        assert entry.hi - entry.lo < Fraction(1, 2**40)
    coeffs = {(1, 0): Fraction(2), (0, 1): Fraction(-1), (1, 1): Fraction(1, 3)}
    combined = table.jump_of(coeffs)
    direct = jump_enclosure(expand_generator_polynomial(coeffs, (2, 3)),
                            Fraction(1, 2), terms=48, precision=96).value
    assert combined.intersect(direct) is not None


def test_contribution_table_zero_and_missing():
    table = jump_contribution_table(Fraction(1, 2), (2,), 2, terms=32)
    zero = table.jump_of({})
    assert zero == Enclosure.point(Fraction(0))
    with pytest.raises(KeyError):
        table.jump_of({(7,): Fraction(1)})
    with pytest.raises(ValueError):
        jump_contribution_table(Fraction(1, 2), (2,), 0)


def test_contribution_table_scaled_brackets():
    table = jump_contribution_table(Fraction(2, 5), (2, 3), 2, terms=32)
    cells = table.scaled(64)
    for vec, enc in table.entries:
        lo, hi = cells[vec]
        assert Fraction(lo, 2**64) <= enc.lo and enc.hi <= Fraction(hi, 2**64)
        assert hi - lo <= 2**34  # entries are tight at these budgets
