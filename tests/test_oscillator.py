"""Oscillator family: exact zeros, peak enclosures, gauge integrals, norms.

Rational inputs give rational phases, so the kernel's exact pi-multiple
reduction makes many of these checks equalities of point enclosures, not
tolerance comparisons.  mpmath at 200 bits referees the generic points;
its own argument-reduction error near exact-zero phases is about 2^-175,
hence the slack constant.
"""

import heapq
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf

from realcert.certificates import (InconclusiveAtBudget, canonical_dumps, exit_code,
                                  jsonable)
from realcert.checklist import _check_alexiewicz, _draw_combinations, _seeded
from realcert import oscillator
from realcert.enclosure import Enclosure, _sin_pi_fx, pi_const
from realcert.oscillator import (
    Extremum,
    NonLebesgueWitness,
    OscCombination,
    Oscillator,
    RestrictionWitness,
    UnboundedSpan,
    ZeroCombination,
    _unit_branch,
    _unit_measure,
    alexiewicz_norm,
    hake_table,
    kurzweil_integral,
    nonlebesgue_witness,
    osc_eval,
    restriction_witness,
    slope_bound,
)
from realcert.rational import SpecError
from test_enclosure import PRECISIONS, reference_cos_pi, reference_sin_pi

mp.prec = 200

REF_SLACK = mpf(2) ** -80


def as_mp(q: Fraction) -> mpf:
    return mpf(q.numerator) / q.denominator


def ref_derivative(x: Fraction) -> mpf:
    s = as_mp(x) if x <= Fraction(1, 2) else 1 - as_mp(x)
    if s == 0:
        return mpf(0)
    phase = mp.pi / (4 * s * s)
    return 8 * s * mp.sin(phase) - (2 * mp.pi / s) * mp.cos(phase)


def ref_primitive(x: Fraction) -> mpf:
    if x <= Fraction(1, 2):
        s = as_mp(x)
        sign = 1
    else:
        s = 1 - as_mp(x)
        sign = -1
    if s == 0:
        return mpf(0)
    return sign * 4 * s * s * mp.sin(mp.pi / (4 * s * s))


def unit() -> Oscillator:
    return Oscillator()


# -- exact values -----------------------------------------------------------


def test_primitive_exact_zeros():
    o = unit()
    for x in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 4),
              Fraction(3, 4), Fraction(1, 6)):
        assert o.primitive_at(x) == Enclosure.point(Fraction(0))


PEAKS = (1, 2, 3, 10, 100)


def peak_height(k: int) -> Fraction:
    return Fraction(2 if k % 2 == 0 else -2, 2 * k + 1)


@pytest.mark.parametrize("precision", (64, 96, 128))
@pytest.mark.parametrize("k", PEAKS)
def test_primitive_at_peak_encloses_its_height(k, precision):
    # evaluates the kernel on the irrational peak point, not the formula
    got = unit().primitive_at(Extremum(k).point(precision), precision)
    assert got.contains(peak_height(k))
    assert got.hi - got.lo < Fraction(1, 2**precision)


def test_peaks_are_indexed_from_one():
    with pytest.raises(ValueError):
        Extremum(0)


@pytest.mark.parametrize("precision", (64, 96, 128))
@pytest.mark.parametrize("k", PEAKS)
def test_primitive_difference_between_peaks_encloses_the_gap(k, precision):
    # F(a_k) - F(a_(k+1)) = (-1)^k (2/(2k+1) + 2/(2k+3)), the witness's term
    assert peak_height(k) - peak_height(k + 1) == (-1) ** k * oscillator._peak_gap(k)
    o = unit()
    got = (o.primitive_at(Extremum(k).point(precision), precision)
           - o.primitive_at(Extremum(k + 1).point(precision), precision))
    assert got.contains((-1) ** k * oscillator._peak_gap(k))
    assert got.hi - got.lo < Fraction(1, 2**precision)


@pytest.mark.parametrize("k", PEAKS)
def test_derivative_at_peak_is_eight_times_the_point(k):
    # the cosine term vanishes at the peak, so only (-1)^k 8 t survives
    a = Extremum(k).point(96)
    ref = 1 / mp.sqrt(2 + 4 * k)
    assert as_mp(a.lo) <= ref <= as_mp(a.hi)
    d = unit().derivative_at(a)
    assert as_mp(d.lo) <= (-1) ** k * 8 * ref <= as_mp(d.hi)
    assert d.hi - d.lo < Fraction(1, 2**80)


def test_peak_derivative_scales_with_host_length():
    host = Oscillator(Fraction(1, 4), Fraction(1, 2))
    peak = Extremum(1).point(96)
    # the chart maps the host point back onto the unit peak exactly
    assert host.derivative_at(host.lo + host.length * peak) == 4 * unit().derivative_at(peak)


def test_off_support_is_exactly_zero():
    host = Oscillator(Fraction(1, 4), Fraction(1, 2))
    assert host.derivative_at(Fraction(7, 8)) == Enclosure.point(Fraction(0))
    assert host.primitive_at(Fraction(1, 8)) == Enclosure.point(Fraction(0))
    straddle = host.primitive_at(Enclosure(Fraction(3, 16), Fraction(5, 16)))
    assert straddle.contains(Fraction(0))


def test_oscillator_validation():
    with pytest.raises(ValueError):
        Oscillator(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        Oscillator(Fraction(0), Fraction(1), kind="integral")


def test_derivative_blows_up_at_edges():
    with pytest.raises(UnboundedSpan):
        unit().derivative_at(Enclosure(Fraction(0), Fraction(1, 100)))


# -- reference sweeps -------------------------------------------------------


@given(st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50),
                    max_denominator=2500))
@settings(max_examples=120, deadline=None)
def test_derivative_contains_reference(x):
    enc = unit().derivative_at(x, precision=96)
    ref = ref_derivative(x)
    assert as_mp(enc.lo) - REF_SLACK <= ref <= as_mp(enc.hi) + REF_SLACK


@given(st.fractions(min_value=0, max_value=1, max_denominator=2500))
@settings(max_examples=120, deadline=None)
def test_primitive_contains_reference(x):
    enc = unit().primitive_at(x, precision=96)
    ref = ref_primitive(x)
    assert as_mp(enc.lo) - REF_SLACK <= ref <= as_mp(enc.hi) + REF_SLACK
    assert abs(enc).hi <= 1  # |4 s^2 sin| <= 1 on the unit interval


@given(st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                    max_denominator=400),
       st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1, 25),
                    max_denominator=1000))
@settings(max_examples=80, deadline=None)
def test_interval_boxes_contain_point_values(x, width):
    hi = min(x + width, Fraction(19, 20))
    box = Enclosure(x, hi)
    boxed = unit().derivative_at(box, precision=64)
    mid = unit().derivative_at((x + hi) / 2, precision=64)
    assert boxed.lo <= mid.hi and mid.lo <= boxed.hi


# -- integration ------------------------------------------------------------


def test_full_integral_is_exactly_zero():
    assert kurzweil_integral(unit(), 0, 1) == Enclosure.point(Fraction(0))


def test_integral_additivity_encloses_zero():
    left = kurzweil_integral(unit(), 0, Fraction(1, 3))
    right = kurzweil_integral(unit(), Fraction(1, 3), 1)
    assert (left + right).contains(Fraction(0))


def test_integral_validation():
    with pytest.raises(ValueError):
        kurzweil_integral(Oscillator(kind="primitive"), 0, 1)
    with pytest.raises(ValueError):
        kurzweil_integral(unit(), 0, Fraction(3, 2))
    with pytest.raises(ValueError):
        kurzweil_integral(OscCombination.of({1: 1}), Fraction(-1, 2), 1)
    with pytest.raises(TypeError):  # endpoints are rationals
        kurzweil_integral(unit(), Enclosure(Fraction(1, 3), Fraction(1, 2)), 1)


def test_hake_rows_shrink_like_four_eps_squared():
    o = unit()
    dyadic = [Fraction(1, 2**n) for n in range(1, 21)]
    for row in hake_table(o, dyadic):
        assert row.integral == Enclosure.point(Fraction(0))  # integer phase
    generic = [Fraction(1, 3), Fraction(1, 5), Fraction(2, 7)]
    for eps, row in zip(generic, hake_table(o, generic)):
        assert row.epsilon == eps
        assert abs(row.integral).hi <= 4 * eps * eps + Fraction(1, 2**60)
    with pytest.raises(ValueError):
        hake_table(o, [Fraction(0)])
    with pytest.raises(ValueError):
        hake_table(o, [Fraction(2)])


# -- non-Lebesgue witnesses -------------------------------------------------


def test_witness_first_peak():
    got = nonlebesgue_witness(unit(), 1)
    assert isinstance(got, NonLebesgueWitness)
    assert got.K == 1
    assert got.partial_sum == Fraction(16, 15)
    assert got.sum_before == 0
    assert got.as_json()["peaks_used"] == 1
    assert got.as_json()["partial_sum"] == Fraction(16, 15)


def test_witness_bar_four_oracle():
    got = nonlebesgue_witness(unit(), 4)
    assert isinstance(got, NonLebesgueWitness)
    assert got.K == 10
    assert got.partial_sum == Fraction(1386674392, 334639305)
    assert got.sum_before == Fraction(8234192, 2078505)
    # minimality is exact: the previous partial sum is still under the bar
    assert got.sum_before < 4 <= got.partial_sum


def test_witness_is_chart_invariant():
    a = nonlebesgue_witness(unit(), 3)
    b = nonlebesgue_witness(Oscillator(Fraction(1, 8), Fraction(1, 4)), 3)
    assert a.K == b.K and a.partial_sum == b.partial_sum
    lo, hi = b.span_lo, b.span_hi
    assert Fraction(1, 8) <= lo.lo <= hi.hi <= Fraction(1, 4)


def test_witness_rows_accumulate():
    got = nonlebesgue_witness(unit(), 2)
    rows = list(got.rows())
    assert rows[0][1] == Fraction(16, 15)
    running = Fraction(0)
    for k, term, cumulative in rows:
        running += term
        assert cumulative == running
    assert running == got.partial_sum


def test_witness_budget_cap():
    with pytest.raises(InconclusiveAtBudget) as spent:
        nonlebesgue_witness(unit(), 30, max_peaks=100)
    assert spent.value.budget["max_peaks"] == 100


def test_witness_validation():
    with pytest.raises(ValueError):
        nonlebesgue_witness(Oscillator(kind="primitive"), 1)
    with pytest.raises(ValueError):
        nonlebesgue_witness(unit(), 0)


def test_restriction_witness_selection():
    got = restriction_witness(OscCombination.of({3: 2}), 2)
    assert isinstance(got, RestrictionWitness)
    assert got.index == 3 and got.alpha == 2
    assert got.base.K == 1 and got.scaled_sum == Fraction(32, 15)

    mixed = restriction_witness(OscCombination.of({1: Fraction(1, 2), 4: -3}), 1)
    assert mixed.index == 4 and mixed.alpha == -3

    tie = restriction_witness(OscCombination.of({1: 2, 3: -2}), 1)
    assert tie.index == 1  # ties prefer the shallowest support

    with pytest.raises(ZeroCombination):
        restriction_witness(OscCombination(), 1)


# -- combinations -----------------------------------------------------------


def test_combination_cleanup_and_validation():
    c = OscCombination.of({2: 0, 1: Fraction(1, 3)})
    assert c.alphas == ((1, Fraction(1, 3)),)
    assert OscCombination().is_zero
    assert OscCombination.support(3) == (Fraction(1, 16), Fraction(1, 8))
    with pytest.raises(ValueError):
        OscCombination(((0, Fraction(1)),))
    with pytest.raises(ValueError):
        OscCombination(((2, Fraction(1)), (2, Fraction(2))))


def test_combination_value_splits_by_support():
    c = OscCombination.of({1: 2, 2: -1})
    x = Fraction(3, 8)  # inside support 1 = [1/4, 1/2]; support 2 vanishes
    single = Oscillator(Fraction(1, 4), Fraction(1, 2)).derivative_at(x)
    assert c.value_at(x) == 2 * single
    assert c.primitive_at(Fraction(3, 4)) == Enclosure.point(Fraction(0))


def full_sum(c: OscCombination, x, precision: int, primitive: bool) -> Enclosure:
    """Reference: rebuild every oscillator and add every part, zeros included."""
    total = Enclosure.point(0)
    for k, alpha in c.alphas:
        osc = Oscillator(*c.support(k), kind="derivative")
        part = osc.primitive_at(x, precision) if primitive \
            else osc.derivative_at(x, precision)
        total = total + alpha * part
    return total


def outcome(f, *args):
    try:
        return f(*args)
    except UnboundedSpan as err:  # derivative boxes that reach a support edge
        return type(err)


_COEFFS = st.dictionaries(st.integers(min_value=1, max_value=6),
                          st.integers(min_value=-3, max_value=3).filter(bool).map(Fraction),
                          min_size=1, max_size=4)
_EDGES = st.integers(min_value=0, max_value=7).map(lambda k: Fraction(1, 1 << k))
_WIDTHS = st.fractions(min_value=0, max_value=Fraction(1, 8), max_denominator=4096)


@given(_COEFFS,
       st.one_of(_EDGES, st.fractions(min_value=0, max_value=1, max_denominator=4096)),
       _WIDTHS, _WIDTHS, st.sampled_from((32, 96)))
@settings(max_examples=150, deadline=None)
def test_combination_sum_matches_full_sum(coeffs, centre, left, right, precision):
    # centre on a dyadic edge with both widths positive: a box straddling it
    c = OscCombination.of(coeffs)
    box = Enclosure(max(Fraction(0), centre - left), min(Fraction(1), centre + right))
    for x in (centre, box):
        assert c.primitive_at(x, precision) == full_sum(c, x, precision, True)
        assert (outcome(c.value_at, x, precision)
                == outcome(full_sum, c, x, precision, False))
    twin = OscCombination.of(coeffs)
    assert c == twin and hash(c) == hash(twin)


def test_combination_json_round_trip():
    c = OscCombination.of({1: Fraction(1, 2), 4: -3})
    assert OscCombination.from_json(c.as_json()) == c
    assert OscCombination.from_json(json.loads(canonical_dumps(c))) == c
    # a library caller may key alphas by int, as OscCombination.of does
    assert OscCombination.from_json({"alphas": {1: "1/2", 4: -3}}) == c
    for key in ("0", "01", "-1", "x", "", "\u0661", None):
        with pytest.raises(SpecError, match="is not a positive integer"):
            OscCombination.from_json({"alphas": {key: 1}})


# -- Alexiewicz norm --------------------------------------------------------


def test_alexiewicz_unit_oracle():
    enc = alexiewicz_norm(unit(), Fraction(1, 1000))
    assert enc.hi - enc.lo <= Fraction(1, 1000)
    assert Fraction(68, 100) < enc.lo <= enc.hi < Fraction(69, 100)
    # float scan of |primitive| gives a sup lower bound the bracket must clear
    scan = max(abs(float(ref_primitive(Fraction(i, 9973)))) for i in range(1, 9973))
    assert float(enc.hi) >= scan - 1e-6


def test_alexiewicz_single_support_matches_unit():
    base = alexiewicz_norm(unit(), Fraction(1, 500))
    for k in (1, 2, 3):
        got = alexiewicz_norm(OscCombination.of({k: 1}), Fraction(1, 500))
        assert abs(got.lo - base.lo) <= Fraction(2, 500)
        assert abs(got.hi - base.hi) <= Fraction(2, 500)


def test_alexiewicz_scales_with_largest_coefficient():
    tol = Fraction(1, 200)
    base = alexiewicz_norm(unit(), tol)
    combo = alexiewicz_norm(OscCombination.of({1: Fraction(1, 2), 3: 2}), tol)
    assert abs(combo.lo - 2 * base.lo) <= 4 * tol
    assert abs(combo.hi - 2 * base.hi) <= 4 * tol


def test_alexiewicz_zero_combination():
    assert alexiewicz_norm(OscCombination(), Fraction(1, 10)) == Enclosure.point(Fraction(0))


def test_alexiewicz_queue_budget():
    with pytest.raises(InconclusiveAtBudget) as spent:
        alexiewicz_norm(unit(), Fraction(1, 10**9), queue_limit=1)
    assert spent.value.budget == {"tolerance": Fraction(1, 10**9), "queue_limit": 1}


def test_alexiewicz_same_on_cold_and_warm_branch_memo():
    # the bundled report's inputs, plus one mixed-sign combination
    tol = Fraction(1, 1000)
    combos = [{1: 1}, {2: 1}, {3: 1},
              *_draw_combinations(random.Random(97), 3),
              {1: Fraction(-5, 2), 2: 3, 4: Fraction(-1, 3)}]
    cold = []
    for coeffs in combos:
        _unit_measure.cache_clear()
        _sin_pi_fx.cache_clear()
        cold.append(alexiewicz_norm(OscCombination.of(coeffs), tol))
    warm = [alexiewicz_norm(OscCombination.of(c), tol) for c in reversed(combos)]
    assert _unit_measure.cache_info().hits > 0
    assert cold == warm[::-1]
    # a warm memo does not let the search outrun its queue budget
    with pytest.raises(InconclusiveAtBudget):
        alexiewicz_norm(OscCombination.of(combos[-1]), Fraction(1, 10**9), queue_limit=1)


def reference_alexiewicz(obj, tol, precision=64, queue_limit=100_000):
    """Reference: the branch and bound on x-boxes through primitive_at."""
    tol = Fraction(tol)
    if isinstance(obj, OscCombination):
        if obj.is_zero:
            return Enclosure(Fraction(0), Fraction(0))
        spans = [OscCombination.support(k) for k, _ in obj.alphas]
    else:
        spans = [(obj.lo, obj.hi)]

    def box_bound(lo, hi):
        return abs(obj.primitive_at(Enclosure(lo, hi), precision)).hi

    def point_floor(x):
        return obj.primitive_at(x, precision + 32).mignitude()

    floor = Fraction(0)
    heap, by_bound, live = [], [], set()

    def push(lo, hi, bound):
        heapq.heappush(heap, (-(hi - lo), lo, hi, bound))
        heapq.heappush(by_bound, (-bound, lo, hi))
        live.add((lo, hi))

    for lo, hi in spans:
        floor = max(floor, point_floor((lo + hi) / 2))
        push(lo, hi, box_bound(lo, hi))
    while heap:
        while (by_bound[0][1], by_bound[0][2]) not in live:
            heapq.heappop(by_bound)
        ceiling = max(-by_bound[0][0], floor)
        if ceiling - floor <= tol:
            return Enclosure(floor, ceiling)
        _, lo, hi, bound = heapq.heappop(heap)
        live.discard((lo, hi))
        if bound <= floor:
            continue
        mid = (lo + hi) / 2
        for a, b in ((lo, mid), (mid, hi)):
            floor = max(floor, point_floor((a + b) / 2))
            child = box_bound(a, b)
            if child > floor:
                push(a, b, child)
        if len(heap) > queue_limit:
            raise InconclusiveAtBudget(
                f"{len(heap)} boxes alive at tolerance {tol}",
                {"tolerance": tol, "queue_limit": queue_limit})
    return Enclosure(floor, floor)


def search_outcome(search, *args, **kwargs):
    """The search's result, or the InconclusiveAtBudget it raised."""
    try:
        return search(*args, **kwargs)
    except InconclusiveAtBudget as spent:
        return spent


_ALPHAS = st.builds(lambda mag, neg: -mag if neg else mag,
                    st.fractions(min_value=Fraction(1, 4), max_value=5, max_denominator=64),
                    st.booleans())
_TOLERANCES = st.integers(min_value=1, max_value=4).flatmap(
    lambda e: st.integers(min_value=1, max_value=9).map(lambda m: Fraction(m, 10**e)))


@given(st.dictionaries(st.integers(min_value=1, max_value=8), _ALPHAS,
                       min_size=1, max_size=8),
       _TOLERANCES, st.integers(min_value=32, max_value=128),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_alexiewicz_matches_reference_on_combinations(coeffs, tol, precision, queue_limit):
    c = OscCombination.of(coeffs)
    got = search_outcome(alexiewicz_norm, c, tol, precision, queue_limit)
    assert got.as_json() == search_outcome(reference_alexiewicz, c, tol, precision,
                                           queue_limit).as_json()


@given(st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=97),
       st.fractions(min_value=Fraction(1, 50), max_value=1, max_denominator=97),
       st.sampled_from(("primitive", "derivative")),
       _TOLERANCES, st.integers(min_value=32, max_value=128),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=40, deadline=None)
def test_alexiewicz_matches_reference_on_single_oscillators(lo, length, kind, tol, precision,
                                                             queue_limit):
    o = Oscillator(lo, min(lo + length, Fraction(1)), kind=kind)
    if kind == "primitive":
        with pytest.raises(ValueError, match="derivative-kind"):
            alexiewicz_norm(o, tol, precision, queue_limit)
        return
    got = search_outcome(alexiewicz_norm, o, tol, precision, queue_limit)
    assert got.as_json() == search_outcome(reference_alexiewicz, o, tol, precision,
                                           queue_limit).as_json()


def test_alexiewicz_matches_reference_at_the_default_queue():
    cases = [(OscCombination.of({1: Fraction(-5, 2), 2: 3, 4: Fraction(-1, 3)}),
              Fraction(1, 10**4), 96),
             (OscCombination.of({3: Fraction(7, 4), 6: Fraction(-7, 4)}), Fraction(1, 1000), 64),
             (Oscillator(Fraction(2, 9), Fraction(4, 9)), Fraction(1, 100), 32)]
    for obj, tol, precision in cases:
        got = alexiewicz_norm(obj, tol, precision)
        assert isinstance(got, Enclosure)
        assert got == reference_alexiewicz(obj, tol, precision)
    # the primitive of a primitive-kind oscillator is not the unit hump
    with pytest.raises(ValueError, match="derivative-kind"):
        alexiewicz_norm(Oscillator(Fraction(1, 3), Fraction(5, 7), "primitive"),
                        Fraction(1, 10**4), 128)


@pytest.mark.parametrize("coeffs", [
    {1: 1, 2: 1, 3: 1},  # equal bounds across supports: ties broken by (rank, n)
    {2: Fraction(-3, 2), 5: Fraction(3, 2)},
    {1: Fraction(1, 3), 2: Fraction(-2, 7), 4: Fraction(5, 9)},  # mixed denominators
])
@pytest.mark.parametrize("tol, queue_limit", [(Fraction(1, 100), 100_000),
                                              (Fraction(1, 1000), 100_000),
                                              (Fraction(1, 10**6), 40)])
def test_alexiewicz_ties_and_mixed_denominators(coeffs, tol, queue_limit):
    c = OscCombination.of(coeffs)
    got = search_outcome(alexiewicz_norm, c, tol, queue_limit=queue_limit)
    assert got.as_json() == search_outcome(reference_alexiewicz, c, tol,
                                           queue_limit=queue_limit).as_json()


def test_check_alexiewicz_search_path():
    # the boxes the bisection visits, not only the bytes it returns
    # (calls, misses): a node and its mirror share one memo entry
    def counts():
        info = _unit_measure.cache_info()
        return info.hits + info.misses, info.misses

    _unit_measure.cache_clear()
    outcome = _check_alexiewicz((2, 3), _draw_combinations(_seeded(), 3))
    assert exit_code(jsonable(outcome)) == 0
    assert counts() == (2521, 258)
    _unit_measure.cache_clear()
    alexiewicz_norm(OscCombination.of({1: 1}), Fraction(1, 1000))
    assert counts() == (185, 96)


def test_derivative_sine_shares_the_primitive_phase_key():
    x = Fraction(777, 2000)
    _sin_pi_fx.cache_clear()
    osc_eval(Oscillator(kind="primitive"), x, 128)
    before = _sin_pi_fx.cache_info()
    osc_eval(Oscillator(kind="derivative"), x, 128)
    after = _sin_pi_fx.cache_info()
    # the sine finds the primitive's entry; only the cosine's phase is new
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)


@pytest.mark.parametrize("x, t", [(Fraction(3, 10), Fraction(1, 5)),
                                  (Fraction(7, 16), Fraction(3, 4))])
def test_host_chart_ends_are_reduced_to_the_unit_phase_key(x, t):
    # x on [1/4, 1/2] charts to t on [0, 1]; in lowest terms, the host's
    # phase key is the unit oscillator's at t, so the second call only hits
    _sin_pi_fx.cache_clear()
    host = osc_eval(Oscillator(Fraction(1, 4), Fraction(1, 2), kind="primitive"), x, 128)
    before = _sin_pi_fx.cache_info()
    assert osc_eval(Oscillator(kind="primitive"), t, 128) == host
    after = _sin_pi_fx.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def test_check_alexiewicz_sin_pi_effort():
    # the bisection's children share phase endpoints with their parent
    # and their siblings, so about half the kernel points are asked for
    # again; a box's mirror is answered by the node memo, not here
    _unit_measure.cache_clear()
    _sin_pi_fx.cache_clear()
    outcome = _check_alexiewicz((2, 3), _draw_combinations(_seeded(), 3))
    assert exit_code(jsonable(outcome)) == 0
    info = _sin_pi_fx.cache_info()
    assert (info.hits, info.misses) == (378, 386)


# -- exact oracle: the unit chart in Fraction arithmetic throughout -----------


def reference_derivative_half(s_lo, s_hi, precision):
    """The derivative branch in Fraction interval arithmetic."""
    if s_lo <= 0:
        raise UnboundedSpan("derivative is unbounded approaching the edge")
    s = Enclosure(s_lo, s_hi)
    sq = Enclosure(s_lo * s_lo, s_hi * s_hi) * 4
    phase = Enclosure(1 / sq.hi, 1 / sq.lo)
    swing = 8 * s * reference_sin_pi(phase, precision)
    pull = 2 * pi_const(precision) * (1 / s) * reference_cos_pi(phase, precision)
    return swing - pull


def reference_primitive_half(s_lo, s_hi, precision):
    """The primitive branch in Fraction interval arithmetic."""
    sq = Enclosure(s_lo * s_lo, s_hi * s_hi) * 4
    if s_lo == 0:
        return Enclosure(-sq.hi, sq.hi)
    phase = Enclosure(1 / sq.hi, 1 / sq.lo)
    return sq * reference_sin_pi(phase, precision)


def _ints(*ends):
    """Fraction chart ends as the integers (n, d, ...) the unit-chart helpers take."""
    return [v for q in ends for v in (q.numerator, q.denominator)]


def _enclosure(ends):
    lo_n, lo_d, hi_n, hi_d = ends
    return Enclosure(Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))


def unit_branch(t_lo, t_hi, precision, primitive):
    """The oscillator's integer _unit_branch, called and answered in Fractions."""
    return _enclosure(_unit_branch(*_ints(t_lo, t_hi), precision, primitive))


def _half(primitive, oracle):
    """A half-branch in Fractions: the Fraction oracle, or the oscillator's own."""
    if oracle:
        return reference_primitive_half if primitive else reference_derivative_half
    half = oscillator._primitive_half if primitive else oscillator._derivative_half
    return lambda s_lo, s_hi, precision: _enclosure(half(*_ints(s_lo, s_hi), precision))


def _or_unbounded(fn, *args):
    try:
        return fn(*args)
    except UnboundedSpan:  # a derivative box that reaches 0 or 1
        return "unbounded"


def _dyadic_box(d, i):
    return Fraction(i, 1 << d), Fraction(i + 1, 1 << d)


_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=997)
_CHART_BOXES = st.one_of(
    # dyadic boxes, as the branch and bound cuts them
    st.integers(min_value=0, max_value=14).flatmap(
        lambda d: st.integers(min_value=0, max_value=(1 << d) - 1).map(
            lambda i: _dyadic_box(d, i))),
    # points of the 1/2000 grid, as the finite-difference check takes them
    st.integers(min_value=0, max_value=2000).map(lambda x: (Fraction(x, 2000),) * 2),
    # non-dyadic intervals
    st.tuples(_UNIT, _UNIT).map(sorted),
    # boxes straddling 1/2
    st.tuples(st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=997),
              st.fractions(min_value=Fraction(1, 2), max_value=1, max_denominator=997)),
    # the endpoints 0 and 1, as points and as box ends
    st.sampled_from([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)),
                     (Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(1, 2))]),
    _UNIT.map(lambda x: (Fraction(0), x)),
    _UNIT.map(lambda x: (x, Fraction(1))),
)


@given(_CHART_BOXES, PRECISIONS, st.booleans())
@settings(max_examples=300, deadline=None)
def test_unit_branch_is_the_fraction_reference(box, precision, primitive):
    args = (*box, precision, primitive)
    assert _or_unbounded(unit_branch, *args) == _or_unbounded(reference_unit_branch, *args, True)


@given(st.integers(min_value=0, max_value=14).flatmap(
           lambda d: st.tuples(st.just(d), st.integers(0, max((1 << d) // 2 - 1, 0)))),
       PRECISIONS)
@settings(max_examples=150, deadline=None)
def test_unit_measure_is_the_fraction_reference(box, precision):
    d, i = box
    want = reference_unit_measure((1 << d) + i, precision, True)
    assert _unit_measure(*box, precision) == want


# -- mirror oracle: both half-branches evaluated, mirrored and hulled ----------


def reference_unit_branch(t_lo, t_hi, precision, primitive, oracle=False):
    """Reference: each half-branch the box meets, evaluated and hulled.

    oracle evaluates the half-branches in Fraction arithmetic throughout.
    """
    if t_lo == t_hi and (t_lo == 0 or t_lo == 1):
        return Enclosure(Fraction(0), Fraction(0))
    half = _half(primitive, oracle)
    parts = []
    if t_lo <= Fraction(1, 2):
        parts.append(half(t_lo, min(t_hi, Fraction(1, 2)), precision))
    if t_hi > Fraction(1, 2):
        mirrored = half(1 - t_hi, 1 - max(t_lo, Fraction(1, 2)), precision)
        parts.append(-mirrored if primitive else mirrored)
    out = parts[0]
    for piece in parts[1:]:
        out = out.hull(piece)
    return out


def reference_unit_measure(n, precision, oracle=False):
    """Reference: node n = 2^d + i measured on its own box, both halves hulled."""
    d = n.bit_length() - 1
    i = n - (1 << d)
    t = Fraction(2 * i + 1, 2 << d)
    point = reference_unit_branch(t, t, precision + 32, True, oracle).mignitude()
    box = reference_unit_branch(*_dyadic_box(d, i), precision, True, oracle).mag()
    grid = max(point.denominator, box.denominator)
    return (point.numerator * (grid // point.denominator),
            box.numerator * (grid // box.denominator), grid.bit_length() - 1)


def reference_slope_bound(o, x_lo, x_hi, precision=48):
    """Reference: the larger of the left- and right-branch bounds the span meets."""
    a, b = Fraction(x_lo), Fraction(x_hi)
    t_lo, t_hi = (a - o.lo) / o.length, (b - o.lo) / o.length
    pi_hi = pi_const(precision).hi
    bound = Fraction(0)
    if t_lo < Fraction(1, 2):
        bound = 8 + 2 * pi_hi / t_lo ** 2 + pi_hi ** 2 / t_lo ** 4
    if t_hi > Fraction(1, 2):
        t = 1 - t_hi
        bound = max(bound, 8 + 2 * pi_hi / t ** 2 + pi_hi ** 2 / t ** 4)
    return bound / o.length ** 2


def _left_half(d, i):
    """Whether box i of depth d lies in [0, 1/2], or is the root [0, 1]."""
    return d == 0 or 2 * (i + 1) <= 1 << d


@pytest.mark.parametrize("precision", (64, 96))
def test_unit_measure_mirrors_the_left_half(precision):
    # every node of the first nine depths, the root [0, 1] among them
    for n in range(1, 1 << 9):
        d = n.bit_length() - 1
        i = n - (1 << d)
        left = i if _left_half(d, i) else (1 << d) - 1 - i
        assert _unit_measure.__wrapped__(d, left, precision) == reference_unit_measure(
            n, precision)


def test_unit_measure_mirrors_on_the_check_alexiewicz_nodes(monkeypatch):
    seen = set()

    def record(d, i, precision):
        seen.add((d, i, precision))
        return _unit_measure(d, i, precision)

    monkeypatch.setattr(oscillator, "_unit_measure", record)
    _check_alexiewicz((2, 3), _draw_combinations(_seeded(), 3))
    assert max(d for d, _, _ in seen) >= 9
    for d, i, precision in sorted(seen):
        assert _left_half(d, i)
        got = _unit_measure.__wrapped__(d, i, precision)
        # the box and its mirror, each measured on its own
        assert got == reference_unit_measure((1 << d) + i, precision)
        assert got == reference_unit_measure((2 << d) - 1 - i, precision)


_HALF = Fraction(1, 2)
_MIRROR_BOXES = [
    # points: the ends, the centre, and a pair of mirror points
    (Fraction(0), Fraction(0)), (_HALF, _HALF), (Fraction(1), Fraction(1)),
    (Fraction(3, 10), Fraction(3, 10)), (Fraction(7, 10), Fraction(7, 10)),
    # boxes ending or starting at 1/2, and their neighbours
    (Fraction(1, 4), _HALF), (_HALF, Fraction(3, 4)), (Fraction(3, 8), _HALF),
    (_HALF, Fraction(5, 8)), (Fraction(1, 3), _HALF), (_HALF, Fraction(2, 3)),
    # boxes straddling 1/2, symmetric and not
    (Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 3), Fraction(5, 9)),
    (Fraction(49, 100), Fraction(51, 100)), (Fraction(2, 5), Fraction(9, 10)),
    # boxes reaching an end
    (Fraction(0), _HALF), (_HALF, Fraction(1)), (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(1, 8)), (Fraction(7, 8), Fraction(1)),
    (Fraction(1, 8), Fraction(1)), (Fraction(0), Fraction(7, 8)),
]


@pytest.mark.parametrize("primitive", (True, False))
@pytest.mark.parametrize("box", _MIRROR_BOXES, ids=lambda box: f"{box[0]}..{box[1]}")
def test_unit_branch_matches_both_halves_on_the_mirror_cases(box, primitive):
    for precision in (32, 64, 128):
        args = (*box, precision, primitive)
        assert _or_unbounded(unit_branch, *args) == _or_unbounded(reference_unit_branch, *args)


@given(_CHART_BOXES, PRECISIONS, st.booleans())
@settings(max_examples=200, deadline=None)
def test_unit_branch_matches_both_halves(box, precision, primitive):
    args = (*box, precision, primitive)
    assert _or_unbounded(unit_branch, *args) == _or_unbounded(reference_unit_branch, *args)


def test_alexiewicz_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        alexiewicz_norm(unit(), 0)


# -- slope bound ------------------------------------------------------------


def test_slope_bound_requires_interior_span():
    with pytest.raises(UnboundedSpan):
        slope_bound(unit(), Fraction(0), Fraction(1, 2))
    with pytest.raises(UnboundedSpan):
        slope_bound(Oscillator(Fraction(1, 4), Fraction(1, 2)),
                    Fraction(1, 8), Fraction(3, 8))


@given(st.integers(min_value=100, max_value=1899))
@settings(max_examples=60, deadline=None)
def test_slope_bound_controls_finite_differences(n):
    o = unit()
    x = Fraction(n, 2000)
    h = Fraction(1, 2**30)
    bound = slope_bound(o, x, x + h)
    d1 = o.derivative_at(x, precision=80)
    d2 = o.derivative_at(x + h, precision=80)
    gap = abs(d2 - d1).hi  # includes both enclosure widths
    assert gap <= bound * h + Fraction(1, 2**60)


_SLOPE_SPANS = [
    # left of 1/2, ending at it, across it, starting at it, right of it
    (Fraction(1, 10), Fraction(3, 10)), (Fraction(1, 5), _HALF),
    (Fraction(1, 5), Fraction(7, 10)), (Fraction(3, 10), Fraction(9, 10)),
    (Fraction(1, 10), Fraction(9, 10)), (_HALF, Fraction(7, 10)),
    (Fraction(7, 10), Fraction(19, 20)), (Fraction(1, 1000), Fraction(999, 1000)),
]


@pytest.mark.parametrize("host", [(Fraction(0), Fraction(1)), (Fraction(1, 4), Fraction(1, 2))],
                         ids=("unit", "dyadic"))
@pytest.mark.parametrize("span", _SLOPE_SPANS, ids=lambda span: f"{span[0]}..{span[1]}")
def test_slope_bound_is_the_larger_branch_bound(host, span):
    o = Oscillator(*host)
    a, b = (o.lo + o.length * t for t in span)
    for precision in (32, 48, 96):
        assert slope_bound(o, a, b, precision) == reference_slope_bound(o, a, b, precision)


@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000),
                    max_denominator=1000),
       st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000),
                    max_denominator=1000),
       st.sampled_from([(Fraction(0), Fraction(1)), (Fraction(1, 8), Fraction(1, 4))]))
@settings(max_examples=100, deadline=None)
def test_slope_bound_matches_the_branch_max(t1, t2, host):
    assume(t1 != t2)
    o = Oscillator(*host)
    a, b = (o.lo + o.length * t for t in sorted((t1, t2)))
    assert slope_bound(o, a, b) == reference_slope_bound(o, a, b)


def test_osc_eval_alias():
    assert osc_eval(unit(), Fraction(1, 2)) == unit().derivative_at(Fraction(1, 2))
