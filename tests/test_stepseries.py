"""Step series over Cantor towers: norms, witnesses, and inequalities.

Closed forms used as frozen oracles:
  * tilt 3/2 on even generations of the dyadic tower sums to
    sum_k (9/16)^k = 9/7 in L1;
  * tilt 3/2 on all generations sums to sum_k (3/4)^k = 3.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from realcert import stepseries
from realcert.cantor import InfeasibleMass, TowerSpec
from realcert.certificates import InconclusiveAtBudget, canonical_dumps, jsonable
from realcert.enclosure import Enclosure
from realcert.rational import SpecError
from realcert.stepseries import (
    DivergentTail,
    DominanceIndex,
    EvalVerdict,
    IntervalTooShort,
    MonomialCombination,
    MonomialRow,
    NotDominant,
    PowerAlongSubsequence,
    StepFunction,
    StepSeries,
    UnboundedWitness,
    basis_inequality_check,
    comeager_perturbation,
    disjoint_power_family,
    dominance_index,
    eval_series,
    l1_norm,
    unbounded_witness,
)


def even_tilt_series() -> StepSeries:
    return StepSeries(TowerSpec("dyadic"), PowerAlongSubsequence(Fraction(3, 2), "arith:2:2"))


# -- rules ------------------------------------------------------------------


def test_subsequence_exponents():
    assert [PowerAlongSubsequence(Fraction(2, 1) + 1, "all").exponent(j) for j in (1, 2, 3)] == [1, 2, 3]
    assert [PowerAlongSubsequence(Fraction(3, 2), "even").exponent(j) for j in (1, 2)] == [2, 4]
    assert [PowerAlongSubsequence(Fraction(3, 2), "odd").exponent(j) for j in (1, 2)] == [1, 3]
    r = PowerAlongSubsequence(Fraction(3, 2), "arith:5:3")
    assert [r.exponent(j) for j in (1, 2)] == [5, 8]
    assert r.support_contains(8) and not r.support_contains(6)
    fin = PowerAlongSubsequence(Fraction(3, 2), (2, 7))
    assert fin.term_limit == 2
    with pytest.raises(IndexError):
        fin.exponent(3)


def test_rule_validation():
    with pytest.raises(ValueError):
        PowerAlongSubsequence(Fraction(1), "all")
    with pytest.raises(ValueError):
        PowerAlongSubsequence(Fraction(3, 2), "geom:1:2")
    with pytest.raises(ValueError):
        PowerAlongSubsequence(Fraction(3, 2), (3, 3))
    with pytest.raises(ValueError):
        MonomialRow(Fraction(1), (0, 0))
    with pytest.raises(ValueError):
        MonomialCombination((2, 1), (MonomialRow(Fraction(1), (1, 0)),))


def test_series_json_round_trip():
    # the reader refuses a power-rule theta above TILT_CEILING = 2; the library takes it
    steep = StepSeries(TowerSpec("factorial"), PowerAlongSubsequence(Fraction(5, 2), (1, 4, 9)))
    with pytest.raises(SpecError, match=r"^body\.rule\.power\.theta: value above the ceiling 2$"):
        StepSeries.from_json(steep.as_json())
    for s in (
        even_tilt_series(),
        StepSeries(TowerSpec("factorial"), PowerAlongSubsequence(Fraction(7, 4), (1, 4, 9))),
        StepSeries(
            TowerSpec("dyadic"),
            MonomialCombination((2, 3), (MonomialRow(Fraction(1, 2), (1, 1)),
                                         MonomialRow(Fraction(-1), (0, 2)))),
        ),
    ):
        assert StepSeries.from_json(s.as_json()) == s
        assert StepSeries.from_json(json.loads(canonical_dumps(s))) == s


def test_value_at_generation():
    s = even_tilt_series()
    assert s.value_at_generation(2) == Fraction(9, 4)
    assert s.value_at_generation(3) == 0
    m = StepSeries(
        TowerSpec("dyadic"),
        MonomialCombination((2, 3), (MonomialRow(Fraction(1), (1, 0)),
                                     MonomialRow(Fraction(1), (0, 1)))),
    )
    assert m.value_at_generation(2) == 4 + 9


# -- pointwise evaluation ---------------------------------------------------


def test_eval_zero_on_skeleton():
    s = even_tilt_series()
    for x in (Fraction(0), Fraction(1), Fraction(3, 8), Fraction(5, 8)):
        v = eval_series(s, x, maxgen=6, depth=6)
        assert isinstance(v, EvalVerdict)
        assert jsonable(v)["verdict"] == "zero" and jsonable(v)["value"] == "0/1"
        # stability: a deeper budget never contradicts the verdict
        assert eval_series(s, x, maxgen=20, depth=20) == v


def test_eval_center_stays_unknown():
    # 1/2 is the center of every nested hole, never on the skeleton
    with pytest.raises(InconclusiveAtBudget) as spent:
        eval_series(even_tilt_series(), Fraction(1, 2), maxgen=8, depth=8)
    assert spent.value == InconclusiveAtBudget(
        "inside a generation-8 hole at the generation budget", {"maxgen": 8, "depth": 8})
    # a point in a kept interval runs out of depth instead
    with pytest.raises(InconclusiveAtBudget) as spent:
        eval_series(even_tilt_series(), Fraction(1, 3), maxgen=8, depth=8)
    assert spent.value.reason == "still in a kept interval of generation 1 at depth 8"


def test_eval_in_last_explicit_hole_is_zero():
    # 1/2 sits in the central hole of every generation; the third is the last
    s = StepSeries(TowerSpec("explicit", (Fraction(1, 4), Fraction(1, 4), Fraction(1, 8))),
                   PowerAlongSubsequence(Fraction(3, 2), "all"))
    v = eval_series(s, Fraction(1, 2))
    assert v == EvalVerdict(
        3, "inside a hole of the last generation 3, which no generation fills")
    assert jsonable(v) == {"verdict": "zero", "detail": v.detail, "value": "0/1",
                           "generation": 3}
    # with fewer generations allowed than the tower has, the budget runs out
    with pytest.raises(InconclusiveAtBudget):
        eval_series(s, Fraction(1, 2), maxgen=2)


def test_eval_rejects_outside_points():
    with pytest.raises(ValueError):
        eval_series(even_tilt_series(), Fraction(3, 2))


# -- L1 norm ----------------------------------------------------------------


def test_l1_norm_even_tilt_oracle():
    enc = l1_norm(even_tilt_series(), terms=40, depth=20)
    assert enc.contains(Fraction(9, 7))
    assert enc.hi - enc.lo < Fraction(1, 1000)


def test_l1_norm_full_support_oracle():
    s = StepSeries(TowerSpec("dyadic"), PowerAlongSubsequence(Fraction(3, 2), "all"))
    enc = l1_norm(s, terms=60, depth=20)
    assert enc.contains(Fraction(3))
    assert enc.hi - enc.lo < Fraction(1, 1000)


def test_l1_norm_finite_series_is_tailless():
    # explicit exponents make the sum finite; tilt 2 is then harmless
    s = StepSeries(TowerSpec("dyadic"), PowerAlongSubsequence(Fraction(2), (1, 2)))
    enc = l1_norm(s, terms=10, depth=24)
    assert enc.contains(Fraction(2 * 1, 2) + Fraction(4 * 1, 4))
    assert enc.hi - enc.lo < Fraction(1, 1000)


_FOUR_GENERATIONS = TowerSpec("explicit", tuple(Fraction(1, 2**j) for j in range(2, 6)))


def test_l1_norm_on_an_explicit_tower_sums_only_the_rule_generations():
    def norm(subseq):
        return l1_norm(StepSeries(_FOUR_GENERATIONS, PowerAlongSubsequence(Fraction(3, 2), subseq)))

    # no generation of arith:5:2 lies on the tower
    assert norm("arith:5:2") == Enclosure(Fraction(0), Fraction(0))
    # generations 1 and 3: (3/2)/4 + (27/8)/16
    enc = norm("arith:1:2")
    assert enc.contains(Fraction(75, 128))
    assert enc.hi - enc.lo < Fraction(1, 10**6)


@pytest.mark.parametrize("subseq, terms, exact", [
    ("arith:1:2", 1, Fraction(75, 128)),  # generation 3 in the tail, not 2 or 4
    ("arith:2:2", 1, Fraction(9, 32) + Fraction(81, 512)),  # generation 4 in the tail
    ("all", 2, sum(Fraction(3, 2)**j * Fraction(1, 2**(j + 1)) for j in range(1, 5))),
])
def test_l1_norm_explicit_tail_is_the_rule_remainder(subseq, terms, exact):
    # past the term budget, the tail adds the exact remainder to the upper end
    s = StepSeries(_FOUR_GENERATIONS, PowerAlongSubsequence(Fraction(3, 2), subseq))
    enc = l1_norm(s, terms=terms)
    assert enc.contains(exact)
    assert enc.hi - exact < Fraction(1, 10**6)


def test_l1_norm_refuses_an_infeasible_explicit_tower_past_the_rule():
    tower = TowerSpec("explicit", (Fraction(1, 4), Fraction(1, 8), Fraction(2)))
    with pytest.raises(InfeasibleMass):
        l1_norm(StepSeries(tower, PowerAlongSubsequence(Fraction(3, 2), "arith:5:2")))


def test_l1_norm_divergent_tilt_refused():
    s = StepSeries(TowerSpec("dyadic"), PowerAlongSubsequence(Fraction(2), "all"))
    with pytest.raises(DivergentTail):
        l1_norm(s, terms=8, depth=8)


def test_l1_norm_factorial_tower_handles_large_tilt():
    # 1/2 sum theta^j / j! converges for every tilt; reference (e^3 - 1)/2
    from mpmath import mp

    mp.prec = 160
    s = StepSeries(TowerSpec("factorial"), PowerAlongSubsequence(Fraction(3), "all"))
    enc = l1_norm(s, terms=30, depth=20)
    ref = (mp.e**3 - 1) / 2
    assert mp.mpf(enc.lo.numerator) / enc.lo.denominator < ref
    assert mp.mpf(enc.hi.numerator) / enc.hi.denominator > ref
    assert enc.hi - enc.lo < Fraction(1, 100)


@pytest.mark.parametrize("theta, last", [(3, 2), (10, 2), (10, 12), (50, 1)])
def test_factorial_power_tail_sums_terms_before_its_geometric_bound(theta, last):
    # theta / (last + 2) > 1/2: terms are summed one by one until the ratio
    # of successive terms falls to 1/2, then twice the next term bounds the rest
    from mpmath import mp

    tail = stepseries._power_tail(TowerSpec("factorial"), Fraction(theta), last)
    with mp.workprec(200):
        exact = (mp.exp(theta) - sum(mp.mpf(theta)**m / mp.factorial(m)
                                     for m in range(last + 1))) / 2
        bound = mp.mpf(tail.numerator) / tail.denominator
        assert exact < bound <= 2 * exact
    s = StepSeries(TowerSpec("factorial"), PowerAlongSubsequence(Fraction(theta), "all"))
    enc = l1_norm(s, terms=last, depth=20)
    with mp.workprec(200):
        ref = (mp.exp(theta) - 1) / 2
        assert mp.mpf(enc.lo.numerator) / enc.lo.denominator < ref
        assert ref < mp.mpf(enc.hi.numerator) / enc.hi.denominator


def test_l1_norm_monomial_rule_on_an_explicit_tower_adds_the_exact_rest():
    # value 2^j on generation j, whose mass is 2^-(j+1): each adds 1/2
    rule = MonomialCombination((2,), (MonomialRow(Fraction(1), (1,)),))
    s = StepSeries(_FOUR_GENERATIONS, rule)
    exact = sum(rule.value_at(j) * _FOUR_GENERATIONS.mass(j) for j in range(1, 5))
    assert exact == 2
    assert stepseries._power_tail(_FOUR_GENERATIONS, Fraction(2), 1) == Fraction(3, 2)
    for terms in (1, 2, 3):
        enc = l1_norm(s, terms=terms)
        assert enc.contains(exact)
        assert enc.hi - exact < Fraction(1, 10**6)


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=8, max_value=20))
@settings(max_examples=30, deadline=None)
def test_l1_norm_budgets_nest(terms, depth):
    wide = l1_norm(even_tilt_series(), terms=terms, depth=depth)
    tight = l1_norm(even_tilt_series(), terms=terms + 8, depth=depth + 4)
    assert wide.lo <= tight.lo and tight.hi <= wide.hi + Fraction(1, 2**40)
    assert wide.contains(Fraction(9, 7))


def test_l1_norm_checks_each_generation_once(monkeypatch):
    # one rho per generation, not one per generation per term
    calls = []
    real = TowerSpec.rho
    monkeypatch.setattr(TowerSpec, "rho", lambda self, j: calls.append(j) or real(self, j))
    s = StepSeries(TowerSpec("dyadic"), PowerAlongSubsequence(Fraction(3, 2), "all"))
    enc = l1_norm.__wrapped__(s, terms=200)  # past the memo
    assert calls == list(range(1, 201))
    assert enc.contains(3)


# -- unboundedness ----------------------------------------------------------


def test_unbounded_witness_first_hole():
    got = unbounded_witness(even_tilt_series(), Fraction(3, 8), Fraction(5, 8), 2)
    assert isinstance(got, UnboundedWitness)
    assert got.generation == 2 and got.value == Fraction(9, 4)
    a, b = got.component.span
    assert Fraction(3, 8) <= a < b <= Fraction(5, 8)


def test_unbounded_witness_clears_large_bar():
    got = unbounded_witness(even_tilt_series(), Fraction(3, 8), Fraction(5, 8),
                            10**6, maxgen=40, depth=24)
    assert isinstance(got, UnboundedWitness)
    assert abs(got.value) > 10**6
    assert got.value == Fraction(3, 2) ** got.generation


def test_unbounded_witness_tiny_budget_inconclusive():
    with pytest.raises(InconclusiveAtBudget) as spent:
        unbounded_witness(even_tilt_series(), Fraction(3, 8), Fraction(5, 8), 2, maxgen=1)
    assert spent.value.budget["maxgen"] == 1


# -- dominance --------------------------------------------------------------


def test_dominance_oracle_pair():
    d = dominance_index((1, 1), (3, 2))
    assert d == DominanceIndex(2, Fraction(4), Fraction(9, 2), (Fraction(2), Fraction(3, 2)))
    d2 = dominance_index((2, 1, 1), (5, 3, 2))
    assert d2.j0 == 2 and d2.fails_before == (Fraction(5), Fraction(5))


def test_dominance_immediate():
    d = dominance_index((1, Fraction(1, 100)), (3, 2))
    assert d.j0 == 1 and d.fails_before is None


def test_dominance_validation():
    with pytest.raises(NotDominant):
        dominance_index((1, 1), (2, 3))
    with pytest.raises(NotDominant):
        dominance_index((1, 1), (3, 3))
    with pytest.raises(ValueError):
        dominance_index((0, 1), (3, 2))
    with pytest.raises(ValueError):
        dominance_index((1,), (3, 2))


@given(st.lists(st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=20),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_dominance_certifies_at_j0(betas):
    betas = [Fraction(1)] + betas
    thetas = [Fraction(7)] + [Fraction(2 + i) for i in range(len(betas) - 1)]
    d = dominance_index(betas, thetas)
    # the defining inequality holds at j0 and, by decreasing ratios, later too
    for j in (d.j0, d.j0 + 1, d.j0 + 5):
        tail = sum(abs(b) * t**j for b, t in zip(betas[1:], thetas[1:]))
        assert tail < abs(betas[0]) * thetas[0] ** j / 2
    if d.fails_before is not None:
        tail, half = d.fails_before
        assert tail >= half


# -- basis inequality -------------------------------------------------------


def test_disjoint_family_supports():
    fam = disjoint_power_family(Fraction(3, 2), 3)
    assert len(fam) == 3
    seen = set()
    for g in fam:
        exps = {g.rule.exponent(j) for j in range(1, 9)}
        assert not (seen & exps)
        seen |= exps


def test_basis_inequality_margin_is_exact():
    fam = disjoint_power_family(Fraction(3, 2), 3)
    got = basis_inequality_check((1, -2, Fraction(1, 3)), 1, 3, fam)
    assert got.margin_lower >= 0
    assert got.right.lo == got.left.lo + got.margin_lower
    assert got.right.hi >= got.left.hi


@given(st.lists(st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12),
                min_size=4, max_size=4),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_basis_inequality_random_vectors(coeffs, m1):
    fam = disjoint_power_family(Fraction(3, 2), 4)
    got = basis_inequality_check(coeffs, m1, 4, fam)
    assert got.margin_lower >= 0
    assert got.right.lo == got.left.lo + got.margin_lower


def reference_basis_inequality(coeffs, m1, m2, family, terms=24, depth=16):
    """The comparison by one Enclosure addition per member, in Fractions throughout."""
    norms = [l1_norm(g, terms, depth) for g in family[:m2]]
    left = right = Enclosure(Fraction(0), Fraction(0))
    margin = Fraction(0)
    for k, c in enumerate(map(Fraction, coeffs[:m2])):
        scaled = Enclosure(abs(c) * norms[k].lo, abs(c) * norms[k].hi)
        right = right + scaled
        if k < m1:
            left = left + scaled
        else:
            margin += abs(c) * norms[k].lo
    return left, right, margin


@given(st.lists(st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3,
                                                  max_denominator=12), min_size=6, max_size=6),
       st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=5),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_basis_inequality_is_the_enclosure_sum(coeffs, m2, drop, integers):
    # integer coefficients keep every lower end dyadic; a rational one takes
    # dyadic_sum's Fraction fallback
    if integers:
        coeffs = [Fraction(round(c)) for c in coeffs]
    m1 = max(1, m2 - drop)
    family = disjoint_power_family(Fraction(3, 2), 6)
    got = basis_inequality_check(coeffs, m1, m2, family)
    assert (got.left, got.right, got.margin_lower) == reference_basis_inequality(
        coeffs, m1, m2, family)


def test_basis_inequality_validation():
    fam = disjoint_power_family(Fraction(3, 2), 2)
    with pytest.raises(ValueError):
        basis_inequality_check((1, 1), 2, 1, fam)
    with pytest.raises(ValueError):
        basis_inequality_check((1,), 1, 2, fam)
    clash = (fam[0], fam[0])
    with pytest.raises(ValueError):
        basis_inequality_check((1, 1), 1, 2, clash)


def power(subseq, tower=TowerSpec("dyadic")) -> StepSeries:
    return StepSeries(tower, PowerAlongSubsequence(Fraction(3, 2), subseq))


@pytest.mark.parametrize("first,second,meet", [
    ("arith:1:2", "arith:201:2", True),  # first shared exponent 201 lies past 24 terms
    ("arith:1:2", "arith:2:2", False),
    ("arith:1:4", "arith:3:6", True),  # gcd 2 divides 1 - 3: both hold 9
    ("arith:1:4", "arith:2:6", False),
    ((3, 500), "even", True),
    ((3, 501), "even", False),
    ((3, 501), (5, 501), True),
], ids=["past-terms", "odd-even", "gcd-meets", "gcd-misses", "list-meets-rule",
        "list-misses-rule", "lists-meet"])
def test_basis_family_disjointness_is_decided_from_the_rules(first, second, meet):
    family = (power(first), power(second))
    for terms in (1, 24):
        if meet:
            with pytest.raises(ValueError, match="supports of members 1 and 2 overlap"):
                basis_inequality_check((1, -1), 1, 2, family, terms)
        else:
            assert basis_inequality_check((1, -1), 1, 2, family, terms).margin_lower > 0


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_rule_overlap_matches_a_scan_over_one_period(a, s, b, t):
    # past max(a, b) the shared exponents repeat with period lcm(s, t)
    scan = any(n % s == a % s and n % t == b % t
               for n in range(max(a, b), max(a, b) + s * t))
    rules = (PowerAlongSubsequence(2, f"arith:{a}:{s}"),
             PowerAlongSubsequence(2, f"arith:{b}:{t}"))
    assert stepseries._supports_meet(*rules, None) == scan


def test_basis_family_on_an_explicit_tower_counts_only_its_generations():
    tower = TowerSpec("explicit", tuple(Fraction(1, 2**j) for j in range(2, 6)))
    # both rules are odd, but generation 5 does not exist on a 4-generation tower
    family = (power("arith:1:2", tower), power("arith:5:2", tower))
    basis_inequality_check((1, -1), 1, 2, family)
    with pytest.raises(ValueError, match="overlap"):
        basis_inequality_check((1, -1), 1, 2, (power("arith:1:2", tower),
                                               power("arith:3:2", tower)))


def test_basis_family_needs_one_tower():
    family = (power("arith:1:2"), power("arith:2:2", TowerSpec("factorial")))
    with pytest.raises(ValueError, match="share one tower"):
        basis_inequality_check((1, -1), 1, 2, family)


# -- step functions and the perturbation ------------------------------------


def test_step_function_basics():
    f = StepFunction(((Fraction(0), Fraction(1, 2), Fraction(3)),
                      (Fraction(1, 2), Fraction(1), Fraction(-1))))
    assert f.value_at(Fraction(1, 4)) == 3
    assert f.value_at(Fraction(2)) == 0
    assert f.sup_abs() == 3
    g = f.overridden(Fraction(1, 4), Fraction(3, 4), Fraction(10))
    assert g.value_at(Fraction(1, 2)) == 10
    assert g.value_at(Fraction(1, 8)) == 3 and g.value_at(Fraction(7, 8)) == -1


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(((Fraction(1), Fraction(0), Fraction(1)),))
    with pytest.raises(ValueError):
        StepFunction(((Fraction(0), Fraction(1, 2), Fraction(1)),
                      (Fraction(1, 4), Fraction(3, 4), Fraction(1))))


def test_perturbation_exact_payload():
    got = comeager_perturbation(StepFunction(), Fraction(1), (Fraction(0), Fraction(1)),
                                Fraction(3, 5))
    assert got.window == (Fraction(0), Fraction(1, 10))
    assert got.g.value_at(Fraction(1, 20)) == 2
    p = got.as_json()
    assert p["window_measure"] == Fraction(1, 10)
    assert p["perturbation_l1_distance"] == Fraction(1, 5)
    assert p["half_radius"] == Fraction(3, 10)
    assert p["violation_threshold"] == Fraction(1, 10)
    assert p["radius_seventh"] == Fraction(3, 35)
    assert p["strict_gap_holds"] is True
    assert p["window"] == [Fraction(0), Fraction(1, 10)]


def test_perturbation_with_nonzero_base():
    f = StepFunction(((Fraction(0), Fraction(1), Fraction(-2)),))
    got = comeager_perturbation(f, Fraction(2), (Fraction(0), Fraction(1)), Fraction(1, 2))
    j_lo, j_hi = got.window
    # on the window the distance is |2N - f| = |4 - (-2)| = 6
    assert got.as_json()["perturbation_l1_distance"] == 6 * (j_hi - j_lo)
    assert got.as_json()["perturbation_l1_distance"] <= Fraction(1, 4)


def test_perturbation_window_must_fit():
    with pytest.raises(IntervalTooShort):
        comeager_perturbation(StepFunction(), Fraction(1), (Fraction(0), Fraction(1, 100)),
                              Fraction(3, 5))
    with pytest.raises(ValueError):
        comeager_perturbation(StepFunction(((Fraction(0), Fraction(1), Fraction(5)),)),
                              Fraction(1), (Fraction(0), Fraction(1)), Fraction(3, 5))
