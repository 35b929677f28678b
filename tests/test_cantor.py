"""Fat Cantor geometry and tower aggregation.

Level geometry has closed forms, so most checks are exact equalities.
The enumeration-based checks cross the lazy aggregated quantities
(kept measure, hole inventories, tower enclosures) against brute-force
interval arithmetic at small depths where materializing is cheap.
"""

import json
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from realcert.cantor import (
    CantorApprox,
    CantorSpec,
    ComponentWitness,
    DepthTooSmall,
    InfeasibleMass,
    TowerSpec,
    find_component,
    tower_generation,
)
from realcert.certificates import InconclusiveAtBudget, canonical_dumps
from realcert.rational import pow2


def unit_spec(mass=Fraction(1, 2)) -> CantorSpec:
    return CantorSpec(Fraction(0), Fraction(1), mass)


def measure(pairs) -> Fraction:
    return sum((hi - lo for lo, hi in pairs), Fraction(0))


def locate(pairs, x):
    """(inside, on_edge) for x against sorted, disjoint closed (lo, hi) pairs."""
    i = bisect_right(pairs, x, key=lambda iv: iv[0]) - 1
    if i < 0 or x > pairs[i][1]:
        return False, False
    return True, x in pairs[i]


def test_spec_validation():
    with pytest.raises(InfeasibleMass):
        CantorSpec(Fraction(1), Fraction(0), Fraction(1, 2))
    with pytest.raises(InfeasibleMass):
        CantorSpec(Fraction(0), Fraction(1), Fraction(1))
    with pytest.raises(InfeasibleMass):
        CantorSpec(Fraction(0), Fraction(1), Fraction(0))


def test_level_lengths_balance():
    spec = unit_spec(Fraction(3, 5))
    # splitting one level-n kept interval must conserve length
    for n in range(5):
        assert spec.kept_len(n) == 2 * spec.kept_len(n + 1) + spec.hole_len(n + 1)
    assert spec.kept_len(0) == spec.length


def test_kept_measure_closed_form():
    spec = unit_spec(Fraction(1, 2))
    for d in range(8):
        assert spec.kept_measure(d) == Fraction(1, 2) + Fraction(1, 2) * pow2(-d)
        assert 2**d * spec.kept_len(d) == spec.kept_measure(d)


@given(st.fractions(min_value=Fraction(1, 97), max_value=Fraction(96, 97), max_denominator=97),
       st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_enumerated_kept_matches_closed_form(mass, depth):
    approx = CantorApprox(unit_spec(mass), depth)
    assert measure(approx.kept) == approx.measure
    assert len(approx.kept) == 2**depth
    assert approx.measure_enclosure.contains(mass)


def test_holes_partition_the_removed_length():
    approx = CantorApprox(unit_spec(Fraction(2, 7)), 6)
    holes = []
    for n, hs in approx.holes:
        assert len(hs) == 2 ** (n - 1)
        assert measure(hs) == 2 ** (n - 1) * approx.spec.hole_len(n)
        holes.extend(hs)
    assert measure(holes) + measure(approx.kept) == 1
    # kept intervals and holes tile [0, 1]: no overlap, no gap
    pieces = sorted(list(approx.kept) + holes)
    assert pieces[0][0] == 0 and pieces[-1][1] == 1
    assert all(lo < hi for lo, hi in pieces)
    assert all(left[1] == right[0] for left, right in zip(pieces, pieces[1:]))


def test_walk_point_agrees_with_enumeration():
    approx = CantorApprox(unit_spec(Fraction(1, 3)), 5)
    probes = [Fraction(i, 257) for i in range(258)]
    for x in probes:
        walk = approx.walk_point(x)
        inside, on_edge = locate(approx.kept, x)
        if walk.kind == "kept":
            assert inside
        elif walk.kind == "hole":
            assert not inside
            assert walk.lo < x < walk.hi
            assert walk.hi - walk.lo == approx.spec.hole_len(walk.level)
        elif walk.kind == "edge":
            assert on_edge or walk.level == 0
        else:
            assert walk.kind == "outside" and not (0 <= x <= 1)
    assert approx.walk_point(Fraction(3, 2)).kind == "outside"
    assert approx.walk_point(Fraction(0)).kind == "edge"


def test_walk_point_respects_level_cap():
    # the walk stops at the approximation's depth
    approx = CantorApprox(unit_spec(Fraction(1, 2)), 2)
    walk = approx.walk_point(Fraction(1, 3))
    assert walk.level <= 2


# -- towers -----------------------------------------------------------------


def test_tower_masses_and_residuals():
    t = TowerSpec("dyadic")
    assert [t.mass(j) for j in (1, 2, 3)] == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    assert t.residual(1) == 1 and t.residual(3) == Fraction(1, 4)
    assert t.rho(2) == Fraction(1, 2)

    f = TowerSpec("factorial")
    assert f.mass(1) == Fraction(1, 2) and f.mass(3) == Fraction(1, 12)

    e = TowerSpec("explicit", (Fraction(1, 3), Fraction(1, 3)))
    assert e.residual(2) == Fraction(2, 3)
    with pytest.raises(InfeasibleMass):
        e.mass(3)
    with pytest.raises(ValueError):
        TowerSpec("explicit")
    with pytest.raises(ValueError):
        TowerSpec("nope")


@pytest.mark.parametrize("preset", ["dyadic", "factorial"])
def test_residual_prefix_matches_direct_sum(preset):
    t = TowerSpec(preset)
    # the deepest request first, then every shorter one from the prefix
    expected = [1 - sum((t.mass(i) for i in range(1, j)), Fraction(0))
                for j in range(1, 301)]
    assert t.residual(300) == expected[-1]
    assert [t.residual(j) for j in range(1, 301)] == expected


@pytest.mark.parametrize("masses,bad_at", [
    ((Fraction(1, 4), Fraction(1, 4), Fraction(0), Fraction(1, 8)), 3),
    ((Fraction(1, 4), Fraction(1, 4)), 3),
])
def test_explicit_residual_fails_at_the_same_generation(masses, bad_at):
    t = TowerSpec("explicit", masses)
    for _ in range(2):
        with pytest.raises(InfeasibleMass, match=f"generation {bad_at}"):
            t.residual(bad_at + 2)
    # the prefix up to the bad mass survives the failures
    assert t.residual(bad_at) == Fraction(1, 2)


def test_grown_tower_spec_keeps_equality_and_hash():
    grown, fresh = TowerSpec("dyadic"), TowerSpec("dyadic")
    grown.residual(64)
    assert grown == fresh and hash(grown) == hash(fresh)
    e1 = TowerSpec("explicit", (Fraction(1, 3), Fraction(1, 3)))
    e2 = TowerSpec("explicit", (Fraction(1, 3), Fraction(1, 3)))
    e1.residual(3)
    assert e1 == e2 and hash(e1) == hash(e2)


def test_tower_generation_validates_each_generation_once(monkeypatch):
    # mu_3 = 1/2 is all of S_3, so generation 3 has no room left in its holes
    masses = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    calls = []
    real = TowerSpec.rho
    monkeypatch.setattr(TowerSpec, "rho", lambda self, j: calls.append(j) or real(self, j))
    spec = TowerSpec("explicit", masses)
    for d in (4, 8):
        assert tower_generation(spec, 2, d).measure_enclosure.contains(Fraction(1, 4))
    assert calls == [1, 2]
    for j in (3, 3, 5):
        with pytest.raises(InfeasibleMass, match="^generation 3 needs fraction 1 of its holes$"):
            tower_generation(spec, j, 4)
    assert calls == [1, 2, 3, 3, 3]
    # a fresh spec fails the same way on its first call
    with pytest.raises(InfeasibleMass, match="^generation 3 needs fraction 1 of its holes$"):
        tower_generation(TowerSpec("explicit", masses), 3, 4)
    assert spec == TowerSpec("explicit", masses)


def test_tower_spec_json_round_trip():
    for t in (TowerSpec("dyadic"), TowerSpec("factorial"),
              TowerSpec("explicit", (Fraction(1, 4), Fraction(1, 8)))):
        assert TowerSpec.from_json(t.as_json()) == t
        assert TowerSpec.from_json(json.loads(canonical_dumps(t))) == t


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_tower_enclosure_width_bound(j):
    spec = TowerSpec("dyadic")
    for d in (4, 8, 12):
        tower = tower_generation(spec, j, d)
        enc = tower.measure_enclosure
        assert enc.contains(spec.mass(j))
        assert enc.hi - enc.lo <= spec.residual(j) * pow2(-d)


def test_generation_two_enumeration_matches_enclosure():
    # depth 3: 7 holes in generation 1, each hosting one component
    spec = TowerSpec("dyadic")
    tower = tower_generation(spec, 2, 3)
    comps = tuple(tower.iter_components())
    assert len(comps) == tower.component_count == 7
    total = sum((c.measure for c in comps), Fraction(0))
    assert tower.measure_enclosure.contains(total)
    # components live inside generation-1 holes, pairwise disjoint
    gen1 = CantorApprox(CantorSpec(Fraction(0), Fraction(1), spec.mass(1)), 3)
    holes = [h for _, hs in gen1.holes for h in hs]
    spans = sorted(c.span for c in comps)
    for lo, hi in spans:
        assert any(a <= lo and hi <= b for a, b in holes)
    assert all(left[1] <= right[0] for left, right in zip(spans, spans[1:]))


def test_tower_generation_validation():
    with pytest.raises(DepthTooSmall):
        tower_generation(TowerSpec("dyadic"), 1, 0)
    with pytest.raises(ValueError):
        tower_generation(TowerSpec("dyadic"), 0, 4)


# -- component search -------------------------------------------------------


def test_find_component_full_span_is_generation_one():
    got = find_component(TowerSpec("dyadic"), 0, 1, max_generation=5, depth=8)
    assert isinstance(got, ComponentWitness) and got.generation == 1


@given(st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=200),
       st.fractions(min_value=Fraction(1, 50), max_value=Fraction(1, 10), max_denominator=200))
@settings(max_examples=60, deadline=None)
def test_find_component_witness_is_contained(lo, width):
    hi = min(lo + width, Fraction(1))
    try:
        got = find_component(TowerSpec("dyadic"), lo, hi, max_generation=12, depth=16)
    except InconclusiveAtBudget:
        return
    a, b = got.component.span
    assert lo <= a < b <= hi
    # the witness really is a tower component: correct mass for its span
    rho = TowerSpec("dyadic").rho(got.generation)
    assert got.component.spec.mass == rho * (b - a)


def test_find_component_budget_exhaustion_is_inconclusive():
    with pytest.raises(InconclusiveAtBudget) as spent:
        find_component(TowerSpec("dyadic"), Fraction(1, 3), Fraction(1, 3) + Fraction(1, 1000),
                       max_generation=1, depth=2)
    got = spent.value
    assert got.as_json()["verdict"] == "inconclusive-at-budget"
    assert got.budget == {"maxgen": 1, "depth": 2}


def test_find_component_stops_at_an_explicit_towers_last_generation():
    spec = TowerSpec("explicit", (Fraction(1, 4), Fraction(1, 4), Fraction(1, 8)))
    assert [spec.upto(m) for m in (1, 3, 20)] == [1, 3, 3]
    assert TowerSpec("dyadic").upto(20) == 20
    # a window inside a generation-3 hole, which no generation fills
    lo = Fraction(1, 3)
    with pytest.raises(InfeasibleMass, match="only 3 generations, so the series is bounded"):
        find_component(spec, lo, lo + Fraction(1, 10**6), max_generation=20, depth=20)
    got = find_component(spec, Fraction(3, 8), Fraction(5, 8), max_generation=20, depth=20)
    assert got.generation == 3


def test_find_component_rejects_bad_target():
    with pytest.raises(ValueError):
        find_component(TowerSpec("dyadic"), Fraction(1, 2), Fraction(1, 2), max_generation=3, depth=3)
