"""Fat Cantor sets of prescribed measure and their recursive towers.

A single fat Cantor set removes, at level n, a centered open hole of
length 2R*4^(-n) from each kept interval, where R is the total mass to be
removed from the span.  All level geometry has closed forms, so kept
measures, hole positions, and point walks are exact rational computations
that never require materializing the 2^d kept intervals.

Towers stack generations: generation 1 is a fat Cantor set on [0, 1], and
generation j+1 fills every hole of every generation-j component with a
scaled copy whose mass fraction rho_{j+1} keeps the generation's total
mass at mu_{j+1} exactly in the limit.  Since a generation at depth d has
(2^d - 1)^(j-1) components, measures are certified by aggregation over
hole levels instead of enumeration; components materialize lazily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .certificates import InconclusiveAtBudget
from .enclosure import Enclosure
from .rational import ONE, ZERO, RationalLike, SpecValue, as_fraction, pow2


# sorted, interior-disjoint closed intervals as (lo, hi) pairs
Intervals = tuple[tuple[Fraction, Fraction], ...]


class InfeasibleMass(ValueError):
    """Requested mass does not fit the span (or a hole's residual)."""


class DepthTooSmall(ValueError):
    pass


@dataclass(frozen=True)
class CantorSpec:
    """Span [a, b] and the mass the limiting set should keep."""

    a: Fraction
    b: Fraction
    mass: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        object.__setattr__(self, "mass", as_fraction(self.mass))
        if self.b <= self.a:
            raise InfeasibleMass(f"empty span [{self.a}, {self.b}]")
        if not (0 < self.mass < self.b - self.a):
            raise InfeasibleMass(
                f"mass {self.mass} not strictly between 0 and span length {self.b - self.a}"
            )

    @property
    def length(self) -> Fraction:
        return self.b - self.a

    @property
    def removed(self) -> Fraction:
        return self.length - self.mass

    def hole_len(self, n: int) -> Fraction:
        """Length of each level-n hole, 2R*4^(-n)."""
        return 2 * self.removed * pow2(-2 * n)

    def kept_len(self, n: int) -> Fraction:
        """Length of each level-n kept interval (2^n of them)."""
        if n == 0:
            return self.length
        return pow2(-n) * self.length - self.removed * (pow2(-n) - pow2(-2 * n))

    def kept_measure(self, depth: int) -> Fraction:
        """Exact measure of the depth-d approximation: mass + R*2^(-d)."""
        return self.mass + self.removed * pow2(-depth)

    def as_json(self) -> dict:
        return {"span": [self.a, self.b], "mass": self.mass}


@dataclass(frozen=True)
class PointWalk:
    """Outcome of walking a point down one component's levels.

    kind: "kept"  -- still inside a kept interval when the level budget ran out
          "hole"  -- strictly inside the open hole (lo, hi) at the given level
          "edge"  -- exactly on a kept/hole endpoint (a measure-zero point)
          "outside" -- beyond the span
    """

    kind: str
    level: int
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class CantorApprox:
    """Depth-d stage of a fat Cantor construction."""

    spec: CantorSpec
    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise DepthTooSmall(f"depth {self.depth} < 0")

    @property
    def span(self) -> tuple[Fraction, Fraction]:
        return (self.spec.a, self.spec.b)

    @property
    def measure(self) -> Fraction:
        return self.spec.kept_measure(self.depth)

    @property
    def measure_enclosure(self) -> Enclosure:
        """Brackets the limiting set's measure: [mass, depth-d measure]."""
        return Enclosure(self.spec.mass, self.measure)

    def _lefts(self, level: int) -> list[Fraction]:
        """Left endpoints of the kept intervals at a level, in position order."""
        pts = [self.spec.a]
        for n in range(1, level + 1):
            step = self.spec.kept_len(n) + self.spec.hole_len(n)
            pts = [p for q in pts for p in (q, q + step)]
        return pts

    @cached_property
    def kept(self) -> Intervals:
        """The 2^depth kept intervals."""
        length = self.spec.kept_len(self.depth)
        return tuple((p, p + length) for p in self._lefts(self.depth))

    def holes_at(self, n: int) -> Intervals:
        """The 2^(n-1) open holes cut at level n."""
        if not 1 <= n <= self.depth:
            raise ValueError(f"level {n} outside 1..{self.depth}")
        off = self.spec.kept_len(n)
        h = self.spec.hole_len(n)
        return tuple((p + off, p + off + h) for p in self._lefts(n - 1))

    @cached_property
    def holes(self) -> tuple[tuple[int, Intervals], ...]:
        return tuple((n, self.holes_at(n)) for n in range(1, self.depth + 1))

    def walk_point(self, x: RationalLike) -> PointWalk:
        x = as_fraction(x)
        a, b = self.spec.a, self.spec.b
        if x < a or x > b:
            return PointWalk("outside", 0, a, b)
        if x == a or x == b:
            return PointWalk("edge", 0, a, b)
        p = a
        for n in range(1, self.depth + 1):
            g1 = p + self.spec.kept_len(n)
            g2 = g1 + self.spec.hole_len(n)
            if x == g1 or x == g2:
                return PointWalk("edge", n, g1, g2)
            if g1 < x < g2:
                return PointWalk("hole", n, g1, g2)
            if x > g2:
                p = g2
        return PointWalk("kept", self.depth, p, p + self.spec.kept_len(self.depth))

    def as_json(self) -> dict:
        return {**self.spec.as_json(), "depth": self.depth,
                "measure_enclosure": self.measure_enclosure}


# ---------------------------------------------------------------------------
# Towers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TowerSpec:
    """Generation masses on the unit span.

    preset "dyadic" takes mu_j = 2^(-j); "factorial" takes mu_j = 1/(2*j!)
    (total (e-1)/2, so every tilt theta > 1 still gives a finite weighted
    sum); "explicit" reads masses from the given tuple.
    """

    preset: str = "dyadic"
    masses: tuple[Fraction, ...] | None = None
    # validate() has seen rho(1.._feasible) inside (0, 1).  No annotation,
    # so it is not a field: equality and hashing ignore it.
    _feasible = 0

    def __post_init__(self):
        if self.preset not in ("dyadic", "factorial", "explicit"):
            raise ValueError(f"unknown preset {self.preset!r}")
        if (self.preset == "explicit") != (self.masses is not None):
            raise ValueError("masses tuple is required exactly for the explicit preset")
        if self.masses is not None:
            object.__setattr__(self, "masses", tuple(as_fraction(m) for m in self.masses))

    @property
    def generations(self) -> int | None:
        """Generation count: len(masses) for an explicit tower, None for the presets."""
        return None if self.masses is None else len(self.masses)

    def upto(self, maxgen: int) -> int:
        """Last generation a budget of maxgen reaches: an explicit tower ends sooner."""
        return maxgen if self.generations is None else min(maxgen, self.generations)

    def mass(self, j: int) -> Fraction:
        if j < 1:
            raise ValueError(f"generation {j} < 1")
        if self.preset == "dyadic":
            return pow2(-j)
        if self.preset == "factorial":
            return Fraction(1, 2 * math.factorial(j))
        if j > self.generations:
            raise InfeasibleMass(f"explicit masses exhausted at generation {j}")
        m = self.masses[j - 1]
        if m <= 0:
            raise InfeasibleMass(f"nonpositive mass {m} at generation {j}")
        return m

    @cached_property
    def _residuals(self) -> list[Fraction]:
        # S_1, S_2, ... as far as any caller has asked; residual() extends it
        # in place.  Not a field, so equality and hashing ignore it.
        return [ONE]

    def residual(self, j: int) -> Fraction:
        """S_j: span length still unassigned before generation j (S_1 = 1)."""
        prefix = self._residuals
        while len(prefix) < j:
            # mass(i) in order, so a bad explicit mass raises at the same i
            prefix.append(prefix[-1] - self.mass(len(prefix)))
        return prefix[j - 1] if j >= 1 else ONE

    def rho(self, j: int) -> Fraction:
        """Mass fraction each generation-j component keeps of its span."""
        r = self.mass(j) / self.residual(j)
        if not 0 < r < 1:
            raise InfeasibleMass(f"generation {j} needs fraction {r} of its holes")
        return r

    def validate(self, j: int) -> None:
        """Raise InfeasibleMass unless generations 1..j all fit.

        Each rho(i) runs once per spec.  A generation that fails is never
        counted, so every later call raises the same error again.
        """
        for i in range(self._feasible + 1, j + 1):
            self.rho(i)
            object.__setattr__(self, "_feasible", i)

    def as_json(self) -> dict:
        if self.preset == "explicit":
            return {"masses": list(self.masses)}
        return {"preset": self.preset}

    @classmethod
    def from_json(cls, data: object) -> "TowerSpec":
        node = SpecValue(data, "body.tower")
        if "masses" in node:
            return cls("explicit", tuple(m.rational() for m in node["masses"].elements()))
        return cls(node.get("preset", "dyadic").string())


def _fill(spec: TowerSpec, generation: int, lo: Fraction, hi: Fraction, depth: int) -> CantorApprox:
    """The generation-j component spanning a hole [lo, hi]."""
    if spec.generations is not None and generation > spec.generations:
        # no component fills a hole of the last generation, and the series
        # takes one value per generation, so it is bounded on the tower
        raise InfeasibleMass(f"the tower has only {spec.generations} generations, so the "
                             f"series is bounded there; no generation {generation} to drill into")
    return CantorApprox(CantorSpec(lo, hi, spec.rho(generation) * (hi - lo)), depth)


def fill_first_hole(spec: TowerSpec, comp: CantorApprox, generation: int) -> CantorApprox:
    """The generation-g component in comp's level-1 hole, at comp's depth.

    Each such descent raises the generation by one and stays inside comp,
    so a drill can deepen one generation at a time within its target.
    """
    lo = comp.spec.a + comp.spec.kept_len(1)
    return _fill(spec, generation, lo, lo + comp.spec.hole_len(1), comp.depth)


@dataclass(frozen=True)
class TowerApprox:
    """One generation of a tower at a fixed component depth.

    iter_components walks the full inventory and is only usable when
    component_count is small; everything else (measure enclosure, search,
    point walks) works at any depth.
    """

    spec: TowerSpec
    generation: int
    depth: int
    measure_enclosure: Enclosure

    @property
    def component_count(self) -> int:
        return (2**self.depth - 1) ** (self.generation - 1)

    def iter_components(self) -> Iterator[CantorApprox]:
        """Generation-j components in position order (left to right)."""

        def expand(comp: CantorApprox, g: int) -> Iterator[CantorApprox]:
            if g == self.generation:
                yield comp
                return
            holes = sorted(
                (lo, hi) for _, hs in comp.holes for lo, hi in hs
            )
            for lo, hi in holes:
                yield from expand(_fill(self.spec, g + 1, lo, hi, self.depth), g + 1)

        root = CantorApprox(CantorSpec(ZERO, ONE, self.spec.mass(1)), self.depth)
        yield from expand(root, 1)


def tower_generation(spec: TowerSpec, j: int, d: int) -> TowerApprox:
    """Generation j at component depth d, with a certified measure enclosure.

    The enclosure contains mu_j and has width at most S_j * 2^(-d): the
    upper end charges every component's depth-d surplus, the lower end
    truncates hole levels at d plus ceil(log2(j-1)) padding bits per
    nesting stage so that the truncation loss stays below mu_j * 2^(-d).
    """
    if j < 1:
        raise ValueError(f"generation {j} < 1")
    if d < 1:
        raise DepthTooSmall(f"depth {d} < 1")
    spec.validate(j)  # InfeasibleMass surfaces here
    mu = spec.mass(j)
    upper = mu + (spec.residual(j) - mu) * pow2(-d)
    if j == 1:
        lower = mu
    else:
        pad = (j - 2).bit_length()
        lower = mu * (1 - pow2(-(d + pad))) ** (j - 1)
    return TowerApprox(spec, j, d, Enclosure(lower, upper))


# ---------------------------------------------------------------------------
# Component search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentWitness:
    generation: int
    component: CantorApprox


def find_component(
    spec: TowerSpec,
    lo: RationalLike,
    hi: RationalLike,
    *,
    max_generation: int,
    depth: int,
) -> ComponentWitness:
    """First component (on a deterministic drill path) whose span lies in [lo, hi].

    The drill keeps a target subinterval T of [lo, hi] inside the current
    component and walks kept intervals toward T's midpoint.  A hole inside
    T yields the next generation's component there (success, since holes
    host components by construction).  A hole covering T forces descent
    into its filling component; a hole straddling T's edge shrinks T to
    the larger remaining piece, at least halving it, so the depth budget
    bounds the whole search.  A drill past an explicit tower's last
    generation raises InfeasibleMass; a spent budget raises
    InconclusiveAtBudget.
    """
    j1, j2 = as_fraction(lo), as_fraction(hi)
    budget = {"maxgen": max_generation, "depth": depth}
    if not (0 <= j1 < j2 <= 1):
        raise ValueError(f"target [{j1}, {j2}] is not a nondegenerate subinterval of [0, 1]")
    if max_generation < 1 or depth < 1:
        raise DepthTooSmall("need at least generation 1 and depth 1")
    if j1 <= 0 and j2 >= 1:
        return ComponentWitness(1, CantorApprox(CantorSpec(ZERO, ONE, spec.mass(1)), depth))

    gen = 1
    comp = CantorSpec(ZERO, ONE, spec.mass(1))
    t1, t2 = j1, j2
    for _ in range(4 * depth + 4 * max_generation):
        # walk comp's kept intervals toward the midpoint of T = [t1, t2]
        p = comp.a
        n = 0
        m = (t1 + t2) / 2
        descended = False
        while n < depth:
            g1 = p + comp.kept_len(n + 1)
            g2 = g1 + comp.hole_len(n + 1)
            if t1 <= g1 and g2 <= t2:
                # hole inside the target: its filling component is the witness
                if gen + 1 > max_generation:
                    raise InconclusiveAtBudget("generation budget exhausted", budget)
                return ComponentWitness(gen + 1, _fill(spec, gen + 1, g1, g2, depth))
            if g1 < m < g2:
                if g1 <= t1 and t2 <= g2:
                    # hole covers the whole target: descend into its filler
                    if gen + 1 > max_generation:
                        raise InconclusiveAtBudget("generation budget exhausted", budget)
                    gen += 1
                    comp = _fill(spec, gen, g1, g2, depth).spec
                else:
                    # straddles an edge of T: keep the larger piece clear of it,
                    # whose length is positive as T sticks out past the hole
                    left = (t1, min(t2, g1))
                    right = (max(t1, g2), t2)
                    t1, t2 = left if left[1] - left[0] >= right[1] - right[0] else right
                descended = True
                break
            if m >= g2:
                p = g2
            n += 1
        if not descended:
            raise InconclusiveAtBudget("depth budget exhausted", budget)
    raise InconclusiveAtBudget("search budget exhausted", budget)

