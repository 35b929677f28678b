"""Step-function series over Cantor towers.

A series assigns a constant value to each tower generation and sums the
indicator functions: the value on generation j is either a power theta^n_j
along a chosen subsequence, or a combination sum_i beta_i * T_i^j whose
bases T_i are distinct integer monomials in prime generators.  Because
generations are pairwise disjoint up to measure zero, L1 norms split into
per-generation mass sums with closed-form tails, and unboundedness is
witnessed by drilling a positive-measure component into any target
subinterval.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cantor import (
    CantorApprox,
    CantorSpec,
    TowerSpec,
    fill_first_hole,
    find_component,
    tower_generation,
)
from .certificates import Certificate, CERTIFIED, InconclusiveAtBudget
from .enclosure import Enclosure
from .rational import (HALF, ONE, ZERO, RationalLike, SpecError, SpecValue, as_fraction,
                       dyadic_sum)


class DivergentTail(ValueError):
    """Tail bound does not converge (tilt >= 2 on the dyadic tower)."""


class NotDominant(ValueError):
    """First base is not strictly largest."""


class IntervalTooShort(ValueError):
    pass


# ---------------------------------------------------------------------------
# Series rules
# ---------------------------------------------------------------------------


_NAMED_RULES = {"all": (1, 1), "even": (2, 2), "odd": (1, 2)}

# a tower-series spec's subsequence entries and arith starts, arith strides,
# monomial bases (thetas) and monomial exponents (k): at these values the
# slowest spec norm l1 accepts, on the factorial tower, runs about a second
SUBSEQ_CEILING = 256
STRIDE_CEILING = 2
THETA_CEILING = 10
K_CEILING = 3


@dataclass(frozen=True)
class PowerAlongSubsequence:
    """Value theta^(n_j) on generation n_j, zero elsewhere.

    subseq names the exponent sequence: "all" (n_j = j), "even" (2j),
    "odd" (2j - 1), "arith:start:stride", or an explicit increasing tuple
    (a finite series).  The three named rules are the arithmetic rules
    arith:1:1, arith:2:2 and arith:1:2.
    """

    theta: Fraction
    subseq: str | tuple[int, ...] = "all"

    def __post_init__(self):
        object.__setattr__(self, "theta", as_fraction(self.theta))
        if self.theta <= 1:
            raise ValueError(f"tilt {self.theta} must exceed 1")
        s = self.subseq
        if isinstance(s, str):
            if s not in _NAMED_RULES and not s.startswith("arith:"):
                raise ValueError(f"unknown subsequence rule {s!r}")
            start, stride = self._arith()
            if start < 1 or stride < 1:
                raise ValueError(f"bad arithmetic rule {s!r}")
        else:
            t = tuple(int(n) for n in s)
            if not t or t[0] < 1 or any(y <= x for x, y in zip(t, t[1:])):
                raise ValueError("explicit subsequence must be strictly increasing, >= 1")
            object.__setattr__(self, "subseq", t)

    def _arith(self) -> tuple[int, int]:
        """(start, stride) of a named or "arith:start:stride" rule."""
        if self.subseq in _NAMED_RULES:
            return _NAMED_RULES[self.subseq]
        _, start, stride = self.subseq.split(":")
        return int(start), int(stride)

    @property
    def term_limit(self) -> int | None:
        """Number of terms for a finite (explicit) series, else None."""
        return len(self.subseq) if isinstance(self.subseq, tuple) else None

    def exponent(self, j: int) -> int:
        if j < 1:
            raise ValueError(f"term index {j} < 1")
        s = self.subseq
        if isinstance(s, tuple):
            if j > len(s):
                raise IndexError(f"finite subsequence has {len(s)} terms")
            return s[j - 1]
        start, stride = self._arith()
        return start + stride * (j - 1)

    def support_contains(self, g: int) -> bool:
        s = self.subseq
        if isinstance(s, tuple):
            return g in s
        start, stride = self._arith()
        return g >= start and (g - start) % stride == 0

    def as_json(self) -> dict:
        s = self.subseq if isinstance(self.subseq, str) else list(self.subseq)
        return {"power": {"theta": self.theta, "subseq": s}}


@dataclass(frozen=True)
class MonomialRow:
    beta: Fraction
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "beta", as_fraction(self.beta))
        object.__setattr__(self, "exponents", tuple(int(k) for k in self.exponents))
        if any(k < 0 for k in self.exponents):
            raise ValueError("negative exponent")
        if not any(self.exponents):
            raise ValueError("constant monomial (all exponents zero) is not allowed")


@dataclass(frozen=True)
class MonomialCombination:
    """Value sum_i beta_i * T_i^j on every generation j, T_i = prod theta^k."""

    thetas: tuple[int, ...]
    rows: tuple[MonomialRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(int(t) for t in self.thetas))
        object.__setattr__(self, "rows", tuple(self.rows))
        if any(t <= 1 for t in self.thetas):
            raise ValueError("bases must exceed 1")
        for r in self.rows:
            if len(r.exponents) != len(self.thetas):
                raise ValueError("exponent row length does not match base count")

    @property
    def products(self) -> tuple[int, ...]:
        return tuple(math.prod(t**k for t, k in zip(self.thetas, r.exponents)) for r in self.rows)

    def value_at(self, j: int) -> Fraction:
        return sum((r.beta * p**j for r, p in zip(self.rows, self.products)), ZERO)

    def as_json(self) -> dict:
        return {
            "monomial": {
                "thetas": list(self.thetas),
                "rows": [{"beta": r.beta, "k": list(r.exponents)} for r in self.rows],
            }
        }


@dataclass(frozen=True)
class StepSeries:
    tower: TowerSpec
    rule: PowerAlongSubsequence | MonomialCombination

    def value_at_generation(self, g: int) -> Fraction:
        if isinstance(self.rule, MonomialCombination):
            return self.rule.value_at(g)
        if self.rule.support_contains(g):
            return self.rule.theta**g
        return ZERO

    def as_json(self) -> dict:
        return {"tower": self.tower.as_json(), "rule": self.rule.as_json()}

    @classmethod
    def from_json(cls, data: object) -> "StepSeries":
        node = SpecValue(data)
        tower = TowerSpec.from_json(node["tower"].value)
        rule = node["rule"]
        if "power" in rule:
            sub = rule["power"]["subseq"]
            if not isinstance(sub.value, str):
                subseq = sub.bounded_integers(SUBSEQ_CEILING)
                return cls(tower, PowerAlongSubsequence(rule["power"]["theta"].rational(), subseq))
            power = PowerAlongSubsequence(rule["power"]["theta"].rational(), sub.value)
            for value, ceiling in zip(power._arith(), (SUBSEQ_CEILING, STRIDE_CEILING)):
                if value > ceiling:
                    raise SpecError(f"{sub.path}: magnitude above the ceiling {ceiling}")
            return cls(tower, power)
        m = rule["monomial"]
        rows = tuple(MonomialRow(r["beta"].rational(), r["k"].bounded_integers(K_CEILING))
                     for r in m["rows"].elements())
        return cls(tower, MonomialCombination(m["thetas"].bounded_integers(THETA_CEILING), rows))


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalVerdict:
    """The representative is zero at the point, found at a generation.

    The point lies on the measure-zero skeleton of kept/hole endpoints, or
    in a hole of an explicit tower's last generation, which no generation
    fills.  A deeper budget never contradicts it.
    """

    generation: int
    detail: str

    def as_json(self) -> dict:
        return {"verdict": "zero", "detail": self.detail, "value": ZERO,
                "generation": self.generation}


def eval_series(s: StepSeries, x: RationalLike, maxgen: int = 20,
                depth: int = 20) -> EvalVerdict:
    """A.e.-representative evaluation at a rational point.

    The representative is zero on the measure-zero skeleton of kept/hole
    endpoints, so landing exactly on a discovered endpoint certifies zero.
    A point still inside a kept interval when the budget runs out is
    inconclusive: finite depth cannot exclude deeper holes around it.
    """
    x = as_fraction(x)
    if x < 0 or x > 1:
        raise ValueError(f"point {x} outside [0, 1]")
    budget = {"maxgen": maxgen, "depth": depth}
    comp = CantorSpec(ZERO, ONE, s.tower.mass(1))
    g = 1
    while True:
        w = CantorApprox(comp, depth).walk_point(x)
        if w.kind == "edge":
            return EvalVerdict(g, f"on the endpoint skeleton at generation {g}, level {w.level}")
        if w.kind == "kept":
            raise InconclusiveAtBudget(
                f"still in a kept interval of generation {g} at depth {depth}", budget)
        # inside an open hole: the next generation fills it, if there is one
        if g == s.tower.generations:
            return EvalVerdict(
                g, f"inside a hole of the last generation {g}, which no generation fills")
        if g + 1 > maxgen:
            raise InconclusiveAtBudget(
                f"inside a generation-{g} hole at the generation budget", budget)
        g += 1
        comp = CantorSpec(w.lo, w.hi, s.tower.rho(g) * (w.hi - w.lo))


# ---------------------------------------------------------------------------
# L1 norm
# ---------------------------------------------------------------------------


def _power_tail(tower: TowerSpec, theta: Fraction, last_exp: int) -> Fraction:
    """Upper bound for sum over m > last_exp of theta^m * mu_m (all m)."""
    if tower.preset == "dyadic":
        r = theta / 2
        if r >= 1:
            raise DivergentTail(f"tilt {theta} >= 2 diverges on the dyadic tower")
        return r ** (last_exp + 1) / (1 - r)
    if tower.preset == "factorial":
        m = last_exp + 1
        t = theta**m / (2 * math.factorial(m))
        tail = ZERO
        while theta / (m + 1) > HALF:
            tail += t
            m += 1
            t = t * theta / m
        return tail + 2 * t
    # explicit preset: the generations past last_exp, summed exactly
    tower.validate(tower.generations)
    return sum((theta**m * tower.mass(m)
                for m in range(last_exp + 1, tower.generations + 1)), ZERO)


def _term_depth(depth: int, j: int, coeff: Fraction) -> int:
    """Depth for term j, deep enough that coeff * surplus stays below 2^-depth-j.

    The depth-d surplus of a generation's measure enclosure is at most
    S_j * 2^-d <= 2^-d, so adding the coefficient's magnitude (and j) to
    the exponent keeps the weighted surpluses summable no matter how fast
    the coefficients grow.
    """
    mag = coeff.numerator.bit_length() - coeff.denominator.bit_length() + 1
    return depth + j + max(0, mag)


@lru_cache(maxsize=256)
def l1_norm(s: StepSeries, terms: int = 64, depth: int = 20) -> Enclosure:
    """Enclosure of the integral of |s| over [0, 1].

    Sums |value| times each generation's measure enclosure for the first
    `terms` support generations, then adds a tail bound: a geometric sum
    on the dyadic tower (needs tilt < 2), a factorially dominated one on
    the factorial tower, the exact rest of the series on an explicit one.
    Everything is frozen, so family checks reuse cached member norms.
    """
    if terms < 1:
        raise ValueError("need at least one term")
    lows: list[Fraction] = []
    highs: list[Fraction] = []
    count = s.tower.generations
    if isinstance(s.rule, PowerAlongSubsequence):
        limit = s.rule.term_limit
        n_terms = terms if limit is None else min(terms, limit)
        last = 0
        for j in range(1, n_terms + 1):
            n = s.rule.exponent(j)
            if count is not None and n > count:
                break  # the explicit tower ends before the subsequence
            c = s.rule.theta**n
            e = tower_generation(s.tower, n, _term_depth(depth, j, c)).measure_enclosure
            lows.append(c * e.lo)
            highs.append(c * e.hi)
            last = n
        if limit is not None and n_terms == limit:
            tail = ZERO  # the series itself is finite
        elif count is None:
            tail = _power_tail(s.tower, s.rule.theta, last)
        else:
            # the rule's own generations past `last`: none past the tower's end
            s.tower.validate(count)
            tail = sum((s.rule.theta**m * s.tower.mass(m) for m in range(last + 1, count + 1)
                        if s.rule.support_contains(m)), ZERO)
        return Enclosure(dyadic_sum(lows), dyadic_sum(highs) + tail)
    # monomial combination: every generation contributes
    for j in range(1, s.tower.upto(terms) + 1):
        v = abs(s.rule.value_at(j))
        e = tower_generation(s.tower, j, _term_depth(depth, j, v)).measure_enclosure
        lows.append(v * e.lo)
        highs.append(v * e.hi)
    tail = ZERO
    for r, p in zip(s.rule.rows, s.rule.products):
        if r.beta != 0:
            tail += abs(r.beta) * _power_tail(s.tower, Fraction(p), terms)
    return Enclosure(dyadic_sum(lows), dyadic_sum(highs) + tail)


# ---------------------------------------------------------------------------
# Unboundedness witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnboundedWitness:
    """A positive-measure component where |series| constantly exceeds the bar."""

    generation: int
    value: Fraction
    component: CantorApprox

    def as_json(self) -> dict:
        return {
            "generation": self.generation,
            "value": self.value,
            "component": self.component,
        }


def unbounded_witness(
    s: StepSeries,
    lo: RationalLike,
    hi: RationalLike,
    bar: RationalLike,
    maxgen: int = 40,
    depth: int = 24,
) -> UnboundedWitness:
    """Search [lo, hi] for a component on which |series| > bar.

    Drills for the first component contained in the target, then deepens
    one generation at a time (each level-1 hole hosts the next
    generation's component) until the exact constant value clears the bar.
    """
    bar = as_fraction(bar)
    got = find_component(s.tower, lo, hi, max_generation=maxgen, depth=depth)
    g, comp = got.generation, got.component
    while g <= maxgen:
        v = s.value_at_generation(g)
        if abs(v) > bar:
            return UnboundedWitness(g, v, comp)
        g += 1
        comp = fill_first_hole(s.tower, comp, g)
    raise InconclusiveAtBudget(f"no generation <= {maxgen} on the drill path exceeds {bar}",
                               {"maxgen": maxgen, "depth": depth})


# ---------------------------------------------------------------------------
# Dominance index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominanceIndex:
    """Minimal j0 with sum_{i>=2} |b_i| t_i^j < |b_1| t_1^j / 2 for all j >= j0.

    Minimality shows in fails_before (the exact failed comparison at
    j0 - 1, absent when j0 = 1); validity for every later j follows from
    each ratio t_i/t_1 being < 1, which makes the normalized tail sum
    strictly decreasing.
    """

    j0: int
    tail_at_j0: Fraction
    half_lead_at_j0: Fraction
    fails_before: tuple[Fraction, Fraction] | None

    def as_json(self) -> dict:
        out = {
            "j0": self.j0,
            "tail_at_j0": self.tail_at_j0,
            "half_lead_at_j0": self.half_lead_at_j0,
        }
        if self.fails_before is not None:
            out["fails_before"] = self.fails_before
        return out


def dominance_index(
    betas: Sequence[RationalLike], thetas: Sequence[RationalLike]
) -> DominanceIndex:
    b = [as_fraction(x) for x in betas]
    t = [as_fraction(x) for x in thetas]
    if len(b) != len(t) or not b:
        raise ValueError("need matching nonempty coefficient and base sequences")
    if b[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    if any(x <= 0 for x in t):
        raise ValueError("bases must be positive")
    if any(x >= t[0] for x in t[1:]):
        raise NotDominant(f"leading base {t[0]} is not strictly largest")
    prev = None
    j = 1
    while True:
        tail = sum((abs(bi) * ti**j for bi, ti in zip(b[1:], t[1:])), ZERO)
        half = abs(b[0]) * t[0] ** j / 2
        if tail < half:
            return DominanceIndex(j, tail, half, prev)
        prev = (tail, half)
        j += 1


# ---------------------------------------------------------------------------
# Basic-sequence inequality
# ---------------------------------------------------------------------------


def disjoint_power_family(
    theta: RationalLike, count: int, tower: TowerSpec | None = None
) -> tuple[StepSeries, ...]:
    """count series with pairwise disjoint arithmetic exponent sequences.

    Series k uses exponents k, k + count, k + 2*count, ...; residues mod
    count keep the supports disjoint.
    """
    tower = tower if tower is not None else TowerSpec("dyadic")
    return tuple(
        StepSeries(tower, PowerAlongSubsequence(as_fraction(theta), f"arith:{k}:{count}"))
        for k in range(1, count + 1)
    )


@dataclass(frozen=True)
class BasisComparison:
    """||sum_{k<=m1} a_k g_k||_1 <= ||sum_{k<=m2} a_k g_k||_1, certified.

    Disjoint supports give ||sum a_k g_k||_1 = sum |a_k| ||g_k||_1
    exactly, so the difference is bounded below by margin_lower =
    sum_{m1 < k <= m2} |a_k| * (exact lower bound of ||g_k||_1) >= 0.
    """

    left: Enclosure
    right: Enclosure
    margin_lower: Fraction

    def as_json(self) -> dict:
        return {
            "verdict": "holds",
            "left_norm": self.left,
            "right_norm": self.right,
            "margin_lower": self.margin_lower,
        }


def basis_inequality_check(
    coeffs: Sequence[RationalLike],
    m1: int,
    m2: int,
    family: Sequence[StepSeries],
    terms: int = 24,
    depth: int = 16,
) -> BasisComparison:
    if not 1 <= m1 <= m2 <= len(family):
        raise ValueError(f"need 1 <= m1 <= m2 <= {len(family)}")
    a = [as_fraction(c) for c in coeffs]
    if len(a) < m2:
        raise ValueError("fewer coefficients than m2")
    _check_disjoint_supports(family[:m2])
    norms = [l1_norm(g, terms, depth) for g in family[:m2]]
    # the lower ends are dyadic with denominators of many thousand bits, so
    # each sum is formed once on integers rather than by Fraction additions
    lows = [abs(c) * e.lo for c, e in zip(a, norms)]
    highs = [abs(c) * e.hi for c, e in zip(a, norms)]
    return BasisComparison(Enclosure(dyadic_sum(lows[:m1]), dyadic_sum(highs[:m1])),
                           Enclosure(dyadic_sum(lows), dyadic_sum(highs)),
                           dyadic_sum(lows[m1:]))


def _check_disjoint_supports(family: Sequence[StepSeries]) -> None:
    """Refuse a family that is not supported on disjoint sets.

    Members must share one tower, since generations of different towers
    are different sets, and no two may share an exponent.
    """
    for g in family:
        if not isinstance(g.rule, PowerAlongSubsequence):
            raise ValueError("the family must consist of power-rule series")
    if len({g.tower for g in family}) > 1:
        raise ValueError("the family's members must share one tower")
    last = family[0].tower.generations
    for (i, f), (j, g) in itertools.combinations(enumerate(family, 1), 2):
        if _supports_meet(f.rule, g.rule, last):
            raise ValueError(f"supports of members {i} and {j} overlap")


def _supports_meet(r: PowerAlongSubsequence, q: PowerAlongSubsequence,
                   last: int | None) -> bool:
    """Whether two rules share an exponent up to generation last (None: no end).

    Rules a:s and b:t meet exactly when a = b mod gcd(s, t), and then
    infinitely often; a finite exponent list is checked by membership.
    """
    if isinstance(q.subseq, tuple):
        r, q = q, r
    if isinstance(r.subseq, tuple):
        exponents: Sequence[int] = r.subseq
    elif last is None:
        (a, s), (b, t) = r._arith(), q._arith()
        return (a - b) % math.gcd(s, t) == 0
    else:
        start, stride = r._arith()
        exponents = range(start, last + 1, stride)
    return any(q.support_contains(n) for n in exponents if last is None or n <= last)


# ---------------------------------------------------------------------------
# Step functions and the co-meager perturbation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepFunction:
    """Finitely many constant pieces (lo, hi, value); zero elsewhere."""

    pieces: tuple[tuple[Fraction, Fraction, Fraction], ...] = ()

    def __post_init__(self):
        ps = sorted(
            (as_fraction(a), as_fraction(b), as_fraction(v)) for a, b, v in self.pieces
        )
        for (a, b, _) in ps:
            if b <= a:
                raise ValueError(f"empty piece [{a}, {b}]")
        for (_, b1, _), (a2, _, _) in zip(ps, ps[1:]):
            if a2 < b1:
                raise ValueError("pieces overlap")
        object.__setattr__(self, "pieces", tuple(ps))

    def value_at(self, x: RationalLike) -> Fraction:
        x = as_fraction(x)
        for a, b, v in self.pieces:
            if a <= x <= b:
                return v
        return ZERO

    def sup_abs(self) -> Fraction:
        return max((abs(v) for _, _, v in self.pieces), default=ZERO)

    def overridden(self, lo: Fraction, hi: Fraction, value: Fraction) -> "StepFunction":
        """Replace the values on [lo, hi] with a constant."""
        out: list[tuple[Fraction, Fraction, Fraction]] = [(lo, hi, value)]
        for a, b, v in self.pieces:
            if b <= lo or a >= hi:
                out.append((a, b, v))
                continue
            if a < lo:
                out.append((a, lo, v))
            if b > hi:
                out.append((hi, b, v))
        return StepFunction(tuple(out))


@dataclass(frozen=True)
class PerturbationResult:
    """g within radius/2 of f; every h within radius/7 of g exceeds bound on window."""

    g: StepFunction
    window: tuple[Fraction, Fraction]
    distance: Fraction
    bound: Fraction
    radius: Fraction

    def certificate(self) -> Certificate:
        measure = self.window[1] - self.window[0]
        return Certificate(
            claim="every-ball-meets-the-unbounded-set",
            verdict=CERTIFIED,
            payload={
                "window": list(self.window),
                "window_measure": measure,
                "perturbation_l1_distance": self.distance,
                "half_radius": self.radius / 2,
                "violation_threshold": measure * self.bound,
                "radius_seventh": self.radius / 7,
                "strict_gap_holds": measure * self.bound > self.radius / 7,
            },
        )


def comeager_perturbation(
    f: StepFunction,
    bound: RationalLike,
    interval: tuple[RationalLike, RationalLike],
    radius: RationalLike,
) -> PerturbationResult:
    """Push f above an essential bound on a short window, certified exactly.

    Inside the leftmost window J of |I| = radius/(6*bound), the perturbed
    g is constantly 2*bound, so ||g - f||_1 <= m(J)*3*bound = radius/2,
    while any h within radius/7 of g must exceed the bound on a positive
    measure subset of J: otherwise |h - g| >= bound on J would force
    ||h - g||_1 >= m(J)*bound = radius/6 > radius/7.
    """
    n = as_fraction(bound)
    r = as_fraction(radius)
    a, b = as_fraction(interval[0]), as_fraction(interval[1])
    if n <= 0 or r <= 0:
        raise ValueError("bound and radius must be positive")
    if b <= a:
        raise ValueError(f"empty interval [{a}, {b}]")
    if f.sup_abs() > n:
        raise ValueError(f"precondition fails: sup|f| = {f.sup_abs()} exceeds {n}")
    window = r / (6 * n)
    if b - a < window:
        raise IntervalTooShort(f"interval length {b - a} < required window {window}")
    j_lo, j_hi = a, a + window
    g = f.overridden(j_lo, j_hi, 2 * n)
    # exact L1 distance: on J the change is |2N - f|, elsewhere zero
    dist = ZERO
    covered = ZERO
    for pa, pb, pv in f.pieces:
        lo2, hi2 = max(pa, j_lo), min(pb, j_hi)
        if lo2 < hi2:
            dist += abs(2 * n - pv) * (hi2 - lo2)
            covered += hi2 - lo2
    dist += 2 * n * (window - covered)
    assert dist <= window * 3 * n == r / 2
    return PerturbationResult(g, (j_lo, j_hi), dist, n, r)
