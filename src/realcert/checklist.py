"""The fourteen checks behind `realcert report --bundled`.

One check per headline property of the constructions.  Each check is a
function of the samples it checks (windows, indices, coefficient vectors
or points) and returns its outcome, a payload whose verdict is certified,
computed or failed; a search that spends its budget raises
InconclusiveAtBudget, which `certificates.timed_check` records as the
outcome.  The exit code is read from that verdict
(`certificates.exit_code`).  The bundled report runs
every check on small seeded draws; the acceptance battery runs the same
functions on larger draws of its own.  Fixed seeds keep the report
reproducible byte for byte apart from wall-clock fields.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Callable, Sequence

from .cantor import TowerSpec, tower_generation
from .certificates import (CERTIFIED, COMPUTED, FAILED, Certificate,
                           InconclusiveAtBudget, timed_check)
from .jumps import (INDEX_CEILING, ExpPoly, JumpPolynomial, ShiftCombination,
                    SqrtShift, ZeroPolynomial, enum_rational,
                    expand_generator_polynomial, jump_contribution_table,
                    jump_enclosure, jump_search, staircase_polynomial,
                    variation_bounds)
from .oscillator import (OscCombination, Oscillator, alexiewicz_norm,
                         hake_table, kurzweil_integral, nonlebesgue_witness,
                         osc_eval, slope_bound)
from .rational import ZERO, format_fraction, pow2
from .stepseries import (DominanceIndex, PowerAlongSubsequence, StepFunction,
                         StepSeries, basis_inequality_check,
                         comeager_perturbation, disjoint_power_family,
                         dominance_index, unbounded_witness, l1_norm)

_SEED = 97

# density searches stay inside the enumeration's well-covered band; the
# first 10^5 enumerated rationals leave no gap of 1/50 in here
_COVERED_LO = Fraction(1, 18)
_COVERED_HI = Fraction(16, 17)
_WINDOW = Fraction(1, 50)

# monomials of degree 1..3 in two generators, with coefficients in -2..2
_MONOMIALS = [(i, j) for i in range(4) for j in range(4) if 1 <= i + j <= 3]
_COEFFS = (-2, -1, 0, 1, 2)

# (betas, thetas, expected index): fails_before is the exact comparison
# that fails one index earlier, which makes j0 minimal
_DOMINANCE_CASES = (
    ((1, -1), (3, 2), DominanceIndex(2, Fraction(4), Fraction(9, 2),
                                     (Fraction(2), Fraction(3, 2)))),
    ((2, 1, 1), (5, 3, 2), DominanceIndex(2, Fraction(13), Fraction(25),
                                          (Fraction(5), Fraction(5)))),
)


def _even_tilt_series() -> StepSeries:
    # theta 3/2 along exponents 2, 4, 6, ...: the L1 norm sums to 9/7
    return StepSeries(TowerSpec("dyadic"), PowerAlongSubsequence(Fraction(3, 2), "arith:2:2"))


def _check_measure() -> dict:
    tower = TowerSpec("dyadic")
    depth = 12
    rows = []
    for j in range(1, 7):
        enc = tower_generation(tower, j, depth).measure_enclosure
        target = pow2(-j)
        ok = enc.lo <= target <= enc.hi
        # exact rational bound: width <= residual(j) * 2^-depth
        tight = enc.hi - enc.lo <= tower.residual(j) * pow2(-depth)
        if not (ok and tight):
            return {"verdict": FAILED, "generation": j, "measure": enc}
        rows.append({"generation": j, "measure": enc, "target": target})
    return {"verdict": CERTIFIED, "depth": depth, "generations": rows}


def _check_l1() -> dict:
    enc = l1_norm(_even_tilt_series(), terms=40, depth=20)
    target = Fraction(9, 7)
    ok = enc.lo <= target <= enc.hi and enc.hi - enc.lo <= Fraction(1, 1000)
    return {"verdict": COMPUTED if ok else FAILED, "norm": enc.outward(96),
            "closed_form": target}


def _check_unbounded(windows: Sequence[tuple[Fraction, Fraction]]) -> dict:
    """|series| > 10^6 on a component inside every window of length >= 1/100."""
    series = _even_tilt_series()
    bar = Fraction(10**6)
    maxgen = 40
    if any(hi - lo < Fraction(1, 100) for lo, hi in windows):
        raise ValueError("the claim covers windows of length >= 1/100 only")
    witnesses = []
    for lo, hi in windows:
        got = unbounded_witness(series, lo, hi, bar, maxgen=maxgen, depth=24)
        if not (abs(got.value) > bar and got.generation <= maxgen):
            return {"verdict": FAILED, "window": [lo, hi],
                    "generation": got.generation, "value": got.value}
        witnesses.append({"window": [lo, hi],
                          "generation": got.generation, "value": got.value})
    return {"verdict": CERTIFIED, "bound": bar, "witnesses": witnesses}


def _check_dominance() -> dict:
    cases = [dominance_index(betas, thetas) for betas, thetas, _ in _DOMINANCE_CASES]
    ok = all(got == want and got.tail_at_j0 < got.half_lead_at_j0
             and got.fails_before[0] >= got.fails_before[1]
             for got, (_, _, want) in zip(cases, _DOMINANCE_CASES))
    return {"verdict": CERTIFIED if ok else FAILED,
            "cases": cases}


def _check_perturbation() -> Certificate:
    radius = Fraction(3, 5)
    payload = comeager_perturbation(StepFunction(), 1, (ZERO, Fraction(1)), radius).as_json()
    distance = payload["perturbation_l1_distance"]
    threshold = payload["violation_threshold"]
    ok = (distance == Fraction(1, 5)
          and distance <= payload["half_radius"] == radius / 2
          and threshold == radius / 6
          and payload["radius_seventh"] == radius / 7
          and threshold > payload["radius_seventh"])
    return Certificate("every-ball-meets-the-unbounded-set", CERTIFIED if ok else FAILED,
                       payload)


def _check_jump_exactness(indices: Sequence[int]) -> dict:
    """The unit staircase jumps by exactly 2^-i at the i-th rational."""
    stair = staircase_polynomial()
    for i in indices:
        got = jump_enclosure(stair, enum_rational(i))
        expected = pow2(-i)
        if not (got.certified_nonzero and got.value.lo == expected
                and got.value.hi == expected):
            return {"verdict": FAILED, "index": i, "jump": got.value}
    return {"verdict": CERTIFIED, "indices_checked": len(indices),
            "jump_form": "2^-i, attained exactly"}


def _check_variation() -> dict:
    combo = ShiftCombination(((Fraction(2), SqrtShift(1)),
                              (Fraction(3), SqrtShift(2))))
    vb = variation_bounds(combo)
    ok = vb.lower >= 5 and vb.upper is not None and vb.upper <= 15
    return {"verdict": CERTIFIED if ok else FAILED, "lower": vb.lower, "upper": vb.upper}


def _density_targets() -> dict[str, JumpPolynomial]:
    one = (1,)
    return {
        "exp-times-staircase": expand_generator_polynomial({(1,): 1}, one),
        "staircase-squared": JumpPolynomial((ExpPoly.zero(one), ExpPoly.constant(one, 1))),
        "surd-rate-mix": expand_generator_polynomial({(1, 0): 1, (0, 2): 1}, (2, 3)),
    }


def _draw_density_windows(rng: random.Random, per_target: int) -> list[tuple[str, Fraction, Fraction]]:
    """Windows of length 1/50 in the covered band, per_target for each polynomial."""
    span = (_COVERED_HI - _WINDOW) - _COVERED_LO
    windows = []
    for name in _density_targets():
        for _ in range(per_target):
            lo = _COVERED_LO + Fraction(rng.randint(0, 10**6), 10**6) * span
            windows.append((name, lo, lo + _WINDOW))
    return windows


def _check_density(windows: Sequence[tuple[str, Fraction, Fraction]]) -> dict:
    """Every window of length >= 1/1000 holds a rational with a certified nonzero jump."""
    if any(hi - lo < Fraction(1, 1000) for _, lo, hi in windows):
        raise ValueError("the claim covers windows of length >= 1/1000 only")
    targets = _density_targets()
    outcomes = []
    for name, lo, hi in windows:
        try:
            got = jump_search(targets[name], lo, hi, Fraction(1, 1000),
                              index_budget=INDEX_CEILING, terms=64, precision=128)
        except InconclusiveAtBudget as spent:
            raise InconclusiveAtBudget(
                f"{name} on [{format_fraction(lo)}, {format_fraction(hi)}]: {spent.reason}",
                spent.budget) from spent
        if not (lo <= got.point <= hi and got.index <= INDEX_CEILING
                and not got.jump.contains_zero()):
            return {"verdict": FAILED, "polynomial": name, "window": [lo, hi],
                    "index": got.index, "point": got.point, "jump": got.jump}
        outcomes.append({"polynomial": name, "index": got.index,
                         "point": got.point})
    return {"verdict": CERTIFIED, "windows": len(outcomes),
            "window_length": min(hi - lo for _, lo, hi in windows),
            "samples": outcomes[:6]}


def _draw_monomial_vectors(rng: random.Random, count: int) -> list[dict[tuple[int, int], int]]:
    """Nonzero coefficient vectors in {-2..2} over the degree <= 3 monomials."""
    vectors = []
    for _ in range(count):
        coeffs = {m: rng.randint(-2, 2) for m in _MONOMIALS}
        if all(v == 0 for v in coeffs.values()):
            coeffs[_MONOMIALS[0]] = 1
        vectors.append(coeffs)
    return vectors


def _half_sums(cells: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Interval sums (lo, hi) over every coefficient choice in _COEFFS."""
    sums = [(0, 0)]
    for c_lo, c_hi in cells:
        sums = [(lo + (k * c_lo if k >= 0 else k * c_hi),
                 hi + (k * c_hi if k >= 0 else k * c_lo))
                for lo, hi in sums for k in _COEFFS]
    return sums


def _sign_counts(cells: Sequence[tuple[int, int]]) -> dict[str, int]:
    """Count the nonzero coefficient vectors whose interval sum excludes 0.

    Each cell is an integer interval (lo, hi) with lo <= hi, and a vector
    of coefficients from _COEFFS sums the scaled cells.  Meet in the
    middle: for each sum L over the first half of the cells, the right
    half sums R with R.hi < -L.hi or R.lo > -L.lo are certified, and lo <=
    hi keeps the two tests disjoint.  The zero vector sums to [0, 0],
    which neither test counts.
    """
    half = len(cells) // 2
    right = _half_sums(cells[half:])
    his = sorted(hi for _, hi in right)
    los = sorted(lo for lo, _ in right)
    certified = sum(bisect_left(his, -hi) + len(los) - bisect_right(los, -lo)
                    for lo, hi in _half_sums(cells[:half]))
    nonzero = len(_COEFFS) ** len(cells) - 1
    return {"nonzero": nonzero, "certified": certified,
            "ambiguous": nonzero - certified}


def _check_faithfulness(spot_vectors: Sequence[dict[tuple[int, int], int]]) -> dict:
    """Every nonzero vector in {-2..2}^9 gives a certified nonzero jump at 1/2."""
    basis = (2, 3)
    table = jump_contribution_table(Fraction(1, 2), basis, 3)
    scaled = table.scaled(192)
    counts = _sign_counts([scaled[m] for m in _MONOMIALS])
    ok = (counts["nonzero"] == 5**9 - 1
          and counts["ambiguous"] == 0
          and counts["certified"] == counts["nonzero"])
    # the zero polynomial is rejected exactly, not approximately
    try:
        expand_generator_polynomial({m: 0 for m in _MONOMIALS}, basis)
        ok = False
    except ZeroPolynomial:
        pass
    # spot-check the table against the expanded polynomial's own jump
    spots = []
    for coeffs in spot_vectors:
        via_table = table.jump_of(coeffs)
        poly = expand_generator_polynomial(coeffs, basis)
        direct = jump_enclosure(poly, Fraction(1, 2), terms=96, precision=160)
        overlap = (max(via_table.lo, direct.value.lo)
                   <= min(via_table.hi, direct.value.hi))
        nonzero_both = (not via_table.contains_zero()) and direct.certified_nonzero
        ok = ok and overlap and nonzero_both
        spots.append({"jump": via_table, "agrees": overlap})
    return {"verdict": CERTIFIED if ok else FAILED, "counts": counts, "spot_checks": spots}


def _check_gauge_integral() -> dict:
    deriv = Oscillator(kind="derivative")
    total = kurzweil_integral(deriv, 0, 1)
    ok = (total.contains_zero() and total.hi - total.lo <= Fraction(1, 10**9))
    rows = hake_table(deriv, [pow2(-n) for n in range(1, 21)])
    for n, row in zip(range(1, 21), rows):
        if abs(row.integral).hi > 4 * pow2(-2 * n):
            ok = False
            break
    return {"verdict": COMPUTED if ok else FAILED, "integral": total,
            "hake_rows": len(rows), "cutoff_bound": "4 * eps^2"}


def _check_nonlebesgue() -> dict:
    deriv = Oscillator(kind="derivative")
    small = nonlebesgue_witness(deriv, 1)
    large = nonlebesgue_witness(deriv, 4)
    # minimality as exact rationals: one peak short stays under the bar
    ok = (small.K == 1 and small.partial_sum == Fraction(16, 15)
          and small.sum_before == 0
          and large.K == 10 and large.sum_before < 4 <= large.partial_sum)
    return {"verdict": CERTIFIED if ok else FAILED,
            "bar_1": {"K": small.K, "sum": small.partial_sum},
            "bar_4": {"K": large.K, "sum": large.partial_sum}}


def _draw_combinations(rng: random.Random, count: int) -> list[dict[int, Fraction]]:
    """Nonzero coefficients in {-3..3} on the oscillators 1, 2 and 4."""
    combos = []
    for _ in range(count):
        coeffs = {k: Fraction(rng.randint(-3, 3)) for k in (1, 2, 4)}
        if all(v == 0 for v in coeffs.values()):
            coeffs[1] = Fraction(1)
        combos.append(coeffs)
    return combos


def _check_alexiewicz(depths: Sequence[int],
                      combinations: Sequence[dict[int, Fraction]]) -> dict:
    """Unit norm in [0.68, 0.69], the same at every depth, scaling with max |alpha_k|."""
    tol = Fraction(1, 1000)
    units = [{k: 1} for k in (1, *depths)]
    norms = [alexiewicz_norm(OscCombination.of(c), tol) for c in (*units, *combinations)]
    base = norms[0]
    ok = Fraction(68, 100) <= base.lo and base.hi <= Fraction(69, 100)
    for other in norms[1:len(units)]:
        ok = ok and other.lo <= base.hi + 2 * tol and base.lo <= other.hi + 2 * tol
    scaled_checks = []
    for coeffs, got in zip(combinations, norms[len(units):]):
        peak = max(abs(v) for v in coeffs.values())
        lo_ref, hi_ref = peak * base.lo, peak * base.hi
        agree = (got.lo <= hi_ref + 2 * tol and lo_ref <= got.hi + 2 * tol)
        ok = ok and agree
        scaled_checks.append({"max_coeff": peak, "norm": got, "agrees": agree})
    return {"verdict": COMPUTED if ok else FAILED, "unit_norm": base,
            "tolerance": tol, "scaled": scaled_checks}


def _draw_basis_trials(rng: random.Random, count: int) -> list[tuple[list[Fraction], int, int]]:
    """(coefficients, m1, m2) with integer coefficients in {-3..3}."""
    trials = []
    for _ in range(count):
        m2 = rng.randint(2, 6)
        m1 = rng.randint(1, m2)
        trials.append(([Fraction(rng.randint(-3, 3)) for _ in range(m2)], m1, m2))
    return trials


def _check_basis_inequality(trials: Sequence[tuple[Sequence[Fraction], int, int]]) -> dict:
    """The basic-sequence inequality holds, with a nonnegative margin, on every trial."""
    family = disjoint_power_family(Fraction(3, 2), 6)
    for trial, (coeffs, m1, m2) in enumerate(trials):
        result = basis_inequality_check(coeffs, m1, m2, family)
        if result.margin_lower < 0:
            return {"verdict": FAILED, "trial": trial, "comparison": result}
    return {"verdict": CERTIFIED, "trials": len(trials), "family_size": 6}


def _draw_points(rng: random.Random, count: int) -> list[Fraction]:
    """Points of the 1/2000 grid in [1/20, 19/20)."""
    return [Fraction(rng.randint(100, 1899), 2000) for _ in range(count)]


def _check_finite_difference(points: Sequence[Fraction]) -> dict:
    """The primitive's difference quotient agrees with the derivative at every point."""
    prim = Oscillator(kind="primitive")
    deriv = Oscillator(kind="derivative")
    h = pow2(-30)
    for x in points:
        quotient = (osc_eval(prim, x + h, 128) - osc_eval(prim, x, 128)) * (1 / h)
        at_x = osc_eval(deriv, x, 128)
        # mean value bound: the quotient sits within slope_bound * h of phi(x)
        slack = slope_bound(deriv, x, x + h) * h
        if not (at_x.lo - slack <= quotient.lo and quotient.hi <= at_x.hi + slack):
            return {"verdict": FAILED, "x": x, "difference_quotient": quotient,
                    "derivative": at_x}
    return {"verdict": CERTIFIED, "points": len(points), "step": h}


def _draw_windows(rng: random.Random, count: int, width: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Windows of the given width inside [0, 1], left ends on the 1/1000 grid."""
    los = [Fraction(rng.randint(0, int((1 - width) * 1000)), 1000) for _ in range(count)]
    return [(lo, lo + width) for lo in los]


def _seeded() -> random.Random:
    return random.Random(_SEED)


# the bundled report: each check on its own seed-97 draw
_CHECKS: list[tuple[int, str, str, Callable[[], object]]] = [
    (1, "tower measure recursion", "measure-enclosure", _check_measure),
    (2, "step-series L1 closed form", "norm-enclosure", _check_l1),
    (3, "essential unboundedness on windows", "unbounded",
     lambda: _check_unbounded(_draw_windows(_seeded(), 4, Fraction(1, 25)))),
    (4, "leading-term dominance index", "basis-inequality", _check_dominance),
    (5, "norm-ball perturbation", "perturbation", _check_perturbation),
    (6, "staircase jump exactness", "jump-nonzero",
     lambda: _check_jump_exactness(range(1, 101))),
    (7, "shifted-copy variation bounds", "norm-enclosure", _check_variation),
    (8, "dense jump sampling", "jump-dense-sample",
     lambda: _check_density(_draw_density_windows(_seeded(), 6))),
    (9, "generator-monomial faithfulness", "jump-nonzero",
     lambda: _check_faithfulness(_draw_monomial_vectors(_seeded(), 3))),
    (10, "gauge integral and cutoff limits", "norm-enclosure", _check_gauge_integral),
    (11, "minimal non-integrability witness", "non-lebesgue", _check_nonlebesgue),
    (12, "primitive sup norm", "norm-enclosure",
     lambda: _check_alexiewicz((2, 3), _draw_combinations(_seeded(), 3))),
    (13, "nested-sum norm inequality", "basis-inequality",
     lambda: _check_basis_inequality(_draw_basis_trials(_seeded(), 10))),
    (14, "derivative finite differences", "norm-enclosure",
     lambda: _check_finite_difference(_draw_points(_seeded(), 100))),
]


def run_checklist() -> list[dict]:
    """Run all bundled checks, each entry with its outcome as JSON."""
    return [{"criterion": number, "title": title, "claim": claim, **timed_check(check)}
            for number, title, claim, check in _CHECKS]
