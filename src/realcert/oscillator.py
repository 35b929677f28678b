"""Everywhere-differentiable oscillators whose derivatives escape L1.

The model primitive rises like 4x^2 sin(pi/(4x^2)) on the left half of
the unit interval and mirrors, with flipped sign, on the right half.  It
is differentiable everywhere, including the endpoints, yet the
derivative oscillates so hard near 0 that its positive and negative
parts both have infinite integral.  Integration is by antiderivative
difference, which is exact for these integrands; phase arguments are
rational at rational points, so the kernel's sin(pi * c) reduction gives
exact zeros there.  The alternating peaks sit at irrational points, where
the primitive is enclosed around its exact heights (-1)^k * 2/(2k+1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .certificates import CERTIFIED, Certificate, InconclusiveAtBudget
from .enclosure import Enclosure, _sin_pi_range, pi_const, sqrt_enc
# bound for bench/test_bench.py::Tracing::test_wrappers_count_and_are_removed
from .enclosure import sin_pi  # noqa: F401
from .rational import (ONE, ZERO, RationalLike, SpecError, SpecValue, as_fraction,
                       dyadic_floor, dyadic_reduce, format_fraction)


class ZeroCombination(ValueError):
    """A combination with at least one nonzero coefficient is required."""


class UnboundedSpan(ValueError):
    """Derivative values blow up inside the requested span."""


# ---------------------------------------------------------------------------
# Branch formulas on the unit interval
# ---------------------------------------------------------------------------


def _phase_ends(a_lo: int, b_lo: int, a_hi: int, b_hi: int) -> tuple[int, int, int, int]:
    # the phase 1/(4 s^2) over a_lo/b_lo <= s <= a_hi/b_hi, s > 0, falls as
    # s grows: its ends as _sin_pi_range takes them, one key per s for both
    # branches
    return b_hi * b_hi, 4 * a_hi * a_hi, b_lo * b_lo, 4 * a_lo * a_lo


def _primitive_half(a_lo: int, b_lo: int, a_hi: int, b_hi: int,
                    precision: int) -> tuple[int, int, int, int]:
    # 4 s^2 sin(pi/(4 s^2)) over 0 <= a_lo/b_lo <= s <= a_hi/b_hi <= 1/2,
    # as the ends lo_n/lo_d and hi_n/hi_d of the enclosure
    if a_lo == 0:
        m, q = 4 * a_hi * a_hi, b_hi * b_hi
        return -m, q, m, q  # |value| <= 4 s^2, sine bounded
    sin_lo, sin_hi, w = _sin_pi_range(*_phase_ends(a_lo, b_lo, a_hi, b_hi), precision)
    # 4 s^2 sin, s > 0: the sign of each sine end picks its end of s
    x_a, x_b = (a_lo, b_lo) if sin_lo >= 0 else (a_hi, b_hi)
    y_a, y_b = (a_hi, b_hi) if sin_hi >= 0 else (a_lo, b_lo)
    return 4 * x_a * x_a * sin_lo, x_b * x_b << w, 4 * y_a * y_a * sin_hi, y_b * y_b << w


def _derivative_half(a_lo: int, b_lo: int, a_hi: int, b_hi: int,
                     precision: int) -> tuple[int, int, int, int]:
    # 8 s sin(pi/(4 s^2)) - (2 pi / s) cos(pi/(4 s^2)), s bounded away from 0
    if a_lo <= 0:
        raise UnboundedSpan("derivative is unbounded approaching the edge")
    # each end below is the exact rational that interval arithmetic gives
    p_lo_n, p_lo_d, p_hi_n, p_hi_d = _phase_ends(a_lo, b_lo, a_hi, b_hi)
    sin_lo, sin_hi, w = _sin_pi_range(p_lo_n, p_lo_d, p_hi_n, p_hi_d, precision)
    # cos(pi c) = sin(pi (c + 1/2))
    cos_lo, cos_hi, _ = _sin_pi_range(2 * p_lo_n + p_lo_d, 2 * p_lo_d,
                                      2 * p_hi_n + p_hi_d, 2 * p_hi_d, precision)
    # swing = 8 s sin, s > 0: the sign of each sine end picks its end of s
    x_a, x_b = (a_lo, b_lo) if sin_lo >= 0 else (a_hi, b_hi)
    y_a, y_b = (a_hi, b_hi) if sin_hi >= 0 else (a_lo, b_lo)
    # pull = (2 pi / s) cos, with 2 pi / s in [2 pi_lo / s_hi, 2 pi_hi / s_lo]
    pi = pi_const(precision)
    g_lo = (2 * pi.lo.numerator * b_hi, pi.lo.denominator * a_hi)
    g_hi = (2 * pi.hi.numerator * b_lo, pi.hi.denominator * a_lo)
    u_n, u_d = g_lo if cos_lo >= 0 else g_hi
    v_n, v_d = g_hi if cos_hi >= 0 else g_lo
    # swing - pull, every sine and cosine end on the 2**-w grid
    return (8 * x_a * sin_lo * v_d - v_n * cos_hi * x_b, (x_b * v_d) << w,
            8 * y_a * sin_hi * u_d - u_n * cos_lo * y_b, (y_b * u_d) << w)


def _unit_branch(lo_n: int, lo_d: int, hi_n: int, hi_d: int, precision: int,
                 primitive: bool) -> tuple[int, int, int, int]:
    """Hull of the two half-branches over [lo_n/lo_d, hi_n/hi_d] on the unit chart.

    The chart ends come in lowest terms, so that each phase keeps one
    sine memo key; the hull's ends (lo_n, lo_d, hi_n, hi_d) come back
    unreduced, over positive denominators.
    """
    if (lo_n, lo_d) == (hi_n, hi_d) and lo_n in (0, lo_d):
        return 0, 1, 0, 1
    half = _primitive_half if primitive else _derivative_half
    if 2 * hi_n <= hi_d:
        return half(lo_n, lo_d, hi_n, hi_d, precision)
    # same formula in the reflected variable 1 - t; the primitive flips sign
    right = (lo_d - lo_n, lo_d) if 2 * lo_n > lo_d else (1, 2)
    n1, d1, n2, d2 = half(hi_d - hi_n, hi_d, *right, precision)
    if primitive:
        n1, d1, n2, d2 = -n2, d2, -n1, d1
    if 2 * lo_n > lo_d:
        return n1, d1, n2, d2
    p1, q1, p2, q2 = half(lo_n, lo_d, 1, 2, precision)
    return (*((n1, d1) if n1 * q1 <= p1 * d1 else (p1, q1)),
            *((n2, d2) if n2 * q2 >= p2 * d2 else (p2, q2)))


# every support's chart maps its dyadic boxes onto the same unit-chart
# boxes, and alexiewicz_norm folds each onto its mirror in the left half,
# so the memo is hit often; the integer key costs a hit no Fraction hash
@lru_cache(maxsize=1 << 11)
def _unit_measure(d: int, i: int, precision: int) -> tuple[int, int, int]:
    """Unit primitive on box i of depth d of the bisection of [0, 1].

    Returns (point, box, e), both over 2^e: the certified |value| at the
    box midpoint (2i+1)/2^(d+1), taken at precision + 32, and a sup bound
    of |value| over the box [i/2^d, (i+1)/2^d].  The box lies in the left
    half, or is the root [0, 1], which measures as [0, 1/2] because
    F(1 - t) = -F(t).  Every end is dyadic, so both values are reduced
    by their trailing zero bits.
    """
    lo, _, hi, den = _primitive_half(2 * i + 1, 2 << d, 2 * i + 1, 2 << d, precision + 32)
    point, p = dyadic_reduce(lo if lo > 0 else -hi if hi < 0 else 0, den.bit_length() - 1)
    a, a_e = dyadic_reduce(i, d)
    b, b_e = dyadic_reduce(i + 1, d) if d else (1, 1)
    lo, lo_d, hi, hi_d = _primitive_half(a, 1 << a_e, b, 1 << b_e, precision)
    grid = max(lo_d, hi_d)
    box, q = dyadic_reduce(max(-lo * (grid // lo_d), hi * (grid // hi_d)), grid.bit_length() - 1)
    e = max(p, q)
    return point << e - p, box << e - q, e


# ---------------------------------------------------------------------------
# Oscillator on a subinterval, alternating peak points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Extremum:
    """k-th alternating peak of the unit primitive, at 1/sqrt(2+4k).

    The phase there is (k + 1/2) pi, so the primitive value is
    (-1)^k * 2/(2k+1); the peak-gap sums of the witnesses add these.
    """

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("peaks are indexed from 1")

    def point(self, precision: int = 96) -> Enclosure:
        return 1 / sqrt_enc(2 + 4 * self.k, precision)


@dataclass(frozen=True)
class Oscillator:
    """The model oscillator carried onto [lo, hi] by the affine chart.

    kind "primitive" evaluates the everywhere-differentiable hump; kind
    "derivative" evaluates its pointwise derivative, which divides by the
    interval length.  Both vanish outside the interval.
    """

    lo: Fraction = ZERO
    hi: Fraction = ONE
    kind: str = "derivative"

    def __post_init__(self) -> None:
        lo, hi = as_fraction(self.lo), as_fraction(self.hi)
        if not ZERO <= lo < hi <= ONE:
            raise ValueError(f"need 0 <= lo < hi <= 1, got [{lo}, {hi}]")
        if self.kind not in ("primitive", "derivative"):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @cached_property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def _eval(self, x: "Enclosure | RationalLike", precision: int,
              primitive: bool) -> Enclosure:
        if isinstance(x, Enclosure):
            x_lo, x_hi = x.lo, x.hi
        else:
            x_lo = x_hi = as_fraction(x)
        # the chart onto [0, 1] on integers: t = (x - lo) / length = n / m
        (a, b), (l_n, l_d) = self.lo.as_integer_ratio(), self.length.as_integer_ratio()
        (n0, m0), (n1, m1) = [((q.numerator * b - a * q.denominator) * l_d,
                               q.denominator * b * l_n) for q in (x_lo, x_hi)]
        if n1 < 0 or n0 > m0:
            return Enclosure(ZERO, ZERO)
        outside = n0 < 0 or n1 > m1
        n0, n1 = max(n0, 0), min(n1, m1)
        g0, g1 = gcd(n0, m0), gcd(n1, m1)
        lo_n, lo_d, hi_n, hi_d = _unit_branch(n0 // g0, m0 // g0, n1 // g1, m1 // g1,
                                              precision, primitive)
        if not primitive:  # the derivative divides by the length
            lo_n, lo_d, hi_n, hi_d = lo_n * l_d, lo_d * l_n, hi_n * l_d, hi_d * l_n
        if outside:  # the hull with the zero outside the support
            lo_n, hi_n = min(lo_n, 0), max(hi_n, 0)
        return Enclosure(Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))

    def primitive_at(self, x: "Enclosure | RationalLike", precision: int = 96) -> Enclosure:
        return self._eval(x, precision, primitive=True)

    def derivative_at(self, x: "Enclosure | RationalLike", precision: int = 96) -> Enclosure:
        return self._eval(x, precision, primitive=False)

    def value_at(self, x: "Enclosure | RationalLike", precision: int = 96) -> Enclosure:
        if self.kind == "primitive":
            return self.primitive_at(x, precision)
        return self.derivative_at(x, precision)

    def as_json(self) -> dict[str, object]:
        return {"lo": self.lo, "hi": self.hi, "kind": self.kind}


def osc_eval(o: Oscillator, x: "Enclosure | RationalLike", precision: int = 96) -> Enclosure:
    """Sound enclosure of the oscillator at x; exact zeros off support."""
    return o.value_at(x, precision)


# ---------------------------------------------------------------------------
# Finite combinations over the dyadic intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OscCombination:
    """Finite sum of scaled derivative oscillators on [2^-(k+1), 2^-k].

    Supports have pairwise disjoint interiors, meeting only at dyadic
    endpoints where every branch vanishes, so values and integrals add
    coordinate by coordinate.
    """

    alphas: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self) -> None:
        seen: set[int] = set()
        cleaned = []
        for k, alpha in self.alphas:
            k = int(k)
            alpha = as_fraction(alpha)
            if k < 1:
                raise ValueError("support indices start at 1")
            if k in seen:
                raise ValueError(f"duplicate support index {k}")
            seen.add(k)
            if alpha != 0:
                cleaned.append((k, alpha))
        object.__setattr__(self, "alphas", tuple(sorted(cleaned)))

    @staticmethod
    def of(coeffs: Mapping[int, RationalLike]) -> "OscCombination":
        return OscCombination(tuple((k, as_fraction(v)) for k, v in coeffs.items()))

    @staticmethod
    def support(k: int) -> tuple[Fraction, Fraction]:
        return Fraction(1, 1 << (k + 1)), Fraction(1, 1 << k)

    @property
    def is_zero(self) -> bool:
        return not self.alphas

    # built once per combination; not a field, so ==, hash and memo keys ignore it
    @cached_property
    def _oscillators(self) -> tuple[tuple[Fraction, Oscillator], ...]:
        return tuple((alpha, Oscillator(*self.support(k), kind="derivative"))
                     for k, alpha in self.alphas)

    def _sum(self, x, precision: int, primitive: bool) -> Enclosure:
        total = Enclosure.point(0)
        for alpha, osc in self._oscillators:
            part = osc.primitive_at(x, precision) if primitive \
                else osc.derivative_at(x, precision)
            if part.lo == 0 == part.hi:
                continue  # off its support; adding an exact zero changes no bound
            total = total + alpha * part
        return total

    def value_at(self, x: "Enclosure | RationalLike", precision: int = 96) -> Enclosure:
        return self._sum(x, precision, primitive=False)

    def primitive_at(self, x: "Enclosure | RationalLike", precision: int = 96) -> Enclosure:
        return self._sum(x, precision, primitive=True)

    def as_json(self) -> dict[str, object]:
        return {"alphas": dict(self.alphas)}

    @staticmethod
    def from_json(data: object) -> "OscCombination":
        alphas = SpecValue(data)["alphas"]
        for key, _ in alphas.items():  # "1", "2", ... as JSON writes them, or ints
            if not (isinstance(key, int) or isinstance(key, str) and key.isascii()
                    and key.isdigit() and key[0] != "0"):
                raise SpecError(f"{alphas.path}: key {key!r} is not a positive integer")
        return OscCombination.of({int(k): alpha.rational() for k, alpha in alphas.items()})


# ---------------------------------------------------------------------------
# Integration by antiderivative difference
# ---------------------------------------------------------------------------


def kurzweil_integral(obj: "Oscillator | OscCombination", lo: RationalLike,
                      hi: RationalLike, precision: int = 96) -> Enclosure:
    """Integral of the derivative object over [lo, hi], rational ends in [0, 1].

    Every integrand here is an exact derivative, so the gauge integral is
    the difference of primitive values; no partitioning is involved and
    additivity across shared endpoints holds within enclosure widths.
    """
    if isinstance(obj, Oscillator) and obj.kind != "derivative":
        raise ValueError("integrand must be a derivative-kind oscillator")
    upper, lower = as_fraction(hi), as_fraction(lo)
    for q in (upper, lower):
        if not ZERO <= q <= ONE:
            raise ValueError(f"endpoint {q} leaves the unit interval")
    return obj.primitive_at(upper, precision) - obj.primitive_at(lower, precision)


@dataclass(frozen=True)
class HakeEntry:
    epsilon: Fraction
    integral: Enclosure


def hake_table(obj: "Oscillator | OscCombination", epsilons: Sequence[RationalLike],
               precision: int = 96) -> tuple[HakeEntry, ...]:
    """Enclosures of the integral over [eps, 1] for each rational cutoff.

    As the cutoffs decrease the rows approach the full integral, which is
    how the gauge integral of an endpoint-singular derivative is defined;
    each row is sound on its own, whatever order the cutoffs come in.
    """
    rows = []
    for eps in map(as_fraction, epsilons):
        if not ZERO < eps <= ONE:
            raise ValueError(f"cutoff {eps} must sit inside (0, 1]")
        rows.append(HakeEntry(eps, kurzweil_integral(obj, eps, ONE, precision)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Non-Lebesgue witnesses
# ---------------------------------------------------------------------------


def _peak_gap(k: int) -> Fraction:
    # |integral between consecutive peaks| = 2/(2k+1) + 2/(2k+3), exact
    return Fraction(2, 2 * k + 1) + Fraction(2, 2 * k + 3)


@dataclass(frozen=True)
class NonLebesgueWitness:
    """Exact lower bound for the integral of |derivative| past a bar.

    Between consecutive alternating peaks the signed integral has exact
    magnitude 2/(2k+1) + 2/(2k+3); these magnitudes sum below the
    integral of the absolute value over [peak K+1, peak 1] and diverge,
    so a minimal K exists for every bar.  The sum is invariant under the
    affine chart, so the same numbers certify every host interval.
    """

    host: Oscillator
    bar: Fraction
    K: int
    partial_sum: Fraction
    sum_before: Fraction
    span_lo: Enclosure
    span_hi: Enclosure

    def rows(self) -> Iterable[tuple[int, Fraction, Fraction]]:
        running = ZERO
        for k in range(1, self.K + 1):
            term = _peak_gap(k)
            running += term
            yield k, term, running

    def certificate(self) -> Certificate:
        return Certificate(
            claim="non-lebesgue",
            verdict=CERTIFIED,
            payload={
                "host": self.host,
                "bar": self.bar,
                "peaks_used": self.K,
                "partial_sum": self.partial_sum,
                "sum_before": self.sum_before,
                "span_lo": self.span_lo,
                "span_hi": self.span_hi,
            },
        )


def nonlebesgue_witness(o: Oscillator, bar: RationalLike, precision: int = 96,
                        max_peaks: int = 10_000) -> NonLebesgueWitness:
    """Least K whose peak-gap partial sum reaches the bar, exactly.

    The sums grow like twice the logarithm of K while their exact
    denominators grow exponentially, so very large bars stop at the peak
    budget instead of grinding; within budget, minimality is exact.
    """
    if o.kind != "derivative":
        raise ValueError("witness applies to derivative-kind oscillators")
    bar = as_fraction(bar)
    if bar <= 0:
        raise ValueError("bar must be positive")
    total = ZERO
    k = 0
    while total < bar:
        if k >= max_peaks:
            raise InconclusiveAtBudget(
                f"partial sum at least {format_fraction(dyadic_floor(total, 32))} "
                f"after {k} peaks has not reached {format_fraction(bar)}",
                {"max_peaks": max_peaks})
        k += 1
        total += _peak_gap(k)
    before = total - _peak_gap(k)
    inner_lo = Extremum(k + 1).point(precision)
    inner_hi = Extremum(1).point(precision)
    span_lo = o.lo + o.length * inner_lo
    span_hi = o.lo + o.length * inner_hi
    return NonLebesgueWitness(o, bar, k, total, before, span_lo, span_hi)


@dataclass(frozen=True)
class RestrictionWitness:
    """Non-integrability witness pushed through the largest coefficient."""

    index: int
    alpha: Fraction
    scaled_sum: Fraction
    base: NonLebesgueWitness

    def certificate(self) -> Certificate:
        inner = self.base.certificate()
        return Certificate(
            claim="non-lebesgue",
            verdict=CERTIFIED,
            payload={
                "support_index": self.index,
                "alpha": self.alpha,
                "scaled_sum": self.scaled_sum,
                "restriction": inner.payload,
            },
        )


def restriction_witness(c: OscCombination, bar: RationalLike, precision: int = 96,
                        max_peaks: int = 10_000) -> RestrictionWitness:
    """Certify that no nonzero combination is absolutely integrable.

    Restricted to one support the combination is a single scaled
    oscillator, so the peak-gap witness applies after dividing the bar by
    the coefficient.  The largest magnitude (ties to the shallowest
    support) keeps the required K smallest.
    """
    if c.is_zero:
        raise ZeroCombination("all coefficients vanish")
    bar = as_fraction(bar)
    index, alpha = max(c.alphas, key=lambda ka: (abs(ka[1]), -ka[0]))
    host = Oscillator(*OscCombination.support(index), kind="derivative")
    base = nonlebesgue_witness(host, bar / abs(alpha), precision, max_peaks)
    return RestrictionWitness(index, alpha, abs(alpha) * base.partial_sum, base)


# ---------------------------------------------------------------------------
# Alexiewicz norm by branch and bound
# ---------------------------------------------------------------------------


def alexiewicz_norm(obj: "OscCombination | Oscillator", tol: RationalLike,
                    precision: int = 64, queue_limit: int = 100_000) -> Enclosure:
    """Enclose sup |primitive| to within tol by certified bisection.

    Boxes are split widest first; a box dies once its sup bound falls to
    the best certified point value, and the surviving bounds squeeze the
    norm.  The countable zero set never traps the search because point
    evaluations keep raising the floor near the true peak.  More than
    queue_limit live boxes ends the search inconclusive.  The primitive of
    a derivative-kind oscillator is the unit hump, so a primitive-kind one,
    whose own primitive is not evaluated here, is refused.

    Every box lies inside one support, where the primitive is |alpha_k|
    times the unit primitive on the box's unit chart; other supports meet
    it at most in an endpoint, where they vanish exactly.  A box is node
    n = 2^d + i of its support's bisection tree, charted to
    [i/2^d, (i+1)/2^d] and valued at the chart midpoint.  Support k has
    width 2^-(k+1), so the integers (k + 1 + d, n) order boxes widest
    first, then leftmost; a single oscillator uses (d, n).
    """
    tol = as_fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if isinstance(obj, Oscillator) and obj.kind != "derivative":
        raise ValueError("witness applies to derivative-kind oscillators")
    if isinstance(obj, OscCombination):
        if obj.is_zero:
            return Enclosure(ZERO, ZERO)
        alphas = [(k + 1, abs(alpha)) for k, alpha in obj.alphas]
    else:
        alphas = [(0, ONE)]
    # every value below is an integer over den << bits, with |alpha| =
    # scale / den on one common den; bits grows when a memo value needs it
    den = lcm(*(alpha.denominator for _, alpha in alphas))
    spans = [(rank, alpha.numerator * (den // alpha.denominator)) for rank, alpha in alphas]
    bits = 0
    floor = 0
    # boxes (rank, n) widest first, and the same live boxes by bound,
    # largest first.  heap pops keys in increasing order, as a child always
    # ranks above its parent, so a by_bound entry is stale exactly when its
    # key is at or below the last popped one; it drops off when it surfaces
    heap: list[tuple[int, int, int, int]] = []
    by_bound: list[tuple[int, int, int]] = []
    last = (-1, 0)

    def measure(scale: int, n: int) -> tuple[int, int]:
        # certified |value| at the box midpoint, and a sup bound over the box;
        # |F(1 - t)| = |F(t)|, so box i at depth d measures as min(i, 2^d - 1 - i)
        nonlocal bits, floor
        d = n.bit_length() - 1
        point, box, e = _unit_measure(d, min(n - (1 << d), (2 << d) - 1 - n), precision)
        if e > bits:
            # a finer grid scales every value by one power of two, so both
            # heaps stay in order; the headroom spares the next depths this
            shift = e + 32 - bits
            bits += shift
            floor <<= shift
            heap[:] = [(r, m, a, b << shift) for r, m, a, b in heap]
            by_bound[:] = [(b << shift, r, m) for b, r, m in by_bound]
        return scale * point << bits - e, scale * box << bits - e

    def push(rank: int, n: int, scale: int, bound: int) -> None:
        heapq.heappush(heap, (rank, n, scale, bound))
        heapq.heappush(by_bound, (-bound, rank, n))

    for rank, scale in spans:
        point, bound = measure(scale, 1)
        floor = max(floor, point)
        push(rank, 1, scale, bound)
    while heap:
        while by_bound[0][1:] <= last:
            heapq.heappop(by_bound)
        # floor may have risen past a stale box bound since its push
        ceiling = max(-by_bound[0][0], floor)
        if (ceiling - floor) * tol.denominator <= tol.numerator * (den << bits):
            return Enclosure(Fraction(floor, den << bits), Fraction(ceiling, den << bits))
        rank, n, scale, bound = heapq.heappop(heap)
        last = (rank, n)
        if bound <= floor:
            continue
        for child in (2 * n, 2 * n + 1):
            point, child_bound = measure(scale, child)
            floor = max(floor, point)
            if child_bound > floor:
                push(rank + 1, child, scale, child_bound)
        if len(heap) > queue_limit:
            raise InconclusiveAtBudget(
                f"{len(heap)} boxes alive at tolerance {tol}",
                {"tolerance": tol, "queue_limit": queue_limit})
    # every box was dominated by a certified point value
    return Enclosure.point(Fraction(floor, den << bits))


# ---------------------------------------------------------------------------
# Derivative slope bound for finite-difference checks
# ---------------------------------------------------------------------------


def slope_bound(o: Oscillator, x_lo: RationalLike, x_hi: RationalLike,
                precision: int = 48) -> Fraction:
    """Upper bound for |derivative'| on a span inside the support.

    On the unit chart the slope of the derivative branch is
    8 sin - (2 pi / t^2) cos - (pi^2 / t^4) sin, dominated by
    8 + 2 pi/t^2 + pi^2/t^4 with t the chart distance to the nearer
    endpoint.  F' is symmetric about 1/2 and the bound falls as t grows,
    so the span's worst point is the end nearest 0 or 1.  Undoing the
    chart divides by the host length twice: once for the derivative's
    own scaling and once for the slope.
    """
    a, b = as_fraction(x_lo), as_fraction(x_hi)
    if not o.lo < a < b < o.hi:
        raise UnboundedSpan(f"span [{a}, {b}] must sit strictly inside the support")
    t = min(a - o.lo, o.hi - b) / o.length
    n, m = t.numerator ** 2, t.denominator ** 2
    p, q = pi_const(precision).hi.as_integer_ratio()
    l_n, l_d = o.length.as_integer_ratio()
    # (8 + 2 pi/t^2 + pi^2/t^4) / length^2 over one denominator, t^2 = n/m
    return Fraction((8 * q * q * n * n + 2 * p * q * m * n + p * p * m * m) * l_d * l_d,
                    q * q * n * n * l_n * l_n)
