"""Validated interval arithmetic over exact rationals.

An :class:`Enclosure` is a closed interval ``[lo, hi]`` with Fraction
endpoints, guaranteed to contain the real number it stands for.  All
operations are outward-safe: the result encloses every value the operation
can take over the inputs.  Nothing here ever rounds toward the true value.

The kernels are ``sin_pi`` and ``cos_pi`` (sin and cos of ``pi * c``),
``exp_enc``, ``sqrt_enc`` and the constant ``pi_const``.  exp and sin use
Taylor expansions with explicit Lagrange remainder bounds; pi comes from a
Machin-type series with an alternating-tail bracket, and ``sin_pi`` /
``cos_pi`` reduce their argument modulo 2 exactly in the rationals before
pi enters.  For point inputs the width of the result is at most
``2**-precision``.

``exp_enc``, ``sqrt_enc`` and ``pi_const`` also refine monotonically: the
enclosure computed at precision ``p + 8`` is a sub-interval of the one
computed at precision ``p``.  ``exp_enc`` makes one evaluation at
``b = 8*ceil(p/8)`` bits, and nesting follows from how that evaluation is
built.  Its two decisions, the endpoint split for inputs wider than 2 and
the reduction point ``n = floor(mid)``, are taken on the exact input, so
every precision follows the same path.  With ``n`` and the path fixed,
``b + 8`` bits repeats the ``b``-bit computation on a finer grid:
rounding outward onto a finer grid lands inside the coarser rounding,
interval operations are inclusion-monotone, and the e bracket and its
powers nest.  The extra Taylor terms and the finer tail stay inside the
coarser tail ``5 * bound``, because each term is smaller than the last by
a factor of about ``b_abs / (k + 1)``, at most 2/3.  ``sqrt_enc`` rounds
onto nested dyadic grids and ``pi_const`` onto nested partial-sum
brackets.  ``sin_pi`` and ``cos_pi`` take their Taylor cutoff and grid
from the requested precision and do not keep this contract: a higher
precision can return an enclosure that is tighter but not nested.

``sin_pi`` works on integers below its API.  ``_sin_pi_fx`` evaluates
sin(pi * n/d) for integers n and d as an integer bracket on the
2**-(precision + 36) grid; the reduction modulo 2 and the outward floor
and ceiling of pi * r are integer divisions.  ``_sin_pi_range`` finds the
half-integers of an interval with integer arithmetic and bounds the
rest by the endpoint values.  ``sin_pi``, ``cos_pi`` and the
oscillator's derivative branch run through it and build Fractions only
for the enclosures they return.

Repeated work is memoised, and every memo returns the value a fresh
evaluation would: the pi and e brackets, ``exp_enc``'s evaluations
(``_naive_exp``, at most 16384 entries) and the point values of
``sin_pi`` (``_sin_pi_fx``, keyed by the integers (n, d, precision), at
most 4096 entries).  The last one serves the Alexiewicz branch and
bound, whose adjacent boxes share their phase endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .rational import (
    HALF,
    ONE,
    ZERO,
    RationalLike,
    as_fraction,
    ceil_scaled,
    dyadic_ceil,
    dyadic_floor,
    floor_scaled,
    pow2,
)


class DivisorContainsZero(ZeroDivisionError):
    """Interval division where the divisor encloses zero."""


class NegativeSqrtDomain(ValueError):
    """Square root requested on an enclosure that reaches below zero."""


@dataclass(frozen=True, slots=True)
class Enclosure:
    """Closed rational interval certified to contain a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.lo, Fraction):
            object.__setattr__(self, "lo", as_fraction(self.lo))
        if not isinstance(self.hi, Fraction):
            object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure: lo={self.lo} > hi={self.hi}")

    # -- constructors -------------------------------------------------

    @staticmethod
    def point(value: RationalLike) -> "Enclosure":
        q = as_fraction(value)
        return Enclosure(q, q)

    # -- inspection ---------------------------------------------------

    def mag(self) -> Fraction:
        """Upper bound for |x| over the enclosure."""
        return max(-self.lo, self.hi)

    def mignitude(self) -> Fraction:
        """Lower bound for |x| over the enclosure (0 if it straddles 0)."""
        if self.lo > 0:
            return self.lo
        if self.hi < 0:
            return -self.hi
        return ZERO

    def contains(self, other: "Enclosure | RationalLike") -> bool:
        if isinstance(other, Enclosure):
            return self.lo <= other.lo and other.hi <= self.hi
        q = as_fraction(other)
        return self.lo <= q <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Enclosure | RationalLike") -> "Enclosure":
        o = _coerce(other)
        return Enclosure(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other: "Enclosure | RationalLike") -> "Enclosure":
        return self + (-_coerce(other))

    def __mul__(self, other: "Enclosure | RationalLike") -> "Enclosure":
        o = _coerce(other)
        if o.lo == o.hi:
            # scaling by a point: two products, ordered by its sign
            a, b = self.lo * o.lo, self.hi * o.lo
            return Enclosure(a, b) if o.lo >= 0 else Enclosure(b, a)
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Enclosure(min(p), max(p))

    __rmul__ = __mul__

    def __truediv__(self, other: "Enclosure | RationalLike") -> "Enclosure":
        o = _coerce(other)
        if o.lo <= 0 <= o.hi:
            raise DivisorContainsZero(f"divisor {o} encloses zero")
        return self * Enclosure(1 / o.hi, 1 / o.lo)

    def __rtruediv__(self, other: "Enclosure | RationalLike") -> "Enclosure":
        return _coerce(other) / self

    def __abs__(self) -> "Enclosure":
        return Enclosure(self.mignitude(), self.mag())

    # -- lattice ------------------------------------------------------

    def intersect(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(max(self.lo, other.lo), min(self.hi, other.hi))

    def hull(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(min(self.lo, other.lo), max(self.hi, other.hi))

    def outward(self, bits: int) -> "Enclosure":
        """Round outward onto the 2**-bits grid (caps denominator growth)."""
        return Enclosure(dyadic_floor(self.lo, bits), dyadic_ceil(self.hi, bits))

    # -- serialization ------------------------------------------------

    def as_json(self) -> dict[str, Fraction]:
        return {"lo": self.lo, "hi": self.hi}

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _coerce(value: "Enclosure | RationalLike") -> Enclosure:
    if isinstance(value, Enclosure):
        return value
    return Enclosure.point(value)


# ---------------------------------------------------------------------------
# pi and e brackets
# ---------------------------------------------------------------------------

# no memo: its only caller, _pi_bracket, is memoised on the same bits
def _atan_inv_bracket(inv: int, bits: int) -> tuple[Fraction, Fraction]:
    """Bracket for atan(1/inv), inv >= 2, via the alternating Gregory series.

    The value always lies between consecutive partial sums, so the bracket
    needs no separate remainder estimate, and brackets at larger term
    counts are nested inside earlier ones.
    """
    x = Fraction(1, inv)
    x2 = x * x
    cutoff = pow2(-bits)
    s = ZERO
    p = x
    n = 1
    sign = 1
    while True:
        s_next = s + sign * p / n
        p_next = p * x2
        n_next = n + 2
        step = p_next / n_next
        if step <= cutoff:
            other = s_next - sign * step
            return (min(s_next, other), max(s_next, other))
        s = s_next
        p = p_next
        n = n_next
        sign = -sign


@lru_cache(maxsize=None)
def _pi_bracket(bits: int) -> tuple[Fraction, Fraction]:
    """Machin: pi = 16 atan(1/5) - 4 atan(1/239)."""
    a_lo, a_hi = _atan_inv_bracket(5, bits + 8)
    b_lo, b_hi = _atan_inv_bracket(239, bits + 8)
    return (16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo)


def pi_const(precision: int = 64) -> Enclosure:
    """Certified enclosure of pi with width at most 2**-precision."""
    bits = 32 * ((max(precision, 1) + 31) // 32)
    return Enclosure(*_pi_bracket(bits))


@lru_cache(maxsize=None)
def _e_bracket(bits: int) -> tuple[Fraction, Fraction]:
    """Bracket of e = exp(1): partial sum plus a closed-form positive tail."""
    s = ZERO
    term = ONE
    n = 0
    cutoff = pow2(-(bits + 4))
    while True:
        s += term
        n += 1
        term /= n
        # sum_{j>=n} 1/j! < (1/n!) * (n+1)/n
        tail = term * (n + 1) / n
        if tail <= cutoff:
            return (s, s + tail)


# ---------------------------------------------------------------------------
# Fixed-point Taylor cores
#
# Exact Fraction arithmetic is too slow for the inner loops, so the reduced
# arguments are moved onto the integer grid 1/2**W (W = bits + 32) and every
# operation rounds outward on that grid.  Each rounding costs at most one
# grid ulp, far below the 2**-bits target, and soundness is preserved
# because rounding is always away from the interval.
# ---------------------------------------------------------------------------


def _fxi_mul(alo: int, ahi: int, blo: int, bhi: int, w: int) -> tuple[int, int]:
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    lo = min(p1, p2, p3, p4)
    hi = max(p1, p2, p3, p4)
    return (lo >> w, -((-hi) >> w))


def _fxi_divint(lo: int, hi: int, n: int) -> tuple[int, int]:
    """Divide by a positive integer, outward."""
    return (lo // n, -((-hi) // n))


def _taylor_sin_fx(rlo: int, rhi: int, w: int, bits: int) -> tuple[int, int]:
    """sin on a bracket in [0, 1.7] (fixed point); |remainder| <= B**N / N!."""
    cutoff = 1 << (w - bits - 4) if w > bits + 4 else 1
    sq_lo, sq_hi = (rlo * rlo) >> w, -((-rhi * rhi) >> w)
    s_lo, s_hi = rlo, rhi
    p_lo, p_hi = rlo, rhi  # running term r**n / n!
    bound = rhi
    n = 1
    sign = 1
    one_fx = 1 << w
    while True:
        bound = -((-bound * rhi) >> w)
        bound = -((-bound * rhi) >> w)
        bound = -((-bound) // ((n + 1) * (n + 2)))
        n += 2
        if bound <= cutoff:
            break
        sign = -sign
        p_lo, p_hi = (p_lo * sq_lo) >> w, -((-p_hi * sq_hi) >> w)
        p_lo, p_hi = _fxi_divint(p_lo, p_hi, (n - 1) * n)
        if sign < 0:
            s_lo -= p_hi
            s_hi -= p_lo
        else:
            s_lo += p_lo
            s_hi += p_hi
    return (max(s_lo - bound, -one_fx), min(s_hi + bound, one_fx))


# ---------------------------------------------------------------------------
# exp
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 10)
def _e_fx(w: int, eb: int) -> tuple[int, int]:
    e_lo, e_hi = _e_bracket(eb)
    return (floor_scaled(e_lo, w), ceil_scaled(e_hi, w))


def _fx_pow_pos(lo: int, hi: int, n: int, w: int) -> tuple[int, int]:
    """(lo, hi)**n for a positive base bracket, rounding outward."""
    r_lo, r_hi = 1 << w, 1 << w
    while n:
        if n & 1:
            r_lo = (r_lo * lo) >> w
            r_hi = -((-r_hi * hi) >> w)
        n >>= 1
        if n:
            lo = (lo * lo) >> w
            hi = -((-hi * hi) >> w)
    return (r_lo, r_hi)


@lru_cache(maxsize=1 << 14)
def _naive_exp(xlo: Fraction, xhi: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    if xhi - xlo > 2:
        # wide input; exp is monotone, recurse on endpoints
        lo = _naive_exp(xlo, xlo, bits)[0]
        hi = _naive_exp(xhi, xhi, bits)[1]
        return (lo, hi)
    n = math.floor((xlo + xhi) / 2)  # reduction point, decided exactly
    w = bits + 32
    if n > 0:
        # widen the grid to absorb the e**n magnitude, keeping the
        # final width at 2**-bits in absolute terms
        w += (3 * n) // 2 + 2
    a_lo = floor_scaled(xlo, w)
    a_hi = ceil_scaled(xhi, w)
    f_lo, f_hi = a_lo - (n << w), a_hi - (n << w)
    # Taylor at 0 on f in [-1, 2]; tail target is 6 guard bits past
    # bits + extra, which is always 26 bits below the grid
    b_abs = max(-f_lo, f_hi, 0)
    cutoff = 1 << 26
    one_fx = 1 << w
    s_lo, s_hi = one_fx, one_fx
    p_lo, p_hi = one_fx, one_fx
    bound = one_fx
    k = 0
    while True:
        k += 1
        p_lo, p_hi = _fxi_mul(p_lo, p_hi, f_lo, f_hi, w)
        p_lo, p_hi = _fxi_divint(p_lo, p_hi, k)
        s_lo += p_lo
        s_hi += p_hi
        bound = -((-bound * b_abs) >> w)
        bound = -((-bound) // k)
        if 5 * bound <= cutoff and k >= 2:
            break
    # bound >= b_abs**k / k! covers the last term added; each later term is
    # smaller than the one before by about b_abs / (k + 1) <= 2/3, so the
    # remainder is at most 2 * bound and 5 * bound covers it with room to
    # spare for the finer evaluations to nest inside
    tail = 5 * bound
    t_lo, t_hi = max(s_lo - tail, 0), s_hi + tail
    if n != 0:
        eb = (w - 32) + 8 + 2 * abs(n).bit_length()
        q_lo, q_hi = _fx_pow_pos(*_e_fx(w, eb), abs(n), w)
        if n > 0:
            t_lo = (t_lo * q_lo) >> w
            t_hi = -((-t_hi * q_hi) >> w)
        else:
            t_lo = (t_lo << w) // q_hi
            t_hi = -((-t_hi << w) // q_lo)
    return (Fraction(max(t_lo, 0), 1 << w), Fraction(t_hi, 1 << w))


def exp_enc(x: "Enclosure | RationalLike", precision: int = 64) -> Enclosure:
    x = _coerce(x)
    bits = 8 * ((max(precision, 1) + 7) // 8)
    return Enclosure(*_naive_exp(x.lo, x.hi, bits))


# ---------------------------------------------------------------------------
# sqrt
# ---------------------------------------------------------------------------


def _sqrt_bracket(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """[floor, ceil] of sqrt(q) on the (den * 2**bits) grid; exact if possible."""
    if q == 0:
        return (ZERO, ZERO)
    p, d = q.numerator, q.denominator
    scale = d << bits
    n = p * d << (2 * bits)
    s = math.isqrt(n)
    lo = Fraction(s, scale)
    if s * s == n:
        return (lo, lo)
    return (lo, Fraction(s + 1, scale))


def sqrt_enc(x: "Enclosure | RationalLike", precision: int = 64) -> Enclosure:
    x = _coerce(x)
    if x.lo < 0:
        raise NegativeSqrtDomain(f"enclosure {x} reaches below zero")
    bits = precision + 2
    lo = _sqrt_bracket(x.lo, bits)[0]
    hi = _sqrt_bracket(x.hi, bits)[1]
    return Enclosure(lo, hi)


# ---------------------------------------------------------------------------
# sin(pi * c), cos(pi * c): reduction happens exactly in the rationals
# ---------------------------------------------------------------------------


def sin_pi(c: "Enclosure | RationalLike", precision: int = 64) -> Enclosure:
    """Enclosure of sin(pi * c).

    The argument is reduced modulo 2 before pi ever enters, so rational
    multiples of pi evaluate exactly: integers give [0, 0], half-integers
    give [1, 1] or [-1, -1].  For interval input the extrema live at
    half-integer points of c, which makes the range analysis an exact
    rational computation.
    """
    c = _coerce(c)
    lo, hi, w = _sin_pi_range(c.lo.numerator, c.lo.denominator,
                              c.hi.numerator, c.hi.denominator, precision)
    return Enclosure(Fraction(lo, 1 << w), Fraction(hi, 1 << w))


def _sin_pi_range(lo_n: int, lo_d: int, hi_n: int, hi_d: int,
                  precision: int) -> tuple[int, int, int]:
    """sin(pi * c) over lo_n/lo_d <= c <= hi_n/hi_d as [lo, hi] * 2**-w.

    Denominators are positive and need not be in lowest terms.  The sine
    takes its extreme values inside the interval only at half-integers,
    which the scan finds in integers; otherwise the endpoints bound it.
    """
    if lo_n * hi_d == hi_n * lo_d:
        return _sin_pi_fx(lo_n, lo_d, precision)
    w = precision + 36
    if hi_n * lo_d - lo_n * hi_d >= 2 * lo_d * hi_d:  # width >= 2
        return (-1 << w, 1 << w, w)
    has_max = has_min = False
    for k in range(-((-2 * lo_n) // lo_d), (2 * hi_n) // hi_d + 1):  # k/2 in range
        if k % 4 == 1:
            has_max = True
        elif k % 4 == 3:
            has_min = True
    if has_max and has_min:
        return (-1 << w, 1 << w, w)
    a_lo, a_hi, _ = _sin_pi_fx(lo_n, lo_d, precision)
    b_lo, b_hi, _ = _sin_pi_fx(hi_n, hi_d, precision)
    return (-1 << w if has_min else min(a_lo, b_lo),
            1 << w if has_max else max(a_hi, b_hi), w)


# adjacent boxes of a bisection share their phase endpoints, so the
# branch and bound asks for most points more than once
@lru_cache(maxsize=1 << 12)
def _sin_pi_fx(n: int, d: int, precision: int) -> tuple[int, int, int]:
    """sin(pi * n/d), d > 0, as [lo, hi] * 2**-w with w = precision + 36."""
    bits = precision + 4
    w = bits + 32
    r = n % (2 * d)  # n/d mod 2 is r/d, in [0, 2)
    if r == 0 or r == d:
        return (0, 0, w)
    if 2 * r == d:
        return (1 << w, 1 << w, w)
    if 2 * r == 3 * d:
        return (-1 << w, -1 << w, w)
    sign = 1
    if r > d:
        r -= d
        sign = -1
    if 2 * r > d:
        r = d - r
    # r/d in (0, 1/2): pi * r/d moves onto the 2**-w grid, rounding outward
    plo, phi = _pi_bracket(precision + 8)
    lo, hi = _taylor_sin_fx((plo.numerator * r << w) // (plo.denominator * d),
                            -((-phi.numerator * r << w) // (phi.denominator * d)), w, bits)
    if sign < 0:
        lo, hi = -hi, -lo
    return (lo, hi, w)


def cos_pi(c: "Enclosure | RationalLike", precision: int = 64) -> Enclosure:
    if isinstance(c, Enclosure):
        shifted = Enclosure(c.lo + HALF, c.hi + HALF)
    else:
        shifted = as_fraction(c) + HALF
    return sin_pi(shifted, precision)
