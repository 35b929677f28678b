"""Left-continuous staircase series and their jump-certified polynomials.

The canonical staircase assigns weight 2^-i to the i-th rational of the
unit interval and sums the indicators chi_(q_i, 1].  It is nondecreasing,
jumps by exactly 2^-i at q_i, and stays within [0, 1].  Wrapped copies
shifted by an irrational offset frac(k*sqrt(2)) supply discrete families
in bounded variation; polynomials in the staircase with exponential
coefficients keep a dense set of jump discontinuities, each one
certifiable through a cancellation-free binomial expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, isqrt
from typing import Mapping, Sequence

from .certificates import InconclusiveAtBudget
from .enclosure import Enclosure, exp_enc, sqrt_enc
from .rational import (ONE, ZERO, RationalLike, SpecError, SpecValue, as_fraction, ceil_scaled,
                       floor_scaled)


# a jump-polynomial spec's |exponents| and basis surds: each surd then adds
# under 1000 to a term's growth rate sum |n| sqrt(d), which sets exp's cost;
# the rate is bounded too, so that norm bv runs about a second at the ceiling
EXP_CEILING = 100
SURD_CEILING = 100
RATE_CEILING = 3000
# a jump search scans at most this many enumeration indices
INDEX_CEILING = 10**5


class OutOfRange(ValueError):
    """Point lies outside the open unit interval handled here."""


class ConstantTermPresent(ValueError):
    """Generator polynomial carries a degree-zero monomial."""


class ZeroPolynomial(ValueError):
    """Every step-power coefficient vanished after merging."""


# ---------------------------------------------------------------------------
# Rational enumeration
# ---------------------------------------------------------------------------

_INDEX_BIT_CAP = 1 << 26


class RationalEnumeration:
    """Deterministic bijection between positive integers and (0,1) rationals.

    Breadth-first over the Calkin-Wilf tree, keeping only values below one.
    Every such value is the left child of exactly one tree node, so level
    L of the tree contributes 2^(L-1) entries and the n-th entry is
    recovered by replaying n's binary digits as left/right steps.
    """

    __slots__ = ("_nums", "_dens")

    def __init__(self) -> None:
        self._nums: list[int] = [1]
        self._dens: list[int] = [2]

    def _grow(self, n: int) -> None:
        # the entries stored so far fill whole levels: 2^L - 1 of them, the
        # last level starting at index 2^(L-1) - 1.  Entry a/d has the
        # children a/(a+d) and d/(2d-a), left to right.
        nums, dens = self._nums, self._dens
        while len(nums) < n:
            start, end = len(nums) // 2, len(nums)
            for i in range(start, end):
                a, d = nums[i], dens[i]
                nums += (a, d)
                dens += (a + d, 2 * d - a)

    def pairs(self, n: int) -> tuple[list[int], list[int]]:
        """Numerators and denominators of the first n entries (shared lists)."""
        self._grow(n)
        return self._nums, self._dens

    def rational(self, i: int) -> Fraction:
        if i < 1:
            raise OutOfRange(f"enumeration starts at 1, got {i}")
        steps = i.bit_length() - 1
        a, b = 1, 1
        for k in range(steps - 1, -1, -1):
            if (i >> k) & 1:
                a += b
            else:
                b += a
        return Fraction(a, a + b)

    def index(self, q: RationalLike) -> int:
        q = as_fraction(q)
        if not ZERO < q < ONE:
            raise OutOfRange(f"{q} is not inside the open unit interval")
        # parent node of q = a/(a+b); climb to the root in quotient batches
        a = q.numerator
        b = q.denominator - q.numerator
        runs: list[tuple[int, int]] = []
        length = 0
        while a != b:
            if a > b:
                t = a - 1 if b == 1 else a // b
                a = 1 if b == 1 else a % b
                runs.append((1, t))
            else:
                t = b - 1 if a == 1 else b // a
                b = 1 if a == 1 else b % a
                runs.append((0, t))
            length += t
            if length > _INDEX_BIT_CAP:
                raise ValueError("enumeration index would exceed 2**(2**26)")
        path = 0
        for bit, count in reversed(runs):
            path <<= count
            if bit:
                path |= (1 << count) - 1
        return (1 << length) + path


CALKIN_WILF = RationalEnumeration()


def enum_rational(i: int) -> Fraction:
    """i-th rational of (0,1) in the fixed enumeration order."""
    return CALKIN_WILF.rational(i)


def enum_index(q: RationalLike) -> int:
    """Position of q within (0,1) under the fixed enumeration."""
    return CALKIN_WILF.index(q)


# ---------------------------------------------------------------------------
# Staircase series and shifted copies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqrtShift:
    """Irrational wrap offset frac(k*sqrt(2)), refinable on demand."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"shift multiplier must be positive, got {self.k}")

    def enclosure(self, precision: int = 96) -> Enclosure:
        whole = isqrt(2 * self.k * self.k)
        root = sqrt_enc(2, precision + self.k.bit_length() + 1)
        return Enclosure(self.k * root.lo - whole, self.k * root.hi - whole)

    def as_json(self) -> dict[str, int]:
        return {"sqrt2_multiple": self.k}


@dataclass(frozen=True)
class JumpSeries:
    """Staircase sum of 2^-i indicators, optionally wrapped around a shift.

    The unshifted series is nondecreasing and left continuous with value 0
    at 0 and total mass 1; the copy shifted by v evaluates the base series
    at x - v past the wrap point and at x - v + 1 before it.
    """

    shift: SqrtShift | None = None

    def value_at(self, x: "Enclosure | RationalLike", terms: int = 64,
                 precision: int = 96) -> Enclosure:
        return eval_jump_series(self, x, terms, precision)

    def as_json(self) -> dict[str, object]:
        return {"shift": None if self.shift is None else self.shift.as_json()}

    @staticmethod
    def from_json(data: object) -> "JumpSeries":
        shift = SpecValue(data).get("shift")
        if shift.value is None:
            return JumpSeries()
        return JumpSeries(SqrtShift(shift["sqrt2_multiple"].integer()))


def _staircase_partial(xlo: Fraction, xhi: Fraction, terms: int) -> Enclosure:
    # certain mass: q_i < xlo; undecided band: xlo <= q_i < xhi; tail 2^-terms
    nums, dens = CALKIN_WILF.pairs(terms)
    lo_num = 0
    band_num = 0
    pl, ql = xlo.numerator, xlo.denominator
    ph, qh = xhi.numerator, xhi.denominator
    for i in range(1, terms + 1):
        n, d = nums[i - 1], dens[i - 1]
        if n * ql < pl * d:
            lo_num += 1 << (terms - i)
        elif n * qh < ph * d:
            band_num += 1 << (terms - i)
    scale = 1 << terms
    return Enclosure(Fraction(lo_num, scale), Fraction(lo_num + band_num + 1, scale))


def eval_jump_series(s: JumpSeries, x: "Enclosure | RationalLike",
                     terms: int = 64, precision: int = 96) -> Enclosure:
    """Enclose the series at x; width at most 2^-terms plus shift slack.

    x may itself be an enclosure.  When it straddles the wrap point of a
    shifted copy the two branch images are hulled, which is sound but wide.
    """
    if terms < 1:
        raise ValueError("need at least one enumerated term")
    if isinstance(x, Enclosure):
        xlo, xhi = x.lo, x.hi
    else:
        xlo = xhi = as_fraction(x)
    if xlo < 0 or xhi > 1:
        raise OutOfRange(f"argument [{xlo}, {xhi}] leaves the unit interval")
    if s.shift is None:
        return _staircase_partial(xlo, xhi, terms)

    v = s.shift.enclosure(precision)
    if xlo == xhi:
        # a rational point always separates from the irrational offset
        extra = precision
        while v.lo <= xlo <= v.hi and extra <= precision + 512:
            extra += 128
            v = s.shift.enclosure(extra)

    pieces: list[Enclosure] = []  # one or two, never none
    if xlo < v.hi:  # branch before the wrap: argument x - v + 1
        top = min(xhi, v.hi)
        ylo = max(ZERO, xlo - v.hi + 1)
        yhi = min(ONE, top - v.lo + 1)
        pieces.append(_staircase_partial(ylo, yhi, terms))
    if xhi > v.lo:  # branch past the wrap: argument x - v
        bot = max(xlo, v.lo)
        ylo = max(ZERO, bot - v.hi)
        yhi = min(ONE, xhi - v.lo)
        pieces.append(_staircase_partial(ylo, yhi, terms))
    return pieces[0].hull(pieces[-1])


@dataclass(frozen=True)
class ShiftCombination:
    """Finite combination sum beta_i * (staircase shifted by v_{k_i})."""

    terms: tuple[tuple[Fraction, SqrtShift], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        cleaned = []
        for beta, shift in self.terms:
            beta = as_fraction(beta)
            if beta == 0:
                raise ValueError("coefficients must be nonzero")
            if shift.k in seen:
                raise ValueError(f"duplicate shift multiplier {shift.k}")
            seen.add(shift.k)
            cleaned.append((beta, shift))
        object.__setattr__(self, "terms", tuple(cleaned))

    def coefficient_mass(self) -> Fraction:
        return sum((abs(b) for b, _ in self.terms), start=ZERO)

    def value_at(self, x: "Enclosure | RationalLike", terms: int = 64,
                 precision: int = 96) -> Enclosure:
        total = Enclosure.point(0)
        for beta, shift in self.terms:
            total = total + beta * eval_jump_series(JumpSeries(shift), x, terms, precision)
        return total

    def as_json(self) -> dict[str, object]:
        return {"terms": [{"beta": b, "shift": s.k} for b, s in self.terms]}

    @staticmethod
    def from_json(data: object) -> "ShiftCombination":
        return ShiftCombination(tuple(
            (t["beta"].rational(), SqrtShift(t["shift"].integer()))
            for t in SpecValue(data)["terms"].elements()))


# ---------------------------------------------------------------------------
# Exponential polynomials over a surd basis
# ---------------------------------------------------------------------------


def _squarefree(d: int) -> bool:
    if d < 1:
        return False
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 1
    return True


def _validate_basis(basis: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in basis)
    if len(set(out)) != len(out):
        raise ValueError(f"surd basis has repeats: {out}")
    for d in out:
        if not _squarefree(d):
            raise ValueError(f"surd {d} is not a squarefree positive integer")
    return out


@dataclass(frozen=True)
class ExpPoly:
    """Finite sum of c * exp(rate * x) with rate = sum n_a * sqrt(d_a).

    Basis surds are distinct squarefree integers, so their square roots are
    linearly independent over the rationals and distinct exponent vectors
    denote distinct growth rates; a merged polynomial is the zero function
    exactly when no terms remain.
    """

    basis: tuple[int, ...]
    terms: tuple[tuple[Fraction, tuple[int, ...]], ...] = ()

    def __post_init__(self) -> None:
        basis = _validate_basis(self.basis)
        merged: dict[tuple[int, ...], Fraction] = {}
        for coeff, vec in self.terms:
            coeff = as_fraction(coeff)
            vec = tuple(int(n) for n in vec)
            if len(vec) != len(basis):
                raise ValueError(f"exponent vector {vec} does not fit basis {basis}")
            merged[vec] = merged.get(vec, ZERO) + coeff
        kept = tuple(sorted((vec, c) for vec, c in merged.items() if c != 0))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", tuple((c, vec) for vec, c in kept))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(basis: Sequence[int]) -> "ExpPoly":
        return ExpPoly(tuple(basis), ())

    @staticmethod
    def constant(basis: Sequence[int], value: RationalLike) -> "ExpPoly":
        width = len(tuple(basis))
        return ExpPoly(tuple(basis), ((as_fraction(value), (0,) * width),))

    # -- analysis -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _rate(self, vec: tuple[int, ...], precision: int) -> Enclosure:
        total = Enclosure.point(0)
        for n, d in zip(vec, self.basis):
            if n == 0:
                continue
            if d == 1:
                total = total + n
            else:
                total = total + n * sqrt_enc(d, precision)
        return total

    def evaluate(self, x: "Enclosure | RationalLike", precision: int = 96) -> Enclosure:
        guard = precision + 4 + len(self.terms).bit_length()
        total = Enclosure.point(0)
        for coeff, vec in self.terms:
            arg = self._rate(vec, guard) * x
            total = total + coeff * exp_enc(arg, guard)
        return total

    def sup_bound(self, precision: int = 96) -> Fraction:
        """Upper bound for sup |self| over [0, 1]."""
        bound = ZERO
        for coeff, vec in self.terms:
            rate_hi = self._rate(vec, precision).hi
            peak = max(ONE, exp_enc(rate_hi, precision).hi) if rate_hi > 0 else ONE
            bound += abs(coeff) * peak
        return bound

    def as_json(self) -> dict[str, object]:
        return {"terms": [{"c": c, "exp": list(v)} for c, v in self.terms]}

    @staticmethod
    def from_json(data: object, basis: Sequence[int], path: str = "body") -> "ExpPoly":
        terms = []
        for t in SpecValue(data, path)["terms"].elements():
            c, exp = t["c"].rational(), t["exp"].bounded_integers(EXP_CEILING)
            # floor(|n| sqrt(|d|)) summed on the integers as read; the
            # constructor refuses a surd that is not positive
            if sum(isqrt(n * n * abs(d)) for n, d in zip(exp, basis)) > RATE_CEILING:
                raise SpecError(f"{t['exp'].path}: rate above the ceiling {RATE_CEILING}")
            terms.append((c, exp))
        return ExpPoly(tuple(basis), tuple(terms))


# ---------------------------------------------------------------------------
# Polynomials in the staircase
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpPolynomial:
    """Sum of G_j * staircase^j for j = 1..degree, top coefficient nonzero.

    An optional continuous addend rides along unchanged by every jump; it
    appears in one-sided limits but cancels from jump differences.
    """

    coeffs: tuple[ExpPoly, ...]
    continuous: ExpPoly | None = None

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise ZeroPolynomial("no step-power coefficients given")
        basis = coeffs[0].basis
        for g in coeffs:
            if g.basis != basis:
                raise ValueError("all coefficients must share one surd basis")
        if self.continuous is not None and self.continuous.basis != basis:
            raise ValueError("continuous part must share the surd basis")
        while coeffs and coeffs[-1].is_zero:
            coeffs = coeffs[:-1]
        if not coeffs:
            raise ZeroPolynomial("every step-power coefficient merges to zero")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @property
    def basis(self) -> tuple[int, ...]:
        return self.coeffs[0].basis

    def p_form_bound(self, precision: int = 96) -> Fraction:
        """Uniform upper bound on the binomial partial sums.

        The m-th partial sum is sum_{j>=m} C(j,m) G_j(x) y^(j-m) with
        y in [0,1], so sum_{j>=m} C(j,m) sup|G_j| dominates it.
        """
        sups = [g.sup_bound(precision) for g in self.coeffs]
        k = self.degree
        hi = ZERO
        for m in range(1, k + 1):
            hi = max(hi, sum((comb(j, m) * sups[j - 1] for j in range(m, k + 1)),
                             start=ZERO))
        return hi

    def value_at(self, x: "Enclosure | RationalLike", terms: int = 64,
                 precision: int = 96) -> Enclosure:
        base = eval_jump_series(JumpSeries(), x, terms, precision)
        return self._at_staircase(x, base.intersect(Enclosure(ZERO, ONE)), precision)

    def _at_staircase(self, x: "Enclosure | RationalLike", s: Enclosure,
                     precision: int = 96) -> Enclosure:
        """Sum of G_j(x) * s^j plus the continuous part at x, for a staircase value s."""
        total = Enclosure.point(0)
        power = Enclosure.point(1)
        for g in self.coeffs:
            power = power * s
            total = total + g.evaluate(x, precision) * power
        if self.continuous is not None:
            total = total + self.continuous.evaluate(x, precision)
        return total

    def as_json(self) -> dict[str, object]:
        data: dict[str, object] = {
            "degree": self.degree,
            "basis": list(self.basis),
            "G": [g.as_json() for g in self.coeffs],
        }
        if self.continuous is not None:
            data["continuous"] = self.continuous.as_json()
        return data

    @staticmethod
    def from_json(data: object) -> "JumpPolynomial":
        node = SpecValue(data)
        basis = node["basis"].bounded_integers(SURD_CEILING)
        coeffs = tuple(ExpPoly.from_json(g.value, basis, g.path) for g in node["G"].elements())
        cont = node.get("continuous")
        extra = None if cont.value is None else ExpPoly.from_json(cont.value, basis, cont.path)
        return JumpPolynomial(coeffs, extra)


_PLAIN = JumpSeries()


def staircase_polynomial() -> JumpPolynomial:
    """Degree-1 polynomial with unit coefficient: the staircase itself."""
    return JumpPolynomial((ExpPoly.constant((1,), 1),))


def _clamped_value(q: Fraction, gap: Fraction, terms: int) -> Enclosure:
    # the series at q_i omits the 2^-i term, so its value is at most 1 - gap
    raw = eval_jump_series(_PLAIN, q, terms)
    return raw.intersect(Enclosure(ZERO, ONE - gap))


def _jump_parts(g: JumpPolynomial, q: Fraction, i: int, terms: int,
                precision: int) -> tuple[Fraction, Enclosure, Enclosure]:
    """Gap size, jump enclosure, and leading partial sum at q_i."""
    gap = Fraction(1, 1 << i)
    k = g.degree
    coeffs = [poly.evaluate(q, precision) for poly in g.coeffs]
    if k == 1:
        return gap, gap * coeffs[0], coeffs[0]

    value = _clamped_value(q, gap, terms)
    powers = [Enclosure.point(1)]
    for _ in range(k - 1):
        powers.append(powers[-1] * value)
    slope = Enclosure.point(0)
    for j in range(1, k + 1):
        slope = slope + j * coeffs[j - 1] * powers[j - 1]
    jump = Enclosure.point(0)
    gap_power = ONE
    for m in range(1, k + 1):
        gap_power *= gap
        partial = Enclosure.point(0)
        for j in range(m, k + 1):
            partial = partial + comb(j, m) * coeffs[j - 1] * powers[j - m]
        jump = jump + gap_power * partial
    return gap, jump, slope


@dataclass(frozen=True)
class JumpCertificate:
    """Enclosure of one jump difference, with a sign-exclusion flag."""

    index: int
    point: Fraction
    value: Enclosure
    certified_nonzero: bool


def one_sided_limits(g: JumpPolynomial, q: RationalLike, terms: int = 64,
                     precision: int = 96) -> tuple[Enclosure, Enclosure]:
    """Left and right limit enclosures of g at an enumerated rational.

    The left limit evaluates the polynomial at the series value itself;
    the right limit shifts that value up by the 2^-index jump first.
    """
    q = as_fraction(q)
    gap = Fraction(1, 1 << enum_index(q))
    value = _clamped_value(q, gap, terms)
    return g._at_staircase(q, value, precision), g._at_staircase(q, value + gap, precision)


def jump_enclosure(g: JumpPolynomial, q: RationalLike, terms: int = 64,
                   precision: int = 96) -> JumpCertificate:
    """Enclose g(q+) - g(q-) by the binomial partial-sum expansion.

    Grouping by powers of the gap keeps every product nonnegative whenever
    the coefficients are, so no cancellation is introduced by the method
    itself; subtracting the one-sided limits would cancel the shared bulk.
    """
    q = as_fraction(q)
    i = enum_index(q)
    _, jump, _ = _jump_parts(g, q, i, terms, precision)
    return JumpCertificate(i, q, jump, not jump.contains_zero())


@dataclass(frozen=True)
class JumpWitness:
    """A rational with a certified nonzero jump, found by scanning indices."""

    index: int
    point: Fraction
    jump: Enclosure
    threshold: Fraction
    partial_sum_bound: Fraction
    analytic_margin: Fraction | None
    via: str

    def as_json(self) -> dict[str, object]:
        return {
            "index": self.index,
            "point": self.point,
            "jump": self.jump,
            "threshold": self.threshold,
            "partial_sum_bound": self.partial_sum_bound,
            "analytic_margin": self.analytic_margin,
            "via": self.via,
        }


def jump_search(g: JumpPolynomial, lo: RationalLike, hi: RationalLike,
                eps: RationalLike, index_budget: int = INDEX_CEILING,
                terms: int = 64, precision: int = 96) -> JumpWitness:
    """Scan enumerated rationals in [lo, hi] for a certified nonzero jump.

    The threshold route accepts an index i once the leading partial sum
    stays above eps and eps exceeds bound/(2^i - 1); past indices where
    that analytic margin is out of reach, a direct sign-excluding jump
    enclosure is accepted on its own.  Either way the certificate is the
    jump enclosure itself.  Runs in increasing index order, so results
    are deterministic; failure is only ever a budget statement, raised as
    InconclusiveAtBudget.  The shared enumeration grows one Calkin-Wilf
    tree level at a time as the scan reaches past its end, so an early
    witness builds only the levels it needs, not all index_budget entries.
    """
    a, b = as_fraction(lo), as_fraction(hi)
    if not ZERO < a < b < ONE:
        raise ValueError(f"need a nondegenerate subinterval of (0,1), got [{a}, {b}]")
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("threshold must be positive")
    bound = g.p_form_bound(precision)
    nums, dens = CALKIN_WILF.pairs(1)
    pa, qa = a.numerator, a.denominator
    pb, qb = b.numerator, b.denominator
    candidates = 0
    for i in range(1, index_budget + 1):
        if i > len(nums):
            CALKIN_WILF.pairs(i)  # appends the next level to nums and dens
        n, d = nums[i - 1], dens[i - 1]
        if n * qa < pa * d or n * qb > pb * d:
            continue
        candidates += 1
        q = Fraction(n, d)
        gap, jump, slope = _jump_parts(g, q, i, terms, precision)
        if jump.contains_zero():
            continue
        margin_ok = eps * ((1 << i) - 1) > bound
        if slope.mignitude() >= eps and margin_ok:
            margin = gap * (eps - bound / ((1 << i) - 1))
            return JumpWitness(i, q, jump, eps, bound, margin, "threshold")
        return JumpWitness(i, q, jump, eps, bound, None, "direct")
    raise InconclusiveAtBudget(
        "no enumerated rational in the window certified a nonzero jump",
        {"index_budget": index_budget, "candidates": candidates,
         "terms": terms, "precision": precision},
    )


# ---------------------------------------------------------------------------
# Variation bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariationBounds:
    """lower <= total variation; upper (when given) bounds |h(0)| + variation."""

    lower: Fraction
    upper: Fraction | None
    probes: tuple[dict[str, object], ...]

    def as_json(self) -> dict[str, object]:
        return {"lower": self.lower, "upper": self.upper, "probes": list(self.probes)}


def variation_bounds(h: "JumpSeries | ShiftCombination | JumpPolynomial",
                     terms: int = 64, precision: int = 96) -> VariationBounds:
    """Certified variation bounds from summed jump magnitudes.

    The probes are the enumeration indices 1..terms.  Jumps at distinct
    points always undercount the total variation, so the lower bound is
    sound whatever interference the probes miss.  Upper bounds are only
    reported where monotone structure gives them: 1 for the plain
    staircase, 3 per wrapped copy (counting its starting value), and
    three times the coefficient mass for shift combinations.  For a
    staircase polynomial the upper side is left open.
    """
    if isinstance(h, JumpSeries):
        indices = list(range(1, terms + 1))
        jump_mass = sum((Fraction(1, 1 << i) for i in indices), start=ZERO)
        if h.shift is None:
            lower, upper = jump_mass, ONE
            detail = ({"kind": "staircase", "probe_indices": indices,
                       "jump_mass": jump_mass},)
        else:
            # the wrap point drops from height 1 to 0 on top of shifted jumps
            lower, upper = ONE + jump_mass, Fraction(3)
            detail = ({"kind": "wrapped-staircase", "shift": h.shift.k,
                       "wrap_jump": ONE, "probe_indices": indices,
                       "jump_mass": jump_mass},)
        return VariationBounds(lower, upper, detail)

    if isinstance(h, ShiftCombination):
        # at each wrap point the matching copy jumps by -beta while every
        # other copy is continuous there (offset differences are irrational)
        detail = tuple({"kind": "wrap-probe", "shift": s.k,
                        "jump_magnitude": abs(beta)} for beta, s in h.terms)
        lower = h.coefficient_mass()
        upper = 3 * lower
        return VariationBounds(lower, upper, detail)

    if isinstance(h, JumpPolynomial):
        lower = ZERO
        detail_list: list[dict[str, object]] = []
        nums, dens = CALKIN_WILF.pairs(terms)
        for i, n, d in zip(range(1, terms + 1), nums, dens):
            q = Fraction(n, d)
            mig = _jump_parts(h, q, i, terms, precision)[1].mignitude()
            lower += mig
            detail_list.append({"kind": "rational-probe", "index": i,
                                "point": q, "jump_at_least": mig})
        return VariationBounds(lower, None, tuple(detail_list))

    raise TypeError(f"no variation analysis for {type(h).__name__}")


# ---------------------------------------------------------------------------
# Polynomials over exponential generators
# ---------------------------------------------------------------------------


def expand_generator_polynomial(
    poly: Mapping[tuple[int, ...], RationalLike], basis: Sequence[int],
) -> JumpPolynomial:
    """Expand p(u_1, .., u_b) at u_a = exp(sqrt(d_a) x) * staircase.

    Monomials of total degree j contribute coefficient lambda times the
    exponential with rate vector gamma to the j-th staircase power, so the
    top coefficient survives merging exactly when some top-degree monomial
    has a nonzero coefficient.  The zero test is therefore exact.
    """
    basis = _validate_basis(basis)
    width = len(basis)
    items = [(as_fraction(c), tuple(int(e) for e in vec)) for vec, c in poly.items()]
    by_degree: dict[int, list[tuple[Fraction, tuple[int, ...]]]] = {}
    top = 0
    for coeff, vec in items:
        if len(vec) != width:
            raise ValueError(f"monomial {vec} does not fit a {width}-generator basis")
        if any(e < 0 for e in vec):
            raise ValueError(f"monomial {vec} has a negative exponent")
        if coeff == 0:
            continue
        degree = sum(vec)
        if degree == 0:
            raise ConstantTermPresent("generator polynomials must vanish at zero")
        by_degree.setdefault(degree, []).append((coeff, vec))
        top = max(top, degree)
    if top == 0:
        raise ZeroPolynomial("generator polynomial has no nonzero monomial")
    coeffs = tuple(ExpPoly(basis, tuple(by_degree.get(j, ())))
                   for j in range(1, top + 1))
    return JumpPolynomial(coeffs)


# ---------------------------------------------------------------------------
# Per-monomial jump contributions at a fixed rational
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContributionTable:
    """Jump contribution of each generator monomial at one fixed rational.

    The jump of an expanded polynomial at the table's point is the exact
    coefficient-weighted sum of these enclosures, which turns bulk zero/
    nonzero screening over many coefficient vectors into integer sums.
    """

    point: Fraction
    index: int
    gap: Fraction
    entries: tuple[tuple[tuple[int, ...], Enclosure], ...]

    def jump_of(self, coeffs: Mapping[tuple[int, ...], RationalLike]) -> Enclosure:
        total = Enclosure.point(0)
        table = dict(self.entries)
        for vec, coeff in coeffs.items():
            c = as_fraction(coeff)
            if c == 0:
                continue
            key = tuple(int(e) for e in vec)
            if key not in table:
                raise KeyError(f"monomial {key} not tabulated")
            total = total + c * table[key]
        return total

    def scaled(self, bits: int) -> dict[tuple[int, ...], tuple[int, int]]:
        """Entries floor/ceil-rounded onto the 2^-bits integer grid."""
        return {vec: (floor_scaled(enc.lo, bits), ceil_scaled(enc.hi, bits))
                for vec, enc in self.entries}


def jump_contribution_table(point: RationalLike, basis: Sequence[int],
                            max_degree: int, terms: int = 96,
                            precision: int = 160) -> ContributionTable:
    """Tabulate monomial jump contributions at one enumerated rational.

    Each entry is the monomial's own jump from ``_jump_parts``: the
    monomial expanded alone, with zero coefficients below its total
    degree, so the entry equals ``jump_enclosure`` of that monomial.
    """
    if max_degree < 1:
        raise ValueError("need at least degree one")
    q = as_fraction(point)
    i = enum_index(q)
    basis = _validate_basis(basis)
    entries: list[tuple[tuple[int, ...], Enclosure]] = []
    for vec in product(range(max_degree + 1), repeat=len(basis)):
        if not 1 <= sum(vec) <= max_degree:
            continue
        g = expand_generator_polynomial({vec: ONE}, basis)
        entries.append((vec, _jump_parts(g, q, i, terms, precision)[1]))
    return ContributionTable(q, i, Fraction(1, 1 << i), tuple(entries))
