"""Exact rational plumbing: parsing, canonical formatting, dyadic rounding.

Every quantity the library certifies is carried as a `fractions.Fraction`
(always in lowest terms, denominator positive).  The wire format for a
rational is the string "p/q" with q >= 1; integers are written "p/1" so
that parsing needs no special cases.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

RationalLike = Fraction | int | str

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to a Fraction.

    Floats are rejected on purpose: a float already rounded away the very
    information an exact certificate is about.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_fraction(q: Fraction) -> str:
    """Canonical "p/q" form, denominator always explicit."""
    return f"{q.numerator}/{q.denominator}"


def pow2(bits: int) -> Fraction:
    """2**bits as a Fraction, bits may be negative."""
    if bits >= 0:
        return Fraction(1 << bits)
    return Fraction(1, 1 << (-bits))


def floor_scaled(q: Fraction, bits: int) -> int:
    """floor(q * 2**bits), for bits >= 0."""
    return (q.numerator << bits) // q.denominator


def ceil_scaled(q: Fraction, bits: int) -> int:
    """ceil(q * 2**bits), for bits >= 0."""
    return -((-q.numerator << bits) // q.denominator)


def dyadic_sum(terms: Iterable[Fraction]) -> Fraction:
    """Exact sum, adding dyadic summands as integers on one grid.

    Fraction addition runs a gcd on every step, which dominates long sums
    of dyadic rationals with large denominators.  When every denominator
    is a power of two, the numerators are shifted onto the largest one and
    a single Fraction is built at the end.  Any other denominator falls
    back to the plain Fraction sum.
    """
    terms = list(terms)
    if any(q.denominator & (q.denominator - 1) for q in terms):
        return sum(terms, ZERO)
    bits = max((q.denominator.bit_length() for q in terms), default=1) - 1
    return Fraction(sum(q.numerator << (bits + 1 - q.denominator.bit_length())
                        for q in terms), 1 << bits)


def dyadic_floor(q: Fraction, bits: int) -> Fraction:
    """Largest multiple of 2**-bits that is <= q."""
    return Fraction(floor_scaled(q, bits), 1 << bits)


def dyadic_ceil(q: Fraction, bits: int) -> Fraction:
    """Smallest multiple of 2**-bits that is >= q."""
    return Fraction(ceil_scaled(q, bits), 1 << bits)
