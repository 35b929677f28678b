"""Exact rational plumbing: strict spec reading, canonical formatting, dyadic rounding.

Every quantity the library certifies is carried as a `fractions.Fraction`
(always in lowest terms, denominator positive).  The wire format for a
rational is the string "p/q" with q >= 1; integers are written "p/1" so
that parsing needs no special cases.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

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


class SpecError(ValueError):
    """Malformed spec file, bad flag value, or unsupported dispatch."""


class SpecValue:
    """A value of a decoded spec file and its JSON path, e.g. "body.G[0].c".

    Each reader checks the JSON type it needs and raises SpecError naming
    the path; a missing required key raises where it is read.  A plain
    class: a dataclass would add about 1 ms to every CLI start-up.
    """

    __slots__ = ("value", "path")

    def __init__(self, value: object, path: str = "body") -> None:
        self.value, self.path = value, path

    def _of_type(self, kind: type, name: str):
        if isinstance(self.value, bool) or not isinstance(self.value, kind):
            found = "null" if self.value is None else type(self.value).__name__
            raise SpecError(f"{self.path}: {found} is not {name}")
        return self.value

    def __contains__(self, key: str) -> bool:
        return key in self._of_type(dict, "an object")

    def __getitem__(self, key: str) -> SpecValue:
        """The value of a required key."""
        if key not in self:
            raise SpecError(f"{self.path}.{key}: required key is missing")
        return self.get(key)

    def get(self, key: str, default: object = None) -> SpecValue:
        return SpecValue(self.value[key] if key in self else default, f"{self.path}.{key}")

    def elements(self) -> list[SpecValue]:
        return [SpecValue(v, f"{self.path}[{i}]")
                for i, v in enumerate(self._of_type(list, "an array"))]

    def items(self) -> list[tuple[object, SpecValue]]:
        return [(key, self.get(key)) for key in self._of_type(dict, "an object")]

    def integer(self) -> int:
        """A JSON integer: bool, float and str are refused."""
        return self._of_type(int, "an integer")

    def string(self) -> str:
        return self._of_type(str, "a string")

    def integers(self) -> tuple[int, ...]:
        return tuple(n.integer() for n in self.elements())

    def bounded_integers(self, ceiling: int) -> tuple[int, ...]:
        """JSON integers of magnitude at most ceiling; a larger one is refused."""
        for n in self.elements():
            if abs(n.integer()) > ceiling:
                raise SpecError(f"{n.path}: magnitude above the ceiling {ceiling}")
        return self.integers()

    def rational(self) -> Fraction:
        """An integer or a "p/q" string, under as_fraction's rule."""
        try:
            return as_fraction(self.value)  # refuses every other type
        except ZeroDivisionError:
            raise SpecError(f"{self.path}: {self.value!r} has a zero denominator") from None
        except (TypeError, ValueError) as err:
            raise SpecError(f"{self.path}: {err}") from None


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


def _unnormalised(cls: type = Fraction) -> Callable[[int, int], Fraction]:
    """cls(n, d) for coprime n and d > 0, without the gcd where cls allows.

    Tried once: where neither spelling of CPython's private constructor
    builds 3/4, cls stands in, gcd and all.  dyadic_sum is the only caller.
    """
    make = getattr(cls, "_from_coprime_ints", None) or (
        lambda n, d: cls(n, d, _normalize=False))
    try:
        return make if make(3, 4) == cls(3, 4) else cls
    except TypeError:
        return cls


_coprime = _unnormalised()


def dyadic_sum(terms: Iterable[Fraction]) -> Fraction:
    """Exact sum, adding dyadic summands as integers on one grid.

    Fraction addition runs a gcd on every step, which dominates long sums
    of dyadic rationals with large denominators.  When every denominator
    is a power of two, the numerators are shifted onto the largest one,
    the sum drops its common factors of two, and one Fraction is built
    with no gcd.  Any other denominator falls back to the plain Fraction sum.
    """
    terms = list(terms)
    if any(q.denominator & (q.denominator - 1) for q in terms):
        return sum(terms, ZERO)
    bits = max((q.denominator.bit_length() for q in terms), default=1) - 1
    n, bits = dyadic_reduce(sum(q.numerator << (bits + 1 - q.denominator.bit_length())
                                for q in terms), bits)
    return _coprime(n, 1 << bits)


def dyadic_reduce(n: int, bits: int) -> tuple[int, int]:
    """n / 2**bits in lowest terms, as (numerator, bits); bits >= 0."""
    shift = min((n & -n).bit_length() - 1, bits) if n else bits
    return n >> shift, bits - shift


def dyadic_floor(q: Fraction, bits: int) -> Fraction:
    """Largest multiple of 2**-bits that is <= q."""
    return Fraction(floor_scaled(q, bits), 1 << bits)


def dyadic_ceil(q: Fraction, bits: int) -> Fraction:
    """Smallest multiple of 2**-bits that is >= q."""
    return Fraction(ceil_scaled(q, bits), 1 << bits)
