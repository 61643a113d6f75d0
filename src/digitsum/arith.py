"""Exact arithmetic in the cyclotomic fields Q(xi).

Scalars are Python ints and ``fractions.Fraction`` (both arbitrary
precision).  ``CycloNum`` represents an element of Q(xi) for xi the
canonical primitive b-th root of unity by its coordinates in the power
basis 1, xi, ..., xi^(phi(b)-1) modulo the b-th cyclotomic polynomial,
stored as integer numerators over one common denominator (the
integral-basis representation of Cohen, A Course in Computational
Algebraic Number Theory, 4.2).  Sums, products and quotients run on the
integers and take one gcd at the end.  Every value is immutable and every
operation pure, so all of this is safe to share between threads or
workers without locking.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

__all__ = [
    "cyclotomic_polynomial",
    "euler_phi",
    "CycloNum",
    "xi",
    "xi_power_table",
    "a_constant",
]


def _int_poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den must be monic; division must leave no remainder.
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + dn]
        if c:
            quot[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(b: int) -> tuple[int, ...]:
    """Integer coefficients of the b-th cyclotomic polynomial, constant term first.

    Computed by dividing x^b - 1 by the cyclotomic polynomials of all proper
    divisors of b; results are memoized per order.
    """
    if b < 1:
        raise ValueError(f"order must be >= 1, got {b}")
    poly = [-1] + [0] * (b - 1) + [1]
    for d in range(1, b):
        if b % d == 0:
            poly = _int_poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def euler_phi(b: int) -> int:
    """Euler's totient of b, i.e. the degree of the b-th cyclotomic polynomial."""
    return len(cyclotomic_polynomial(b)) - 1


class CycloNum:
    """An element of Q(xi), xi the canonical primitive b-th root of unity.

    Stored as integer numerators ``nums`` over one common denominator
    ``den``, in normal form: den > 0, gcd(den, *nums) == 1, and zero is
    (0, ..., 0) / 1.  So two values are equal exactly when their
    (b, den, nums) are.
    """

    __slots__ = ("b", "nums", "den")

    def __init__(self, b: int, coeffs: Iterable) -> None:
        vec = [Fraction(c) for c in coeffs]
        phi = euler_phi(b)
        if len(vec) != phi:
            raise ValueError(
                f"order {b} needs exactly {phi} coordinates, got {len(vec)}"
            )
        # Over the lcm of coordinates in lowest terms, the gcd is already 1.
        den = math.lcm(*(c.denominator for c in vec))
        self.b = b
        self.nums = tuple(c.numerator * (den // c.denominator) for c in vec)
        self.den = den

    @classmethod
    def from_integers(cls, b: int, nums: Sequence[int], den: int = 1) -> CycloNum:
        """nums / den for phi(b) integer coordinates and a nonzero integer
        den, brought to normal form by one gcd.  Package-internal: every
        integer kernel hands its result over here."""
        if den != 1:
            g = math.gcd(den, *nums)
            if den < 0:
                g = -g
            if g != 1:
                nums = [n // g for n in nums]
                den //= g
        self = object.__new__(cls)
        self.b = b
        self.nums = tuple(nums)
        self.den = den
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational power-basis coordinates, each in lowest terms."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @classmethod
    def zero(cls, b: int) -> CycloNum:
        return cls.from_integers(b, (0,) * euler_phi(b))

    @classmethod
    def one(cls, b: int) -> CycloNum:
        return cls.from_rational(b, 1)

    @classmethod
    def from_rational(cls, b: int, value) -> CycloNum:
        value = Fraction(value)
        nums = (value.numerator,) + (0,) * (euler_phi(b) - 1)
        return cls.from_integers(b, nums, value.denominator)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def _other(self, other) -> CycloNum | None:
        if isinstance(other, CycloNum):
            if other.b != self.b:
                raise ValueError(f"mixed root orders {self.b} and {other.b}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(self.b, other)
        return None

    def __add__(self, other):
        rhs = self._other(other)
        if rhs is None:
            return NotImplemented
        return _add(self, rhs, 1)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._other(other)
        if rhs is None:
            return NotImplemented
        return _add(self, rhs, -1)

    def __rsub__(self, other):
        rhs = self._other(other)
        if rhs is None:
            return NotImplemented
        return _add(rhs, self, -1)

    def __neg__(self) -> CycloNum:
        return CycloNum.from_integers(self.b, [-a for a in self.nums], self.den)

    def __mul__(self, other):
        # An int has numerator itself and denominator 1.
        if isinstance(other, (int, Fraction)):
            nums = [a * other.numerator for a in self.nums]
            return CycloNum.from_integers(self.b, nums, self.den * other.denominator)
        if not isinstance(other, CycloNum):
            return NotImplemented
        if other.b != self.b:
            raise ValueError(f"mixed root orders {self.b} and {other.b}")
        nums = _mul_coords(self.b, self.nums, other.nums)
        return CycloNum.from_integers(self.b, nums, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> CycloNum:
        """Multiplicative inverse: the product of the other Galois
        conjugates over the norm, memoized per value."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(xi)")
        return _inverse(self.b, self.nums, self.den)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            nums = [a * other.denominator for a in self.nums]
            return CycloNum.from_integers(self.b, nums, self.den * other.numerator)
        rhs = self._other(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        rhs = self._other(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, exponent: int) -> CycloNum:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycloNum.one(self.b)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNum):
            return self.b == other.b and self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            # Both sides are in lowest terms.
            num, den = other.numerator, other.denominator
            return self.is_rational() and self.nums[0] == num and self.den == den
        return NotImplemented

    def __hash__(self):
        # A rational value equals its Fraction (and an int), so it hashes
        # like one.
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.b, self.den, self.nums))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}xi" if i == 1 else f"{mag}xi^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"CycloNum(b={self.b}, {self})"


def _add(u: CycloNum, v: CycloNum, sign: int) -> CycloNum:
    # u + sign * v over the lcm of the two denominators.
    du, dv = u.den, v.den
    if du == dv:
        nums = [a + sign * c for a, c in zip(u.nums, v.nums)]
    else:
        g = math.gcd(du, dv)
        su, sv = dv // g, sign * (du // g)
        nums = [a * su + c * sv for a, c in zip(u.nums, v.nums)]
        du *= su
    return CycloNum.from_integers(u.b, nums, du)


def _mul_coords(b: int, a: Sequence[int], c: Sequence[int]) -> list[int]:
    # Integer coordinates of the product of two integer coordinate vectors.
    phi = len(a)
    conv = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, cj in enumerate(c):
                if cj:
                    conv[i + j] += ai * cj
    # xi^b = 1, so x^i reduces modulo the cyclotomic polynomial to the
    # coordinates of xi^(i mod b).
    out = conv[:phi]
    powers = xi_power_coords(b)
    for i in range(phi, 2 * phi - 1):
        ci = conv[i]
        if ci:
            for j, rj in enumerate(powers[i % b]):
                if rj:
                    out[j] += ci * rj
    return out


@lru_cache(maxsize=4096)
def _inverse(b: int, nums: tuple[int, ...], den: int) -> CycloNum:
    # The product c of the conjugates sigma_k(nums), k coprime to b and
    # k != 1, is integral, and nums * c is the norm of nums, a nonzero
    # integer.  sigma_k sends xi^j to xi^(jk), so it only permutes and folds
    # integer coordinates.  Then 1 / (nums / den) = den * c / norm.
    powers = xi_power_coords(b)
    conj = [1] + [0] * (len(nums) - 1)
    for k in range(2, b):
        if math.gcd(k, b) == 1:
            sigma = [0] * len(nums)
            for j, a in enumerate(nums):
                if a:
                    for m, p in enumerate(powers[j * k % b]):
                        sigma[m] += a * p
            conj = _mul_coords(b, conj, sigma)
    norm = _mul_coords(b, nums, conj)[0]
    return CycloNum.from_integers(b, [den * c for c in conj], norm)


def xi(b: int, exponent: int = 1) -> CycloNum:
    """The canonical primitive b-th root of unity, or a primitive power of it.

    The exponent must be coprime to b: imprimitive roots are rejected
    because the moment formulas divide by 1 - xi and the identities are
    only certified for primitive roots.
    """
    if b < 2:
        raise ValueError("root order must be >= 2 (order 1 would make 1 - xi vanish)")
    j = exponent % b
    if math.gcd(j, b) != 1:
        raise ValueError(f"exponent {exponent} is not coprime to {b}")
    return xi_power_table(b)[j]


@lru_cache(maxsize=None)
def xi_power_coords(b: int) -> tuple[tuple[int, ...], ...]:
    """Integer power-basis coordinates of xi^0 .. xi^(b-1), memoized.

    Package-internal: multiplying by xi shifts the coordinates up one place
    and folds the overflow back through the monic cyclotomic polynomial, so
    every power has integer coordinates.
    """
    mod = cyclotomic_polynomial(b)
    coords = [1] + [0] * (len(mod) - 2)
    powers = []
    for _ in range(b):
        powers.append(tuple(coords))
        top = coords[-1]
        coords = [c - top * m for c, m in zip([0] + coords[:-1], mod)]
    return tuple(powers)


@lru_cache(maxsize=None)
def xi_power_table(b: int) -> tuple[CycloNum, ...]:
    """Powers xi^0 .. xi^(b-1) of the canonical primitive root, memoized."""
    return tuple(CycloNum.from_integers(b, power) for power in xi_power_coords(b))


def combine_buckets(b: int, buckets: Sequence[int], den: int = 1) -> CycloNum:
    """sum_r buckets[r] * xi^r / den for integer residue buckets r = 0 .. b-1.

    Package-internal: both the brute-force and the closed-form kernel end here.
    """
    powers = xi_power_coords(b)
    coords = [0] * len(powers[0])
    for bucket, power in zip(buckets, powers):
        if bucket:
            for j, c in enumerate(power):
                coords[j] += bucket * c
    return CycloNum.from_integers(b, coords, den)


def a_constant(b: int, l: int) -> CycloNum:
    """Sum of k^l * xi^k over one period k = 0 .. b-1 (with 0^0 = 1).

    Special values: l=0 gives 0 and l=1 gives b/(xi - 1).
    """
    if l < 0:
        raise ValueError("power must be >= 0")
    return combine_buckets(b, [k**l for k in range(b)])
