"""Exact arithmetic in the cyclotomic fields Q(xi).

Scalars are Python ints and ``fractions.Fraction`` (both arbitrary
precision).  ``CycloNum`` represents an element of Q(xi) for xi the
canonical primitive b-th root of unity, stored as rational coordinates in
the power basis 1, xi, ..., xi^(phi(b)-1) modulo the b-th cyclotomic
polynomial.  Every value is immutable and every operation pure, so all of
this is safe to share between threads or workers without locking.
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

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _frac_poly_divmod(
    num: list[Fraction], den: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [_ZERO] * max(len(num) - dn, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + dn]
        if c:
            q = c / lead
            quot[i] = q
            for j, d in enumerate(den):
                num[i + j] -= q * d
    while num and not num[-1]:
        num.pop()
    return quot, num


class CycloNum:
    """An element of Q(xi), xi the canonical primitive b-th root of unity."""

    __slots__ = ("b", "coeffs")

    def __init__(self, b: int, coeffs: Iterable) -> None:
        vec = tuple(Fraction(c) for c in coeffs)
        phi = euler_phi(b)
        if len(vec) != phi:
            raise ValueError(
                f"order {b} needs exactly {phi} coordinates, got {len(vec)}"
            )
        self.b = b
        self.coeffs = vec

    @classmethod
    def _raw(cls, b: int, coeffs: tuple[Fraction, ...]) -> CycloNum:
        self = object.__new__(cls)
        self.b = b
        self.coeffs = coeffs
        return self

    @classmethod
    def zero(cls, b: int) -> CycloNum:
        return cls._raw(b, (_ZERO,) * euler_phi(b))

    @classmethod
    def one(cls, b: int) -> CycloNum:
        return cls.from_rational(b, _ONE)

    @classmethod
    def from_rational(cls, b: int, value) -> CycloNum:
        phi = euler_phi(b)
        return cls._raw(b, (Fraction(value),) + (_ZERO,) * (phi - 1))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

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
        return CycloNum._raw(self.b, tuple(a + c for a, c in zip(self.coeffs, rhs.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._other(other)
        if rhs is None:
            return NotImplemented
        return CycloNum._raw(self.b, tuple(a - c for a, c in zip(self.coeffs, rhs.coeffs)))

    def __rsub__(self, other):
        rhs = self._other(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self) -> CycloNum:
        return CycloNum._raw(self.b, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloNum._raw(self.b, tuple(a * other for a in self.coeffs))
        if not isinstance(other, CycloNum):
            return NotImplemented
        if other.b != self.b:
            raise ValueError(f"mixed root orders {self.b} and {other.b}")
        a, c = self.coeffs, other.coeffs
        phi = len(a)
        conv = [_ZERO] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, cj in enumerate(c):
                    if cj:
                        conv[i + j] += ai * cj
        # xi^b = 1, so x^i reduces modulo the cyclotomic polynomial to the
        # coordinates of xi^(i mod b).
        out = conv[:phi]
        powers = xi_power_coords(self.b)
        for i in range(phi, 2 * phi - 1):
            ci = conv[i]
            if ci:
                for j, rj in enumerate(powers[i % self.b]):
                    if rj:
                        out[j] += ci * rj
        return CycloNum._raw(self.b, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> CycloNum:
        """Multiplicative inverse, via the extended Euclidean algorithm
        against the cyclotomic modulus."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(xi)")
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.b)]
        r0, r1 = mod, [c for c in self.coeffs]
        while r1 and not r1[-1]:
            r1.pop()
        s0: list[Fraction] = []
        s1: list[Fraction] = [_ONE]
        while len(r1) > 1:
            q, r = _frac_poly_divmod(r0, r1)
            # s_next = s0 - q * s1
            prod = [_ZERO] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        prod[i + j] += qi * sj
            nxt = [
                (s0[i] if i < len(s0) else _ZERO) - (prod[i] if i < len(prod) else _ZERO)
                for i in range(max(len(s0), len(prod)))
            ]
            while nxt and not nxt[-1]:
                nxt.pop()
            r0, r1 = r1, r
            s0, s1 = s1, nxt
        # r1 is a nonzero constant: the modulus is irreducible over Q.
        g = r1[0]
        phi = euler_phi(self.b)
        coeffs = tuple((s1[i] if i < len(s1) else _ZERO) / g for i in range(phi))
        return CycloNum._raw(self.b, coeffs)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            inv = _ONE / Fraction(other)
            return CycloNum._raw(self.b, tuple(a * inv for a in self.coeffs))
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
            return self.b == other.b and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.b, self.coeffs))

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
    return tuple(CycloNum(b, power) for power in xi_power_coords(b))


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
    return CycloNum(b, (Fraction(v, den) for v in coords))


def a_constant(b: int, l: int) -> CycloNum:
    """Sum of k^l * xi^k over one period k = 0 .. b-1 (with 0^0 = 1).

    Special values: l=0 gives 0 and l=1 gives b/(xi - 1).
    """
    if l < 0:
        raise ValueError("power must be >= 0")
    return combine_buckets(b, [k**l for k in range(b)])
