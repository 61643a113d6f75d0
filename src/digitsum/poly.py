"""Dense univariate polynomials with exact rational coefficients."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

__all__ = ["RationalPoly"]


class RationalPoly:
    """Polynomial over Q, coefficients indexed by degree (constant first).

    Instances are callables: ``p(value)`` evaluates by Horner's rule and
    stays exact for Fraction (or CycloNum) arguments.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()) -> None:
        vec = [Fraction(c) for c in coeffs]
        while vec and not vec[-1]:
            vec.pop()
        self.coeffs = tuple(vec)

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> RationalPoly:
        if degree < 0:
            raise ValueError("degree must be >= 0")
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __call__(self, value):
        result = _FRACTION_ZERO
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (RationalPoly((other,))).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPoly({list(map(str, self.coeffs))})"


def clear_denominators(f: RationalPoly, *points) -> tuple[list[int], int, list[int]]:
    """Integer form of f on the lattice of ``points``.

    With den the lcm of the points' denominators, returns g (integer
    coefficients, constant first), scale and the points times den, so that
    f(A / den) = g(A) / scale for every integer A.  Package-internal: both
    sides of an identity clear denominators here once and then sample g.
    """
    points = [Fraction(v) for v in points]
    den = math.lcm(*(v.denominator for v in points))
    coeffs = f.coeffs or (_FRACTION_ZERO,)
    d = len(coeffs) - 1
    lcm = math.lcm(*(a.denominator for a in coeffs))
    g = [a.numerator * (lcm // a.denominator) * den ** (d - k) for k, a in enumerate(coeffs)]
    return g, lcm * den**d, [v.numerator * (den // v.denominator) for v in points]


def integer_samples(g: list[int], start: int, step: int, count: int) -> list[int]:
    """g(start + n * step) for n < count, by integer Horner."""
    top, rest = g[-1], g[-2::-1]
    out = []
    for n in range(count):
        A = start + n * step
        v = top
        for p in rest:
            v = v * A + p
        out.append(v)
    return out


_FRACTION_ZERO = Fraction(0)
