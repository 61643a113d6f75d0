"""Dense univariate polynomials with exact rational coefficients.

One rule for every rational in the package: an input is normalised by
:func:`rational`, which passes a Fraction on as it is and builds one only
from anything else, so no value is wrapped twice; and the package samples
a polynomial at rational points on integers, by clearing denominators once
(:func:`clear_denominators`) and running integer Horner
(:func:`integer_samples`), never by a Fraction operation per term.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

__all__ = ["RationalPoly"]


def rational(value) -> Fraction:
    """``Fraction(value)``, built only when value is not a Fraction already.
    Package-internal: every input-normalising site goes through here."""
    return value if type(value) is Fraction else Fraction(value)


_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)


class RationalPoly:
    """Polynomial over Q, coefficients indexed by degree (constant first).

    Instances are callables: ``p(value)`` evaluates by Horner's rule and
    stays exact for Fraction (or CycloNum) arguments.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()) -> None:
        vec = list(map(rational, coeffs))
        while vec and not vec[-1]:
            vec.pop()
        self.coeffs = tuple(vec)

    @classmethod
    def monomial(cls, degree: int, coeff=_FRACTION_ONE) -> RationalPoly:
        if degree < 0:
            raise ValueError("degree must be >= 0")
        return cls((_FRACTION_ZERO,) * degree + (coeff,))

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
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RationalPoly({list(map(str, self.coeffs))})"


def clear_denominators(f: RationalPoly, *points) -> tuple[list[int], int, list[int]]:
    """Integer form of f on the lattice of ``points``.

    With den the lcm of the points' denominators, returns g (integer
    coefficients, constant first), scale and the points times den, so that
    f(A / den) = g(A) / scale for every integer A.  Package-internal: both
    sides of an identity clear denominators here once and then sample g.
    """
    den, scaled = common_denominator(points)
    coeffs = f.coeffs or (_FRACTION_ZERO,)
    d = len(coeffs) - 1
    lcm = math.lcm(*(a.denominator for a in coeffs))
    g = [a.numerator * (lcm // a.denominator) * den ** (d - k) for k, a in enumerate(coeffs)]
    return g, lcm * den**d, scaled


def common_denominator(values: Iterable) -> tuple[int, list[int]]:
    """(den, [v * den for v in values]) for den the lcm of the values'
    denominators: every value is an integer over den.  An int is read as it
    is, as it has a numerator and a denominator.  Package-internal."""
    values = [v if type(v) is int else rational(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def integer_samples(g: list[int], args: Iterable[int]) -> list[int]:
    """g(A) for each integer A in args, by integer Horner.  Package-internal:
    both sides of an identity sample f here, the closed one on a progression,
    the brute-force kernel on each of its residue lists."""
    top, rest = g[-1], g[-2::-1]
    out = []
    for A in args:
        v = top
        for p in rest:
            v = v * A + p
        out.append(v)
    return out
