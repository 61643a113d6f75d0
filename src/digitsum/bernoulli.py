"""Exact Bernoulli polynomials, Faulhaber power sums, and the closed form
for iterated differences of a Bernoulli polynomial on an arithmetic grid."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .poly import RationalPoly, clear_denominators, integer_samples, rational

__all__ = [
    "bernoulli_numbers",
    "bernoulli_poly",
    "faulhaber_sum",
    "delta_n_bernoulli",
]


def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """Bernoulli numbers B_0 .. B_n via the Akiyama-Tanigawa recurrence.

    Convention: B_1 = -1/2 (Akiyama-Tanigawa natively produces +1/2; all
    other indices agree between the conventions).
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]
    return tuple(out)


@lru_cache(maxsize=None)
def bernoulli_poly(p: int) -> RationalPoly:
    """The p-th Bernoulli polynomial: sum_j C(p,j) B_j x^(p-j)."""
    if p < 0:
        raise ValueError(f"degree must be >= 0, got {p}")
    numbers = bernoulli_numbers(p)
    coeffs = [math.comb(p, p - i) * numbers[p - i] for i in range(p + 1)]
    return RationalPoly(coeffs)


def faulhaber_sum(a, step, r: int, s: int, p: int) -> Fraction:
    """Exact sum of (a + step*i)^p for i = r .. s-1 via Bernoulli polynomials:
    step^p / (p+1) * (B_{p+1}(a/step + s) - B_{p+1}(a/step + r)), with both
    samples taken on B_{p+1}'s integer form and divided once."""
    if p < 0:
        raise ValueError(f"power must be >= 0, got {p}")
    step = rational(step)
    if not step:
        raise ValueError("step must be nonzero")
    if r > s:
        raise ValueError(f"empty-range bounds must satisfy r <= s, got {r} > {s}")
    base = rational(a) / step
    g, scale, points = clear_denominators(bernoulli_poly(p + 1), base + s, base + r)
    upper, lower = integer_samples(g, points)
    return Fraction(step.numerator**p * (upper - lower), step.denominator**p * (p + 1) * scale)


def delta_n_bernoulli(a, step, k: int, N: int) -> Fraction:
    """Closed form for the N-fold forward difference (in k) of the
    (N+1)-st Bernoulli polynomial sampled at a + k*step:
    (N+1)! step^N (a + k*step + (step*N - 1)/2)."""
    if N < 0:
        raise ValueError(f"order must be >= 0, got {N}")
    a = rational(a)
    step = rational(step)
    return math.factorial(N + 1) * step**N * (a + k * step + (step * N - 1) / 2)
