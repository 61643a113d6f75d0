"""Iterated forward differences in a scaled index, and the two sides of the
digit-weighted summation identity they connect."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .arith import CycloNum
from .cost import charge
from .digits import digit_weighted_sum
from .poly import RationalPoly
from .weights import beta_table

__all__ = ["forward_diff_n", "lhs_sum", "weighted_rhs"]


def forward_diff_n(f: Callable, x, y, k: int, N: int):
    """N-fold forward difference in the integer index k of f sampled at
    x + (k+j) y, i.e. sum_j C(N,j) (-1)^(N-j) f(x + (k+j) y)."""
    if N < 0:
        raise ValueError(f"order must be >= 0, got {N}")
    x = Fraction(x)
    y = Fraction(y)
    total = None
    for j in range(N + 1):
        term = math.comb(N, j) * f(x + (k + j) * y)
        if (N - j) % 2:
            term = -term
        total = term if total is None else total + term
    return total


def lhs_sum(f: RationalPoly, x, y, b: int, N: int, max_cost: int | None = None) -> CycloNum:
    """Digit-weighted sample sum of f over the full block 0 .. b^N - 1:
    sum over n of xi^s(n) f(x + n y).

    ``f`` must be a :class:`RationalPoly`: the sum is taken by the integer
    kernel :func:`digitsum.digits.digit_weighted_sum`, which reads its
    coefficients rather than calling it.
    """
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if N < 0:
        raise ValueError(f"order must be >= 0, got {N}")
    charge(b**N, max_cost)
    return digit_weighted_sum(f, b, [(N, 0, y)], x)


def weighted_rhs(f: Callable, x, y, b: int, N: int, max_cost: int | None = None) -> CycloNum:
    """Beta-weighted sum of N-fold forward differences of f: the closed-form
    side of the identity matching :func:`lhs_sum`."""
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if N < 1:
        raise ValueError(f"order must be >= 1, got {N}")
    count = b**N
    charge(count, max_cost)
    table = beta_table(b, N - 1).values
    x = Fraction(x)
    y = Fraction(y)
    # Sample once across the whole window; each difference reuses N+1 values.
    samples = [f(x + k * y) for k in range(count)]
    diff_coeffs = [math.comb(N, j) * (-1) ** (N - j) for j in range(N + 1)]
    total = CycloNum.zero(b)
    for k, w in enumerate(table):
        delta = sum(c * samples[k + j] for j, c in enumerate(diff_coeffs))
        total = total + w * delta
    return -total if N % 2 else total
