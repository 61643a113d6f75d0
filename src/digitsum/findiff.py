"""Iterated forward differences in a scaled index, and the two sides of the
digit-weighted summation identity they connect."""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Sequence

from .arith import CycloNum, xi_power_coords
from .cost import charge
from .digits import digit_weighted_sum
from .poly import RationalPoly, clear_denominators, integer_samples
from .weights import beta_columns

# forward_differences and beta_weighted_sum are package-internal and stay
# out of __all__: bench/spans.py wraps every exported name, which would move
# their time out of weighted_rhs's self time.
__all__ = ["forward_diff_n", "lhs_sum", "weighted_rhs"]


def forward_differences(values: Sequence, N: int) -> list:
    """N passes of v[k+1] - v[k]: entry k of the result is the N-fold
    forward difference sum_j C(N,j) (-1)^(N-j) values[k+j]."""
    values = list(values)
    for _ in range(N):
        values = [hi - lo for lo, hi in zip(values, values[1:])]
    return values


def beta_weighted_sum(f: RationalPoly, b: int, axes: Sequence[tuple[int, Fraction]], c) -> CycloNum:
    """Closed side of the r-fold identity over ``axes`` = [(N_j, y_j)]:
    (-1)^N sum_k beta_k Delta^N g(k) for the first axis (N, y), with beta
    the order-(N-1) table.

    On the last axis g(n) = f(c + n y); on an earlier one g(n) is this sum
    over the remaining axes at base point c + n y.  Differences on different
    axes commute, so the nesting equals the tensor of every axis'
    differences.  Only f is sampled, never a digit sum.  Denominators are
    cleared once, so the samples, differences and table products are all
    integers and the result is divided once at the end.
    """
    g, scale, (C, *ys) = clear_denominators(f, c, *(y for _, y in axes))
    coords = _closed_numerators(g, b, [(N, Y) for (N, _), Y in zip(axes, ys)], C)
    return CycloNum(b, (Fraction(v, scale) for v in coords))


def _closed_numerators(g: list[int], b: int, axes: Sequence[tuple[int, int]], C: int) -> list[int]:
    # beta_weighted_sum times its scale, as integer power-basis coordinates.
    # An entry of the sampled data is a phi-vector of the inner sums on an
    # outer axis and a plain integer on the last one (a single column).
    (N, Y), rest = axes[0], axes[1:]
    count = b**N
    if rest:
        inner = [_closed_numerators(g, b, rest, C + n * Y) for n in range(count)]
        columns = [forward_differences(col, N) for col in zip(*inner)]
    else:
        columns = [forward_differences(integer_samples(g, C, Y, count), N)]
    # sum_k beta_k * delta_k: column m of the table against column p of the
    # data lands on xi^(m+p).
    powers = xi_power_coords(b)
    coords = [0] * len(powers[0])
    for m, weights in enumerate(beta_columns(b, N - 1)):
        for p, deltas in enumerate(columns):
            dot = sum(map(operator.mul, weights, deltas))
            if dot:
                for j, v in enumerate(powers[(m + p) % b]):
                    coords[j] += dot * v
    return [-v for v in coords] if N % 2 else coords


def forward_diff_n(f: Callable, x, y, k: int, N: int):
    """N-fold forward difference in the integer index k of f sampled at
    x + (k+j) y, i.e. sum_j C(N,j) (-1)^(N-j) f(x + (k+j) y)."""
    if N < 0:
        raise ValueError(f"order must be >= 0, got {N}")
    x = Fraction(x)
    y = Fraction(y)
    return forward_differences([f(x + (k + j) * y) for j in range(N + 1)], N)[0]


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


def weighted_rhs(f: RationalPoly, x, y, b: int, N: int, max_cost: int | None = None) -> CycloNum:
    """Beta-weighted sum of N-fold forward differences of f: the closed-form
    side of the identity matching :func:`lhs_sum`.

    ``f`` must be a :class:`RationalPoly`, for the same reason as there: the
    sum is taken in integers from its coefficients.
    """
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if N < 1:
        raise ValueError(f"order must be >= 1, got {N}")
    charge(b**N, max_cost)
    return beta_weighted_sum(f, b, [(N, Fraction(y))], Fraction(x))
