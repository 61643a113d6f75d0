"""Base-b digit sums, the root-of-unity weights built on them, and the
integer residue-bucket kernel behind every brute-force digit-weighted sum.

The kernel (:func:`digit_weighted_sum`) reads only the digit-sum table
below and ends in ``arith.combine_buckets``, the one place residue buckets
become coordinates; it never touches weight tables, moments or Bernoulli
code, so the brute-force side of each identity stays independent of its
closed form.  It is package-internal, not exported.
"""

from __future__ import annotations

from typing import Sequence

from .arith import CycloNum, combine_buckets
from .poly import RationalPoly, clear_denominators

__all__ = [
    "digit_sum",
    "digit_sums",
]


def _check_base(b: int) -> None:
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")


def digit_sum(n: int, b: int) -> int:
    """Sum of the base-b digits of n."""
    _check_base(b)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    total = 0
    while n:
        n, d = divmod(n, b)
        total += d
    return total


def digit_sums(b: int, limit: int) -> list[int]:
    """Digit sums of 0 .. limit-1, one step per entry by s(n) = s(n // b) + n % b."""
    _check_base(b)
    sums = [0] * limit
    for n in range(1, limit):
        sums[n] = sums[n // b] + n % b
    return sums


def digit_weighted_sum(
    f: RationalPoly, b: int, axes: Sequence[tuple[int, object, object]], c=0
) -> CycloNum:
    """Sum of xi^(s(n_1)+...+s(n_r)) f(c + sum_j (s(n_j) x_j + n_j y_j)) over
    n_j < b^N_j, one (N_j, x_j, y_j) per axis; s is the base-b digit sum.

    Denominators are cleared once, so each term is one Horner evaluation of
    an integer polynomial added into the bucket of its digit sum mod b; the
    b buckets become one CycloNum at the end.  Exactly equal to summing
    ``xi^s * f(arg)`` term by term in Q(xi).
    """
    g, scale, (C, *scaled) = clear_denominators(f, c, *(v for _, x, y in axes for v in (x, y)))
    d = len(g) - 1
    top, rest = g[-1], g[-2::-1]
    monomial = not any(rest)

    axes = [(Nj, X, Y) for (Nj, _, _), X, Y in zip(axes, scaled[::2], scaled[1::2])]
    *outer_axes, (N, X, Y) = axes
    # Fold every axis but the last into (argument, residue) pairs.
    outer = [(C, 0)]
    for Nj, Xj, Yj in outer_axes:
        sums = digit_sums(b, b**Nj)
        outer = [(a + s * Xj + n * Yj, (r + s) % b) for a, r in outer for n, s in enumerate(sums)]
    last = digit_sums(b, b**N)

    # The Horner loop is written out here rather than calling
    # poly.integer_samples: its arguments are no arithmetic progression.
    buckets = [0] * b
    for a0, r0 in outer:
        for n, s in enumerate(last):
            A = a0 + s * X + n * Y
            if monomial:
                v = A**d
            else:
                v = top
                for p in rest:
                    v = v * A + p
            buckets[(r0 + s) % b] += v
    if monomial:
        buckets = [top * v for v in buckets]
    return combine_buckets(b, buckets, scale)
