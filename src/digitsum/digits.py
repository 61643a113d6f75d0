"""Base-b digit sums, the root-of-unity weights built on them, and the
integer residue-bucket kernel behind every brute-force digit-weighted sum.

The kernel (:func:`digit_weighted_sum`) rests on s(qb + d) = s(q) + d: over
the base-b digits d_k of n, s(n) x + n y = sum_k d_k (x + b^k y), so it
builds its arguments one digit position at a time and reads no digit-sum table.
It ends in ``arith.combine_buckets``, the one place residue buckets become
coordinates; it never touches weight tables, moments or Bernoulli code, so
the brute-force side of each identity stays independent of its closed form.
It is package-internal, not exported, and samples any f but a monomial by
``poly.integer_samples``, the integer Horner the closed side uses.  It
serves every brute-force sum but one: ``identities.joint_weight_polynomial``
classes its arguments over :func:`digit_sums`, as its weight
xi^s(i_1+...+i_m) is no product of per-axis weights, and sums their powers
in :func:`power_rows`, the per-class power-sum loop of the PTE certificates.

:func:`check_block` is the one place the block rule, b >= 2 and N >= a least
order, is written; every entry point calls it before it charges the cap.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Iterable, Sequence

from .arith import CycloNum, combine_buckets
from .poly import RationalPoly, clear_denominators, integer_samples

__all__ = [
    "digit_sum",
    "digit_sums",
]


def check_block(b: int, N: int = 0, least: int = 0) -> None:
    """Refuse a block of b^N integers unless b >= 2 and N >= least."""
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if N < least:
        raise ValueError(f"order must be >= {least}, got {N}")


def digit_sum(n: int, b: int) -> int:
    """Sum of the base-b digits of n."""
    check_block(b)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    total = 0
    while n:
        n, d = divmod(n, b)
        total += d
    return total


def digit_sums(b: int, limit: int) -> list[int]:
    """Digit sums of 0 .. limit-1, one step per entry by s(n) = s(n // b) + n % b."""
    check_block(b)
    sums = [0] * limit
    for n in range(1, limit):
        sums[n] = sums[n // b] + n % b
    return sums


def power_rows(counters: Iterable[dict[int, int]], degree: int) -> list[list[int]]:
    """Per class, sum m A^k for k = 0..degree over the values A of multiplicity
    m in its counter, one column of terms m A^k per power, each from the last
    by one multiplication per value.  Package-internal."""
    rows = []
    for counter in counters:
        values = list(counter)
        terms = list(counter.values())
        row = [sum(terms)]
        for _ in range(degree):
            terms = list(map(operator.mul, terms, values))
            row.append(sum(terms))
        rows.append(row)
    return rows


def digit_weighted_sum(
    f: RationalPoly, b: int, axes: Sequence[tuple[int, object, object]], c=0
) -> CycloNum:
    """Sum of xi^(s(n_1)+...+s(n_r)) f(c + sum_j (s(n_j) x_j + n_j y_j)) over
    n_j < b^N_j, one (N_j, x_j, y_j) per axis; s is the base-b digit sum.

    With denominators cleared once, s(n) X + n Y = sum_k d_k (X + b^k Y) over
    the digits d_k of n, so the integer arguments are built one digit position
    at a time in b lists, one per digit sum mod b; no digit-sum table is read.
    Each list is summed through f's integer form and the b sums become one
    CycloNum: exactly the term-by-term sum of ``xi^s * f(arg)`` in Q(xi).
    """
    g, scale, (C, *scaled) = clear_denominators(f, c, *(v for _, x, y in axes for v in (x, y)))
    # Digit d moves an argument from list r - d (wrapping mod b) to list r.
    lists = [[C]] + [[] for _ in range(b - 1)]
    for (N, _, _), X, Y in zip(axes, scaled[::2], scaled[1::2]):
        for k in range(N):
            shifts = [d * (X + b**k * Y) for d in range(b)]
            lists = [[a + shift for d, shift in enumerate(shifts) for a in lists[r - d]] for r in range(b)]
    top, rest = g[-1], g[-2::-1]
    if not any(rest):
        deg = len(g) - 1
        return combine_buckets(b, [top * sum(map(pow, args, repeat(deg))) for args in lists], scale)
    return combine_buckets(b, [sum(integer_samples(g, args)) for args in lists], scale)
