"""Base-b digit sums, the root-of-unity weights built on them, and the
integer residue-bucket kernel behind every brute-force digit-weighted sum.

By s(qb + d) = s(q) + d, s(n) x + n y = sum_k d_k (x + b^k y) over the
base-b digits d_k of n, so :func:`residue_lists` builds the values one digit
position at a time, in b lists by digit sum mod b, and reads no digit-sum
table.  The kernel (:func:`digit_weighted_sum`) sums f over those lists
whole when the block has at most LOW_BLOCK values or two digit positions.
Any other block it splits meet-in-the-middle: the lowest half of its digit
positions, counted units first across the axes, and the rest, each half in
its own b lists.  By the binomial theorem the sum of f over every pair of a
low and a high value is a dot product of the two lists' power sums (taken in
:func:`power_rows`), so the kernel enumerates about 2 b^(N/2) values, and
holds them, where the block has b^N.  Whole lists are summed by
``poly.integer_samples`` (the integer Horner the closed side uses) for any f
but a monomial, and the buckets end in ``arith.combine_buckets``, the one
place residue buckets become coordinates; the kernel never touches weight
tables, moments or Bernoulli code, so the brute-force side of each identity
stays independent of its closed form, and it charges its own price.  The PTE
partitions class their values by whole :func:`residue_lists`; both are
package-internal.  One brute-force sum is not the kernel's:
``identities.joint_weight_polynomial`` classes its arguments over
:func:`digit_sums`, as its weight xi^s(i_1+...+i_m) is no product of
per-axis weights, and sums their powers in :func:`power_rows`, the per-class
power-sum loop of the split kernel and the PTE certificates.

:func:`check_block` is the one place the block rule, b >= 2 and N >= a least
order, is written; every entry point calls it before it charges the cap.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import repeat
from math import comb

from .arith import CycloNum, combine_buckets
from .cost import charge, walk_size
from .poly import RationalPoly, clear_denominators, integer_samples

__all__ = ["digit_sums"]

# The kernel sums a block of at most this many values whole.  A block of two
# positions stays whole too: split, a large base would join b^2 list pairs.
LOW_BLOCK = 2**10


def check_block(b: int, N: int = 0, least: int = 0) -> None:
    """Refuse a block of b^N integers unless b >= 2 and N >= least."""
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if N < least:
        raise ValueError(f"order must be >= {least}, got {N}")


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


def residue_lists(b: int, axes: Iterable[tuple[int, int, int]], C: int = 0) -> list[list[int]]:
    """Per digit-sum total r mod b, the integers C + sum_j (s(n_j) X_j + n_j Y_j)
    over n_j < b^N_j whose digit sums total r, one (N_j, X_j, Y_j) per axis.
    The order of each list depends only on b and the orders, so calls that
    differ only in (X, Y) list the same (n_1, ..., n_r) at the same place."""
    # Digit d at a position of step X + b^k Y adds d steps to a value and
    # moves it from list r - d (wrapping mod b) to list r.  The first
    # position moves C alone, to list d.
    steps = [X + b**k * Y for N, X, Y in axes for k in range(N)]
    if not steps:
        return [[C]] + [[] for _ in range(b - 1)]
    lists = [[C + d * steps[0]] for d in range(b)]
    for step in steps[1:]:
        shifts = [d * step for d in range(b)]
        lists = [[a + shift for d, shift in enumerate(shifts) for a in lists[r - d]] for r in range(b)]
    return lists


def digit_weighted_sum(
    f: RationalPoly, b: int, axes: Sequence[tuple[int, object, object]], c=0, max_cost: int | None = None
) -> CycloNum:
    """Sum of xi^(s(n_1)+...+s(n_r)) f(c + sum_j (s(n_j) x_j + n_j y_j)) over
    n_j < b^N_j, one (N_j, x_j, y_j) per axis; s is the base-b digit sum.

    Charged ``cost.walk_size`` first.  With denominators cleared once, f's
    integer form g is summed over each of the b :func:`residue_lists` of a
    block of at most LOW_BLOCK values or two digit positions.  Any other
    block is split into a low and a high half of its digit positions: the
    sum of g(a + h) over low list r and high list s is sum_j P_r[j] W_s[j]
    by the binomial theorem, with P and Q the halves' power sums and
    W_s[j] = sum_i g_i C(i, j) Q_s[i - j], and lands in bucket (r + s) mod b.
    The b sums become one CycloNum: exactly the sum of ``xi^s * f(arg)``.
    """
    total = sum(N for N, _, _ in axes)
    # Past two digit positions the price is the block b^total itself.
    block = walk_size(b, total, max_cost)
    charge(block, max_cost)
    g, scale, (C, *scaled) = clear_denominators(f, c, *(v for _, x, y in axes for v in (x, y)))
    scaled_axes = zip([N for N, _, _ in axes], scaled[::2], scaled[1::2])
    if total <= 2 or block <= LOW_BLOCK:
        lists = residue_lists(b, scaled_axes, C)
        if any(g[:-1]):
            return combine_buckets(b, [sum(integer_samples(g, args)) for args in lists], scale)
        return combine_buckets(b, [g[-1] * sum(map(pow, args, repeat(len(g) - 1))) for args in lists], scale)
    # The low half is the lowest ceil(total / 2) positions, units first across
    # the axes; each axis's high positions are an axis of their own, scaled
    # by b^k past its k low ones.
    low, high, room = [], [], (total + 1) // 2
    for N, X, Y in scaled_axes:
        k = min(N, room)
        room -= k
        low.append((k, X, Y))
        high.append((N - k, X, b**k * Y))
    d = len(g) - 1
    P = power_rows(map(Counter, residue_lists(b, low, C)), d)
    Q = power_rows(map(Counter, residue_lists(b, high)), d)
    binomial = [[g[i] * comb(i, j) for i in range(j, d + 1)] for j in range(d + 1)]
    W = [[sum(map(operator.mul, row, q)) for row in binomial] for q in Q]
    buckets = [0] * b
    for r, p in enumerate(P):
        for s, w in enumerate(W):
            buckets[(r + s) % b] += sum(map(operator.mul, p, w))
    return combine_buckets(b, buckets, scale)
