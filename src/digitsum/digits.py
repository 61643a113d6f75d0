"""Base-b digit sums, the root-of-unity weights built on them, and the
integer residue-bucket kernel behind every brute-force digit-weighted sum.

By s(qb + d) = s(q) + d, s(n) x + n y = sum_k d_k (x + b^k y) over the
base-b digits d_k of n, so :func:`residue_lists` builds the values one digit
position at a time, in b lists by digit sum mod b, and reads no digit-sum
table.  The kernel (:func:`digit_weighted_sum`) builds those lists only for
its low block: its lowest :func:`low_positions` digit positions, counted
units first across the axes.  Each combination of the remaining high digits
is one constant shift H and one digit-sum offset sigma, so the sum of f over
low list r shifted by H adds into bucket (r + sigma) mod b; the shifted
arguments are fed lazily, so memory stays at the low block however large the
block.  A block that fits the low block is summed whole.  f is summed by
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
power-sum loop of the PTE certificates.

:func:`check_block` is the one place the block rule, b >= 2 and N >= a least
order, is written; every entry point calls it before it charges the cap.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from itertools import product, repeat

from .arith import CycloNum, combine_buckets
from .cost import charge, walk_size
from .poly import RationalPoly, clear_denominators, integer_samples

__all__ = ["digit_sums"]

# The kernel's low block holds at most this many values, unless a large base
# needs more for 64 values per residue list (see low_positions).
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


def low_positions(b: int) -> int:
    """Digit positions the kernel keeps whole in base b: the most whose b^L
    values fit LOW_BLOCK, but at least enough for 64 values per residue
    list, as a call per list over a few values costs more than the values.
    Package-internal."""
    L = 1
    while b ** (L + 1) <= LOW_BLOCK or b ** (L - 1) < 64:
        L += 1
    return L


def digit_weighted_sum(
    f: RationalPoly, b: int, axes: Sequence[tuple[int, object, object]], c=0, max_cost: int | None = None
) -> CycloNum:
    """Sum of xi^(s(n_1)+...+s(n_r)) f(c + sum_j (s(n_j) x_j + n_j y_j)) over
    n_j < b^N_j, one (N_j, x_j, y_j) per axis; s is the base-b digit sum.

    Charged ``cost.walk_size`` first.  With denominators cleared once, f's
    integer form is summed over each of the b :func:`residue_lists` of the
    low block, once per combination of the high digits, shifted by that
    combination's step total H into the bucket its digit sum moves the list
    to; the b sums become one CycloNum: exactly the sum of ``xi^s * f(arg)``.
    """
    charge(walk_size(b, sum(N for N, _, _ in axes), max_cost), max_cost)
    g, scale, (C, *scaled) = clear_denominators(f, c, *(v for _, x, y in axes for v in (x, y)))
    low, high, room = [], [], low_positions(b)
    for N, X, Y in zip([N for N, _, _ in axes], scaled[::2], scaled[1::2]):
        k = min(N, room)
        room -= k
        low.append((k, X, Y))
        high += [X + b**i * Y for i in range(k, N)]
    lists = residue_lists(b, low, C)
    if not high:
        return combine_buckets(b, [_sample_sum(g, args) for args in lists], scale)
    buckets = [0] * b
    for ds in product(range(b), repeat=len(high)):
        H, sigma = sum(map(operator.mul, ds, high)), sum(ds)
        for r, args in enumerate(lists):
            buckets[(r + sigma) % b] += _sample_sum(g, map(operator.add, args, repeat(H)))
    return combine_buckets(b, buckets, scale)


def _sample_sum(g: list[int], args: Iterable[int]) -> int:
    """Sum of g(A) over args: a monomial's powers by ``pow``, any other g
    by integer Horner."""
    if any(g[:-1]):
        return sum(integer_samples(g, args))
    return g[-1] * sum(map(pow, args, repeat(len(g) - 1)))
