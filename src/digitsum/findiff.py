"""Iterated forward differences in a scaled index, and the two sides of the
digit-weighted summation identity they connect.

The closed side differences samples of polynomials of degree <= deg f, so
on every axis it computes only deg f + 1 of them and rebuilds the rest of
Delta^N from their Newton difference table (sampled_differences).
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate

from .arith import CycloNum, combine_buckets
from .cost import charge, walk_size
from .digits import check_block, digit_weighted_sum
from .poly import RationalPoly, clear_denominators, integer_samples, rational
from .weights import beta_columns

# forward_differences, sampled_differences and beta_weighted_sum are
# package-internal and stay out of __all__: bench/spans.py wraps every
# exported name, which would move their time out of weighted_rhs's self time.
__all__ = ["forward_diff_n", "lhs_sum", "weighted_rhs"]


def forward_differences(values: Sequence, N: int) -> list:
    """N passes of v[k+1] - v[k]: entry k of the result is the N-fold
    forward difference sum_j C(N,j) (-1)^(N-j) values[k+j]."""
    values = list(values)
    for _ in range(N):
        values = [hi - lo for lo, hi in zip(values, values[1:])]
    return values


def sampled_differences(samples: Sequence[int], count: int, N: int) -> list[int]:
    """Delta^N of a count-term sequence from its first len(samples) <= count
    terms, where the sequence is a polynomial in its index of degree
    < len(samples), or has only those terms.

    Package-internal.  With d = len(samples) - 1, Delta^d of the sequence is
    constant (a single entry when count == len(samples)) and Delta^(d+1)
    vanishes, so Newton's difference table of the samples gives the head of
    every Delta^t, and Delta^t = accumulate(Delta^(t+1), initial=head_t)
    rebuilds Delta^N in d - N running-sum passes down from the constant.
    """
    d = len(samples) - 1
    if N > d:
        return [0] * max(count - N, 0)
    heads = []
    values = samples
    while values:
        heads.append(values[0])
        values = [hi - lo for lo, hi in zip(values, values[1:])]
    diffs = [heads[d]] * (count - d)
    for head in reversed(heads[N:d]):
        diffs = list(accumulate(diffs, initial=head))
    return diffs


def beta_weighted_sum(f: RationalPoly, b: int, axes: Sequence, c, max_cost: int | None = None) -> CycloNum:
    """Closed side of the r-fold identity over ``axes`` = [(N_j, y_j)]:
    (-1)^N sum_k beta_k Delta^N g(k) for the first axis (N, y), with beta
    the order-(N-1) table.

    On the last axis g(n) = f(c + n y); on an earlier one g(n) is this sum
    over the remaining axes at base point c + n y.  Differences on different
    axes commute, so the nesting equals the tensor of every axis'
    differences.  Only f is sampled, never a digit sum.  Denominators are
    cleared once, so the samples, differences and table products are all
    integers and the result is divided once at the end.  The nested sampling
    fans out over at most the kernel's grid, so it is charged that price first.
    """
    charge(walk_size(b, sum(N for N, _ in axes), max_cost), max_cost)
    g, scale, (C, *ys) = clear_denominators(f, c, *(y for _, y in axes))
    buckets = _closed_numerators(g, b, [(N, Y) for (N, _), Y in zip(axes, ys)], C, max_cost)
    return combine_buckets(b, buckets, scale)


def _closed_numerators(g: list[int], b: int, axes: Sequence, C: int, max_cost: int | None) -> list[int]:
    # beta_weighted_sum times its scale, as b integer residue buckets: bucket
    # r holds the coefficient of xi^r.  An entry of the sampled data is the
    # b-vector of the inner sums on an outer axis and a plain integer on the
    # last one (a single column).  Either way entry n is a polynomial in n of
    # degree < len(g), so only the first len(g) entries are computed.  The
    # table is read first, so its charge comes before any sampling.
    (N, Y), rest = axes[0], axes[1:]
    table = beta_columns(b, N - 1, max_cost)
    count = b**N
    sampled = min(len(g), count)
    if rest:
        inner = [_closed_numerators(g, b, rest, C + n * Y, max_cost) for n in range(sampled)]
        columns = [sampled_differences(col, count, N) for col in zip(*inner)]
    else:
        samples = integer_samples(g, [C + n * Y for n in range(sampled)])
        columns = [sampled_differences(samples, count, N)]
    # sum_k beta_k * delta_k: column m of the table against column p of the
    # data lands on xi^(m+p).
    buckets = [0] * b
    for m, weights in enumerate(table):
        for p, deltas in enumerate(columns):
            buckets[(m + p) % b] += sum(map(operator.mul, weights, deltas))
    return [-v for v in buckets] if N % 2 else buckets


def forward_diff_n(f: RationalPoly, x, y, k: int, N: int) -> Fraction:
    """N-fold forward difference in the integer index k of f sampled at
    x + (k+j) y, i.e. sum_j C(N,j) (-1)^(N-j) f(x + (k+j) y).  The samples
    and their differences are taken on f's integer form, divided once."""
    if N < 0:
        raise ValueError(f"order must be >= 0, got {N}")
    g, scale, (X, Y) = clear_denominators(f, x, y)
    samples = integer_samples(g, [X + (k + j) * Y for j in range(N + 1)])
    return Fraction(forward_differences(samples, N)[0], scale)


def lhs_sum(f: RationalPoly, x, y, b: int, N: int, max_cost: int | None = None) -> CycloNum:
    """Digit-weighted sample sum of f over the full block 0 .. b^N - 1:
    sum over n of xi^s(n) f(x + n y).

    ``f`` must be a :class:`RationalPoly`: the sum is taken by the integer
    kernel :func:`digitsum.digits.digit_weighted_sum`, which reads its
    coefficients rather than calling it, and charges its own block.
    """
    check_block(b, N)
    return digit_weighted_sum(f, b, [(N, 0, y)], x, max_cost)


def weighted_rhs(f: RationalPoly, x, y, b: int, N: int, max_cost: int | None = None) -> CycloNum:
    """Beta-weighted sum of N-fold forward differences of f: the closed-form
    side of the identity matching :func:`lhs_sum`.

    ``f`` must be a :class:`RationalPoly`, for the same reason as there: the
    sum is taken in integers from its coefficients.  Each read of the
    order-(N-1) beta table charges that table, which costs more than the block.
    """
    check_block(b, N, 1)
    return beta_weighted_sum(f, b, [(N, rational(y))], rational(x), max_cost)
