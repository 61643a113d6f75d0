"""Differential test of the shared N-fold difference routines.

Each oracle below is a closed-side loop as it was written before
:func:`digitsum.findiff.beta_weighted_sum`: the binomial difference loop of
the single-axis identity, and the r-fold tensor of sampled values with one
row of binomial coefficients per axis.  The shared routines must agree with
them exactly.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from digitsum.arith import CycloNum
from digitsum.findiff import beta_weighted_sum, forward_differences, weighted_rhs
from digitsum.identities import verify_multisum
from digitsum.poly import RationalPoly
from digitsum.weights import beta_table

# ---------------------------------------------------------------------------
# Oracles: the binomial loops.


def oracle_weighted_rhs(f, x, y, b, N):
    table = beta_table(b, N - 1)
    x = Fraction(x)
    y = Fraction(y)
    samples = [f(x + k * y) for k in range(b**N)]
    diff_coeffs = [math.comb(N, j) * (-1) ** (N - j) for j in range(N + 1)]
    total = CycloNum.zero(b)
    for k, w in enumerate(table):
        delta = sum(c * samples[k + j] for j, c in enumerate(diff_coeffs))
        total = total + w * delta
    return -total if N % 2 else total


def oracle_multisum_rhs(b, N_list, y_list, x, f):
    sizes = [b**N for N in N_list]
    kranges = [size - N for size, N in zip(sizes, N_list)]
    values = {
        tup: f(x + sum(n * yj for n, yj in zip(tup, y_list)))
        for tup in itertools.product(*(range(size) for size in sizes))
    }
    tables = [beta_table(b, N - 1) for N in N_list]
    diff_coeffs = [[math.comb(N, t) * (-1) ** (N - t) for t in range(N + 1)] for N in N_list]
    rhs = CycloNum.zero(b)
    for ktup in itertools.product(*(range(kr) for kr in kranges)):
        weight = tables[0][ktup[0]]
        for j in range(1, len(N_list)):
            weight = weight * tables[j][ktup[j]]
        inner_total = Fraction(0)
        for ttup in itertools.product(*(range(N + 1) for N in N_list)):
            c = 1
            for j, t in enumerate(ttup):
                c *= diff_coeffs[j][t]
            inner_total += c * values[tuple(k + t for k, t in zip(ktup, ttup))]
        rhs = rhs + weight * inner_total
    return -rhs if sum(N_list) % 2 else rhs


# ---------------------------------------------------------------------------
# Inputs: zero, negatives, small and large heights.

small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
large_fractions = st.builds(Fraction, st.integers(-(10**15), 10**15), st.integers(1, 10**15))
fractions = st.one_of(st.just(Fraction(0)), small_fractions, large_fractions)
nonzero = st.one_of(small_fractions, large_fractions).filter(bool)


@st.composite
def cases(draw, max_points=300, max_order=5):
    """A base in 2..4, 1 to 3 axes (N_j, y_j) with at most max_points grid
    points and total order at most max_order, and f of degree -1 (the zero
    polynomial) to 5.

    Both sides vanish once some y_j is 0 or deg f is below the total order,
    so those cases are drawn, but less often than the others.  Hypothesis
    favours small integers, so a large draw selects the axis with y = 0.
    """
    b = draw(st.integers(2, 4))
    r = draw(st.integers(1, 3))
    zero_axis = 3 * r - draw(st.integers(0, 3 * r))
    axes = []
    budget = max_points
    orders_left = max_order
    for left in range(r - 1, -1, -1):
        # Leave at least order 1 and b points for each axis still to draw.
        top = max(N for N in range(1, orders_left - left + 1) if b ** (N + left) <= budget)
        N = draw(st.integers(1, top))
        budget //= b**N
        orders_left -= N
        axes.append((N, Fraction(0) if len(axes) == zero_axis else draw(nonzero)))
    total = max_order - orders_left
    degree = draw(st.integers(total if draw(st.integers(0, 3)) else -1, 5))
    if degree < 0:
        return b, axes, RationalPoly()
    coeffs = draw(st.lists(fractions, min_size=degree, max_size=degree)) + [draw(nonzero)]
    return b, axes, RationalPoly(coeffs)


SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(cases(), fractions)
def test_beta_weighted_sum_matches_tensor_loop(case, x):
    b, axes, f = case
    N_list = tuple(N for N, _ in axes)
    y_list = tuple(y for _, y in axes)
    expected = oracle_multisum_rhs(b, N_list, y_list, x, f)
    assert beta_weighted_sum(f, b, axes, x) == expected
    assert verify_multisum(b, N_list, f, x, y_list).rhs == expected


@SETTINGS
@given(cases(), fractions)
def test_weighted_rhs_matches_binomial_loop(case, x):
    b, axes, f = case
    N, y = axes[0]
    expected = oracle_weighted_rhs(f, x, y, b, N)
    assert beta_weighted_sum(f, b, [(N, y)], x) == expected
    assert weighted_rhs(f, x, y, b, N) == expected


@given(st.lists(fractions, min_size=1, max_size=8))
def test_forward_differences_is_the_binomial_sum(values):
    for N in range(len(values)):
        expected = [
            sum(math.comb(N, j) * (-1) ** (N - j) * values[k + j] for j in range(N + 1))
            for k in range(len(values) - N)
        ]
        assert forward_differences(values, N) == expected
