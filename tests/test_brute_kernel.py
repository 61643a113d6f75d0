"""Differential test of the integer residue-bucket kernel.

Each oracle below is the per-term loop the brute-force sums were written
as before the kernel: one CycloNum add and one CycloNum scale per summand,
over Fractions.  The kernel-backed functions must agree with them exactly.
"""

import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import digitsum
from digitsum.arith import CycloNum, xi_power_table
from digitsum.digits import combine_buckets, digit_sum, digit_weighted_sum
from digitsum.findiff import lhs_sum
from digitsum.identities import (
    MultiIndexConfig,
    joint_weight_polynomial,
    mixed_power_sum,
    verify_generalized_pte,
    verify_multi_mixed_sum,
    verify_multi_power_sum,
    verify_multisum,
)
from digitsum.poly import RationalPoly

# ---------------------------------------------------------------------------
# Oracles: the per-term CycloNum loops.


def oracle_lhs_sum(f, x, y, b, N):
    powers = xi_power_table(b)
    x = Fraction(x)
    y = Fraction(y)
    total = CycloNum.zero(b)
    for n in range(b**N):
        s = digit_sum(n, b)
        total = total + powers[s % b] * f(x + n * y)
    return total


def oracle_mixed_power_sum(b, N, l, x, y):
    x = Fraction(x)
    y = Fraction(y)
    powers = xi_power_table(b)
    total = CycloNum.zero(b)
    for n in range(b**N):
        s = digit_sum(n, b)
        total = total + powers[s % b] * (s * x + n * y) ** l
    return total


def oracle_generalized_pte_lhs(b, N, f, x, y):
    x = Fraction(x)
    y = Fraction(y)
    powers = xi_power_table(b)
    lhs = CycloNum.zero(b)
    for n in range(b**N):
        s = digit_sum(n, b)
        lhs = lhs + powers[s % b] * f(s * x + n * y)
    return lhs


def oracle_multi_lhs(config, f):
    # Shared by multisum and multi-power-sum: f(x + sum n_j y_j).
    b = config.b
    sizes = [b**N for N in config.N_list]
    sums = [[digit_sum(n, b) for n in range(size)] for size in sizes]
    powers = xi_power_table(b)
    lhs = CycloNum.zero(b)
    for tup in itertools.product(*(range(size) for size in sizes)):
        arg = config.x + sum(n * yj for n, yj in zip(tup, config.y_list))
        s = sum(ds[n] for ds, n in zip(sums, tup))
        lhs = lhs + powers[s % b] * f(arg)
    return lhs


def oracle_multi_mixed_lhs(config):
    b = config.b
    sizes = [b**N for N in config.N_list]
    total_N = sum(config.N_list)
    sums = [[digit_sum(n, b) for n in range(size)] for size in sizes]
    powers = xi_power_table(b)
    lhs = CycloNum.zero(b)
    for tup in itertools.product(*(range(size) for size in sizes)):
        arg = Fraction(0)
        s = 0
        for n, ds, xj, yj in zip(tup, sums, config.x_list, config.y_list):
            arg += ds[n] * xj + n * yj
            s += ds[n]
        lhs = lhs + powers[s % b] * arg**total_N
    return lhs


def oracle_joint_coeffs(m, N, p, x_list, b):
    xs = [Fraction(v) for v in x_list]
    size = b**N
    sums = [digit_sum(n, b) for n in range(m * (size - 1) + 1)]
    powers = xi_power_table(b)
    binom = [math.comb(p, q) for q in range(p + 1)]
    coeffs = [CycloNum.zero(b) for _ in range(p + 1)]
    for tup in itertools.product(range(size), repeat=m):
        base = sum(i * xv for i, xv in zip(tup, xs))
        w = powers[sums[sum(tup)] % b]
        base_powers = [Fraction(1)]
        for _ in range(p):
            base_powers.append(base_powers[-1] * base)
        for q in range(p + 1):
            coeffs[q] = coeffs[q] + w * (binom[q] * base_powers[p - q])
    return coeffs


# ---------------------------------------------------------------------------
# Inputs: small and large heights, zero, negatives.

small_fractions = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 9)
)
large_fractions = st.builds(
    Fraction, st.integers(-(10**15), 10**15), st.integers(1, 10**15)
)
fractions = st.one_of(st.just(Fraction(0)), small_fractions, large_fractions)
polys = st.lists(fractions, max_size=5).map(RationalPoly)  # includes the zero polynomial
bases = st.integers(2, 7)


@st.composite
def orders(draw, b, low=0, max_terms=343):
    """Orders N in low..3 with b^N at most max_terms."""
    top = max(N for N in range(low, 4) if b**N <= max_terms)
    return draw(st.integers(low, top))


@st.composite
def multi_configs(draw, mixed):
    # Up to three axes with at most 400 grid points in all.
    b = draw(bases)
    budget = 400
    N_list = [draw(orders(b, 1, budget))]
    budget //= b ** N_list[0]
    while len(N_list) < 3 and budget >= b and draw(st.booleans()):
        N_list.append(draw(orders(b, 1, budget)))
        budget //= b ** N_list[-1]
    ys = tuple(draw(fractions) for _ in N_list)
    if mixed:
        xs = tuple(draw(fractions) for _ in N_list)
        return MultiIndexConfig(b=b, N_list=tuple(N_list), y_list=ys, x_list=xs)
    return MultiIndexConfig(b=b, N_list=tuple(N_list), y_list=ys, x=draw(fractions))


SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(st.data(), bases, polys, fractions, fractions)
def test_lhs_sum_matches_oracle(data, b, f, x, y):
    N = data.draw(orders(b))
    assert lhs_sum(f, x, y, b, N) == oracle_lhs_sum(f, x, y, b, N)


@SETTINGS
@given(st.data(), bases, st.integers(0, 5), fractions, fractions)
def test_mixed_power_sum_matches_oracle(data, b, l, x, y):
    N = data.draw(orders(b))
    assert mixed_power_sum(b, N, l, x, y) == oracle_mixed_power_sum(b, N, l, x, y)


@SETTINGS
@given(st.data(), bases, fractions, fractions)
def test_generalized_pte_lhs_matches_oracle(data, b, x, y):
    N = data.draw(orders(b, 1))
    f = RationalPoly(data.draw(st.lists(fractions, max_size=N)))
    report = verify_generalized_pte(b, N, f, x, y)
    assert report.lhs == oracle_generalized_pte_lhs(b, N, f, x, y)


@SETTINGS
@given(multi_configs(mixed=False))
def test_multi_power_sum_lhs_matches_oracle(config):
    power = RationalPoly.monomial(sum(config.N_list))
    assert verify_multi_power_sum(config).lhs == oracle_multi_lhs(config, power)


@SETTINGS
@given(multi_configs(mixed=False), polys)
def test_multisum_lhs_matches_oracle(config, f):
    assert verify_multisum(config, f).lhs == oracle_multi_lhs(config, f)


@SETTINGS
@given(multi_configs(mixed=True))
def test_multi_mixed_sum_lhs_matches_oracle(config):
    assert verify_multi_mixed_sum(config).lhs == oracle_multi_mixed_lhs(config)


@SETTINGS
@given(st.data(), bases, st.integers(1, 3), st.integers(0, 4))
def test_joint_weight_polynomial_matches_oracle(data, b, m, p):
    N = data.draw(orders(b, 1, max_terms=max(b, int(300 ** (1 / m)))))
    xs = [data.draw(fractions) for _ in range(m)]
    assert list(joint_weight_polynomial(m, N, p, xs, b)) == oracle_joint_coeffs(m, N, p, xs, b)


@given(bases, st.lists(st.integers(-(10**20), 10**20), min_size=7, max_size=7), st.integers(1, 10**9))
def test_combine_buckets_is_the_weighted_sum(b, buckets, den):
    buckets = buckets[:b]
    expected = CycloNum.zero(b)
    for power, v in zip(xi_power_table(b), buckets):
        expected = expected + power * Fraction(v, den)
    assert combine_buckets(b, buckets, den) == expected


def test_kernel_edge_cases():
    zero = RationalPoly()
    assert digit_weighted_sum(zero, 3, [(2, 1, 1)]).is_zero()
    # x = y = 0 leaves f(c) times the weight count, which vanishes for N >= 1.
    f = RationalPoly([Fraction(-7, 3), 2, Fraction(1, 10**12)])
    assert digit_weighted_sum(f, 5, [(2, 0, 0)], Fraction(4, 9)).is_zero()
    assert digit_weighted_sum(f, 5, [(0, 0, 0)], Fraction(4, 9)) == f(Fraction(4, 9))
    # Three axes fold two of them before streaming the last.
    config = MultiIndexConfig(
        b=3, N_list=(1, 1, 2), y_list=(Fraction(1, 2), Fraction(-3), Fraction(5, 7)), x=Fraction(-1, 4)
    )
    assert verify_multisum(config, f).lhs == oracle_multi_lhs(config, f)


def test_brute_side_imports_nothing_from_the_closed_side():
    # The brute kernel ends in arith.combine_buckets, so neither module may
    # reach weight tables, differences, Bernoulli code or the identities.
    closed = {"weights", "findiff", "bernoulli", "identities"}
    package = Path(digitsum.__file__).parent
    for name in ("digits.py", "arith.py"):
        for node in ast.walk(ast.parse((package / name).read_text())):
            if isinstance(node, ast.Import):
                paths = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            for path in paths:
                assert not closed & set(path.split(".")), (name, path)
