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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digitsum
from digitsum import identities
from digitsum.arith import CycloNum, xi_power_table
from digitsum.digits import combine_buckets, digit_sum, digit_weighted_sum
from digitsum.findiff import lhs_sum
from digitsum.identities import (
    FAMILY_OF,
    joint_weight_polynomial,
    mixed_power_sum,
    run_identity,
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


def oracle_multi_lhs(b, N_list, x, y_list, f):
    # Shared by multisum and multi-power-sum: f(x + sum n_j y_j).
    sizes = [b**N for N in N_list]
    sums = [[digit_sum(n, b) for n in range(size)] for size in sizes]
    powers = xi_power_table(b)
    lhs = CycloNum.zero(b)
    for tup in itertools.product(*(range(size) for size in sizes)):
        arg = x + sum(n * yj for n, yj in zip(tup, y_list))
        s = sum(ds[n] for ds, n in zip(sums, tup))
        lhs = lhs + powers[s % b] * f(arg)
    return lhs


def oracle_multi_mixed_lhs(b, N_list, x_list, y_list):
    sizes = [b**N for N in N_list]
    total_N = sum(N_list)
    sums = [[digit_sum(n, b) for n in range(size)] for size in sizes]
    powers = xi_power_table(b)
    lhs = CycloNum.zero(b)
    for tup in itertools.product(*(range(size) for size in sizes)):
        arg = Fraction(0)
        s = 0
        for n, ds, xj, yj in zip(tup, sums, x_list, y_list):
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
    # (b, N_list, x or the x list, y list): up to three axes with at most
    # 400 grid points in all.
    b = draw(bases)
    budget = 400
    N_list = [draw(orders(b, 1, budget))]
    budget //= b ** N_list[0]
    while len(N_list) < 3 and budget >= b and draw(st.booleans()):
        N_list.append(draw(orders(b, 1, budget)))
        budget //= b ** N_list[-1]
    ys = tuple(draw(fractions) for _ in N_list)
    x = tuple(draw(fractions) for _ in N_list) if mixed else draw(fractions)
    return b, tuple(N_list), x, ys


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
    b, N_list, x, ys = config
    power = RationalPoly.monomial(sum(N_list))
    assert verify_multi_power_sum(b, N_list, x, ys).lhs == oracle_multi_lhs(b, N_list, x, ys, power)


@SETTINGS
@given(multi_configs(mixed=False), polys)
def test_multisum_lhs_matches_oracle(config, f):
    b, N_list, x, ys = config
    assert verify_multisum(b, N_list, f, x, ys).lhs == oracle_multi_lhs(*config, f)


@SETTINGS
@given(multi_configs(mixed=True))
def test_multi_mixed_sum_lhs_matches_oracle(config):
    assert verify_multi_mixed_sum(*config).lhs == oracle_multi_mixed_lhs(*config)


@SETTINGS
@given(st.data(), bases, st.integers(1, 3), st.integers(0, 4))
def test_joint_weight_polynomial_matches_oracle(data, b, m, p):
    N = data.draw(orders(b, 1, max_terms=max(b, int(300 ** (1 / m)))))
    xs = [data.draw(fractions) for _ in range(m)]
    assert list(joint_weight_polynomial(N, p, xs, b)) == oracle_joint_coeffs(m, N, p, xs, b)


@given(bases, st.lists(st.integers(-(10**20), 10**20), min_size=7, max_size=7), st.integers(1, 10**9))
def test_combine_buckets_is_the_weighted_sum(b, buckets, den):
    buckets = buckets[:b]
    expected = CycloNum.zero(b)
    for power, v in zip(xi_power_table(b), buckets):
        expected = expected + power * Fraction(v, den)
    assert combine_buckets(b, buckets, den) == expected


# Folds deeper than orders() reaches: the deepest block of at most 1024
# terms in each base, with the large heights throughout.
DEEP_BLOCKS = [(2, 10), (3, 6), (4, 5)]


@settings(max_examples=8, deadline=None)
@given(st.data(), st.sampled_from(DEEP_BLOCKS), large_fractions, large_fractions)
def test_deep_folds_match_oracle(data, block, x, y):
    b, N = block
    f = RationalPoly(data.draw(st.lists(large_fractions, min_size=N + 1, max_size=N + 1)))
    l = data.draw(st.integers(0, N))
    assert digit_weighted_sum(f, b, [(N, x, y)]) == oracle_generalized_pte_lhs(b, N, f, x, y)
    assert mixed_power_sum(b, N, l, x, y) == oracle_mixed_power_sum(b, N, l, x, y)


def test_kernel_edge_cases():
    zero = RationalPoly()
    assert digit_weighted_sum(zero, 3, [(2, 1, 1)]).is_zero()
    # x = y = 0 leaves f(c) times the weight count, which vanishes for N >= 1.
    f = RationalPoly([Fraction(-7, 3), 2, Fraction(1, 10**12)])
    assert digit_weighted_sum(f, 5, [(2, 0, 0)], Fraction(4, 9)).is_zero()
    assert digit_weighted_sum(f, 5, [(0, 0, 0)], Fraction(4, 9)) == f(Fraction(4, 9))
    # Every axis of order 0 leaves the one argument c.
    axes = [(0, Fraction(2, 3), -5), (0, 7, Fraction(-1, 8))]
    assert digit_weighted_sum(f, 3, axes, Fraction(4, 9)) == f(Fraction(4, 9))
    # An order-0 axis adds no digit position, first or last.
    x0, y0, x1, y1 = Fraction(3, 5), Fraction(-2), Fraction(-1, 6), Fraction(9, 4)
    square = RationalPoly.monomial(2)
    for N_list, xs, ys in (((0, 2), (x0, x1), (y0, y1)), ((2, 0), (x1, x0), (y1, y0))):
        axes = list(zip(N_list, xs, ys))
        assert digit_weighted_sum(square, 3, axes) == oracle_multi_mixed_lhs(3, N_list, xs, ys)
    # x = -y makes the units digit's weight x + y zero: equal arguments land
    # in different residues.
    x = Fraction(5, 7)
    assert digit_weighted_sum(f, 4, [(2, x, -x)]) == oracle_generalized_pte_lhs(4, 2, f, x, -x)
    # Three axes fold every digit position of all three in turn.
    b, N_list, x, ys = 3, (1, 1, 2), Fraction(-1, 4), (Fraction(1, 2), Fraction(-3), Fraction(5, 7))
    assert verify_multisum(b, N_list, f, x, ys).lhs == oracle_multi_lhs(b, N_list, x, ys, f)


def test_brute_side_imports_nothing_from_the_closed_side():
    # The brute kernel samples f through poly.integer_samples and ends in
    # arith.combine_buckets, so none of the three modules may reach weight
    # tables, differences, Bernoulli code or the identities.
    closed = {"weights", "findiff", "bernoulli", "identities"}
    package = Path(digitsum.__file__).parent
    for name in ("digits.py", "arith.py", "poly.py"):
        for node in ast.walk(ast.parse((package / name).read_text())):
            if isinstance(node, ast.Import):
                paths = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            for path in paths:
                assert not closed & set(path.split(".")), (name, path)


def test_every_charged_block_size_comes_from_block_size():
    # cost.block_size refuses a block by bit length before it builds b**N, so
    # a charge that builds a power itself may spend seconds before it refuses.
    package = Path(digitsum.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "charge":
                args = node.args + [keyword.value for keyword in node.keywords]
                powers = [n for arg in args for n in ast.walk(arg) if isinstance(n, ast.Pow)]
                assert not powers, (path.name, node.lineno)
            elif isinstance(node, ast.FunctionDef):
                assert node.name != "check_power", (path.name, node.lineno)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                assert all(alias.name.split(".")[-1] != "check_power" for alias in node.names), path.name


# Every name through which identities.py reaches a closed form.
CLOSED_NAMES = (
    "weighted_rhs", "beta_weighted_sum", "beta_columns", "beta_moment0", "beta_moment1",
    "xi", "a_constant", "joint_line_coeffs_base2", "faulhaber_sum", "delta_n_bernoulli",
)
# Checks of the tables themselves: both sides come from the weights module.
TABLE_IDS = {"moment0", "moment1", "alpha-moment0", "alpha-moment1", "beta-alpha-reduction"}
# Ids whose brute side is the report's rhs; every other brute side is its lhs.
BRUTE_RHS = {"betaconv-dual2", "faulhaber", "delta-bernoulli"}
# Ids whose closed side reads none of CLOSED_NAMES: it is zero.
CLOSED_UNREAD = {"mixed-sum-vanishing", "joint-vanishing", "generalized-pte"}


def bumped(value):
    if isinstance(value, (tuple, list)):
        return type(value)(bumped(v) for v in value)
    return value + 1


def default_report(name):
    [report] = run_identity(name)
    return report


@pytest.mark.parametrize("name", sorted(set(FAMILY_OF) - TABLE_IDS))
def test_brute_side_ignores_a_changed_closed_side(monkeypatch, name):
    plain = default_report(name)
    for attr in CLOSED_NAMES:
        original = getattr(identities, attr)
        monkeypatch.setattr(
            identities, attr, lambda *args, original=original, **kwargs: bumped(original(*args, **kwargs))
        )
    changed = default_report(name)
    side = "rhs" if name in BRUTE_RHS else "lhs"
    assert getattr(changed, side) == getattr(plain, side)
    assert plain.equal
    assert changed.equal == (name in CLOSED_UNREAD)
