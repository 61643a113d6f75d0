"""Differential test of the integer residue-bucket kernel.

Each oracle below is the per-term loop the brute-force sums were written
as before the kernel: one CycloNum add and one CycloNum scale per summand,
over Fractions.  The kernel-backed functions must agree with them exactly.
"""

import ast
import inspect
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digitsum
from digitsum import digits, findiff, identities, weights
from digitsum.arith import CycloNum, xi_power_table
from digitsum.digits import combine_buckets, digit_weighted_sum
from digitsum.findiff import lhs_sum
from digitsum.identities import (
    FAMILY_OF,
    joint_weight_polynomial,
    mixed_power_sum,
    run_identity,
    verify_difference_identity,
    verify_generalized_pte,
    verify_mixed_closed_form,
    verify_multi_mixed_sum,
    verify_multi_power_sum,
    verify_multisum,
)
from digitsum.poly import RationalPoly
from oracles import digit_sum

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
nonzero_fractions = st.one_of(small_fractions, large_fractions).filter(bool)
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


def oracle_kernel(f, b, axes, c):
    # The kernel's own sum, term by term over the grid: Fraction buckets by
    # digit-sum residue, weighted by the power table once at the end.
    sizes = [b**N for N, _, _ in axes]
    sums = [[digit_sum(n, b) for n in range(size)] for size in sizes]
    buckets = [Fraction(0)] * b
    for tup in itertools.product(*(range(size) for size in sizes)):
        arg = Fraction(c)
        s = 0
        for n, ds, (_, x, y) in zip(tup, sums, axes):
            arg += ds[n] * x + n * y
            s += ds[n]
        buckets[s % b] += f(arg)
    total = CycloNum.zero(b)
    for power, bucket in zip(xi_power_table(b), buckets):
        total = total + power * bucket
    return total


def streamed_blocks():
    """(b, N_list) in bases 2, 3 and 5 at the largest block summed whole and
    one or two digit positions above it, and at b = 11 three positions past
    LOW_BLOCK: odd and even totals, a low half that ends inside an axis or
    where one ends, and order-0 axes first, between and last."""
    return [
        (2, [10]), (2, [11]), (2, [12]), (2, [5, 6]), (2, [6, 6]), (2, [0, 4, 1, 6]), (2, [3, 3, 0, 5]),
        (3, [6]), (3, [7]), (3, [2, 5]), (3, [4, 3, 0]),
        (5, [4]), (5, [5]), (5, [2, 3]), (5, [3, 0, 2]),
        (11, [3]), (11, [1, 2]), (11, [0, 2, 1]),
    ]


@pytest.mark.parametrize("b,N_list", streamed_blocks())
@pytest.mark.parametrize("kind", ["general", "monomial", "zero", "x=-y"])
@settings(max_examples=1, deadline=None)
@given(st.data(), small_fractions)
def test_streamed_kernel_matches_oracle(b, N_list, kind, data, c):
    # Blocks past LOW_BLOCK join the power sums of a low and a high half of
    # their digit positions; blocks within it are summed whole.  Below degree
    # sum(N_list) the sum vanishes whatever the halves add, so f's degree is
    # at least that, and no x or y is zero but where x = -y on every axis.
    ys = [data.draw(nonzero_fractions) for _ in N_list]
    xs = [-y for y in ys] if kind == "x=-y" else [data.draw(nonzero_fractions) for _ in N_list]
    axes = list(zip(N_list, xs, ys))
    degree = sum(N_list) + data.draw(st.integers(0, 1))
    if kind == "zero":
        f = RationalPoly()
    elif kind == "monomial":
        f = RationalPoly.monomial(degree, data.draw(nonzero_fractions))
    else:
        f = RationalPoly(data.draw(st.lists(fractions, min_size=degree + 1, max_size=degree + 1)))
    assert digit_weighted_sum(f, b, axes, c) == oracle_kernel(f, b, axes, c)


def test_whole_blocks_never_reach_the_power_sums(monkeypatch):
    # A block of two digit positions stays whole at any base: split, b = 1000
    # joins 10^6 pairs of one-value lists, and power-sum-n there ran about
    # twice as long as whole.  A block of at most LOW_BLOCK values stays whole
    # at any order.
    def refuse(counters, degree):
        raise AssertionError("a whole block reached power_rows")

    monkeypatch.setattr(digits, "power_rows", refuse)
    # Below degree sum(N_list) every such sum vanishes.
    x, y = Fraction(-7, 3), Fraction(5, 2)
    for b, N_list in ((1000, [2]), (1000, [1, 1]), (33, [2]), (33, [0, 1, 1])):
        assert b ** sum(N_list) > digits.LOW_BLOCK
        f = RationalPoly.monomial(sum(N_list) - 1)
        assert digit_weighted_sum(f, b, [(N, x, y) for N in N_list]).is_zero()
    for b, N_list in ((2, [10]), (2, [4, 0, 6]), (3, [6]), (4, [5]), (5, [4]), (32, [2]), (1024, [1])):
        assert b ** sum(N_list) <= digits.LOW_BLOCK
        f = RationalPoly(range(1, sum(N_list) + 1))
        assert digit_weighted_sum(f, b, [(N, x, y) for N in N_list]).is_zero()


def test_streamed_kernel_peak_memory():
    # 2^16 summands streamed past a 2^10-value low block trace well under
    # 0.1 MB here; the whole residue lists of 2^16 values traced 4 MB.  The
    # two-axis grid holds the low block to 2^10 values across the axes, not
    # per axis.
    script = (
        "import tracemalloc\nfrom fractions import Fraction\n"
        "from digitsum.digits import digit_weighted_sum\n"
        "from digitsum.identities import mixed_power_sum\n"
        "from digitsum.poly import RationalPoly\n"
        "x, y = Fraction(-7, 3), Fraction(10**12 + 1, 9)\ntracemalloc.start()\n"
        "mixed_power_sum(2, 16, 2, x, y, max_cost=2**24)\n"
        "digit_weighted_sum(RationalPoly.monomial(16), 2, [(8, x, y), (8, y, x)], 0, 2**24)\n"
        "print(tracemalloc.get_traced_memory()[1])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(digitsum.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 1e6


def test_split_kernel_feeds_two_half_blocks_to_the_power_sums(monkeypatch):
    # mixed_power_sum(2, 24, 23, x, y) vanishes, as 23 < 24; its 2^24
    # arguments reach the power sums as two halves of 2^12 values.
    fed = []
    power_rows = digits.power_rows

    def counted(counters, degree):
        counters = list(counters)
        fed.append(sum(sum(counter.values()) for counter in counters))
        return power_rows(counters, degree)

    monkeypatch.setattr(digits, "power_rows", counted)
    x, y = Fraction(-7, 3), Fraction(10**12 + 1, 9)
    assert mixed_power_sum(2, 24, 23, x, y, max_cost=2**26).is_zero()
    assert 0 < sum(fed) <= 2 * 2**12, fed


def split_reports():
    """Reports whose brute side the kernel splits; the seed-42 suite sums
    every block whole, so its digest cannot see the split."""
    x, y = Fraction(-7, 3), Fraction(5, 11)
    f = RationalPoly([1, Fraction(-2, 5), 3, 0, 7, Fraction(1, 9), -4])
    return [
        verify_generalized_pte(2, 12, RationalPoly(range(1, 12)), x, y),
        verify_generalized_pte(5, 5, RationalPoly([Fraction(1, 3), -2, 0, 5, 7]), x, y),
        verify_mixed_closed_form(3, 8, x, y),
        verify_difference_identity(7, 4, f, x, y),
        verify_multi_mixed_sum(2, [6, 6], [x, y], [y, -x]),
    ]


def test_split_reports_catch_kernel_mutants(monkeypatch):
    assert all(report.equal for report in split_reports())
    # Power sums one power up turn every report unequal.
    power_rows = digits.power_rows
    monkeypatch.setattr(
        digits, "power_rows", lambda counters, degree: [row[1:] for row in power_rows(counters, degree + 1)]
    )
    assert not any(report.equal for report in split_reports())
    monkeypatch.undo()
    # The term g_i C(i, j) P_r[j] Q_s[i - j] adds nothing unless j and i - j
    # reach the low and the high half's positions, as sum_r xi^r P_r[j] and
    # sum_s xi^s Q_s[m] vanish below them.  So a wrong binomial shows only in
    # a degree >= N term: never at i - j = 1, and never in generalized-pte,
    # whose f has degree < N.
    monkeypatch.setattr(digits, "comb", lambda n, k: math.comb(n, k) + (0 < k < n))
    assert [report.equal for report in split_reports()] == [True, True, False, False, False]


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


def test_every_kernel_call_and_table_read_passes_its_callers_cap():
    # The kernel, the closed side and each table read charge themselves, so a
    # call that drops the cap is priced against the default cap, not its caller's.
    slots = {
        fn.__name__: list(inspect.signature(fn).parameters).index("max_cost")
        for fn in (
            digits.digit_weighted_sum, findiff.beta_weighted_sum, findiff._closed_numerators,
            weights.beta_columns, weights.alpha_table,
        )
    }
    calls = dict.fromkeys(slots, 0)
    package = Path(digitsum.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
            if name in slots:
                caps = [keyword.value for keyword in node.keywords if keyword.arg == "max_cost"]
                caps += node.args[slots[name] : slots[name] + 1]
                assert [getattr(cap, "id", None) for cap in caps] == ["max_cost"], (path.name, node.lineno)
                calls[name] += 1
    # The recurrence's l + 1 kernel calls are two of them.
    assert calls["digit_weighted_sum"] >= 6 and all(calls.values()), calls


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
