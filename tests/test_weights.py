"""Weight tables: generating products, moments, and convolution duals."""

import itertools
from fractions import Fraction

import pytest

from digitsum.arith import CycloNum, xi, xi_power_table
from digitsum.digits import digit_sums
from digitsum.findiff import forward_differences
from digitsum.weights import (
    WeightTable,
    alpha_moment0,
    alpha_moment1,
    alpha_table,
    beta_from_convolution,
    beta_moment0,
    beta_moment1,
    beta_table,
    xi_from_convolution,
)


def lattice_alpha(N):
    """Oracle: count tuples with k_i in [0, 2^i - 1] summing to each k."""
    top = 2 ** (N + 1) - N - 2
    counts = [0] * (top + 1)
    for tup in itertools.product(*(range(2**i) for i in range(1, N + 1))):
        counts[sum(tup)] += 1
    return counts


class TestAlphaTable:
    def test_frozen_rows(self):
        assert alpha_table(0).values == (1,)
        assert alpha_table(1).values == (1, 1)
        assert alpha_table(2).values == (1, 2, 2, 2, 1)
        assert alpha_table(3).values == (1, 3, 5, 7, 8, 8, 8, 8, 7, 5, 3, 1)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_lattice_point_count_oracle(self, N):
        assert list(alpha_table(N).values) == lattice_alpha(N)

    @pytest.mark.parametrize("N", range(7))
    def test_length(self, N):
        assert len(alpha_table(N)) == 2 ** (N + 1) - N - 1

    def test_entries_are_nonnegative_ints(self):
        assert all(isinstance(v, int) and v >= 0 for v in alpha_table(4).values)


class TestBetaTable:
    def test_base_three_order_one_hand_expansion(self):
        root = xi(3)
        one = CycloNum.one(3)
        expected = (
            one,
            one * 2 + root,
            one * 2 + root,
            (one + root) * 2,
            one + root * 2,
            one + root * 2,
            root,
        )
        assert beta_table(3, 1).values == expected

    @pytest.mark.parametrize("b,N", [(2, 3), (3, 2), (4, 1), (5, 1), (6, 1)])
    def test_degree(self, b, N):
        assert len(beta_table(b, N)) == b ** (N + 1) - N - 1
        assert not beta_table(b, N).values[-1].is_zero()

    @pytest.mark.parametrize("N", range(6))
    def test_base_two_collapses_to_alpha(self, N):
        beta = beta_table(2, N).values
        alpha = alpha_table(N).values
        assert len(beta) == len(alpha)
        assert all(bv == av for bv, av in zip(beta, alpha))

    @pytest.mark.parametrize("b", [2, 3, 4])
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_difference_product_recovers_digit_weights(self, b, N):
        # (1 - z)^N times the order-(N-1) table equals the digit-weight
        # series sum_{n < b^N} xi^s(n) z^n, coefficient by coefficient.  The
        # coefficient of z^n on the left is the N-fold forward difference at
        # n of the table shifted right by N, so padding N zeros on each side
        # yields all b^N coefficients of the product, the table's last
        # entries included.
        pad = [CycloNum.zero(b)] * N
        product = forward_differences(pad + list(beta_table(b, N - 1).values) + pad, N)
        powers = xi_power_table(b)
        assert product == [powers[s % b] for s in digit_sums(b, b**N)]


class TestMoments:
    @pytest.mark.parametrize("b", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_closed_forms_match_table_sums(self, b, N):
        table = beta_table(b, N - 1)
        assert table.moment(0) == beta_moment0(b, N)
        assert table.moment(1) == beta_moment1(b, N)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_alpha_moments(self, N):
        table = alpha_table(N - 1)
        assert table.moment(0) == alpha_moment0(N)
        assert Fraction(table.moment(1)) == alpha_moment1(N)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_alpha_moments_are_base_two_beta_moments(self, N):
        assert beta_moment0(2, N) == alpha_moment0(N)
        assert beta_moment1(2, N) == alpha_moment1(N)

    def test_moment_formulas_reject_zero_order(self):
        with pytest.raises(ValueError):
            beta_moment0(3, 0)
        with pytest.raises(ValueError):
            alpha_moment1(0)


class TestConvolutionDuals:
    def test_single_term(self):
        assert beta_from_convolution(3, 2)[0] == 1
        assert xi_from_convolution(3, 2, 0) == 1

    def test_base_two_order_two_entry(self):
        # C(4,2) - C(3,2) - C(2,2) = 2, matching the alpha entry.
        assert beta_from_convolution(2, 2)[2] == 2
        assert alpha_table(2).values[2] == 2

    @pytest.mark.parametrize("b", [2, 3, 4])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_prefix_agreement(self, b, N):
        prefix = beta_from_convolution(b, N)
        table = beta_table(b, N).values
        assert len(prefix) == b**N
        assert all(p == t for p, t in zip(prefix, table))

    @pytest.mark.parametrize("b", [2, 3, 4])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_digit_weight_recovery(self, b, N):
        powers = xi_power_table(b)
        sums = digit_sums(b, b**N)
        for n in range(b**N):
            assert xi_from_convolution(b, N, n) == powers[sums[n] % b]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            xi_from_convolution(2, 2, 4)


class TestWeightTableType:
    def test_alpha_requires_base_two(self):
        with pytest.raises(ValueError):
            WeightTable(b=3, N=1, kind="alpha", values=(1, 1))

    def test_length_checked(self):
        with pytest.raises(ValueError):
            WeightTable(b=2, N=2, kind="alpha", values=(1, 2, 2, 2))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            WeightTable(b=2, N=1, kind="gamma", values=(1, 1))
