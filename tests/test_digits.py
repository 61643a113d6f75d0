"""Digit sums, residue classes, and the digit-sum table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsum.digits import (
    combine_buckets,
    digit_sum,
    digit_sums,
    digit_weighted_sum,
)
from digitsum.arith import xi
from digitsum.poly import RationalPoly


class TestDigitSum:
    def test_examples(self):
        assert digit_sum(7, 2) == 3
        assert digit_sum(0, 7) == 0
        assert digit_sum(8, 3) == 4
        assert digit_sum(255, 16) == 30

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            digit_sum(3, 1)
        with pytest.raises(ValueError):
            digit_sum(-1, 2)

    @pytest.mark.parametrize("b,N", [(2, 4), (3, 3), (5, 2)])
    def test_leading_digit_recurrence(self, b, N):
        # Prepending digit k to a length-(N-1) string adds k to the digit sum.
        for n in range(b ** (N - 1)):
            for k in range(b):
                assert digit_sum(n + k * b ** (N - 1), b) == digit_sum(n, b) + k

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(min_value=0, max_value=10**12), b=st.integers(2, 16))
    def test_matches_digit_expansion(self, n, b):
        total, m = 0, n
        while m:
            total += m % b
            m //= b
        assert digit_sum(n, b) == total

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(min_value=0, max_value=10**12), b=st.integers(2, 16))
    def test_upper_bound(self, n, b):
        # At most (b-1) per digit position.
        positions = 0
        m = n
        while m:
            positions += 1
            m //= b
        assert digit_sum(n, b) <= (b - 1) * positions


class TestStreamingTable:
    @pytest.mark.parametrize("b", [2, 3, 7])
    def test_matches_pointwise(self, b):
        table = digit_sums(b, 500)
        assert table == [digit_sum(n, b) for n in range(500)]

    @settings(max_examples=100, deadline=None)
    @given(b=st.integers(2, 16), limit=st.integers(0, 3000))
    def test_recurrence_matches_pointwise(self, b, limit):
        # Every drawn base also checks the block edges, where the recurrence carries.
        reference = [digit_sum(n, b) for n in range(3001)]
        edges = {0, 1, b - 1, b} | {e for k in range(2, 12) for e in (b**k, b**k + 1) if e <= 3000}
        for size in edges | {limit}:
            assert digit_sums(b, size) == reference[:size]


class TestClasses:
    # The digit-sum residue class mod b: the partition classes and the
    # kernel's buckets.
    def test_thue_morse_prefix(self):
        assert [digit_sum(n, 2) % 2 for n in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_base_three(self):
        assert digit_sum(8, 3) % 3 == 1  # digits 22, sum 4

    def test_block_shift_flips_base_two_class(self):
        for N in (2, 3, 4):
            for n in range(2**N):
                assert digit_sum(n + 2**N, 2) % 2 == 1 - digit_sum(n, 2) % 2


class TestXiDigitWeight:
    # The weight xi^s(n) as the brute-force kernel forms it: a one-hot
    # residue bucket combined into Q(xi).
    @staticmethod
    def weight(n, b):
        buckets = [0] * b
        buckets[digit_sum(n, b) % b] = 1
        return combine_buckets(b, buckets)

    @pytest.mark.parametrize("b,N", [(2, 5), (3, 3), (4, 2)])
    def test_weight_sum_vanishes_over_block(self, b, N):
        assert digit_weighted_sum(RationalPoly([1]), b, [(N, 0, 0)]).is_zero()

    def test_matches_xi_power(self):
        for b in (2, 3, 5):
            for n in range(40):
                assert self.weight(n, b) == xi(b) ** digit_sum(n, b)
