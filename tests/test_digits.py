"""Digit sums, residue classes, and the digit-sum table."""

import itertools
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digitsum.digits import (
    combine_buckets,
    digit_sums,
    digit_weighted_sum,
    power_rows,
    residue_lists,
)
from digitsum.arith import xi
from digitsum.poly import RationalPoly
from oracles import digit_sum


class TestDigitSum:
    # Entries of the digit-sum table, read one at a time.
    def test_examples(self):
        assert digit_sums(2, 8)[7] == 3
        assert digit_sums(7, 1)[0] == 0
        assert digit_sums(3, 9)[8] == 4
        assert digit_sums(16, 256)[255] == 30

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            digit_sums(1, 4)
        with pytest.raises(ValueError):
            digit_sums(0, 4)

    @pytest.mark.parametrize("b,N", [(2, 4), (3, 3), (5, 2)])
    def test_leading_digit_recurrence(self, b, N):
        # Prepending digit k to a length-(N-1) string adds k to the digit sum.
        table = digit_sums(b, b**N)
        for n in range(b ** (N - 1)):
            for k in range(b):
                assert table[n + k * b ** (N - 1)] == table[n] + k

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(min_value=0, max_value=5000), b=st.integers(2, 16))
    def test_matches_digit_expansion(self, n, b):
        total, m = 0, n
        while m:
            total += m % b
            m //= b
        assert digit_sums(b, n + 1)[n] == total

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(min_value=0, max_value=5000), b=st.integers(2, 16))
    def test_upper_bound(self, n, b):
        # At most (b-1) per digit position.
        positions = 0
        m = n
        while m:
            positions += 1
            m //= b
        assert digit_sums(b, n + 1)[n] <= (b - 1) * positions


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


class TestResidueLists:
    def test_large_base_first_position_is_b_singletons(self):
        # The first digit position moves C to list d alone, so order 1 at a
        # large base costs its b values, not b^2 (list, shift) pairs.
        start = time.perf_counter()
        lists = residue_lists(1000, [(1, 0, 3)], 7)
        assert time.perf_counter() - start < 0.05
        assert lists == [[7 + r * 3] for r in range(1000)]

    @pytest.mark.parametrize("b,axes", [
        (2, [(3, 1, 2)]),
        (3, [(2, -1, 4)]),
        (5, [(1, 2, 3)]),
        (4, [(0, 1, 1)]),
        (2, [(2, -11, 7), (2, 9, -4)]),
        (3, [(1, 1, 1), (0, 5, 5), (2, 0, -2)]),
    ])
    def test_matches_direct_enumeration(self, b, axes):
        expected = [[] for _ in range(b)]
        for ns in itertools.product(*(range(b**N) for N, _, _ in axes)):
            total = sum(digit_sum(n, b) for n in ns)
            value = 5 + sum(digit_sum(n, b) * X + n * Y for n, (_, X, Y) in zip(ns, axes))
            expected[total % b].append(value)
        lists = residue_lists(b, axes, 5)
        assert [sorted(values) for values in lists] == [sorted(values) for values in expected]


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


class TestPowerRows:
    # The per-class power sums behind the PTE certificates and the joint
    # weight polynomial: row k of a class is sum m A^k over its values A of
    # multiplicity m.
    @settings(max_examples=100, deadline=None)
    @given(
        classes=st.lists(
            st.dictionaries(st.integers(-10**6, 10**6), st.integers(0, 5), max_size=8), max_size=4
        ),
        degree=st.integers(0, 6),
    )
    @example(classes=[{}, {-3: 2, 0: 1}], degree=0)
    @example(classes=[{}, {}], degree=3)
    def test_matches_term_by_term_sums(self, classes, degree):
        expected = [
            [sum(m * A**k for A, m in counter.items()) for k in range(degree + 1)] for counter in classes
        ]
        assert power_rows(iter(classes), degree) == expected
