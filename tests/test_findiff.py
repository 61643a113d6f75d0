"""Forward differences and the two sides of the weighted identity."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digitsum.cost import CostCapExceeded
from digitsum.findiff import (
    forward_diff_n,
    forward_differences,
    lhs_sum,
    sampled_differences,
    weighted_rhs,
)
from digitsum.identities import random_fraction, random_poly
from digitsum.poly import RationalPoly, clear_denominators, integer_samples


class TestForwardDiff:
    def test_order_zero_is_identity(self):
        f = RationalPoly([1, 2, 3])
        assert forward_diff_n(f, Fraction(1, 2), 2, 5, 0) == f(Fraction(1, 2) + 10)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_monomial_of_matching_degree(self, N):
        # The N-th difference of u^N on a step-y grid is N! y^N, for any k.
        rng = random.Random(N)
        f = RationalPoly.monomial(N)
        for _ in range(5):
            x, y = random_fraction(rng), random_fraction(rng)
            k = rng.randint(-4, 4)
            assert forward_diff_n(f, x, y, k, N) == math.factorial(N) * y**N

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_monomial_one_degree_up(self, N):
        # Degree N+1 leaves a linear remainder: (N+1)! y^N (x + N y/2 + k y).
        rng = random.Random(N + 100)
        f = RationalPoly.monomial(N + 1)
        for _ in range(5):
            x, y = random_fraction(rng), random_fraction(rng)
            k = rng.randint(-4, 4)
            expected = math.factorial(N + 1) * y**N * (x + Fraction(N, 2) * y + k * y)
            assert forward_diff_n(f, x, y, k, N) == expected

    def test_annihilates_low_degree(self):
        rng = random.Random(7)
        for N in (1, 2, 3, 4):
            f = random_poly(rng, N - 1)
            x, y = random_fraction(rng), random_fraction(rng, nonzero=True)
            assert forward_diff_n(f, x, y, 0, N) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), max_size=7),
        x=st.fractions(min_value=-10, max_value=10, max_denominator=30),
        y=st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=30)),
        k=st.integers(-6, 6),
        N=st.integers(0, 8),
    )
    def test_is_the_difference_of_the_values(self, coeffs, x, y, k, N):
        # It differences f's integer samples; the values of f say the same.
        f = RationalPoly(coeffs)
        got = forward_diff_n(f, x, y, k, N)
        assert type(got) is Fraction
        assert got == forward_differences([f(x + (k + j) * y) for j in range(N + 1)], N)[0]

    def test_composition(self):
        rng = random.Random(11)
        f = random_poly(rng, 6)
        x, y = random_fraction(rng), random_fraction(rng, nonzero=True)
        for n1, n2 in ((1, 1), (1, 2), (2, 3)):
            once = forward_diff_n(f, x, y, 0, n1 + n2)
            twice = sum(
                math.comb(n1, j) * (-1) ** (n1 - j) * forward_diff_n(f, x, y, j, n2)
                for j in range(n1 + 1)
            )
            assert once == twice


class TestLhsSum:
    def test_order_zero_single_term(self):
        f = RationalPoly([3, 1])
        assert lhs_sum(f, Fraction(5), 1, 2, 0) == f(Fraction(5))

    def test_base_two_cube_block(self):
        # Alternating-sign cubes over 0..7 sum to -48.
        assert lhs_sum(RationalPoly.monomial(3), 0, 1, 2, 3) == -48

    def test_cost_cap(self):
        with pytest.raises(CostCapExceeded):
            lhs_sum(RationalPoly.monomial(1), 0, 1, 2, 5, max_cost=16)


class TestIdentity:
    def test_two_term_case(self):
        f = RationalPoly.monomial(1)
        assert weighted_rhs(f, 0, 1, 2, 1) == -1
        assert lhs_sum(f, 0, 1, 2, 1) == -1

    @pytest.mark.parametrize("b", [2, 3, 4])
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_sides_agree_on_random_polynomials(self, b, N):
        rng = random.Random(1000 * b + N)
        for _ in range(3):
            f = random_poly(rng, N + 2)
            x, y = random_fraction(rng), random_fraction(rng)
            assert lhs_sum(f, x, y, b, N) == weighted_rhs(f, x, y, b, N)

    @pytest.mark.parametrize("b,N", [(2, 3), (3, 2), (5, 2)])
    def test_low_degree_annihilation(self, b, N):
        rng = random.Random(17 * b + N)
        for _ in range(3):
            f = random_poly(rng, N - 1)
            x, y = random_fraction(rng), random_fraction(rng, nonzero=True)
            assert lhs_sum(f, x, y, b, N).is_zero()
            assert weighted_rhs(f, x, y, b, N).is_zero()

    def test_linearity_in_f(self):
        rng = random.Random(23)
        f, g = random_poly(rng, 4), random_poly(rng, 4)
        x, y = random_fraction(rng), random_fraction(rng, nonzero=True)
        pairs = itertools.zip_longest(f.coeffs, g.coeffs, fillvalue=0)
        combined = RationalPoly(a + 3 * c for a, c in pairs)
        for side in (lhs_sum, weighted_rhs):
            assert side(combined, x, y, 3, 2) == side(f, x, y, 3, 2) + side(
                g, x, y, 3, 2
            ) * 3

    def test_rhs_requires_positive_order(self):
        with pytest.raises(ValueError):
            weighted_rhs(RationalPoly.monomial(1), 0, 1, 2, 0)


class TestIntegerForm:
    @pytest.mark.parametrize("degree", [-1, 0, 1, 2, 5])
    def test_samples_match_rational_evaluation(self, degree):
        # f(A / den) = g(A) / scale at every point of the cleared lattice,
        # the zero polynomial included, whether the points form a
        # progression, come shuffled with repeats and negative indices, or
        # are none at all.
        rng = random.Random(degree + 5)
        for _ in range(5):
            f = random_poly(rng, degree) if degree >= 0 else RationalPoly()
            c, y = random_fraction(rng), random_fraction(rng)
            g, scale, (C, Y) = clear_denominators(f, c, y)
            assert all(type(v) is int for v in (*g, scale, C, Y))
            for ns in (range(7), [3, -2, 0, 5, -2, 3, -7], []):
                values = [Fraction(v, scale) for v in integer_samples(g, [C + n * Y for n in ns])]
                assert values == [f(c + n * y) for n in ns]

    def test_monomial(self):
        f = RationalPoly.monomial(3, Fraction(2, 3))
        g, scale, (C, Y) = clear_denominators(f, Fraction(1, 2), Fraction(-1, 4))
        values = [Fraction(v, scale) for v in integer_samples(g, [C + n * Y for n in range(5)])]
        assert values == [f(Fraction(1, 2) - Fraction(n, 4)) for n in range(5)]


class TestSampledDifferences:
    # Every case must meet the direct route: N > min(deg, count - 1) gives
    # zeros, and otherwise Newton's table of min(deg + 1, count) samples is
    # run down in accumulate passes.  The examples pin count <= deg + 1,
    # N > deg and the zero polynomial; the step may be zero or negative.
    @settings(max_examples=300, deadline=None)
    @given(
        g=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9),
        start=st.integers(-50, 50),
        step=st.integers(-7, 7),
        count=st.integers(0, 40),
        N=st.integers(0, 10),
    )
    @example(g=[0], start=3, step=2, count=20, N=0)
    @example(g=[5, -1, 2], start=-4, step=0, count=3, N=1)
    @example(g=[5, -1, 2], start=-4, step=-3, count=2, N=4)
    @example(g=[1, 2, 3], start=0, step=-1, count=12, N=3)
    @example(g=[1, 2], start=1, step=1, count=5, N=8)
    @example(g=[7, 0, 0, 0, 0, 0, 0, 0, 9], start=2, step=-5, count=40, N=2)
    def test_matches_differences_of_every_sample(self, g, start, step, count, N):
        args = [start + n * step for n in range(count)]
        expected = forward_differences(integer_samples(g, args), N)
        samples = integer_samples(g, args[: len(g)])
        assert sampled_differences(samples, count, N) == expected
