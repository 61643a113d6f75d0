"""Forward differences and the two sides of the weighted identity."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from digitsum.cost import CostCapExceeded
from digitsum.findiff import forward_diff_n, lhs_sum, weighted_rhs
from digitsum.poly import RationalPoly, clear_denominators, integer_samples


def rand_fraction(rng, nonzero=False):
    num = rng.randint(-9, 9)
    while nonzero and num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 9))


def rand_poly(rng, degree):
    coeffs = [rand_fraction(rng) for _ in range(degree)]
    coeffs.append(rand_fraction(rng, nonzero=True))
    return RationalPoly(coeffs)


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
            x, y = rand_fraction(rng), rand_fraction(rng)
            k = rng.randint(-4, 4)
            assert forward_diff_n(f, x, y, k, N) == math.factorial(N) * y**N

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_monomial_one_degree_up(self, N):
        # Degree N+1 leaves a linear remainder: (N+1)! y^N (x + N y/2 + k y).
        rng = random.Random(N + 100)
        f = RationalPoly.monomial(N + 1)
        for _ in range(5):
            x, y = rand_fraction(rng), rand_fraction(rng)
            k = rng.randint(-4, 4)
            expected = math.factorial(N + 1) * y**N * (x + Fraction(N, 2) * y + k * y)
            assert forward_diff_n(f, x, y, k, N) == expected

    def test_annihilates_low_degree(self):
        rng = random.Random(7)
        for N in (1, 2, 3, 4):
            f = rand_poly(rng, N - 1)
            x, y = rand_fraction(rng), rand_fraction(rng, nonzero=True)
            assert forward_diff_n(f, x, y, 0, N) == 0

    def test_composition(self):
        rng = random.Random(11)
        f = rand_poly(rng, 6)
        x, y = rand_fraction(rng), rand_fraction(rng, nonzero=True)
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
            f = rand_poly(rng, N + 2)
            x, y = rand_fraction(rng), rand_fraction(rng)
            assert lhs_sum(f, x, y, b, N) == weighted_rhs(f, x, y, b, N)

    @pytest.mark.parametrize("b,N", [(2, 3), (3, 2), (5, 2)])
    def test_low_degree_annihilation(self, b, N):
        rng = random.Random(17 * b + N)
        for _ in range(3):
            f = rand_poly(rng, N - 1)
            x, y = rand_fraction(rng), rand_fraction(rng, nonzero=True)
            assert lhs_sum(f, x, y, b, N).is_zero()
            assert weighted_rhs(f, x, y, b, N).is_zero()

    def test_linearity_in_f(self):
        rng = random.Random(23)
        f, g = rand_poly(rng, 4), rand_poly(rng, 4)
        x, y = rand_fraction(rng), rand_fraction(rng, nonzero=True)
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
        # the zero polynomial included.
        rng = random.Random(degree + 5)
        for _ in range(5):
            f = rand_poly(rng, degree) if degree >= 0 else RationalPoly()
            c, y = rand_fraction(rng), rand_fraction(rng)
            g, scale, (C, Y) = clear_denominators(f, c, y)
            assert all(type(v) is int for v in (*g, scale, C, Y))
            values = [Fraction(v, scale) for v in integer_samples(g, C, Y, 7)]
            assert values == [f(c + n * y) for n in range(7)]

    def test_monomial(self):
        f = RationalPoly.monomial(3, Fraction(2, 3))
        g, scale, (C, Y) = clear_denominators(f, Fraction(1, 2), Fraction(-1, 4))
        values = [Fraction(v, scale) for v in integer_samples(g, C, Y, 5)]
        assert values == [f(Fraction(1, 2) - Fraction(n, 4)) for n in range(5)]
