"""Bernoulli polynomials, Faulhaber sums, and the iterated-difference closed form."""

import random
from fractions import Fraction

import pytest

from digitsum.bernoulli import (
    bernoulli_numbers,
    bernoulli_poly,
    delta_n_bernoulli,
    faulhaber_sum,
)
from digitsum.findiff import forward_diff_n
from digitsum.identities import random_fraction
from digitsum.poly import RationalPoly


class TestBernoulliNumbers:
    def test_first_values(self):
        values = bernoulli_numbers(8)
        assert values[0] == 1
        assert values[1] == Fraction(-1, 2)
        assert values[2] == Fraction(1, 6)
        assert values[3] == 0
        assert values[4] == Fraction(-1, 30)
        assert values[6] == Fraction(1, 42)
        assert values[8] == Fraction(-1, 30)

    def test_odd_indices_vanish(self):
        values = bernoulli_numbers(15)
        assert all(values[n] == 0 for n in range(3, 16, 2))


class TestBernoulliPoly:
    def test_low_degrees(self):
        assert bernoulli_poly(0) == RationalPoly([1])
        assert bernoulli_poly(1) == RationalPoly([Fraction(-1, 2), 1])
        assert bernoulli_poly(2) == RationalPoly([Fraction(1, 6), -1, 1])
        assert bernoulli_poly(3) == RationalPoly([0, Fraction(1, 2), Fraction(-3, 2), 1])

    @pytest.mark.parametrize("p", range(1, 11))
    def test_difference_property(self, p):
        # B_p(x+1) - B_p(x) = p x^(p-1), the identity behind Faulhaber.
        poly = bernoulli_poly(p)
        for x in (Fraction(0), Fraction(1, 2), Fraction(-3, 7), Fraction(5)):
            assert poly(x + 1) - poly(x) == p * x ** (p - 1)


class TestFaulhaber:
    def test_empty_range(self):
        assert faulhaber_sum(Fraction(1, 3), 2, 5, 5, 4) == 0

    def test_triangular_numbers(self):
        for n in range(12):
            assert faulhaber_sum(0, 1, 0, n, 1) == n * (n - 1) // 2

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            faulhaber_sum(1, 0, 0, 5, 2)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            faulhaber_sum(1, 1, 5, 2, 2)

    def test_two_hundred_random_instances(self):
        rng = random.Random(2024)
        for _ in range(200):
            a = random_fraction(rng)
            step = random_fraction(rng, nonzero=True)
            lo = rng.randint(-8, 8)
            hi = lo + rng.randint(0, 15)
            p = rng.randint(0, 7)
            direct = sum(((a + step * i) ** p for i in range(lo, hi)), start=Fraction(0))
            assert faulhaber_sum(a, step, lo, hi, p) == direct


class TestDeltaBernoulli:
    def test_order_zero_is_the_linear_polynomial(self):
        assert delta_n_bernoulli(Fraction(2, 3), Fraction(5), 1, 0) == Fraction(2, 3) + 5 - Fraction(1, 2)

    def test_order_one_at_zero(self):
        # B_2(1) - B_2(0) = 0 and the closed form gives 2 * (0 + 0 + 0) = 0.
        assert delta_n_bernoulli(0, 1, 0, 1) == 0
        b2 = bernoulli_poly(2)
        assert b2(Fraction(1)) - b2(Fraction(0)) == 0

    @pytest.mark.parametrize("N", range(7))
    def test_matches_iterated_difference(self, N):
        rng = random.Random(N + 55)
        for _ in range(4):
            a = random_fraction(rng)
            step = random_fraction(rng, nonzero=True)
            k = rng.randint(-3, 3)
            expected = forward_diff_n(bernoulli_poly(N + 1), a, step, k, N)
            assert delta_n_bernoulli(a, step, k, N) == expected
