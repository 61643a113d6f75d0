"""Cyclotomic arithmetic: frozen small cases, field laws, special values."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsum.arith import (
    CycloNum,
    a_constant,
    cyclotomic_polynomial,
    euler_phi,
    xi,
    xi_power_coords,
    xi_power_table,
)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomial:
    def test_small_orders(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    @pytest.mark.parametrize("b", range(1, 31))
    def test_product_over_divisors_recovers_x_b_minus_1(self, b):
        # Independent oracle: the product of the cyclotomic polynomials of
        # all divisors of b must be x^b - 1.
        product = [1]
        for d in range(1, b + 1):
            if b % d == 0:
                product = poly_mul(product, list(cyclotomic_polynomial(d)))
        assert product == [-1] + [0] * (b - 1) + [1]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)

    def test_euler_phi(self):
        assert [euler_phi(b) for b in (1, 2, 3, 4, 5, 6, 12)] == [1, 1, 2, 2, 4, 2, 4]


class TestXi:
    def test_small_roots(self):
        assert xi(2) == -1
        assert xi(3) ** 2 == -1 - xi(3)
        assert xi(4) ** 2 == -1

    @pytest.mark.parametrize("b", range(2, 13))
    def test_power_order(self, b):
        root = xi(b)
        assert root**b == 1
        assert all(root**j != 1 for j in range(1, b))

    @pytest.mark.parametrize("b", range(2, 13))
    def test_geometric_sum_vanishes(self, b):
        total = CycloNum.zero(b)
        for power in xi_power_table(b):
            total = total + power
        assert total.is_zero()

    @pytest.mark.parametrize("b", range(2, 31))
    def test_integer_power_coords(self, b):
        coords = xi_power_coords(b)
        assert all(type(c) is int for power in coords for c in power)
        assert [CycloNum(b, power) for power in coords] == list(xi_power_table(b))

    def test_exponent_reduction_mod_order(self):
        assert xi(3) ** 5 == xi(3) ** 2

    def test_rejects_order_below_two(self):
        with pytest.raises(ValueError):
            xi(1)

    def test_rejects_imprimitive_exponent(self):
        with pytest.raises(ValueError):
            xi(6, 2)
        assert xi(6, 5) == xi(6) ** 5


class TestFieldOperations:
    def test_mul_examples(self):
        assert xi(3) * xi(3) ** 2 == 1
        assert xi(2) * xi(2) == 1
        one_plus = CycloNum.one(4) + xi(4)
        assert one_plus * one_plus == xi(4) * 2

    def test_inverse_examples(self):
        assert xi(2).inverse() == -1
        assert (CycloNum.one(2) - xi(2)).inverse() == Fraction(1, 2)
        inv = (CycloNum.one(3) - xi(3)).inverse()
        assert inv == (CycloNum.from_rational(3, 2) + xi(3)) / 3

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            CycloNum.zero(5).inverse()
        with pytest.raises(ZeroDivisionError):
            CycloNum.zero(5) ** (-1)

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            xi(3) + xi(4)
        with pytest.raises(ValueError):
            xi(3) * xi(4)

    def test_pow_zero_is_one(self):
        assert xi(5) ** 0 == 1
        assert CycloNum.zero(5) ** 0 == 1


def cyclo_elements(b):
    phi = euler_phi(b)
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=9)
    return st.lists(coord, min_size=phi, max_size=phi).map(
        lambda cs: CycloNum(b, cs)
    )


@pytest.mark.parametrize("b", [2, 3, 4, 5, 6, 12])
class TestFieldAxioms:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ring_laws(self, b, data):
        u = data.draw(cyclo_elements(b))
        v = data.draw(cyclo_elements(b))
        w = data.draw(cyclo_elements(b))
        assert (u + v) + w == u + (v + w)
        assert u + v == v + u
        assert (u * v) * w == u * (v * w)
        assert u * v == v * u
        assert u * (v + w) == u * v + u * w

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_multiplicative_inverse(self, b, data):
        u = data.draw(cyclo_elements(b))
        if u.is_zero():
            return
        assert u * u.inverse() == 1
        assert u / u == 1


class TestAConstant:
    @pytest.mark.parametrize("b", range(2, 13))
    def test_special_values(self, b):
        assert a_constant(b, 0).is_zero()
        assert a_constant(b, 1) == (xi(b) - 1).inverse() * b

    def test_base_two_power_two(self):
        assert a_constant(2, 2) == -1

    def test_brute_force_agreement(self):
        for b in (3, 4, 5):
            for l in range(5):
                expected = CycloNum.zero(b)
                for k in range(b):
                    expected = expected + xi(b) ** k * (k**l)
                assert a_constant(b, l) == expected
