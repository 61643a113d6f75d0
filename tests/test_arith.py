"""Cyclotomic arithmetic: frozen small cases, field laws, special values."""

import math
from fractions import Fraction
from itertools import zip_longest

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


def poly_rem(a, mod):
    """Remainder of a after long division by the monic polynomial mod."""
    dn = len(mod) - 1
    a = list(a) + [0] * dn
    for i in range(len(a) - 1, dn - 1, -1):
        q = a[i]
        if q:
            for j, m in enumerate(mod):
                a[i - dn + j] -= q * m
    return a[:dn]


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


@pytest.mark.parametrize("b", range(2, 31))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_reduction_matches_long_division(b, data):
    # Independent oracle: long division by the cyclotomic polynomial.  Where
    # 2 phi(b) - 2 >= b (5, 7, 9, 11, the other primes, 21, 25, 27) a product
    # reaches degree b, so the fold wraps through xi^b = 1.
    mod = cyclotomic_polynomial(b)
    coords = st.lists(st.integers(-9, 9), min_size=euler_phi(b), max_size=euler_phi(b))
    u = CycloNum(b, data.draw(coords))
    v = CycloNum(b, data.draw(coords)) / data.draw(st.integers(1, 9))
    assert list((u * v).coeffs) == poly_rem(poly_mul(u.coeffs, v.coeffs), mod)
    r = data.draw(st.integers(0, b - 1))
    assert list(xi_power_coords(b)[r]) == poly_rem([0] * r + [1], mod)


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


class TestHash:
    def test_rational_value_hashes_like_its_fraction(self):
        five = CycloNum.from_rational(3, 5)
        assert five == 5 and hash(five) == hash(5)
        assert {5: "x"}.get(five) == "x"
        assert len({five, 5}) == 1
        half = CycloNum.from_rational(4, Fraction(1, 2))
        assert hash(half) == hash(Fraction(1, 2))

    def test_irrational_values_hash_by_their_normal_form(self):
        u = (xi(5) + 1) / 2
        assert hash(u) == hash(CycloNum(5, [Fraction(1, 2), Fraction(1, 2), 0, 0]))
        assert len({u, u * 1, xi(5)}) == 2


class TestEquality:
    # __eq__ answers a CycloNum or an int of exact type first, and everything
    # else through the general branches; all must agree, and equal values
    # must hash equal.
    @pytest.mark.parametrize("left,right,equal", [
        ((xi(5) + 1) / 2, (xi(5) + 1) / 2, True),
        ((xi(5) + 1) / 2, (xi(5) + 1) / 3, False),
        (xi(5) + 2, xi(5) + 3, False),
        (CycloNum.from_columns(5, [(1,), (2,), (0,), (0,)])[0], CycloNum.from_integers(5, (1, 2, 0, 0)), True),
        # Same coordinates in another field.
        (xi(3), xi(6), False),
        (CycloNum.one(3), CycloNum.one(6), False),
        (CycloNum.zero(4), 0, True),
        (CycloNum.from_rational(5, -3), -3, True),
        (CycloNum.from_rational(5, -3), 3, False),
        (CycloNum.from_rational(5, Fraction(-3, 2)), -3, False),
        (xi(5) - 3, -3, False),
        (CycloNum.one(3), True, True),
        (CycloNum.zero(3), False, True),
        (CycloNum.zero(3), True, False),
        (CycloNum.from_rational(4, Fraction(1, 2)), Fraction(1, 2), True),
        (CycloNum.from_rational(4, Fraction(1, 2)), Fraction(1, 3), False),
        (CycloNum.from_rational(4, 7), Fraction(7), True),
        (CycloNum.one(3), 1.0, False),
        (CycloNum.one(3), "1", False),
    ])
    def test_contract(self, left, right, equal):
        assert (left == right) is equal
        assert (right == left) is equal
        assert (left != right) is not equal
        if equal:
            assert hash(left) == hash(right)


# The Fraction-coordinate arithmetic that CycloNum used before it stored
# integer numerators over one denominator: the product folds through the
# integer powers of xi, the inverse runs the extended Euclidean algorithm
# against the cyclotomic modulus.  It is the oracle for the integer form.


def oracle_mul(b, a, c):
    phi = len(a)
    conv = [Fraction(0)] * (2 * phi - 1)
    for i, ai in enumerate(a):
        for j, cj in enumerate(c):
            conv[i + j] += ai * cj
    out = conv[:phi]
    powers = xi_power_coords(b)
    for i in range(phi, 2 * phi - 1):
        for j, rj in enumerate(powers[i % b]):
            out[j] += conv[i] * rj
    return tuple(out)


def _frac_poly_divmod(num, den):
    num = list(num)
    dn = len(den) - 1
    quot = [Fraction(0)] * max(len(num) - dn, 0)
    for i in range(len(quot) - 1, -1, -1):
        q = num[i + dn] / den[-1]
        quot[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    while num and not num[-1]:
        num.pop()
    return quot, num


def oracle_inverse(b, a):
    if not any(a):
        raise ZeroDivisionError
    r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(b)], list(a)
    while r1 and not r1[-1]:
        r1.pop()
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        q, r = _frac_poly_divmod(r0, r1)
        prod = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                prod[i + j] += qi * sj
        nxt = [x - y for x, y in zip_longest(s0, prod, fillvalue=0)]
        while nxt and not nxt[-1]:
            nxt.pop()
        r0, r1, s0, s1 = r1, r, s1, nxt
    return tuple(Fraction(c) / r1[0] for c in s1 + [0] * (len(a) - len(s1)))


def oracle_pow(b, a, e):
    if e < 0:
        a, e = oracle_inverse(b, a), -e
    out = (Fraction(1),) + (Fraction(0),) * (len(a) - 1)
    for _ in range(e):
        out = oracle_mul(b, out, a)
    return out


def coordinates(b, nonzero=False):
    coord = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    vec = st.lists(coord, min_size=euler_phi(b), max_size=euler_phi(b)).map(tuple)
    return vec.filter(any) if nonzero else vec


def is_normal(u):
    return u.den > 0 and math.gcd(u.den, *u.nums) == 1 and (any(u.nums) or u.den == 1)


@pytest.mark.parametrize("b", range(2, 13))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_fraction_oracle(b, data):
    a = data.draw(coordinates(b))
    c = data.draw(coordinates(b, nonzero=True))
    q = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool))
    e = data.draw(st.integers(-3, 4))
    u, v = CycloNum(b, a), CycloNum(b, c)
    results = {
        "+": (u + v, tuple(x + y for x, y in zip(a, c))),
        "-": (u - v, tuple(x - y for x, y in zip(a, c))),
        "q-": (q - v, (q - c[0],) + tuple(-y for y in c[1:])),
        "*": (u * v, oracle_mul(b, a, c)),
        "*q": (u * q, tuple(x * q for x in a)),
        "/": (u / v, oracle_mul(b, a, oracle_inverse(b, c))),
        "/q": (u / q, tuple(x / q for x in a)),
        "q/": (q / v, tuple(x * q for x in oracle_inverse(b, c))),
        "**": (v**e, oracle_pow(b, c, e)),
        "inverse": (v.inverse(), oracle_inverse(b, c)),
    }
    for op, (got, want) in results.items():
        assert got.coeffs == want, op
        assert is_normal(got), op
    assert (u == v) == (a == c)
    assert (u == q) == (a == (q,) + (0,) * (len(a) - 1))
    assert u + q == CycloNum(b, (a[0] + q,) + a[1:])


@pytest.mark.parametrize("b", range(2, 13))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_values_are_stored_in_normal_form(b, data):
    a = data.draw(coordinates(b))
    u = CycloNum(b, a)
    assert is_normal(u)
    assert u.coeffs == a
    assert u.nums == tuple(x * u.den for x in a)
    assert is_normal(u - u) and (u - u).nums == (0,) * len(a) and (u - u).den == 1
    if not any(a):
        with pytest.raises(ZeroDivisionError):
            u.inverse()
        return
    inv = u.inverse()
    assert is_normal(inv)
    assert u.inverse() == inv and inv.inverse() == u
