"""RationalPoly: input normalisation and exact evaluation on both paths."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsum.arith import CycloNum, xi
from digitsum.poly import RationalPoly, clear_denominators, integer_samples, rational

coefficients = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30), max_size=8)
points = st.one_of(
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.fractions(min_value=-100, max_value=100, max_denominator=10**4),
)


def fraction_horner(coeffs, value):
    """Horner's rule with one Fraction operation per term, starting from
    Fraction(0)."""
    result = Fraction(0)
    for c in reversed(coeffs):
        result = result * value + c
    return result


class TestRational:
    def test_a_fraction_is_passed_on_unbuilt(self):
        value = Fraction(3, 7)
        assert rational(value) is value

    @pytest.mark.parametrize("value", [5, -2, True, False, "3/9", " -1/2 ", "0.25", "1e-3"])
    def test_other_inputs_normalise_as_fraction_does(self, value):
        result = rational(value)
        assert type(result) is Fraction and result == Fraction(value)

    def test_a_fraction_subclass_becomes_a_fraction(self):
        class Ratio(Fraction):
            pass

        result = rational(Ratio(2, 4))
        assert type(result) is Fraction and result == Fraction(1, 2)

    def test_bad_inputs_raise_as_fraction_does(self):
        with pytest.raises(ValueError):
            rational("x")
        with pytest.raises(ZeroDivisionError):
            rational("1/0")
        with pytest.raises(TypeError):
            rational(1.5j)

    def test_coefficients_are_fractions_and_shared(self):
        half = Fraction(1, 2)
        f = RationalPoly([half, 2, True, "1/3", 0, 0])
        assert f.coeffs == (half, 2, 1, Fraction(1, 3))
        assert all(type(c) is Fraction for c in f.coeffs)
        assert f.coeffs[0] is half
        assert RationalPoly.monomial(2, "2/4").coeffs == (0, 0, Fraction(1, 2))


class TestCall:
    @settings(max_examples=300, deadline=None)
    @given(coeffs=coefficients, value=points)
    def test_rational_points_are_fraction_horner(self, coeffs, value):
        result = RationalPoly(coeffs)(value)
        assert type(result) is Fraction
        assert result == fraction_horner(coeffs, value)

    @settings(max_examples=100, deadline=None)
    @given(coeffs=coefficients, b=st.integers(2, 7), k=st.integers(0, 6), scale=st.fractions(max_denominator=9))
    def test_a_cyclonum_point_runs_horner_in_its_field(self, coeffs, b, k, scale):
        value = xi(b) ** k * scale + 1
        result = RationalPoly(coeffs)(value)
        assert result == fraction_horner(coeffs, value)
        assert result == sum((c * value**q for q, c in enumerate(coeffs)), CycloNum.zero(b))

    def test_zero_polynomial(self):
        assert RationalPoly()(Fraction(2, 3)) == 0
        assert type(RationalPoly()(7)) is Fraction


class TestIntegerForm:
    @settings(max_examples=300, deadline=None)
    @given(coeffs=coefficients, values=st.lists(points, min_size=1, max_size=4))
    def test_samples_over_scale_are_the_values(self, coeffs, values):
        # The route every rational-point sampler in the package takes.
        f = RationalPoly(coeffs)
        g, scale, scaled = clear_denominators(f, *values)
        samples = integer_samples(g, scaled)
        assert [Fraction(v, scale) for v in samples] == [fraction_horner(coeffs, v) for v in values]
