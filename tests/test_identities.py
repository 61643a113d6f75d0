"""The verifier: hand-checked example values, vanishing laws, and report plumbing."""

import copy
import inspect
import json
import math
import operator
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from digitsum import arith, identities, poly
from digitsum.arith import CycloNum, a_constant, euler_phi, xi
from digitsum.bernoulli import bernoulli_numbers, bernoulli_poly, delta_n_bernoulli, faulhaber_sum
from digitsum.cli import report_to_dict, scalar_to_json
from digitsum.cost import CostCapExceeded
from digitsum.findiff import forward_diff_n, lhs_sum
from digitsum.identities import (
    IdentityReport,
    random_fraction,
    random_poly,
    joint_line_coeffs_base2,
    joint_weight_polynomial,
    run_suite,
    mixed_power_sum,
    verify_multi_power_sum,
    verify_power_sum,
    verify_joint_line_general,
    verify_generalized_pte,
    verify_joint_line_base2,
    verify_joint_vanishing,
    verify_multisum,
    verify_mixed_closed_form,
    verify_mixed_recurrence,
    verify_mixed_vanishing,
    verify_difference_identity,
    verify_multi_mixed_sum,
    verify_moment,
    verify_alpha_moment,
    verify_delta_bernoulli,
    verify_faulhaber,
)
from digitsum.poly import RationalPoly
from digitsum.weights import beta_moment0, beta_moment1


def evaluate(coeffs, t):
    """The polynomial with these coefficients, constant term first, at t."""
    return sum((c * t**q for q, c in enumerate(coeffs)), CycloNum.zero(coeffs[0].b))


class TestDifferenceIdentityReports:
    def test_degree_five_base_two(self):
        report = verify_difference_identity(2, 2, RationalPoly.monomial(5), 1, 1)
        assert report.equal

    def test_low_degree_gives_zero_both_sides(self):
        report = verify_difference_identity(3, 2, RationalPoly([7]), 2, 3)
        assert report.equal
        assert report.lhs == 0 and report.rhs == 0

    def test_random_base_three(self):
        rng = random.Random(5)
        report = verify_difference_identity(3, 2, random_poly(rng, 4), random_fraction(rng), random_fraction(rng))
        assert report.equal


class TestCorollary:
    def test_two_term_hand_check(self):
        report = verify_power_sum(2, 1, 0, 1, "N")
        assert report.equal and report.lhs == -1

    def test_cube_block(self):
        report = verify_power_sum(2, 3, 0, 1, "N")
        assert report.equal and report.lhs == -48

    def test_independent_of_x(self):
        values = {
            str(verify_power_sum(3, 2, x, Fraction(1, 2), "N").lhs)
            for x in (0, 1, Fraction(-7, 3))
        }
        assert len(values) == 1

    def test_degree_up_variant(self):
        for b, N in ((2, 2), (3, 1), (4, 2)):
            report = verify_power_sum(b, N, Fraction(1, 3), Fraction(2), "N+1")
            assert report.equal

    @pytest.mark.parametrize("which", ["N", "N+1"])
    def test_charges_its_block_once(self, monkeypatch, which):
        charges = []
        record = lambda cost, max_cost=None: charges.append(cost)  # noqa: E731
        # Every module on the power-sum path: a caller-side charge re-added
        # in front of the kernel would show up as a second entry.
        for module in ("identities", "findiff", "digits"):
            monkeypatch.setattr(f"digitsum.{module}.charge", record)
        b, N = 3, 2
        assert verify_power_sum(b, N, 1, Fraction(1, 2), which).equal
        assert charges == [b**N]

    @pytest.mark.parametrize("which", ["N", "N+1"])
    def test_sums_through_lhs_sum(self, monkeypatch, which):
        # The brute side is the public single-axis sum, so a trace of
        # findiff.lhs_sum sees every power sum.
        calls = []
        monkeypatch.setattr(
            "digitsum.identities.lhs_sum", lambda *args: calls.append(args) or lhs_sum(*args)
        )
        assert verify_power_sum(3, 2, 1, Fraction(1, 2), which).equal
        assert len(calls) == 1

    def test_huge_order_is_refused_before_the_monomial_is_built(self, monkeypatch):
        # The degree-N monomial holds N + 1 Fractions, 4.8 s of work at this
        # N; the kernel charges only after its caller has built it.
        monkeypatch.setattr(RationalPoly, "monomial", lambda *args: pytest.fail("built before the check"))
        with pytest.raises(CostCapExceeded):
            verify_power_sum(2, 3_000_000, 0, 1)
        with pytest.raises(CostCapExceeded):
            verify_mixed_closed_form(2, 3_000_000, 0, 1)
        with pytest.raises(CostCapExceeded):
            verify_multi_power_sum(2, (3_000_000,), 0, (1,))
        with pytest.raises(CostCapExceeded):
            verify_multi_mixed_sum(2, (3_000_000,), (0,), (1,))


class TestMultisum:
    def test_single_index_matches_plain_identity(self):
        f = RationalPoly.monomial(3)
        single = verify_difference_identity(2, 2, f, 0, 1)
        multi = verify_multisum(2, (2,), f, Fraction(0), (Fraction(1),))
        assert multi.equal and multi.lhs == single.lhs

    def test_double_sum(self):
        report = verify_multisum(2, (1, 1), RationalPoly.monomial(2), Fraction(0), (Fraction(1),) * 2)
        assert report.equal

    def test_mixed_orders_base_three(self):
        rng = random.Random(9)
        ys = (random_fraction(rng, True), random_fraction(rng, True))
        x = random_fraction(rng)
        report = verify_multisum(3, (1, 2), random_poly(rng, 3), x, ys)
        assert report.equal

    def test_size_cap_refusal(self):
        with pytest.raises(CostCapExceeded):
            verify_multisum(2, (5, 5), RationalPoly.monomial(10), 0, (1, 2), max_cost=100)

    def test_grid_charge(self):
        # The 8 x 8 grid, as the other r-fold sums charge it.
        f = RationalPoly([1, Fraction(-1, 2), 0, 0, 0, 0, 3])
        ys = (Fraction(1), Fraction(-2, 3))
        assert verify_multisum(2, (3, 3), f, Fraction(1, 5), ys, max_cost=64).equal
        with pytest.raises(CostCapExceeded):
            verify_multisum(2, (3, 3), f, Fraction(1, 5), ys, max_cost=63)


class TestMultiPowerSum:
    def test_hand_check_r1(self):
        report = verify_multi_power_sum(2, (1,), Fraction(3), (Fraction(1),))
        assert report.equal and report.lhs == -1

    def test_base_two_consistency_form(self):
        # The sign/exponent rewriting of the closed form must agree at base 2.
        for N_list in ((1,), (2,), (1, 2), (2, 3), (1, 1, 1)):
            total = sum(N_list)
            general = Fraction(-1, 2) ** total * Fraction(2) ** sum(
                N * (N + 1) // 2 for N in N_list
            )
            special = Fraction(-1) ** total * Fraction(2) ** sum(
                N * (N - 1) // 2 for N in N_list
            )
            assert general == special

    def test_r2_and_r3(self):
        rng = random.Random(3)
        for b in (2, 3):
            for N_list in ((1, 2), (1, 1, 1)):
                ys = tuple(random_fraction(rng, True) for _ in N_list)
                report = verify_multi_power_sum(b, N_list, random_fraction(rng), ys)
                assert report.equal


class TestRFoldInputs:
    """The r-fold verifiers take str, int and Fraction inputs as their
    single-axis siblings do, and report every one as a Fraction."""

    @pytest.mark.parametrize("verify,args", [
        (verify_multi_mixed_sum, lambda v: (2, [2, 1], [v(3), v(-1)], [v(2), v(1)])),
        (verify_multi_power_sum, lambda v: (3, [1, 2], v(3), [v(2), v(-1)])),
        (verify_multisum, lambda v: (2, (1, 2), RationalPoly([1, 2, 3]), v(3), (v(2), v(1)))),
    ])
    def test_str_int_and_fraction_give_one_report(self, verify, args):
        reports = [verify(*args(form)) for form in (str, int, Fraction)]
        assert reports[0].equal and reports[0] == reports[1] == reports[2]
        dicts = [report_to_dict(report) for report in reports]
        assert dicts[0] == dicts[1] == dicts[2]
        params = reports[1].params
        values = params["y_list"] + params.get("x_list", []) + ([params["x"]] if "x" in params else [])
        assert all(type(v) is Fraction for v in values)

    def test_string_rationals_match_the_single_axis_sibling(self):
        multi = verify_multi_mixed_sum(2, [2], ["1/2"], ["1/3"])
        assert multi == verify_multi_mixed_sum(2, [2], [Fraction(1, 2)], [Fraction(1, 3)])
        assert multi.lhs == verify_mixed_closed_form(2, 2, "1/2", "1/3").lhs
        assert report_to_dict(multi)["params"]["x_list"] == ["1/2"]
        power = verify_multi_power_sum(2, [2], "1/2", ["1/3"])
        assert power.equal and report_to_dict(power)["params"]["x"] == "1/2"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**30, 10**30), min_size=1))
def test_first_moment_from_running_sums(column):
    # n T - sum_j P_j over the running sums P_j is the direct sum_k k c_k.
    assert identities._first_moment(column) == sum(k * c for k, c in enumerate(column))


class TestSSums:
    def test_base_cases(self):
        assert mixed_power_sum(2, 0, 0, 1, 1) == 1
        for b in (2, 3, 4):
            for N in (1, 2, 3):
                assert mixed_power_sum(b, N, 0, 1, 1).is_zero()

    # Each call is a function and its arguments; past the mixed sums, these
    # are the library's usage errors that no CLI test reaches.
    @pytest.mark.parametrize("args,message", [
        ((mixed_power_sum, 1, 2, 0, 1, 1), "base must be >= 2, got 1"),
        ((mixed_power_sum, 2, -1, 0, 1, 1), "order must be >= 0, got -1"),
        ((mixed_power_sum, 2, 2, -1, 1, 1), "power must be >= 0, got -1"),
        ((verify_power_sum, 2, 2, 0, 1, "x"), "which must be 'N' or 'N+1', got 'x'"),
        ((verify_moment, 2, 2, 2), "only moments 0 and 1 have closed forms, got 2"),
        ((verify_alpha_moment, 2, 2), "only moments 0 and 1 have closed forms, got 2"),
        ((verify_mixed_vanishing, 2, 2, 2, 0, 1), "need 0 <= l < N, got l=2, N=2"),
        ((verify_mixed_recurrence, 2, 2, -1, 0, 1), "power must be >= 0, got -1"),
        ((joint_weight_polynomial, 2, 1, ()), "need at least one scale value"),
        ((joint_weight_polynomial, 2, -1, (1, 2)), "power must be >= 0, got -1"),
        ((verify_faulhaber, 0, 1, 2, 1, 1), "empty-range bounds must satisfy r <= s, got 2 > 1"),
        ((verify_joint_vanishing, 3, 2), "need 0 <= p <= N-2, got p=2, N=3"),
        ((bernoulli_numbers, -1), "index must be >= 0, got -1"),
        ((bernoulli_poly, -1), "degree must be >= 0, got -1"),
        ((faulhaber_sum, 0, 1, 0, 1, -1), "power must be >= 0, got -1"),
        ((delta_n_bernoulli, 0, 1, 0, -1), "order must be >= 0, got -1"),
        ((forward_diff_n, RationalPoly.monomial(1), 0, 1, 0, -1), "order must be >= 0, got -1"),
        ((RationalPoly.monomial, -1), "degree must be >= 0"),
        ((a_constant, 3, -1), "power must be >= 0"),
        ((CycloNum, 3, (1,)), "order 3 needs exactly 2 coordinates, got 1"),
        ((operator.truediv, CycloNum.one(3), 0), "division by zero"),
    ])
    def test_usage_errors_name_the_bad_input(self, args, message):
        func, *rest = args
        with pytest.raises((ValueError, ZeroDivisionError)) as exc:
            func(*rest)
        assert str(exc.value) == message

    @pytest.mark.parametrize("b", [2, 3, 4])
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_vanishing_below_order(self, b, N):
        rng = random.Random(100 * b + N)
        x, y = random_fraction(rng), random_fraction(rng)
        for l in range(N):
            assert verify_mixed_vanishing(b, N, l, x, y).equal

    def test_closed_form_hand_value(self):
        # b=2, N=3, x=1, y=1: closed form is -6 * (1+1)(1+2)(1+4) = -180.
        report = verify_mixed_closed_form(2, 3, 1, 1)
        assert report.equal and report.lhs == -180

    @pytest.mark.parametrize("b,N", [(2, 2), (3, 2), (4, 2), (3, 3)])
    def test_closed_form_random(self, b, N):
        rng = random.Random(b * 31 + N)
        report = verify_mixed_closed_form(b, N, random_fraction(rng), random_fraction(rng))
        assert report.equal

    def test_recurrence(self):
        assert verify_mixed_recurrence(2, 2, 2, 1, 1).equal
        assert verify_mixed_recurrence(3, 2, 3, Fraction(1, 2), Fraction(-2, 3)).equal
        assert verify_mixed_recurrence(2, 1, 0, 1, 1).equal  # empty sum vs zero

    def test_recurrence_charges_its_summands_once(self, monkeypatch):
        charges = []
        record = lambda cost, max_cost=None: charges.append(cost)  # noqa: E731
        monkeypatch.setattr("digitsum.identities.charge", record)
        b, N, l = 3, 3, 2
        assert verify_mixed_recurrence(b, N, l, 1, 1).equal
        # b^N + l b^(N-1) summands, each a power sum of degree up to l.
        assert charges == [(b**N + l * b ** (N - 1)) * (l + 1)]


class TestThm12:
    def test_hand_value(self):
        report = verify_multi_mixed_sum(2, (3,), (Fraction(1),), (Fraction(1),))
        assert report.equal and report.lhs == -180

    def test_zero_offset_reduces_to_plain_power_sum(self):
        report = verify_multi_mixed_sum(2, (1,), (Fraction(0),), (Fraction(1),))
        assert report.equal and report.lhs == -1

    def test_r2_mixed(self):
        rng = random.Random(77)
        for b in (2, 3):
            ys = (random_fraction(rng, True), random_fraction(rng, True))
            xs = (random_fraction(rng), random_fraction(rng))
            assert verify_multi_mixed_sum(b, (1, 2), xs, ys).equal


class TestHFamily:
    def test_vanishing(self):
        for N in (2, 3, 4):
            for p in range(N - 1):
                assert verify_joint_vanishing(N, p).equal

    def test_line_hand_case(self):
        # N=1, x=(1,2): the line is -2t - 6.
        report = verify_joint_line_base2(1, 1, 2, 0)
        assert report.equal and report.lhs == -6
        assert report.extras["slope_brute"] == -2
        coeffs = joint_weight_polynomial(1, 1, (Fraction(1), Fraction(2)), 2)
        assert coeffs == (-6, -2)

    def test_line_16_terms(self):
        report = verify_joint_line_base2(2, 1, 3, 1)
        assert report.equal

    def test_equal_scales_rejected(self):
        with pytest.raises(ValueError):
            verify_joint_line_base2(2, 1, 1, 0)
        with pytest.raises(ValueError):
            verify_joint_line_general(3, 1, 2, 2)

    def test_slope_formula_matches_both_writings(self):
        # 2 (x1^N - x2^N)/(x1 - x2) written via x2-x1 order must agree.
        x1, x2 = Fraction(3, 2), Fraction(-1, 3)
        for N in (1, 2, 3):
            slope, _ = joint_line_coeffs_base2(N, x1, x2)
            sign = -1 if N % 2 else 1
            alt = (
                sign
                * math.factorial(N)
                * 2 ** (N * (N - 1) // 2 + 1)
                * (x2**N - x1**N)
                / (x2 - x1)
            )
            assert slope == alt

    def test_three_scales_brute_force(self):
        # m = 3 has no closed form; check the expansion against a direct
        # nested-loop evaluation at a point.
        from digitsum.arith import xi_power_table
        from oracles import digit_sum

        xs = (Fraction(1), Fraction(2), Fraction(1, 2))
        coeffs = joint_weight_polynomial(1, 2, xs, 2)
        t = Fraction(3, 4)
        powers = xi_power_table(2)
        expected = None
        for i1 in range(2):
            for i2 in range(2):
                for i3 in range(2):
                    term = powers[digit_sum(i1 + i2 + i3, 2) % 2] * (
                        t + i1 * xs[0] + i2 * xs[1] + i3 * xs[2]
                    ) ** 2
                    expected = term if expected is None else expected + term
        assert evaluate(coeffs, t) == expected

    def test_three_scales_vanishing_does_not_extend(self):
        # The p <= N-2 vanishing is a two-scale fact.  With three scales it
        # already fails at N=2, p=0: the signed tuple count is 4, not 0.
        coeffs = joint_weight_polynomial(2, 0, (Fraction(1), Fraction(2), Fraction(3)), 2)
        assert coeffs == (4,)
        assert not verify_joint_vanishing(2, 0, m=3).equal

    def test_single_scale_reduces_to_power_sum(self):
        # m=1, p=N: the polynomial in t must match the plain power sum
        # evaluated with x=t, y=x1 for every t; compare at a few points.
        coeffs = joint_weight_polynomial(2, 2, (Fraction(2),), 2)
        for t in (Fraction(0), Fraction(1), Fraction(-5, 3)):
            report = verify_power_sum(2, 2, t, 2, "N")
            assert evaluate(coeffs, t) == report.lhs

    def test_general_base_matches_base_two_line(self):
        x1, x2 = Fraction(1), Fraction(3)
        report = verify_joint_line_general(2, 2, x1, x2)
        assert report.equal
        slope, const = joint_line_coeffs_base2(2, x1, x2)
        assert report.lhs[1] == slope and report.lhs[0] == const

    @pytest.mark.parametrize("b,N", [(3, 1), (3, 2)])
    def test_general_base_brute_force(self, b, N):
        report = verify_joint_line_general(b, N, 1, 2)
        assert report.equal
        assert "constant_conjectured" in report.extras

    def test_conjectured_constant_recorded_next_to_brute_force(self):
        report = verify_joint_line_general(3, 2, 1, 2)
        assert report.extras["conjectured_matches_brute"] in (True, False)
        payload = report_to_dict(report)
        assert "constant_conjectured" in payload["extras"]

    @pytest.mark.parametrize("b,N,x1,x2,difference", [
        (2, 1, 1, 2, (9,)),
        (3, 1, 1, 2, (-6, -36)),  # -6 - 36 xi
    ])
    def test_conjectured_constant_misses_by_a_pinned_amount(self, b, N, x1, x2, difference):
        # The conjectured constant term differs from the derived one, which
        # brute force confirms, by exactly these amounts.
        report = verify_joint_line_general(b, N, x1, x2)
        assert report.equal
        assert report.extras["constant_conjectured"] - report.rhs[0] == CycloNum(b, difference)

    @settings(max_examples=40, deadline=None)
    @given(
        b=st.integers(2, 5),
        N=st.integers(1, 3),
        x1=st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
        x2=st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    )
    def test_conjectured_minus_derived_constant(self, b, N, x1, x2):
        # With X_i = x_i / (x2 - x1) and T4 the derived form's last bracket,
        # conjectured - derived = (-1)^N N! [m0 x2^N X1 ((N+1) X2 + 1)/2
        # + (xi - xi^2) T4]: the conjectured form puts (N+1)/2 X2^2 where the
        # derived one has (N X2 + 1)/2, and weights T4 by xi^2 instead of xi.
        assume(x1 != x2)
        report = verify_joint_line_general(b, N, x1, x2)
        assert report.equal
        m0, m1 = beta_moment0(b, N), beta_moment1(b, N)
        X1, X2 = x1 / (x2 - x1), x2 / (x2 - x1)
        T4 = (m0 * (b**N * X1 + Fraction(1, 2) + Fraction(N, 2) * X2) + m1 * X2) * x2**N
        root = xi(b)
        gap = m0 * (x2**N * X1 * ((N + 1) * X2 + 1) / 2) + (root - root * root) * T4
        expected = gap * ((-1) ** N * math.factorial(N))
        assert report.extras["constant_conjectured"] - report.rhs[0] == expected


class TestGeneralizedPte:
    def test_vanishes_for_low_degree(self):
        rng = random.Random(8)
        for b, N in ((2, 2), (2, 3), (3, 2)):
            f = random_poly(rng, N - 1)
            report = verify_generalized_pte(b, N, f, random_fraction(rng), random_fraction(rng, True))
            assert report.equal

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            verify_generalized_pte(2, 2, RationalPoly.monomial(2), 1, 1)


class TestSuite:
    def test_full_suite_green_and_deterministic(self):
        first = run_suite(seed=123)
        assert all(report.equal for report in first)
        second = run_suite(seed=123)
        assert [report_to_dict(r) for r in first] == [report_to_dict(r) for r in second]

    def test_different_seeds_draw_different_inputs(self):
        a = run_suite(seed=1)
        b = run_suite(seed=2)
        assert [report_to_dict(r) for r in a] != [report_to_dict(r) for r in b]

    def test_closed_forms_take_no_field_inverse(self, monkeypatch):
        # Every 1/(1 - xi) comes from a_1 = b/(xi - 1), a sum over one period.
        def refuse(*args):
            raise AssertionError("a closed form inverted a CycloNum")

        monkeypatch.setattr(arith, "_inverse", refuse)
        reports = run_suite()
        assert len(reports) == 333 and all(report.equal for report in reports)

    def test_reports_sorted_by_identity(self):
        ids = [r.identity for r in run_suite(seed=5)]
        assert ids == sorted(ids)


def _old_random_fraction(rng, nonzero=False):
    # The draw as first written: a Fraction built from the two randint calls.
    while True:
        num = rng.randint(-9, 9)
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.randint(1, 9))


class TestRationalsBuiltOnce:
    @pytest.fixture
    def rewraps(self, monkeypatch):
        """Calls of Fraction() with one argument that is a Fraction already."""
        calls = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            if type(args[0] if args else None) is Fraction and (len(args) == 1 or args[1] is None):
                calls.append(args[0])
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        return calls

    @pytest.fixture
    def int_builds(self, monkeypatch):
        """Calls of Fraction() with one int argument made for a site that reads
        only the value's numerator and denominator: ``common_denominator``,
        ``CycloNum.from_rational`` and ``RationalPoly.monomial``."""
        sites = {
            poly.common_denominator.__code__,
            CycloNum.from_rational.__func__.__code__,
            RationalPoly.monomial.__func__.__code__,
        }
        calls = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            if type(args[0] if args else None) is int and (len(args) == 1 or args[1] is None):
                # ``rational``, a comprehension and ``__init__`` can lie between.
                frame = sys._getframe(1)
                for _ in range(4):
                    if frame is None:
                        break
                    if frame.f_code in sites:
                        calls.append((frame.f_code.co_name, args[0]))
                        break
                    frame = frame.f_back
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        return calls

    def test_the_suite_rebuilds_no_fraction(self, rewraps):
        assert len(run_suite(42)) == 333
        assert rewraps == []

    def test_the_suite_builds_no_fraction_for_an_int_it_only_reads(self, int_builds):
        assert len(run_suite(42)) == 333
        assert int_builds == []
        # The count does see these sites: an int coefficient given to
        # ``monomial`` is still made a Fraction, as a polynomial stores one.
        RationalPoly.monomial(2, 5)
        assert int_builds == [("monomial", 5)]

    @pytest.mark.parametrize("name", list(identities.FAMILY_OF))
    def test_each_id_at_its_default_point_rebuilds_no_fraction(self, rewraps, name):
        assert all(report.equal for report in identities.run_identity(name))
        assert rewraps == []

    def test_draws_match_the_built_fractions_draw_for_draw(self):
        for seed in range(300):
            new, old = random.Random(seed), random.Random(seed)
            for nonzero in (False, True, False, True, True):
                drawn = random_fraction(new, nonzero)
                assert type(drawn) is Fraction
                assert drawn == _old_random_fraction(old, nonzero)
            degree = seed % 6
            f = random_poly(new, degree)
            coeffs = [_old_random_fraction(old) for _ in range(degree)]
            coeffs.append(_old_random_fraction(old, nonzero=True))
            assert f == RationalPoly(coeffs) and f.degree == degree
            assert new.getstate() == old.getstate()

    def test_the_draw_table_is_built_on_the_first_draw(self):
        # Commands that never draw (weights, pte-*, bernoulli) import
        # identities all the same, and pay nothing for the table.
        script = "\n".join([
            "import os, random",
            "from digitsum import cli, identities",
            "built = identities._small_fractions.cache_info",
            "assert cli.run(['bernoulli', '--degree', '2', '--output', os.devnull]) == 0",
            "assert built().misses == 0, built()",
            "identities.random_fraction(random.Random(1))",
            "assert built().misses == 1, built()",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(identities.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=30, env=env)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("a, step, r, s, p", [
        (Fraction(1, 3), Fraction(-2, 5), -4, 6, 3),  # negative step
        (Fraction(-7, 2), Fraction(-1, 9), 0, 5, 6),  # negative step
        (Fraction(2, 3), Fraction(1, 4), -3, 5, 0),   # p = 0: s - r
        (Fraction(2, 3), Fraction(1, 4), 2, 2, 4),    # r = s: empty
        (Fraction(5, 6), 3, -2, -2, 0),              # both
        (0, Fraction(-3, 7), -5, 0, 2),
    ])
    def test_faulhaber_direct_side_is_the_fraction_sum(self, a, step, r, s, p):
        report = verify_faulhaber(a, step, r, s, p)
        assert report.equal
        expected = sum((Fraction(a + step * i) ** p for i in range(r, s)), start=Fraction(0))
        assert type(report.rhs) is Fraction and report.rhs == expected

    @pytest.mark.parametrize("a, c", [
        (Fraction(1, 2), Fraction(-2, 3)),
        (Fraction(3, 4), Fraction(3, 4)),  # a == c
        (Fraction(-5), Fraction(1, 6)),
        (Fraction(0), Fraction(0)),
    ])
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_power_diff_quotient_is_the_symmetric_sum(self, a, c, n):
        got = identities._power_diff_quotient(a, c, n)
        expected = sum((a**i * c ** (n - 1 - i) for i in range(n)), start=Fraction(0))
        assert type(got) is Fraction and got == expected
        # (a^n - c^n) / (a - c), and its limit n a^(n-1) when a == c.
        assert got == ((a**n - c**n) / (a - c) if a != c else n * a ** (n - 1) if n else 0)


class TestVerifierContract:
    def test_every_verifier_takes_a_cost_cap(self):
        for name in identities.__all__:
            if name.startswith("verify_"):
                assert "max_cost" in inspect.signature(getattr(identities, name)).parameters, name

    def test_cases_only_draw(self, monkeypatch):
        # With every verifier stubbed out, a charge could only be a case's own.
        stub = lambda *args, **kwargs: IdentityReport("stub", {}, 0, 0, True)  # noqa: E731
        for name in identities.__all__:
            if name.startswith("verify_"):
                monkeypatch.setattr(identities, name, stub)
        monkeypatch.setattr(identities, "charge", lambda *args: pytest.fail("a case charged"))
        assert len(identities.run_suite()) == 333

    def test_bernoulli_verifiers_charge_their_work(self, monkeypatch):
        charges = []
        monkeypatch.setattr(identities, "charge", lambda cost, max_cost=None: charges.append(cost))
        assert verify_faulhaber(1, 2, -3, 4, 5).equal
        assert verify_delta_bernoulli(1, 2, 0, 4).equal
        # B_6's 7 * 8 / 2 steps, then 7 direct terms; B_5's 6 * 7 / 2 steps.
        assert charges == [28, 7, 21]

    def test_faulhaber_checks_the_power_before_charging_the_terms(self):
        # 10^8 direct terms would be refused; the bad power is named first.
        with pytest.raises(ValueError, match="power must be >= 0, got -1"):
            verify_faulhaber(0, 1, 0, 10**8, -1)

    @pytest.mark.parametrize("call", [
        (verify_faulhaber, 0, 1, 0, 10**8, 1),
        (verify_faulhaber, 0, 1, 0, 3, 20000),
        (verify_delta_bernoulli, 0, 1, 0, 100000),
    ], ids=["faulhaber-terms", "faulhaber-degree", "delta-bernoulli-degree"])
    def test_bernoulli_verifiers_refuse_at_once(self, call):
        func, *args = call
        start = time.perf_counter()
        with pytest.raises(CostCapExceeded):
            func(*args)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "name", [name for name, family in identities.FAMILY_OF.items() if "b" in family.defaults[name]]
    )
    def test_every_id_refuses_a_large_base_at_once(self, name):
        # At b = 2000 even the least order costs more than the default cap:
        # a b^2 residue walk, a table of b^(N+1) entries times b, or a grid of
        # b^(2N) joint sums.  Each refusal must come before that work runs.
        least = {"betaconv-dual1": 0, "joint-vanishing": 2}.get(name, 1)
        start = time.perf_counter()
        with pytest.raises(CostCapExceeded):
            identities.run_identity(name, {"b": 2000, "N_list": (least,)})
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("b", [2, 3])
    def test_multisum_prices_its_grid_before_the_closed_side(self, b):
        # 21 order-1 axes pass the order guard, whose bit count (21 at b = 2
        # and 3) is not above the cap's, yet the closed side's sampling fans
        # out over up to b^21 points: the grid is charged before it starts.
        start = time.perf_counter()
        with pytest.raises(CostCapExceeded):
            identities.run_identity("multisum", {"b": b, "N_list": (1,) * 21})
        assert time.perf_counter() - start < 0.5


def sweep_beyond_the_suite():
    """Every id that takes a base, at the bases 7 and 8 the suite never
    reaches: the reports, and each refused run as (id, b, N, seed, error)."""
    reports, refused = [], set()
    for name, family in identities.FAMILY_OF.items():
        if "b" not in family.defaults[name]:
            continue
        for b in (7, 8):
            for N in (1, 2, 3):
                for seed in (0, 1):
                    try:
                        reports += identities.run_identity(name, {"b": b, "N_list": (N,)}, 1, seed, 2**16)
                    except (ValueError, CostCapExceeded) as exc:
                        refused.add((name, b, N, seed, type(exc)))
    return reports, refused


class TestBasesBeyondTheSuite:
    def test_every_id_holds_at_bases_7_and_8(self):
        reports, refused = sweep_beyond_the_suite()
        assert len(reports) == 180 and all(report.equal for report in reports)
        # joint-vanishing needs order >= 2; at N = 3 the two joint grids
        # cost more than the cap.
        only = [("joint-vanishing", 1, ValueError), ("joint-vanishing", 3, CostCapExceeded),
                ("joint-line-general", 3, CostCapExceeded)]
        assert refused == {(name, b, N, seed, error) for name, N, error in only for b in (7, 8) for seed in (0, 1)}

    def test_sweep_catches_a_product_wrong_only_at_large_bases(self, monkeypatch):
        # The seed-42 suite stays all-equal under this mutant: it never goes
        # above b = 6.
        exact = arith._mul_coords

        def off_by_one(b, a, c):
            out = exact(b, a, c)
            if b >= 7:
                out[0] += 1
            return out

        with monkeypatch.context() as patch:
            patch.setattr(arith, "_mul_coords", off_by_one)
            reports, _ = sweep_beyond_the_suite()
            assert len(reports) == 180 and not all(report.equal for report in reports)
        # Nothing the mutant computed outlives it in a cache.
        assert all(report.equal for report in sweep_beyond_the_suite()[0])


class TestIdentityReport:
    def test_equality_ignores_only_the_timing(self):
        timed = IdentityReport("x", {"b": 2}, Fraction(1, 2), Fraction(1, 2), True, 1.5, {"k": 1})
        untimed = IdentityReport(
            identity="x", params={"b": 2}, lhs=Fraction(1, 2), rhs=Fraction(1, 2), equal=True, extras={"k": 1}
        )
        assert timed == untimed and not timed != untimed
        assert timed != IdentityReport("x", {"b": 2}, Fraction(1, 2), Fraction(1, 2), True, 1.5)

    def test_defaults(self):
        first, second = IdentityReport("x", {}, 0, 0, True), IdentityReport("x", {}, 0, 0, True)
        assert first.elapsed_ms is None and first.extras == {} and first.extras is not second.extras

    def test_copy_and_pickle_give_back_an_equal_report(self):
        report = verify_power_sum(2, 1, 0, 1, "N")
        for clone in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
            assert clone == report and clone.elapsed_ms == report.elapsed_ms

    def test_fields_are_read_only(self):
        report = IdentityReport("x", {}, 0, 0, True)
        with pytest.raises(AttributeError):
            report.equal = False
        with pytest.raises(AttributeError):
            del report.equal
        assert report.equal is True

    def test_never_equal_to_a_plain_tuple(self):
        report = IdentityReport("x", {"b": 2}, 1, 1, True)
        assert report != tuple(report) and tuple(report) != report
        assert not report == tuple(report) and not tuple(report) == report
        assert len(report) == 7

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(IdentityReport("x", {}, 0, 0, True))

    def test_repr_names_every_field(self):
        assert repr(IdentityReport("x", {"b": 2}, 1, 1, True)) == (
            "IdentityReport(identity='x', params={'b': 2}, lhs=1, rhs=1, equal=True, elapsed_ms=None, extras={})"
        )


class TestSerialization:
    def test_scalar_forms(self):
        assert scalar_to_json(Fraction(3, 4)) == "3/4"
        assert scalar_to_json(Fraction(5)) == "5"
        assert scalar_to_json(7) == 7
        assert scalar_to_json(True) is True
        assert scalar_to_json(xi(3)) == {"b": 3, "coeffs": ["0", "1"]}
        assert scalar_to_json([Fraction(1, 2), 3]) == ["1/2", 3]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cyclo_coordinates_print_as_fractions(self, data):
        b = data.draw(st.integers(2, 12))
        nums = data.draw(st.lists(st.integers(-50, 50), min_size=euler_phi(b), max_size=euler_phi(b)))
        den = data.draw(st.integers(1, 60))
        value = CycloNum.from_integers(b, nums, den)
        assert scalar_to_json(value) == {"b": b, "coeffs": [str(c) for c in value.coeffs]}

    @pytest.mark.parametrize("value,coeffs", [
        (CycloNum.from_integers(6, [2, 3], 6), ["1/3", "1/2"]),
        (CycloNum.from_integers(5, [-4, 0, 6, 3], 6), ["-2/3", "0", "1", "1/2"]),
        (CycloNum.zero(7), ["0"] * 6),
    ])
    def test_cyclo_coordinates_reduce_one_by_one(self, value, coeffs):
        assert scalar_to_json(value)["coeffs"] == coeffs

    @settings(max_examples=100, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers(-(2**70), 2**70)
        | st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)),
        lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple),
        max_leaves=20,
    ))
    def test_nested_scalars_keep_their_forms(self, value):
        def reference(v):
            if isinstance(v, Fraction):
                return str(v)
            if isinstance(v, (bool, int)) or v is None:
                return v
            return [reference(item) for item in v]

        # json.dumps tells True from 1, which == does not.
        assert json.dumps(scalar_to_json(value)) == json.dumps(reference(value))

    # The JSON writer's domain exactly: no value prints as its str.
    @pytest.mark.parametrize("value", [RationalPoly([1, Fraction(-1, 2)]), object(), {1: "a"}, [{"a": {2}}]],
                             ids=["poly", "opaque", "int-key", "nested-set"])
    def test_values_outside_the_domain_are_a_type_error(self, value):
        with pytest.raises(TypeError):
            scalar_to_json(value)

    @pytest.mark.parametrize("value", ["N", 1.5, -0.0, {"a": 1}, {"a": [None, {"b": "c"}]}], ids=repr)
    def test_plain_json_values_map_to_themselves(self, value):
        assert scalar_to_json(value) == value

    @pytest.mark.parametrize("value", [float("nan"), [float("inf")], {"a": -float("inf")}], ids=repr)
    def test_non_finite_float_is_a_value_error(self, value):
        with pytest.raises(ValueError):
            scalar_to_json(value)

    def test_timing_suppressed_by_default(self):
        report = verify_power_sum(2, 1, 0, 1, "N")
        assert report.elapsed_ms is not None
        assert report_to_dict(report)["elapsed_ms"] is None
        assert report_to_dict(report, include_timing=True)["elapsed_ms"] > 0
