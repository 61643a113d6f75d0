"""The verifier: hand-checked example values, vanishing laws, and report plumbing."""

import inspect
import json
import math
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from digitsum import arith, identities
from digitsum.arith import CycloNum, a_constant, euler_phi, xi
from digitsum.bernoulli import bernoulli_numbers, bernoulli_poly, delta_n_bernoulli, faulhaber_sum
from digitsum.cost import CostCapExceeded
from digitsum.findiff import forward_diff_n, lhs_sum
from digitsum.identities import (
    IdentityReport,
    random_fraction,
    random_poly,
    joint_line_coeffs_base2,
    joint_weight_polynomial,
    report_to_dict,
    run_suite,
    mixed_power_sum,
    scalar_to_json,
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
        monkeypatch.setattr("digitsum.identities.charge", record)
        monkeypatch.setattr("digitsum.findiff.charge", record)
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
        # The degree-N monomial holds N + 1 Fractions; lhs_sum charges only
        # after it is built.
        monkeypatch.setattr(RationalPoly, "monomial", lambda *args: pytest.fail("built before the check"))
        with pytest.raises(CostCapExceeded):
            verify_power_sum(2, 3_000_000, 0, 1)


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
        assert charges == [b**N + l * b ** (N - 1)]


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
        from digitsum.digits import digit_sum
        from digitsum.arith import xi_power_table

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
        # B_6's 7 * 8 / 2 steps and 7 direct terms; B_5's 6 * 7 / 2 steps.
        assert charges == [28 + 7, 21]

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

    @pytest.mark.parametrize("value", [RationalPoly([1, Fraction(-1, 2)]), "N", 1.5, {"a": 1}], ids=repr)
    def test_other_values_print_as_str(self, value):
        assert scalar_to_json(value) == str(value)

    def test_timing_suppressed_by_default(self):
        report = verify_power_sum(2, 1, 0, 1, "N")
        assert report.elapsed_ms is not None
        assert report_to_dict(report)["elapsed_ms"] is None
        assert report_to_dict(report, include_timing=True)["elapsed_ms"] > 0
