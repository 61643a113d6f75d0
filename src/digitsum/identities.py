"""Brute-force versus closed-form certificates for every summation identity.

Each ``verify_*`` function evaluates one identity both ways in exact
arithmetic and returns an :class:`IdentityReport` whose ``equal`` flag means
literal equality plus the identity's extra condition, never tolerance; it
is decided once, in :func:`_report`.  :data:`FAMILIES` is the one table of
how each identity's inputs are drawn: :func:`run_suite` walks its full
deterministic schedule for ``digitsum verify --all``, and
:func:`run_identity` runs one id from its default point for
``digitsum verify --identity``.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .arith import CycloNum, a_constant, combine_buckets, xi, xi_power_table
from .bernoulli import bernoulli_poly, delta_n_bernoulli, faulhaber_sum
from .cost import bernoulli_steps, block_size, charge, table_size
from .digits import check_block, digit_sums, digit_weighted_sum, power_rows
from .findiff import beta_weighted_sum, forward_diff_n, forward_differences, lhs_sum, weighted_rhs
from .poly import RationalPoly
from .weights import (
    alpha_moment0,
    alpha_moment1,
    alpha_table,
    beta_columns,
    beta_from_convolution,
    beta_moment0,
    beta_moment1,
    beta_table,
    from_columns,
)

__all__ = [
    "DEFAULT_SEED",
    "IdentityReport",
    "verify_difference_identity",
    "verify_power_sum",
    "verify_moment",
    "verify_betaconv_dual1",
    "verify_betaconv_dual2",
    "verify_beta_alpha_reduction",
    "verify_alpha_moment",
    "verify_multisum",
    "verify_multi_power_sum",
    "mixed_power_sum",
    "verify_mixed_vanishing",
    "verify_mixed_closed_form",
    "verify_mixed_recurrence",
    "verify_multi_mixed_sum",
    "joint_weight_polynomial",
    "verify_joint_vanishing",
    "verify_joint_line_base2",
    "joint_line_coeffs_base2",
    "verify_joint_line_general",
    "verify_faulhaber",
    "verify_delta_bernoulli",
    "verify_generalized_pte",
    "random_fraction",
    "random_poly",
    "IdentityFamily",
    "FAMILIES",
    "FAMILY_OF",
    "run_suite",
    "run_identity",
    "report_to_dict",
    "scalar_to_json",
]

DEFAULT_SEED = 42


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact identity check."""

    identity: str
    params: dict
    lhs: object
    rhs: object
    equal: bool
    elapsed_ms: float | None = field(default=None, compare=False)
    extras: dict = field(default_factory=dict)


def _report(
    identity: str, params: dict, lhs, rhs, start: float, extras=None, also: bool = True
) -> IdentityReport:
    """The one place a verdict is decided: the two sides are literally equal
    (lists element by element) and the identity's extra condition holds."""
    return IdentityReport(
        identity=identity,
        params=params,
        lhs=lhs,
        rhs=rhs,
        equal=(lhs == rhs) and also,
        elapsed_ms=(time.perf_counter() - start) * 1e3,
        extras=extras or {},
    )


# ---------------------------------------------------------------------------
# Single-sum identity and its power-sum corollaries


def verify_difference_identity(
    b: int, N: int, f: RationalPoly, x, y, max_cost: int | None = None
) -> IdentityReport:
    """Digit-weighted sum of f versus its beta-weighted difference form."""
    check_block(b, N, 1)
    start = time.perf_counter()
    x = Fraction(x)
    y = Fraction(y)
    lhs = lhs_sum(f, x, y, b, N, max_cost)
    rhs = weighted_rhs(f, x, y, b, N, max_cost)
    params = {"b": b, "N": N, "x": x, "y": y, "f": list(f.coeffs)}
    return _report("difference-identity", params, lhs, rhs, start)


def _moment_bracket(m0, m1, N: int, shift, X):
    """m0 (N/2 X + shift) + m1 X: the first-moment bracket of the order-(N+1)
    power sum and of the two-variable line's constant term."""
    return m0 * (Fraction(N, 2) * X + shift) + m1 * X


def verify_power_sum(
    b: int, N: int, x, y, which: str = "N", max_cost: int | None = None
) -> IdentityReport:
    """Power sums with exponent N or N+1 versus their moment closed forms."""
    if which not in ("N", "N+1"):
        raise ValueError(f"which must be 'N' or 'N+1', got {which!r}")
    check_block(b, N, 1)
    block_size(b, N, max_cost)  # refuses a huge N before the degree-N monomial is built
    start = time.perf_counter()
    x = Fraction(x)
    y = Fraction(y)
    p = N if which == "N" else N + 1
    lhs = lhs_sum(RationalPoly.monomial(p), x, y, b, N, max_cost)
    scale = math.factorial(N) * (-y) ** N
    m0 = beta_moment0(b, N)
    if which == "N":
        rhs = m0 * scale
    else:
        rhs = _moment_bracket(m0, beta_moment1(b, N), N, x, y) * (scale * (N + 1))
    params = {"b": b, "N": N, "x": x, "y": y, "which": which}
    return _report(f"power-sum-{'n' if which == 'N' else 'n1'}", params, lhs, rhs, start)


# ---------------------------------------------------------------------------
# Weight-table identities


def verify_moment(b: int, N: int, order: int, max_cost: int | None = None) -> IdentityReport:
    """Closed-form moment of the order-(N-1) beta table versus the direct sum."""
    if order not in (0, 1):
        raise ValueError(f"only moments 0 and 1 have closed forms, got {order}")
    check_block(b, N, 1)
    start = time.perf_counter()
    charge(table_size(b, N - 1, max_cost), max_cost)
    table = beta_columns(b, N - 1)
    if order:
        table = [map(operator.mul, range(len(col)), col) for col in table]
    lhs = CycloNum.from_integers(b, [sum(col) for col in table])
    rhs = beta_moment0(b, N) if order == 0 else beta_moment1(b, N)
    return _report(f"moment{order}", {"b": b, "N": N}, lhs, rhs, start)


def verify_betaconv_dual1(b: int, N: int, max_cost: int | None = None) -> IdentityReport:
    """Binomial-convolution route to the first b^N beta weights."""
    check_block(b, N)
    start = time.perf_counter()
    charge(table_size(b, N, max_cost), max_cost)
    lhs = list(beta_from_convolution(b, N, max_cost))
    rhs = list(from_columns(b, [col[: b**N] for col in beta_columns(b, N)]))
    return _report("betaconv-dual1", {"b": b, "N": N}, lhs, rhs, start)


def verify_betaconv_dual2(b: int, N: int, max_cost: int | None = None) -> IdentityReport:
    """Recovering the digit weights from the beta table: (1-z)^N times the
    order-(N-1) table, as N difference passes over the zero-padded table."""
    check_block(b, N, 1)
    start = time.perf_counter()
    count = block_size(b, N, max_cost)
    charge(count * (N + 1), max_cost)
    powers = xi_power_table(b)
    pad = [0] * N
    columns = [forward_differences(pad + list(col) + pad, N) for col in beta_columns(b, N - 1)]
    lhs = list(from_columns(b, columns))
    rhs = [powers[s % b] for s in digit_sums(b, count)]
    return _report("betaconv-dual2", {"b": b, "N": N}, lhs, rhs, start)


def verify_beta_alpha_reduction(N: int, max_cost: int | None = None) -> IdentityReport:
    """Base-2 beta table versus the integer alpha table, entrywise."""
    check_block(2, N)
    start = time.perf_counter()
    charge(table_size(2, N, max_cost), max_cost)
    lhs = list(beta_table(2, N))
    rhs = list(alpha_table(N))
    return _report("beta-alpha-reduction", {"N": N}, lhs, rhs, start)


def verify_alpha_moment(N: int, order: int, max_cost: int | None = None) -> IdentityReport:
    """Alpha-table moments versus their closed forms."""
    if order not in (0, 1):
        raise ValueError(f"only moments 0 and 1 have closed forms, got {order}")
    check_block(2, N, 1)
    start = time.perf_counter()
    charge(table_size(2, N - 1, max_cost), max_cost)
    lhs = Fraction(sum(k**order * v for k, v in enumerate(alpha_table(N - 1))))
    rhs = Fraction(alpha_moment0(N)) if order == 0 else alpha_moment1(N)
    return _report(f"alpha-moment{order}", {"N": N}, lhs, rhs, start)


# ---------------------------------------------------------------------------
# Multi-index sums


def _check_axes(b: int, N_list, x, y_list, x_list=None) -> tuple:
    """The r-fold sums' usage check: at least one axis, each with an order >= 1
    and a scale.  Returns x, y_list and x_list (None if not given) as
    Fractions, as the single-axis verifiers take theirs."""
    check_block(b)
    if not N_list:
        raise ValueError("need at least one summation index")
    if any(N < 1 for N in N_list):
        raise ValueError("all orders must be >= 1")
    if len(y_list) != len(N_list):
        raise ValueError("y_list length must match N_list")
    if x_list is not None and len(x_list) != len(N_list):
        raise ValueError("x_list length must match N_list")
    return Fraction(x), list(map(Fraction, y_list)), x_list and list(map(Fraction, x_list))


def verify_multisum(
    b: int, N_list, f: RationalPoly, x, y_list, max_cost: int | None = None
) -> IdentityReport:
    """r-fold digit-weighted sum of f versus its beta-weighted difference form."""
    x, y_list, _ = _check_axes(b, N_list, x, y_list)
    start = time.perf_counter()
    charge(block_size(b, sum(N_list), max_cost), max_cost)
    lhs = digit_weighted_sum(f, b, [(N, 0, y) for N, y in zip(N_list, y_list)], x)
    # The closed side samples f itself rather than reusing the brute sum.
    rhs = beta_weighted_sum(f, b, list(zip(N_list, y_list)), x)
    params = {"b": b, "N_list": list(N_list), "x": x, "y_list": y_list, "f": list(f.coeffs)}
    return _report("multisum", params, lhs, rhs, start)


def verify_multi_power_sum(b: int, N_list, x, y_list, max_cost: int | None = None) -> IdentityReport:
    """r-fold power sum versus the mixed closed form with every x_j = 0; at
    base 2 the sign/exponent rewriting of that closed form is checked for
    consistency."""
    x, y_list, _ = _check_axes(b, N_list, x, y_list)
    start = time.perf_counter()
    charge(block_size(b, sum(N_list), max_cost), max_cost)
    total = sum(N_list)
    axes = [(N, 0, y) for N, y in zip(N_list, y_list)]
    lhs = digit_weighted_sum(RationalPoly.monomial(total), b, axes, x)
    rhs = _mixed_closed_form(b, axes)
    extras = {}
    if b == 2:
        yprod = math.prod((y**N for N, y in zip(N_list, y_list)), start=Fraction(1))
        base2 = Fraction(2) ** sum(N * (N - 1) // 2 for N in N_list) * yprod * math.factorial(total)
        extras["base2_form"] = -base2 if total % 2 else base2
    also = b != 2 or rhs == extras["base2_form"]
    params = {"b": b, "N_list": list(N_list), "x": x, "y_list": y_list}
    return _report("multi-power-sum", params, lhs, rhs, start, extras, also)


# ---------------------------------------------------------------------------
# Mixed digit-sum/linear sums


def mixed_power_sum(b: int, N: int, l: int, x, y, max_cost: int | None = None) -> CycloNum:
    """Brute-force digit-weighted power sum with digit-scaled argument:
    sum over n < b^N of xi^s(n) * (s(n) x + n y)^l."""
    check_block(b, N)
    if l < 0:
        raise ValueError(f"power must be >= 0, got {l}")
    charge(block_size(b, N, max_cost), max_cost)
    return digit_weighted_sum(RationalPoly.monomial(l), b, [(N, x, y)])


def _mixed_closed_form(b: int, axes) -> CycloNum:
    """(b/(xi-1))^T T! prod_j prod_{i<N_j} (x_j + b^i y_j) over the axes
    (N_j, x_j, y_j), with T = sum N_j."""
    total = sum(N for N, _, _ in axes)
    prod = math.prod((xj + b**i * yj for N, xj, yj in axes for i in range(N)), start=Fraction(1))
    return a_constant(b, 1) ** total * (math.factorial(total) * prod)


def verify_mixed_vanishing(b: int, N: int, l: int, x, y, max_cost: int | None = None) -> IdentityReport:
    """The mixed sum vanishes whenever the power is below the order."""
    check_block(b, N, 1)
    if not 0 <= l < N:
        raise ValueError(f"need 0 <= l < N, got l={l}, N={N}")
    start = time.perf_counter()
    x = Fraction(x)
    y = Fraction(y)
    lhs = mixed_power_sum(b, N, l, x, y, max_cost)
    rhs = CycloNum.zero(b)
    return _report("mixed-sum-vanishing", {"b": b, "N": N, "l": l, "x": x, "y": y}, lhs, rhs, start)


def verify_mixed_closed_form(b: int, N: int, x, y, max_cost: int | None = None) -> IdentityReport:
    """The critical mixed sum versus b^N N!/(xi-1)^N prod (x + b^l y)."""
    check_block(b, N, 1)
    start = time.perf_counter()
    x = Fraction(x)
    y = Fraction(y)
    lhs = mixed_power_sum(b, N, N, x, y, max_cost)
    rhs = _mixed_closed_form(b, [(N, x, y)])
    return _report("mixed-sum-closed-form", {"b": b, "N": N, "x": x, "y": y}, lhs, rhs, start)


def verify_mixed_recurrence(b: int, N: int, l: int, x, y, max_cost: int | None = None) -> IdentityReport:
    """One step of the block recurrence relating order N to order N-1."""
    check_block(b, N, 1)
    if l < 0:
        raise ValueError(f"power must be >= 0, got {l}")
    start = time.perf_counter()
    # The order-N sum and the l order-(N-1) sums, b^N + l b^(N-1) summands, charged
    # together once: they go straight to the kernel, not through mixed_power_sum.
    charge(block_size(b, N - 1, max_cost) * (b + l), max_cost)
    x = Fraction(x)
    y = Fraction(y)
    lhs = digit_weighted_sum(RationalPoly.monomial(l), b, [(N, x, y)])
    shift = x + b ** (N - 1) * y
    rhs = CycloNum.zero(b)
    for m in range(l):
        term = a_constant(b, l - m) * (math.comb(l, m) * shift ** (l - m))
        rhs = rhs + term * digit_weighted_sum(RationalPoly.monomial(m), b, [(N - 1, x, y)])
    return _report("mixed-sum-recurrence", {"b": b, "N": N, "l": l, "x": x, "y": y}, lhs, rhs, start)


def verify_multi_mixed_sum(b: int, N_list, x_list, y_list, max_cost: int | None = None) -> IdentityReport:
    """r-fold mixed power sum versus (b/(xi-1))^sum(N) sum(N)! prod(x_j + b^i y_j)."""
    _, y_list, x_list = _check_axes(b, N_list, 0, y_list, x_list)
    start = time.perf_counter()
    charge(block_size(b, sum(N_list), max_cost), max_cost)
    axes = list(zip(N_list, x_list, y_list))
    lhs = digit_weighted_sum(RationalPoly.monomial(sum(N_list)), b, axes)
    rhs = _mixed_closed_form(b, axes)
    params = {"b": b, "N_list": list(N_list), "x_list": x_list, "y_list": y_list}
    return _report("multi-mixed-sum", params, lhs, rhs, start)


# ---------------------------------------------------------------------------
# The two-variable family with entangled digit sums


def joint_weight_polynomial(
    N: int, p: int, x_list: Sequence, b: int = 2, max_cost: int | None = None
) -> tuple[CycloNum, ...]:
    """Expand the m-fold sum of xi^s(i_1+...+i_m) (t + sum i_j x_j)^p, m the
    number of scales in ``x_list``, as an exact polynomial in t: its p+1
    coefficients, constant term first, from each residue class's power sums
    in ``digits.power_rows``."""
    m = len(x_list)
    if m < 1:
        raise ValueError("need at least one scale value")
    check_block(b, N, 1)
    if p < 0:
        raise ValueError(f"power must be >= 0, got {p}")
    xs = [Fraction(v) for v in x_list]
    charge(block_size(b, m * N, max_cost) * (p + 1), max_cost)
    size = b**N
    sums = digit_sums(b, m * (size - 1) + 1)
    # With base = sum i_j x_j = B / den for an integer B, the coefficient of
    # t^q is C(p, q) sum xi^s(i_1+...+i_m) B^(p-q) / den^(p-q): class B by
    # residue, take each class's power sums, then combine once per power of t.
    den = math.lcm(*(v.denominator for v in xs))
    scales = [v.numerator * (den // v.denominator) for v in xs]
    outer = [(0, 0)]
    for scale in scales[:-1]:
        outer = [(B + i * scale, total + i) for B, total in outer for i in range(size)]
    last = scales[-1]
    classes = [[] for _ in range(b)]
    for B0, total0 in outer:
        for i in range(size):
            classes[sums[total0 + i] % b].append(B0 + i * last)
    rows = power_rows(map(Counter, classes), p)
    return tuple(
        combine_buckets(b, [math.comb(p, q) * row[p - q] for row in rows], den ** (p - q))
        for q in range(p + 1)
    )


def verify_joint_vanishing(N: int, p: int, m: int = 2, b: int = 2, max_cost: int | None = None) -> IdentityReport:
    """All coefficients vanish when the power is at most N-2."""
    check_block(b, N, 2)
    if not 0 <= p <= N - 2:
        raise ValueError(f"need 0 <= p <= N-2, got p={p}, N={N}")
    start = time.perf_counter()
    x_list = [Fraction(j + 1) for j in range(m)]
    lhs = list(joint_weight_polynomial(N, p, x_list, b, max_cost))
    rhs = [CycloNum.zero(b)] * (p + 1)
    params = {"m": m, "b": b, "N": N, "p": p, "x_list": x_list}
    return _report("joint-vanishing", params, lhs, rhs, start)


def _power_diff_quotient(a: Fraction, c: Fraction, n: int) -> Fraction:
    # (a^n - c^n) / (a - c) written as the symmetric sum, so it stays exact
    # even when a == c.
    total = Fraction(0)
    for i in range(n):
        total += a**i * c ** (n - 1 - i)
    return total


def joint_line_coeffs_base2(N: int, x1, x2) -> tuple[Fraction, Fraction]:
    """Slope and constant of the base-2 two-variable sum at power p = N."""
    x1 = Fraction(x1)
    x2 = Fraction(x2)
    lead = Fraction(math.factorial(N) * 2 ** (N * (N - 1) // 2))
    if N % 2:
        lead = -lead
    slope = lead * 2 * _power_diff_quotient(x1, x2, N)
    const = lead * (
        2**N * _power_diff_quotient(x1, x2, N + 1)
        + x1 * x2 * (2**N - 1) * _power_diff_quotient(x1, x2, N - 1)
    )
    return slope, const


def verify_joint_line_base2(N: int, x1, x2, t, max_cost: int | None = None) -> IdentityReport:
    """Base-2 two-variable sum at p = N versus its explicit linear form."""
    check_block(2, N, 1)
    x1 = Fraction(x1)
    x2 = Fraction(x2)
    t = Fraction(t)
    if x1 == x2:
        raise ValueError("x1 and x2 must differ (the closed form divides by x1 - x2)")
    start = time.perf_counter()
    coeffs = joint_weight_polynomial(N, N, (x1, x2), 2, max_cost)
    slope, const = joint_line_coeffs_base2(N, x1, x2)
    lhs = sum((c * t**q for q, c in enumerate(coeffs)), CycloNum.zero(2))
    rhs = slope * t + const
    extras = {"slope_brute": coeffs[1], "slope_closed": slope}
    line = not any(coeffs[2:]) and coeffs[1] == slope and coeffs[0] == const
    params = {"N": N, "x1": x1, "x2": x2, "t": t}
    return _report("joint-line-base2", params, lhs, rhs, start, extras, line)


def verify_joint_line_general(b: int, N: int, x1, x2, max_cost: int | None = None) -> IdentityReport:
    """General-base two-variable sum at p = N: brute-force line coefficients
    versus the moment-based closed forms.

    A conjectured alternative expression for the constant term is also
    evaluated and carried in ``extras`` for the record, but ``equal`` gates
    only on the engine's own derivation matching brute force.
    """
    check_block(b, N, 1)
    x1 = Fraction(x1)
    x2 = Fraction(x2)
    if x1 == x2:
        raise ValueError("x1 and x2 must differ (the closed form divides by x1 - x2)")
    start = time.perf_counter()
    coeffs = joint_weight_polynomial(N, N, (x1, x2), b, max_cost)
    root = xi(b)
    one = CycloNum.one(b)
    m0 = beta_moment0(b, N)
    m1 = beta_moment1(b, N)
    sign = -1 if N % 2 else 1
    fact = sign * math.factorial(N)

    slope_closed = m0 * (one - root) * (fact * _power_diff_quotient(x2, x1, N))

    big_x1 = x1 / (x2 - x1)
    big_x2 = x2 / (x2 - x1)
    half = Fraction(1, 2)
    # Three brackets both constants share; `top` is the README's T4.
    low = _moment_bracket(m0, m1, N, -half, big_x1) * x1**N
    mid = _moment_bracket(m0, m1, N, b**N * big_x2 - half, big_x1) * x1**N
    top = _moment_bracket(m0, m1, N, b**N * big_x1 + half, big_x2) * x2**N
    derived_lead = _moment_bracket(m0, m1, N, half, big_x2) * x2**N
    const_derived = (derived_lead - low + root * mid - root * top) * fact

    # Conjectured alternative form of the constant term, evaluated for the
    # record only; it does not gate equality.
    conjectured_lead = (m0 * ((half + Fraction(N, 2)) * big_x2) + m1) * (x2**N * big_x2)
    const_conjectured = (conjectured_lead - low + root * (mid - root * top)) * fact

    lhs = [coeffs[0], coeffs[1]]
    rhs = [const_derived, slope_closed]
    extras = {
        "constant_conjectured": const_conjectured,
        "conjectured_matches_brute": coeffs[0] == const_conjectured,
    }
    params = {"b": b, "N": N, "x1": x1, "x2": x2}
    return _report("joint-line-general", params, lhs, rhs, start, extras, not any(coeffs[2:]))


# ---------------------------------------------------------------------------
# Bernoulli-side identities and the partition theorem in scalar form


def verify_faulhaber(a, step, r: int, s: int, p: int, max_cost: int | None = None) -> IdentityReport:
    """Faulhaber formula versus direct summation."""
    start = time.perf_counter()
    charge(bernoulli_steps(p + 1) + max(s - r, 0), max_cost)  # B_(p+1), then the s - r terms
    a = Fraction(a)
    step = Fraction(step)
    lhs = faulhaber_sum(a, step, r, s, p)
    rhs = sum(((a + step * i) ** p for i in range(r, s)), start=Fraction(0))
    params = {"a": a, "step": step, "r": r, "s": s, "p": p}
    return _report("faulhaber", params, lhs, rhs, start)


def verify_delta_bernoulli(a, step, k: int, N: int, max_cost: int | None = None) -> IdentityReport:
    """Closed form for iterated differences of a Bernoulli polynomial versus
    actually iterating the difference operator."""
    start = time.perf_counter()
    charge(bernoulli_steps(N + 1), max_cost)
    a = Fraction(a)
    step = Fraction(step)
    lhs = delta_n_bernoulli(a, step, k, N)
    rhs = forward_diff_n(bernoulli_poly(N + 1), a, step, k, N)
    params = {"a": a, "step": step, "k": k, "N": N}
    return _report("delta-bernoulli", params, lhs, rhs, start)


def verify_generalized_pte(
    b: int, N: int, f: RationalPoly, x, y, max_cost: int | None = None
) -> IdentityReport:
    """The digit-weighted sum of f(s(n) x + n y) vanishes for deg f < N;
    this is the scalar identity behind the equal-power-sum partitions."""
    check_block(b, N, 1)
    if f.degree >= N:
        raise ValueError(f"need deg f < N, got degree {f.degree}")
    start = time.perf_counter()
    x = Fraction(x)
    y = Fraction(y)
    charge(block_size(b, N, max_cost), max_cost)
    lhs = digit_weighted_sum(f, b, [(N, x, y)])
    rhs = CycloNum.zero(b)
    params = {"b": b, "N": N, "x": x, "y": y, "f": list(f.coeffs)}
    return _report("generalized-pte", params, lhs, rhs, start)


# ---------------------------------------------------------------------------
# The identity table: one sampling schedule for the suite and single runs


def random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    # Small-height rationals: numerator in [-9, 9], denominator in [1, 9].
    while True:
        num = rng.randint(-9, 9)
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.randint(1, 9))


def random_poly(rng: random.Random, degree: int) -> RationalPoly:
    coeffs = [random_fraction(rng) for _ in range(degree)]
    coeffs.append(random_fraction(rng, nonzero=True))
    return RationalPoly(coeffs)


class IdentityFamily(NamedTuple):
    """Identities checked together from one draw of their free inputs.

    ``case(rng, point, max_cost)`` draws the free inputs for one point and
    returns its reports.  Cases only draw; each verifier charges its own
    work.  A case draws f, whose degree the point sets, before any charge:
    :func:`run_identity` refuses an oversized block by bit length before
    the case runs, and the suite's points are small.  A
    point is a dict of fixed parameters (``b``, ``N`` or ``N_list``, ``l``,
    ...).  A free input the point sets to a value replaces its draw; the
    draw is still made, so later draws do not shift.
    A point whose ``"id"`` names one id gets only that id's reports.
    ``points`` and ``draws`` (per point) are the suite's schedule, in rng
    order.  ``defaults`` maps each id the family serves to its point for
    :func:`run_identity`; that point's keys are the inputs the id accepts.

    Cases call the ``verify_*`` functions by module-global name, never
    through a stored reference, so replacing a module attribute (as a
    tracer does) reaches every call.
    """

    case: Callable[[random.Random, dict, int | None], list[IdentityReport]]
    points: tuple[dict, ...]
    draws: int
    defaults: dict[str, dict]


def _grid(**axes) -> tuple[dict, ...]:
    """Every combination of the axis values, the first axis outermost."""
    return tuple(dict(zip(axes, values)) for values in itertools.product(*axes.values()))


def _given(point: dict, key: str, drawn):
    return drawn if point.get(key) is None else point[key]


def _wants(point: dict, name: str) -> bool:
    return point.get("id", name) == name


def _xy(rng: random.Random, p: dict, nonzero_y: bool = False) -> tuple:
    x = _given(p, "x", random_fraction(rng))
    return x, _given(p, "y", random_fraction(rng, nonzero=nonzero_y))


def _difference_case(rng, p, max_cost):
    x, y = _xy(rng, p)
    f = random_poly(rng, p["N"] + 2)
    return [verify_difference_identity(p["b"], p["N"], f, x, y, max_cost)]


def _power_sum_case(rng, p, max_cost):
    x, y = _xy(rng, p)
    return [
        verify_power_sum(p["b"], p["N"], x, y, which, max_cost)
        for which, name in (("N", "power-sum-n"), ("N+1", "power-sum-n1"))
        if _wants(p, name)
    ]


def _moment_case(rng, p, max_cost):
    return [verify_moment(p["b"], p["N"], k, max_cost) for k in (0, 1) if _wants(p, f"moment{k}")]


def _betaconv_case(rng, p, max_cost):
    reports = []
    if _wants(p, "betaconv-dual1"):
        reports.append(verify_betaconv_dual1(p["b"], p["N"], max_cost))
    if _wants(p, "betaconv-dual2"):
        reports.append(verify_betaconv_dual2(p["b"], p["N"], max_cost))
    return reports


def _alpha_moment_case(rng, p, max_cost):
    return [verify_alpha_moment(p["N"], k, max_cost) for k in (0, 1) if _wants(p, f"alpha-moment{k}")]


def _x_ys(rng: random.Random, p: dict) -> tuple:
    x = _given(p, "x", random_fraction(rng))
    return x, _given(p, "y_list", tuple(random_fraction(rng, nonzero=True) for _ in p["N_list"]))


def _multi_power_case(rng, p, max_cost):
    return [verify_multi_power_sum(p["b"], p["N_list"], *_x_ys(rng, p), max_cost)]


def _multisum_case(rng, p, max_cost):
    x, ys = _x_ys(rng, p)
    f = random_poly(rng, sum(p["N_list"]))
    return [verify_multisum(p["b"], p["N_list"], f, x, ys, max_cost)]


def _mixed_case(rng, p, max_cost):
    b, N = p["b"], p["N"]
    x, y = _xy(rng, p)
    reports = []
    if _wants(p, "mixed-sum-vanishing"):
        # The suite checks every power l < N; a point with an ``l`` key checks
        # only that power, N-1 when it is None.
        powers = range(N) if "l" not in p else [_given(p, "l", N - 1)]
        reports += [verify_mixed_vanishing(b, N, l, x, y, max_cost) for l in powers]
    if _wants(p, "mixed-sum-closed-form"):
        reports.append(verify_mixed_closed_form(b, N, x, y, max_cost))
    return reports


def _recurrence_case(rng, p, max_cost):
    x, y = _xy(rng, p)
    return [verify_mixed_recurrence(p["b"], p["N"], _given(p, "l", p["N"]), x, y, max_cost)]


def _multi_mixed_case(rng, p, max_cost):
    xs = _given(p, "x_list", tuple(random_fraction(rng) for _ in p["N_list"]))
    ys = _given(p, "y_list", tuple(random_fraction(rng, nonzero=True) for _ in p["N_list"]))
    return [verify_multi_mixed_sum(p["b"], p["N_list"], xs, ys, max_cost)]


def _joint_vanishing_case(rng, p, max_cost):
    N = p["N"]
    return [verify_joint_vanishing(N, _given(p, "l", N - 2), 2, p["b"], max_cost)]


def _distinct_pair(rng, p) -> tuple[Fraction, Fraction]:
    x1 = _given(p, "x1", random_fraction(rng))
    x2 = _given(p, "x2", random_fraction(rng))
    # Only a drawn x2 is redrawn; equal given values reach the verifier's check.
    while p.get("x2") is None and x2 == x1:
        x2 = random_fraction(rng)
    return x1, x2


def _joint_line_base2_case(rng, p, max_cost):
    x1, x2 = _distinct_pair(rng, p)
    t = _given(p, "t", random_fraction(rng))
    return [verify_joint_line_base2(p["N"], x1, x2, t, max_cost)]


def _joint_line_general_case(rng, p, max_cost):
    x1, x2 = _distinct_pair(rng, p)
    return [verify_joint_line_general(p["b"], p["N"], x1, x2, max_cost)]


def _faulhaber_case(rng, p, max_cost):
    a = random_fraction(rng)
    step = random_fraction(rng, nonzero=True)
    lo = rng.randint(-6, 6)
    hi = lo + rng.randint(0, 12)
    return [verify_faulhaber(a, step, lo, hi, rng.randint(0, 6), max_cost)]


def _delta_bernoulli_case(rng, p, max_cost):
    a, step = _xy(rng, p, nonzero_y=True)
    return [verify_delta_bernoulli(a, step, _given(p, "k", rng.randint(-3, 3)), p["N"], max_cost)]


def _generalized_pte_case(rng, p, max_cost):
    x, y = _xy(rng, p, nonzero_y=True)
    f = random_poly(rng, p["N"] - 1)
    return [verify_generalized_pte(p["b"], p["N"], f, x, y, max_cost)]


_BN = {"b": 2, "N": 2}
_BNXY = {**_BN, "x": None, "y": None}
_MULTI = {"b": 2, "N_list": (1, 2), "x": None, "y_list": None}

# Each row: case, the suite's points, its draws per point, each id's default point.
FAMILIES: tuple[IdentityFamily, ...] = (
    IdentityFamily(_difference_case, _grid(b=(2, 3, 4, 5), N=(1, 2, 3, 4)), 5,
                   {"difference-identity": _BNXY}),
    IdentityFamily(_power_sum_case, _grid(b=(2, 3), N=(1, 2, 3)), 2,
                   {"power-sum-n": _BNXY, "power-sum-n1": _BNXY}),
    IdentityFamily(_moment_case, _grid(b=range(2, 7), N=(1, 2, 3, 4)), 1,
                   {"moment0": _BN, "moment1": _BN}),
    IdentityFamily(_betaconv_case, _grid(b=(2, 3, 4), N=(1, 2, 3)), 1,
                   {"betaconv-dual1": _BN, "betaconv-dual2": _BN}),
    IdentityFamily(lambda rng, p, max_cost: [verify_beta_alpha_reduction(p["N"], max_cost)],
                   _grid(N=range(6)), 1,
                   {"beta-alpha-reduction": {"N": 3}}),
    IdentityFamily(_alpha_moment_case, _grid(N=(1, 2, 3, 4, 5)), 1,
                   {"alpha-moment0": {"N": 2}, "alpha-moment1": {"N": 2}}),
    IdentityFamily(_multi_power_case,
                   _grid(b=(2, 3), N_list=((2,), (4,), (1, 2), (2, 3), (1, 1, 1), (2, 2, 2))), 2,
                   {"multi-power-sum": _MULTI}),
    IdentityFamily(_multisum_case, _grid(b=(2, 3), N_list=((1, 1), (1, 2))), 1, {"multisum": _MULTI}),
    IdentityFamily(_mixed_case, _grid(b=(2, 3, 4), N=(1, 2, 3, 4)), 1,
                   {"mixed-sum-vanishing": {**_BNXY, "l": None}, "mixed-sum-closed-form": _BNXY}),
    IdentityFamily(_recurrence_case, _grid(b=(2, 3), N=(2, 3), l=(2, 3)), 1,
                   {"mixed-sum-recurrence": {**_BNXY, "l": None}}),
    IdentityFamily(_multi_mixed_case, _grid(b=(2, 3), N_list=((1,), (3,), (1, 1), (1, 2))), 1,
                   {"multi-mixed-sum": {"b": 2, "N_list": (1, 2), "x_list": None, "y_list": None}}),
    IdentityFamily(_joint_vanishing_case,
                   tuple({"b": 2, "N": N, "l": l} for N in (2, 3, 4) for l in range(N - 1)), 1,
                   {"joint-vanishing": {"b": 2, "N": 3, "l": None}}),
    IdentityFamily(_joint_line_base2_case, _grid(N=(1, 2, 3, 4)), 5,
                   {"joint-line-base2": {"N": 2, "x1": None, "x2": None, "t": None}}),
    IdentityFamily(_joint_line_general_case, ({"b": 2, "N": 2}, {"b": 3, "N": 1}, {"b": 3, "N": 2}), 1,
                   {"joint-line-general": {**_BN, "x1": None, "x2": None}}),
    IdentityFamily(_faulhaber_case, ({},), 25, {"faulhaber": {}}),
    IdentityFamily(_delta_bernoulli_case, _grid(N=range(7)), 1,
                   {"delta-bernoulli": {"N": 3, "x": None, "y": None, "k": 0}}),
    IdentityFamily(_generalized_pte_case, (*_grid(b=(2,), N=(2, 3, 4)), {"b": 3, "N": 2}), 2,
                   {"generalized-pte": {"b": 2, "N": 3, "x": None, "y": None}}),
)

FAMILY_OF = {name: family for family in FAMILIES for name in family.defaults}


def run_suite(seed: int = DEFAULT_SEED, max_cost: int | None = None) -> list[IdentityReport]:
    """Run every family at every point of its schedule; deterministic for a
    fixed seed.

    Reports come back sorted by identity id (stable within an id), so two
    runs with the same seed produce identical output.
    """
    rng = random.Random(seed)
    reports: list[IdentityReport] = []
    for family in FAMILIES:
        for point in family.points:
            for draw in range(family.draws):
                for rep in family.case(rng, point, max_cost):
                    rep.params["seed"] = seed
                    if family.draws > 1:
                        rep.params["draw"] = draw
                    reports.append(rep)
    reports.sort(key=lambda rep: rep.identity)
    return reports


def run_identity(
    name: str, given: dict | None = None, draws: int = 1, seed: int = DEFAULT_SEED, max_cost: int | None = None
) -> list[IdentityReport]:
    """Run one id from its default point with the non-None ``given`` values
    laid over it; keys the id does not take are ignored.  An ``N_list`` of
    one order sets ``N`` for an id of order N.  The point runs ``draws``
    times when the suite draws its family more than once, else once; the
    count is charged first, after a block whose bit length alone exceeds the
    cap is refused.  Usage errors name the CLI flags."""
    family = FAMILY_OF.get(name)
    if family is None:
        raise ValueError(f"unknown identity {name!r}")
    if draws < 1:
        raise ValueError(f"--draws must be >= 1, got {draws}")
    defaults = family.defaults[name]
    given = {key: value for key, value in (given or {}).items() if value is not None}
    if "N" in defaults and "N_list" in given:
        orders = given.pop("N_list")
        if len(orders) != 1:
            raise ValueError(f"{name} takes one order, got --order {','.join(map(str, orders))}")
        given["N"] = orders[0]
    point = {key: given.get(key, value) for key, value in defaults.items()} | {"id": name}
    if "b" in point:
        check_block(point["b"])
        block_size(point["b"], point["N"] if "N" in point else sum(point["N_list"]), max_cost)
    draws = draws if family.draws > 1 else 1
    charge(draws, max_cost)
    rng = random.Random(seed)
    reports = [rep for _ in range(draws) for rep in family.case(rng, point, max_cost)]
    for rep in reports:
        rep.params["seed"] = seed
    return reports


# ---------------------------------------------------------------------------
# Serialization


def scalar_to_json(value):
    """JSON-ready form: rationals as 'p/q' strings, CycloNums as coefficient
    lists with their root order, sequences elementwise, anything else as its
    str."""
    kind = type(value)
    if kind is Fraction:
        return str(value)
    if kind is int or kind is bool or value is None:
        return value
    if kind is CycloNum:
        # Each coordinate as str(Fraction(n, den)) gives it, without the Fraction.
        den = value.den
        coeffs = []
        for n in value.nums:
            g = math.gcd(n, den)
            coeffs.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return {"b": value.b, "coeffs": coeffs}
    if kind is list or kind is tuple:
        return [scalar_to_json(v) for v in value]
    return str(value)


def report_to_dict(report: IdentityReport, include_timing: bool = False) -> dict:
    """Plain-dict form of a report; timing is null unless requested so that
    identical runs serialize to identical bytes."""
    out = {
        "identity": report.identity,
        "params": {k: scalar_to_json(v) for k, v in report.params.items()},
        "lhs": scalar_to_json(report.lhs),
        "rhs": scalar_to_json(report.rhs),
        "equal": report.equal,
        "elapsed_ms": report.elapsed_ms if include_timing else None,
    }
    if report.extras:
        out["extras"] = {k: scalar_to_json(v) for k, v in report.extras.items()}
    return out
