"""Brute-force versus closed-form certificates for every summation identity.

Each ``verify_*`` function evaluates one identity both ways in exact
arithmetic and returns an :class:`IdentityReport` whose ``equal`` flag means
literal equality, never tolerance.  :func:`run_suite` executes the full
deterministic verification schedule used by ``digitsum verify --all``.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .arith import CycloNum, a_constant, xi, xi_power_table
from .bernoulli import bernoulli_poly, delta_n_bernoulli, faulhaber_sum
from .cost import charge
from .digits import combine_buckets, digit_sums, digit_weighted_sum
from .findiff import forward_diff_n, lhs_sum, weighted_rhs
from .poly import RationalPoly
from .weights import (
    PolyOverCyclo,
    alpha_moment0,
    alpha_moment1,
    alpha_table,
    beta_from_convolution,
    beta_moment0,
    beta_moment1,
    beta_table,
    xi_from_convolution,
)

__all__ = [
    "DEFAULT_SEED",
    "IdentityReport",
    "MultiIndexConfig",
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
    "run_suite",
    "report_to_dict",
    "scalar_to_json",
]

DEFAULT_SEED = 42


@dataclass
class IdentityReport:
    """Outcome of one exact identity check."""

    identity: str
    params: dict
    lhs: object
    rhs: object
    equal: bool
    elapsed_ms: float | None = None
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MultiIndexConfig:
    """Parameters of an r-fold summation: orders, scales, and offsets."""

    b: int
    N_list: tuple[int, ...]
    y_list: tuple[Fraction, ...]
    x_list: tuple[Fraction, ...] | None = None
    x: Fraction | None = None

    def __post_init__(self) -> None:
        if self.b < 2:
            raise ValueError(f"base must be >= 2, got {self.b}")
        if not self.N_list:
            raise ValueError("need at least one summation index")
        if any(N < 1 for N in self.N_list):
            raise ValueError("all orders must be >= 1")
        if len(self.y_list) != len(self.N_list):
            raise ValueError("y_list length must match N_list")
        if self.x_list is not None and len(self.x_list) != len(self.N_list):
            raise ValueError("x_list length must match N_list")

    @property
    def r(self) -> int:
        return len(self.N_list)

    @property
    def total_order(self) -> int:
        return sum(self.N_list)


def _exact_equal(a, b) -> bool:
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_exact_equal(u, v) for u, v in zip(a, b))
    return a == b


def _report(identity: str, params: dict, lhs, rhs, start: float, extras=None) -> IdentityReport:
    return IdentityReport(
        identity=identity,
        params=params,
        lhs=lhs,
        rhs=rhs,
        equal=_exact_equal(lhs, rhs),
        elapsed_ms=(time.perf_counter() - start) * 1e3,
        extras=extras or {},
    )


# ---------------------------------------------------------------------------
# Single-sum identity and its power-sum corollaries


def verify_difference_identity(
    b: int, N: int, f: RationalPoly, x, y, max_cost: int | None = None
) -> IdentityReport:
    """Digit-weighted sum of f versus its beta-weighted difference form."""
    if N < 1:
        raise ValueError(f"order must be >= 1, got {N}")
    start = time.perf_counter()
    x = Fraction(x)
    y = Fraction(y)
    lhs = lhs_sum(f, x, y, b, N, max_cost)
    rhs = weighted_rhs(f, x, y, b, N, max_cost)
    params = {"b": b, "N": N, "x": x, "y": y, "f": list(f.coeffs)}
    return _report("difference-identity", params, lhs, rhs, start)


def verify_power_sum(
    b: int, N: int, x, y, which: str = "N", max_cost: int | None = None
) -> IdentityReport:
    """Power sums with exponent N or N+1 versus their moment closed forms."""
    if which not in ("N", "N+1"):
        raise ValueError(f"which must be 'N' or 'N+1', got {which!r}")
    if N < 1:
        raise ValueError(f"order must be >= 1, got {N}")
    start = time.perf_counter()
    x = Fraction(x)
    y = Fraction(y)
    p = N if which == "N" else N + 1
    lhs = lhs_sum(RationalPoly.monomial(p), x, y, b, N, max_cost)
    base = beta_moment0(b, N) * (y**N * math.factorial(N))
    if N % 2:
        base = -base
    if which == "N":
        rhs = base
    else:
        root = xi(b)
        growth = Fraction(b**N - 1, b - 1)
        bracket = x + (Fraction(b, 2) + root / (CycloNum.one(b) - root)) * (y * growth)
        rhs = base * (N + 1) * bracket
    params = {"b": b, "N": N, "x": x, "y": y, "which": which}
    return _report(f"power-sum-{'n' if which == 'N' else 'n1'}", params, lhs, rhs, start)


# ---------------------------------------------------------------------------
# Weight-table identities


def verify_moment(b: int, N: int, order: int) -> IdentityReport:
    """Closed-form moment of the order-(N-1) beta table versus the direct sum."""
    if order not in (0, 1):
        raise ValueError(f"only moments 0 and 1 have closed forms, got {order}")
    start = time.perf_counter()
    table = beta_table(b, N - 1)
    lhs = table.moment(order)
    rhs = beta_moment0(b, N) if order == 0 else beta_moment1(b, N)
    return _report(f"moment{order}", {"b": b, "N": N}, lhs, rhs, start)


def verify_betaconv_dual1(b: int, N: int, max_cost: int | None = None) -> IdentityReport:
    """Binomial-convolution route to the first b^N beta weights."""
    start = time.perf_counter()
    lhs = list(beta_from_convolution(b, N, max_cost))
    rhs = list(beta_table(b, N).values[: b**N])
    return _report("betaconv-dual1", {"b": b, "N": N}, lhs, rhs, start)


def verify_betaconv_dual2(b: int, N: int, max_cost: int | None = None) -> IdentityReport:
    """Recovering the digit weights from the beta table, entrywise."""
    start = time.perf_counter()
    count = b**N
    charge(count * (N + 1), max_cost)
    powers = xi_power_table(b)
    lhs = [xi_from_convolution(b, N, n) for n in range(count)]
    rhs = [powers[s % b] for s in digit_sums(b, count)]
    return _report("betaconv-dual2", {"b": b, "N": N}, lhs, rhs, start)


def verify_beta_alpha_reduction(N: int) -> IdentityReport:
    """Base-2 beta table versus the integer alpha table, entrywise."""
    start = time.perf_counter()
    lhs = list(beta_table(2, N).values)
    rhs = list(alpha_table(N).values)
    return _report("beta-alpha-reduction", {"N": N}, lhs, rhs, start)


def verify_alpha_moment(N: int, order: int) -> IdentityReport:
    """Alpha-table moments versus their closed forms."""
    if order not in (0, 1):
        raise ValueError(f"only moments 0 and 1 have closed forms, got {order}")
    start = time.perf_counter()
    table = alpha_table(N - 1)
    lhs = Fraction(table.moment(order))
    rhs = Fraction(alpha_moment0(N)) if order == 0 else alpha_moment1(N)
    return _report(f"alpha-moment{order}", {"N": N}, lhs, rhs, start)


# ---------------------------------------------------------------------------
# Multi-index sums


def _axis_ranges(config: MultiIndexConfig) -> list[int]:
    return [config.b**N for N in config.N_list]


def verify_multisum(
    config: MultiIndexConfig, f: RationalPoly, max_cost: int | None = None
) -> IdentityReport:
    """r-fold digit-weighted sum of f versus the weighted difference tensor."""
    if config.x is None:
        raise ValueError("config.x is required")
    start = time.perf_counter()
    b = config.b
    sizes = _axis_ranges(config)
    kranges = [size - N for size, N in zip(sizes, config.N_list)]
    grid = math.prod(sizes)
    inner = math.prod(N + 1 for N in config.N_list)
    charge(2 * grid + math.prod(kranges) * inner, max_cost)

    lhs = digit_weighted_sum(
        f, b, [(N, 0, yj) for N, yj in zip(config.N_list, config.y_list)], config.x
    )

    # The closed side samples f itself rather than reusing the brute sum.
    values = {
        tup: f(config.x + sum(n * yj for n, yj in zip(tup, config.y_list)))
        for tup in itertools.product(*(range(size) for size in sizes))
    }
    tables = [beta_table(b, N - 1).values for N in config.N_list]
    diff_coeffs = [
        [math.comb(N, t) * (-1) ** (N - t) for t in range(N + 1)] for N in config.N_list
    ]
    rhs = CycloNum.zero(b)
    for ktup in itertools.product(*(range(kr) for kr in kranges)):
        weight = tables[0][ktup[0]]
        for j in range(1, config.r):
            weight = weight * tables[j][ktup[j]]
        inner_total = Fraction(0)
        for ttup in itertools.product(*(range(N + 1) for N in config.N_list)):
            c = 1
            for j, t in enumerate(ttup):
                c *= diff_coeffs[j][t]
            inner_total += c * values[tuple(k + t for k, t in zip(ktup, ttup))]
        rhs = rhs + weight * inner_total
    if config.total_order % 2:
        rhs = -rhs

    params = {
        "b": b,
        "N_list": list(config.N_list),
        "x": config.x,
        "y_list": list(config.y_list),
        "f": list(f.coeffs),
    }
    return _report("multisum", params, lhs, rhs, start)


def verify_multi_power_sum(config: MultiIndexConfig, max_cost: int | None = None) -> IdentityReport:
    """r-fold power sum versus the product closed form; at base 2 the
    sign/exponent rewriting of that closed form is checked for consistency."""
    if config.x is None:
        raise ValueError("config.x is required")
    start = time.perf_counter()
    b = config.b
    sizes = _axis_ranges(config)
    charge(math.prod(sizes), max_cost)
    total_N = config.total_order

    lhs = digit_weighted_sum(
        RationalPoly.monomial(total_N),
        b,
        [(N, 0, yj) for N, yj in zip(config.N_list, config.y_list)],
        config.x,
    )

    root = xi(b)
    scale = Fraction(b) ** sum(N * (N + 1) // 2 for N in config.N_list)
    yprod = math.prod(
        (yj**N for yj, N in zip(config.y_list, config.N_list)), start=Fraction(1)
    )
    rhs = (root - 1) ** (-total_N) * (scale * yprod * math.factorial(total_N))

    extras = {}
    equal = _exact_equal(lhs, rhs)
    if b == 2:
        base2 = Fraction(2) ** sum(N * (N - 1) // 2 for N in config.N_list)
        base2 *= yprod * math.factorial(total_N)
        if total_N % 2:
            base2 = -base2
        extras["base2_form"] = base2
        equal = equal and rhs == base2
    params = {
        "b": b,
        "N_list": list(config.N_list),
        "x": config.x,
        "y_list": list(config.y_list),
    }
    report = _report("multi-power-sum", params, lhs, rhs, start, extras)
    report.equal = equal
    return report


# ---------------------------------------------------------------------------
# Mixed digit-sum/linear sums


def mixed_power_sum(b: int, N: int, l: int, x, y, max_cost: int | None = None) -> CycloNum:
    """Brute-force digit-weighted power sum with digit-scaled argument:
    sum over n < b^N of xi^s(n) * (s(n) x + n y)^l."""
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if N < 0 or l < 0:
        raise ValueError(f"need N >= 0 and l >= 0, got N={N}, l={l}")
    charge(b**N, max_cost)
    return digit_weighted_sum(RationalPoly.monomial(l), b, [(N, x, y)])


def verify_mixed_vanishing(b: int, N: int, l: int, x, y, max_cost: int | None = None) -> IdentityReport:
    """The mixed sum vanishes whenever the power is below the order."""
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
    if N < 1:
        raise ValueError(f"order must be >= 1, got {N}")
    start = time.perf_counter()
    x = Fraction(x)
    y = Fraction(y)
    lhs = mixed_power_sum(b, N, N, x, y, max_cost)
    root = xi(b)
    prod = math.prod((x + b**l * y for l in range(N)), start=Fraction(1))
    rhs = (root - 1) ** (-N) * (Fraction(b) ** N * math.factorial(N) * prod)
    return _report("mixed-sum-closed-form", {"b": b, "N": N, "x": x, "y": y}, lhs, rhs, start)


def verify_mixed_recurrence(b: int, N: int, l: int, x, y, max_cost: int | None = None) -> IdentityReport:
    """One step of the block recurrence relating order N to order N-1."""
    if N < 1:
        raise ValueError(f"order must be >= 1, got {N}")
    if l < 0:
        raise ValueError(f"power must be >= 0, got {l}")
    start = time.perf_counter()
    x = Fraction(x)
    y = Fraction(y)
    lhs = mixed_power_sum(b, N, l, x, y, max_cost)
    shift = x + b ** (N - 1) * y
    rhs = CycloNum.zero(b)
    for m in range(l):
        term = a_constant(b, l - m) * (math.comb(l, m) * shift ** (l - m))
        rhs = rhs + term * mixed_power_sum(b, N - 1, m, x, y, max_cost)
    return _report("mixed-sum-recurrence", {"b": b, "N": N, "l": l, "x": x, "y": y}, lhs, rhs, start)


def verify_multi_mixed_sum(config: MultiIndexConfig, max_cost: int | None = None) -> IdentityReport:
    """r-fold mixed power sum versus (b/(xi-1))^sum(N) sum(N)! prod(x_j + b^i y_j)."""
    if config.x_list is None:
        raise ValueError("config.x_list is required")
    start = time.perf_counter()
    b = config.b
    sizes = _axis_ranges(config)
    charge(math.prod(sizes), max_cost)
    total_N = config.total_order

    lhs = digit_weighted_sum(
        RationalPoly.monomial(total_N),
        b,
        list(zip(config.N_list, config.x_list, config.y_list)),
    )

    root = xi(b)
    prod = Fraction(1)
    for xj, yj, N in zip(config.x_list, config.y_list, config.N_list):
        for i in range(N):
            prod *= xj + b**i * yj
    rhs = (root - 1) ** (-total_N) * (
        Fraction(b) ** total_N * math.factorial(total_N) * prod
    )
    params = {
        "b": b,
        "N_list": list(config.N_list),
        "x_list": list(config.x_list),
        "y_list": list(config.y_list),
    }
    return _report("multi-mixed-sum", params, lhs, rhs, start)


# ---------------------------------------------------------------------------
# The two-variable family with entangled digit sums


def joint_weight_polynomial(
    m: int, N: int, p: int, x_list: Sequence, b: int = 2, max_cost: int | None = None
) -> PolyOverCyclo:
    """Expand the m-fold sum of xi^s(i_1+...+i_m) (t + sum i_j x_j)^p as an
    exact polynomial in t."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if N < 1:
        raise ValueError(f"order must be >= 1, got {N}")
    if p < 0:
        raise ValueError(f"power must be >= 0, got {p}")
    if len(x_list) != m:
        raise ValueError(f"need {m} scale values, got {len(x_list)}")
    xs = [Fraction(v) for v in x_list]
    size = b**N
    charge(size**m * (p + 1), max_cost)
    sums = digit_sums(b, m * (size - 1) + 1)
    # With base = sum i_j x_j = B / den for an integer B, the coefficient of
    # t^q is C(p, q) sum xi^s(i_1+...+i_m) B^(p-q) / den^(p-q): bucket B^k
    # by residue for every k, then combine once per power of t.
    den = math.lcm(*(v.denominator for v in xs))
    scales = [v.numerator * (den // v.denominator) for v in xs]
    outer = [(0, 0)]
    for scale in scales[:-1]:
        outer = [(B + i * scale, total + i) for B, total in outer for i in range(size)]
    last = scales[-1]
    buckets = [[0] * b for _ in range(p + 1)]
    for B0, total0 in outer:
        for i in range(size):
            B = B0 + i * last
            r = sums[total0 + i] % b
            v = 1
            for row in buckets:
                row[r] += v
                v *= B
    coeffs = [
        combine_buckets(b, [math.comb(p, q) * v for v in buckets[p - q]], den ** (p - q))
        for q in range(p + 1)
    ]
    return PolyOverCyclo(b, coeffs)


def verify_joint_vanishing(N: int, p: int, m: int = 2, b: int = 2, max_cost: int | None = None) -> IdentityReport:
    """All coefficients vanish when the power is at most N-2."""
    if not 0 <= p <= N - 2:
        raise ValueError(f"need 0 <= p <= N-2, got p={p}, N={N}")
    start = time.perf_counter()
    x_list = [Fraction(j + 1) for j in range(m)]
    poly = joint_weight_polynomial(m, N, p, x_list, b, max_cost)
    lhs = [poly.coeff(q) for q in range(p + 1)]
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
    if N < 1:
        raise ValueError(f"order must be >= 1, got {N}")
    x1 = Fraction(x1)
    x2 = Fraction(x2)
    t = Fraction(t)
    if x1 == x2:
        raise ValueError("x1 and x2 must differ (the closed form divides by x1 - x2)")
    start = time.perf_counter()
    poly = joint_weight_polynomial(2, N, N, (x1, x2), 2, max_cost)
    slope, const = joint_line_coeffs_base2(N, x1, x2)
    lhs = poly.evaluate(t)
    rhs = slope * t + const
    extras = {"slope_brute": poly.coeff(1), "slope_closed": slope}
    report = _report("joint-line-base2", {"N": N, "x1": x1, "x2": x2, "t": t}, lhs, rhs, start, extras)
    report.equal = (
        report.equal
        and poly.degree <= 1
        and poly.coeff(1) == slope
        and poly.coeff(0) == const
    )
    return report


def verify_joint_line_general(b: int, N: int, x1, x2, max_cost: int | None = None) -> IdentityReport:
    """General-base two-variable sum at p = N: brute-force line coefficients
    versus the moment-based closed forms.

    A conjectured alternative expression for the constant term is also
    evaluated and carried in ``extras`` for the record, but ``equal`` gates
    only on the engine's own derivation matching brute force.
    """
    if N < 1:
        raise ValueError(f"order must be >= 1, got {N}")
    x1 = Fraction(x1)
    x2 = Fraction(x2)
    if x1 == x2:
        raise ValueError("x1 and x2 must differ (the closed form divides by x1 - x2)")
    start = time.perf_counter()
    poly = joint_weight_polynomial(2, N, N, (x1, x2), b, max_cost)
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
    halfN = Fraction(N, 2)
    const_derived = (
        (m0 * (halfN * big_x2 + half) + m1 * big_x2) * x2**N
        - (m0 * (halfN * big_x1 - half) + m1 * big_x1) * x1**N
        + root * ((m0 * (b**N * big_x2 + halfN * big_x1 - half) + m1 * big_x1) * x1**N)
        - root * ((m0 * (b**N * big_x1 + halfN * big_x2 + half) + m1 * big_x2) * x2**N)
    ) * fact

    # Conjectured alternative form of the constant term, evaluated for the
    # record only; it does not gate equality.
    const_conjectured = (
        (m0 * ((half + halfN) * big_x2) + m1) * (x2**N * big_x2)
        - (m0 * (halfN * big_x1 - half) + m1 * big_x1) * x1**N
        + root
        * (
            (m0 * (b**N * big_x2 + halfN * big_x1 - half) + m1 * big_x1) * x1**N
            - root * ((m0 * (b**N * big_x1 + half + halfN * big_x2) + m1 * big_x2) * x2**N)
        )
    ) * fact

    lhs = [poly.coeff(0), poly.coeff(1)]
    rhs = [const_derived, slope_closed]
    extras = {
        "constant_conjectured": const_conjectured,
        "conjectured_matches_brute": poly.coeff(0) == const_conjectured,
    }
    report = _report(
        "joint-line-general", {"b": b, "N": N, "x1": x1, "x2": x2}, lhs, rhs, start, extras
    )
    report.equal = report.equal and poly.degree <= 1
    return report


# ---------------------------------------------------------------------------
# Bernoulli-side identities and the partition theorem in scalar form


def verify_faulhaber(a, step, r: int, s: int, p: int) -> IdentityReport:
    """Faulhaber formula versus direct summation."""
    start = time.perf_counter()
    a = Fraction(a)
    step = Fraction(step)
    lhs = faulhaber_sum(a, step, r, s, p)
    rhs = sum(((a + step * i) ** p for i in range(r, s)), start=Fraction(0))
    params = {"a": a, "step": step, "r": r, "s": s, "p": p}
    return _report("faulhaber", params, lhs, rhs, start)


def verify_delta_bernoulli(a, step, k: int, N: int) -> IdentityReport:
    """Closed form for iterated differences of a Bernoulli polynomial versus
    actually iterating the difference operator."""
    start = time.perf_counter()
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
    if N < 1:
        raise ValueError(f"order must be >= 1, got {N}")
    if f.degree >= N:
        raise ValueError(f"need deg f < N, got degree {f.degree}")
    start = time.perf_counter()
    x = Fraction(x)
    y = Fraction(y)
    charge(b**N, max_cost)
    lhs = digit_weighted_sum(f, b, [(N, x, y)])
    rhs = CycloNum.zero(b)
    params = {"b": b, "N": N, "x": x, "y": y, "f": list(f.coeffs)}
    return _report("generalized-pte", params, lhs, rhs, start)


# ---------------------------------------------------------------------------
# Deterministic suite


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


def run_suite(seed: int = DEFAULT_SEED, max_cost: int | None = None) -> list[IdentityReport]:
    """Run the full verification schedule; deterministic for a fixed seed.

    Reports come back sorted by identity id (stable within an id), so two
    runs with the same seed produce identical output.
    """
    rng = random.Random(seed)
    reports: list[IdentityReport] = []

    def add(rep: IdentityReport, draw: int | None = None) -> None:
        rep.params["seed"] = seed
        if draw is not None:
            rep.params["draw"] = draw
        reports.append(rep)

    # Single-sum identity across bases and orders.
    for b in (2, 3, 4, 5):
        for N in (1, 2, 3, 4):
            if b**N > 4096:
                continue
            for draw in range(5):
                x, y = random_fraction(rng), random_fraction(rng)
                f = random_poly(rng, N + 2)
                add(verify_difference_identity(b, N, f, x, y, max_cost), draw)

    # Power-sum corollaries.
    for b in (2, 3):
        for N in (1, 2, 3):
            for draw in range(2):
                x, y = random_fraction(rng), random_fraction(rng)
                add(verify_power_sum(b, N, x, y, "N", max_cost), draw)
                add(verify_power_sum(b, N, x, y, "N+1", max_cost), draw)

    # Weight-table moments and convolutions.
    for b in range(2, 7):
        for N in (1, 2, 3, 4):
            add(verify_moment(b, N, 0))
            add(verify_moment(b, N, 1))
    for b in (2, 3, 4):
        for N in (1, 2, 3):
            add(verify_betaconv_dual1(b, N, max_cost))
            add(verify_betaconv_dual2(b, N, max_cost))
    for N in range(6):
        add(verify_beta_alpha_reduction(N))
    for N in (1, 2, 3, 4, 5):
        add(verify_alpha_moment(N, 0))
        add(verify_alpha_moment(N, 1))

    # Multi-index sums.
    multi_orders = {1: [(2,), (4,)], 2: [(1, 2), (2, 3)], 3: [(1, 1, 1), (2, 2, 2)]}
    for b in (2, 3):
        for r, order_lists in multi_orders.items():
            for N_list in order_lists:
                for draw in range(2):
                    x = random_fraction(rng)
                    ys = tuple(random_fraction(rng, nonzero=True) for _ in range(r))
                    config = MultiIndexConfig(b=b, N_list=N_list, y_list=ys, x=x)
                    add(verify_multi_power_sum(config, max_cost), draw)
    for b in (2, 3):
        for N_list in ((1, 1), (1, 2)):
            x = random_fraction(rng)
            ys = tuple(random_fraction(rng, nonzero=True) for _ in range(2))
            f = random_poly(rng, sum(N_list))
            config = MultiIndexConfig(b=b, N_list=N_list, y_list=ys, x=x)
            add(verify_multisum(config, f, max_cost))

    # Mixed digit-sum/linear sums.
    for b in (2, 3, 4):
        for N in (1, 2, 3, 4):
            x, y = random_fraction(rng), random_fraction(rng)
            for l in range(N):
                add(verify_mixed_vanishing(b, N, l, x, y, max_cost))
            add(verify_mixed_closed_form(b, N, x, y, max_cost))
    for b in (2, 3):
        for N in (2, 3):
            for l in (2, 3):
                x, y = random_fraction(rng), random_fraction(rng)
                add(verify_mixed_recurrence(b, N, l, x, y, max_cost))
    for b in (2, 3):
        for N_list in ((1,), (3,), (1, 1), (1, 2)):
            xs = tuple(random_fraction(rng) for _ in N_list)
            ys = tuple(random_fraction(rng, nonzero=True) for _ in N_list)
            config = MultiIndexConfig(b=b, N_list=N_list, y_list=ys, x_list=xs)
            add(verify_multi_mixed_sum(config, max_cost))

    # The entangled two-variable family.
    for N in (2, 3, 4):
        for p in range(N - 1):
            add(verify_joint_vanishing(N, p, 2, 2, max_cost))
    for N in (1, 2, 3, 4):
        for draw in range(5):
            x1 = random_fraction(rng)
            x2 = random_fraction(rng)
            while x2 == x1:
                x2 = random_fraction(rng)
            t = random_fraction(rng)
            add(verify_joint_line_base2(N, x1, x2, t, max_cost), draw)
    for b, N in ((2, 2), (3, 1), (3, 2)):
        x1 = random_fraction(rng)
        x2 = random_fraction(rng)
        while x2 == x1:
            x2 = random_fraction(rng)
        add(verify_joint_line_general(b, N, x1, x2, max_cost))

    # Bernoulli machinery.
    for draw in range(25):
        a = random_fraction(rng)
        step = random_fraction(rng, nonzero=True)
        lo = rng.randint(-6, 6)
        hi = lo + rng.randint(0, 12)
        p = rng.randint(0, 6)
        add(verify_faulhaber(a, step, lo, hi, p), draw)
    for N in range(7):
        a = random_fraction(rng)
        step = random_fraction(rng, nonzero=True)
        k = rng.randint(-3, 3)
        add(verify_delta_bernoulli(a, step, k, N))

    # Scalar form of the partition theorem.
    for b, N in ((2, 2), (2, 3), (2, 4), (3, 2)):
        for draw in range(2):
            x, y = random_fraction(rng), random_fraction(rng, nonzero=True)
            f = random_poly(rng, N - 1)
            add(verify_generalized_pte(b, N, f, x, y, max_cost), draw)

    reports.sort(key=lambda rep: rep.identity)
    return reports


# ---------------------------------------------------------------------------
# Serialization


def scalar_to_json(value):
    """JSON-ready form: rationals as 'p/q' strings, CycloNums as coefficient
    lists with their root order, sequences elementwise."""
    if isinstance(value, CycloNum):
        return {"b": value.b, "coeffs": [str(c) for c in value.coeffs]}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, int)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
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
