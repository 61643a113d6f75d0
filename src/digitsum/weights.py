"""Weight tables for the digit-weighted finite-difference identities.

Alpha tables are the integer base-2 weights (rows of OEIS A131823),
generated by expanding prod_{l<N} (1 + z^(2^l))^(N-l).  Beta tables are
their Q(xi) generalization to an arbitrary base b: the product over
l = 0..N of a geometric factor (1 - z^(b^l))/(1 - z) times the bracket
whose coefficients are the partial sums 1, 1+xi, 1+xi+xi^2, ... placed at
multiples of b^l.  The top partial sum vanishes, which is what pins the
table length to b^(N+1) - N - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import CycloNum, xi, xi_power_table
from .cost import charge
from .digits import digit_sums

__all__ = [
    "WeightTable",
    "alpha_table",
    "beta_table",
    "alpha_moment0",
    "alpha_moment1",
    "beta_moment0",
    "beta_moment1",
    "beta_from_convolution",
    "xi_from_convolution",
]


@dataclass(frozen=True)
class WeightTable:
    """A finite weight sequence: integer alphas (base 2) or CycloNum betas."""

    b: int
    N: int
    kind: str
    values: tuple

    def __post_init__(self) -> None:
        if self.kind not in ("alpha", "beta"):
            raise ValueError(f"unknown table kind {self.kind!r}")
        if self.kind == "alpha" and self.b != 2:
            raise ValueError("alpha tables exist only for base 2")
        expected = self.b ** (self.N + 1) - self.N - 1
        if len(self.values) != expected:
            raise ValueError(
                f"{self.kind} table for b={self.b}, N={self.N} must have "
                f"{expected} entries, got {len(self.values)}"
            )

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int):
        return self.values[index]

    def moment(self, order: int):
        """Sum of k^order * value over the table (0^0 counts as 1)."""
        total = sum(k**order * v for k, v in enumerate(self.values))
        return total


@lru_cache(maxsize=None)
def alpha_table(N: int) -> WeightTable:
    """Integer weights of order N from the base-2 generating product."""
    if N < 0:
        raise ValueError(f"order must be >= 0, got {N}")
    coeffs = [1]
    for l in range(N):
        gap = 2**l
        for _ in range(N - l):
            # multiply by (1 + z^gap)
            nxt = coeffs + [0] * gap
            for i, c in enumerate(coeffs):
                nxt[i + gap] += c
            coeffs = nxt
    assert len(coeffs) == 2 ** (N + 1) - N - 1
    return WeightTable(b=2, N=N, kind="alpha", values=tuple(coeffs))


def _mul_all_ones(coeffs: list[CycloNum], length: int, b: int) -> list[CycloNum]:
    # Multiply by 1 + z + ... + z^(length-1) with a sliding window sum.
    if length == 1:
        return coeffs
    n = len(coeffs)
    out = []
    running = CycloNum.zero(b)
    for i in range(n + length - 1):
        if i < n:
            running = running + coeffs[i]
        if i - length >= 0:
            running = running - coeffs[i - length]
        out.append(running)
    return out


@lru_cache(maxsize=None)
def beta_table(b: int, N: int) -> WeightTable:
    """CycloNum weights of order N from the base-b generating product."""
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if N < 0:
        raise ValueError(f"order must be >= 0, got {N}")
    powers = xi_power_table(b)
    prefix = []
    acc = CycloNum.zero(b)
    for k in range(b):
        acc = acc + powers[k]
        prefix.append(acc)
    # prefix[b-1] vanishes; keep only the nonzero bracket terms.
    bracket = [(k, prefix[k]) for k in range(b) if not prefix[k].is_zero()]
    coeffs = [CycloNum.one(b)]
    for l in range(N + 1):
        gap = b**l
        coeffs = _mul_all_ones(coeffs, gap, b)
        top = bracket[-1][0] * gap
        out = [CycloNum.zero(b)] * (len(coeffs) + top)
        for k, w in bracket:
            off = k * gap
            if k == 0:
                for i, c in enumerate(coeffs):
                    out[i + off] = out[i + off] + c
            else:
                for i, c in enumerate(coeffs):
                    if not c.is_zero():
                        out[i + off] = out[i + off] + c * w
        coeffs = out
    expected = b ** (N + 1) - N - 1
    assert len(coeffs) == expected, (b, N, len(coeffs), expected)
    return WeightTable(b=b, N=N, kind="beta", values=tuple(coeffs))


def alpha_moment0(N: int) -> int:
    """Closed-form sum of the order-(N-1) alpha table: 2^(N(N-1)/2)."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    return 2 ** (N * (N - 1) // 2)


def alpha_moment1(N: int) -> Fraction:
    """Closed-form first moment of the order-(N-1) alpha table."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    return alpha_moment0(N) * (Fraction(2) ** (N - 1) - Fraction(N + 1, 2))


def beta_moment0(b: int, N: int) -> CycloNum:
    """Closed-form sum of the order-(N-1) beta table: b^(N(N+1)/2)/(1-xi)^N."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    root = xi(b)
    scale = Fraction(b) ** (N * (N + 1) // 2)
    return (CycloNum.one(b) - root) ** (-N) * scale


def beta_moment1(b: int, N: int) -> CycloNum:
    """Closed-form first moment of the order-(N-1) beta table."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    root = xi(b)
    growth = Fraction(b**N - 1, b - 1)
    bracket = (Fraction(b, 2) + root / (CycloNum.one(b) - root)) * growth - Fraction(N, 2)
    return beta_moment0(b, N) * bracket


def beta_from_convolution(b: int, N: int, max_cost: int | None = None) -> tuple[CycloNum, ...]:
    """First b^N beta weights of order N via the binomial convolution
    sum_{k<=n} C(n-k+N, N) xi^(digit sum of k).

    The convolution identity covers only this prefix of the full table, so
    a plain tuple is returned rather than a WeightTable.
    """
    if b < 2 or N < 0:
        raise ValueError(f"need base >= 2 and order >= 0, got b={b}, N={N}")
    count = b**N
    charge(count * (count + 1) // 2, max_cost)
    powers = xi_power_table(b)
    weights = [powers[s % b] for s in digit_sums(b, count)]
    out = []
    for n in range(count):
        total = CycloNum.zero(b)
        for k in range(n + 1):
            total = total + weights[k] * math.comb(n - k + N, N)
        out.append(total)
    return tuple(out)


def xi_from_convolution(b: int, N: int, n: int) -> CycloNum:
    """Recover xi^(digit sum of n) from the order-(N-1) beta table via
    sum_k C(N, k) (-1)^k beta_(n-k); out-of-range table entries count as 0."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if not 0 <= n < b**N:
        raise ValueError(f"n must lie in [0, {b**N}), got {n}")
    table = beta_table(b, N - 1).values
    total = CycloNum.zero(b)
    for k in range(min(n, N) + 1):
        idx = n - k
        if idx >= len(table):
            continue
        term = table[idx] * math.comb(N, k)
        total = total - term if k % 2 else total + term
    return total

