"""Weight tables for the digit-weighted finite-difference identities.

Alpha tables are the integer base-2 weights (rows of OEIS A131823),
generated by expanding prod_{l<N} (1 + z^(2^l))^(N-l).  Beta tables are
their Q(xi) generalization to an arbitrary base b: the product over
l = 0..N of a geometric factor (1 - z^(b^l))/(1 - z) times the bracket
whose coefficients are the partial sums 1, 1+xi, 1+xi+xi^2, ... placed at
multiples of b^l.  The top partial sum vanishes, which is what pins the
table length to b^(N+1) - N - 1.  So the order-N table is the order-(N-1)
table times level N's two factors, and the builder extends the cached order
below it by that one level.

Beta tables are expanded on integer power-basis columns, and each level
l (gap g = b^l) is written one g-long block at a time.  The geometric
factor gives a window W = lo + z^g hi with lo and hi g long, so block j of
W times the bracket is V_j = P_j lo + P_(j-1) hi.  The partial sums follow
P_k = P_(k-1) + xi^k, hence V_0 = lo and V_j = V_(j-1) + xi^(j-1) U with
U = xi lo + hi; each xi^(j-1) U comes from the one before by one
multiplication by xi: a shift of the coordinates and one fold through
xi^phi(b).

The steps xi^(j-1) U are the blocks of W times the level's digit factor
sum_k xi^k z^(k g), but they are summed straight back into W times the
bracket, and W keeps its factor (1 - z^g)/(1 - z) uncancelled.  So the
builder never forms the digit-weight series times 1/(1-z)^(N+1), which is
the convolution route, and never reads a digit sum; the convolution duals
check the tables against them.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .arith import CycloNum, a_constant, xi_power_coords
from .cost import block_size, charge, table_size
from .digits import check_block, digit_sums

__all__ = [
    "alpha_table",
    "beta_table",
    "alpha_moment0",
    "alpha_moment1",
    "beta_moment0",
    "beta_moment1",
    "beta_from_convolution",
]


def alpha_table(N: int, max_cost: int | None = None) -> tuple[int, ...]:
    """Base-2 integer weights of order N, charged ``cost.table_size`` first."""
    check_block(2, N)
    charge(table_size(2, N, max_cost), max_cost)
    return _alpha_table(N)


@lru_cache(maxsize=None)
def _alpha_table(N: int) -> tuple[int, ...]:
    coeffs = [1]
    for l in range(N):
        gap = 2**l
        for _ in range(N - l):
            # multiply by (1 + z^gap)
            nxt = coeffs + [0] * gap
            nxt[gap:] = map(operator.add, nxt[gap:], coeffs)
            coeffs = nxt
    assert len(coeffs) == 2 ** (N + 1) - N - 1
    return tuple(coeffs)


def _mul_all_ones(coeffs: tuple[int, ...], length: int) -> list[int]:
    # Multiply by 1 + z + ... + z^(length-1): window sums of the prefix sums.
    acc = list(accumulate(coeffs + (0,) * (length - 1)))
    return acc[:length] + [hi - lo for hi, lo in zip(acc[length:], acc)]


def _times_xi(coords: list[list[int]], fold: tuple[int, ...]) -> list[list[int]]:
    # xi times the entries held column-wise in power-basis coordinates: shift
    # every entry's coordinates up one place and fold the top one back as
    # that multiple of xi^phi, whose coordinates are ``fold``.  Weights +-1,
    # the only ones below b = 105, add or subtract without a multiply.
    # fold[0] is -1 at every base, as Phi_b(0) = 1, so coordinate 0 is -top.
    top = coords[-1]
    out = [list(map(operator.neg, top))] + coords[:-1]
    for j, w in enumerate(fold[1:], 1):
        if w == 1:
            out[j] = list(map(operator.add, out[j], top))
        elif w == -1:
            out[j] = list(map(operator.sub, out[j], top))
        elif w:
            out[j] = [c + w * t for c, t in zip(out[j], top)]
    return out


def beta_columns(b: int, N: int, max_cost: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The order-N beta table as phi(b) integer columns: column j holds the
    j-th power-basis coordinate of every entry.

    Package-internal, and the one charged way to read a beta table: each
    read charges ``cost.table_size`` before the cached build."""
    check_block(b, N)
    charge(table_size(b, N, max_cost), max_cost)
    return _beta_columns(b, N)


@lru_cache(maxsize=None)
def _beta_columns(b: int, N: int) -> tuple[tuple[int, ...], ...]:
    # The uncharged builder: the cached order-(N-1) table times level N of
    # the generating product, on plain ints one g-long block at a time as the
    # module docstring derives; order 0 is level 0 times 1.
    powers = xi_power_coords(b)
    fold = powers[len(powers[0])]
    gap = b**N
    if N:
        columns = [_mul_all_ones(col, gap) for col in _beta_columns(b, N - 1)]
    else:
        columns = [[1]] + [[0]] * (len(fold) - 1)
    lo = [col[:gap] for col in columns]
    # W is shorter than 2 gap, so hi is padded with zeros up to one block.
    hi = [col[gap:] + [0] * (2 * gap - len(col)) for col in columns]
    step = [list(map(operator.add, p, q)) for p, q in zip(_times_xi(lo, fold), hi)]
    # out grows from V_0 = lo block by block; every V_j is a new list, so lo
    # is read as V_0 before it grows.
    block = out = lo
    for j in range(1, b):
        if j > 1:
            step = _times_xi(step, fold)
        block = [list(map(operator.add, v, u)) for v, u in zip(block, step)]
        for acc, col in zip(out, block):
            acc += col
    # The last block is P_(b-2) hi, whose final N + 1 entries are hi's zero
    # padding; what is left is the order-N table, the next order's base.
    for acc in out:
        del acc[b * gap - N - 1 :]
    expected = b ** (N + 1) - N - 1
    assert len(out[0]) == expected, (b, N, len(out[0]), expected)
    return tuple(map(tuple, out))


@lru_cache(maxsize=None)
def beta_table(b: int, N: int) -> tuple[CycloNum, ...]:
    """CycloNum weights of order N from the generating product, uncharged."""
    check_block(b, N)
    return CycloNum.from_columns(b, _beta_columns(b, N))


def alpha_moment0(N: int) -> int:
    """Closed-form sum of the order-(N-1) alpha table: 2^(N(N-1)/2)."""
    check_block(2, N, 1)
    return 2 ** (N * (N - 1) // 2)


def alpha_moment1(N: int) -> Fraction:
    """Closed-form first moment of the order-(N-1) alpha table."""
    check_block(2, N, 1)
    return alpha_moment0(N) * (Fraction(2) ** (N - 1) - Fraction(N + 1, 2))


def beta_moment0(b: int, N: int) -> CycloNum:
    """Closed-form sum of the order-(N-1) beta table: b^(N(N+1)/2)/(1-xi)^N,
    with 1/(1-xi) = -a_1/b for a_1 = b/(xi-1), so no field inverse is taken."""
    check_block(b, N, 1)
    return (-a_constant(b, 1)) ** N * b ** (N * (N - 1) // 2)


def beta_moment1(b: int, N: int) -> CycloNum:
    """Closed-form first moment of the order-(N-1) beta table."""
    check_block(b, N, 1)
    growth = Fraction(b**N - 1, b - 1)
    # b/2 + xi/(1-xi) = b/2 - 1 + 1/(1-xi), and 1/(1-xi) = -a_1/b.
    bracket = (a_constant(b, 1) * Fraction(-1, b) + Fraction(b - 2, 2)) * growth - Fraction(N, 2)
    return beta_moment0(b, N) * bracket


def beta_from_convolution(b: int, N: int, max_cost: int | None = None) -> tuple[CycloNum, ...]:
    """First b^N beta weights of order N via the binomial convolution
    sum_{k<=n} C(n-k+N, N) xi^(digit sum of k).

    That convolution multiplies the digit-weight series by 1/(1-z)^(N+1),
    so it is computed as N+1 running-sum passes.  The identity covers only
    this prefix of the full table.
    """
    check_block(b, N)
    count = block_size(b, N, max_cost)
    charge((N + 1) * count, max_cost)
    powers = xi_power_coords(b)
    columns = zip(*(powers[s % b] for s in digit_sums(b, count)))
    for _ in range(N + 1):
        columns = [list(accumulate(col)) for col in columns]
    return CycloNum.from_columns(b, columns)
