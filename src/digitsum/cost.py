"""Budget guard for brute-force loops: estimate the cost, refuse loudly.

Truncating a brute-force identity check would silently weaken it, so any
verification whose planned summand count exceeds the cap raises instead.
"""

from __future__ import annotations

__all__ = ["DEFAULT_MAX_COST", "CostCapExceeded", "charge"]

DEFAULT_MAX_COST = 2**20

# No loop of 2^64 steps ever finishes, so a larger cap guards nothing.
COST_CEILING = 2**64


class CostCapExceeded(Exception):
    """A brute-force evaluation would exceed the configured cost cap.
    ``cost`` is None when only a bound on it is known, which ``needs`` names."""

    def __init__(self, cost: int | None, cap: int, needs: str | None = None) -> None:
        super().__init__(
            f"evaluation needs {needs or _count(cost)} summand evaluations, cap is {_count(cap)}"
        )
        self.cost = cost
        self.cap = cap


def _count(n: int) -> str:
    # A cost above the ceiling, such as b**N, can be too long for str().
    return str(n) if n <= COST_CEILING else f"more than 2^{(n - 1).bit_length() - 1}"


def charge(cost: int, max_cost: int | None = None) -> None:
    """Raise CostCapExceeded if ``cost`` summand evaluations exceed the cap."""
    cap = DEFAULT_MAX_COST if max_cost is None else max_cost
    if cost > cap:
        raise CostCapExceeded(cost, cap)


def block_size(b: int, e: int, max_cost: int | None = None) -> int:
    """b**e, built once its bit length shows the cap could allow a block of
    b^e summands: every block is charged at least b^e / 2 >= 2^((bit length
    of b - 1) e - 1), so this refuses nothing the exact charge would allow.
    Package-internal; every block size a charge counts comes from here."""
    cap = DEFAULT_MAX_COST if max_cost is None else max_cost
    bits = (b.bit_length() - 1) * e
    if bits > cap.bit_length():
        raise CostCapExceeded(None, cap, f"more than 2^{bits - 1}")
    return b**e


def walk_size(b: int, e: int, max_cost: int | None = None) -> int:
    """Package-internal price of the kernel: its block b^e, or its b x b
    residue walk and the field's b x phi(b) power table if those cost more."""
    return max(block_size(b, e, max_cost), b * b)


def table_size(b: int, N: int, max_cost: int | None = None) -> int:
    """Price of the order-N beta table: its b^(N+1) - N - 1 entries times b.
    The xi-steps that build it touch phi(b) <= b coordinates per entry, and
    even at N = 0 the price covers the field's b x phi(b) power table, so a
    refused table builds neither.  Package-internal."""
    return (block_size(b, N + 1, max_cost) - N - 1) * b


def bernoulli_steps(d: int) -> int:
    """Akiyama-Tanigawa steps that build B_d, 0 below degree 0 so the
    builder's own usage error still fires.  Package-internal."""
    return max(d + 1, 0) * (d + 2) // 2
