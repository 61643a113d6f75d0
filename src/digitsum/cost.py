"""Budget guard for brute-force loops: estimate the cost, refuse loudly.

Truncating a brute-force identity check would silently weaken it, so any
verification whose planned summand count exceeds the cap raises instead.
"""

from __future__ import annotations

__all__ = ["DEFAULT_MAX_COST", "CostCapExceeded", "charge"]

DEFAULT_MAX_COST = 2**20


class CostCapExceeded(Exception):
    """A brute-force evaluation would exceed the configured cost cap."""

    def __init__(self, cost: int, cap: int) -> None:
        super().__init__(
            f"evaluation needs {_count(cost)} summand evaluations, cap is {_count(cap)}"
        )
        self.cost = cost
        self.cap = cap


def _count(n: int) -> str:
    # An exact power such as b**N can be too long for str(); name its size.
    return str(n) if n.bit_length() <= 64 else f"more than 2^{n.bit_length() - 1}"


def charge(cost: int, max_cost: int | None = None) -> None:
    """Raise CostCapExceeded if ``cost`` summand evaluations exceed the cap."""
    cap = DEFAULT_MAX_COST if max_cost is None else max_cost
    if cost > cap:
        raise CostCapExceeded(cost, cap)
