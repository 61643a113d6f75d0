"""Oracles shared by the test modules, written apart from the package."""


def digit_sum(n: int, b: int) -> int:
    """Sum of the base-b digits of n >= 0, one division per digit."""
    total = 0
    while n:
        n, d = divmod(n, b)
        total += d
    return total
