"""Prices: the one place each kind of work is counted before it is done."""

from digitsum.cost import bernoulli_steps, table_size
from digitsum.weights import alpha_table, beta_columns


def test_table_size_counts_the_beta_table():
    # Every table with b^(N+1) <= 4096 at b <= 64, which is every one of
    # order N >= 1; an order-0 table at a larger base would spend its time
    # on the b * phi(b) field table (8 s at b = 4096), not on the table.
    for b in range(2, 65):
        N = 0
        while b ** (N + 1) <= 4096:
            assert table_size(b, N) == len(beta_columns(b, N)[0]), (b, N)
            N += 1


def test_table_size_counts_the_alpha_table():
    for N in range(12):
        assert table_size(2, N) == len(alpha_table(N)), N


def test_bernoulli_steps_counts_the_recurrence():
    # The recurrence writes one new entry and then takes m inner steps for
    # each B_m, m = 0 .. d; below degree 0 there is nothing to build.
    for d in range(-5, 30):
        assert bernoulli_steps(d) == sum(1 + m for m in range(d + 1)), d
    assert [bernoulli_steps(d) for d in (-1, -2, -10**9)] == [0, 0, 0]
