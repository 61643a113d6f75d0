"""Prices: the one place each kind of work is counted before it is done."""

from digitsum.cost import bernoulli_steps, table_size
from digitsum.weights import alpha_table, beta_columns


def test_table_size_counts_the_beta_table():
    # A table is priced at its entries times b: the xi-steps that build it
    # touch phi(b) <= b coordinates per entry (9.5 s at b = 4096, N = 0).
    # Every table with b^(N+1) <= 4096 at b <= 64, which is every one of
    # order N >= 1.
    for b in range(2, 65):
        N = 0
        while b ** (N + 1) <= 4096:
            assert table_size(b, N) == b * len(beta_columns(b, N)[0]), (b, N)
            N += 1


def test_table_size_counts_the_alpha_table():
    for N in range(12):
        assert table_size(2, N) == 2 * len(alpha_table(N)), N


def test_bernoulli_steps_counts_the_recurrence():
    # The recurrence writes one new entry and then takes m inner steps for
    # each B_m, m = 0 .. d; below degree 0 there is nothing to build.
    for d in range(-5, 30):
        assert bernoulli_steps(d) == sum(1 + m for m in range(d + 1)), d
    assert [bernoulli_steps(d) for d in (-1, -2, -10**9)] == [0, 0, 0]
