"""Partitions, certificates, cancellation, and the grid search."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsum.cost import CostCapExceeded
from digitsum.digits import digit_sum
from digitsum.pte import (
    PteCertificate,
    PtePartition,
    ReducedPartition,
    SearchResult,
    cancel_common,
    generalized_partition,
    prouhet_partition,
    search_small_solutions,
    verify_power_sums,
)


def rand_fraction(rng, nonzero=False):
    num = rng.randint(-9, 9)
    while nonzero and num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 9))


class TestClassicalPartition:
    def test_small_blocks(self):
        assert prouhet_partition(2, 2).expanded() == [[0, 3], [1, 2]]
        assert prouhet_partition(2, 3).expanded() == [[0, 3, 5, 6], [1, 2, 4, 7]]
        assert prouhet_partition(3, 1).expanded() == [[0], [1], [2]]

    @pytest.mark.parametrize("b,N", [(2, 4), (3, 2), (4, 2), (5, 2)])
    def test_equal_class_sizes(self, b, N):
        partition = prouhet_partition(b, N)
        assert all(len(values) == b ** (N - 1) for values in partition.expanded())

    def test_classical_bound_is_sharp(self):
        partition = prouhet_partition(2, 3)
        assert verify_power_sums(partition, 2).valid
        cert = verify_power_sums(partition, 3)
        assert not cert.valid
        assert cert.power_sums[0][3] == 368 and cert.power_sums[1][3] == 416


class TestGeneralizedPartition:
    def test_unit_offset_example(self):
        partition = generalized_partition(2, 3, 1, 1)
        assert partition.expanded() == [[0, 5, 7, 8], [2, 3, 5, 10]]
        cert = verify_power_sums(partition, 2)
        assert cert.valid
        assert cert.power_sums[0] == (4, 20, 138)
        assert cert.power_sums[1] == (4, 20, 138)

    def test_zero_offset_specializes_to_classical(self):
        assert generalized_partition(3, 2, 0, 1).classes == prouhet_partition(3, 2).classes

    def test_size_and_duplicates(self):
        partition = generalized_partition(2, 3, 1, 1)
        assert partition.size == 8  # value 5 appears in both classes

    @pytest.mark.parametrize("b,N", [(2, 2), (2, 3), (2, 4), (3, 2)])
    def test_random_rationals_always_valid(self, b, N):
        rng = random.Random(b * 100 + N)
        for _ in range(10):
            x, y = rand_fraction(rng), rand_fraction(rng)
            partition = generalized_partition(b, N, x, y)
            assert verify_power_sums(partition, N - 1).valid

    def test_cost_cap(self):
        with pytest.raises(CostCapExceeded):
            generalized_partition(2, 12, 1, 1, max_cost=100)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            generalized_partition(1, 2, 1, 1)
        with pytest.raises(ValueError):
            generalized_partition(2, 0, 1, 1)


class TestCertificate:
    def test_degree_zero_counts_multiplicity(self):
        partition = generalized_partition(2, 3, Fraction(1, 2), Fraction(3))
        cert = verify_power_sums(partition, 0)
        assert cert.valid and cert.power_sums[0][0] == 4

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            verify_power_sums(prouhet_partition(2, 2), -1)


class TestCancellation:
    def test_unit_offset_reduction(self):
        reduced = cancel_common(generalized_partition(2, 3, 1, 1))
        assert reduced.expanded() == [[0, 7, 8], [2, 3, 10]]
        assert reduced.reduced_size == 6

    def test_disjoint_classes_unchanged(self):
        partition = prouhet_partition(2, 3)
        reduced = cancel_common(partition)
        assert reduced.classes == partition.classes
        assert reduced.reduced_size == 8

    def test_degenerate_full_collapse(self):
        reduced = cancel_common(generalized_partition(2, 3, 0, 0))
        assert reduced.reduced_size == 0
        assert all(values == [] for values in reduced.expanded())

    @pytest.mark.parametrize("b,N", [(2, 3), (2, 4), (3, 2)])
    def test_preserves_validity(self, b, N):
        rng = random.Random(b * 7 + N)
        for _ in range(10):
            x, y = rand_fraction(rng), rand_fraction(rng)
            partition = generalized_partition(b, N, x, y)
            reduced = cancel_common(partition)
            assert verify_power_sums(reduced, N - 1).valid
            assert reduced.reduced_size <= partition.size

    def test_strict_shrink_on_unit_offsets(self):
        partition = generalized_partition(2, 3, 1, 1)
        assert cancel_common(partition).reduced_size < 2**3


class TestSearch:
    def test_unit_offset_point_ranks_first(self):
        results = search_small_solutions(2, 3, [Fraction(1)], [Fraction(1)])
        assert len(results) == 1
        assert results[0].reduced.reduced_size == 6

    def test_classical_point_has_no_cancellation(self):
        results = search_small_solutions(2, 3, [Fraction(0)], [Fraction(1)])
        assert results[0].reduced.reduced_size == 8

    def test_ranking_and_validity(self):
        grid = [Fraction(n, d) for n in range(-2, 3) for d in (1, 2)]
        results = search_small_solutions(2, 3, grid, grid, min_size=1)
        sizes = [res.reduced.reduced_size for res in results]
        assert sizes == sorted(sizes)
        assert all(res.certificate.valid for res in results)
        assert all(res.reduced.reduced_size >= 1 for res in results)

    def test_min_size_filters_degenerate_points(self):
        with_zero = search_small_solutions(2, 3, [Fraction(0)], [Fraction(0)])
        assert with_zero[0].reduced.reduced_size == 0
        filtered = search_small_solutions(2, 3, [Fraction(0)], [Fraction(0)], min_size=1)
        assert filtered == []

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            search_small_solutions(2, 3, [], [Fraction(1)])

    def test_deterministic_order(self):
        grid = [Fraction(1), Fraction(2), Fraction(1, 2)]
        first = search_small_solutions(2, 3, grid, grid)
        second = search_small_solutions(2, 3, list(reversed(grid)), grid)
        assert [(r.x, r.y) for r in first] == [(r.x, r.y) for r in second]


# The search as it ran before it moved to integers: partition, cancel and
# certify each grid point in Fraction arithmetic.  It is the oracle for the
# integer core behind the public functions.


def _oracle_freeze(counter):
    return tuple(sorted((v, m) for v, m in counter.items() if m))


def oracle_partition(b, N, x, y):
    x = Fraction(x)
    y = Fraction(y)
    counters = [{} for _ in range(b)]
    for n in range(b**N):
        s = digit_sum(n, b)
        value = s * x + n * y
        bucket = counters[s % b]
        bucket[value] = bucket.get(value, 0) + 1
    return PtePartition(b, N, x, y, tuple(_oracle_freeze(c) for c in counters))


def oracle_power_sums(partition, max_degree):
    sums = []
    for cls in partition.classes:
        sums.append(
            tuple(
                sum((mult * value**k for value, mult in cls), start=Fraction(0))
                for k in range(max_degree + 1)
            )
        )
    valid = all(row == sums[0] for row in sums[1:])
    return PteCertificate(partition, max_degree, tuple(sums), valid)


def oracle_cancel(partition):
    counters = [dict(cls) for cls in partition.classes]
    shared = set(counters[0])
    for counter in counters[1:]:
        shared &= set(counter)
    for value in shared:
        low = min(counter[value] for counter in counters)
        if low:
            for counter in counters:
                counter[value] -= low
    classes = tuple(_oracle_freeze(c) for c in counters)
    size = sum(m for cls in classes for _, m in cls)
    return ReducedPartition(partition.b, partition.N, partition.x, partition.y, classes, size)


def oracle_search(b, N, x_grid, y_grid, k_max=None, min_size=0):
    degree = N - 1 if k_max is None else k_max
    results = []
    for x in sorted({Fraction(v) for v in x_grid}):
        for y in sorted({Fraction(v) for v in y_grid}):
            reduced = oracle_cancel(oracle_partition(b, N, x, y))
            certificate = oracle_power_sums(reduced, degree)
            if certificate.valid and reduced.reduced_size >= min_size:
                results.append(SearchResult(x, y, reduced, certificate))
    results.sort(
        key=lambda res: (
            res.reduced.reduced_size,
            math.lcm(res.x.denominator, res.y.denominator),
            abs(res.x) + abs(res.y),
            res.x,
            res.y,
        )
    )
    return results


# Zero, small signed rationals, and values with a 10^15 denominator.
grid_values = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.integers(-3 * 10**15, 3 * 10**15).map(lambda n: Fraction(n, 10**15)),
)
grids = st.lists(grid_values, min_size=1, max_size=4)
# Every (b, N) with b in 2..4 and N in 1..4 has b^N <= 256.
blocks = st.tuples(st.integers(2, 4), st.integers(1, 4))


class TestAgainstFractionOracle:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_search_matches_oracle(self, data):
        b, N = data.draw(blocks)
        xs, ys = data.draw(grids), data.draw(grids)
        k_max = data.draw(st.sampled_from([None, 0, N - 1, N, N + 1]))
        min_size = data.draw(st.sampled_from([0, 1, 5]))
        assert search_small_solutions(b, N, xs, ys, k_max, min_size) == oracle_search(
            b, N, xs, ys, k_max, min_size
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_partition_chain_matches_oracle(self, data):
        b, N = data.draw(blocks)
        x, y = data.draw(grid_values), data.draw(grid_values)
        partition = generalized_partition(b, N, x, y)
        assert partition == oracle_partition(b, N, x, y)
        reduced = cancel_common(partition)
        assert reduced == oracle_cancel(partition)
        for degree in (0, N - 1, N + 1):
            assert verify_power_sums(partition, degree) == oracle_power_sums(partition, degree)
            assert verify_power_sums(reduced, degree) == oracle_power_sums(reduced, degree)

    @pytest.mark.parametrize("b,N", [(2, 3), (3, 2), (4, 2)])
    def test_collapsed_partition_matches_oracle(self, b, N):
        reduced = cancel_common(generalized_partition(b, N, 0, 0))
        assert reduced.reduced_size == 0
        for degree in (0, N - 1, N + 1):
            certificate = verify_power_sums(reduced, degree)
            assert certificate == oracle_power_sums(reduced, degree)
            assert certificate.valid


class TestSearchCost:
    def test_whole_grid_is_charged_once(self):
        # 2 * 2 points * 2^3 values * 3 powers = 96 against a cap of 95.
        with pytest.raises(CostCapExceeded):
            search_small_solutions(2, 3, [1, 2], [1, 2], max_cost=95)
        assert len(search_small_solutions(2, 3, [1, 2], [1, 2], max_cost=96)) == 4

    @pytest.mark.parametrize(
        "b,N,k_max,message",
        [(1, 0, -1, "base"), (2, 0, -1, "order"), (2, 3, -1, "degree")],
    )
    def test_usage_errors_in_order(self, b, N, k_max, message):
        with pytest.raises(ValueError, match=message):
            search_small_solutions(b, N, [1], [1], k_max=k_max, max_cost=1)
