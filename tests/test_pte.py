"""Partitions, certificates, cancellation, and the grid search."""

import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitsum import pte
from digitsum.arith import CycloNum, xi_power_table
from digitsum.cost import CostCapExceeded
from digitsum.digits import digit_weighted_sum
from digitsum.identities import random_fraction
from digitsum.poly import RationalPoly
from digitsum.pte import (
    PteCertificate,
    PtePartition,
    cancel_common,
    generalized_partition,
    search_small_solutions,
    verify_power_sums,
)
from oracles import digit_sum


class TestClassicalPartition:
    def test_small_blocks(self):
        assert generalized_partition(2, 2, 0, 1).expanded() == [[0, 3], [1, 2]]
        assert generalized_partition(2, 3, 0, 1).expanded() == [[0, 3, 5, 6], [1, 2, 4, 7]]
        assert generalized_partition(3, 1, 0, 1).expanded() == [[0], [1], [2]]

    @pytest.mark.parametrize("b,N", [(2, 4), (3, 2), (4, 2), (5, 2)])
    def test_equal_class_sizes(self, b, N):
        partition = generalized_partition(b, N, 0, 1)
        assert all(len(values) == b ** (N - 1) for values in partition.expanded())

    def test_classical_bound_is_sharp(self):
        partition = generalized_partition(2, 3, 0, 1)
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
        # (x, y) = (0, 1) splits {0, ..., b^N - 1} itself by digit sum mod b.
        classes = [[n for n in range(9) if digit_sum(n, 3) % 3 == r] for r in range(3)]
        assert generalized_partition(3, 2, 0, 1).expanded() == classes

    def test_size_and_duplicates(self):
        partition = generalized_partition(2, 3, 1, 1)
        assert partition.size == 8  # value 5 appears in both classes

    @pytest.mark.parametrize("b,N", [(2, 2), (2, 3), (2, 4), (3, 2)])
    def test_random_rationals_always_valid(self, b, N):
        rng = random.Random(b * 100 + N)
        for _ in range(10):
            x, y = random_fraction(rng), random_fraction(rng)
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
            verify_power_sums(generalized_partition(2, 2, 0, 1), -1)


class TestCancellation:
    def test_unit_offset_reduction(self):
        reduced = cancel_common(generalized_partition(2, 3, 1, 1))
        assert reduced.expanded() == [[0, 7, 8], [2, 3, 10]]
        assert reduced.reduced_size == 6

    def test_disjoint_classes_unchanged(self):
        partition = generalized_partition(2, 3, 0, 1)
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
            x, y = random_fraction(rng), random_fraction(rng)
            partition = generalized_partition(b, N, x, y)
            reduced = cancel_common(partition)
            assert verify_power_sums(reduced, N - 1).valid
            assert reduced.reduced_size <= partition.size

    def test_strict_shrink_on_unit_offsets(self):
        partition = generalized_partition(2, 3, 1, 1)
        assert cancel_common(partition).reduced_size < 2**3

    def test_partial_cancellation(self):
        # -4 and -1 each appear once in class 0 and twice in class 1, so
        # class 1 keeps one copy of each instead of losing them.
        partition = generalized_partition(2, 4, -5, 1)
        reduced = cancel_common(partition)
        assert reduced.classes == oracle_cancel(oracle_partition(2, 4, -5, 1))
        assert reduced.expanded() == [[-7, -5, -5, 0, 0, 2], [-8, -4, -3, -2, -1, 3]]
        assert (reduced.reduced_size, partition.size) == (12, 16)
        assert verify_power_sums(reduced, 3).valid
        assert not verify_power_sums(reduced, 4).valid


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
# certify each grid point in Fraction arithmetic.  Each oracle works on class
# multisets, sorted (value, multiplicity) pairs, and never builds a
# PtePartition, so it shares no code with the integer core it checks.


def _oracle_freeze(counter):
    return tuple(sorted((v, m) for v, m in counter.items() if m))


def oracle_expand(classes):
    return [[value for value, mult in cls for _ in range(mult)] for cls in classes]


def oracle_partition(b, N, x, y):
    x = Fraction(x)
    y = Fraction(y)
    counters = [{} for _ in range(b)]
    for n in range(b**N):
        s = digit_sum(n, b)
        value = s * x + n * y
        bucket = counters[s % b]
        bucket[value] = bucket.get(value, 0) + 1
    return tuple(_oracle_freeze(c) for c in counters)


def oracle_power_sums(classes, max_degree):
    """Whether the per-class power sums agree, and the sums themselves."""
    sums = []
    for cls in classes:
        sums.append(
            tuple(
                sum((mult * value**k for value, mult in cls), start=Fraction(0))
                for k in range(max_degree + 1)
            )
        )
    return all(row == sums[0] for row in sums[1:]), tuple(sums)


def oracle_cancel(classes):
    counters = [dict(cls) for cls in classes]
    shared = set(counters[0])
    for counter in counters[1:]:
        shared &= set(counter)
    for value in shared:
        low = min(counter[value] for counter in counters)
        if low:
            for counter in counters:
                counter[value] -= low
    return tuple(_oracle_freeze(c) for c in counters)


def oracle_search(b, N, x_grid, y_grid, k_max=None, min_size=0):
    """The ranked results as (x, y, reduced classes, power sums)."""
    degree = N - 1 if k_max is None else k_max
    results = []
    for x in sorted({Fraction(v) for v in x_grid}):
        for y in sorted({Fraction(v) for v in y_grid}):
            reduced = oracle_cancel(oracle_partition(b, N, x, y))
            size = sum(mult for cls in reduced for _, mult in cls)
            valid, sums = oracle_power_sums(reduced, degree)
            if valid and size >= min_size:
                results.append((size, x, y, reduced, sums))
    results.sort(
        key=lambda res: (
            res[0],
            math.lcm(res[1].denominator, res[2].denominator),
            abs(res[1]) + abs(res[2]),
            res[1],
            res[2],
        )
    )
    return [res[1:] for res in results]


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
        results = search_small_solutions(b, N, xs, ys, k_max, min_size)
        expected = oracle_search(b, N, xs, ys, k_max, min_size)
        assert [
            (res.x, res.y, res.reduced.classes, res.certificate.power_sums) for res in results
        ] == expected
        degree = N - 1 if k_max is None else k_max
        for res in results:
            assert (res.reduced.b, res.reduced.N, res.reduced.x, res.reduced.y) == (b, N, res.x, res.y)
            assert res.certificate.partition is res.reduced
            assert res.certificate.max_degree == degree and res.certificate.valid

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_partition_chain_matches_oracle(self, data):
        b, N = data.draw(blocks)
        x, y = data.draw(grid_values), data.draw(grid_values)
        partition = generalized_partition(b, N, x, y)
        classes = oracle_partition(b, N, x, y)
        assert (partition.b, partition.N, partition.x, partition.y) == (b, N, x, y)
        assert partition.classes == classes
        assert partition.expanded() == oracle_expand(classes)
        reduced = cancel_common(partition)
        reduced_classes = oracle_cancel(classes)
        assert reduced.classes == reduced_classes
        assert reduced.expanded() == oracle_expand(reduced_classes)
        assert reduced.size == sum(map(len, oracle_expand(reduced_classes)))
        for degree in (0, N - 1, N + 1):
            for part, expected in ((partition, classes), (reduced, reduced_classes)):
                certificate = verify_power_sums(part, degree)
                assert (certificate.valid, certificate.power_sums) == oracle_power_sums(expected, degree)

    @pytest.mark.parametrize("b,N", [(2, 3), (3, 2), (4, 2)])
    def test_collapsed_partition_matches_oracle(self, b, N):
        reduced = cancel_common(generalized_partition(b, N, 0, 0))
        assert reduced.reduced_size == 0
        classes = oracle_cancel(oracle_partition(b, N, 0, 0))
        assert reduced.classes == classes == ((),) * b
        for degree in (0, N - 1, N + 1):
            certificate = verify_power_sums(reduced, degree)
            assert (certificate.valid, certificate.power_sums) == oracle_power_sums(classes, degree)
            assert certificate.valid


# Ways to get a second partition from a package-built one.
TWINS = {
    "self": lambda partition: partition,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda partition: pickle.loads(pickle.dumps(partition)),
    "replace": dataclasses.replace,
}


class TestDerivedClasses:
    """A partition stores ``L`` and integer ``counts``; its Fraction
    ``classes`` are derived from them on first read, and copies, pickles and
    ``dataclasses.replace`` keep ``==``, ``hash`` and ``classes``."""

    @settings(max_examples=25, deadline=None)
    @given(
        block=blocks,
        x=grid_values,
        y=grid_values,
        twin=st.sampled_from(sorted(TWINS)),
        read_first=st.booleans(),
    )
    def test_twins_keep_equality_hash_and_classes(self, block, x, y, twin, read_first):
        b, N = block
        classes = oracle_partition(b, N, x, y)
        for original, expected in (
            (generalized_partition(b, N, x, y), classes),
            (cancel_common(generalized_partition(b, N, x, y)), oracle_cancel(classes)),
        ):
            if read_first:
                assert original.classes == expected
            copied = TWINS[twin](original)
            assert isinstance(copied, PtePartition)
            assert copied == original and original == copied
            assert hash(copied) == hash(original)
            assert copied.classes == expected
            assert copied.expanded() == oracle_expand(expected)
            assert copied.size == copied.reduced_size == sum(map(len, oracle_expand(expected)))
            assert (copied.L, copied.counts) == (original.L, original.counts)

    def test_equal_counts_hash_alike(self):
        # Nothing cancels from disjoint classes, so the reduced copy equals
        # its input even though its counts are copies.
        partition = generalized_partition(3, 2, 0, 1)
        reduced = cancel_common(partition)
        assert reduced == partition and hash(reduced) == hash(partition)
        assert repr(reduced) == repr(partition)
        assert [field.name for field in dataclasses.fields(PtePartition)] == ["b", "N", "x", "y", "L", "counts"]
        assert len({partition, reduced, generalized_partition(3, 2, 1, 1)}) == 2

    @settings(max_examples=25, deadline=None)
    @given(block=blocks, x=grid_values, y=grid_values)
    def test_cancel_leaves_its_input_counts_alone(self, block, x, y):
        b, N = block
        partition = generalized_partition(b, N, x, y)
        before = [dict(counter) for counter in partition.counts]
        first = cancel_common(partition)
        assert [dict(counter) for counter in partition.counts] == before
        assert partition.classes == oracle_partition(b, N, x, y)
        assert cancel_common(partition) == first
        assert cancel_common(first) == first

    def test_search_leaves_classes_unread(self):
        results = search_small_solutions(3, 3, range(4), range(1, 5))
        assert len(results) == 16
        assert all(res.certificate.valid for res in results)
        assert all(res.reduced.reduced_size <= 3**3 for res in results)
        assert all("classes" not in vars(res.reduced) for res in results)
        reduced = results[0].reduced
        classes = reduced.classes
        assert "classes" in vars(reduced) and reduced.classes is classes
        assert reduced.expanded() == oracle_expand(classes)


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


class TestKernelCorollary:
    """The classes of {s(n) x + n y} are the residue classes of the brute sum
    behind generalized-pte: weighting class r by xi^r gives that sum back."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), b=st.integers(2, 7), N=st.integers(1, 3), x=small_fractions, y=small_fractions)
    def test_classes_weighted_by_xi_give_the_brute_sum(self, data, b, N, x, y):
        f = RationalPoly(data.draw(st.lists(small_fractions, min_size=1, max_size=N + 3)))
        classes = generalized_partition(b, N, x, y).expanded()
        powers = xi_power_table(b)
        total = CycloNum.zero(b)
        for power, values in zip(powers, classes):
            total = total + power * sum(map(f, values), Fraction(0))
        assert total == digit_weighted_sum(f, b, [(N, x, y)])


class TestLazyPowerSums:
    """Certificates decide ``valid`` on integers and build their Fraction
    power sums on first read."""

    def test_certifying_builds_no_fraction(self, monkeypatch):
        partition = generalized_partition(3, 2, Fraction(1, 2), 1)

        def refuse(*args):
            raise AssertionError("verify_power_sums built a Fraction")

        monkeypatch.setattr(pte, "Fraction", refuse)
        assert verify_power_sums(partition, 1).valid
        assert not verify_power_sums(partition, 2).valid

    def test_search_builds_power_sums_only_when_read(self, monkeypatch):
        results = search_small_solutions(3, 3, range(4), range(1, 5))
        assert results and all("power_sums" not in vars(res.certificate) for res in results)
        calls = []
        power_rows = pte.power_rows

        def counted(counters, degree):
            calls.append(degree)
            return power_rows(counters, degree)

        monkeypatch.setattr(pte, "power_rows", counted)
        certificate = results[0].certificate
        sums = certificate.power_sums
        assert certificate.power_sums is sums and calls == [2]
        assert oracle_power_sums(certificate.partition.classes, 2) == (certificate.valid, sums)
        assert [field.name for field in dataclasses.fields(PteCertificate)] == [
            "partition", "max_degree", "valid"
        ]


class TestSearchPipeline:
    """Each grid point runs the public partition, cancel and certify steps, so
    anything that wraps them as module attributes sees every point."""

    def test_every_point_runs_the_public_steps(self, monkeypatch):
        calls = {}
        for name in ("generalized_partition", "cancel_common", "verify_power_sums"):
            def counted(*args, name=name, step=getattr(pte, name)):
                calls[name] = calls.get(name, 0) + 1
                return step(*args)

            monkeypatch.setattr(pte, name, counted)
        results = search_small_solutions(2, 3, range(3), range(1, 5))
        assert len(results) == 12
        assert calls == {"generalized_partition": 12, "cancel_common": 12, "verify_power_sums": 12}

    def test_digit_sums_are_tabled_once_per_block(self, monkeypatch):
        pte._digit_classes.cache_clear()
        calls = []
        residue_lists = pte.residue_lists

        def counted(b, axes, C=0):
            axes = list(axes)
            calls.append((b, axes, C))
            return residue_lists(b, axes, C)

        monkeypatch.setattr(pte, "residue_lists", counted)
        first = search_small_solutions(3, 3, range(4), range(1, 5))
        assert search_small_solutions(3, 3, range(4), range(1, 5)) == first
        # The digit sums at (x, y) = (1, 0) and the n at (0, 1), once per block.
        assert calls == [(3, [(3, 1, 0)], 0), (3, [(3, 0, 1)], 0)]
        # The shared table is immutable all the way down.
        table = pte._digit_classes(3, 3)
        assert isinstance(table, tuple)
        assert all(isinstance(cls, tuple) and all(isinstance(pair, tuple) for pair in cls) for cls in table)
        # Every n < 27 once, with its digit sum, in the class of that sum mod 3.
        pairs = sorted((n, s, r) for r, cls in enumerate(table) for s, n in cls)
        assert pairs == [(n, digit_sum(n, 3), digit_sum(n, 3) % 3) for n in range(27)]


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
