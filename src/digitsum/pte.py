"""Equal-power-sum partitions built from digit-sum residue classes.

Sampling s(n)*x + n*y over a full base-b block and splitting the values by
digit sum mod b yields b multisets whose k-th power sums all agree for
k < N.  Values can repeat both inside a class and across classes; whatever
appears in every class can be cancelled, which is how partitions smaller
than the classical b^N arise.

Everything runs on integers.  A partition stores one common denominator
``L`` and, per class, ``counts``: each integer numerator A, counted in the
brute-force kernel's residue lists, with its multiplicity, for the value
A / L.  Its sorted Fraction ``classes`` are derived from those counts once,
when first read, and ``expanded()`` writes them out, so a search pays for
class Fractions only on the results a caller reads.  A certificate decides
``valid`` on the integer power sums of ``digits.power_rows`` and builds
their Fractions, in the same way, only when ``power_sums`` is first read.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .cost import block_size, charge, walk_size
from .digits import check_block, power_rows, residue_lists
from .poly import common_denominator, rational

__all__ = [
    "PtePartition",
    "PteCertificate",
    "SearchResult",
    "generalized_partition",
    "verify_power_sums",
    "cancel_common",
    "search_small_solutions",
]

# A multiset of exact rationals: sorted (value, multiplicity) pairs.
Multiset = tuple[tuple[Fraction, int], ...]


def _check_degree(max_degree: int) -> None:
    if max_degree < 0:
        raise ValueError(f"max degree must be >= 0, got {max_degree}")


@lru_cache(maxsize=8)
def _digit_classes(b: int, N: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per digit-sum class mod b, the pairs (s(n), n) over n < b^N: the
    kernel's residue lists at (x, y) = (1, 0) and (0, 1), which list the n
    in one order.  Every partition of a block shares this table of tuples."""
    sums, ns = residue_lists(b, [(N, 1, 0)]), residue_lists(b, [(N, 0, 1)])
    return tuple(tuple(zip(*cls)) for cls in zip(sums, ns))


def _cancel(counters: list[dict[int, int]]) -> list[dict[int, int]]:
    """Subtract from every class, in place, the least multiplicity each value
    attains across all classes, dropping the values that reach zero."""
    for value in set(counters[0]).intersection(*counters[1:]):
        low = min(counter[value] for counter in counters)
        for counter in counters:
            if counter[value] == low:
                del counter[value]
            else:
                counter[value] -= low
    return counters


@dataclass(frozen=True)
class PtePartition:
    """The b digit-sum residue classes of the multiset {s(n) x + n y}.

    ``counts[r]`` maps each integer numerator A in class r to its positive
    multiplicity; the value is A / L, with one L > 0 for every class.
    Scaling by L keeps values in order and scales each k-th power sum by
    L^k in every class alike, so integer comparisons decide the rational
    ones.  The counts are read, never changed, once the partition is built.
    """

    b: int
    N: int
    x: Fraction
    y: Fraction
    L: int
    counts: tuple[dict[int, int], ...]

    def __hash__(self) -> int:
        return hash((self.b, self.N, self.x, self.y, self.L, *(frozenset(c.items()) for c in self.counts)))

    @cached_property
    def classes(self) -> tuple[Multiset, ...]:
        """Per class, the sorted (A / L, multiplicity) pairs; built once."""
        L = self.L
        return tuple(tuple((Fraction(A, L), m) for A, m in sorted(c.items())) for c in self.counts)

    @cached_property
    def size(self) -> int:
        """The number of values, repeats counted; computed once."""
        return sum(sum(counter.values()) for counter in self.counts)

    @property
    def reduced_size(self) -> int:
        """Read-only alias of ``size``, kept for callers of ``cancel_common``."""
        return self.size

    def expanded(self) -> list[list[Fraction]]:
        """Classes as sorted value lists with repeats written out."""
        return [[value for value, mult in cls for _ in range(mult)] for cls in self.classes]


@dataclass(frozen=True)
class PteCertificate:
    """Per-class power sums for k = 0..max_degree; valid iff they all agree."""

    partition: PtePartition
    max_degree: int
    valid: bool

    @cached_property
    def power_sums(self) -> tuple[tuple[Fraction, ...], ...]:
        L = self.partition.L
        rows = power_rows(self.partition.counts, self.max_degree)
        return tuple(tuple(Fraction(S, L**k) for k, S in enumerate(row)) for row in rows)


def generalized_partition(b: int, N: int, x, y, max_cost: int | None = None) -> PtePartition:
    """Split the values s(n) x + n y, n < b^N, by digit sum mod b; charged
    as the kernel is, since its digit classes come from the same walk."""
    check_block(b, N, 1)
    charge(walk_size(b, N, max_cost), max_cost)
    x = rational(x)
    y = rational(y)
    # x = X / L and y = Y / L for L = lcm(den x, den y).
    L, (X, Y) = common_denominator((x, y))
    # Plain dicts, like cancel_common's copies, so equal partitions print alike.
    counts = tuple(dict(Counter(s * X + n * Y for s, n in pairs)) for pairs in _digit_classes(b, N))
    return PtePartition(b, N, x, y, L, counts)


def verify_power_sums(partition: PtePartition, max_degree: int) -> PteCertificate:
    """Exact per-class power sums up to max_degree; k = 0 counts multiplicity."""
    _check_degree(max_degree)
    rows = power_rows(partition.counts, max_degree)
    return PteCertificate(partition, max_degree, all(row == rows[0] for row in rows[1:]))


def cancel_common(partition: PtePartition) -> PtePartition:
    """Subtract from every class the minimum multiplicity each value attains
    across all classes.  Identical amounts leave every power sum difference
    unchanged, so validity is preserved."""
    # _cancel works in place, and the partition's own counts must not change.
    counts = _cancel([dict(counter) for counter in partition.counts])
    return PtePartition(partition.b, partition.N, partition.x, partition.y, partition.L, tuple(counts))


@dataclass(frozen=True)
class SearchResult:
    x: Fraction
    y: Fraction
    reduced: PtePartition
    certificate: PteCertificate


def search_small_solutions(
    b: int,
    N: int,
    x_grid: Iterable,
    y_grid: Iterable,
    k_max: int | None = None,
    min_size: int = 0,
    max_cost: int | None = None,
) -> list[SearchResult]:
    """Partition, cancel and, from ``min_size`` up, certify each grid point
    (x, y) with the public functions; keep the valid certificates.

    Results are ranked by reduced size, then by denominator height and
    |x| + |y|, with (x, y) as the final deterministic tiebreak.  The whole
    scan, points * b^N * (degree + 1) power-sum terms, is charged against
    ``max_cost`` before the first point.
    """
    degree = N - 1 if k_max is None else k_max
    xs = sorted(set(map(rational, x_grid)))
    ys = sorted(set(map(rational, y_grid)))
    if not xs or not ys:
        raise ValueError("grids must be nonempty")
    check_block(b, N, 1)
    _check_degree(degree)
    charge(len(xs) * len(ys) * block_size(b, N, max_cost) * (degree + 1), max_cost)
    results = []
    for x in xs:
        for y in ys:
            reduced = cancel_common(generalized_partition(b, N, x, y, max_cost))
            if reduced.size < min_size:
                continue
            certificate = verify_power_sums(reduced, degree)
            if certificate.valid:
                results.append(SearchResult(x, y, reduced, certificate))
    results.sort(
        key=lambda res: (
            res.reduced.size,
            math.lcm(res.x.denominator, res.y.denominator),
            abs(res.x) + abs(res.y),
            res.x,
            res.y,
        )
    )
    return results
