"""Equal-power-sum partitions built from digit-sum residue classes.

Sampling s(n)*x + n*y over a full base-b block and splitting the values by
digit sum mod b yields b multisets whose k-th power sums all agree for
k < N.  Values can repeat both inside a class and across classes; whatever
appears in every class can be cancelled, which is how partitions smaller
than the classical b^N arise.

Everything runs on integers: each value is a numerator A over a common
denominator L, counted in the brute-force kernel's residue lists.  A
partition the package builds keeps those per-class counts and turns them
into sorted Fraction multisets only when ``classes`` or ``expanded()`` is
first read, so a search pays for class Fractions only on the results a
caller prints.  A certificate decides ``valid`` on the integer power sums
of ``digits.power_rows`` and builds their Fractions, in the same way, only
when ``power_sums`` is first read.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
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


class _IntegerForm(namedtuple("_IntegerForm", "L counters")):
    """Per class, a dict from integer numerators A to multiplicities, with
    one common denominator L > 0 for every class: the value is A / L.
    Scaling by L keeps values in order and scales each k-th power sum by
    L^k in every class alike, so integer comparisons decide the rational
    ones."""

    __slots__ = ()


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


def _integer_classes(classes: Sequence[Multiset]) -> _IntegerForm:
    """Clear the denominators of all classes at once."""
    L = math.lcm(*(v.denominator for cls in classes for v, _ in cls))
    counters = []
    for cls in classes:
        counter: dict[int, int] = {}
        for value, mult in cls:
            A = value.numerator * (L // value.denominator)
            counter[A] = counter.get(A, 0) + mult
        counters.append(counter)
    return _IntegerForm(L, counters)


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


def _freeze(counter: dict[int, int], L: int) -> Multiset:
    return tuple((Fraction(A, L), m) for A, m in sorted(counter.items()) if m)


def _expand(multiset: Multiset) -> list[Fraction]:
    out: list[Fraction] = []
    for value, mult in multiset:
        out.extend([value] * mult)
    return out


class _Classes:
    """The ``classes`` field of :class:`PtePartition`.

    Every partition keeps its counts under ``_integer``.  Given an
    ``_IntegerForm`` it keeps just that and freezes the counts into
    multisets the first time ``classes`` is read; given a tuple of
    multisets it stores them and their counts.  Both land in the instance
    ``__dict__``, so ``==``, ``hash``, ``repr``, copies, pickles and
    ``dataclasses.replace`` see the same multisets either way.
    """

    def __get__(self, partition, owner=None):
        if partition is None:
            # Read on the class it raises, which dataclasses take as "no default".
            raise AttributeError("classes")
        state = partition.__dict__
        if "classes" not in state:
            L, counters = state["_integer"]
            state["classes"] = tuple(_freeze(c, L) for c in counters)
        return state["classes"]

    def __set__(self, partition, value) -> None:
        if not isinstance(value, _IntegerForm):
            partition.__dict__["classes"] = value
            value = _integer_classes(value)
        partition.__dict__["_integer"] = value


@dataclass(frozen=True)
class PtePartition:
    """The b digit-sum residue classes of the multiset {s(n) x + n y}."""

    b: int
    N: int
    x: Fraction
    y: Fraction
    classes: tuple[Multiset, ...] = _Classes()

    @cached_property
    def size(self) -> int:
        """The number of values, repeats counted; computed once."""
        return sum(sum(counter.values()) for counter in self._integer.counters)

    @property
    def reduced_size(self) -> int:
        """Read-only alias of ``size``, kept for callers of ``cancel_common``."""
        return self.size

    def expanded(self) -> list[list[Fraction]]:
        """Classes as sorted value lists with repeats written out."""
        return [_expand(cls) for cls in self.classes]


@dataclass(frozen=True)
class PteCertificate:
    """Per-class power sums for k = 0..max_degree; valid iff they all agree."""

    partition: PtePartition
    max_degree: int
    valid: bool

    @cached_property
    def power_sums(self) -> tuple[tuple[Fraction, ...], ...]:
        L, counters = self.partition._integer
        rows = power_rows(counters, self.max_degree)
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
    counters = [Counter(s * X + n * Y for s, n in pairs) for pairs in _digit_classes(b, N)]
    return PtePartition(b, N, x, y, _IntegerForm(L, counters))


def verify_power_sums(partition: PtePartition, max_degree: int) -> PteCertificate:
    """Exact per-class power sums up to max_degree; k = 0 counts multiplicity."""
    _check_degree(max_degree)
    rows = power_rows(partition._integer.counters, max_degree)
    return PteCertificate(partition, max_degree, all(row == rows[0] for row in rows[1:]))


def cancel_common(partition: PtePartition) -> PtePartition:
    """Subtract from every class the minimum multiplicity each value attains
    across all classes.  Identical amounts leave every power sum difference
    unchanged, so validity is preserved."""
    L, counters = partition._integer
    # _cancel works in place, and the partition's own counts must not change.
    counters = _cancel([dict(counter) for counter in counters])
    return PtePartition(partition.b, partition.N, partition.x, partition.y, _IntegerForm(L, counters))


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
