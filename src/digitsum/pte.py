"""Equal-power-sum partitions built from digit-sum residue classes.

Sampling s(n)*x + n*y over a full base-b block and splitting the values by
digit sum mod b yields b multisets whose k-th power sums all agree for
k < N.  Values can repeat both inside a class and across classes; whatever
appears in every class can be cancelled, which is how partitions smaller
than the classical b^N arise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .cost import charge
from .digits import digit_sums

__all__ = [
    "PtePartition",
    "ReducedPartition",
    "PteCertificate",
    "SearchResult",
    "prouhet_partition",
    "generalized_partition",
    "verify_power_sums",
    "cancel_common",
    "search_small_solutions",
]

# A multiset of exact rationals: sorted (value, multiplicity) pairs.
Multiset = tuple[tuple[Fraction, int], ...]

# Internally a class is a dict from integer numerators A to multiplicities,
# with one common denominator L > 0 for every class: the value is A / L.
# Scaling by L keeps values in order and scales each k-th power sum by L^k
# in every class alike, so integer comparisons decide the rational ones.


def _check_block(b: int, N: int) -> None:
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if N < 1:
        raise ValueError(f"order must be >= 1, got {N}")


def _check_degree(max_degree: int) -> None:
    if max_degree < 0:
        raise ValueError(f"max degree must be >= 0, got {max_degree}")


def _digit_classes(b: int, N: int) -> list[list[tuple[int, list[int]]]]:
    """Per digit-sum class mod b, the pairs (s, ns): a digit sum s in the
    class and the n < b^N whose digit sum is s."""
    by_sum: dict[int, list[int]] = {}
    for n, s in enumerate(digit_sums(b, b**N)):
        by_sum.setdefault(s, []).append(n)
    classes: list[list[tuple[int, list[int]]]] = [[] for _ in range(b)]
    for s, ns in by_sum.items():
        classes[s % b].append((s, ns))
    return classes


def _scaled(x: Fraction, y: Fraction) -> tuple[int, int, int]:
    """(X, Y, L) with x = X / L and y = Y / L for L = lcm(den x, den y)."""
    L = math.lcm(x.denominator, y.denominator)
    return x.numerator * (L // x.denominator), y.numerator * (L // y.denominator), L


def _class_counts(
    digit_classes: Sequence[Sequence[tuple[int, list[int]]]], X: int, Y: int
) -> list[dict[int, int]]:
    """Multiplicity of each value s X + n Y within each class."""
    counters = []
    for groups in digit_classes:
        counter: dict[int, int] = {}
        for s, ns in groups:
            sX = s * X
            for n in ns:
                A = sX + n * Y
                counter[A] = counter.get(A, 0) + 1
        counters.append(counter)
    return counters


def _integer_classes(classes: Sequence[Multiset]) -> tuple[int, list[dict[int, int]]]:
    """Clear the denominators of all classes at once: (L, counters)."""
    L = math.lcm(*(v.denominator for cls in classes for v, _ in cls))
    counters = []
    for cls in classes:
        counter: dict[int, int] = {}
        for value, mult in cls:
            A = value.numerator * (L // value.denominator)
            counter[A] = counter.get(A, 0) + mult
        counters.append(counter)
    return L, counters


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


def _power_rows(counters: Sequence[dict[int, int]], degree: int) -> list[list[int]]:
    """Per class, sum m A^k for k = 0..degree by a running product."""
    rows = []
    for counter in counters:
        row = [0] * (degree + 1)
        for A, term in counter.items():
            for k in range(degree + 1):
                row[k] += term
                term *= A
        rows.append(row)
    return rows


def _freeze(counter: dict[int, int], L: int) -> Multiset:
    return tuple((Fraction(A, L), m) for A, m in sorted(counter.items()) if m)


def _expand(multiset: Multiset) -> list[Fraction]:
    out: list[Fraction] = []
    for value, mult in multiset:
        out.extend([value] * mult)
    return out


def _total_size(classes: Sequence[Multiset]) -> int:
    return sum(m for cls in classes for _, m in cls)


@dataclass(frozen=True)
class PtePartition:
    """The b digit-sum residue classes of the multiset {s(n) x + n y}."""

    b: int
    N: int
    x: Fraction
    y: Fraction
    classes: tuple[Multiset, ...]

    @property
    def size(self) -> int:
        return _total_size(self.classes)

    def expanded(self) -> list[list[Fraction]]:
        """Classes as sorted value lists with repeats written out."""
        return [_expand(cls) for cls in self.classes]


@dataclass(frozen=True)
class ReducedPartition:
    """A partition after cross-class cancellation of shared values."""

    b: int
    N: int
    x: Fraction
    y: Fraction
    classes: tuple[Multiset, ...]
    reduced_size: int

    def expanded(self) -> list[list[Fraction]]:
        return [_expand(cls) for cls in self.classes]


@dataclass(frozen=True)
class PteCertificate:
    """Per-class power sums for k = 0..max_degree; valid iff they all agree."""

    partition: object
    max_degree: int
    power_sums: tuple[tuple[Fraction, ...], ...]
    valid: bool


def generalized_partition(b: int, N: int, x, y, max_cost: int | None = None) -> PtePartition:
    """Split the values s(n) x + n y, n < b^N, by digit sum mod b."""
    _check_block(b, N)
    charge(b**N, max_cost)
    x = Fraction(x)
    y = Fraction(y)
    X, Y, L = _scaled(x, y)
    counters = _class_counts(_digit_classes(b, N), X, Y)
    return PtePartition(b, N, x, y, tuple(_freeze(c, L) for c in counters))


def prouhet_partition(b: int, N: int, max_cost: int | None = None) -> PtePartition:
    """The classical partition of {0, ..., b^N - 1} by digit sum mod b."""
    return generalized_partition(b, N, 0, 1, max_cost)


def _certificate(partition, rows: list[list[int]], max_degree: int, L: int) -> PteCertificate:
    """Wrap integer power-sum rows of values scaled by L as rationals."""
    scales = [L**k for k in range(max_degree + 1)]
    power_sums = tuple(tuple(Fraction(S, scale) for S, scale in zip(row, scales)) for row in rows)
    valid = all(row == rows[0] for row in rows[1:])
    return PteCertificate(partition, max_degree, power_sums, valid)


def verify_power_sums(partition, max_degree: int) -> PteCertificate:
    """Exact per-class power sums up to max_degree; k = 0 counts multiplicity."""
    _check_degree(max_degree)
    L, counters = _integer_classes(partition.classes)
    return _certificate(partition, _power_rows(counters, max_degree), max_degree, L)


def cancel_common(partition: PtePartition) -> ReducedPartition:
    """Subtract from every class the minimum multiplicity each value attains
    across all classes.  Identical amounts leave every power sum difference
    unchanged, so validity is preserved."""
    L, counters = _integer_classes(partition.classes)
    classes = tuple(_freeze(c, L) for c in _cancel(counters))
    return ReducedPartition(
        partition.b,
        partition.N,
        partition.x,
        partition.y,
        classes,
        _total_size(classes),
    )


@dataclass(frozen=True)
class SearchResult:
    x: Fraction
    y: Fraction
    reduced: ReducedPartition
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
    """Scan a grid of (x, y), cancel shared values, keep valid certificates.

    Results are ranked by reduced size, then by denominator height and
    |x| + |y|, with (x, y) as the final deterministic tiebreak.  The whole
    scan, points * b^N * (degree + 1) power-sum terms, is charged against
    ``max_cost`` before the first point.
    """
    degree = N - 1 if k_max is None else k_max
    xs = sorted({Fraction(v) for v in x_grid})
    ys = sorted({Fraction(v) for v in y_grid})
    if not xs or not ys:
        raise ValueError("grids must be nonempty")
    _check_block(b, N)
    _check_degree(degree)
    charge(len(xs) * len(ys) * b**N * (degree + 1), max_cost)
    digit_classes = _digit_classes(b, N)
    results = []
    for x in xs:
        for y in ys:
            X, Y, L = _scaled(x, y)
            counters = _cancel(_class_counts(digit_classes, X, Y))
            size = sum(m for counter in counters for m in counter.values())
            if size < min_size:
                continue
            rows = _power_rows(counters, degree)
            if any(row != rows[0] for row in rows[1:]):
                continue
            reduced = ReducedPartition(b, N, x, y, tuple(_freeze(c, L) for c in counters), size)
            results.append(SearchResult(x, y, reduced, _certificate(reduced, rows, degree, L)))
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
