"""Integer partitions and standard Young tableaux.

Tableaux are drawn in French convention: ``rows[0]`` is the bottom row
(the longest), rows increase left to right, and columns increase going
up.  Position i is a descent when i + 1 sits in a strictly higher row.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from math import factorial

Partition = tuple[int, ...]


def partition(parts: Iterable[int]) -> Partition:
    """Validate weak decrease and positivity, return as a tuple."""
    p = tuple(parts)
    if not all(isinstance(x, int) and x > 0 for x in p):
        raise ValueError(f"parts must be positive integers: {p!r}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {p!r}")
    return p


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n in descending lexicographic order, (n) first."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def hook_length_count(shape: Partition) -> int:
    """Number of standard tableaux of the given shape, by hook lengths."""
    shape = partition(shape)
    n = sum(shape)
    cols = [sum(1 for part in shape if part > c) for c in range(max(shape, default=0))]
    product = 1
    for r, part in enumerate(shape):
        for c in range(part):
            product *= (part - c) + (cols[c] - r) - 1
    return factorial(n) // product


class StandardTableau:
    """Immutable standard filling of a Young diagram by 1..n."""

    __slots__ = ("rows", "shape", "n", "_row_of")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(r) for r in rows)
        shape = partition(len(r) for r in rows)
        n = sum(shape)
        entries = sorted(v for row in rows for v in row)
        if entries != list(range(1, n + 1)):
            raise ValueError(f"entries must be exactly 1..{n}: {rows!r}")
        for row in rows:
            if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                raise ValueError(f"rows must increase left to right: {rows!r}")
        for r in range(len(rows) - 1):
            upper = rows[r + 1]
            if any(rows[r][c] >= upper[c] for c in range(len(upper))):
                raise ValueError(f"columns must increase upward: {rows!r}")
        self.rows = rows
        self.shape = shape
        self.n = n
        self._row_of = {v: r for r, row in enumerate(rows) for v in row}

    def descent_set(self) -> frozenset[int]:
        return frozenset(
            i for i in range(1, self.n) if self._row_of[i + 1] > self._row_of[i]
        )

    def comaj(self) -> int:
        return sum(self.n - i for i in self.descent_set())

    def reading_word(self) -> tuple[int, ...]:
        """Concatenation of the rows, bottom row first."""
        return tuple(v for row in self.rows for v in row)

    def __eq__(self, other) -> bool:
        return isinstance(other, StandardTableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"StandardTableau({[list(r) for r in self.rows]!r})"


# Cache bound: one entry per shape, 96 of them for n <= 9 (p(1) + ... + p(9)).
@lru_cache(maxsize=128)
def standard_tableaux(shape: Partition) -> tuple[StandardTableau, ...]:
    """All standard tableaux of a shape, sorted by their reading words."""
    shape = partition(shape)
    n = sum(shape)
    depth = len(shape)
    filled = [0] * depth  # cells currently occupied in each row
    rows: list[list[int]] = [[] for _ in range(depth)]
    found: list[StandardTableau] = []

    def place(value: int) -> None:
        if value > n:
            found.append(StandardTableau(rows))
            return
        for r in range(depth):
            if filled[r] < shape[r] and (r == 0 or filled[r - 1] > filled[r]):
                rows[r].append(value)
                filled[r] += 1
                place(value + 1)
                rows[r].pop()
                filled[r] -= 1

    place(1)
    return tuple(sorted(found, key=StandardTableau.reading_word))
