"""Permutations of {1..n} in one-line notation, stored as plain tuples.

``w[i]`` is the image of position ``i + 1``; all statistics use 1-based
positions, so the descent set lives in {1..n-1}.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

Perm = tuple[int, ...]


def perm(word: Iterable[int]) -> Perm:
    """Validate a one-line word and return it as a tuple; every entry must be an int."""
    w = tuple(word)
    if any(type(v) is not int for v in w) or sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
    return w


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def compose(a: Perm, b: Perm) -> Perm:
    """Group law (a ∘ b)_i = a_{b_i}: apply b first, then a."""
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    return tuple(a[v - 1] for v in b)


def descent_set(w: Perm) -> frozenset[int]:
    return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])


def comaj(w: Perm) -> int:
    """Sum of (n - i) over descent positions i."""
    n = len(w)
    return sum(n - i for i in range(1, n) if w[i - 1] > w[i])


def cycle_type(w: Perm) -> tuple[int, ...]:
    """Multiset of cycle lengths, sorted decreasingly."""
    n = len(w)
    seen = [False] * n
    lengths = []
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        length = 0
        v = start
        while not seen[v - 1]:
            seen[v - 1] = True
            v = w[v - 1]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def symmetric_group(n: int) -> Iterator[Perm]:
    """All n! one-line words in lexicographic order."""
    return itertools.permutations(range(1, n + 1))
