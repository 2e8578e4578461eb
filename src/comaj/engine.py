"""Generalized descents over lists of integer sequences.

The central data is a sequence list S = (s^1, ..., s^n): one r-tuple of
naturals per index in {1..n}.  Everything below is parametrized by a set
R of positions in {1..n-1}.  Two indices are R-neighbors when every
position strictly between them (inclusive of the smaller, exclusive of
the larger) lies in R; equivalently, when they belong to the same
maximal R-run.

Position i is a generalized descent of sigma with respect to (R, S)
when s^{sigma_i} is lexicographically larger than s^{sigma_{i+1}}, or
the two are equal and exactly one of these tie rules fires:

  * sigma_{i+1} < sigma_i and the two values are not R-neighbors, or
  * sigma_{i+1} > sigma_i and the two values are R-neighbors.

Strict lexicographic ordering plus that tie rule also defines the
reading order of S, the permutation listing indices from smallest to
largest.  ``prepend_labels`` turns descent counts into a new leading
coordinate on every sequence; ``chain_steps`` takes a chain of such
steps, whose final filling has the comaj components as coordinate sums;
``closed_chain_weights`` walks every chain over a set of permutations
depth first and yields only those sums.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .perm import Perm, identity, perm
from .tableaux import StandardTableau

SeqList = tuple[tuple[int, ...], ...]


def empty_seqlist(n: int) -> SeqList:
    """The r = 0 sequence list: n empty tuples, all comparing equal."""
    return ((),) * n


# Cache bound: one entry per (R, n) with R a subset of 1..n-1, 511 of them
# for n <= 9.  An R outside 1..n-1 raises, so it is never cached.
@lru_cache(maxsize=512)
def _run_ids(R: frozenset[int], n: int) -> tuple[int, ...]:
    """Run id of each index 1..n; a run breaks after index i when i not in R.

    Every public function that reads R validates it here, once per (R, n).
    """
    if any(not (1 <= i <= n - 1) for i in R):
        raise ValueError(f"R must be a subset of 1..{n - 1}: {sorted(R)!r}")
    ids = [0] * n
    for i in range(1, n):
        ids[i] = ids[i - 1] + (0 if i in R else 1)
    return tuple(ids)


def are_neighbors(R, n: int, i: int, j: int) -> bool:
    """True when every index from min(i,j) to max(i,j)-1 lies in R."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices out of range 1..{n}: {(i, j)!r}")
    run = _run_ids(frozenset(R), n)
    return run[i - 1] == run[j - 1]


def _check_seqs(S: SeqList, n: int) -> None:
    if len(S) != n:
        raise ValueError(f"expected {n} sequences, got {len(S)}")
    if not S:
        raise ValueError("need at least one sequence")
    if len({*map(len, S)}) > 1:
        raise ValueError("sequences must share one length")


def _descent_positions(run: tuple[int, ...], S: SeqList, sigma: Perm) -> list[int]:
    """Increasing descent positions; trusts S to hold len(sigma) equal-length sequences."""
    out = []
    for i in range(1, len(sigma)):
        a, b = sigma[i - 1], sigma[i]
        sa, sb = S[a - 1], S[b - 1]
        if sa > sb:
            out.append(i)
        elif sa == sb:
            same_run = run[a - 1] == run[b - 1]
            if b < a:
                if not same_run:
                    out.append(i)
            elif same_run:
                out.append(i)
    return out


def _checked_positions(R, S: SeqList, sigma: Perm) -> list[int]:
    n = len(sigma)
    _check_seqs(S, n)
    return _descent_positions(_run_ids(frozenset(R), n), S, sigma)


def descents(R, S: SeqList, sigma: Perm) -> frozenset[int]:
    """Generalized descent set of sigma relative to (R, S)."""
    return frozenset(_checked_positions(R, S, sigma))


def comaj(R, S: SeqList, sigma: Perm) -> int:
    """Sum of (n - i) over the generalized descents."""
    n = len(sigma)
    return sum(n - i for i in _checked_positions(R, S, sigma))


def _labels(positions: list[int], sigma: Perm) -> list[int]:
    """Label index sigma_1 with 0 and add 1 after each descent; entry j - 1 labels index j."""
    n = len(sigma)
    lab = [0] * n
    dset = set(positions)
    cur = 0
    for i in range(1, n):
        if i in dset:
            cur += 1
        lab[sigma[i] - 1] = cur
    return lab


def _prepend(positions: list[int], sigma: Perm, S: SeqList) -> SeqList:
    """Prepend the labels of sigma's descent positions to the sequences of S."""
    lab = _labels(positions, sigma)
    return tuple([(lab[i],) + S[i] for i in range(len(sigma))])


def prepend_labels(R, sigma: Perm, S: SeqList) -> SeqList:
    """Prepend the descent-count labels of sigma as a new first coordinate.

    The sum of the new coordinates equals comaj(R, S, sigma).
    """
    return _prepend(_checked_positions(R, S, sigma), sigma, S)


def _checked_words(words, n: int) -> tuple:
    """The words as a tuple, once each is a permutation of 1..n."""
    words = tuple(words)
    for sigma in words:
        if len(sigma) != n:
            raise ValueError(f"permutation size {len(sigma)} != {n}")
        perm(sigma)
    return words


def chain_steps(R, n: int, sigmas):
    """The steps of the label chain closed by the identity, as they are taken.

    Starting from the empty list, each permutation of ``(*sigmas,
    identity(n))`` in turn yields its increasing generalized descent
    positions against the current list and the list after
    ``prepend_labels``.  The step's comaj component is the sum of
    (n - i) over the positions; the last list is the closed chain.  R
    and the permutations are checked once, before the first step.

    Reading-order lemma: the list after a step with sigma has reading
    order sigma, and position i is a generalized descent of the next
    permutation exactly when the current list reads its entries i and
    i + 1 in the opposite order.  So every step after the first has
    the descents of its permutation read through the inverse of the
    previous one, independent of R; only the first step reads the
    empty list, in the order ``zero_comaj_perm(R)``.
    """
    run = _run_ids(frozenset(R), n)
    sigmas = _checked_words(sigmas, n)
    S = empty_seqlist(n)
    for sigma in (*sigmas, identity(n)):
        positions = _descent_positions(run, S, sigma)
        S = _prepend(positions, sigma, S)
        yield positions, S


def label_chain(R, n: int, sigmas) -> SeqList:
    """The closed chain: its coordinate sums are the k = len(sigmas) + 1 comaj components."""
    *_, (_, S) = chain_steps(R, n, sigmas)
    return S


def comaj_components(R, n: int, sigmas) -> tuple[int, ...]:
    """The k = len(sigmas) + 1 comaj components of a permutation vector.

    Component i is comaj(R, S, sigma^i) evaluated against the chain
    built from the previous steps; the final component uses the
    identity.
    """
    return tuple(sum(n - i for i in positions) for positions, _ in chain_steps(R, n, sigmas))


def closed_chain_weights(R, n: int, words, steps: int):
    """The weight of every closed label chain over the steps-tuples of words.

    Walks the tuples depth first in the order of ``itertools.product(words,
    repeat=steps)``, each closed by the identity, and yields the exponent
    vector of each closed chain: component j is the column sum of the
    labels that step j prepends, the sum of n - i over its descent
    positions.  Each prefix list is built once, and the last list not at
    all: the identity has a descent at i when the new label of index i
    exceeds that of i + 1, or when the two labels are equal and the
    identity has a descent at i against the previous list.  R and the words
    are checked once, before the walk.
    """
    run = _run_ids(frozenset(R), n)
    words = _checked_words(words, n)
    if steps < 0:
        raise ValueError(f"need steps >= 0, got {steps}")
    last = identity(n)

    def walk(S: SeqList, weight: tuple[int, ...], depth: int):
        if depth == steps - 1:
            ties = set(_descent_positions(run, S, last))
            for sigma in words:
                positions = _descent_positions(run, S, sigma)
                lab = _labels(positions, sigma)
                closing = 0
                for i in range(1, n):
                    a, b = lab[i - 1], lab[i]
                    if a > b or (a == b and i in ties):
                        closing += n - i
                yield (*weight, n * len(positions) - sum(positions), closing)
            return
        for sigma in words:
            positions = _descent_positions(run, S, sigma)
            yield from walk(_prepend(positions, sigma, S),
                            (*weight, n * len(positions) - sum(positions)), depth + 1)

    if steps == 0:
        closing = _descent_positions(run, empty_seqlist(n), last)
        return iter([(n * len(closing) - sum(closing),)])
    return walk(empty_seqlist(n), (), 0)


def reading_order(R, S: SeqList) -> Perm:
    """The permutation listing indices by increasing sequence value.

    Ties are broken so that, within one R-run, larger indices are read
    first, while across different runs smaller indices come first.
    """
    n = len(S)
    _check_seqs(S, n)
    run = _run_ids(frozenset(R), n)
    order = sorted(range(1, n + 1), key=lambda i: (S[i - 1], run[i - 1], -i))
    return tuple(order)


def increment_suffix(R, sigma: Perm, i: int, S: SeqList) -> SeqList:
    """Add 1 to the first coordinate of every sequence read after position i.

    Requires sigma to be the reading order of S and 0 <= i <= n - 1, and
    raises ValueError otherwise; the weight gained is n - i in the variable
    paired with the first coordinate.  Reading order and the descents of
    the trailing coordinates are unchanged.
    """
    n = len(sigma)
    _check_seqs(S, n)
    if not S[0]:
        raise ValueError("sequences need a first coordinate to increment")
    if not 0 <= i <= n - 1:
        raise ValueError(f"threshold out of range 0..{n - 1}: {i}")
    if reading_order(R, S) != tuple(sigma):
        raise ValueError(f"sigma must be the reading order of S: {sigma!r}")
    bumped = {sigma[j] for j in range(i, n)}
    return tuple(
        ((s[0] + 1,) + s[1:]) if idx in bumped else s
        for idx, s in enumerate(S, start=1)
    )


def zero_comaj_perm(R, n: int) -> Perm:
    """The unique permutation with zero comaj against the empty list.

    Built by listing the maximal R-runs of {1..n} in increasing order,
    each run in decreasing order.  It reverses each run in place, so it is
    its own inverse, and its descent set is R.
    """
    run = _run_ids(frozenset(R), n)
    word: list[int] = []
    start = 1
    for i in range(1, n + 1):
        if i == n or run[i] != run[i - 1]:
            word.extend(range(i, start - 1, -1))
            start = i + 1
    return tuple(word)


def seq_weight(S: SeqList, k: int) -> tuple[int, ...]:
    """Exponent vector of q^S in variables q_1..q_k.

    Coordinate 1 of the sequences (the most recently prepended label)
    pairs with q_r, coordinate r with q_1; variables beyond r get
    exponent 0.
    """
    _check_seqs(S, len(S))
    r = len(S[0])
    if r > k:
        raise ValueError(f"{r} coordinates do not fit in {k} variables")
    return tuple(
        sum(s[r - i] for s in S) if i <= r else 0 for i in range(1, k + 1)
    )


class LabeledTableau(NamedTuple):
    """A standard tableau with entry i replaced by the i-th chain sequence."""

    base: StandardTableau
    filling: SeqList

    def weight(self, k: int) -> tuple[int, ...]:
        return seq_weight(self.filling, k)


def labeled_tableau(T: StandardTableau, sigmas) -> LabeledTableau:
    """Close the chain of T's descent set over sigmas and fill T with it."""
    filling = label_chain(T.descent_set(), T.n, sigmas)
    return LabeledTableau(base=T, filling=filling)
