"""Principal evaluations by direct enumeration of monomial multichains.

The fundamental quasisymmetric value F_{n,R} at the all-monomial
alphabet is the sum of q^S over sequence lists S in (N^k)^n whose
reading order is the identity.  That condition is equivalent to a
multichain in the lexicographic order on k-tuples: s^i <= s^{i+1}, with
strict inequality required at the positions in R.  The weight of a
chain element s is q^{reversed(s)}: coordinate 1 pairs with q_k.  The
Schur value is the same sum accumulated over the descent sets of all
standard tableaux of the shape.

Chains are counted by peeling off the first coordinate, which is
Stanley's P-partition formula (EC2 §7.19) applied once per coordinate.
The first coordinates a_1 <= ... <= a_n weakly increase; let P be the
set of positions i where a_i < a_{i+1}.  Summing q_k^{a_1 + ... + a_n}
over the first coordinates whose ascent set is exactly P gives

    q_k^{sum_{i in P} (n - i)} / ((1 - q_k^n) prod_{i in P} (1 - q_k^{n - i})).

The cuts in P split 1..n into blocks on which the first coordinate is
constant.  Inside a block the other k - 1 coordinates form a chain that
is strict at the positions of R inside the block; across a cut the
chain is already strict, whether or not the cut lies in R.  The series
is the sum over P of that factor times the product of the blocks'
(k - 1)-coordinate series.  At k = 0 every element is the empty tuple,
so the one chain counts exactly when R is empty.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .qpoly import QPoly, Truncation
from .tableaux import Partition, partition, standard_tableaux


def fundamental_principal_series(R, n: int, trunc: Truncation) -> QPoly:
    """Truncated sum of q^S over S in (N^k)^n read in identity order."""
    Rf = frozenset(R)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if any(not (1 <= i <= n - 1) for i in Rf):
        raise ValueError(f"R must be a subset of 1..{n - 1}: {sorted(Rf)!r}")
    trunc = Truncation(*trunc)
    return _chains(tuple(sorted(Rf)), n, trunc.k, trunc)


@lru_cache(maxsize=None)
def _chains(R: tuple[int, ...], n: int, k: int, trunc: Truncation) -> QPoly:
    """Lex multichains of length n in N^k strict at R; coordinate 1 pairs with q_k."""
    if k == 0:
        return QPoly.zero(*trunc) if R else QPoly.one(*trunc)
    total = QPoly.zero(*trunc)
    for size in range(n):
        for P in combinations(range(1, n), size):
            shift = sum(n - i for i in P)
            if shift > trunc.D:
                continue
            factor = QPoly.variable(trunc.k, trunc.D, k, shift)
            for i in P:
                factor = factor * _geometric(k, n - i, trunc)
            total = total + factor * _blocks(_block_signature(R, n, P), k - 1, trunc)
    return total * _geometric(k, n, trunc)


def _block_signature(R: tuple[int, ...], n: int, P: tuple[int, ...]):
    """(R inside the block shifted to start at 1, block length) per block of the cuts P."""
    blocks = []
    start = 1
    for end in (*P, n):
        inner = tuple(i - start + 1 for i in R if start <= i < end)
        blocks.append((inner, end - start + 1))
        start = end + 1
    return tuple(blocks)


@lru_cache(maxsize=None)
def _blocks(signature, k: int, trunc: Truncation) -> QPoly:
    """Product of the k-coordinate chain series of the blocks in a signature."""
    if not signature:
        return QPoly.one(*trunc)
    (R, n), rest = signature[0], signature[1:]
    return _chains(R, n, k, trunc) * _blocks(rest, k, trunc)


def _geometric(var: int, c: int, trunc: Truncation) -> QPoly:
    """1 / (1 - q_var^c), truncated."""
    k, D = trunc
    return QPoly(
        k, D, {(0,) * (var - 1) + (d * c,) + (0,) * (k - var): 1 for d in range(D // c + 1)}
    )


def schur_principal_by_tableaux(lam: Partition, trunc: Truncation) -> QPoly:
    """Schur principal value as a sum of fundamental series over tableaux."""
    lam = partition(lam)
    n = sum(lam)
    acc = QPoly.zero(*trunc)
    for T in standard_tableaux(lam):
        acc = acc + fundamental_principal_series(T.descent_set(), n, trunc)
    return acc
