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

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations
from typing import Mapping

from .qpoly import QPoly, Truncation
from .tableaux import Partition, partition, standard_tableaux


def fundamental_principal_series(R, n: int, trunc: Truncation) -> QPoly:
    """Truncated sum of q^S over S in (N^k)^n read in identity order."""
    Rf = frozenset(R)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if any(not (1 <= i <= n - 1) for i in Rf):
        raise ValueError(f"R must be a subset of 1..{n - 1}: {sorted(Rf)!r}")
    return _chains(tuple(sorted(Rf)), n, Truncation(*trunc))


# Cache bound: `verify all --max-n 5 --max-k 3` fills 261, `quasi --n 8 --k 2` 383.
@lru_cache(maxsize=512)
def _chains(R: tuple[int, ...], n: int, trunc: Truncation) -> QPoly:
    """Lex multichains of length n in N^k, k = trunc.k, strict at R; coordinate 1 pairs with q_k.

    The blocks of every ascent set P have k - 1 coordinates, so each P adds
    an outer product: its factor in q_k alone times the blocks' series in
    q_1..q_{k-1}.
    """
    k, D = trunc
    acc: dict[tuple[int, ...], int] = defaultdict(int)
    for size in range(n):
        for P in combinations(range(1, n), size):
            shift = sum(n - i for i in P)
            if shift > D:
                continue
            factor = _ascent_factor(shift, (n, *(n - i for i in P)), D)
            factor = [(d, f) for d, f in enumerate(factor) if f]
            for e, c in _blocks(_block_signature(R, n, P), k - 1, D).items():
                room = D - sum(e)
                for d, f in factor:
                    if d > room:
                        break
                    acc[(*e, d)] += c * f
    return QPoly._trusted(k, D, acc)


def _ascent_factor(shift: int, cs: tuple[int, ...], D: int) -> list[int]:
    """Coefficients of q^shift / prod_{c in cs} (1 - q^c) at degrees 0..D.

    Dividing by 1 - q^c is a prefix sum with stride c.
    """
    out = [0] * (D + 1)
    out[shift] = 1
    for c in cs:
        for d in range(shift + c, D + 1):
            out[d] += out[d - c]
    return out


def _block_signature(R: tuple[int, ...], n: int, P: tuple[int, ...]):
    """(R inside the block shifted to start at 1, block length) per block of the cuts P."""
    blocks = []
    start = 1
    for end in (*P, n):
        inner = tuple(i - start + 1 for i in R if start <= i < end)
        blocks.append((inner, end - start + 1))
        start = end + 1
    return tuple(blocks)


def _blocks(signature, k: int, D: int) -> Mapping[tuple[int, ...], int]:
    """Terms of the product of the k-coordinate chain series of the blocks in a signature."""
    if k == 0:
        return {} if any(R for R, _ in signature) else {(): 1}
    return _block_product(signature, Truncation(k, D)).terms


# Cache bound: `verify all --max-n 5 --max-k 3` fills 536, `quasi --n 8 --k 2` 3280.
@lru_cache(maxsize=4096)
def _block_product(signature, trunc: Truncation) -> QPoly:
    """Product of the chain series of the blocks, in trunc.k coordinates."""
    (R, n), rest = signature[0], signature[1:]
    head = _chains(R, n, trunc)
    return head * _block_product(rest, trunc) if rest else head


def schur_principal_by_tableaux(lam: Partition, trunc: Truncation) -> QPoly:
    """Schur principal value as a sum of fundamental series over tableaux.

    Each distinct descent set is summed once, weighted by the number of
    tableaux that have it.
    """
    lam = partition(lam)
    n = sum(lam)
    trunc = Truncation(*trunc)
    acc: Counter = Counter()
    for R, m in Counter(T.descent_set() for T in standard_tableaux(lam)).items():
        for e, c in fundamental_principal_series(R, n, trunc).terms.items():
            acc[e] += m * c
    return QPoly._trusted(trunc.k, trunc.D, acc)
