"""Symmetric group character values by the Murnaghan-Nakayama recursion.

Border strips are removed through the beta-set encoding of a partition:
removing a strip of size t replaces one beta value b by b - t, and the
strip height is the number of beta values strictly between the two.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .tableaux import Partition, partition


def centralizer_size(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    mu = partition(mu)
    size = 1
    for part in set(mu):
        m = mu.count(part)
        size *= part**m * factorial(m)
    return size


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible character value indexed by lam at cycle type mu."""
    lam = partition(lam)
    mu = partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _chi(lam, mu)


# Cache bound: character(lam, mu) over every lam, mu |- 9 reaches 1141 keys,
# recursive calls included, and over every lam, mu |- n <= 9 it reaches 1819.
@lru_cache(maxsize=2048)
def _chi(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1
    t, rest = mu[0], mu[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        c = b - t
        if c < 0 or c in beta_set:
            continue
        height = sum(1 for x in beta if c < x < b)
        new_beta = sorted((beta_set - {b}) | {c}, reverse=True)
        parts = tuple(
            p for i, x in enumerate(new_beta) if (p := x - (ell - 1 - i)) > 0
        )
        total += (-1) ** height * _chi(parts, rest)
    return total
