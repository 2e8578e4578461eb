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

fundamental_principal_normalized sums the same formula times
prod_j (q_j; q_j)_n.  Each factor then is a polynomial: the ascent factor
times (q_k; q_k)_n, and for j < k a q-multinomial of the block lengths,
the rest of (q_j; q_j)_n normalising the blocks.  So no series is built.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations

from .qpoly import QPoly, Truncation, checked_truncation, q_factor, q_multinomial
from .tableaux import Partition, partition, standard_tableaux


def fundamental_principal_series(R, n: int, trunc: Truncation) -> QPoly:
    """Truncated sum of q^S over S in (N^k)^n read in identity order."""
    return _chains(*_checked(R, n, trunc))


def fundamental_principal_normalized(R, n: int, trunc: Truncation) -> QPoly:
    """prod_j (q_j; q_j)_n times fundamental_principal_series, built without a series.

    Multiplied by (q_k; q_k)_n, the ascent factor of P becomes the
    polynomial q_k^shift (q_k; q_k)_n / ((1 - q_k^n) prod_{i in P} (1 - q_k^{n - i})):
    n and the n - i are distinct numbers up to n.  For j < k,
    (q_j; q_j)_n is the q-multinomial [n; block lengths]_{q_j} times the
    blocks' (q_j; q_j)_{n_b}, which normalise the blocks' series.  Every
    factor has nonnegative degree, so the truncation is exact at any D.
    """
    return _cut_sum(*_checked(R, n, trunc), _normalized_ascent, _normalized_block_product)


def _checked(R, n: int, trunc: Truncation) -> tuple[tuple[int, ...], int, Truncation]:
    """(sorted R, n, trunc) once R, n and trunc are valid, before any recursion."""
    Rf = frozenset(R)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if any(not (1 <= i <= n - 1) for i in Rf):
        raise ValueError(f"R must be a subset of 1..{n - 1}: {sorted(Rf)!r}")
    return tuple(sorted(Rf)), n, checked_truncation(*trunc)


# Cache bound: `verify all --max-n 5 --max-k 3` fills 261, `quasi --n 8 --k 2` 383.
@lru_cache(maxsize=512)
def _chains(R: tuple[int, ...], n: int, trunc: Truncation) -> QPoly:
    """Lex multichains of length n in N^k, k = trunc.k, strict at R; coordinate 1 pairs with q_k."""
    return _cut_sum(R, n, trunc, _ascent_factor, _block_product)


# Cache bound: only the blocks read it, at every (R, m), m <= n, and each k' < k;
# a `quasi` run at n = 8 fills 765 keys at k = 4 and 510 at k = 3.
@lru_cache(maxsize=1024)
def _normalized_chains(R: tuple[int, ...], n: int, trunc: Truncation) -> QPoly:
    """prod_j (q_j; q_j)_n times _chains(R, n, trunc); a block's value in the normalised sum."""
    return _cut_sum(R, n, trunc, _normalized_ascent, _normalized_block_product)


def _cut_sum(R: tuple[int, ...], n: int, trunc: Truncation, ascent, blocks) -> QPoly:
    """Sum over the ascent sets P of ascent's factor in q_k times the blocks' value.

    ascent(shift, cs, D) gives the (degree, coefficient) pairs of P's
    factor, nonzero only and in increasing degree; blocks(signature,
    Truncation(k - 1, D)) gives the blocks' value in q_1..q_{k-1}, and
    each P adds their outer product.  At k = 1 the blocks' elements are
    empty tuples: their one chain counts exactly when no block has an
    inner R.
    """
    k, D = trunc
    acc: dict[tuple[int, ...], int] = defaultdict(int)
    for size in range(n):
        for P in combinations(range(1, n), size):
            shift = sum(n - i for i in P)
            if shift > D:
                continue
            factor = ascent(shift, (n, *(n - i for i in P)), D)
            signature = _block_signature(R, n, P)
            if k > 1:
                inner = blocks(signature, Truncation(k - 1, D)).terms
            else:
                inner = {} if any(r for r, _ in signature) else {(): 1}
            for e, c in inner.items():
                room = D - sum(e)
                for d, f in factor:
                    if d > room:
                        break
                    acc[(*e, d)] += c * f
    return QPoly._trusted(k, D, acc)


def _ascent_factor(shift: int, cs: tuple[int, ...], D: int) -> list[tuple[int, int]]:
    """Nonzero (degree, coefficient) pairs of q^shift / prod_{c in cs} (1 - q^c) up to D.

    Dividing by 1 - q^c is a prefix sum with stride c.
    """
    out = [0] * (D + 1)
    out[shift] = 1
    for c in cs:
        for d in range(shift + c, D + 1):
            out[d] += out[d - c]
    return [(d, f) for d, f in enumerate(out) if f]


def _normalized_ascent(shift: int, cs: tuple[int, ...], D: int) -> list[tuple[int, int]]:
    """The pairs of q^shift (q; q)_n / prod_{c in cs} (1 - q^c), n = cs[0]: a polynomial."""
    return sorted((shift + d, f) for (d,), f in q_factor(cs[0], cs, D).terms.items())


def _block_signature(R: tuple[int, ...], n: int, P: tuple[int, ...]):
    """(R inside the block shifted to start at 1, block length) per block of the cuts P."""
    blocks = []
    start = 1
    for end in (*P, n):
        inner = tuple(i - start + 1 for i in R if start <= i < end)
        blocks.append((inner, end - start + 1))
        start = end + 1
    return tuple(blocks)


# Cache bound: `verify all --max-n 5 --max-k 3` fills 536, `quasi --n 8 --k 2` 3280.
@lru_cache(maxsize=4096)
def _block_product(signature, trunc: Truncation) -> QPoly:
    """Product of the chain series of the blocks, in trunc.k coordinates."""
    (R, n), rest = signature[0], signature[1:]
    head = _chains(R, n, trunc)
    return head * _block_product(rest, trunc) if rest else head


# Cache bound: one key per signature and k' < k; a `quasi` run at n = 8 reads
# 8747 at k = 4, 5467 at k = 3 and 2187 at k = 2.
@lru_cache(maxsize=16384)
def _normalized_block_product(signature, trunc: Truncation) -> QPoly:
    """The q-multinomial of the block lengths times the blocks' normalised chains."""
    lengths = [m for _, m in signature]
    acc = q_multinomial(sum(lengths), lengths, trunc)
    for R, m in signature:
        acc = acc * _normalized_chains(R, m, trunc)
    return acc


def schur_principal_by_tableaux(lam: Partition, trunc: Truncation) -> QPoly:
    """Schur principal value as a sum of fundamental series over tableaux.

    Each distinct descent set is summed once, weighted by the number of
    tableaux that have it.
    """
    lam = partition(lam)
    n = sum(lam)
    trunc = checked_truncation(*trunc)
    acc: Counter = Counter()
    for R, m in Counter(T.descent_set() for T in standard_tableaux(lam)).items():
        for e, c in fundamental_principal_series(R, n, trunc).terms.items():
            acc[e] += m * c
    return QPoly._trusted(trunc.k, trunc.D, acc)
