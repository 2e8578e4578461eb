"""Fundamental comaj values F_R(q_1..q_k) of the comaj route, packed into ints.

``polynomial`` is the route's entry: it sums m F_R over a mapping {R: m}
as one ``QPoly``.  ``packed_value`` computes F_R by one recursion over the
descent classes of S_n and keeps each value as a nonnegative int with one
fixed-width slot per exponent vector, or per total degree when collapsed,
so the recursion and the sum fold by adding ints; ``unpack`` turns such an
int back into a ``QPoly``.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from functools import lru_cache
from math import factorial
from operator import add

from . import engine, perm
from .qpoly import QPoly


def polynomial(classes: dict[frozenset[int], int], n: int, k: int,
               collapsed: bool = False) -> QPoly:
    """The sum of m F_R(q_1..q_k) over {R: m}: its packed values added, then unpacked once.

    ``collapsed`` sets every q_i = q and returns the one-variable polynomial.
    The m must be naturals summing to at most n!, as tableau counts do, so
    every count fits the slot width of (n!)^k and no slot carries into the next.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    counts = list(classes.values())
    if any(m < 0 for m in counts) or sum(counts) > factorial(n):
        raise ValueError(f"need natural counts summing to at most {n}!, got {counts}")
    width = slot_width(n, k)
    collapsed = collapsed and k > 1
    total = sum(m * packed_value(R, n, k, collapsed, width) for R, m in classes.items())
    return unpack(total, n, k, width, collapsed)


def _radix(n: int) -> int:
    """B = n(n-1)/2 + 1, one more than the largest comaj in S_n."""
    return n * (n - 1) // 2 + 1


def slot_width(n: int, k: int) -> int:
    """Bytes per packed count: enough for (n!)^k, which bounds every count of a Schur side."""
    return ((factorial(n) ** k).bit_length() + 7) // 8


def unpack(value: int, n: int, k: int, width: int, collapsed: bool) -> QPoly:
    """The QPoly of a packed comaj value, read through one ``int.to_bytes``.

    The count at exponent vector e is the little-endian ``width``-byte slot
    number sum e_i B^(k-i), B = n(n-1)/2 + 1, so the slots in order are the
    vectors of range(B)^k in lexicographic order.  A ``collapsed`` value
    holds the count at total degree d in slot d, for d <= k(B - 1), and
    reads as a polynomial in one variable.
    """
    base = _radix(n)
    D = k * (base - 1)
    if collapsed:
        vectors, slots = ((d,) for d in range(D + 1)), D + 1
    else:
        vectors, slots = itertools.product(range(base), repeat=k), base**k
    data = value.to_bytes(slots * width, "little")
    from_bytes = int.from_bytes
    terms = {e: c for e, j in zip(vectors, range(0, len(data), width))
             if (c := from_bytes(data[j:j + width], "little"))}
    # every e_i <= n(n-1)/2 = B - 1, so every vector is within the degree bound
    return QPoly._trusted(1 if collapsed else k, D, terms)


# Cache bounds: 2^(n-1) descent classes for each n <= 8.  A value at j
# variables is packed at the slot width of the caller's k >= j; for k <= 4
# that is four (j, k) pairs at j = 1 and six at j >= 2, the latter full and
# collapsed, so 16 values per class.
_CLASSES = 2**8 - 1


@lru_cache(maxsize=16 * _CLASSES)
def packed_value(R: frozenset[int], n: int, k: int, collapsed: bool, width: int) -> int:
    """The comaj tally over permutation vectors, as one recursion over descent classes.

    F_R(q_1..q_k) = sum over s in S_n of q_1^{c_R(s)} F_{Des(s^{-1})}(q_2..q_k).

    Reading-order lemma: after a label step with s, the reading order of
    the new list is s itself, and a position is a generalized descent
    exactly when the list reads its two values in the opposite order.  So
    the steps after the first see only s, not R or the list, and step 1
    reads the empty list in the order z_R = ``engine.zero_comaj_perm(R)``.
    A step s after a list read in the order p has comaj(p^{-1} s), and the
    number of s with Des(p^{-1} s) = F and Des(s^{-1}) = E is the
    coefficient of p^{-1} in B_F B_E, B_F the sum of the permutations with
    descent set F.  That depends on p only through Des(p^{-1}), since the
    descent algebra is closed under product (L. Solomon, J. Algebra 41,
    1976).  z_E is an involution with descent set E, so the steps after s
    tally as the steps of F_E at k - 1 variables.  The recursion commutes
    with setting every q_i = q, so a collapsed F_R folds collapsed F_E.

    The value is packed as ``unpack`` reads it.  Its row for a first comaj
    c is sum m F_E, the F_E at k - 1 variables sharing the width, so the
    fold adds ints; the row goes to slot c B^(k-1), or to slot c when
    collapsed, where the rows of different c overlap and add.  No count
    exceeds (n!)^(k-1), not even the sum of all counts, so no slot overflows.
    """
    if k == 1:
        return 1 << 8 * width * _closing_comaj(R, n)
    stride = 8 * width * (1 if collapsed else _radix(n) ** (k - 1))
    value = 0
    for c, steps in _step_table(R, n):
        row = sum(m * packed_value(E, n, k - 1, collapsed and k > 2, width) for E, m in steps)
        value += row << stride * c
    return value


@lru_cache(maxsize=_CLASSES)
def _closing_comaj(R: frozenset[int], n: int) -> int:
    """The k = 1 base: the comaj of the closing step, read once per class from the engine."""
    (c,) = engine.comaj_components(R, n, ())
    return c


@lru_cache(maxsize=_CLASSES)
def _step_table(R: frozenset[int],
                n: int) -> tuple[tuple[int, tuple[tuple[frozenset[int], int], ...]], ...]:
    """(c, ((E, m), ...)): m first steps s of F_R have comaj c_R(s) = c and Des(s^{-1}) = E."""
    _, offsets, classes = _words(n)
    tally = Counter(map(add, _step_row(engine.zero_comaj_perm(R, n)), offsets))
    by_comaj: defaultdict[int, list] = defaultdict(list)
    for key, m in tally.items():
        i, c = divmod(key, _radix(n))
        by_comaj[c].append((classes[i], m))
    return tuple((c, tuple(steps)) for c, steps in by_comaj.items())


@lru_cache(maxsize=8)
def _words(n: int) -> tuple[dict[bytes, int], tuple[int, ...], tuple[frozenset[int], ...]]:
    """S_n in lexicographic order, as the data a step row reads.

    The comaj of each word s, keyed by s as ``bytes``, which are the words
    in order; then for each word B = ``_radix(n)`` times the index of
    Des(s^{-1}), the descent class that a step with s leads into, in the
    tuple of classes that follows, so that adding a comaj c < B makes one
    int key for (c, class).
    """
    comajs = {bytes(s): perm.comaj(s) for s in perm.symmetric_group(n)}
    numbers: dict[frozenset[int], int] = {}
    offsets = tuple(_radix(n) * numbers.setdefault(perm.descent_set(perm.inverse(s)), len(numbers))
                    for s in comajs)
    return comajs, offsets, tuple(numbers)


def _step_row(prev: perm.Perm) -> list[int]:
    """Comaj of each word of S_n against a list read in the order prev.

    The sum of n - i over the positions i at which prev reads the word's
    entries i and i + 1 in the opposite order: the comaj of the word
    relabelled by the ranks that prev gives its values, one ``bytes.translate``
    through a table of those ranks.
    """
    comajs = _words(len(prev))[0]
    rank = bytearray(256)
    for pos, v in enumerate(prev, 1):
        rank[v] = pos
    return [comajs[s.translate(rank)] for s in comajs]
