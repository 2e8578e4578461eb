"""Exact truncated polynomial arithmetic in q_1..q_k.

A QPoly is a sparse map from exponent vectors (length k, total degree
at most D) to arbitrary-precision integer coefficients.  Every ring
operation truncates by total degree; coefficients of total degree <= D
in a product depend only on such coefficients of the factors, so the
truncated ring is closed and exact below the bound.

Principal evaluations substitute every monomial in q_1..q_k for the
alphabet of a symmetric function: the power sum p_r becomes the product
of 1/(1 - q_i^r), the homogeneous h_m follows from Newton's identity,
and Schur values come from the Jacobi-Trudi determinant in the h's.
The verifier reads Schur values normalised by prod_j (q_j; q_j)_n, and
builds them factor by factor from polynomials in one variable, so no
power series is multiplied; divide_factors recovers the series.

A product multiplies whole rows.  A row gathers the terms of one head
(all exponents but the last) into one Python int whose W-bit slot j
holds the coefficient of q_k^j.  A head is keyed as its digits in base
D + 1, so adding two keys adds the two heads.  Only row pairs whose head
degrees sum to at most D are multiplied, and their products are summed
per key.  Each exponent vector of a factor meets at most one partner per
monomial of the product, so a product coefficient is a sum of at most
min(#a, #b) term products.  With
W = bits(max|a|) + bits(max|b|) + bits(min(#a, #b)) + 2 every such sum
lies strictly between -2^(W-2) and 2^(W-2), so each row sum reads back
exactly as balanced W-bit digits: mask, shift, and borrow one from the
next slot when a digit is negative.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .tableaux import partition

# The one JSON encoder of comaj's output: polynomials, report lines and --format json.
# Everything it encodes is a fresh acyclic tree, so it skips the cycle check.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  check_circular=False).encode


class Truncation(NamedTuple):
    """Variable count and total-degree bound shared by compatible QPolys."""

    k: int
    D: int


def checked_truncation(k: int, D: int) -> Truncation:
    """(k, D) as a Truncation, refused as QPoly refuses it."""
    if k < 1 or D < 0:
        raise ValueError(f"need k >= 1 and D >= 0, got k={k}, D={D}")
    return Truncation(k, D)


class QPoly:
    """Immutable truncated polynomial; ``terms`` is a read-only view, so cached values stay intact."""

    __slots__ = ("k", "D", "_terms")

    def __init__(self, k: int, D: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.k, self.D = checked_truncation(k, D)
        # Zero coefficients are dropped here and in _trusted, never by the callers.
        clean: dict[tuple[int, ...], int] = {}
        for e, c in (terms or {}).items():
            if c == 0:
                continue
            if len(e) != k or min(e) < 0:
                raise ValueError(f"bad exponent vector for k={k}: {e!r}")
            if sum(e) <= D:
                clean[e] = c
        self._terms = clean

    @classmethod
    def _trusted(cls, k: int, D: int, terms: Mapping[tuple[int, ...], int]) -> QPoly:
        """A QPoly over terms whose exponents the caller built valid for (k, D).

        Only zero coefficients are dropped; the terms are copied, so the
        caller may reuse its dict.
        """
        p = object.__new__(cls)
        p.k = k
        p.D = D
        p._terms = {e: c for e, c in terms.items() if c}
        return p

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """Exponent vector -> nonzero coefficient; writing into it raises TypeError."""
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls, k: int, D: int) -> QPoly:
        return cls(k, D)

    @classmethod
    def one(cls, k: int, D: int) -> QPoly:
        return cls(k, D, {(0,) * k: 1})

    @classmethod
    def variable(cls, k: int, D: int, index: int, power: int = 1) -> QPoly:
        """The monomial q_index^power (index is 1-based)."""
        if not 1 <= index <= k:
            raise ValueError(f"variable index out of range 1..{k}: {index}")
        e = [0] * k
        e[index - 1] = power
        return cls(k, D, {tuple(e): 1})

    def _check_compat(self, other: QPoly) -> None:
        if (self.k, self.D) != (other.k, other.D):
            raise ValueError(
                f"mismatched truncation: ({self.k},{self.D}) vs ({other.k},{other.D})"
            )

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, e: tuple[int, ...]) -> int:
        return self._terms.get(tuple(e), 0)

    def total_at_one(self) -> int:
        """Sum of all coefficients (the value at q_1 = ... = q_k = 1)."""
        return sum(self._terms.values())

    def __add__(self, other: QPoly) -> QPoly:
        if not isinstance(other, QPoly):
            return NotImplemented
        self._check_compat(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return QPoly._trusted(self.k, self.D, out)

    def __neg__(self) -> QPoly:
        return QPoly._trusted(self.k, self.D, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: QPoly) -> QPoly:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> QPoly:
        if isinstance(other, int):
            return QPoly._trusted(self.k, self.D, {e: c * other for e, c in self._terms.items()})
        if not isinstance(other, QPoly):
            return NotImplemented
        self._check_compat(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return QPoly(self.k, self.D)
        D, base = self.D, self.D + 1
        # Wide enough for every product coefficient (module docstring).
        width = (
            max(map(abs, a.values())).bit_length()
            + max(map(abs, b.values())).bit_length()
            + min(len(a), len(b)).bit_length()
            + 2
        )
        b_rows = _rows(b, width, base)
        sums: dict[int, int] = defaultdict(int)
        for da, ka, va in _rows(a, width, base):
            room = D - da
            for db, kb, vb in b_rows:
                if db > room:
                    break
                sums[ka + kb] += va * vb
        return QPoly._trusted(self.k, D, _unpack_rows(sums, width, base, self.k - 1))

    def __rmul__(self, other) -> QPoly:
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> QPoly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer: {exponent!r}")
        result = QPoly.one(self.k, self.D)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        self._check_compat(other)
        return self._terms == other._terms

    def rebound(self, D: int) -> QPoly:
        """Same polynomial under a new degree bound (truncating if smaller)."""
        return QPoly(self.k, D, self._terms)

    def permute_variables(self, images: tuple[int, ...]) -> QPoly:
        """Send q_i to q_{images[i-1]} (images is a permutation of 1..k)."""
        if sorted(images) != list(range(1, self.k + 1)):
            raise ValueError(f"not a permutation of 1..{self.k}: {images!r}")
        out: dict[tuple[int, ...], int] = {}
        for e, c in self._terms.items():
            new = [0] * self.k
            for pos, x in enumerate(e):
                new[images[pos] - 1] = x
            out[tuple(new)] = c
        return QPoly(self.k, self.D, out)

    def set_variable_to_zero(self, index: int) -> QPoly:
        """Keep only terms with exponent 0 on q_index (1-based)."""
        if not 1 <= index <= self.k:
            raise ValueError(f"variable index out of range 1..{self.k}: {index}")
        return QPoly(
            self.k,
            self.D,
            {e: c for e, c in self._terms.items() if e[index - 1] == 0},
        )

    def drop_variable(self, index: int) -> QPoly:
        """Remove a variable that no term uses (1-based index)."""
        if self.k < 2:
            raise ValueError("cannot drop below one variable")
        if not 1 <= index <= self.k:
            raise ValueError(f"variable index out of range 1..{self.k}: {index}")
        if any(e[index - 1] != 0 for e in self._terms):
            raise ValueError(f"terms still use q_{index}")
        return QPoly(
            self.k - 1,
            self.D,
            {e[: index - 1] + e[index:]: c for e, c in self._terms.items()},
        )

    def graded_items(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms sorted in graded lexicographic order."""
        return sorted(self._terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def to_obj(self) -> dict:
        return {
            "k": self.k,
            "D": self.D,
            "terms": [
                {"e": list(e), "c": str(c)} for e, c in self.graded_items()
            ],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_obj())

    def digest(self) -> str:
        """sha256 of ``to_json()``."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        if self.is_zero():
            return f"QPoly(k={self.k}, D={self.D}, 0)"
        parts = []
        for e, c in self.graded_items()[:8]:
            mono = "".join(f"q{i + 1}^{x}" for i, x in enumerate(e) if x)
            parts.append(f"{c}{'*' + mono if mono else ''}")
        tail = " + ..." if len(self._terms) > 8 else ""
        return f"QPoly(k={self.k}, D={self.D}, {' + '.join(parts)}{tail})"


def _rows(terms: Mapping[tuple[int, ...], int], width: int, base: int) -> list[tuple[int, int, int]]:
    """(head degree, head key, packed row) for every head, in order of head degree."""
    packed: dict[tuple[int, ...], int] = {}
    for e, c in terms.items():
        head = e[:-1]
        packed[head] = packed.get(head, 0) + (c << width * e[-1])
    rows = []
    for head, v in packed.items():
        key = 0
        for x in head:
            key = key * base + x
        rows.append((sum(head), key, v))
    rows.sort()
    return rows


def _unpack_rows(sums: dict[int, int], width: int, base: int, head_len: int) -> dict:
    """Exponent vector -> coefficient, reading each row sum in balanced width-bit digits."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out: dict[tuple[int, ...], int] = {}
    for key, v in sums.items():
        head = ()
        for _ in range(head_len):
            key, x = divmod(key, base)
            head = (x, *head)
        for j in range(base - sum(head)):
            if not v:
                break
            c = v & mask
            v >>= width
            if c >= half:
                c -= mask + 1
                v += 1
            out[(*head, j)] = c
    return out


def exact_div(p: QPoly, m: int) -> QPoly:
    """Divide every coefficient by m, failing loudly when not integral."""
    out = {}
    for e, c in p._terms.items():
        q, rem = divmod(c, m)
        if rem:
            raise ArithmeticError(f"coefficient {c} of {e} not divisible by {m}")
        out[e] = q
    return QPoly._trusted(p.k, p.D, out)


def pochhammer(var_index: int, n: int, trunc: Truncation) -> QPoly:
    """(q; q)_n = (1 - q)(1 - q^2)...(1 - q^n) in the chosen variable."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    k, D = trunc
    result = QPoly.one(k, D)
    for j in range(1, n + 1):
        factor = QPoly.one(k, D) - QPoly.variable(k, D, var_index, j)
        result = result * factor
    return result


def divide_factors(p: QPoly, var_index: int, cs) -> QPoly:
    """p / prod_{c in cs} (1 - q^c) at p.D, q the chosen variable.

    Along each line of that variable, the other exponents fixed, dividing
    by 1 - q^c is a prefix sum with stride c.
    """
    if not 1 <= var_index <= p.k or min(cs, default=1) < 1:
        raise ValueError(f"bad variable {var_index} or factors {cs!r}")
    i = var_index - 1
    lines = {}
    for e, c in p._terms.items():
        rest = e[:i] + e[i + 1:]
        if rest not in lines:
            lines[rest] = [0] * (p.D + 1 - sum(rest))
        lines[rest][e[i]] = c
    out = {}
    for rest, line in lines.items():
        for c in cs:
            for r in range(min(c, len(line) - c)):
                line[r::c] = accumulate(line[r::c])
        for d, c in enumerate(line):
            out[(*rest[:i], d, *rest[i:])] = c
    return QPoly._trusted(p.k, p.D, out)


# Cache bound: one (n, k) run at n <= 8 reads at most 357 factors: 255 ascent
# factors, 66 multinomials and 36 Newton factors.  At 64 `quasi --n 7 --k 2`
# thrashed and took 2.5 s instead of 1.0 s.
@lru_cache(maxsize=512)
def q_factor(m: int, cs, D: int) -> QPoly:
    """(q; q)_m / prod_{c in cs} (1 - q^c) in one variable at degree bound D."""
    return divide_factors(pochhammer(1, m, Truncation(1, D)), 1, cs)


def q_factor_all(m: int, cs, trunc: Truncation) -> QPoly:
    """prod_j (q_j; q_j)_m / prod_{c in cs} (1 - q_j^c), the outer product of q_factor."""
    f = q_factor(m, cs, trunc.D)._terms
    terms = {(): 1}
    for _ in range(trunc.k):
        terms = {(*e, d): c * g for e, c in terms.items() for (d,), g in f.items()
                 if sum(e) + d <= trunc.D}
    return QPoly._trusted(*trunc, terms)


def q_multinomial(n: int, parts, trunc: Truncation) -> QPoly:
    """prod_j [n; parts]_{q_j} = prod_j (q_j; q_j)_n / prod_i (q_j; q_j)_{parts_i}."""
    return q_factor_all(n, tuple(c for part in sorted(parts) for c in range(1, part + 1)), trunc)


# Cache bound: the 15 (n, truncation) pairs `verify all --max-n 5 --max-k 3`
# read when `finite` and `quasi` multiplied by it; no verify suite reads it
# since they normalise factor by factor.  At n = 6, k = 3 it holds 0.2 MB.
@lru_cache(maxsize=16)
def pochhammer_all(n: int, trunc: Truncation) -> QPoly:
    """Product of (q_i; q_i)_n over every variable."""
    return q_factor_all(n, (), trunc)


# Cache bound: above the 45 power sums `verify all --max-n 5 --max-k 3` read
# through homogeneous_principal; no verify suite reads them since the h's
# are normalised.
@lru_cache(maxsize=64)
def power_sum_principal(r: int, trunc: Truncation) -> QPoly:
    """p_r at the alphabet of all monomials: product of 1/(1 - q_i^r)."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    return q_factor_all(0, (r,), trunc)


# Cache bound: the 15 truncations `verify all --max-n 5 --max-k 3` read; no
# verify suite reads the plain h's since they are normalised.
@lru_cache(maxsize=16)
def _homogeneous(trunc: Truncation) -> list[QPoly]:
    """h_0, h_1, ... at one truncation; homogeneous_principal extends it in place."""
    return [QPoly.one(*trunc)]


def homogeneous_principal(m: int, trunc: Truncation) -> QPoly:
    """h_m at the alphabet of all monomials, via m*h_m = sum p_r h_{m-r}."""
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    # h_m is the sum over j <= m of h_j(non-constant monomials), which starts at degree j.
    m = min(m, trunc.D)
    hs = _homogeneous(trunc)
    # p_1..p_m read once each, not once per h_j: past 64 the p_r cache thrashes
    ps = [power_sum_principal(r, trunc) for r in range(1, m + 1)] if len(hs) <= m else []
    for j in range(len(hs), m + 1):
        acc = QPoly.zero(*trunc)
        for r in range(1, j + 1):
            acc = acc + ps[r - 1] * hs[j - r]
        hs.append(exact_div(acc, j))
    return hs[m]


# Cache bound: `verify all --max-n 5 --max-k 3` reads 15 truncations, a run
# at one (n, k) one.
@lru_cache(maxsize=16)
def _normalized_hs(trunc: Truncation) -> list[QPoly]:
    """G_0, G_1, ... with G_m = prod_j (q_j; q_j)_m h_m; _normalized_h extends it in place."""
    return [QPoly.one(*trunc)]


def _normalized_h(m: int, trunc: Truncation) -> QPoly:
    """G_m from m G_m = sum_r [prod_j C_{m,r}(q_j)] G_{m-r}.

    That is Newton's identity times prod_j (q_j; q_j)_m.  The factor
    C_{m,r} = (q; q)_m / ((q; q)_{m-r} (1 - q^r)) is a polynomial, since one
    of m - r + 1..m is a multiple of r.  Below degree D + 1, h_m = h_D and
    (q; q)_m = (q; q)_D for m > D, so G_m = G_D.
    """
    m = min(m, trunc.D)
    gs = _normalized_hs(trunc)
    for j in range(len(gs), m + 1):
        terms = (q_factor_all(j, (*range(1, j - r + 1), r), trunc) * gs[j - r]
                 for r in range(1, j + 1))
        gs.append(exact_div(sum(terms, QPoly.zero(*trunc)), j))
    return gs[m]


def schur_normalized_jt(lam, trunc: Truncation) -> QPoly:
    """prod_j (q_j; q_j)_n s_lam at the all-monomial alphabet, n = |lam|, by Jacobi-Trudi.

    det(h_{lam_i - i + j}) is expanded into integer multiples c_mu of
    h-monomials h_mu (Macdonald, Symmetric Functions and Hall Polynomials,
    I.(3.4)), and prod_j (q_j; q_j)_n h_mu = prod_j [n; mu]_{q_j} prod_i
    G_{mu_i}.  Every factor is a polynomial with at most b + 1 terms per
    variable, b = n(n - 1)/2, so no series is built.
    """
    lam = partition(lam)
    if not lam:
        raise ValueError("partition must be nonempty")
    return _schur_normalized_jt(lam, trunc)


# Cache bound: `finite` reads each shape twice, once per side; 32 holds the
# 22 shapes of 8.
@lru_cache(maxsize=32)
def _schur_normalized_jt(lam: tuple[int, ...], trunc: Truncation) -> QPoly:
    """schur_normalized_jt of a checked partition."""
    acc = QPoly.zero(*trunc)
    for mu, c in _jacobi_trudi_terms(lam).items():
        term = q_multinomial(sum(mu), mu, trunc)
        for part in mu:
            term = term * _normalized_h(part, trunc)
        acc = acc + term * c
    return acc


def schur_principal_jt(lam, trunc: Truncation) -> QPoly:
    """Schur value at the all-monomial alphabet: schur_normalized_jt over prod_j (q_j; q_j)_n."""
    lam = partition(lam)
    p = schur_normalized_jt(lam, trunc)
    for j in range(1, p.k + 1):
        p = divide_factors(p, j, range(1, sum(lam) + 1))
    return p


def _jacobi_trudi_terms(lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """mu -> coefficient of h_mu in det(h_{lam_i - i + j}), h_0 factors dropped.

    Expands column by column over the rows not yet used, as the cofactor
    recursion along the first column does, and skips entries h_m with m < 0.
    """
    ell = len(lam)
    coeffs: dict[tuple[int, ...], int] = defaultdict(int)

    def expand(col: int, rows: tuple[int, ...], parts: tuple[int, ...], sign: int) -> None:
        if col == ell:
            coeffs[tuple(sorted(parts, reverse=True))] += sign
            return
        for pos, i in enumerate(rows):
            m = lam[i] - i + col
            if m >= 0:
                expand(col + 1, rows[:pos] + rows[pos + 1:],
                       (*parts, m) if m else parts, -sign if pos % 2 else sign)

    expand(0, tuple(range(ell)), (), 1)
    return {mu: c for mu, c in coeffs.items() if c}


def collapse(p: QPoly) -> QPoly:
    """Set every variable to a single q: exponent becomes the total degree."""
    out: dict[tuple[int], int] = {}
    for e, c in p._terms.items():
        key = (sum(e),)
        out[key] = out.get(key, 0) + c
    return QPoly._trusted(1, p.D, out)
