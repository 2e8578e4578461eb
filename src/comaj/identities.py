"""Executable forms of the generating-function identities.

Each identity is computed through independent code paths and compared
coefficientwise.  A failing comparison reports the graded-lex-first
differing monomial together with both coefficients.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from functools import cached_property, lru_cache, reduce
from math import factorial

from . import engine, fundamental, perm
from .characters import centralizer_size, character
from .enumeration import fundamental_principal_normalized, schur_principal_by_tableaux
from .qpoly import (
    QPoly,
    Truncation,
    canonical_json,
    collapse,
    exact_div,
    pochhammer,
    schur_normalized_jt,
    schur_principal_jt,
)
from .tableaux import Partition, hook_length_count, partition, partitions, standard_tableaux

Side = tuple[str, QPoly]


class VerificationReport:
    """One identity check; its report line is its five attributes as canonical JSON.

    The five are identity, params, status, digests and counterexample.
    """

    def __init__(self, identity: str, params: dict, status: str, digests: dict[str, str],
                 counterexample: dict | None = None):
        self.identity = identity
        self.params = params
        self.status = status  # "pass" | "fail"
        self.digests = digests
        self.counterexample = counterexample

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_line(self) -> str:
        return canonical_json(vars(self))


class _KeyReport(VerificationReport):
    """One prop41 key: its own params, and the rest read from a shared verdict.

    The verdict is a report without params and its line split around them
    (see ``_split``).  ``digests`` and ``counterexample`` are fresh copies,
    so a caller who edits them leaves the cached verdict as it was.
    ``params`` is built from the validated key when it is first read, and
    edits to it show in the line.  Until then the params' JSON is put
    together from cached fragments: their keys sort as R < bound < n < r <
    sigma < target, so it is the bucket table's prefix of (R, n, r, bound),
    the JSON of sigma and the target's fragment.
    """

    def __init__(self, key: tuple, shared: tuple[VerificationReport, str, str],
                 prefix: str, sigma_json: str, target_json: str):
        self._key = key  # (R, n, target, sigma, r, bound)
        self._shared = shared
        self._prefix = prefix
        self._sigma_json = sigma_json
        self._target_json = target_json

    @cached_property
    def params(self) -> dict:
        R, n, target, sigma, r, bound = self._key
        return {"R": sorted(R), "n": n, "target": sorted(target), "sigma": list(sigma),
                "r": r, "bound": bound}

    identity = property(lambda self: self._shared[0].identity)
    status = property(lambda self: self._shared[0].status)
    digests = property(lambda self: dict(self._shared[0].digests))

    @property
    def counterexample(self) -> dict | None:
        found = self._shared[0].counterexample
        return found and {name: list(value) if isinstance(value, list) else value
                          for name, value in found.items()}

    def to_json_line(self) -> str:
        _, head, tail = self._shared
        if "params" in self.__dict__:
            return head + canonical_json(self.params) + tail
        return head + self._prefix + self._sigma_json + self._target_json + tail


def _first_difference(a: QPoly, b: QPoly) -> dict | None:
    keys = sorted(set(a.terms) | set(b.terms), key=lambda e: (sum(e), e))
    for e in keys:
        ca, cb = a.coeff(e), b.coeff(e)
        if ca != cb:
            return {"exponent": list(e), "left": str(ca), "right": str(cb)}
    return None


def _compare(identity: str, params: dict, pairs: list[tuple[Side, Side]],
             extra_checks: list[dict] | None = None) -> VerificationReport:
    # Each name is digested once; a side equal to its partner (same k, D and
    # terms, compared without QPoly.__eq__, which raises on a mismatch) reuses
    # its digest.
    digests: dict[str, str] = {}
    counterexample = None
    for (name_a, poly_a), (name_b, poly_b) in pairs:
        same = (poly_a.k, poly_a.D) == (poly_b.k, poly_b.D) and poly_a.terms == poly_b.terms
        if name_a not in digests:
            digests[name_a] = poly_a.digest()
        if name_b not in digests:
            digests[name_b] = digests[name_a] if same else poly_b.digest()
        if counterexample is None and not same:
            diff = _first_difference(poly_a, poly_b)
            if diff is not None:
                counterexample = {"pair": [name_a, name_b], **diff}
    status = "pass" if counterexample is None else "fail"
    if status == "pass":
        for check in extra_checks or []:
            if check["left"] != check["right"]:
                status = "fail"
                counterexample = {
                    "check": check["name"],
                    "left": str(check["left"]),
                    "right": str(check["right"]),
                }
                break
    return VerificationReport(
        identity=identity,
        params=params,
        status=status,
        digests=digests,
        counterexample=counterexample,
    )


def _chained(sides: list[Side]) -> list[tuple[Side, Side]]:
    return list(zip(sides, sides[1:]))


def exact_degree_bound(n: int, k: int) -> int:
    """Largest possible total comaj weight: k * n(n-1)/2."""
    return k * n * (n - 1) // 2


def _sigma_vectors(n: int, k: int):
    """Stream all (k-1)-tuples over S_n in lexicographic mixed-radix order."""
    words = tuple(perm.symmetric_group(n))
    return itertools.product(words, repeat=k - 1)


def _tally(n: int, k: int, exponents) -> QPoly:
    """Count each exponent vector once per occurrence, bounded by the exact degree."""
    return QPoly(k, exact_degree_bound(n, k), Counter(exponents))


def fundamental_comaj_polynomial(R, n: int, k: int) -> QPoly:
    """Sum over permutation vectors of the comaj-component weight.

    The packed value is memoised per (R, n, k); each call unpacks it.
    """
    return fundamental.polynomial({frozenset(R): 1}, n, k)


def schur_comaj_polynomial(lam: Partition, k: int, collapsed: bool = False) -> QPoly:
    """Sum of the fundamental values at the descent sets of the standard tableaux.

    Each distinct descent set is summed once, weighted by the number of
    tableaux that have it.  ``collapsed`` sets every q_i = q.
    """
    lam = partition(lam)
    return fundamental.polynomial(Counter(T.descent_set() for T in standard_tableaux(lam)),
                                  sum(lam), k, collapsed)


def labeled_tableau_polynomial(lam: Partition, k: int) -> QPoly:
    """Same sum computed from the weights of closed label chains, streamed per tableau."""
    lam = partition(lam)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    n = sum(lam)
    words = tuple(perm.symmetric_group(n))
    return _tally(n, k, itertools.chain.from_iterable(
        _checked_weights(T, words, k) for T in standard_tableaux(lam)
    ))


def _checked_weights(T, words, k: int):
    """T's closed-chain weights, the first checked against ``engine.labeled_tableau``."""
    weights = engine.closed_chain_weights(T.descent_set(), T.n, words, k - 1)
    first = next(weights)
    expected = engine.labeled_tableau(T, (words[0],) * (k - 1)).weight(k)
    if first != expected:
        raise RuntimeError(f"chain walk gave {first} for {T!r}, labeled_tableau gave {expected}")
    return itertools.chain((first,), weights)


def graded_multiplicity_comaj(lam: Partition, k: int) -> QPoly:
    """Single-variable graded multiplicity via total comaj weights: the collapsed Schur side."""
    return schur_comaj_polynomial(lam, k, collapsed=True)


def graded_multiplicity_character(lam: Partition, k: int) -> QPoly:
    """The same multiplicity from character values and cycle-type series.

    Averages [(q;q)_n * prod 1/(1-q^{mu_i})]^k against the characters:
    each cycle type mu is weighted by its integer class size n!/z_mu and
    the sum is divided by n! once, which raises ArithmeticError unless
    every coefficient is an integer.
    """
    lam = partition(lam)
    n = sum(lam)
    order = factorial(n)
    acc = QPoly.zero(1, exact_degree_bound(n, k))
    for mu, series in _class_series(n, k):
        acc = acc + series * (character(lam, mu) * (order // centralizer_size(mu)))
    return exact_div(acc, order)


# Cache bound: one table per (n, k) for n <= 8 and k <= 4, the sizes the
# suites reach; each holds p(n) <= 22 one-variable series.
@lru_cache(maxsize=32)
def _class_series(n: int, k: int) -> tuple[tuple[Partition, QPoly], ...]:
    """(mu, [(q;q)_n * prod 1/(1-q^{mu_i})]^k) for each cycle type mu of S_n."""
    trunc = Truncation(1, exact_degree_bound(n, k))
    poch_n = pochhammer(1, n, trunc)
    table = []
    for mu in partitions(n):
        series = poch_n
        for part in mu:
            series = series * QPoly(*trunc, {(d * part,): 1 for d in range(trunc.D // part + 1)})
        table.append((mu, series**k))
    return tuple(table)


_INT = frozenset({int})


def _ints(*checks) -> None:
    """Raise unless each (name, value, least) holds an int, and one no less than least if given.

    The type is checked before any cache is read, since a cache takes 1,
    1.0 and True for one key.
    """
    for name, value, least in checks:
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
        if least is not None and value < least:
            raise ValueError(f"need {name} >= {least}, got {value}")


def _truncation(trunc: Truncation | None, k: int, bound: int) -> Truncation:
    """The given truncation, which must have k variables and an int D, or (k, bound)."""
    if trunc is None:
        return Truncation(k, bound)
    _ints(("D", trunc.D, None))
    if type(trunc.k) is not int or trunc.k != k:
        raise ValueError(f"truncation has {trunc.k!r} variables, expected {k}")
    return trunc


def verify_finite_evaluation(lam: Partition, k: int,
                             trunc: Truncation | None = None) -> VerificationReport:
    """Four-way check of the finite Schur principal evaluation."""
    lam = partition(lam)
    _ints(("k", k, None))
    n = sum(lam)
    bound = exact_degree_bound(n, k)
    trunc = _truncation(trunc, k, bound)
    if trunc.D < bound:
        raise ValueError(f"need D >= {bound} for an exact comparison, got {trunc.D}")
    jt = schur_principal_jt(lam, trunc)
    ssyt = schur_principal_by_tableaux(lam, trunc)
    normalized = schur_normalized_jt(lam, trunc)
    comaj_side = schur_comaj_polynomial(lam, k).rebound(trunc.D)
    chain_side = labeled_tableau_polynomial(lam, k).rebound(trunc.D)
    params = {"lambda": list(lam), "k": k, "D": trunc.D}
    pairs = _chained(
        [
            ("pochhammer_jacobi_trudi", normalized),
            ("comaj_formula", comaj_side),
            ("labeled_tableau_sum", chain_side),
        ]
    )
    pairs.append((("jacobi_trudi_series", jt), ("ssyt_enumeration", ssyt)))
    return _compare("finite_evaluation", params, pairs)


def verify_kronecker_multiplicity(lam: Partition, k: int) -> VerificationReport:
    """Comaj path against the character oracle, plus the dimension count."""
    lam = partition(lam)
    _ints(("k", k, None))
    n = sum(lam)
    comaj_side = graded_multiplicity_comaj(lam, k)
    character_side = graded_multiplicity_character(lam, k)
    expected_dim = hook_length_count(lam) * factorial(n) ** (k - 1)
    params = {"lambda": list(lam), "k": k}
    return _compare(
        "kronecker_multiplicity",
        params,
        _chained([("comaj_path", comaj_side), ("character_path", character_side)]),
        extra_checks=[
            {
                "name": "value_at_one",
                "left": comaj_side.total_at_one(),
                "right": expected_dim,
            }
        ],
    )


def verify_fundamental_evaluation(R, n: int, k: int,
                                  trunc: Truncation | None = None) -> VerificationReport:
    """Pochhammer-normalized chain enumeration against the comaj formula."""
    _ints(("n", n, None), ("k", k, None))
    if not _INT.issuperset(map(type, R)):
        raise ValueError(f"R must be a subset of 1..{n - 1}: {sorted(R)!r}")
    trunc = _truncation(trunc, k, exact_degree_bound(n, k))
    normalized = fundamental_principal_normalized(R, n, trunc)
    formula = fundamental_comaj_polynomial(R, n, k).rebound(trunc.D)
    params = {"R": sorted(R), "n": n, "k": k, "D": trunc.D}
    return _compare(
        "fundamental_evaluation",
        params,
        _chained([("pochhammer_enumeration", normalized), ("comaj_formula", formula)]),
    )


def _closing(n: int, sigmas) -> tuple[int, ...]:
    """The permutation that makes the product of sigmas and it the identity."""
    return perm.inverse(reduce(perm.compose, sigmas, perm.identity(n)))


def verify_row_case(n: int, k: int) -> VerificationReport:
    """Single-row shape: the comaj formula equals the product-one enumeration."""
    _ints(("n", n, None), ("k", k, None))
    lhs = schur_comaj_polynomial((n,), k)
    rhs = _tally(n, k, (
        tuple(perm.comaj(sigma) for sigma in (*sigmas, _closing(n, sigmas)))
        for sigmas in _sigma_vectors(n, k)
    ))
    sides = [("comaj_formula", lhs), ("identity_product_enumeration", rhs)]
    if k == 2:
        paired = _tally(n, k, (
            (perm.comaj(perm.inverse(sigma)), perm.comaj(sigma))
            for sigma in perm.symmetric_group(n)
        ))
        sides.append(("inverse_pair_enumeration", paired))
    # Hilbert series of the invariants: collapse against the character oracle.
    pairs = _chained(sides)
    pairs.append(
        (
            ("invariant_hilbert_series", collapse(rhs)),
            ("character_path", graded_multiplicity_character((n,), k)),
        )
    )
    return _compare("row_case", {"n": n, "k": k}, pairs)


def _within(cells: int, total: int):
    """Every tuple of ``cells`` naturals whose sum is at most ``total``."""
    if cells == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _within(cells - 1, total - first):
            yield (first, *rest)


# Cache bounds.  A prop41 sweep reads each (R, n, r, bound) in one contiguous
# block of tasks, so it needs one bucket table at a time; the rest serve
# callers that interleave a few boxes.  The verdicts are shared across
# tables: one sweep over every R reaches at most 184 distinct side pairs for
# n <= 5, r <= 3 and bound <= 4 (5 for n = 5, r = 1, bound 3), so every
# verdict of such a sweep stays cached.
_BOXES = 8
_PAIRS = 512
_EMPTY = frozenset()


@lru_cache(maxsize=_BOXES)
def _box_buckets(R: frozenset[int], n: int, r: int, bound: int) -> tuple[dict, tuple, str]:
    """Each reached (sigma, D)'s injection-recursion verdict, the zero verdict, the params' prefix.

    Left: (q_r; q_r)_n times the sum of q^Z over Z in (N^r)^n with reading
    order sigma and trailing descent set D.  Right: q_r^{c(D)} times the
    sum of q^S over S in (N^{r-1})^n with descent set D against sigma.
    Both sides live in r variables truncated at total degree bound, and
    their factors have no negative degrees, so only the lists whose
    entries sum to at most bound are enumerated.  Each Z is a head row
    prepended to a tail list S, so one pass over the S builds both tables.
    A key that no such S reaches has two zero sides: it reads the zero
    verdict, the one of two empty tables.  The prefix is the params' JSON up
    to sigma's value, built once the loops have checked R's range.
    """
    Rf = frozenset(R)
    perms = tuple(perm.symmetric_group(n))
    left: defaultdict[tuple, Counter] = defaultdict(Counter)
    right: defaultdict[tuple, Counter] = defaultdict(Counter)
    for flat in _within(n * (r - 1), bound):
        S = tuple(flat[i * (r - 1):(i + 1) * (r - 1)] for i in range(n))
        tail_descents = {sigma: engine.descents(Rf, S, sigma) for sigma in perms}
        e = engine.seq_weight(S, r)
        for key in tail_descents.items():
            right[key][e] += 1
        for head in _within(n, bound - sum(flat)):
            Z = tuple((h, *s) for h, s in zip(head, S))
            sigma = engine.reading_order(Rf, Z)
            left[sigma, tail_descents[sigma]][engine.seq_weight(Z, r)] += 1
    prefix = f'{{"R":{canonical_json(sorted(Rf))},"bound":{bound},"n":{n},"r":{r},"sigma":'
    # A Z's key is the key of its tail list, so the right table has every key.
    # q_r^c is zero below the bound once c > bound, so those c share a verdict.
    return {
        (sigma, D): _verdict(n, r, bound, frozenset(left.get((sigma, D), {}).items()),
                             min(sum(n - i for i in D), bound + 1), frozenset(counts.items()))
        for (sigma, D), counts in right.items()
    }, _verdict(n, r, bound, _EMPTY, 0, _EMPTY), prefix


@lru_cache(maxsize=_PAIRS)
def _verdict(n: int, r: int, bound: int, left: frozenset, c: int,
             right: frozenset) -> tuple[VerificationReport, str, str]:
    """(q_r; q_r)_n times the left counts, compared with q_r^c times the right counts.

    Each side is built from its own table only.  Empty tables give the
    verdict of a key that no list reaches.  The report has no params; it
    comes split around them by ``_split``.
    """
    trunc = Truncation(r, bound)
    return _split(_compare("injection_recursion", None, [(
        ("pochhammer_times_chain_side", pochhammer(r, n, trunc) * QPoly(*trunc, dict(left))),
        ("weighted_short_side", QPoly.variable(*trunc, r, c) * QPoly(*trunc, dict(right))),
    )]))


_NO_PARAMS = '"params":null'


def _split(verdict: VerificationReport) -> tuple[VerificationReport, str, str]:
    """The verdict, and its line before and after the params' JSON.

    A report without params holds ``"params":null`` at the params' place;
    a line that holds it anywhere else too is refused, as is one without it.
    """
    line = verdict.to_json_line()
    if line.count(_NO_PARAMS) != 1:
        raise ValueError(f"need {_NO_PARAMS} exactly once in {line}")
    head, tail = line.split(_NO_PARAMS)
    return verdict, head + '"params":', tail


# Cache bound: one pair of tables per n.  A sweep reads its n in increasing
# order; 4 serve callers that interleave a few n.  At n = 6 the tables hold
# 720 and 32 strings.
@lru_cache(maxsize=4)
def _key_fragments(n: int) -> tuple[dict[tuple[int, ...], str], dict[frozenset[int], str]]:
    """Each permutation of 1..n with its JSON, and each subset of 1..n-1 with its fragment.

    A target's fragment is the rest of the params' JSON: ``,"target":``,
    its sorted entries and the closing brace.  Membership in these tables
    is what validates sigma and the target.
    """
    sigmas = {sigma: canonical_json(sigma) for sigma in perm.symmetric_group(n)}
    targets = {frozenset(combo): f',"target":{canonical_json(combo)}}}'
               for size in range(n) for combo in itertools.combinations(range(1, n), size)}
    return sigmas, targets


def _refuse(R, n, target, sigma, r, bound) -> None:
    """Raise the first error of a refused prop41 key, in the order of the checks.

    Called only when a check fails: n, r or bound not an int or too small,
    sigma not a permutation of 1..n, the target not a subset of 1..n-1, or
    an entry of R that is not an int.  Past the n, r and bound checks it
    reads sigma, the target and R, so they must come as a tuple and sets.
    """
    _ints(("n", n, 1), ("r", r, 1), ("bound", bound, 0))
    perm.perm(sigma)
    if len(sigma) != n:
        raise ValueError(f"permutation size {len(sigma)} != {n}")
    if any(type(i) is not int or not 1 <= i <= n - 1 for i in target):
        raise ValueError(f"target must be a subset of 1..{n - 1}: {sorted(target)!r}")
    raise ValueError(f"R must be a subset of 1..{n - 1}: {sorted(R)!r}")


def verify_injection_recursion(R, n: int, target, sigma,
                               r: int, bound: int) -> VerificationReport:
    """Bounded check that peeling one coordinate costs exactly the comaj weight.

    Compares (q_r; q_r)_n times the sum of q^Z over Z with the given
    reading order and trailing descent set, against q_r^{c(target)}
    times the sum of q^S over the one-coordinate-shorter lists with
    that descent set.  Both sides are truncated at total degree
    ``bound``, so only the lists whose entries sum to at most ``bound``
    are enumerated; no factor has a negative degree, so the lists left
    out cannot disturb the truncated sides.  Keys that share a side pair
    share its verdict; each report holds its own key and reads the rest
    from that verdict.

    Every argument is checked before any cache is read: n, r and bound
    and the entries of R, the target and sigma must be ints, since the
    caches take 1, 1.0 and True for one key.  R's range is checked where
    the bucket table is built.
    """
    if not (type(n) is type(r) is type(bound) is int and n >= 1 and r >= 1 and bound >= 0):
        _refuse(R, n, target, sigma, r, bound)
    R = frozenset(R)
    target = frozenset(target)
    sigma = tuple(sigma)
    if len(sigma) != n or not _INT.issuperset(map(type, (*R, *target, *sigma))):
        _refuse(R, n, target, sigma, r, bound)
    sigmas, targets = _key_fragments(n)
    sigma_json = sigmas.get(sigma)
    target_json = targets.get(target)
    if sigma_json is None or target_json is None:
        _refuse(R, n, target, sigma, r, bound)
    table, zero, prefix = _box_buckets(R, n, r, bound)
    return _KeyReport((R, n, target, sigma, r, bound), table.get((sigma, target), zero),
                      prefix, sigma_json, target_json)


def verify_variable_reindex(lam: Partition, m: int) -> VerificationReport:
    """Adding a variable and deleting it again reaches the reversed m-variable value."""
    lam = partition(lam)
    _ints(("m", m, 1))
    n = sum(lam)
    big_bound = exact_degree_bound(n, m + 1)
    small = schur_comaj_polynomial(lam, m)
    reversed_small = small.permute_variables(tuple(range(m, 0, -1))).rebound(big_bound)
    big = schur_comaj_polynomial(lam, m + 1)
    restricted = big.set_variable_to_zero(m + 1).drop_variable(m + 1)
    params = {"lambda": list(lam), "m": m}
    return _compare(
        "variable_reindex",
        params,
        _chained([("reversed_small", reversed_small), ("restricted_large", restricted)]),
    )
