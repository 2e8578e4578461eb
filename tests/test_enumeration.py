import functools
import itertools
import os
import subprocess
import sys
from collections import defaultdict

import pytest

import comaj
from comaj import enumeration
from comaj.enumeration import (
    fundamental_principal_normalized,
    fundamental_principal_series,
    schur_principal_by_tableaux,
)
from comaj.qpoly import QPoly, Truncation, pochhammer, pochhammer_all, schur_principal_jt


def test_all_monomials_for_single_position():
    t = Truncation(2, 2)
    got = fundamental_principal_series(frozenset(), 1, t)
    assert got == QPoly(
        2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1, (1, 1): 1, (0, 2): 1}
    )


def test_weak_chains_invert_pochhammer():
    for n in range(1, 5):
        t = Truncation(1, 8)
        series = fundamental_principal_series(frozenset(), n, t)
        assert pochhammer(1, n, t) * series == QPoly.one(*t)


def test_strict_pair_gives_shifted_series():
    t = Truncation(1, 7)
    series = fundamental_principal_series(frozenset({1}), 2, t)
    assert pochhammer(1, 2, t) * series == QPoly(1, 7, {(1,): 1})


def test_single_cell_series():
    got = schur_principal_by_tableaux((1,), Truncation(1, 3))
    assert got == QPoly(1, 3, {(0,): 1, (1,): 1, (2,): 1, (3,): 1})


def test_column_shape_small_values():
    got = schur_principal_by_tableaux((1, 1), Truncation(1, 4))
    assert got == QPoly(1, 4, {(1,): 1, (2,): 1, (3,): 2, (4,): 2})


def test_matches_jacobi_trudi():
    for lam, trunc in [
        ((2, 1), Truncation(1, 6)),
        ((2, 1), Truncation(2, 6)),
        ((2, 2), Truncation(2, 6)),
        ((3, 1), Truncation(1, 5)),
    ]:
        assert schur_principal_by_tableaux(lam, trunc) == schur_principal_jt(lam, trunc)


def _bounded_lists(n: int, k: int, D: int):
    """Every n-tuple of k-tuples of naturals with total entry sum <= D."""
    if n == 0:
        yield ()
        return
    for s in itertools.product(range(D + 1), repeat=k):
        if sum(s) <= D:
            for rest in _bounded_lists(n - 1, k, D - sum(s)):
                yield (s,) + rest


def test_reading_condition_matches_brute_force():
    # direct enumeration of bounded sequence lists as an independent oracle
    from comaj import engine

    cases = [(R, n, 2, 4) for n in (2, 3) for R in [(), (1,), tuple(range(1, n))]]
    cases += [
        ((), 3, 1, 6),
        ((1,), 3, 2, 5),
        ((1, 2), 3, 2, 4),
        ((2,), 4, 2, 4),
        ((1, 3), 4, 3, 3),
    ]
    for R, n, k, D in cases:
        expected: dict = {}
        for S in _bounded_lists(n, k, D):
            if engine.reading_order(R, S) != tuple(range(1, n + 1)):
                continue
            e = engine.seq_weight(S, k)
            expected[e] = expected.get(e, 0) + 1
        assert fundamental_principal_series(R, n, Truncation(k, D)) == QPoly(k, D, expected)


def _geometric(var: int, c: int, trunc: Truncation) -> QPoly:
    """1 / (1 - q_var^c), truncated."""
    k, D = trunc
    return QPoly(
        k, D, {(0,) * (var - 1) + (d * c,) + (0,) * (k - var): 1 for d in range(D // c + 1)}
    )


@functools.lru_cache(maxsize=None)
def _product_chains(R: tuple[int, ...], n: int, k: int, trunc: Truncation) -> QPoly:
    """The chain series as a sum over ascent sets P of full k-variate products."""
    if k == 0:
        return QPoly.zero(*trunc) if R else QPoly.one(*trunc)
    total = QPoly.zero(*trunc)
    for size in range(n):
        for P in itertools.combinations(range(1, n), size):
            shift = sum(n - i for i in P)
            if shift > trunc.D:
                continue
            factor = QPoly.variable(trunc.k, trunc.D, k, shift)
            for i in P:
                factor = factor * _geometric(k, n - i, trunc)
            start = 1
            for end in (*P, n):
                inner = tuple(i - start + 1 for i in R if start <= i < end)
                factor = factor * _product_chains(inner, end - start + 1, k - 1, trunc)
                start = end + 1
            total = total + factor
    return total * _geometric(k, n, trunc)


def test_outer_products_match_product_form():
    # each ascent set's one-variable factor against its product of geometric series
    for n in range(1, 5):
        for k in range(1, 4):
            for D in sorted({3, k * n * (n - 1) // 2}):
                trunc = Truncation(k, D)
                for size in range(n):
                    for R in itertools.combinations(range(1, n), size):
                        got = fundamental_principal_series(R, n, trunc)
                        assert got == _product_chains(R, n, k, trunc), (R, n, trunc)


def _cut_sum_by_terms(R, n, trunc, ascent, blocks) -> QPoly:
    """The P-partition sum adding each cut's outer product one term at a time."""
    k, D = trunc
    acc = defaultdict(int)
    for size in range(n):
        for P in itertools.combinations(range(1, n), size):
            shift = sum(n - i for i in P)
            if shift > D:
                continue
            factor = ascent(shift, (n, *(n - i for i in P)), D)
            signature = enumeration._block_signature(R, n, P)
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
    return QPoly(k, D, acc)


_FACTOR_SETS = {
    "series": (enumeration._ascent_factor, enumeration._block_product),
    "normalized": (enumeration._normalized_ascent, enumeration._normalized_block_product),
}


@pytest.mark.parametrize("factors", _FACTOR_SETS.values(), ids=_FACTOR_SETS)
def test_packed_cut_sum_matches_the_term_loop(factors):
    for n in range(1, 5):
        for k in range(1, 4):
            bound = k * n * (n - 1) // 2
            for D in sorted({0, bound // 2, bound}):
                t = Truncation(k, D)
                for size in range(n):
                    for R in itertools.combinations(range(1, n), size):
                        expected = _cut_sum_by_terms(R, n, t, *factors)
                        assert enumeration._cut_sum(R, n, t, *factors) == expected, (R, n, t)


@pytest.mark.parametrize("f, c", [(2**200 - 1, 2**200 - 3), (-(2**200 - 1), 2**200 - 3),
                                  (2**200 - 1, -(2**200 - 1)), (1, 1)],
                         ids=["big", "negative-f", "negative-c", "one"])
def test_packed_cut_sum_slots_hold_their_largest_sums(f, c):
    # every cut adds +-f c to every slot; at n = 4, D = 5 keeps 7 of the 8
    # cuts, so a sum reaches 7 |f c|, more than half of 2^(bits(f c) + bits(7))
    def ascent(shift, cs, D):
        return [(d, f if d % 3 else -f) for d in range(D + 1)]

    def blocks(signature, trunc):
        return QPoly(*trunc, {e: c for e in itertools.product(range(trunc.D + 1), repeat=trunc.k)
                              if sum(e) <= trunc.D})

    for k, D in ((2, 5), (3, 5), (3, 6)):
        t = Truncation(k, D)
        for R in ((), (2,), (1, 3)):
            expected = _cut_sum_by_terms(R, 4, t, ascent, blocks)
            assert enumeration._cut_sum(R, 4, t, ascent, blocks) == expected, (R, t)


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(comaj.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, comaj; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


def test_cli_parser_does_not_load_dataclasses_or_inspect():
    src = os.path.dirname(os.path.dirname(comaj.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, comaj.cli; comaj.cli.build_parser(); "
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False False"


def test_invalid_descent_positions():
    for entry in (fundamental_principal_series, fundamental_principal_normalized):
        with pytest.raises(ValueError, match="R must be a subset of 1..1"):
            entry(frozenset({3}), 2, Truncation(1, 3))
        with pytest.raises(ValueError, match="need n >= 1, got 0"):
            entry(frozenset(), 0, Truncation(1, 3))


def test_entries_refuse_values_a_cache_would_take_for_ints():
    # True == 1 and 2.0 == 2, so a cache would key them as the ints they equal
    t = Truncation(2, 3)
    enumeration._chains.cache_clear()
    for entry in (fundamental_principal_series, fundamental_principal_normalized):
        for R, n in (({True}, 2), ((1.0,), 2), ((), True), ((), 2.0)):
            with pytest.raises(ValueError, match="n and the entries of R must be ints"):
                entry(R, n, t)
        for trunc in ((2, True), (True, 3), (2, 3.0)):
            with pytest.raises(ValueError, match="k and D must be ints"):
                entry((), 2, trunc)
    assert enumeration._chains.cache_info().misses == 0


def test_entries_refuse_bad_truncations():
    # k = 0 would recurse without end, and D = -1 would give a QPoly that QPoly itself refuses
    entries = (
        lambda t: fundamental_principal_series(frozenset(), 2, t),
        lambda t: fundamental_principal_normalized(frozenset(), 2, t),
        lambda t: schur_principal_by_tableaux((2, 1), t),
    )
    for entry in entries:
        for k, D in ((0, 3), (2, -1)):
            with pytest.raises(ValueError, match=f"need k >= 1 and D >= 0, got k={k}, D={D}"):
                entry(Truncation(k, D))


def test_normalized_chains_match_normalized_series():
    # every R at n <= 5 and k <= 3, and at n <= 4 and k = 4, where the cut sum
    # nests three block levels deep; at the exact bound and one below it
    cases = [(n, k) for n in range(1, 6) for k in range(1, 4)] + [(n, 4) for n in range(1, 5)]
    for n, k in cases:
        bound = k * n * (n - 1) // 2
        for D in sorted({bound, max(bound - 1, 0)}):
            t = Truncation(k, D)
            for size in range(n):
                for R in itertools.combinations(range(1, n), size):
                    expected = pochhammer_all(n, t) * fundamental_principal_series(R, n, t)
                    assert fundamental_principal_normalized(R, n, t) == expected, (R, t)


def test_normalized_values_asked_for_are_not_cached():
    # only the blocks read _normalized_chains, at k' < k: a value asked for
    # is summed directly, so no key at the call's own (n, t) is kept
    chains = enumeration._normalized_chains
    for n in range(1, 5):
        classes = [R for size in range(n) for R in itertools.combinations(range(1, n), size)]
        for k in range(1, 4):
            t = Truncation(k, k * n * (n - 1) // 2)
            for R in classes:
                chains.cache_clear()
                got = fundamental_principal_normalized(R, n, t)
                assert got == pochhammer_all(n, t) * fundamental_principal_series(R, n, t), (R, t)
                for other in classes:
                    misses = chains.cache_info().misses
                    chains(other, n, t)
                    assert chains.cache_info().misses > misses, (R, other, t)
