import itertools
import random

import pytest
from hypothesis import given, strategies as st

from comaj import engine, perm
from comaj.tableaux import StandardTableau, partitions, standard_tableaux


def seqs(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(c) for c in tok) for tok in text.split(","))


def all_subsets(n: int):
    for size in range(n):
        yield from (frozenset(c) for c in itertools.combinations(range(1, n), size))


# -- comparisons and neighbors -------------------------------------------------

def test_neighbors():
    R = frozenset({3, 4, 6})
    assert engine.are_neighbors(R, 7, 3, 5)
    assert engine.are_neighbors(R, 7, 5, 3)
    assert not engine.are_neighbors(R, 7, 2, 3)
    assert engine.are_neighbors(R, 7, 4, 4)
    assert not engine.are_neighbors(frozenset(), 5, 1, 2)
    with pytest.raises(ValueError):
        engine.are_neighbors(R, 7, 0, 3)


# -- generalized descents ------------------------------------------------------

def test_descents_worked_example():
    R = frozenset({3, 4, 6})
    S = seqs("020,312,312,011,011,100,010")
    assert engine.descents(R, S, (1, 4, 5, 6, 7, 2, 3)) == {1, 2, 4}


def test_descents_single_coordinate_example():
    R = frozenset({2, 5, 6})
    S = tuple((v,) for v in (1, 1, 0, 2, 0, 0, 1))
    assert engine.descents(R, S, (6, 5, 2, 3, 4, 1, 7)) == {3, 5}


def test_descents_two_coordinate_example():
    R = frozenset({2, 5, 6})
    S = seqs("21,01,10,12,00,00,21")
    assert engine.descents(R, S, (1, 4, 2, 3, 5, 6, 7)) == {1, 2, 4, 5}


def test_descents_of_identity_with_no_coordinates_is_r():
    for n in (2, 3, 5):
        for R in all_subsets(n):
            got = engine.descents(R, engine.empty_seqlist(n), perm.identity(n))
            assert got == R


@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_no_coordinates_reduces_to_classical_descents(n, rnd):
    word = tuple(rnd.sample(range(1, n + 1), n))
    got = engine.descents(frozenset(), engine.empty_seqlist(n), word)
    assert got == perm.descent_set(word)
    assert engine.comaj(frozenset(), engine.empty_seqlist(n), word) == perm.comaj(word)


def test_comaj_examples():
    R = frozenset({2, 5, 6})
    assert engine.comaj(R, engine.empty_seqlist(7), (3, 6, 5, 1, 2, 7, 4)) == 5
    S = seqs("21,01,10,12,00,00,21")
    assert engine.comaj(R, S, (1, 4, 2, 3, 5, 6, 7)) == 16


def test_descents_size_mismatch():
    with pytest.raises(ValueError):
        engine.descents(frozenset(), engine.empty_seqlist(3), (1, 2))
    with pytest.raises(ValueError):
        engine.descents(frozenset(), ((0,), (0, 1)), (1, 2))
    # the empty list (n = 0) is refused, not read at S[0]
    for call in (lambda: engine.descents(frozenset(), (), ()),
                 lambda: engine.comaj(frozenset(), (), ()),
                 lambda: engine.prepend_labels(frozenset(), (), ()),
                 lambda: engine.reading_order(frozenset(), ()),
                 lambda: engine.seq_weight((), 1),
                 lambda: engine.increment_suffix(frozenset(), (), 0, ())):
        with pytest.raises(ValueError, match="need at least one sequence"):
            call()


# -- label steps and chains ----------------------------------------------------

def test_prepend_labels_worked_example():
    R = frozenset({3, 4, 6})
    S = seqs("020,312,312,011,011,100,010")
    assert engine.prepend_labels(R, (1, 4, 5, 6, 7, 2, 3), S) == seqs(
        "0020,3312,3312,1011,2011,2100,3010"
    )


def test_prepend_labels_second_step():
    R = frozenset({2, 5, 6})
    S = tuple((v,) for v in (1, 1, 0, 2, 0, 0, 1))
    assert engine.prepend_labels(R, (6, 5, 2, 3, 4, 1, 7), S) == seqs(
        "21,01,10,12,00,00,21"
    )


def test_prepend_labels_identity_no_coordinates():
    got = engine.prepend_labels(frozenset(), perm.identity(4), engine.empty_seqlist(4))
    assert got == ((0,), (0,), (0,), (0,))


@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_label_sum_equals_comaj(n, rnd):
    r = rnd.randint(0, 3)
    S = tuple(tuple(rnd.randint(0, 4) for _ in range(r)) for _ in range(n))
    word = tuple(rnd.sample(range(1, n + 1), n))
    R = frozenset(i for i in range(1, n) if rnd.random() < 0.5)
    out = engine.prepend_labels(R, word, S)
    assert sum(s[0] for s in out) == engine.comaj(R, S, word)
    assert all(s[1:] == old for s, old in zip(out, S))


def test_full_chain_display():
    R = frozenset({2, 5, 6})
    sigmas = ((3, 6, 5, 1, 2, 7, 4), (6, 5, 2, 3, 4, 1, 7), (1, 4, 2, 3, 5, 6, 7))
    steps = list(engine.chain_steps(R, 7, sigmas))
    assert [S for _, S in steps[:-1]] == [
        ((1,), (1,), (0,), (2,), (0,), (0,), (1,)),
        seqs("21,01,10,12,00,00,21"),
        seqs("021,201,210,112,300,400,421"),
    ]
    assert engine.label_chain(R, 7, sigmas) == seqs(
        "0021,0201,0210,1112,1300,1400,1421"
    )


def test_chain_second_display():
    R = frozenset({1, 3, 4, 5})
    sigmas = ((6, 3, 1, 2, 5, 4), (3, 6, 5, 4, 1, 2))
    assert engine.label_chain(R, 6, sigmas) == seqs("021,022,100,112,212,310")


def test_chain_with_no_permutations_gives_descent_labels():
    for n in (2, 4):
        for R in all_subsets(n):
            got = engine.label_chain(R, n, ())
            labels = tuple(s[0] for s in got)
            expected = tuple(sum(1 for j in R if j < i) for i in range(1, n + 1))
            assert labels == expected


def test_comaj_components_worked_examples():
    R = frozenset({2, 5, 6})
    sigmas = ((3, 6, 5, 1, 2, 7, 4), (6, 5, 2, 3, 4, 1, 7), (1, 4, 2, 3, 5, 6, 7))
    assert engine.comaj_components(R, 7, sigmas) == (5, 6, 16, 4)
    assert sum(engine.comaj_components(R, 7, sigmas)) == 31

    T = StandardTableau([[1, 3], [2, 4], [5], [6]])
    sigmas2 = ((6, 3, 1, 2, 5, 4), (3, 6, 5, 4, 1, 2))
    assert engine.comaj_components(T.descent_set(), T.n, sigmas2) == (7, 7, 7)
    assert sum(engine.comaj_components(T.descent_set(), T.n, sigmas2)) == 21


def test_components_with_empty_vector_give_tableau_comaj():
    # at k = 1 the generalized statistic is the classical comaj of the tableau
    for lam in [(3,), (2, 1), (2, 2, 1)]:
        for T in standard_tableaux(lam):
            assert engine.comaj_components(T.descent_set(), T.n, ()) == (T.comaj(),)


def test_chain_steps_match_single_steps():
    rnd = random.Random(5)
    for _ in range(200):
        n = rnd.randint(1, 5)
        k = rnd.randint(1, 3)
        R = frozenset(i for i in range(1, n) if rnd.random() < 0.5)
        sigmas = tuple(
            tuple(rnd.sample(range(1, n + 1), n)) for _ in range(k - 1)
        )
        S_prev = engine.empty_seqlist(n)
        steps = list(engine.chain_steps(R, n, sigmas))
        assert len(steps) == k
        for sigma, (positions, S) in zip((*sigmas, perm.identity(n)), steps):
            assert positions == sorted(engine.descents(R, S_prev, sigma))
            assert S == engine.prepend_labels(R, sigma, S_prev)
            S_prev = S


def test_chain_steps_validation():
    with pytest.raises(ValueError):
        list(engine.chain_steps({3}, 3, ()))
    with pytest.raises(ValueError):
        list(engine.chain_steps({0}, 3, ((1, 2, 3),)))
    with pytest.raises(ValueError):
        list(engine.chain_steps(frozenset(), 3, ((1, 2, 3), (2, 1))))
    with pytest.raises(ValueError):
        engine.comaj_components({3}, 3, ())
    with pytest.raises(ValueError):
        engine.label_chain(frozenset(), 3, ((1, 2, 3, 4),))
    # a word of the right size that is no permutation; a wrong size is still named first
    for word in ((1, 1, 1), (0, 1, 2)):
        with pytest.raises(ValueError, match="not a permutation of 1..3"):
            engine.comaj_components(frozenset(), 3, (word,))
    with pytest.raises(ValueError, match="permutation size 2 != 3"):
        engine.comaj_components(frozenset(), 3, ((1, 1),))
    # entries that only compare equal to ints are refused, not tripped over
    with pytest.raises(ValueError, match="not a permutation of 1..2"):
        engine.comaj_components(frozenset(), 2, ((2.0, 1.0),))


def test_closed_chain_weights_match_labeled_tableaux():
    # the depth-first walk yields the weights of the closed chains in product order
    def check(T, words, k):
        expected = [
            engine.labeled_tableau(T, sigmas).weight(k)
            for sigmas in itertools.product(words, repeat=k - 1)
        ]
        got = engine.closed_chain_weights(T.descent_set(), T.n, words, k - 1)
        assert list(got) == expected, (T, k)

    for n in range(1, 6):
        words = tuple(perm.symmetric_group(n))
        for lam in partitions(n):
            tableaux = standard_tableaux(lam)
            for T in tableaux:
                for k in range(1, 3 if n == 5 else 4):
                    check(T, words, k)
            if n == 5:
                check(tableaux[len(tableaux) // 2], words, 3)


def test_closed_chain_weights_validation():
    words = tuple(perm.symmetric_group(3))
    # checked when called, before the first weight is asked for
    with pytest.raises(ValueError):
        engine.closed_chain_weights({3}, 3, words, 1)
    with pytest.raises(ValueError):
        engine.closed_chain_weights({0}, 3, words, 2)
    with pytest.raises(ValueError):
        engine.closed_chain_weights(frozenset(), 3, (*words, (2, 1)), 1)
    with pytest.raises(ValueError):
        engine.closed_chain_weights(frozenset(), 3, words, -1)
    with pytest.raises(ValueError, match="not a permutation of 1..3"):
        engine.closed_chain_weights(frozenset(), 3, [(1, 1, 1)], 1)
    with pytest.raises(ValueError, match="permutation size 2 != 3"):
        engine.closed_chain_weights(frozenset(), 3, [(1, 1)], 1)


def test_component_weight_consistency():
    rnd = random.Random(7)
    for _ in range(200):
        n = rnd.randint(1, 5)
        k = rnd.randint(1, 3)
        R = frozenset(i for i in range(1, n) if rnd.random() < 0.5)
        sigmas = tuple(
            tuple(rnd.sample(range(1, n + 1), n)) for _ in range(k - 1)
        )
        comps = engine.comaj_components(R, n, sigmas)
        chain = engine.label_chain(R, n, sigmas)
        assert engine.seq_weight(chain, k) == comps


# -- reading order ---------------------------------------------------------

def test_reading_order_worked_example():
    R = frozenset({2, 3, 4, 7})
    S = seqs("110,010,010,110,010,210,110,210,010")
    assert engine.reading_order(R, S) == (5, 3, 2, 9, 1, 4, 7, 6, 8)


def test_reading_order_ties():
    assert engine.reading_order(frozenset(), ((1, 1),) * 4) == (1, 2, 3, 4)
    assert engine.reading_order(frozenset(), ((1,), (0,))) == (2, 1)
    assert engine.reading_order(frozenset({1, 2, 3}), ((0,),) * 4) == (4, 3, 2, 1)


def test_chain_round_trip_small():
    # reading the chain after step i recovers the permutation of step i
    for n in range(1, 5):
        words = list(perm.symmetric_group(n))
        for lam in partitions(n):
            for T in standard_tableaux(lam):
                R = T.descent_set()
                for k in (1, 2, 3):
                    for sigmas in itertools.product(words, repeat=k - 1):
                        S = engine.empty_seqlist(n)
                        for sigma in sigmas:
                            S = engine.prepend_labels(R, sigma, S)
                            assert engine.reading_order(R, S) == sigma
                        S = engine.prepend_labels(R, perm.identity(n), S)
                        assert engine.reading_order(R, S) == perm.identity(n)


def test_chain_round_trip_n5():
    n = 5
    words = list(perm.symmetric_group(n))
    for lam in partitions(n):
        for T in standard_tableaux(lam):
            R = T.descent_set()
            for sigmas in itertools.product(words, repeat=2):
                S = engine.empty_seqlist(n)
                for sigma in sigmas:
                    S = engine.prepend_labels(R, sigma, S)
                    assert engine.reading_order(R, S) == sigma
                S = engine.prepend_labels(R, perm.identity(n), S)
                assert engine.reading_order(R, S) == perm.identity(n)


# -- suffix increments -------------------------------------------------------

def test_increment_suffix_worked_example():
    R = frozenset({3, 4, 5})
    S = seqs("01,20,11,20,11,20,01")
    sigma = engine.reading_order(R, S)
    assert sigma == (1, 7, 5, 3, 2, 6, 4)
    assert engine.increment_suffix(R, sigma, 3, S) == seqs("01,30,21,30,11,30,01")


def test_increment_suffix_threshold_zero_bumps_everything():
    R = frozenset({1})
    S = ((0, 1), (0, 1), (2, 0))
    sigma = engine.reading_order(R, S)
    got = engine.increment_suffix(R, sigma, 0, S)
    assert got == ((1, 1), (1, 1), (3, 0))


def test_increment_suffix_preserves_descents_inside_chains():
    R = frozenset({3, 4, 5})
    Z = seqs("2001,1020,0111,1020,0111,1020,2001")
    tau = (5, 3, 6, 2, 4, 7, 1)
    assert engine.descents(R, Z, tau) == {3, 6}
    inner = tuple(z[2:] for z in Z)
    sigma = engine.reading_order(R, inner)
    bumped = engine.increment_suffix(R, sigma, 3, inner)
    Zp = tuple(z[:2] + b for z, b in zip(Z, bumped))
    assert Zp == seqs("2001,1030,0121,1030,0111,1030,2001")
    assert engine.descents(R, Zp, tau) == {3, 6}


def test_increment_suffix_validation():
    S = ((0,), (1,))
    with pytest.raises(ValueError):
        engine.increment_suffix(frozenset(), (1, 2), 2, S)
    with pytest.raises(ValueError):
        engine.increment_suffix(frozenset(), (1, 2), 0, engine.empty_seqlist(2))
    with pytest.raises(ValueError):
        engine.increment_suffix(frozenset(), (2, 1), 0, S)  # reading order is (1, 2)


def _boxes(n: int, r: int, bound: int):
    cells = itertools.product(range(bound + 1), repeat=n * r)
    for flat in cells:
        yield tuple(flat[i * r : (i + 1) * r] for i in range(n))


def test_increment_suffix_injective_and_preserving():
    # bounded exhaustive sweep over two-coordinate lists
    for n in (2, 3, 4):
        for R in all_subsets(n):
            groups: dict = {}
            for S in _boxes(n, 2, 2):
                groups.setdefault(engine.reading_order(R, S), []).append(S)
            for sigma, group in groups.items():
                for i in range(n):
                    images = {engine.increment_suffix(R, sigma, i, S) for S in group}
                    assert len(images) == len(group)
                    for S in group:
                        out = engine.increment_suffix(R, sigma, i, S)
                        assert engine.reading_order(R, out) == sigma
                        tails = tuple(s[1:] for s in S)
                        out_tails = tuple(s[1:] for s in out)
                        assert tails == out_tails


def test_peeling_chain_fixed_point_characterization():
    # Repeatedly removing suffix-increment images leaves exactly the lists
    # whose leading coordinates follow the descent pattern.
    for n, bound in ((2, 3), (3, 3), (4, 2)):
        for R in all_subsets(n):
            groups: dict = {}
            for Z in _boxes(n, 2, bound):
                sigma = engine.reading_order(R, Z)
                tails = tuple(z[1:] for z in Z)
                D = engine.descents(R, tails, sigma)
                groups.setdefault((sigma, D), set()).add(Z)
            for (sigma, D), members in groups.items():
                current = {Z for Z in members if Z[sigma[0] - 1][0] == 0}
                for i in range(1, n):
                    image = {
                        engine.increment_suffix(R, sigma, i, Z) for Z in current
                    }
                    current = current - image
                    expected = {
                        Z
                        for Z in members
                        if Z[sigma[0] - 1][0] == 0
                        and all(
                            Z[sigma[j] - 1][0]
                            == Z[sigma[j - 1] - 1][0] + (1 if j in D else 0)
                            for j in range(1, i + 1)
                        )
                    }
                    assert current == expected


def test_increment_inside_longer_chains_preserves_descents():
    rnd = random.Random(11)
    for _ in range(150):
        n = rnd.randint(2, 5)
        r = rnd.randint(1, 2)
        m = rnd.randint(1, 2)
        R = frozenset(i for i in range(1, n) if rnd.random() < 0.5)
        S = tuple(tuple(rnd.randint(0, 3) for _ in range(m)) for _ in range(n))
        sigma = engine.reading_order(R, S)
        j = rnd.randint(0, n - 1)
        bumped = engine.increment_suffix(R, sigma, j, S)
        chain_perms = tuple(
            tuple(rnd.sample(range(1, n + 1), n)) for _ in range(r)
        )
        Z = S
        W = bumped
        for sg in chain_perms:
            Z = engine.prepend_labels(R, sg, Z)
            W = engine.prepend_labels(R, sg, W)
        tau = tuple(rnd.sample(range(1, n + 1), n))
        assert engine.descents(R, Z, tau) == engine.descents(R, W, tau)


# -- zero-comaj permutations ---------------------------------------------------

def test_zero_comaj_examples():
    assert engine.zero_comaj_perm(frozenset(), 4) == (1, 2, 3, 4)
    assert engine.zero_comaj_perm({1}, 3) == (2, 1, 3)
    assert engine.zero_comaj_perm({1, 2}, 3) == (3, 2, 1)


def test_zero_comaj_unique_brute_force():
    for n in range(1, 6):
        for R in all_subsets(n):
            hits = [
                w
                for w in perm.symmetric_group(n)
                if engine.comaj(R, engine.empty_seqlist(n), w) == 0
            ]
            z = engine.zero_comaj_perm(R, n)
            assert hits == [z]
            assert perm.inverse(z) == z
            assert perm.descent_set(z) == R


# -- weights and labeled tableaux ----------------------------------------------

def test_seq_weight_examples():
    Z4 = seqs("0021,0201,0210,1112,1300,1400,1421")
    assert engine.seq_weight(Z4, 4) == (5, 6, 16, 4)
    Z3 = seqs("021,022,100,112,212,310")
    assert engine.seq_weight(Z3, 3) == (7, 7, 7)
    assert engine.seq_weight(((0, 0), (0, 0)), 2) == (0, 0)
    assert engine.seq_weight(((1,), (2,)), 3) == (3, 0, 0)
    with pytest.raises(ValueError):
        engine.seq_weight(((1, 2),), 1)


def test_labeled_tableau_displays():
    T = StandardTableau([[1, 2, 4, 5], [3, 6], [7]])
    sigmas = ((3, 6, 5, 1, 2, 7, 4), (6, 5, 2, 3, 4, 1, 7), (1, 4, 2, 3, 5, 6, 7))
    P = engine.labeled_tableau(T, sigmas)
    assert P.filling == seqs("0021,0201,0210,1112,1300,1400,1421")
    assert P.weight(4) == (5, 6, 16, 4)

    row = StandardTableau([[1, 2, 3]])
    assert engine.labeled_tableau(row, ()).filling == ((0,), (0,), (0,))


# -- relation to classical descents over plain lists ----------------------------

def test_empty_r_descents_factor_through_reading_order():
    rnd = random.Random(3)
    for _ in range(500):
        n = rnd.randint(1, 5)
        r = rnd.randint(0, 3)
        S = tuple(tuple(rnd.randint(0, 4) for _ in range(r)) for _ in range(n))
        sigma = tuple(rnd.sample(range(1, n + 1), n))
        tau = engine.reading_order(frozenset(), S)
        lhs = engine.descents(frozenset(), S, sigma)
        rhs = perm.descent_set(perm.compose(perm.inverse(tau), sigma))
        assert lhs == rhs


def test_run_ids_cache_holds_every_class_up_to_n9():
    # the bounded cache keeps the 511 (R, n) keys of n <= 9 without evicting
    engine._run_ids.cache_clear()
    for _ in range(2):
        for n in range(1, 10):
            for R in all_subsets(n):
                assert engine._run_ids(R, n) == tuple(
                    sum(i not in R for i in range(1, j)) for j in range(1, n + 1))
    info = engine._run_ids.cache_info()
    assert (info.misses, info.hits, info.currsize) == (511, 511, 511)


def test_r_is_validated_once_per_class_and_never_cached_when_bad():
    engine._run_ids.cache_clear()
    S = engine.empty_seqlist(3)
    calls = (lambda R: engine.are_neighbors(R, 3, 1, 2),
             lambda R: engine.descents(R, S, (1, 2, 3)),
             lambda R: engine.reading_order(R, S),
             lambda R: engine.comaj_components(R, 3, ()),
             lambda R: next(engine.closed_chain_weights(R, 3, [(1, 2, 3)], 1)),
             lambda R: engine.zero_comaj_perm(R, 3))
    for call in calls:
        for R in ({3}, {0, 1}, [2, 5]):
            with pytest.raises(ValueError, match=r"R must be a subset of 1\.\.2"):
                call(R)
        call({1})
    # each bad R misses and raises again; the good one is cached once
    info = engine._run_ids.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3 * len(calls) + 1, len(calls) - 1, 1)
