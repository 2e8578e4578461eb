import hashlib
import itertools
import json
from collections import Counter
from math import comb, factorial

import pytest

from comaj import characters, engine, enumeration, fundamental, identities, perm, qpoly, tableaux
from comaj.identities import VerificationReport, _compare, _first_difference
from comaj.characters import centralizer_size, character
from comaj.qpoly import QPoly, Truncation, canonical_json, collapse, exact_div, pochhammer
from comaj.tableaux import hook_length_count, partitions, standard_tableaux


def all_subsets(n: int):
    for size in range(n):
        yield from (frozenset(c) for c in itertools.combinations(range(1, n), size))


# -- closed formulas -------------------------------------------------------

def test_schur_comaj_examples():
    assert identities.schur_comaj_polynomial((1,), 3) == QPoly.one(3, 0)
    assert identities.schur_comaj_polynomial((2, 1), 1) == QPoly(
        1, 3, {(1,): 1, (2,): 1}
    )


def test_schur_comaj_term_count():
    for lam, k in [((2,), 2), ((2, 1), 2), ((3,), 3)]:
        n = sum(lam)
        poly = identities.schur_comaj_polynomial(lam, k)
        assert poly.total_at_one() == hook_length_count(lam) * factorial(n) ** (k - 1)


def test_row_shape_pairs_with_inverse_statistic():
    for n in range(1, 5):
        expected: dict = {}
        for sigma in perm.symmetric_group(n):
            e = (perm.comaj(perm.inverse(sigma)), perm.comaj(sigma))
            expected[e] = expected.get(e, 0) + 1
        got = identities.schur_comaj_polynomial((n,), 2)
        assert got == QPoly(2, n * (n - 1), expected)


def test_fundamental_comaj_examples():
    assert identities.fundamental_comaj_polynomial(frozenset(), 3, 1) == QPoly.one(1, 3)
    assert identities.fundamental_comaj_polynomial(frozenset({1}), 2, 1) == QPoly(
        1, 1, {(1,): 1}
    )
    # single-step value is the weight of the descent set itself
    got = identities.fundamental_comaj_polynomial(frozenset({2, 5, 6}), 7, 1)
    assert got == QPoly(1, 21, {(8,): 1})


def _schur_by_tableau_vectors(lam, k):
    # The tally over every tableau and permutation vector, one tableau at a time.
    n = sum(lam)
    counts = Counter(
        engine.comaj_components(T.descent_set(), n, sigmas)
        for T in standard_tableaux(lam)
        for sigmas in itertools.product(perm.symmetric_group(n), repeat=k - 1)
    )
    return QPoly(k, identities.exact_degree_bound(n, k), counts)


def test_schur_formula_matches_tableau_vector_tally():
    cases = [(lam, k) for n in range(1, 5) for lam in partitions(n) for k in (1, 2, 3)]
    # 16 tableaux but 14 descent sets: the tableaux sharing a set both count
    cases += [((3, 2, 1), 1), ((3, 2, 1), 2)]
    for lam, k in cases:
        assert identities.schur_comaj_polynomial(lam, k) == _schur_by_tableau_vectors(lam, k)


def test_fundamental_values_are_memoised(monkeypatch):
    calls = []
    tally = engine.comaj_components

    def counted(R, n, sigmas):
        calls.append(R)
        return tally(R, n, sigmas)

    monkeypatch.setattr(engine, "comaj_components", counted)
    for cache in (fundamental.packed_value, fundamental._closing_comaj,
                  fundamental._step_table):
        cache.cache_clear()
    for lam in partitions(4):
        identities.graded_multiplicity_comaj(lam, 2)
    # the engine reads only the k = 1 base: one closing step per descent set
    # of {1, 2, 3}, not one tally per tableau or per first step, and the
    # collapsed mode that graded_multiplicity_comaj uses shares that base
    assert sorted(map(sorted, calls)) == sorted(map(sorted, all_subsets(4)))
    # R given as a list, a set or a frozenset is one cache key
    values = [identities.fundamental_comaj_polynomial(R, 4, 2)
              for R in ([2, 1], {1, 2}, frozenset({1, 2}))]
    assert values[0] == values[1] == values[2]
    assert len(calls) == 8
    # k = 3 folds the cached k = 2 values of every class: no engine call
    calls.clear()
    for lam in partitions(4):
        identities.graded_multiplicity_comaj(lam, 3)
    assert calls == []
    # one step table per class, shared by k = 2 and 3 and by the full and collapsed modes
    assert fundamental._step_table.cache_info().misses == 8
    # at n = 5 the values pack at 1, 2 and 3 bytes for k = 1, 2 and 3, each
    # width its own cache key, and still the engine runs once per class
    assert [fundamental.slot_width(5, k) for k in (1, 2, 3)] == [1, 2, 3]
    for k in (1, 2, 3):
        for lam in partitions(5):
            identities.graded_multiplicity_comaj(lam, k)
        for R in all_subsets(5):
            identities.fundamental_comaj_polynomial(R, 5, k)
    assert sorted(map(sorted, calls)) == sorted(map(sorted, all_subsets(5)))


def test_k1_base_is_the_single_comaj_term():
    # at k = 1 no step follows the closing one: F_R(q) is q^{comaj of R}
    for n in range(1, 9):
        for R in all_subsets(n):
            assert identities.fundamental_comaj_polynomial(R, n, 1) == QPoly(
                1, identities.exact_degree_bound(n, 1), {(sum(n - i for i in R),): 1}
            ), (sorted(R), n)


def test_collapsed_fold_is_the_collapse_of_the_full_recursion():
    # per class, so the non-symmetric F_R are checked too
    for n in range(1, 6):
        for k in (1, 2, 3):
            for R in all_subsets(n):
                assert fundamental.polynomial({R: 1}, n, k, collapsed=True) == collapse(
                    identities.fundamental_comaj_polynomial(R, n, k)
                ), (sorted(R), n, k)


def test_orbit_weighted_collapse_matches_the_full_collapse():
    # the collapsed fold of the Schur side against the collapse of its full recursion
    for n, k in [(4, 3), (5, 3), (6, 3), (5, 4), (6, 4)]:
        for lam in partitions(n):
            assert identities.graded_multiplicity_comaj(lam, k) == collapse(
                identities.schur_comaj_polynomial(lam, k)
            ), (lam, k)


def _pack(counts, n, k, width):
    # The layout unpack reads: the count at e in slot sum e_i B^(k-i), width bytes each.
    base = n * (n - 1) // 2 + 1
    return sum(c << 8 * width * sum(x * base ** (k - 1 - i) for i, x in enumerate(e))
               for e, c in counts.items())


def _pack_collapsed(counts, width):
    # The collapsed layout: the count at total degree d in slot d.
    return sum(c << 8 * width * d for d, c in counts.items())


def test_unpack_edge_cases():
    # n = 1 has the one exponent vector (0, ..., 0) and the one total degree 0
    for k in (1, 2, 3):
        assert fundamental.unpack(5, 1, k, 1, False) == QPoly(k, 0, {(0,) * k: 5})
        assert fundamental.unpack(0, 1, k, 1, False) == QPoly.zero(k, 0)
        assert fundamental.unpack(5, 1, k, 1, True) == QPoly(1, 0, {(0,): 5})
        assert fundamental.unpack(0, 1, k, 1, True) == QPoly.zero(1, 0)
    assert fundamental.unpack(1 << 8 * 3, 4, 1, 1, False) == QPoly(1, 6, {(3,): 1})
    # a full slot beside nonzero slots: no carry, no sign, no bleed into its neighbours
    for width in (1, 2, 3):
        top = 2 ** (8 * width) - 1
        counts = {(2, 1, 0): 1, (2, 1, 1): top, (2, 1, 2): 7, (2, 2, 0): top, (3, 0, 0): 2}
        got = fundamental.unpack(_pack(counts, 3, 3, width), 3, 3, width, False)
        assert got == QPoly(3, 9, counts), width
        degrees = {0: 1, 3: top, 4: 7, 5: top, 9: 2}
        got = fundamental.unpack(_pack_collapsed(degrees, width), 3, 3, width, True)
        assert got == QPoly(1, 9, {(d,): c for d, c in degrees.items()}), width
    with pytest.raises(OverflowError):
        fundamental.unpack(1 << 8 * 4, 2, 2, 1, False)
    # a collapsed value at n = 2, k = 2 has the three degrees 0, 1, 2
    with pytest.raises(OverflowError):
        fundamental.unpack(1 << 8 * 3, 2, 2, 1, True)


def test_unpack_reads_every_slot_in_both_modes():
    for n in range(1, 6):
        for k in (1, 2, 3):
            base = n * (n - 1) // 2 + 1
            D = identities.exact_degree_bound(n, k)
            width = fundamental.slot_width(n, k)
            # every slot nonzero, and every count distinct
            counts = {e: 1 + i for i, e in enumerate(itertools.product(range(base), repeat=k))}
            value = _pack(counts, n, k, width)
            assert fundamental.unpack(value, n, k, width, False) == QPoly(k, D, counts), (n, k)
            degrees = {d: 1 + d for d in range(D + 1)}
            value = _pack_collapsed(degrees, width)
            assert fundamental.unpack(value, n, k, width, True) == QPoly(
                1, D, {(d,): c for d, c in degrees.items()}
            ), (n, k)


def test_polynomial_refuses_counts_it_cannot_pack():
    # 300 would carry out of the one-byte slot of n = 3, k = 1 and read as 44 + q
    for classes in ({frozenset(): 300}, {frozenset(): 3, frozenset({1}): 4},
                    {frozenset(): -1}, {frozenset(): 7, frozenset({2}): -1}):
        with pytest.raises(ValueError, match="natural counts summing to at most 3!"):
            fundamental.polynomial(classes, 3, 1)
    # n! itself fits, and a zero count adds nothing
    assert fundamental.polynomial({frozenset(): 120}, 5, 1) == QPoly(1, 10, {(0,): 120})
    assert fundamental.polynomial({frozenset(): 6, frozenset({1}): 0}, 3, 2) == (
        identities.fundamental_comaj_polynomial(frozenset(), 3, 2) * 6
    )


def _fundamental_by_vectors(R, n, k):
    # The per-vector tally: every permutation vector walked through the engine.
    counts = Counter(
        engine.comaj_components(R, n, sigmas)
        for sigmas in itertools.product(perm.symmetric_group(n), repeat=k - 1)
    )
    return QPoly(k, identities.exact_degree_bound(n, k), counts)


def test_fundamental_formula_matches_vector_tally():
    cases = [(n, k) for n in range(1, 6) for k in (1, 2, 3)] + [(4, 4)]
    for n, k in cases:
        for R in all_subsets(n):
            assert identities.fundamental_comaj_polynomial(R, n, k) == (
                _fundamental_by_vectors(R, n, k)
            ), (sorted(R), n, k)


def test_step_row_is_the_second_chain_component():
    # after a step with prev the list reads in prev's order, whatever R is
    for n in range(1, 5):
        words = list(perm.symmetric_group(n))
        for prev in words:
            row = fundamental._step_row(prev)
            for R in all_subsets(n):
                for value, sigma in zip(row, words):
                    assert value == engine.comaj_components(R, n, (prev, sigma))[1]


def test_step_row_matches_the_per_word_comaj():
    # the relabelled-word lookup against the sum over each word's positions,
    # and at n = 8, the size the pinned kronecker --n 8 --k 4 stream reads, three classes
    for n in range(1, 9):
        words = list(perm.symmetric_group(n))
        classes = all_subsets(n) if n < 8 else [frozenset(), frozenset(range(1, 8)),
                                                 frozenset({2, 4, 6})]
        for R in classes:
            prev = engine.zero_comaj_perm(R, n)
            rank = {v: pos for pos, v in enumerate(prev)}
            assert fundamental._step_row(prev) == [
                sum(n - i for i in range(1, n) if rank[s[i - 1]] > rank[s[i]]) for s in words
            ], (n, sorted(R))


def test_step_tally_depends_only_on_the_inverse_descent_class():
    # Solomon's theorem: the (comaj, Des(s^-1)) tally of the steps s after p
    # is a function of Des(p^-1), so the steps after s tally as F_{Des(s^-1)}
    for n in range(1, 6):
        words = list(perm.symmetric_group(n))
        classes = [perm.descent_set(perm.inverse(s)) for s in words]
        tallies = {}
        for p, D in zip(words, classes):
            tally = Counter(zip(fundamental._step_row(p), classes))
            assert tallies.setdefault(D, tally) == tally, (n, p)
        assert set(tallies) == set(all_subsets(n))
        # step 1 of F_R is a step after a list read in the order zero_comaj_perm(R)
        for R in all_subsets(n):
            row = fundamental._step_row(engine.zero_comaj_perm(R, n))
            for value, s in zip(row, words):
                assert value == engine.comaj_components(R, n, (s,))[0], (n, sorted(R), s)


def test_comaj_and_labeled_sides_reject_empty_inputs():
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        identities.fundamental_comaj_polynomial(frozenset(), 0, 1)
    with pytest.raises(ValueError, match="need k >= 1, got 0"):
        identities.labeled_tableau_polynomial((2, 1), 0)


def test_schur_formula_symmetric_in_variables():
    for lam in [(2,), (2, 1), (3,)]:
        poly = identities.schur_comaj_polynomial(lam, 3)
        for images in itertools.permutations((1, 2, 3)):
            assert poly.permute_variables(images) == poly


def test_schur_side_is_its_chamber_expanded_over_permutations():
    # the Schur side is symmetric in q_1..q_k: its terms at weakly decreasing
    # exponent vectors, each spread over the distinct permutations of its
    # vector, give back the whole side
    cases = [(n, k) for n in range(1, 7) for k in (1, 2, 3)] + [(5, 4)]
    for n, k in cases:
        for lam in partitions(n):
            side = identities.schur_comaj_polynomial(lam, k)
            chamber = {e: c for e, c in side.terms.items()
                       if all(a >= b for a, b in zip(e, e[1:]))}
            expanded = {p: c for e, c in chamber.items()
                        for p in set(itertools.permutations(e))}
            assert side == QPoly(k, side.D, expanded), (lam, k)


def test_labeled_tableau_polynomial_matches_formula():
    for lam, k in [((2, 1), 2), ((2, 2), 2), ((2,), 3)]:
        assert identities.labeled_tableau_polynomial(lam, k) == (
            identities.schur_comaj_polynomial(lam, k)
        )


def test_labeled_side_checks_each_walk_against_labeled_tableau(monkeypatch):
    real = engine.labeled_tableau

    def shifted(T, sigmas):
        L = real(T, sigmas)
        return engine.LabeledTableau(L.base, tuple((s[0] + 1, *s[1:]) for s in L.filling))

    monkeypatch.setattr(engine, "labeled_tableau", shifted)
    with pytest.raises(RuntimeError, match="labeled_tableau gave"):
        identities.labeled_tableau_polynomial((2, 1), 2)


def test_labeled_fillings_are_distinct():
    for n in range(1, 4):
        for lam in partitions(n):
            for k in (1, 2):
                fillings = set()
                for T in standard_tableaux(lam):
                    for sigmas in itertools.product(
                        tuple(perm.symmetric_group(n)), repeat=k - 1
                    ):
                        fillings.add(engine.labeled_tableau(T, sigmas))
                assert len(fillings) == hook_length_count(lam) * factorial(n) ** (k - 1)


# -- graded multiplicities -------------------------------------------------

def test_multiplicity_examples():
    assert identities.graded_multiplicity_comaj((2,), 1) == QPoly.one(1, 1)
    assert identities.graded_multiplicity_comaj((2,), 2) == QPoly(
        1, 2, {(0,): 1, (2,): 1}
    )
    assert identities.graded_multiplicity_comaj((1, 1), 2) == QPoly(1, 2, {(1,): 2})
    assert identities.graded_multiplicity_comaj((2, 1), 1) == QPoly(
        1, 3, {(1,): 1, (2,): 1}
    )


def test_character_oracle_examples():
    assert identities.graded_multiplicity_character((2,), 1) == QPoly.one(1, 1)
    assert identities.graded_multiplicity_character((2,), 2) == QPoly(
        1, 2, {(0,): 1, (2,): 1}
    )
    assert identities.graded_multiplicity_character((1, 1), 2) == QPoly(1, 2, {(1,): 2})


def test_multiplicity_at_one_is_fake_degree_free():
    for lam in [(2,), (1, 1), (2, 1), (3, 1)]:
        poly = identities.graded_multiplicity_comaj(lam, 1)
        expected: dict = {}
        for T in standard_tableaux(lam):
            e = (T.comaj(),)
            expected[e] = expected.get(e, 0) + 1
        assert poly == QPoly(1, poly.D, expected)
        assert poly.total_at_one() == hook_length_count(lam)


def test_dimension_sums():
    for n in range(1, 4):
        for k in (1, 2):
            total = sum(
                hook_length_count(lam)
                * identities.graded_multiplicity_comaj(lam, k).total_at_one()
                for lam in partitions(n)
            )
            assert total == factorial(n) ** k


def _character_by_shape(lam, k):
    # The per-shape loop: every cycle-type series and its k-th power built for this lam.
    n = sum(lam)
    order = factorial(n)
    trunc = Truncation(1, identities.exact_degree_bound(n, k))
    acc = QPoly.zero(*trunc)
    for mu in partitions(n):
        series = pochhammer(1, n, trunc)
        for part in mu:
            series = series * QPoly(*trunc, {(d * part,): 1 for d in range(trunc.D // part + 1)})
        acc = acc + series**k * (character(lam, mu) * (order // centralizer_size(mu)))
    return exact_div(acc, order)


def test_class_series_table_matches_the_per_shape_loop():
    for n in range(1, 7):
        for k in (1, 2, 3):
            for lam in partitions(n):
                assert identities.graded_multiplicity_character(lam, k) == (
                    _character_by_shape(lam, k)
                ), (lam, k)


def test_character_oracle_rejects_a_non_integral_average(monkeypatch):
    # 1 at the identity and 0 elsewhere is no character: its average has 1/3! at degree 0
    monkeypatch.setattr(identities, "character", lambda lam, mu: int(max(mu) == 1))
    with pytest.raises(ArithmeticError, match="not divisible by 6"):
        identities.graded_multiplicity_character((2, 1), 1)


# -- verification drivers ----------------------------------------------------

def test_finite_evaluation_driver():
    assert identities.verify_finite_evaluation((1,), 4).passed
    report = identities.verify_finite_evaluation((2, 1), 2)
    assert report.passed
    assert report.params == {"lambda": [2, 1], "k": 2, "D": 6}
    assert set(report.digests) == {
        "pochhammer_jacobi_trudi",
        "comaj_formula",
        "labeled_tableau_sum",
        "jacobi_trudi_series",
        "ssyt_enumeration",
    }
    with pytest.raises(ValueError):
        identities.verify_finite_evaluation((2, 1), 2, Truncation(2, 3))


def test_kronecker_driver():
    report = identities.verify_kronecker_multiplicity((2,), 2)
    assert report.passed
    assert identities.verify_kronecker_multiplicity((1,), 5).passed
    total = 0
    for lam in partitions(3):
        rep = identities.verify_kronecker_multiplicity(lam, 2)
        assert rep.passed
        total += hook_length_count(lam) * identities.graded_multiplicity_comaj(
            lam, 2
        ).total_at_one()
    assert total == 36


def test_fundamental_driver():
    assert identities.verify_fundamental_evaluation(
        frozenset(), 2, 2, Truncation(2, 6)
    ).passed
    assert identities.verify_fundamental_evaluation(
        frozenset(), 1, 3, Truncation(3, 2)
    ).passed
    report = identities.verify_fundamental_evaluation(
        frozenset({2, 5, 6}), 7, 2, Truncation(2, 8)
    )
    assert report.passed


def test_fundamental_driver_defaults_to_exact_bound():
    # without a truncation the driver compares at D = k n(n-1)/2, as the finite one does
    for n in range(1, 4):
        for R in itertools.chain.from_iterable(
            itertools.combinations(range(1, n), size) for size in range(n)
        ):
            for k in (1, 2):
                exact = Truncation(k, identities.exact_degree_bound(n, k))
                assert identities.verify_fundamental_evaluation(
                    frozenset(R), n, k
                ).to_json_line() == identities.verify_fundamental_evaluation(
                    frozenset(R), n, k, exact
                ).to_json_line()


def test_row_case_driver():
    report = identities.verify_row_case(2, 2)
    assert report.passed
    lhs = identities.schur_comaj_polynomial((2,), 2)
    assert lhs == QPoly(2, 2, {(0, 0): 1, (1, 1): 1})
    assert identities.verify_row_case(1, 4).passed
    assert identities.verify_row_case(4, 3).passed


def test_group_product_reindexing_preserves_weights():
    # walking the chain with (pi^1, ..., pi^{k-1}) matches the classical
    # statistic of the consecutive quotients, whose product closes to identity
    for n in (2, 3, 4):
        for k in (2, 3):
            words = tuple(perm.symmetric_group(n))
            seen = {}
            for pis in itertools.product(words, repeat=k - 1):
                comps = engine.comaj_components(frozenset(), n, pis)
                quotients = []
                prev = perm.identity(n)
                for pi in (*pis, perm.identity(n)):
                    quotients.append(perm.compose(perm.inverse(prev), pi))
                    prev = pi
                assert comps == tuple(perm.comaj(q) for q in quotients)
                product = perm.identity(n)
                for q in quotients:
                    product = perm.compose(product, q)
                assert product == perm.identity(n)
                seen[tuple(quotients)] = seen.get(tuple(quotients), 0) + 1
            # the reindexing map hits every closed tuple exactly once
            assert all(v == 1 for v in seen.values())
            assert len(seen) == factorial(n) ** (k - 1)


def test_injection_recursion_driver():
    report = identities.verify_injection_recursion(
        frozenset(), 2, frozenset(), (1, 2), 1, 4
    )
    assert report.passed
    # with no strictness and no trailing coordinates both sides reduce to 1
    assert report.digests["pochhammer_times_chain_side"] == QPoly.one(1, 4).digest()
    assert report.digests["weighted_short_side"] == QPoly.one(1, 4).digest()
    report = identities.verify_injection_recursion(
        frozenset({2}), 4, frozenset({2}), (1, 2, 3, 4), 1, 4
    )
    assert report.passed
    for R in all_subsets(3):
        for target in all_subsets(3):
            for sigma in perm.symmetric_group(3):
                rep = identities.verify_injection_recursion(R, 3, target, sigma, 2, 4)
                assert rep.passed, rep.counterexample
    # a permutation of the wrong size, and targets outside 1..n-1
    for target, sigma in [({1}, (1, 2)), ({0}, (2, 1, 3)), ({5}, (2, 1, 3))]:
        with pytest.raises(ValueError):
            identities.verify_injection_recursion(frozenset(), 3, target, sigma, 1, 2)
    # a negative degree bound is refused before any box is built
    with pytest.raises(ValueError, match="need bound >= 0"):
        identities.verify_injection_recursion(frozenset(), 3, {1}, (2, 1, 3), 2, -1)
    # so is n < 1, before any cache is read
    before = identities._box_buckets.cache_info(), identities._key_fragments.cache_info()
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        identities.verify_injection_recursion(frozenset(), 0, frozenset(), (), 1, 2)
    assert (identities._box_buckets.cache_info(), identities._key_fragments.cache_info()) == before


def _two_loop_sides(R, n, r, bound):
    """Both injection-recursion sides from separate enumerations of Z and S."""
    trunc = Truncation(r, bound)

    def box(width):
        return itertools.product(itertools.product(range(bound + 1), repeat=width), repeat=n)

    left, right = {}, {}
    for Z in box(r):
        sigma = engine.reading_order(R, Z)
        bucket = left.setdefault((sigma, engine.descents(R, [z[1:] for z in Z], sigma)), {})
        e = engine.seq_weight(Z, r)
        bucket[e] = bucket.get(e, 0) + 1
    for S in box(r - 1):
        e = engine.seq_weight(S, r)
        for sigma in perm.symmetric_group(n):
            bucket = right.setdefault((sigma, engine.descents(R, S, sigma)), {})
            bucket[e] = bucket.get(e, 0) + 1
    return {
        (sigma, D): (
            pochhammer(r, n, trunc) * QPoly(*trunc, left.get((sigma, D))),
            QPoly.variable(r, bound, r, sum(n - i for i in D))
            * QPoly(*trunc, right.get((sigma, D))),
        )
        for sigma, D in left.keys() | right.keys()
    }


def test_within_yields_bounded_tuples():
    for cells in range(4):
        for total in range(4):
            got = list(identities._within(cells, total))
            expected = [t for t in itertools.product(range(total + 1), repeat=cells)
                        if sum(t) <= total]
            assert sorted(got) == expected, (cells, total)
            assert len(got) == len(set(got)) == comb(cells + total, total)
    assert list(identities._within(0, 5)) == [()]


def _sha256(side):
    return hashlib.sha256(side.to_json().encode()).hexdigest()


_SIDES = ("pochhammer_times_chain_side", "weighted_short_side")


def test_box_buckets_match_two_loop_enumeration():
    # The oracle walks every list with entries at most bound, so it also has
    # keys reached only by lists above the degree bound; both sides of those
    # truncate to zero, which is what verify_injection_recursion looks up.
    cases = [(n, r, bound) for n in (2, 3) for r in (1, 2, 3) for bound in (1, 2, 3)]
    identities._verdict.cache_clear()
    for n, r, bound in cases + [(4, 1, 3), (5, 1, 3)]:
        zero = QPoly.zero(r, bound)
        for R in all_subsets(n):
            expected = _two_loop_sides(R, n, r, bound)
            got, zero_verdict, prefix = identities._box_buckets(tuple(sorted(R)), n, r, bound)
            assert zero_verdict[0].digests == dict.fromkeys(_SIDES, _sha256(zero))
            # the params' JSON up to sigma's value
            params = {"R": sorted(R), "n": n, "r": r, "bound": bound, "sigma": []}
            assert prefix + "[]}" == canonical_json(params)
            for key in expected.keys() | got.keys():
                sides = expected.get(key, (zero, zero))
                if key not in got:
                    assert sides == (zero, zero), (R, n, r, bound, key)
                    continue
                verdict = got[key][0]
                assert verdict.digests == dict(zip(_SIDES, map(_sha256, sides))), (
                    R, n, r, bound, key)
                assert verdict.passed == (sides[0] == sides[1])
    # keys whose count tables and c(D) agree share one verdict, across every
    # R: the 16 R of the benchmark's report-heavy shape hold 1920 keys
    keys = [verdict for R in all_subsets(5)
            for verdict in identities._box_buckets(tuple(sorted(R)), 5, 1, 3)[0].values()]
    assert len(keys) == 1920
    assert len({id(verdict) for verdict in keys}) <= 5


def test_shared_verdicts_match_the_per_key_comparison():
    # the per-key path: every key compares its own two-loop sides, with its own params
    cases = [(R, n, r, bound) for n in (1, 2, 3, 4) for r in (1, 2) for bound in range(4)
             if (n, r, bound) != (4, 2, 3) for R in all_subsets(n)]
    # one R at n = 4, r = 2, bound 3, where the oracle walks 4^8 lists per R
    cases += [(frozenset({1, 3}), 4, 2, 3)] + [(R, 5, 1, 3) for R in all_subsets(5)]
    for R, n, r, bound in cases:
        zero = QPoly.zero(r, bound)
        oracle = _two_loop_sides(R, n, r, bound)
        for target in all_subsets(n):
            for sigma in perm.symmetric_group(n):
                sides = oracle.get((sigma, target), (zero, zero))
                params = {"R": sorted(R), "n": n, "target": sorted(target),
                          "sigma": list(sigma), "r": r, "bound": bound}
                expected = _compare("injection_recursion", params,
                                    identities._chained(list(zip(_SIDES, sides))))
                got = identities.verify_injection_recursion(R, n, target, sigma, r, bound)
                assert got.to_json_line() == expected.to_json_line(), (R, n, target, sigma)


def _failing_verdict():
    return _compare("injection_recursion", None, [
        ((_SIDES[0], QPoly(1, 3, {(1,): 1})), (_SIDES[1], QPoly(1, 3, {(1,): 2})))])


def test_reports_that_share_a_pair_own_their_dicts(monkeypatch):
    # two reports of one key read one cached verdict: zero or not,
    # a caller who edits the first report leaves the second one as it was
    R, n, r, bound = frozenset({1, 3}), 5, 1, 3
    table, _, _ = identities._box_buckets(R, n, r, bound)
    keys = [(sigma, target) for target in all_subsets(n) for sigma in perm.symmetric_group(n)]
    present = next(key for key in keys if key in table)
    missing = next(key for key in keys if key not in table)
    for sigma, target in (present, missing):
        first = identities.verify_injection_recursion(R, n, target, sigma, r, bound)
        line = first.to_json_line()
        first.digests["pochhammer_times_chain_side"] = "edited"
        first.digests["extra"] = "added"
        first.params["R"].append(9)
        again = identities.verify_injection_recursion(R, n, target, sigma, r, bound)
        assert again.to_json_line() == line
    # a failing verdict gives each report its own counterexample
    failing = _failing_verdict()
    cached = failing.to_json_line()
    shared = identities._split(failing)
    prefix = '{"R":[],"bound":3,"n":2,"r":1,"sigma":'
    monkeypatch.setattr(identities, "_box_buckets",
                        lambda *args: ({((1, 2), frozenset()): shared}, shared, prefix))
    first = identities.verify_injection_recursion(frozenset(), 2, frozenset(), (1, 2), 1, 3)
    assert first.counterexample == {"pair": list(_SIDES), "exponent": [1],
                                    "left": "1", "right": "2"}
    line = first.to_json_line()
    first.counterexample["pair"].reverse()
    first.counterexample["exponent"].append(9)
    first.counterexample["left"] = "edited"
    first.digests.clear()
    first.params.clear()
    again = identities.verify_injection_recursion(frozenset(), 2, frozenset(), (1, 2), 1, 3)
    assert not again.passed
    assert again.to_json_line() == line
    assert failing.to_json_line() == cached


def _five(report):
    return {name: getattr(report, name)
            for name in ("identity", "params", "status", "digests", "counterexample")}


def test_key_report_lines_are_their_five_attributes(monkeypatch):
    # a failing verdict shared by two keys: each line is canonical JSON of
    # that report's own five attributes, and edits reach no other line
    failing = _failing_verdict()
    shared = identities._split(failing)
    cached = failing.to_json_line()
    prefix = '{"R":[],"bound":3,"n":2,"r":1,"sigma":'
    monkeypatch.setattr(identities, "_box_buckets", lambda *args: ({}, shared, prefix))
    lines = []
    for sigma in ((1, 2), (2, 1)):
        report = identities.verify_injection_recursion(frozenset(), 2, {1}, sigma, 1, 3)
        line = report.to_json_line()
        assert line == canonical_json(_five(report))
        assert json.loads(line) == _five(report)
        assert json.loads(line)["counterexample"]["exponent"] == [1]
        report.digests[_SIDES[0]] = "edited"
        report.counterexample["pair"].reverse()
        report.counterexample["left"] = "edited"
        assert report.to_json_line() == line
        report.params["sigma"].reverse()
        assert report.to_json_line() == canonical_json(_five(report)) != line
        lines.append(line)
    assert lines[0] != lines[1]
    assert lines == [
        identities.verify_injection_recursion(frozenset(), 2, {1}, sigma, 1, 3).to_json_line()
        for sigma in ((1, 2), (2, 1))]
    assert failing.to_json_line() == cached
    assert identities._split(failing)[1:] == shared[1:]


def test_key_report_lines_need_no_params():
    # every key at n <= 4 (r <= 2, bound <= 3) and at n = 5 (r = 1, bound 3):
    # the line is built without params, and reading them leaves it as it was
    shapes = [(n, r, bound) for n in range(1, 5) for r in (1, 2) for bound in range(4)]
    for n, r, bound in shapes + [(5, 1, 3)]:
        for R in all_subsets(n):
            for target in all_subsets(n):
                for sigma in perm.symmetric_group(n):
                    report = identities.verify_injection_recursion(R, n, target, sigma, r, bound)
                    line = report.to_json_line()
                    assert "params" not in vars(report)
                    assert report.params == {"R": sorted(R), "n": n, "target": sorted(target),
                                             "sigma": list(sigma), "r": r, "bound": bound}
                    assert report.to_json_line() == line == canonical_json(_five(report))


def test_key_report_reads_sigma_as_any_iterable():
    R, n, target, sigma = frozenset({1, 3}), 5, frozenset({2, 4}), (3, 1, 5, 2, 4)
    lines = {identities.verify_injection_recursion(R, n, target, word, 1, 3).to_json_line()
             for word in (sigma, list(sigma), iter(sigma))}
    assert len(lines) == 1
    # R and the target may be any iterable of ints too
    assert identities.verify_injection_recursion(
        [3, 1], n, iter([4, 2]), sigma, 1, 3).to_json_line() in lines


def _prop41_caches():
    return [cache.cache_info() for cache in (identities._box_buckets, identities._key_fragments)]


def test_injection_recursion_refuses_entries_that_are_not_ints():
    # 1.0 and True compare equal to 1, so a cache would read them as 1 and
    # print them as written: each is refused before any cache is read
    identities.verify_injection_recursion(frozenset({1}), 3, {1}, (2, 1, 3), 1, 2)
    bad = [
        ((frozenset(), 2, {True}, (1.0, 2), 1, 2), "not a permutation of 1..2"),
        ((frozenset(), 2, set(), (True, 2), 1, 2), "not a permutation of 1..2"),
        ((frozenset({1}), 3, {1.0}, (2, 1, 3), 1, 2),
         r"target must be a subset of 1\.\.2: \[1.0\]"),
        ((frozenset({1}), 3, {True}, (2, 1, 3), 1, 2), "target must be a subset"),
        ((frozenset({1.0}), 3, {1}, (2, 1, 3), 1, 2), r"R must be a subset of 1\.\.2: \[1.0\]"),
        (({True}, 3, {1}, (2, 1, 3), 1, 2), "R must be a subset"),
        ((frozenset({1}), 3.0, {1}, (2, 1, 3), 1, 2), "n must be an int, got 3.0"),
        ((frozenset({1}), True, set(), (1,), 1, 2), "n must be an int, got True"),
        ((frozenset({1}), 3, {1}, (2, 1, 3), True, 2), "r must be an int, got True"),
        ((frozenset({1}), 3, {1}, (2, 1, 3), 1, 2.0), "bound must be an int, got 2.0"),
    ]
    before = _prop41_caches()
    for args, message in bad:
        with pytest.raises(ValueError, match=message):
            identities.verify_injection_recursion(*args)
    assert _prop41_caches() == before


def _all_caches():
    return {(module.__name__, name): fn.cache_info()
            for module in (characters, engine, enumeration, fundamental, identities, qpoly, tableaux)
            for name, fn in vars(module).items() if hasattr(fn, "cache_info")}


_NOT_INTS = [
    ("quasi-k", "k", lambda bad: identities.verify_fundamental_evaluation((), 2, bad)),
    ("quasi-n", "n", lambda bad: identities.verify_fundamental_evaluation((), bad, 2)),
    ("quasi-D", "D", lambda bad: identities.verify_fundamental_evaluation(
        (), 2, 2, Truncation(2, bad))),
    ("quasi-R", "R", lambda bad: identities.verify_fundamental_evaluation({bad}, 3, 2)),
    ("kronecker-k", "k", lambda bad: identities.verify_kronecker_multiplicity((2, 1), bad)),
    ("row-k", "k", lambda bad: identities.verify_row_case(2, bad)),
    ("row-n", "n", lambda bad: identities.verify_row_case(bad, 2)),
    ("finite-k", "k", lambda bad: identities.verify_finite_evaluation((2, 1), bad)),
    ("finite-D", "D", lambda bad: identities.verify_finite_evaluation(
        (1,), 1, Truncation(1, bad))),
    ("finite-trunc-k", "truncation", lambda bad: identities.verify_finite_evaluation(
        (1,), 1, Truncation(bad, 1))),
    ("reindex-m", "m", lambda bad: identities.verify_variable_reindex((2, 1), bad)),
]


@pytest.mark.parametrize("bad", [True, 2.0], ids=["True", "float"])
@pytest.mark.parametrize("name, call", [case[1:] for case in _NOT_INTS],
                         ids=[case[0] for case in _NOT_INTS])
def test_verify_entries_refuse_values_that_are_not_ints(name, call, bad):
    # as prop41 does: a cache would read True and 2.0 as 1 and 2 and the
    # report would print them as written, so each is refused before any cache is read
    message = {"R": rf"R must be a subset of 1\.\.2: \[{bad!r}\]",
               "truncation": f"truncation has {bad!r} variables, expected 1"}.get(
                   name, f"{name} must be an int, got {bad!r}")
    before = _all_caches()
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(bad)
    assert _all_caches() == before


def test_injection_recursion_errors_keep_their_order():
    # sigma first, then its size, then the target, then R
    cases = [
        ((frozenset({3}), 3, {0}, (1, 1, 2)), "not a permutation of 1..3"),
        ((frozenset({3}), 3, {0}, (1, 2)), "permutation size 2 != 3"),
        ((frozenset({3}), 3, {0}, (1, 2, 3)), r"target must be a subset of 1\.\.2: \[0\]"),
        ((frozenset({3}), 3, {1.0}, (1, 2, 3)), r"target must be a subset of 1\.\.2: \[1.0\]"),
        ((frozenset({3}), 3, {1}, (1, 2, 3)), r"R must be a subset of 1\.\.2: \[3\]"),
        ((frozenset({1.0, 3}), 3, {1}, (1, 2, 3)), r"R must be a subset of 1\.\.2"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            identities.verify_injection_recursion(*args, 1, 2)
    # a sigma of the wrong size is refused before the tables of its n are built
    before = _prop41_caches()
    with pytest.raises(ValueError, match="permutation size 2 != 9"):
        identities.verify_injection_recursion(frozenset(), 9, set(), (2, 1), 1, 2)
    assert _prop41_caches() == before


def test_split_needs_null_params_once():
    digests = {"a": "x"}
    for params, extra in [({"n": 2}, None), (None, {"params": None})]:
        with pytest.raises(ValueError, match="exactly once"):
            identities._split(VerificationReport("demo", params, "fail", digests, extra))
    _, head, tail = identities._split(VerificationReport("demo", None, "pass", digests))
    assert head + canonical_json({"n": 2}) + tail == VerificationReport(
        "demo", {"n": 2}, "pass", digests).to_json_line()


def test_variable_reindex_driver():
    assert identities.verify_variable_reindex((2,), 1).passed
    assert identities.verify_variable_reindex((1,), 3).passed
    assert identities.verify_variable_reindex((2, 1), 2).passed


# -- reporting ----------------------------------------------------------------

def test_first_difference_is_graded_lex_minimal():
    a = QPoly(2, 4, {(0, 1): 1, (2, 0): 5})
    b = QPoly(2, 4, {(0, 1): 1, (1, 0): 2})
    assert _first_difference(a, b) == {"exponent": [1, 0], "left": "0", "right": "2"}
    assert _first_difference(a, a) is None


def test_compare_reports_failures():
    a = QPoly(1, 3, {(1,): 1})
    b = QPoly(1, 3, {(1,): 2})
    report = _compare("demo", {"n": 1}, [(("left", a), ("right", b))])
    assert not report.passed
    assert report.counterexample == {
        "pair": ["left", "right"],
        "exponent": [1],
        "left": "1",
        "right": "2",
    }
    line = json.loads(report.to_json_line())
    assert line["status"] == "fail"


def test_compare_digests_each_distinct_side_once(monkeypatch):
    calls = []
    digest = QPoly.digest
    monkeypatch.setattr(QPoly, "digest", lambda self: calls.append(self) or digest(self))
    a = QPoly(1, 3, {(1,): 1})
    b = QPoly(1, 3, {(1,): 2})
    sides = [("a", a), ("a_again", QPoly(1, 3, {(1,): 1})), ("b", b)]
    report = _compare("demo", {}, identities._chained(sides))
    assert calls == [a, b]  # "a_again" equals its partner "a" and reuses its digest
    assert report.digests == {"a": a.digest(), "a_again": a.digest(), "b": b.digest()}
    assert report.counterexample["pair"] == ["a_again", "b"]


def test_report_serialization_is_canonical():
    report = VerificationReport(
        identity="demo",
        params={"n": 2},
        status="pass",
        digests={"a": "x"},
    )
    line = report.to_json_line()
    assert json.loads(line) == {
        "counterexample": None,
        "digests": {"a": "x"},
        "identity": "demo",
        "params": {"n": 2},
        "status": "pass",
    }
    # the shared encoder writes the bytes of json.dumps with the same options
    assert line == '{"counterexample":null,"digests":{"a":"x"},"identity":"demo",' \
        '"params":{"n":2},"status":"pass"}'
    assert line == json.dumps(vars(report), sort_keys=True, separators=(",", ":"))
    # nested keys are sorted at every level, with the same bytes as json.dumps
    nested = {"z": [1, {"b": None, "a": "x"}], "a": {"d": {"f": [], "e": "1"}, "c": True}}
    for obj in (nested, QPoly(2, 3, {(1, 0): 2, (0, 2): -1}).to_obj()):
        assert canonical_json(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))
