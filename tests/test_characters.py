from fractions import Fraction
from math import factorial

import pytest

from comaj import characters
from comaj.characters import centralizer_size, character
from comaj.tableaux import hook_length_count, partitions


def test_trivial_representation():
    for n in range(1, 6):
        for mu in partitions(n):
            assert character((n,), mu) == 1


def test_sign_representation():
    # sign of a permutation of cycle type mu is (-1)^(n - #parts)
    for n in range(1, 6):
        for mu in partitions(n):
            assert character((1,) * n, mu) == (-1) ** (n - len(mu))


def test_two_one_values():
    assert character((2, 1), (1, 1, 1)) == 2
    assert character((2, 1), (3,)) == -1
    assert character((2, 1), (2, 1)) == 0


def test_s3_table():
    mus = [(1, 1, 1), (2, 1), (3,)]
    table = {
        (3,): [1, 1, 1],
        (2, 1): [2, 0, -1],
        (1, 1, 1): [1, -1, 1],
    }
    for lam, values in table.items():
        assert [character(lam, mu) for mu in mus] == values


def test_dimension_is_hook_count():
    for n in range(1, 7):
        for lam in partitions(n):
            assert character(lam, (1,) * n) == hook_length_count(lam)


def test_first_orthogonality():
    for n in range(1, 6):
        lams = list(partitions(n))
        for lam in lams:
            for nu in lams:
                total = sum(
                    Fraction(character(lam, mu) * character(nu, mu), centralizer_size(mu))
                    for mu in lams
                )
                assert total == (1 if lam == nu else 0)


def test_regular_character_column_sums():
    for n in range(1, 6):
        for mu in partitions(n):
            total = sum(
                hook_length_count(lam) * character(lam, mu) for lam in partitions(n)
            )
            assert total == (factorial(n) if mu == (1,) * n else 0)


def test_centralizer_sizes_partition_group_order():
    for n in range(1, 7):
        assert sum(factorial(n) // centralizer_size(mu) for mu in partitions(n)) == factorial(n)
    assert centralizer_size((1, 1, 1)) == 6
    assert centralizer_size((3,)) == 3
    assert centralizer_size((2, 2)) == 8


def test_size_mismatch_error():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))


def test_character_cache_keeps_every_pair_through_n9():
    # every (lam, mu) |- 9 reaches 1141 keys, recursive calls included, and
    # every n <= 9 reaches 1819: each key is computed once, so none was evicted
    characters._chi.cache_clear()
    for sizes, keys in [((9,), 1141), (range(1, 9), 1819)]:
        for n in sizes:
            for lam in partitions(n):
                for mu in partitions(n):
                    character(lam, mu)
        info = characters._chi.cache_info()
        assert info.misses == info.currsize == keys
