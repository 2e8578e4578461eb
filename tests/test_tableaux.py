import pytest

from comaj.tableaux import (
    StandardTableau,
    hook_length_count,
    partition,
    partitions,
    standard_tableaux,
)


def test_descent_set_examples():
    T = StandardTableau([[1, 2, 4, 5], [3, 6], [7]])
    assert T.descent_set() == {2, 5, 6}
    assert StandardTableau([list(range(1, 7))]).descent_set() == frozenset()
    T2 = StandardTableau([[1, 3], [2, 4], [5], [6]])
    assert T2.descent_set() == {1, 3, 4, 5}


def test_comaj_examples():
    # des = {2,5,6} at n = 7: (7-2) + (7-5) + (7-6)
    assert StandardTableau([[1, 2, 4, 5], [3, 6], [7]]).comaj() == 8
    assert StandardTableau([list(range(1, 6))]).comaj() == 0
    assert StandardTableau([[1, 2], [3]]).comaj() == 1


def test_single_column_descents():
    for n in range(2, 7):
        T = StandardTableau([[v] for v in range(1, n + 1)])
        assert T.descent_set() == frozenset(range(1, n))
        assert T.comaj() == n * (n - 1) // 2


def test_enumeration_counts_match_hook_lengths():
    for n in range(0, 7):
        for lam in partitions(n):
            tabs = standard_tableaux(lam)
            assert len(tabs) == hook_length_count(lam)
            assert len(set(tabs)) == len(tabs)


def test_enumeration_small_shapes():
    assert len(standard_tableaux((3,))) == 1
    assert len(standard_tableaux((2, 1))) == 2
    assert len(standard_tableaux((2, 2))) == 2
    rows = [T.rows for T in standard_tableaux((2, 1))]
    assert ((1, 2), (3,)) in rows and ((1, 3), (2,)) in rows


def test_enumeration_deterministic_order():
    first = [T.rows for T in standard_tableaux((3, 2))]
    second = [T.rows for T in standard_tableaux((3, 2))]
    assert first == second
    words = [T.reading_word() for T in standard_tableaux((3, 2))]
    assert words == sorted(words)


def test_hook_length_examples():
    assert hook_length_count((6,)) == 1
    assert hook_length_count((2, 1)) == 2
    assert hook_length_count((4, 2, 1)) == 35
    assert hook_length_count((1, 1, 1, 1)) == 1


def test_partitions_order_and_count():
    assert list(partitions(4)) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert len(list(partitions(6))) == 11


def test_partition_validation():
    with pytest.raises(ValueError):
        partition((1, 2))
    with pytest.raises(ValueError):
        partition((2, 0))


def test_tableau_validation():
    StandardTableau([[1, 3], [2]])  # valid
    with pytest.raises(ValueError):
        StandardTableau([[2, 1], [3]])  # row not increasing
    with pytest.raises(ValueError):
        StandardTableau([[2, 3], [1]])  # column decreasing
    with pytest.raises(ValueError):
        StandardTableau([[1, 2], [4]])  # entries not 1..n
    with pytest.raises(ValueError):
        StandardTableau([[1], [2, 3]])  # shape not a partition


def test_standard_tableaux_cache_holds_every_shape_up_to_n9():
    # the bounded cache keeps the 96 shapes of n <= 9 without evicting
    standard_tableaux.cache_clear()
    for _ in range(2):
        for n in range(1, 10):
            for lam in partitions(n):
                assert len(standard_tableaux(lam)) == hook_length_count(lam)
    info = standard_tableaux.cache_info()
    assert (info.misses, info.hits, info.currsize) == (96, 96, 96)
