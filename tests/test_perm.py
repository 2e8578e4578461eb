from math import factorial

import pytest
from hypothesis import given, strategies as st

from comaj import perm as pm


@st.composite
def perm_words(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


def test_descent_set_examples():
    assert pm.descent_set((4, 7, 3, 9, 1, 2, 5, 8, 6)) == {2, 4, 8}
    assert pm.descent_set(pm.identity(6)) == frozenset()
    assert pm.descent_set((6, 3, 4, 8, 2, 7, 1, 5)) == {1, 4, 6}


def test_comaj_examples():
    assert pm.comaj((4, 7, 3, 9, 1, 2, 5, 8, 6)) == 13
    assert pm.comaj(pm.identity(5)) == 0
    assert pm.comaj((6, 3, 4, 8, 2, 7, 1, 5)) == 13


def test_inverse_example():
    assert pm.inverse((6, 3, 4, 8, 2, 7, 1, 5)) == (7, 5, 2, 3, 8, 1, 6, 4)
    assert pm.inverse(pm.identity(4)) == pm.identity(4)


def test_cycle_type_examples():
    assert pm.cycle_type((2, 3, 4, 1, 6, 7, 5, 8)) == (4, 3, 1)
    assert pm.cycle_type(pm.identity(5)) == (1, 1, 1, 1, 1)
    assert pm.cycle_type((2, 1)) == (2,)


@given(perm_words())
def test_group_laws(w):
    n = len(w)
    assert pm.compose(w, pm.inverse(w)) == pm.identity(n)
    assert pm.compose(pm.inverse(w), w) == pm.identity(n)
    assert pm.compose(w, pm.identity(n)) == w
    assert pm.compose(pm.identity(n), w) == w


@given(perm_words(max_n=5), perm_words(max_n=5))
def test_compose_convention(a, b):
    if len(a) != len(b):
        with pytest.raises(ValueError):
            pm.compose(a, b)
        return
    composed = pm.compose(a, b)
    assert all(composed[i] == a[b[i] - 1] for i in range(len(a)))


def test_comaj_bounds_and_maximum():
    for n in range(1, 7):
        top = n * (n - 1) // 2
        best = [w for w in pm.symmetric_group(n) if pm.comaj(w) == top]
        assert best == [tuple(range(n, 0, -1))]
        assert all(0 <= pm.comaj(w) <= top for w in pm.symmetric_group(n))


def test_symmetric_group_enumeration():
    words = list(pm.symmetric_group(4))
    assert len(words) == factorial(4)
    assert words == sorted(words)
    assert all(sorted(w) == [1, 2, 3, 4] for w in words)


def test_validation():
    assert pm.perm([2, 1, 3]) == (2, 1, 3)
    with pytest.raises(ValueError):
        pm.perm([1, 3])
    with pytest.raises(ValueError):
        pm.perm([1, 1, 2])
    # 1.0 and True compare equal to 1, but only ints are entries
    for word in ((1.0, 2), (True, 2), (2, 1.0), ("1",)):
        with pytest.raises(ValueError, match="not a permutation"):
            pm.perm(word)
    with pytest.raises(ValueError):
        pm.compose((1, 2), (1, 2, 3))
