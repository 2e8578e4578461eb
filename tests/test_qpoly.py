import hashlib
import itertools
import json
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from comaj import qpoly
from comaj.characters import centralizer_size
from comaj.qpoly import (
    QPoly,
    Truncation,
    _homogeneous,
    collapse,
    divide_factors,
    exact_div,
    homogeneous_principal,
    pochhammer,
    pochhammer_all,
    power_sum_principal,
    q_multinomial,
    schur_normalized_jt,
    schur_principal_jt,
)
from comaj.tableaux import partitions


def qpolys(k=2, D=4):
    exps = [e for e in itertools.product(range(D + 1), repeat=k) if sum(e) <= D]
    coeffs = st.integers(min_value=-5, max_value=5)
    return st.fixed_dictionaries({}, optional={e: coeffs for e in exps}).map(
        lambda terms: QPoly(k, D, terms)
    )


def _degree_blocks(terms) -> dict[int, dict]:
    blocks: dict[int, dict[tuple[int, ...], int]] = {}
    for e, c in terms.items():
        blocks.setdefault(sum(e), {})[e] = c
    return blocks


def geometric_inverse(unit: QPoly) -> QPoly:
    """Multiplicative inverse up to the degree bound, one degree block at a time."""
    zero_e = (0,) * unit.k
    if unit.coeff(zero_e) != 1:
        raise ValueError("constant term must be 1")
    a_blocks = _degree_blocks(unit.terms)
    inv_blocks: dict[int, dict[tuple[int, ...], int]] = {0: {zero_e: 1}}
    for d in range(1, unit.D + 1):
        blk: dict[tuple[int, ...], int] = {}
        for j, ab in a_blocks.items():
            if j < 1 or j > d:
                continue
            for ea, ca in ab.items():
                for eb, cb in inv_blocks[d - j].items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    blk[e] = blk.get(e, 0) - ca * cb
        inv_blocks[d] = blk
    merged = {e: c for blk in inv_blocks.values() for e, c in blk.items()}
    return QPoly(unit.k, unit.D, merged)


def _sparse_product(a: QPoly, b: QPoly) -> QPoly:
    """a * b one term pair at a time, skipping degree blocks above the bound."""
    out: dict[tuple[int, ...], int] = {}
    for da, at in _degree_blocks(a.terms).items():
        for db, bt in _degree_blocks(b.terms).items():
            if da + db > a.D:
                continue
            for ea, ca in at.items():
                for eb, cb in bt.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    out[e] = out.get(e, 0) + ca * cb
    return QPoly(a.k, a.D, out)


@st.composite
def operand_pairs(draw):
    """Two sparse QPolys at a drawn (k, D), with coefficients up to a drawn size."""
    k = draw(st.integers(min_value=1, max_value=4))
    D = draw(st.integers(min_value=0, max_value=8))
    exps = [e for e in itertools.product(range(D + 1), repeat=k) if sum(e) <= D]
    size = draw(st.sampled_from([1, 7, 2**64, 2**300]))
    terms = st.dictionaries(
        st.sampled_from(exps), st.integers(min_value=-size, max_value=size), max_size=24
    )
    return QPoly(k, D, draw(terms)), QPoly(k, D, draw(terms))


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_packed_product_matches_sparse_product(pair):
    a, b = pair
    assert a * b == _sparse_product(a, b)
    assert b * a == _sparse_product(b, a)


def _full_block(k: int, D: int, c: int) -> QPoly:
    return QPoly(k, D, {e: c for e in itertools.product(range(D + 1), repeat=k) if sum(e) <= D})


@pytest.mark.parametrize("k, D", [(1, 0), (1, 12), (2, 0), (2, 6), (3, 5), (4, 3)])
def test_packed_product_edge_cases(k, D):
    top = 2**300 - 1
    x = QPoly.variable(k, D, 1)
    y = QPoly.variable(k, D, k)
    # nonzero when D >= 1, but their product lies wholly above the bound
    x_high = QPoly.variable(k, D, 1, D // 2 + 1)
    y_high = QPoly.variable(k, D, k, D // 2 + 1)
    cases = [
        # every coefficient at the largest size, so the sums fill the slot width
        (_full_block(k, D, top), _full_block(k, D, top)),
        (_full_block(k, D, top), _full_block(k, D, -top)),
        (_full_block(k, D, top), _full_block(k, D, 1) - QPoly.one(k, D) * 2),
        # (1 + x)(1 - x) = 1 - x^2: the x coefficient cancels to zero
        (QPoly.one(k, D) + x, QPoly.one(k, D) - x),
        (x_high, y_high),
        (_full_block(k, D, 3), QPoly.zero(k, D)),
        (QPoly.zero(k, D), _full_block(k, D, 3)),
        (QPoly(k, D, {(0,) * k: -5}), _full_block(k, D, 2**70)),
        (y, _full_block(k, D, -1)),
    ]
    for a, b in cases:
        assert a * b == _sparse_product(a, b)
    assert (QPoly.one(k, D) + x) * (QPoly.one(k, D) - x) == (
        QPoly.one(k, D) - QPoly.variable(k, D, 1, 2)
    )
    assert (x_high * y_high).is_zero()


def test_packed_product_on_series_shapes():
    t = Truncation(3, 8)
    h3 = homogeneous_principal(3, t)
    for a, b in [
        (h3, power_sum_principal(1, t)),
        (pochhammer_all(3, t), h3),
        (h3, h3),
    ]:
        assert a * b == _sparse_product(a, b)


@settings(max_examples=200, deadline=None)
@given(operand_pairs(), st.sampled_from([0, 1, -1, 3, -(2**70)]))
def test_kernel_outputs_are_in_normal_form(pair, m):
    # each kernel builds its terms without the constructor's checks; rebuilding
    # them through the constructor must change nothing
    a, b = pair
    outputs = [
        a + b, a + (-a), a - b, a - a, -a, a * b, a * m, m * a,
        exact_div(a * 6, 6), exact_div(a * m, m) if m else a, collapse(a), collapse(a - b),
    ]
    for p in outputs:
        assert 0 not in p.terms.values()
        rebuilt = QPoly(p.k, p.D, dict(p.terms))
        assert (rebuilt.k, rebuilt.D) == (p.k, p.D)
        assert dict(rebuilt.terms) == dict(p.terms)


def test_trusted_value_is_a_copy_of_its_source():
    source = {(0, 0): 1, (1, 0): 0, (0, 2): -4}
    p = QPoly._trusted(2, 3, source)
    assert dict(p.terms) == {(0, 0): 1, (0, 2): -4}
    source[(0, 0)] = 99
    source[(1, 1)] = 5
    del source[(0, 2)]
    assert dict(p.terms) == {(0, 0): 1, (0, 2): -4}


def test_constructor_truncates_and_strips():
    p = QPoly(2, 3, {(0, 0): 1, (2, 2): 7, (1, 0): 0})
    assert p.terms == {(0, 0): 1}
    with pytest.raises(ValueError):
        QPoly(2, 3, {(1,): 1})
    with pytest.raises(ValueError):
        QPoly(0, 3)


def test_geometric_series_identity():
    D = 9
    one_minus_q = QPoly.one(1, D) - QPoly.variable(1, D, 1)
    geometric = QPoly(1, D, {(d,): 1 for d in range(D + 1)})
    assert one_minus_q * geometric == QPoly.one(1, D)


def test_two_variable_product():
    t = Truncation(2, 4)
    p = (QPoly.one(*t) + QPoly.variable(*t, 1)) * (QPoly.one(*t) + QPoly.variable(*t, 2))
    assert p.terms == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}


def test_add_zero_and_scalars():
    t = Truncation(2, 3)
    p = QPoly(2, 3, {(1, 1): 4})
    assert p + QPoly.zero(*t) == p
    assert p * 3 == QPoly(2, 3, {(1, 1): 12})
    assert 0 * p == QPoly.zero(*t)
    assert (p - p).is_zero()


@settings(max_examples=60)
@given(qpolys(), qpolys(), qpolys())
def test_ring_laws(a, b, c):
    # no ring operation leaves a zero coefficient
    for p in (a + b, a - b, a * b, collapse(a - b)):
        assert 0 not in p.terms.values()
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_mismatched_truncations_error():
    a = QPoly.one(2, 3)
    b = QPoly.one(2, 4)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a == b


def test_geometric_inverse():
    t = Truncation(1, 6)
    one = geometric_inverse(QPoly.one(*t))
    assert one == QPoly.one(*t)
    inv = geometric_inverse(QPoly.one(*t) - QPoly.variable(*t, 1))
    assert inv == QPoly(1, 6, {(d,): 1 for d in range(7)})
    two_var = Truncation(2, 4)
    unit = (QPoly.one(*two_var) - QPoly.variable(*two_var, 1)) * (
        QPoly.one(*two_var) - QPoly.variable(*two_var, 2)
    )
    inv2 = geometric_inverse(unit)
    assert unit * inv2 == QPoly.one(*two_var)
    for p in (one, inv, inv2):
        assert 0 not in p.terms.values()
    with pytest.raises(ValueError):
        geometric_inverse(QPoly.variable(*t, 1))


def test_pochhammer_values():
    t = Truncation(1, 6)
    assert pochhammer(1, 0, t) == QPoly.one(*t)
    assert pochhammer(1, 1, t) == QPoly(1, 6, {(0,): 1, (1,): -1})
    assert pochhammer(1, 2, t) == QPoly(1, 6, {(0,): 1, (1,): -1, (2,): -1, (3,): 1})
    with pytest.raises(ValueError, match="need n >= 0, got -3"):
        pochhammer(1, -3, t)


def test_power_sum_values():
    t = Truncation(1, 6)
    assert power_sum_principal(1, t) == QPoly(1, 6, {(d,): 1 for d in range(7)})
    assert power_sum_principal(3, t) == QPoly(1, 6, {(0,): 1, (3,): 1, (6,): 1})
    t2 = Truncation(2, 4)
    expected = {}
    for a in range(3):
        for b in range(3):
            if 2 * a + 2 * b <= 4:
                expected[(2 * a, 2 * b)] = 1
    assert power_sum_principal(2, t2) == QPoly(2, 4, expected)
    with pytest.raises(ValueError):
        power_sum_principal(0, t)


def test_homogeneous_values():
    t = Truncation(2, 5)
    assert homogeneous_principal(0, t) == QPoly.one(*t)
    all_monomials = QPoly(
        2, 5, {e: 1 for e in itertools.product(range(6), repeat=2) if sum(e) <= 5}
    )
    assert homogeneous_principal(1, t) == all_monomials
    # one variable: h_2 equals the inverse of (q;q)_2
    t1 = Truncation(1, 8)
    assert homogeneous_principal(2, t1) == geometric_inverse(pochhammer(1, 2, t1))
    # past the degree bound h_m is h_D, so one truncation holds at most D + 1 values
    assert homogeneous_principal(100, t1) == geometric_inverse(pochhammer(1, 100, t1))
    t3 = Truncation(1, 3)
    assert homogeneous_principal(900, t3) == homogeneous_principal(3, t3)
    assert len(_homogeneous(t3)) <= 4


def test_homogeneous_reads_each_power_sum_once(monkeypatch):
    # building h_0..h_m reads p_1..p_m once each, not p_1..p_j at every step j
    reads = []

    def counted(r, trunc):
        reads.append(r)
        return power_sum_principal(r, trunc)

    monkeypatch.setattr(qpoly, "power_sum_principal", counted)
    _homogeneous.cache_clear()
    t = Truncation(1, 100)
    assert homogeneous_principal(100, t) == geometric_inverse(pochhammer(1, 100, t))
    assert len(reads) <= 100


def test_newton_recursion_consistency():
    t = Truncation(2, 6)
    for m in range(1, 5):
        acc = QPoly.zero(*t)
        for r in range(1, m + 1):
            acc = acc + power_sum_principal(r, t) * homogeneous_principal(m - r, t)
        assert exact_div(acc, m) == homogeneous_principal(m, t)


def test_exact_div_error():
    with pytest.raises(ArithmeticError):
        exact_div(QPoly(1, 2, {(1,): 3}), 2)


def test_cauchy_power_sum_average():
    # sum over cycle types of the class-size-weighted power-sum products
    # recovers n! times the homogeneous value
    t = Truncation(2, 6)
    for n in range(1, 6):
        acc = QPoly.zero(*t)
        for mu in partitions(n):
            prod = QPoly.one(*t)
            for part in mu:
                prod = prod * power_sum_principal(part, t)
            acc = acc + (factorial(n) // centralizer_size(mu)) * prod
        assert acc == factorial(n) * homogeneous_principal(n, t)


def test_variable_symmetry():
    t = Truncation(3, 5)
    swap = (2, 1, 3)
    cycle = (2, 3, 1)
    for p in [
        power_sum_principal(2, t),
        homogeneous_principal(3, t),
        schur_principal_jt((2, 1), t),
    ]:
        assert p.permute_variables(swap) == p
        assert p.permute_variables(cycle) == p


def test_schur_jt_values():
    t = Truncation(1, 6)
    assert schur_principal_jt((3,), t) == homogeneous_principal(3, t)
    normalized = pochhammer(1, 2, t) * schur_principal_jt((1, 1), t)
    assert normalized == QPoly(1, 6, {(1,): 1})
    t8 = Truncation(1, 8)
    normalized = pochhammer(1, 3, t8) * schur_principal_jt((2, 1), t8)
    assert normalized == QPoly(1, 8, {(1,): 1, (2,): 1})
    with pytest.raises(ValueError, match="partition must be nonempty"):
        schur_principal_jt((), t)


def test_schur_jt_rejects_non_partitions():
    # the SSYT route refuses these too; the determinant alone would give 0, -s_(2,2) and h_2
    t = Truncation(2, 4)
    for lam in ((1, 2), (1, 3)):
        with pytest.raises(ValueError, match="parts must be weakly decreasing"):
            schur_principal_jt(lam, t)
    with pytest.raises(ValueError, match="parts must be positive integers"):
        schur_principal_jt((2, 0), t)


def test_schur_jt_accepts_a_list():
    # a list or an iterator reads as its tuple, as on the tableaux route; the
    # cache stays keyed by the tuple
    t = Truncation(2, 6)
    for entry in (schur_principal_jt, schur_normalized_jt):
        assert entry([2, 1], t).digest() == entry((2, 1), t).digest()
        assert entry(iter([2, 1]), t).digest() == entry((2, 1), t).digest()
        with pytest.raises(ValueError, match="parts must be weakly decreasing"):
            entry([1, 2], t)


def _determinant(matrix, trunc: Truncation) -> QPoly:
    """Cofactor expansion along the first column."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    acc = QPoly.zero(*trunc)
    for i in range(size):
        pivot = matrix[i][0]
        if pivot.is_zero():
            continue
        minor = [row[1:] for j, row in enumerate(matrix) if j != i]
        term = pivot * _determinant(minor, trunc)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def _jt_determinant(lam, trunc: Truncation) -> QPoly:
    """det(h_{lam_i - i + j}) built as a matrix of QPolys."""
    ell = len(lam)

    def entry(i: int, j: int) -> QPoly:
        idx = lam[i] - i + j
        return QPoly.zero(*trunc) if idx < 0 else homogeneous_principal(idx, trunc)

    return _determinant([[entry(i, j) for j in range(ell)] for i in range(ell)], trunc)


def test_schur_jt_matches_determinant():
    # the normalised h-monomial expansion, divided or not, against the cofactor
    # expansion, at the exact bound and below it
    for n in range(1, 6):
        for k in range(1, 4):
            bound = k * n * (n - 1) // 2
            for D in sorted({bound, max(bound - 1, 0)}):
                t = Truncation(k, D)
                for lam in partitions(n):
                    det = _jt_determinant(lam, t)
                    assert schur_principal_jt(lam, t) == det, (lam, t)
                    assert schur_normalized_jt(lam, t) == pochhammer_all(n, t) * det, (lam, t)
    t = Truncation(1, 4)
    assert schur_principal_jt((1,) * 10, t) == _jt_determinant((1,) * 10, t)


def test_schur_jt_builds_each_normalized_h_once(monkeypatch):
    # the five shapes of 4 share G_1..G_4 at one truncation; building G_m divides by m once
    t = Truncation(3, 18)
    qpoly._normalized_hs.cache_clear()
    qpoly._schur_normalized_jt.cache_clear()
    divisors = []
    divide = qpoly.exact_div
    monkeypatch.setattr(qpoly, "exact_div", lambda p, m: divisors.append(m) or divide(p, m))
    for lam in partitions(4):
        schur_principal_jt(lam, t)
    assert divisors == [1, 2, 3, 4]


@settings(max_examples=40, deadline=None)
@given(qpolys(k=2, D=5), st.integers(min_value=0, max_value=4))
def test_division_undoes_pochhammer_all(p, n):
    t = Truncation(2, 5)
    divided = p
    for j in (1, 2):
        divided = divide_factors(divided, j, range(1, n + 1))
    assert pochhammer_all(n, t) * divided == p
    product = pochhammer_all(n, t) * p
    for j in (1, 2):
        product = divide_factors(product, j, range(1, n + 1))
    assert product == p


def test_divide_factors_refuses_bad_arguments():
    p = QPoly.one(2, 3)
    for var_index, cs in ((0, (1,)), (3, (1,)), (1, (0,)), (2, (2, -1))):
        with pytest.raises(ValueError):
            divide_factors(p, var_index, cs)


def test_q_multinomial_times_part_pochhammers_is_pochhammer():
    # [n; mu]_q prod_i (q; q)_{mu_i} = (q; q)_n in every variable, also truncated
    for n in range(1, 7):
        for k, D in ((1, n * (n - 1) // 2), (2, n * (n - 1)), (2, 5)):
            t = Truncation(k, D)
            whole = QPoly.one(*t)
            for j in range(1, k + 1):
                whole = whole * pochhammer(j, n, t)
            for mu in partitions(n):
                got = q_multinomial(n, mu, t)
                for part in mu:
                    for j in range(1, k + 1):
                        got = got * pochhammer(j, part, t)
                assert got == whole, (mu, t)


def test_row_normalization_is_one():
    for n in range(1, 5):
        t = Truncation(1, 7)
        assert pochhammer(1, n, t) * homogeneous_principal(n, t) == QPoly.one(*t)


def test_pochhammer_all_matches_factors():
    for n in range(5):
        for t in (Truncation(2, 5), Truncation(3, 7)):
            manual = QPoly.one(*t)
            for j in range(1, t.k + 1):
                manual = manual * pochhammer(j, n, t)
            assert pochhammer_all(n, t) == manual


def test_collapse():
    p = QPoly(2, 4, {(1, 0): 1, (0, 1): 1, (1, 1): 1, (0, 0): 1})
    assert collapse(p) == QPoly(1, 4, {(0,): 1, (1,): 2, (2,): 1})
    assert collapse(QPoly.one(2, 3)) == QPoly.one(1, 3)


def test_serialization_schema_and_stability():
    p = QPoly(2, 4, {(2, 0): 3, (0, 1): -2, (0, 0): 10**20})
    obj = p.to_obj()
    assert obj["k"] == 2 and obj["D"] == 4
    assert obj["terms"] == [
        {"e": [0, 0], "c": str(10**20)},
        {"e": [0, 1], "c": "-2"},
        {"e": [2, 0], "c": "3"},
    ]
    rebuilt = QPoly(2, 4, {(0, 1): -2, (0, 0): 10**20, (2, 0): 3})
    assert rebuilt.to_json() == p.to_json()
    assert rebuilt.digest() == p.digest()
    parsed = json.loads(p.to_json())
    assert parsed["terms"][0]["c"] == str(10**20)


def test_digest_is_sha256_of_json():
    def sha(p):
        return hashlib.sha256(p.to_json().encode("utf-8")).hexdigest()

    fresh = QPoly(2, 4, {(0, 1): -2, (1, 0): 3})
    trusted = QPoly._trusted(2, 4, {(0, 1): -2, (1, 0): 3})
    for p in (fresh, trusted, QPoly.zero(1, 3)):
        assert p.digest() == sha(p)
    for result in (fresh + trusted, fresh * trusted, -fresh, fresh * 2, fresh - trusted):
        assert result.digest() == sha(result)


def test_graded_lex_term_order():
    p = QPoly(2, 4, {(0, 2): 1, (2, 0): 1, (1, 1): 1, (1, 0): 1})
    exps = [tuple(item["e"]) for item in p.to_obj()["terms"]]
    assert exps == [(1, 0), (0, 2), (1, 1), (2, 0)]


def test_cached_terms_are_read_only():
    t = Truncation(2, 4)
    before = homogeneous_principal(2, t).digest()
    with pytest.raises(TypeError):
        homogeneous_principal(2, t).terms[(0, 0)] = 99
    with pytest.raises(AttributeError):
        homogeneous_principal(2, t).terms = {}
    assert homogeneous_principal(2, t).digest() == before


def test_rebound():
    p = QPoly(1, 5, {(5,): 2, (1,): 1})
    up = p.rebound(8)
    assert up.D == 8 and up.coeff((5,)) == 2
    down = p.rebound(3)
    assert down.terms == {(1,): 1}


def test_variable_helpers():
    with pytest.raises(ValueError):
        QPoly.variable(2, 4, 3)
    p = QPoly(2, 4, {(1, 2): 5})
    assert p.permute_variables((2, 1)).terms == {(2, 1): 5}
    with pytest.raises(ValueError):
        p.permute_variables((1, 1))
    assert p.set_variable_to_zero(1).is_zero()
    q = QPoly(2, 4, {(0, 2): 5})
    assert q.drop_variable(1).terms == {(2,): 5}
    with pytest.raises(ValueError):
        p.drop_variable(1)
    for index in (0, 3, -1):
        with pytest.raises(ValueError, match=rf"variable index out of range 1\.\.2: {index}"):
            q.drop_variable(index)
