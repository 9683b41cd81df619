from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from tworow.forms import (
    Permutation,
    SquareFreeForm,
    act,
    harmonic_preimage,
    inner,
    is_harmonic,
    pseudo_monomial,
    psi,
)
from tworow.gz import (
    closed_harmonic_norm_sq,
    closed_norm_sq_in_H,
    full_gz_basis,
    gz_coefficient,
    gz_harmonic,
    gz_in_H,
    iter_basis,
    orthogonal_form_matrix,
    yjm_apply,
)
from tworow.linalg import _PRIME, _rank, divergence_matrix, harmonic_dim
from tworow.markov import BitPrefix, spectral_measure
from tworow.ygraph import (
    TwoRowDiagram,
    TwoRowTableau,
    dim,
    enumerate_diagrams,
    enumerate_tableaux,
    good_tableau,
)
from tworow.verify import (
    _expanded_harmonic,
    _is_yjm_eigenform,
    _transposition_matrix_in_basis,
)


def mono(n, *indices):
    key = tuple(sorted(indices))
    return SquareFreeForm(n, len(key), {key: 1})


@st.composite
def tableaux(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    k = draw(st.integers(min_value=0, max_value=n // 2))
    return draw(st.sampled_from(enumerate_tableaux(TwoRowDiagram(n, k))))


@st.composite
def forms(draw, max_n=7):
    """Forms with integer coefficients, or with rational ones."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=0, max_value=n))
    keys = list(combinations(range(1, n + 1), k))
    chosen = draw(
        st.lists(st.sampled_from(keys), max_size=min(5, len(keys)), unique=True)
    )
    dens = st.just(1) if draw(st.booleans()) else st.integers(2, 9)
    return SquareFreeForm(
        n, k, {key: Fraction(draw(st.integers(-9, 9)), draw(dens)) for key in chosen}
    )


# hand-expanded basis vectors


def test_vector_n2():
    vec = gz_harmonic(TwoRowTableau(2, (2,)))
    assert vec.form == mono(2, 1) - mono(2, 2)
    assert vec.norm_sq == 2


def test_vector_n3():
    vec = gz_harmonic(TwoRowTableau(3, (3,)))
    assert vec.form == mono(3, 1) + mono(3, 2) - 2 * mono(3, 3)
    assert vec.norm_sq == 6


def test_vector_n4_row_34():
    vec = gz_harmonic(TwoRowTableau(4, (3, 4)))
    expect = {
        (1, 2): Fraction(2),
        (1, 3): Fraction(-1),
        (1, 4): Fraction(-1),
        (2, 3): Fraction(-1),
        (2, 4): Fraction(-1),
        (3, 4): Fraction(2),
    }
    assert vec.form.coeffs == expect
    assert vec.norm_sq == 12


def test_good_tableau_vector_is_single_pseudo_monomial():
    vec = gz_harmonic(good_tableau(4, 2))
    assert vec.form == pseudo_monomial(4, [(1, 2), (3, 4)])
    assert vec.norm_sq == 4
    vec6 = gz_harmonic(good_tableau(6, 3))
    assert vec6.form == pseudo_monomial(6, [(1, 2), (3, 4), (5, 6)])
    assert vec6.norm_sq == 8


def test_good_tableau_norm_in_module():
    # 2^k times the lift constant
    assert closed_norm_sq_in_H(good_tableau(8, 2), 3) == 4 * comb(4, 1)
    assert closed_norm_sq_in_H(good_tableau(8, 2), 4) == 4 * comb(4, 2)


def test_empty_second_row_vector():
    vec = gz_harmonic(TwoRowTableau(3, ()))
    assert vec.form == SquareFreeForm(3, 0, {(): 1})
    assert vec.norm_sq == 1


@given(tableaux())
def test_vectors_are_harmonic_with_closed_norm(u):
    vec = gz_harmonic(u)
    assert is_harmonic(vec.form)
    assert inner(vec.form, vec.form) == vec.norm_sq
    assert vec.norm_sq == closed_harmonic_norm_sq(u)


def test_closed_norm_values():
    assert closed_harmonic_norm_sq(TwoRowTableau(4, (2, 4))) == 2 * 2
    assert closed_harmonic_norm_sq(TwoRowTableau(4, (3, 4))) == 6 * 2
    assert closed_harmonic_norm_sq(TwoRowTableau(5, (2,))) == 2


# lifted vectors


def test_lift_matches_psi():
    u = TwoRowTableau(5, (2,))
    vec = gz_in_H(u, 2)
    assert vec.form == psi(gz_harmonic(u).form, 1)
    assert vec.norm_sq == closed_norm_sq_in_H(u, 2)
    assert inner(vec.form, vec.form) == vec.norm_sq


def test_lift_of_constant():
    vec = gz_in_H(TwoRowTableau(2, ()), 1)
    assert vec.form == mono(2, 1) + mono(2, 2)
    assert vec.norm_sq == 2


def test_lift_validation():
    u = TwoRowTableau(4, (2, 4))
    with pytest.raises(ValueError):
        gz_in_H(u, 1)
    with pytest.raises(ValueError):
        gz_in_H(u, 3)


@given(tableaux(max_n=7), st.data())
def test_lift_norm_matches_inner_product(u, data):
    k = len(u.second_row)
    m = data.draw(st.integers(min_value=k, max_value=u.n // 2))
    vec = gz_in_H(u, m)
    assert inner(vec.form, vec.form) == vec.norm_sq
    assert vec.norm_sq == closed_harmonic_norm_sq(u) * comb(u.n - 2 * k, m - k)


def test_iter_basis_is_psi_of_the_harmonic():
    for n in range(11):
        for m in range(n // 2 + 1):
            for vec in iter_basis(n, m):
                u = vec.tableau
                lifted = psi(gz_harmonic(u).form, m - len(u.second_row))
                assert vec.form == lifted, (n, m, u.second_row)


def test_gz_in_H_is_the_iter_basis_vector():
    for n in range(11):
        for m in range(n // 2 + 1):
            for vec in iter_basis(n, m):
                single = gz_in_H(vec.tableau, m)
                assert (single.tableau, single.norm_sq) == (vec.tableau, vec.norm_sq)
                assert single.form == vec.form, (n, m, vec.tableau.second_row)


def test_lift_takes_no_psi(monkeypatch):
    def refuse(f, l):
        raise AssertionError("a basis vector was lifted with psi")

    monkeypatch.setattr("tworow.forms.psi", refuse)
    monkeypatch.setattr("tworow.gz.psi", refuse, raising=False)
    assert len(list(iter_basis(10, 5))) == comb(10, 5)
    u = TwoRowTableau(10, (2, 5))
    assert gz_in_H(u, 4).norm_sq == closed_norm_sq_in_H(u, 4)


# closed rook-count coefficients


def test_gz_harmonic_equals_expansion():
    """The closed harmonic vector of every tableau with n <= 9 against the
    index-tuple expansion of its products of differences."""
    for n in range(0, 10):
        for d in enumerate_diagrams(n):
            for u in enumerate_tableaux(d):
                assert gz_harmonic(u).form == _expanded_harmonic(u), u


def test_gz_coefficient_equals_expansion():
    """Every coefficient of every lifted vector with n <= 8, and the zeros
    off its support, against the psi lift of the index-tuple expansion."""
    for n in range(0, 9):
        for d in enumerate_diagrams(n):
            for u in enumerate_tableaux(d):
                expanded = _expanded_harmonic(u)
                for m in range(d.k, n // 2 + 1):
                    coeffs = psi(expanded, m - d.k).coeffs
                    for key in combinations(range(1, n + 1), m):
                        assert gz_coefficient(u, key) == coeffs.get(key, 0), (u, key)


def test_gz_coefficient_known_values():
    # h_(3,4) at n = 4 is (x1 - x3)(x2 - x4) + (x2 - x3)(x1 - x4)
    u = TwoRowTableau(4, (3, 4))
    assert gz_coefficient(u, (1, 2)) == 2
    assert gz_coefficient(u, (3, 4)) == 2
    assert gz_coefficient(u, (1, 3)) == -1
    assert gz_coefficient(TwoRowTableau(3, ()), ()) == 1
    assert gz_coefficient(TwoRowTableau(5, (2,)), (1, 2)) == 0


def test_gz_coefficient_validation():
    u = TwoRowTableau(4, (2, 4))
    for key in [(1,), (2, 1), (1, 1), (0, 2), (1, 5)]:
        with pytest.raises(ValueError):
            gz_coefficient(u, key)


@pytest.mark.parametrize("key", [(1.0, 2.0), (1, 2.0), ("1", 2), (True, 2)])
def test_gz_coefficient_takes_only_integer_indices(key):
    with pytest.raises(TypeError):
        gz_coefficient(TwoRowTableau(4, (2,)), key)


def test_closed_norms_are_int():
    u = TwoRowTableau(6, (3, 5))
    assert type(closed_harmonic_norm_sq(u)) is int
    assert type(closed_norm_sq_in_H(u, 3)) is int
    assert closed_norm_sq_in_H(u, 3) == gz_in_H(u, 3).norm_sq


# eigenvector property


def test_yjm_known_values():
    f = mono(3, 1) - mono(3, 2)
    assert yjm_apply(1, f).is_zero()
    g = mono(2, 1) - mono(2, 2)
    assert yjm_apply(2, g) == -1 * g
    h = mono(3, 1) + mono(3, 2) - 2 * mono(3, 3)
    assert yjm_apply(3, h) == -1 * h
    assert yjm_apply(2, mono(3, 1) + mono(3, 2)) == mono(3, 1) + mono(3, 2)


@given(forms())
def test_yjm_equals_sum_of_transpositions(f):
    for l in range(1, f.n + 1):
        expect = SquareFreeForm.zero(f.n, f.k)
        for i in range(1, l):
            expect = expect + act(Permutation.transposition(f.n, i, l), f)
        assert yjm_apply(l, f) == expect


def test_yjm_index_validation():
    with pytest.raises(ValueError):
        yjm_apply(4, mono(3, 1))
    with pytest.raises(ValueError):
        yjm_apply(0, mono(3, 1))


@given(tableaux(max_n=6), st.data())
def test_eigencheck_all_levels(u, data):
    assert _is_yjm_eigenform(u, gz_harmonic(u).form)
    m = data.draw(st.integers(min_value=len(u.second_row), max_value=u.n // 2))
    assert _is_yjm_eigenform(u, gz_in_H(u, m).form)


def test_corrupted_vector_fails_eigencheck():
    u = TwoRowTableau(3, (3,))
    good = gz_harmonic(u).form
    bad = good + mono(3, 2)
    hit = False
    for l in range(1, 4):
        if yjm_apply(l, bad) != u.content(l) * bad:
            hit = True
    assert hit


def test_content_vectors_separate_tableaux():
    """Distinct paths give distinct eigenvalue strings, so the joint spectrum
    determines the basis vector."""
    for n in range(1, 9):
        seen = set()
        for d in enumerate_diagrams(n):
            for u in enumerate_tableaux(d):
                key = tuple(u.content(l) for l in range(1, n + 1))
                assert key not in seen
                seen.add(key)


# the whole module at once


def test_basis_counts():
    assert len(full_gz_basis(2, 1)) == 2
    assert len(full_gz_basis(3, 0)) == 1
    grouped = {}
    for vec in full_gz_basis(4, 2):
        grouped.setdefault(len(vec.tableau.second_row), 0)
        grouped[len(vec.tableau.second_row)] += 1
    assert grouped == {0: 1, 1: 3, 2: 2}


def test_basis_ordering():
    labels = [(len(v.tableau.second_row), v.tableau.second_row) for v in full_gz_basis(6, 3)]
    assert labels == sorted(labels)


@given(st.data())
def test_basis_fills_module(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    m = data.draw(st.integers(min_value=0, max_value=n // 2))
    assert len(full_gz_basis(n, m)) == comb(n, m)


def test_basis_pairwise_orthogonal():
    for n, m in [(4, 2), (5, 2), (6, 3)]:
        basis = full_gz_basis(n, m)
        for a in range(len(basis)):
            for b in range(a, len(basis)):
                expect = basis[a].norm_sq if a == b else 0
                assert inner(basis[a].form, basis[b].form) == expect


def test_iter_basis_matches_cached():
    lazy = list(iter_basis(5, 2))
    eager = full_gz_basis(5, 2)
    assert len(lazy) == len(eager)
    for x, y in zip(lazy, eager):
        assert x.tableau == y.tableau
        assert x.form == y.form
        assert x.norm_sq == y.norm_sq


def test_vector_builders_take_no_inner_product(monkeypatch):
    def refuse(f, g):
        raise AssertionError("a basis vector took an inner product")

    monkeypatch.setattr("tworow.forms.inner", refuse)
    monkeypatch.setattr("tworow.gz.inner", refuse, raising=False)
    u = TwoRowTableau(8, (2, 5))
    assert gz_harmonic(u).norm_sq == closed_harmonic_norm_sq(u)
    assert gz_in_H(u, 3).norm_sq == closed_norm_sq_in_H(u, 3)
    assert len(list(iter_basis(8, 4))) == comb(8, 4)


def _all_int(form):
    return all(type(c) is int for c in form.coeffs.values())


def test_integral_inputs_keep_int_coefficients():
    u = TwoRowTableau(6, (3, 5))
    vectors = [gz_harmonic(u), gz_in_H(u, 3), *full_gz_basis(6, 3)]
    for vec in vectors:
        assert _all_int(vec.form)
        assert type(vec.norm_sq) is int
    f = gz_harmonic(u).form
    assert _all_int(psi(f, 1))
    assert _all_int(act(Permutation.transposition(6, 1, 5), f))
    assert _all_int(pseudo_monomial(6, [(1, 2), (5, 3)]))


def test_divisions_give_fractions():
    u = TwoRowTableau(6, (3, 5))
    f0 = harmonic_preimage(psi(gz_harmonic(u).form, 1), 2)
    assert f0.coeffs and all(type(c) is Fraction for c in f0.coeffs.values())
    table = spectral_measure(BitPrefix.from_string("010101"))
    assert all(type(p) is Fraction for _, p in table.items())
    matrix = _transposition_matrix_in_basis(2, TwoRowDiagram(5, 2))
    assert all(type(x) is Fraction for row in matrix for x in row)


def test_basis_validation():
    with pytest.raises(ValueError):
        full_gz_basis(3, 2)
    with pytest.raises(ValueError):
        list(iter_basis(3, 2))


def test_harmonic_dims():
    for n in range(1, 8):
        for k in range(1, n // 2 + 1):
            assert harmonic_dim(n, k) == comb(n, k) - comb(n, k - 1)
    assert harmonic_dim(8, 4) == dim(TwoRowDiagram(8, 4))


def test_rank_over_both_fields():
    rows = [[2, 4, 0], [1, 2, 0], [0, 0, 7]]
    assert _rank(rows) == 2
    assert _rank(rows, 7) == 1
    for n in range(2, 8):
        for k in range(1, n // 2 + 1):
            rows = divergence_matrix(n, k)
            assert _rank(rows) == _rank(rows, _PRIME) == len(rows)


def test_harmonic_dim_validation():
    assert harmonic_dim(3, 0) == 1
    with pytest.raises(ValueError):
        harmonic_dim(3, 2)
    with pytest.raises(ValueError):
        harmonic_dim(3, -1)


# matrices of adjacent transpositions


def test_matrix_n2():
    assert orthogonal_form_matrix(1, TwoRowDiagram(2, 1)) == [[Fraction(-1)]]
    assert orthogonal_form_matrix(1, TwoRowDiagram(2, 0)) == [[Fraction(1)]]


def test_matrix_3_1_swap_23():
    got = orthogonal_form_matrix(2, TwoRowDiagram(3, 1))
    assert got == [
        [Fraction(1, 2), Fraction(1, 2)],
        [Fraction(3, 2), Fraction(-1, 2)],
    ]


def test_matrix_same_row_same_column_entries():
    # entries 1 and 2 share the first row in the one-row shape
    assert orthogonal_form_matrix(1, TwoRowDiagram(4, 0)) == [[Fraction(1)]]
    # in (2,2) the swap of 1 and 2 is never standard: diagonal -1 when they
    # share a column, +1 when they share a row
    assert orthogonal_form_matrix(1, TwoRowDiagram(4, 2)) == [
        [Fraction(-1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


def test_matrix_index_validation():
    with pytest.raises(ValueError):
        orthogonal_form_matrix(0, TwoRowDiagram(3, 1))
    with pytest.raises(ValueError):
        orthogonal_form_matrix(3, TwoRowDiagram(3, 1))
    with pytest.raises(ValueError):
        _transposition_matrix_in_basis(3, TwoRowDiagram(3, 1))


def _mat_mul(a, b):
    size = len(a)
    return [
        [sum((a[r][t] * b[t][c] for t in range(size)), Fraction(0)) for c in range(size)]
        for r in range(size)
    ]


def _identity(size):
    return [
        [Fraction(1) if r == c else Fraction(0) for c in range(size)] for r in range(size)
    ]


def test_matrices_are_involutions():
    for n in range(2, 7):
        for d in enumerate_diagrams(n):
            for i in range(1, n):
                m = orthogonal_form_matrix(i, d)
                assert _mat_mul(m, m) == _identity(dim(d))


def test_matrices_satisfy_braid_and_commutation():
    d = TwoRowDiagram(5, 2)
    mats = {i: orthogonal_form_matrix(i, d) for i in range(1, 5)}
    for i in range(1, 4):
        left = _mat_mul(mats[i], _mat_mul(mats[i + 1], mats[i]))
        right = _mat_mul(mats[i + 1], _mat_mul(mats[i], mats[i + 1]))
        assert left == right
    assert _mat_mul(mats[1], mats[3]) == _mat_mul(mats[3], mats[1])
    assert _mat_mul(mats[1], mats[4]) == _mat_mul(mats[4], mats[1])


def test_closed_matrix_matches_projection():
    for n in range(2, 6):
        for d in enumerate_diagrams(n):
            for i in range(1, n):
                assert orthogonal_form_matrix(i, d) == _transposition_matrix_in_basis(i, d)


def test_projection_matrix_independent_of_degree():
    d = TwoRowDiagram(6, 2)
    base = _transposition_matrix_in_basis(3, d)
    for m in (2, 3):
        assert _transposition_matrix_in_basis(3, d, m) == base


def test_off_diagonal_entries_square_correctly():
    """The product of the two off-diagonal coefficients weighted by the norm
    ratio recovers 1 - 1/c^2, the unitary constraint in disguise."""
    for n in range(3, 8):
        for d in enumerate_diagrams(n):
            tabs = enumerate_tableaux(d)
            for i in range(1, n):
                mat = orthogonal_form_matrix(i, d)
                for a, u in enumerate(tabs):
                    for b, v in enumerate(tabs):
                        if a == b or mat[a][b] == 0:
                            continue
                        c = u.content(i + 1) - u.content(i)
                        ratio = Fraction(
                            closed_harmonic_norm_sq(v), closed_harmonic_norm_sq(u)
                        )
                        assert mat[a][b] ** 2 * ratio == 1 - Fraction(1, c * c)
                        assert mat[a][b] * mat[b][a] == 1 - Fraction(1, c * c)
