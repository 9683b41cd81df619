import gc
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from tworow import gz, linalg, verify
from tworow.forms import (
    Permutation,
    SquareFreeForm,
    act,
    divergence,
    harmonic_preimage,
    inner,
    pseudo_monomial,
    psi,
)
from tworow.forms import _dense as _laid_out, _lift_table
from tworow.gz import (
    closed_harmonic_norm_sq,
    closed_norm_sq_in_H,
    full_gz_basis,
    gz_harmonic,
    gz_in_H,
    iter_basis,
    orthogonal_form_matrix,
    yjm_rows,
)
from tworow.linalg import _PRIME, _rank, divergence_matrix, harmonic_dim
from tworow.markov import BitPrefix, spectral_measure
from tworow.ygraph import (
    TwoRowDiagram,
    TwoRowTableau,
    dim,
    enumerate_all_tableaux,
    enumerate_diagrams,
    enumerate_tableaux,
    good_tableau,
)
from tworow.verify import (
    _acts_by,
    _contents,
    _expanded_harmonic,
    _mat_mul as _verify_mat_mul,
    _yjm_misses,
)


@pytest.fixture
def form_reads(monkeypatch):
    """The reads of ``GzVector.form`` from here on, counted by tableau."""
    reads = Counter()
    view = gz.GzVector.form.fget

    def counted(vec):
        reads[vec.tableau] += 1
        return view(vec)

    monkeypatch.setattr(gz.GzVector, "form", property(counted))
    return reads


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
    assert vec.form.k == 0 or divergence(vec.form).is_zero()
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


DENSE_SIZES = [(n, m) for n in range(9) for m in range(n // 2 + 1)] + [(10, 5)]


@pytest.mark.parametrize("n,m", DENSE_SIZES)
def test_basis_vectors_are_dense_int_lists_over_one_shared_key_list(n, m):
    """Each vector holds C(n, m) ``int`` coefficients; the vectors of one
    shape, one ``_vectors`` call, share one ``keys`` list, the m-subsets
    in lexicographic order; and the form built from them is psi of the
    tableau's harmonic, a fresh view on each read."""
    subsets = list(combinations(range(1, n + 1), m))
    vectors = list(iter_basis(n, m))
    first = {}
    for vec in vectors:
        k = len(vec.tableau.second_row)
        assert vec.keys is first.setdefault(k, vec).keys
        assert vec.keys == subsets
        assert len(vec.coeffs) == comb(n, m)
        assert all(type(c) is int for c in vec.coeffs)
        assert vec.form == psi(gz_harmonic(vec.tableau).form, m - k)
        view, again = vec.form, vec.form
        assert view == again and view is not again
    assert sorted(first) == list(range(m + 1))


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


def _lifted_coeffs(f, l):
    """The coefficients of psi(f, l), empty where its degree f.k + l falls
    outside 0..n and psi has no monomial to put them on."""
    return psi(f, l).coeffs if 0 <= l and f.k + l <= f.n else {}


@given(tableaux(max_n=10), st.data())
def test_branching_rule_splits_the_expanded_lift_by_its_last_variable(u, data):
    """The branching rule that builds every vector, stated on expansions
    alone: for u at level n with j second-row entries and j <= d <= n - j,
    the monomials of psi(h_u, d - j) without x_n are a multiple of
    psi(h', d - j'), and those with x_n, x_n dropped, of psi(h', d - 1 - j'),
    where h' is the harmonic of u's restriction, with j' entries.  The
    multiples are 1 and 1 when n is in the first row, and d - j' and
    -(n - d - j') when n is the (j' + 1)-th second-row entry."""
    n, j = u.n, len(u.second_row)
    d = data.draw(st.integers(min_value=j, max_value=n - j))
    below = u.restricted()
    h, j_below = _expanded_harmonic(below), len(below.second_row)
    without, with_n = (1, 1) if j == j_below else (d - j_below, -(n - d - j_below))
    split = ({}, {})
    for key, val in psi(_expanded_harmonic(u), d - j).coeffs.items():
        has_n = key[-1:] == (n,)
        split[has_n][key[: len(key) - has_n]] = val
    assert split[0] == {key: without * c for key, c in _lifted_coeffs(h, d - j_below).items()}
    assert split[1] == {key: with_n * c for key, c in _lifted_coeffs(h, d - 1 - j_below).items()}


def test_closed_norms_are_int():
    u = TwoRowTableau(6, (3, 5))
    assert type(closed_harmonic_norm_sq(u)) is int
    assert type(closed_norm_sq_in_H(u, 3)) is int
    assert closed_norm_sq_in_H(u, 3) == gz_in_H(u, 3).norm_sq


# eigenvector property


def _yjm(l, f):
    """The sum of transpositions (i l) over i < l applied to f through the
    gather rows of ``yjm_rows``: each coefficient of the image sums its
    sources' coefficients and adds its own times the fixed count."""
    rows = yjm_rows(f.n, f.k, l)
    dense = [f.coeffs.get(key, 0) for key, _, _ in rows]
    dense.append(0)
    image = {
        key: sum(gather(dense)) + fixed * val
        for (key, fixed, gather), val in zip(rows, dense)
    }
    return SquareFreeForm(f.n, f.k, image)


def test_yjm_known_values():
    f = mono(3, 1) - mono(3, 2)
    assert _yjm(1, f).is_zero()
    g = mono(2, 1) - mono(2, 2)
    assert _yjm(2, g) == -1 * g
    h = mono(3, 1) + mono(3, 2) - 2 * mono(3, 3)
    assert _yjm(3, h) == -1 * h
    assert _yjm(2, mono(3, 1) + mono(3, 2)) == mono(3, 1) + mono(3, 2)


def _transposition_sum(l, f):
    """The sum of act((i l), f) over i < l."""
    out = SquareFreeForm.zero(f.n, f.k)
    for i in range(1, l):
        out = out + act(Permutation.transposition(f.n, i, l), f)
    return out


@given(forms())
def test_yjm_equals_sum_of_transpositions(f):
    for l in range(1, f.n + 1):
        assert _yjm(l, f) == _transposition_sum(l, f)


def test_yjm_equals_sum_of_transpositions_on_every_monomial():
    for n in range(1, 9):
        for k in range(min(n, 4) + 1):
            for key in combinations(range(1, n + 1), k):
                f = SquareFreeForm(n, k, {key: 3})
                for l in range(1, n + 1):
                    assert _yjm(l, f) == _transposition_sum(l, f)


def test_yjm_rows_split_every_transposition_into_fixed_or_moving():
    """Each of the l - 1 transpositions (i l) either fixes x_T or carries
    one distinct source x_S onto it, with S and T differing in i and l."""
    for n in range(1, 9):
        for k in range(n + 1):
            subsets = list(combinations(range(1, n + 1), k))
            pad = len(subsets)
            for l in range(1, n + 1):
                rows = yjm_rows(n, k, l)
                assert [key for key, _, _ in rows] == subsets
                for key, fixed, gather in rows:
                    read = gather(range(pad + 1))
                    assert pad in read
                    sources = [s for s in read if s != pad]
                    assert fixed + len(sources) == l - 1
                    assert len(set(sources)) == len(sources)
                    assert all(0 <= s < pad for s in sources)
                    assert fixed == sum((i in key) == (l in key) for i in range(1, l))
                    for s in sources:
                        i, top = sorted(set(subsets[s]) ^ set(key))
                        assert top == l and i < l


def _is_yjm_eigenform(u, form):
    """Whether every level l's transposition sum scales ``form`` by u's
    content at l: ``_yjm_misses`` on the one form."""
    levels = [yjm_rows(form.n, form.k, l) for l in range(1, form.n + 1)]
    row = _laid_out(form, combinations(range(1, form.n + 1), form.k))
    return not _yjm_misses(levels, (_contents(u),), (row,))


@given(tableaux(max_n=6), st.data())
def test_eigencheck_all_levels(u, data):
    assert _is_yjm_eigenform(u, gz_harmonic(u).form)
    m = data.draw(st.integers(min_value=len(u.second_row), max_value=u.n // 2))
    assert _is_yjm_eigenform(u, gz_in_H(u, m).form)


def test_corrupted_vector_fails_eigencheck():
    u = TwoRowTableau(3, (3,))
    good = gz_harmonic(u).form
    assert _is_yjm_eigenform(u, good)
    assert not _is_yjm_eigenform(u, good + mono(3, 2))


def test_eigencheck_rejects_every_basis_vector_with_a_bumped_coefficient():
    """At m >= 1 no basis vector is a multiple of one monomial, and each
    joint eigenspace meets the module in a line, so adding 1 to any
    coefficient leaves it.  At m = 0 the only vector is a constant, which
    stays an eigenvector when bumped."""
    for n in range(2, 7):
        for m in range(1, n // 2 + 1):
            for vec in full_gz_basis(n, m):
                assert _is_yjm_eigenform(vec.tableau, vec.form)
                for key in combinations(range(1, n + 1), m):
                    bad = vec.form + SquareFreeForm(n, m, {key: 1})
                    assert not _is_yjm_eigenform(vec.tableau, bad)


def test_batched_eigencheck_flags_exactly_the_bumped_vector():
    """The batched check passes every full basis with n <= 6 and m >= 1
    whole, and once 1 is added to any one coefficient of any one vector it
    flags that vector and no other."""
    for n in range(2, 7):
        for m in range(1, n // 2 + 1):
            levels = [yjm_rows(n, m, l) for l in range(1, n + 1)]
            basis = full_gz_basis(n, m)
            contents = [_contents(vec.tableau) for vec in basis]
            rows = [list(vec.coeffs) for vec in basis]
            assert _yjm_misses(levels, contents, rows) == set()
            for pos, row in enumerate(rows):
                for t in range(len(row)):
                    row[t] += 1
                    assert _yjm_misses(levels, contents, rows) == {pos}, (n, m, pos, t)
                    row[t] -= 1


def test_basis_check_builds_each_gather_row_once_per_run(monkeypatch):
    """Every (n, k, l) the eigen check needs is built once in a run of
    ``check_basis`` and built again in the next run: no rows outlive it."""
    built = Counter()
    real = verify.yjm_rows

    def counted(n, k, l):
        built[n, k, l] += 1
        return real(n, k, l)

    monkeypatch.setattr(verify, "yjm_rows", counted)
    needed = {(n, k, l) for n in range(1, 6) for k in range(n // 2 + 1) for l in range(1, n + 1)}
    for runs in (1, 2):
        assert all(result.ok for result in verify.check_basis(5))
        assert built == {key: runs for key in needed}


def test_basis_check_reads_every_harmonic_from_the_cached_bases(monkeypatch, form_reads):
    """``check_basis`` builds no lone vector and reads no form: each
    harmonic is the last block of its cached full basis, and each (n, m)
    is eigen-checked once on its vectors' dense ``coeffs``, 24 times for
    n <= 8."""

    def lone(*args):
        raise AssertionError("check_basis built a lone vector")

    calls = Counter()

    def counted(name):
        real = getattr(verify, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    monkeypatch.setattr(verify, "gz_in_H", lone)
    monkeypatch.setattr(verify, "_yjm_misses", counted("_yjm_misses"))
    results = verify.check_basis(8)
    assert all(r.ok for r in results), results
    assert calls == {"_yjm_misses": 24}
    assert not form_reads


def test_basis_good_and_spectral_checks_read_no_form(form_reads):
    """``check_basis``, ``check_good`` and ``check_spectral`` compare and
    sum the squares of dense ``coeffs`` only, so no vector's form is
    built, where summing the squares of forms in ``check_good`` reads 189."""
    results = verify.check_basis(8) + verify.check_good(12) + verify.check_spectral(8)
    assert all(r.ok for r in results), results
    assert not form_reads


def test_psi_check_reads_one_form_per_tableau(form_reads):
    """``check_psi`` reads each tableau's harmonic as a form once, for
    ``psi``, and compares every lift with the cached ``coeffs``."""
    assert all(r.ok for r in verify.check_psi(8))
    assert form_reads == {u: 1 for n in range(9) for u in enumerate_all_tableaux(n)}


def test_basis_builds_each_slice_at_most_once_per_call(monkeypatch):
    """An ``iter_basis`` call builds each level-s slice of a shape's
    tableau prefixes at most once, and the next call builds them again; a
    lone ``gz_harmonic`` or ``gz_in_H`` builds the n slices of its own
    tableau.  No chain outlives its call: ``full_gz_basis`` stays the
    module's only cache."""
    built = Counter()
    walking = []
    vector, real = gz._vector, gz._slice

    def walked(u, chain):
        walking[:] = [u]
        return vector(u, chain)

    def counted(below, s, j, second, degrees):
        (u,) = walking
        built[len(u.second_row), tuple(p for p in u.second_row if p <= s), s] += 1
        return real(below, s, j, second, degrees)

    monkeypatch.setattr(gz, "_vector", walked)
    monkeypatch.setattr(gz, "_slice", counted)
    n, m = 10, 5
    prefixes = {
        (k, tuple(p for p in u.second_row if p <= s), s)
        for k in range(m + 1)
        for u in enumerate_tableaux(TwoRowDiagram(n, k))
        for s in range(1, n + 1)
    }
    for runs in (1, 2):
        assert len(list(iter_basis(n, m))) == comb(n, m)
        assert set(built) <= prefixes
        assert max(built.values()) == runs
        assert not [obj for obj in gc.get_objects() if isinstance(obj, gz._Chain)]
    u = TwoRowTableau(12, (2, 5, 9))
    for build in (lambda: gz_harmonic(u), lambda: gz_in_H(u, 3), lambda: gz_in_H(u, 5)):
        built.clear()
        build()
        assert built == {(3, tuple(p for p in u.second_row if p <= s), s): 1 for s in range(1, 13)}
    assert [name for name, fn in vars(gz).items() if hasattr(fn, "cache_info")] == [
        "full_gz_basis"
    ]


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


def test_basis_keys_are_lexicographic():
    """``serialize.write_basis`` writes each vector's terms in the order of
    its coefficient map, so every basis vector must hold its keys sorted."""
    for n in range(11):
        for m in range(n // 2 + 1):
            for vec in iter_basis(n, m):
                keys = list(vec.form.coeffs)
                assert keys == sorted(keys), (n, m, vec.tableau)


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


def test_harmonic_preimage_keeps_integral_coefficients_int():
    h = gz_harmonic(TwoRowTableau(6, (2, 4))).form
    f0 = harmonic_preimage(psi(h, 1), 2)
    assert f0 == h and f0.coeffs
    assert all(type(c) is int for c in f0.coeffs.values())


def test_divisions_give_fractions():
    u = TwoRowTableau(6, (3, 5))
    third = gz_harmonic(u).form * Fraction(1, 3)
    f0 = harmonic_preimage(psi(third, 1), 2)
    assert f0 == third and f0.coeffs
    assert all(type(c) is Fraction for c in f0.coeffs.values())
    table = spectral_measure(BitPrefix.from_string("010101"))
    assert all(type(p) is Fraction for p in table.probs.values())
    matrix = orthogonal_form_matrix(2, TwoRowDiagram(5, 2))
    assert all(type(x) is Fraction for row in matrix for x in row)


def test_basis_validation():
    with pytest.raises(ValueError):
        full_gz_basis(3, 2)
    with pytest.raises(ValueError):
        list(iter_basis(3, 2))


def test_harmonic_dims():
    for n in range(1, 11):
        for k in range(1, n // 2 + 1):
            assert harmonic_dim(n, k) == comb(n, k) - comb(n, k - 1)
    assert harmonic_dim(8, 4) == dim(TwoRowDiagram(8, 4))


def test_harmonic_dim_rejects_the_degrees_its_prime_does_not_certify(monkeypatch):
    """Wilson's full-rank certificate mod p covers only k < p, so at
    p = 2 ``harmonic_dim`` still answers k = 1 and rejects k = 2."""
    monkeypatch.setattr(linalg, "_PRIME", 2)
    assert harmonic_dim(4, 1) == 3
    with pytest.raises(ValueError, match="certifies only k < 2"):
        harmonic_dim(4, 2)


def _sparse(rows):
    """Dense rows as the column -> value maps ``_rank`` takes, zeros left
    out."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def _dense(rows, ncols):
    """Sparse rows expanded to dense lists of ``ncols`` entries."""
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def test_rank_over_both_fields(monkeypatch):
    """Mod 32749 and mod 7; by Wilson's theorem every divergence matrix
    with k < 7 has full rank mod 7 as well."""
    for p, rank in ((_PRIME, 2), (7, 1)):
        monkeypatch.setattr(linalg, "_PRIME", p)
        assert _rank(_sparse([[2, 4, 0], [1, 2, 0], [0, 0, 7]])) == rank
        for n in range(2, 8):
            for k in range(1, n // 2 + 1):
                rows = divergence_matrix(n, k)
                assert _rank(rows) == len(rows)


def test_divergence_matrix_is_the_containment_matrix():
    """Row J holds a 1 at the column of each k-subset containing J and
    nothing else, over both subsets in lexicographic order."""
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            cols = list(combinations(range(1, n + 1), k))
            subs = list(combinations(range(1, n + 1), k - 1))
            expect = [[int(set(sub) <= set(key)) for key in cols] for sub in subs]
            rows = divergence_matrix(n, k)
            assert _dense(rows, len(cols)) == expect
            assert all(set(row.values()) == {1} and list(row) == sorted(row) for row in rows)


def _dense_rank(rows, p):
    """Rank mod p by column-by-column elimination on dense rows."""
    work = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank]
        inv = pow(lead[col], p - 2, p)
        for r in range(rank + 1, len(work)):
            factor = work[r][col] * inv
            work[r] = [(v - factor * lv) % p for v, lv in zip(work[r], lead)]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    """Small sparse integer matrices, as their column count and rows of
    column -> value maps, some of which hold explicit zeros or values
    that vanish mod 7; some rows combine others."""
    ncols = draw(st.integers(1, 6))
    entries = st.integers(-3, 3) | st.sampled_from([0, 7, 14])
    row = st.dictionaries(st.integers(0, ncols - 1), entries, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.append({c: s * a.get(c, 0) + t * b.get(c, 0) for c in a.keys() | b.keys()})
    return ncols, rows


@given(integer_matrices())
def test_sparse_rank_matches_dense_elimination(matrix):
    ncols, rows = matrix
    for p in (7, _PRIME):
        with patch.object(linalg, "_PRIME", p):
            assert _rank(rows) == _dense_rank(_dense(rows, ncols), p)


def test_sparse_rank_on_full_deficient_and_mod_7_deficient_matrices(monkeypatch):
    full = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]
    deficient = full + [[1, 0, 0, 1]]  # rows 1 - 2 + 3
    mod_7 = [[1, 2], [3, 13]]  # determinant 7
    for rows, ranks in ((full, (3, 3)), (deficient, (3, 3)), (mod_7, (1, 2))):
        for p, rank in zip((7, _PRIME), ranks):
            monkeypatch.setattr(linalg, "_PRIME", p)
            assert _rank(_sparse(rows)) == _dense_rank(rows, p) == rank


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


def test_sparse_mat_mul_matches_dense():
    """``verify._mat_mul`` against the reference product, on random
    integer and fraction matrices with about half of the entries zero."""
    rng = random.Random(0)

    def entry():
        if rng.random() < 0.5:
            return 0
        if rng.random() < 0.5:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    def matrix(size):
        return [[entry() for _ in range(size)] for _ in range(size)]

    for size in range(1, 7):
        for _ in range(20):
            a, b = matrix(size), matrix(size)
            assert _verify_mat_mul(a, b) == _mat_mul(a, b)


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


def _shape_vectors(d, m):
    """The cached degree-m vectors of the tableaux of shape d, each with
    its form."""
    return [(v, v.form) for v in full_gz_basis(d.n, m) if len(v.tableau.second_row) == d.k]


def _integral(matrix):
    """``matrix`` times the lcm D of its denominators, and D."""
    scale = lcm(*(c.denominator for row in matrix for c in row))
    return [[c.numerator * (scale // c.denominator) for c in row] for row in matrix], scale


def test_closed_matrices_act_on_both_bases():
    """Each closed matrix sends the shape's vectors of degree k and k + 1 to
    the combinations its rows give; the transposed (5, 2) matrices fail at
    some i, and so does a matrix with one row too few, which a truncating
    ``zip`` would pass."""
    for n in range(2, 7):
        for d in enumerate_diagrams(n):
            for m in range(d.k, min(d.k + 1, n // 2) + 1):
                basis = _shape_vectors(d, m)
                for i in range(1, n):
                    matrix = _integral(orthogonal_form_matrix(i, d))
                    assert _acts_by(*matrix, i, basis), (n, d.k, m, i)
    d = TwoRowDiagram(5, 2)
    basis = _shape_vectors(d, 2)
    transposed = {i: [list(col) for col in zip(*orthogonal_form_matrix(i, d))] for i in range(1, 5)}
    assert not all(_acts_by(*_integral(matrix), i, basis) for i, matrix in transposed.items())
    assert not _acts_by(*_integral(orthogonal_form_matrix(2, d)[:-1]), 2, basis)


def test_matrix_and_psi_checks_read_the_cached_bases(monkeypatch):
    """Once ``full_gz_basis`` is warm for n <= 8, ``check_matrices`` and
    ``check_psi`` walk no chain and build no slice: every vector they read
    is a cached one."""
    for n in range(9):
        for m in range(n // 2 + 1):
            full_gz_basis(n, m)
    built = Counter()

    def counted(name):
        real = getattr(gz, name)

        def call(*args):
            built[name] += 1
            return real(*args)

        return call

    for name in ("_vector", "_slice"):
        monkeypatch.setattr(gz, name, counted(name))
    results = verify.check_matrices(6) + verify.check_psi(8)
    assert all(r.ok for r in results), results
    assert not built


def test_matrix_check_lays_out_each_shape_degree_once(monkeypatch, form_reads):
    """``check_matrices(6)`` reads each shape's vectors of degree k and
    k + 1 as forms once per (shape, degree), not once per transposition:
    each tableau's form once per degree, 67 reads in all, and each form
    feeds the n - 1 ``act`` calls of its level, 276 in all."""
    acts = Counter()
    real = verify.act
    monkeypatch.setattr(verify, "act", lambda swap, f: acts.update([f.n]) or real(swap, f))
    assert all(r.ok for r in verify.check_matrices(6))
    degrees = {
        u: len(range(k, min(k + 1, n // 2) + 1))
        for n in range(2, 7)
        for k in range(n // 2 + 1)
        for u in enumerate_tableaux(TwoRowDiagram(n, k))
    }
    assert form_reads == degrees
    per_level = Counter()
    for u, reads in degrees.items():
        per_level[u.n] += reads
    assert acts == {n: (n - 1) * reads for n, reads in per_level.items()}
    assert (sum(form_reads.values()), sum(acts.values())) == (67, 276)


def test_matrix_relations_multiply_integers_only(monkeypatch):
    """``check_matrices(6)`` checks the relations on each shape's matrices
    scaled to integers: none of its 251 products sees a ``Fraction``."""
    products = []
    real = verify._mat_mul

    def integral(a, b):
        products.append(all(type(x) is int for row in a + b for x in row))
        return real(a, b)

    monkeypatch.setattr(verify, "_mat_mul", integral)
    assert all(r.ok for r in verify.check_matrices(6))
    assert len(products) == 251 and all(products)


def test_good_check_builds_each_good_vector_on_a_chain_of_its_own(monkeypatch):
    """``check_good(12)`` builds each of its 140 vectors, its 49 good
    tableaux at every degree they lift to, by one ``gz_in_H`` call on a
    chain of its own, and reads none from the cached bases."""
    calls = Counter()
    chains = Counter()
    lone, chain = verify.gz_in_H, gz._Chain

    def counted(n, m):
        chains[n, m] += 1
        return chain(n, m)

    monkeypatch.setattr(verify, "gz_in_H", lambda u, m: calls.update([(u, m)]) or lone(u, m))
    monkeypatch.setattr(gz, "_Chain", counted)
    monkeypatch.setattr(verify, "full_gz_basis", None)
    assert all(r.ok for r in verify.check_good(12))
    expected = {
        (good_tableau(n, k), m): 1
        for n in range(13)
        for k in range(n // 2 + 1)
        for m in range(k, n // 2 + 1)
    }
    assert calls == expected and len(expected) == 140
    assert chains == Counter((u.n, m) for u, m in expected)


def test_decompose_check_calls_psi_zero_times(monkeypatch):
    """``check_decompose(7)`` calls ``psi`` 0 times: each split lifts its
    tail from the dense f0 over a ``LiftTable``, and the check compares the
    pieces as dense rows.  No ``inner`` and no form operator runs either,
    where splits built as forms would call ``psi`` for 177 of the 254 tails
    and a check on forms would take 903 ``inner`` products; ``verify``
    does not even import ``inner``."""
    for n in range(1, 9):
        for m in range(n // 2 + 1):
            full_gz_basis(n, m)
    calls = Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for module in ("tworow.forms", "tworow.verify"):
        monkeypatch.setattr(f"{module}.psi", counted("psi", psi))
    monkeypatch.setattr("tworow.forms.inner", counted("inner", inner))
    assert not hasattr(verify, "inner")
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "embedded", "times_var"):
        monkeypatch.setattr(SquareFreeForm, name, counted(name, getattr(SquareFreeForm, name)))
    assert all(r.ok for r in verify.check_decompose(7))
    assert calls == {}


def test_decompose_check_builds_each_lift_table_once_per_call(monkeypatch):
    """``check_decompose(7)`` builds the ``LiftTable`` of each (n, m, k) it
    reads once, 64 in all, and shares it across its ``decompose_step`` and
    ``harmonic_preimage`` calls; a second call builds them all again, so no
    table outlives its call.  The bit-1 tails lift to degree m + 1 at level
    n, which at odd n reaches (n + 1) / 2.  Of the 64, 40 lift k < m and 24
    are the identity lifts (n, j, j) that the checks read at m == k."""
    built = Counter()

    def counted(n, m, k):
        built[n, m, k] += 1
        return _lift_table(n, m, k)

    monkeypatch.setattr("tworow.forms._lift_table", counted)
    lifts = {
        (n, m, k) for n in range(1, 9) for m in range(1, (n + 1) // 2 + 1) for k in range(m)
    }
    identities = {(n, j, j) for n in range(1, 9) for j in range(n // 2 + 1)}
    sizes = lifts | identities
    for runs in (1, 2):
        assert all(r.ok for r in verify.check_decompose(7))
        assert built == {size: runs for size in sizes}
    assert (len(lifts), len(identities), len(sizes)) == (40, 24, 64)


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
