from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tworow.forms import (
    Permutation,
    SquareFreeForm,
    act,
    decompose_step,
    divergence,
    harmonic_preimage,
    inner,
    is_harmonic,
    pseudo_monomial,
    psi,
)
from tworow.markov import induced_transition


def mono(n, *indices):
    key = tuple(sorted(indices))
    return SquareFreeForm(n, len(key), {key: 1})


@st.composite
def permutations_of(draw, n):
    return Permutation(draw(st.permutations(tuple(range(1, n + 1)))))


@st.composite
def form_pairs(draw, max_n=6):
    """Two forms on the same variables and degree, for bilinearity checks."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=0, max_value=n))
    keys = list(combinations(range(1, n + 1), k))

    def one():
        chosen = draw(
            st.lists(st.sampled_from(keys), min_size=0, max_size=min(4, len(keys)), unique=True)
        )
        return SquareFreeForm(
            n, k, {key: Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))) for key in chosen}
        )

    return one(), one()


@st.composite
def forms(draw, max_n=6):
    return draw(form_pairs(max_n))[0]


@st.composite
def harmonic_forms(draw, max_n=8, max_k=2):
    """Rational combinations of products of differences, so harmonic by
    construction."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=max(1, min(max_k, n // 2))))
    total = SquareFreeForm.zero(n, k)
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        idx = draw(st.permutations(tuple(range(1, n + 1))))[: 2 * k]
        pairs = [(idx[2 * t], idx[2 * t + 1]) for t in range(k)]
        c = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 5)))
        total = total + c * pseudo_monomial(n, pairs)
    return total


# construction and arithmetic


def test_zero_coefficients_dropped():
    f = SquareFreeForm(3, 1, {(1,): 1, (2,): 0})
    assert f.coeffs == {(1,): Fraction(1)}
    assert not f.is_zero()
    assert SquareFreeForm(3, 1, {(2,): 0}).is_zero()


def test_construction_rejects_bad_keys():
    with pytest.raises(ValueError):
        SquareFreeForm(3, 2, {(1,): 1})
    with pytest.raises(ValueError):
        SquareFreeForm(3, 2, {(2, 1): 1})
    with pytest.raises(ValueError):
        SquareFreeForm(3, 2, {(1, 1): 1})
    with pytest.raises(ValueError):
        SquareFreeForm(3, 2, {(2, 4): 1})
    with pytest.raises(ValueError):
        SquareFreeForm(3, 4)


@pytest.mark.parametrize("bad", [2.0, True, Fraction(2), "2"])
def test_only_ints_are_indices(bad):
    with pytest.raises(TypeError):
        SquareFreeForm(3, 1, {(bad,): 1})
    with pytest.raises(TypeError):
        Permutation([bad, 1])


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2", Decimal("0.5")])
def test_only_exact_rationals_are_scalars(bad):
    with pytest.raises(TypeError):
        SquareFreeForm(2, 1, {(1,): bad})
    with pytest.raises(TypeError):
        mono(2, 1) * bad
    with pytest.raises(TypeError):
        bad * mono(2, 1)
    flagged = SquareFreeForm(2, 1, {(1,): True, (2,): Fraction(3, 1)})
    assert flagged.coeffs == {(1,): 1, (2,): 3}
    assert all(type(c) is int for c in flagged.coeffs.values())


def test_arithmetic_known_values():
    f = mono(3, 1) - mono(3, 2)
    g = 2 * f - f
    assert g == f
    assert (f - f).is_zero()
    assert (-f).coeffs == {(1,): Fraction(-1), (2,): Fraction(1)}
    assert (Fraction(1, 2) * f).coeffs[(1,)] == Fraction(1, 2)


def test_add_rejects_mismatched_forms():
    with pytest.raises(ValueError):
        mono(3, 1) + mono(4, 1)
    with pytest.raises(ValueError):
        mono(3, 1) + mono(3, 1, 2)


def test_terms_sorted():
    f = SquareFreeForm(4, 2, {(2, 3): 1, (1, 4): 2, (1, 2): 3})
    assert [key for key, _ in f.terms()] == [(1, 2), (1, 4), (2, 3)]


def test_embedded_and_times_var():
    f = mono(2, 1) - mono(2, 2)
    g = f.embedded(4).times_var(3)
    assert g == mono(4, 1, 3) - mono(4, 2, 3)
    with pytest.raises(ValueError):
        f.embedded(1)
    with pytest.raises(ValueError):
        (mono(3, 1)).times_var(1)
    with pytest.raises(ValueError):
        (mono(3, 1)).times_var(4)


# inner product


def test_inner_known_values():
    assert inner(mono(2, 1, 2), mono(2, 1, 2)) == 1
    f = mono(2, 1) - mono(2, 2)
    g = mono(2, 1) + mono(2, 2)
    assert inner(f, g) == 0
    h = mono(3, 1) + mono(3, 2) - 2 * mono(3, 3)
    assert inner(h, h) == 6


def test_inner_rejects_mismatch():
    with pytest.raises(ValueError):
        inner(mono(3, 1), mono(3, 1, 2))


@given(form_pairs())
def test_inner_symmetric(fg):
    f, g = fg
    assert inner(f, g) == inner(g, f)


@given(form_pairs(), st.integers(-6, 6))
def test_inner_linear_in_first_slot(fg, c):
    f, g = fg
    assert inner(c * f, g) == c * inner(f, g)
    assert inner(f + g, g) == inner(f, g) + inner(g, g)


@given(forms())
def test_inner_positive_definite(f):
    norm = inner(f, f)
    assert norm >= 0
    assert (norm == 0) == f.is_zero()


# the symmetric group action


def test_act_known_values():
    swap = Permutation.transposition(3, 1, 2)
    assert act(swap, mono(3, 1, 3)) == mono(3, 2, 3)
    rho = Permutation((2, 3, 1))
    assert act(rho, mono(3, 1, 2)) == mono(3, 2, 3)
    assert act(rho, mono(3, 2, 3)) == mono(3, 1, 3)


def test_act_rejects_size_mismatch():
    with pytest.raises(ValueError):
        act(Permutation((1, 2, 3, 4)), mono(3, 1))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation.transposition(3, 2, 2)
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))(4)


@given(st.data())
def test_act_is_group_action(data):
    f = data.draw(forms(max_n=6))
    sigma = data.draw(permutations_of(f.n))
    tau = data.draw(permutations_of(f.n))
    composed = Permutation(sigma.images[j - 1] for j in tau.images)
    assert act(sigma, act(tau, f)) == act(composed, f)


@given(st.data())
def test_act_is_unitary(data):
    """Index substitution permutes the monomial basis, so it preserves the
    inner product exactly."""
    f, g = data.draw(form_pairs())
    sigma = data.draw(permutations_of(f.n))
    assert inner(act(sigma, f), act(sigma, g)) == inner(f, g)


# divergence and harmonicity


def test_divergence_known_values():
    assert divergence(mono(3, 1)) == SquareFreeForm(3, 0, {(): 1})
    f = mono(3, 1, 2)
    assert divergence(f) == mono(3, 1) + mono(3, 2)
    sym = mono(3, 1, 2) + mono(3, 1, 3) + mono(3, 2, 3)
    assert divergence(sym) == 2 * (mono(3, 1) + mono(3, 2) + mono(3, 3))
    assert not is_harmonic(sym)


def test_divergence_rejects_degree_zero():
    with pytest.raises(ValueError):
        divergence(SquareFreeForm(3, 0, {(): 1}))


@given(form_pairs())
def test_divergence_linear(fg):
    f, g = fg
    if f.k == 0:
        return
    assert divergence(f + g) == divergence(f) + divergence(g)


@given(st.data())
def test_divergence_equivariant(data):
    f = data.draw(forms())
    if f.k == 0:
        return
    sigma = data.draw(permutations_of(f.n))
    assert divergence(act(sigma, f)) == act(sigma, divergence(f))


@given(harmonic_forms())
def test_pseudo_monomial_combinations_are_harmonic(f):
    assert is_harmonic(f)


def test_pseudo_monomial_expansion():
    f = pseudo_monomial(4, [(1, 2), (3, 4)])
    assert f == mono(4, 1, 3) - mono(4, 1, 4) - mono(4, 2, 3) + mono(4, 2, 4)
    assert inner(f, f) == 4
    with pytest.raises(ValueError):
        pseudo_monomial(4, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        pseudo_monomial(3, [(1, 4)])


@pytest.mark.parametrize("pairs", [[(1.9, 2)], [("1", 3)], [(1, 2.0)], [(True, 3)]])
def test_pseudo_monomial_takes_only_integer_indices(pairs):
    with pytest.raises(TypeError):
        pseudo_monomial(3, pairs)


def test_pseudo_monomial_empty_product():
    f = pseudo_monomial(3, [])
    assert f == SquareFreeForm(3, 0, {(): 1})


# averaging up


def test_psi_known_values():
    one3 = SquareFreeForm(3, 0, {(): 1})
    assert psi(one3, 1) == mono(3, 1) + mono(3, 2) + mono(3, 3)
    f = mono(3, 1) - mono(3, 2)
    assert psi(f, 1) == mono(3, 1, 3) - mono(3, 2, 3)
    one2 = SquareFreeForm(2, 0, {(): 1})
    assert psi(one2, 2) == mono(2, 1, 2)


def test_psi_degenerate_arguments():
    f = mono(3, 1)
    assert psi(f, 0) == f
    assert psi(f, -1).is_zero()
    assert psi(f, -1).k == 0
    assert psi(f, -5).k == 0
    with pytest.raises(ValueError):
        psi(f, 3)


def test_psi_binomial_anchor():
    """Averaging the constant up m degrees hits every m-subset once."""
    for n in range(1, 8):
        one = SquareFreeForm(n, 0, {(): 1})
        for m in range(n + 1):
            lifted = psi(one, m)
            assert len(lifted.coeffs) == comb(n, m)
            assert inner(lifted, lifted) == comb(n, m)


@given(st.data())
def test_psi_commutes_with_action(data):
    f = data.draw(forms())
    sigma = data.draw(permutations_of(f.n))
    l = data.draw(st.integers(min_value=0, max_value=f.n - f.k))
    assert psi(act(sigma, f), l) == act(sigma, psi(f, l))


@given(harmonic_forms(max_n=8, max_k=2), st.data())
def test_psi_scaled_isometry_on_harmonics(f, data):
    """Lifting a degree-k harmonic by l multiplies its squared norm by
    the binomial count of l-subsets of the n - 2k free slots."""
    n, k = f.n, f.k
    l = data.draw(st.integers(min_value=0, max_value=n // 2 - k))
    lifted = psi(f, l)
    assert inner(lifted, lifted) == comb(n - 2 * k, l) * inner(f, f)


def test_distinct_harmonic_degrees_orthogonal_after_lift():
    # degree-m lifts of harmonic degrees j != k never overlap
    n, m = 6, 3
    lift1 = psi(pseudo_monomial(n, [(1, 2)]), m - 1)
    lift2 = psi(pseudo_monomial(n, [(1, 3), (2, 4)]), m - 2)
    lift3 = psi(pseudo_monomial(n, [(1, 4), (2, 5), (3, 6)]), 0)
    lift0 = psi(SquareFreeForm(n, 0, {(): 1}), m)
    for a, b in combinations([lift0, lift1, lift2, lift3], 2):
        assert inner(a, b) == 0


# the one-variable decomposition step


def test_decompose_lift_of_constant():
    one2 = SquareFreeForm(2, 0, {(): 1})
    f = psi(one2, 1)
    stay, up = decompose_step(f, one2, 0)
    third = Fraction(1, 3)
    assert stay == 2 * third * (mono(3, 1) + mono(3, 2) + mono(3, 3))
    assert up == third * (mono(3, 1) + mono(3, 2) - 2 * mono(3, 3))
    assert inner(stay, stay) == Fraction(4, 3)
    assert inner(up, up) == Fraction(2, 3)
    assert inner(stay, up) == 0


def test_decompose_saturated_harmonic():
    f = mono(2, 1) - mono(2, 2)
    stay, up = decompose_step(f, f, 0)
    assert stay == f.embedded(3)
    assert up.is_zero()


def test_decompose_with_new_variable():
    one1 = SquareFreeForm(1, 0, {(): 1})
    stay, up = decompose_step(one1, one1, 1)
    half = Fraction(1, 2)
    assert stay == half * (mono(2, 1) + mono(2, 2))
    assert up == half * (mono(2, 2) - mono(2, 1))


def test_decompose_validation():
    one2 = SquareFreeForm(2, 0, {(): 1})
    f = psi(one2, 1)
    with pytest.raises(ValueError):
        decompose_step(f, one2, 2)
    with pytest.raises(ValueError):
        decompose_step(f, one2, 1)  # target degree 2 exceeds half of 3
    with pytest.raises(ValueError):
        decompose_step(f, mono(2, 1), 0)  # x1 is not harmonic
    with pytest.raises(ValueError):
        # variable counts differ between the form and its claimed seed
        decompose_step(mono(3, 1, 2) + mono(3, 1, 3) + mono(3, 2, 3), one2, 0)


@given(st.data())
@settings(max_examples=60)
def test_decompose_invariants(data):
    """One step always splits the embedded form into orthogonal pieces whose
    norms follow the branching ratios."""
    f0 = data.draw(harmonic_forms(max_n=7, max_k=2))
    n, k = f0.n, f0.k
    m = data.draw(st.integers(min_value=k, max_value=n // 2))
    bit = data.draw(st.integers(min_value=0, max_value=1))
    if 2 * (m + bit) > n + 1:
        bit = 0
    if 2 * (m + bit) > n + 1:
        return
    f = psi(f0, m - k)
    stay, up = decompose_step(f, f0, bit)

    total = f.embedded(n + 1)
    if bit == 1:
        total = total.times_var(n + 1)
    assert stay + up == total
    assert inner(stay, up) == 0

    weight = inner(total, total)
    p_stay, p_up = induced_transition(n, k, m, bit)
    assert inner(stay, stay) == p_stay * weight
    assert inner(up, up) == p_up * weight

    # the pieces live where they claim to live
    if not stay.is_zero():
        back = harmonic_preimage(stay, k)
        assert psi(back, m + bit - k) == stay
    if not up.is_zero():
        back_up = harmonic_preimage(up, k + 1)
        assert is_harmonic(back_up)
        assert psi(back_up, m + bit - k - 1) == up


# recovering the harmonic seed


@given(harmonic_forms(max_n=8, max_k=2), st.data())
def test_harmonic_preimage_roundtrip(f0, data):
    n, k = f0.n, f0.k
    m = data.draw(st.integers(min_value=k, max_value=n // 2))
    lifted = psi(f0, m - k)
    assert harmonic_preimage(lifted, k) == f0


def test_harmonic_preimage_rejects_outsiders():
    f = mono(3, 1)
    with pytest.raises(ValueError):
        harmonic_preimage(f, 0)
    with pytest.raises(ValueError):
        harmonic_preimage(f, 2)
    with pytest.raises(ValueError):
        harmonic_preimage(mono(4, 1, 2), 2)  # x1*x2 is not harmonic


def test_harmonic_preimage_of_zero():
    z = SquareFreeForm(5, 2, {})
    assert harmonic_preimage(z, 1).is_zero()


# invariance under a common shift of all variables


def shift_expansion(f):
    """Coefficients of f(x_1 + t, .., x_n + t) in the monomial-times-power
    basis, as a map (subset, power of t) -> coefficient."""
    out = {}
    for key, val in f.coeffs.items():
        for r in range(len(key) + 1):
            for sub in combinations(key, r):
                spot = (sub, len(key) - r)
                out[spot] = out.get(spot, Fraction(0)) + val
    return {spot: c for spot, c in out.items() if c}


@given(harmonic_forms(max_n=6, max_k=2))
@settings(max_examples=40)
def test_harmonics_are_shift_invariant(f):
    """Substituting x_i + t for every x_i leaves a harmonic form unchanged:
    every positive power of t cancels."""
    expanded = shift_expansion(f)
    for (sub, power), coeff in expanded.items():
        if power > 0:
            assert coeff == 0
    kept = {sub: c for (sub, power), c in expanded.items() if power == 0}
    assert kept == f.coeffs


def test_shift_expansion_detects_non_invariance():
    f = mono(2, 1)
    expanded = shift_expansion(f)
    assert expanded[((), 1)] == 1
