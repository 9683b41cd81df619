from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from tworow.forms import (
    Permutation,
    SquareFreeForm,
    act,
    decompose_step,
    divergence,
    harmonic_preimage,
    inner,
    pseudo_monomial,
    psi,
)
from tworow.forms import _adjoint, _dense, _expand_pairs, _lift, _scaled_preimage, _table
from tworow.gz import full_gz_basis, gz_harmonic
from tworow.markov import induced_transition
from tworow.ygraph import enumerate_all_tableaux


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
    with pytest.raises(ValueError):
        mono(3, 1) - mono(4, 1)


@given(form_pairs(), st.sampled_from([0, Fraction(0), 1, -1, 3, Fraction(-2, 3)]))
def test_difference_and_multiple_keep_no_zero(pair, scalar):
    """A difference is the sum with the negated form, and a multiple is
    the coefficientwise product; neither stores a zero coefficient."""
    f, g = pair
    diff = f - g
    assert diff.coeffs == {
        key: f.coeffs.get(key, 0) - g.coeffs.get(key, 0)
        for key in f.coeffs.keys() | g.coeffs.keys()
        if f.coeffs.get(key, 0) != g.coeffs.get(key, 0)
    }
    assert diff == f + (-g)
    scaled = scalar * f
    assert scaled.coeffs == {key: scalar * c for key, c in f.coeffs.items() if scalar}
    assert all(scaled.coeffs.values()) and all(diff.coeffs.values())


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
    assert not divergence(sym).is_zero()


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
    assert divergence(f).is_zero()


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


def test_pseudo_monomial_is_its_unchecked_expansion():
    """``pseudo_monomial`` checks its pairs and then expands them with
    ``_expand_pairs``, the core that ``verify`` calls on pairs it knows
    to be distinct."""
    for pairs in ([], [(1, 2)], [(3, 1), (2, 5)], [(6, 1), (2, 4), (3, 5)]):
        assert pseudo_monomial(6, pairs).coeffs == _expand_pairs(pairs)


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
    d = 3  # n - 2k + 1 at n = 2, k = 0
    assert stay + up == d * f.embedded(3)
    assert stay == 2 * (mono(3, 1) + mono(3, 2) + mono(3, 3))
    assert up == mono(3, 1) + mono(3, 2) - 2 * mono(3, 3)
    assert inner(stay, stay) == 12
    assert inner(up, up) == 6
    assert inner(stay, up) == 0


def test_decompose_saturated_harmonic():
    f = mono(2, 1) - mono(2, 2)
    stay, up = decompose_step(f, f, 0)
    d = 1  # n - 2k + 1 at n = 2, k = 1
    assert stay + up == d * f.embedded(3)
    assert stay == d * f.embedded(3)
    assert up.is_zero()


def test_decompose_with_new_variable():
    one1 = SquareFreeForm(1, 0, {(): 1})
    stay, up = decompose_step(one1, one1, 1)
    d = 2  # n - 2k + 1 at n = 1, k = 0
    assert stay + up == d * mono(2, 2)
    assert stay == mono(2, 1) + mono(2, 2)
    assert up == mono(2, 2) - mono(2, 1)


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

    # both pieces come scaled by d
    d = n - 2 * k + 1
    total = f.embedded(n + 1)
    if bit == 1:
        total = total.times_var(n + 1)
    assert stay + up == d * total
    assert inner(stay, up) == 0

    weight = inner(total, total)
    p_stay, p_up = induced_transition(n, k, m, bit)
    assert inner(stay, stay) == d * d * p_stay * weight
    assert inner(up, up) == d * d * p_up * weight

    # the pieces live where they claim to live
    if not stay.is_zero():
        back = harmonic_preimage(stay, k)
        assert psi(back, m + bit - k) == stay
    if not up.is_zero():
        back_up = harmonic_preimage(up, k + 1)
        assert divergence(back_up).is_zero()
        assert psi(back_up, m + bit - k - 1) == up


def test_decompose_of_integral_forms_is_integral():
    for n in range(1, 8):
        for u in enumerate_all_tableaux(n):
            f0 = gz_harmonic(u).form
            k = f0.k
            for m in range(k, n // 2 + 1):
                f = psi(f0, m - k)
                for bit in (0, 1):
                    if 2 * (m + bit) > n + 1:
                        continue
                    for piece in decompose_step(f, f0, bit):
                        assert all(type(val) is int for val in piece.coeffs.values())


def reference_split(f, f0, bit):
    """The scaled split of ``decompose_step`` built from the public form
    algebra: base the embedded f (times x_{n+1} at bit 1), tail its
    one-variable correction, and the pieces a * (base + tail) and
    b * base - a * tail."""
    n, m, k = f.n, f.k, f0.k
    if bit == 0:
        base = f.embedded(n + 1)
        if m > k:
            tail = psi(f0, m - k - 1).embedded(n + 1).times_var(n + 1)
        else:
            tail = SquareFreeForm.zero(n + 1, m)
        a, b = n - m - k + 1, m - k
    else:
        base = f.embedded(n + 1).times_var(n + 1)
        tail = psi(f0, m - k + 1).embedded(n + 1)
        a, b = m - k + 1, n - m - k
    return a * (base + tail), b * base - a * tail


def test_decompose_matches_the_form_algebra_split():
    """Every full-basis vector at n <= 7, split at both bits, equals the
    split built from ``psi``, ``embedded``, ``times_var``, ``+``, ``-`` and
    ``*``; so does the split of the same vector halved, whose pieces have
    ``Fraction`` coefficients, over its halved harmonic."""
    fractional = 0
    for n in range(1, 8):
        for m in range(n // 2 + 1):
            for vec in full_gz_basis(n, m):
                u = vec.tableau
                f0 = gz_harmonic(u).form
                for scale in (1, Fraction(1, 2)):
                    f, g0 = scale * vec.form, scale * f0
                    for bit in (0, 1):
                        if 2 * (m + bit) > n + 1:
                            continue
                        pieces = decompose_step(f, g0, bit)
                        assert pieces == reference_split(f, g0, bit), (u, m, bit, scale)
                        values = [val for piece in pieces for val in piece.coeffs.values()]
                        fractional += any(type(val) is Fraction for val in values)
    assert fractional == 254


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


def test_scaled_preimage_reports_exactly_where_harmonic_preimage_raises():
    """On every monomial, basis vector and lifted basis vector at n <= 5
    and every k from -1 to m + 1, ``_scaled_preimage`` returns a reason
    exactly where ``harmonic_preimage`` raises ``ValueError``, the error's
    message, the degree and C(n - 2k, m - k) == 0 checks included, and
    elsewhere C(n - 2k, m - k) times the preimage on the k-subsets."""
    reasons = set()
    for n in range(6):
        for m in range(n + 1):
            fs = [mono(n, *key) for key in combinations(range(1, n + 1), m)]
            if 2 * m <= n:
                fs += [vec.form for vec in full_gz_basis(n, m)]
                fs += [psi(f, 1) for f in fs[-comb(n, m):] if 2 * (m + 1) <= n]
            for f in fs:
                for k in range(-1, f.k + 2):
                    got = _scaled_preimage(f, k, {})
                    try:
                        f0 = harmonic_preimage(f, k)
                    except ValueError as exc:
                        assert got == str(exc)
                        reasons.add(got)
                        continue
                    subsets = list(combinations(range(1, n + 1), k))
                    scale = comb(n - 2 * k, f.k - k)
                    assert got == [scale * c for c in _dense(f0, subsets)]
    kinds = ("must lie in", "exceeds half of", "harmonic component", "not a psi-image")
    assert all(any(kind in reason for reason in reasons) for kind in kinds)


@given(forms(), st.data())
def test_one_pass_lift_check_agrees_with_psi(g, data):
    """The two gathers of the shared table of (n, m, k) are psi and its
    adjoint: ``_lift`` of g's dense coefficients is psi(g, m - k),
    ``_adjoint`` sums a form over the m-subsets containing each k-subset,
    and the lift check ``_lift(...) == scale * f`` holds exactly when
    psi(g, m - k) == scale * f, on the lift of g, on that lift with one
    coefficient bumped and on arbitrary forms of the target degree."""
    n, k = g.n, g.k
    assume(k < n)
    m = data.draw(st.integers(min_value=k + 1, max_value=n))
    scale = data.draw(st.sampled_from([1, 2, Fraction(1, 3), -1]))
    table = _table({}, n, m, k)
    lifted = psi(g, m - k)
    keys = list(combinations(range(1, n + 1), m))
    assert table.keys == keys
    assert table.subsets == list(combinations(range(1, n + 1), k))
    bump = SquareFreeForm(n, m, {data.draw(st.sampled_from(keys)): 1})
    other = SquareFreeForm(
        n, m, {key: data.draw(st.integers(-2, 2)) for key in keys[: data.draw(st.integers(0, 3))]}
    )
    lift = _lift(table, _dense(g, table.subsets))
    assert lift == _dense(lifted, keys)
    for f in (lifted, Fraction(1, 1) * lifted * scale, lifted + bump, other):
        sums = {}
        for key, val in f.coeffs.items():
            for sub in combinations(key, k):
                sums[sub] = sums.get(sub, 0) + val
        adjoint = SquareFreeForm(n, k, sums)
        assert _adjoint(table, _dense(f, keys)) == _dense(adjoint, table.subsets)
        for s in (1, scale):
            assert (lift == [s * c for c in _dense(f, keys)]) == (lifted == s * f)


def test_lift_checks_reject_a_bumped_lift():
    """With one coefficient of a lift changed, ``decompose_step`` and
    ``harmonic_preimage`` raise the same errors as when both sides of
    their lift checks were built as forms, and the same again with one
    dict of tables shared across calls, before and after the true lift
    has been checked through it.  The bit-0 tail psi(f0, 0) reads the
    identity table (5, 1, 1)."""
    f0 = pseudo_monomial(5, [(1, 2)])
    lifted = psi(f0, 1)
    f = lifted + mono(5, 3, 4)
    outside = "^form is not a psi-image of a degree-k harmonic form$"
    tables = {}
    for shared in ((), (tables,), (tables,)):
        with pytest.raises(ValueError, match="^f is not the psi-image of f0$"):
            decompose_step(f, f0, 0, *shared)
        with pytest.raises(ValueError, match=outside):
            harmonic_preimage(f, 1, *shared)
        assert harmonic_preimage(lifted, 1, *shared) == f0
        assert decompose_step(lifted, f0, 0, *shared) == decompose_step(lifted, f0, 0)
    assert sorted(tables) == [(5, 1, 0), (5, 1, 1), (5, 2, 1)]


@pytest.mark.parametrize("n", range(7))
def test_identity_lift_table_returns_its_input(n):
    """The ``LiftTable`` of (n, m, m) is the identity lift: its keys and
    subsets are the m-subsets in lexicographic order, and ``_lift`` and
    ``_adjoint`` return their input with the same values and types, for
    mixed ``int`` and ``Fraction`` lists, integral ``Fraction``s included."""
    for m in range(n + 1):
        table = _table({}, n, m, m)
        subsets = list(combinations(range(1, n + 1), m))
        assert table.keys == table.subsets == subsets
        size = len(subsets)
        for dense in (
            [i - 2 for i in range(size)],
            [Fraction(i, 1 + i % 2) if i % 3 else -i for i in range(size)],
        ):
            for out in (_lift(table, dense), _adjoint(table, dense)):
                assert out == dense
                assert list(map(type, out)) == list(map(type, dense))


def typed(coeffs):
    return {key: (type(val), val) for key, val in coeffs.items()}


def test_identity_lift_keeps_the_coefficient_types_of_a_mixed_seed():
    """At m == k the split and the preimage keep the type of each
    coefficient that passes only through the identity lift: the ``int``
    -1 of the seed stays an ``int``, scaled, where a running sum over the
    halves before it would give ``Fraction(-1, 1)``."""
    half = Fraction(1, 2)
    seed = SquareFreeForm(4, 1, {(1,): 3 * half, (2,): -1, (3,): -half})
    assert typed(harmonic_preimage(seed, 1).coeffs) == typed(seed.coeffs)
    stay, up = decompose_step(seed, seed, 0)
    assert typed(stay.coeffs) == typed({(1,): 9 * half, (2,): -3, (3,): -3 * half})
    assert up.is_zero()
    stay, up = decompose_step(seed, seed, 1)
    one = Fraction(1)
    assert typed(stay.coeffs) == typed({
        (1, 2): half, (1, 3): one, (1, 4): 3 * half, (1, 5): 3 * half, (2, 3): -3 * half,
        (2, 4): -one, (2, 5): -1, (3, 4): -half, (3, 5): -half,
    })
    assert typed(up.coeffs) == typed({
        (1, 2): -half, (1, 3): -one, (1, 4): -3 * half, (1, 5): 3 * one, (2, 3): 3 * half,
        (2, 4): one, (2, 5): -2, (3, 4): half, (3, 5): -one,
    })


def test_integral_forms_give_integral_coefficients():
    """With ``int`` coefficients and scalars in, ``act``, ``psi``,
    ``pseudo_monomial``, ``divergence``, ``*``, ``+``, ``-``,
    ``decompose_step`` and ``harmonic_preimage`` return ``int``
    coefficients only."""

    def integral(form):
        return all(type(val) is int for val in form.coeffs.values())

    for n in range(1, 7):
        reverse = Permutation(range(n, 0, -1))
        pairs = [(i, i + 1) for i in range(1, n, 2)]
        assert integral(pseudo_monomial(n, pairs))
        for m in range(n // 2 + 1):
            for vec in full_gz_basis(n, m):
                f = vec.form
                f0 = gz_harmonic(vec.tableau).form
                k = f0.k
                skew = f + act(reverse, f)
                outputs = [act(reverse, f), f * 3, -f, skew, f - 2 * skew, psi(f, 1)]
                outputs += [divergence(skew)] if m else []
                outputs += [harmonic_preimage(f, k), harmonic_preimage(f * 6, k)]
                for bit in (0, 1):
                    if 2 * (m + bit) <= n + 1:
                        outputs += decompose_step(f, f0, bit)
                assert all(map(integral, outputs)), (n, m, vec.tableau)


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
