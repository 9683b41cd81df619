import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from tworow import gz, markov
from tworow.forms import SquareFreeForm, psi
from tworow.gz import closed_norm_sq_in_H, full_gz_basis, gz_harmonic
from tworow.markov import (
    BitPrefix,
    KernelEntry,
    SpectralTable,
    TransitionKernel,
    _threshold_table,
    _up_threshold,
    central_alpha_transition,
    central_kernel,
    central_shape_weight,
    central_table,
    good_tableau_ratio,
    induced_transition,
    is_markov,
    kernel_from_prefix,
    kernel_matches,
    path_product_table,
    sample_path,
    sample_paths,
    sample_tableau,
    spectral_measure,
    transition_counts,
    within_three_sigma,
)
from tworow.ygraph import (
    TwoRowDiagram,
    TwoRowTableau,
    dim,
    enumerate_all_tableaux,
    enumerate_diagrams,
    enumerate_tableaux,
)
from tworow.verify import (
    _central_transition_oracle,
    _expanded_harmonic,
    _projection_table,
    _valid_prefixes,
)


@st.composite
def prefixes(draw, min_len=1, max_len=7):
    """Direction sequences built left to right, respecting the ballot
    condition at every step."""
    length = draw(st.integers(min_value=min_len, max_value=max_len))
    bits = []
    ones = 0
    for t in range(1, length + 1):
        if 2 * (ones + 1) <= t:
            b = draw(st.integers(min_value=0, max_value=1))
        else:
            b = 0
        bits.append(b)
        ones += b
    return BitPrefix(tuple(bits))


# direction sequences


def test_prefix_validation():
    BitPrefix((0, 1, 0, 1))
    with pytest.raises(ValueError):
        BitPrefix((1,))
    with pytest.raises(ValueError):
        BitPrefix((0, 1, 1))
    with pytest.raises(ValueError):
        BitPrefix((0, 2))
    with pytest.raises(ValueError):
        BitPrefix.from_string("")
    with pytest.raises(ValueError):
        BitPrefix.from_string("0x1")


@pytest.mark.parametrize("bits", [(0, 1.0, 0, True), (0, True), (0, 1.0), (0.0,), ("0",)])
def test_prefix_takes_only_integer_bits(bits):
    with pytest.raises(TypeError):
        BitPrefix(bits)


def test_prefix_roundtrip_and_counts():
    p = BitPrefix.from_string("00101")
    assert str(p) == "00101"
    assert len(p) == 5
    assert [p.ones(t) for t in range(6)] == [0, 0, 0, 1, 1, 2]
    with pytest.raises(ValueError):
        p.ones(6)


def test_alternating_prefix():
    assert BitPrefix.alternating(6).bits == (0, 1, 0, 1, 0, 1)
    assert BitPrefix.alternating(1).bits == (0,)


@given(prefixes())
def test_generated_prefixes_respect_ballot(p):
    for t in range(1, len(p) + 1):
        assert 2 * p.ones(t) <= t


# one-step transition probabilities


def test_induced_transition_known_values():
    assert induced_transition(2, 0, 1, 0) == (Fraction(2, 3), Fraction(1, 3))
    assert induced_transition(2, 1, 1, 0) == (Fraction(1), Fraction(0))
    assert induced_transition(1, 0, 0, 1) == (Fraction(1, 2), Fraction(1, 2))
    assert induced_transition(2, 0, 0, 1) == (Fraction(1, 3), Fraction(2, 3))
    assert induced_transition(5, 1, 2, 0) == (Fraction(3, 4), Fraction(1, 4))


def test_induced_transition_validation():
    with pytest.raises(ValueError):
        induced_transition(2, 0, 1, 2)
    with pytest.raises(ValueError):
        induced_transition(2, 2, 2, 0)
    with pytest.raises(ValueError):
        induced_transition(4, 1, 0, 0)  # degree below second-row length
    with pytest.raises(ValueError):
        induced_transition(4, 0, 2, 1)  # next degree 3 exceeds half of 5
    with pytest.raises(ValueError):
        induced_transition(4, 0, 3, 0)  # next degree 3 exceeds half of 5


@given(st.data())
def test_induced_transition_is_a_distribution(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    k = data.draw(st.integers(min_value=0, max_value=n // 2))
    bit = data.draw(st.integers(min_value=0, max_value=1))
    lo, hi = k, min(n - k, (n + 1) // 2 - bit)
    if lo > hi:
        return
    m = data.draw(st.integers(min_value=lo, max_value=hi))
    stay, up = induced_transition(n, k, m, bit)
    assert stay + up == 1
    assert stay >= 0 and up >= 0


def test_boundary_rows_never_move_up():
    # a second row already at the degree cannot grow on a 0 step
    assert induced_transition(2, 1, 1, 0)[1] == 0
    assert induced_transition(4, 2, 2, 0)[1] == 0
    assert induced_transition(6, 3, 3, 0)[1] == 0


# kernels from direction sequences


def test_kernel_all_zeros():
    kern = kernel_from_prefix(BitPrefix.from_string("0000"))
    for n, k, entry in kern.rows():
        assert k == 0
        assert entry.bit == 0
        assert entry.p_stay == 1
        assert entry.p_up == 0


def test_kernel_001():
    kern = kernel_from_prefix(BitPrefix.from_string("001"))
    assert kern.transition(2, 0) == KernelEntry(1, Fraction(1, 3), Fraction(2, 3))


def test_kernel_0101_rows():
    kern = kernel_from_prefix(BitPrefix.from_string("0101"))
    expect = {
        (1, 0): KernelEntry(1, Fraction(1, 2), Fraction(1, 2)),
        (2, 0): KernelEntry(0, Fraction(2, 3), Fraction(1, 3)),
        (2, 1): KernelEntry(0, Fraction(1), Fraction(0)),
        (3, 0): KernelEntry(1, Fraction(1, 2), Fraction(1, 2)),
        (3, 1): KernelEntry(1, Fraction(1, 2), Fraction(1, 2)),
    }
    assert {(n, k): e for n, k, e in kern.rows()} == expect


def test_kernel_lookup_errors():
    kern = kernel_from_prefix(BitPrefix.from_string("0101"))
    with pytest.raises(ValueError):
        kern.transition(4, 0)
    with pytest.raises(ValueError):
        kern.transition(2, 2)


@given(prefixes(min_len=2, max_len=9))
def test_kernel_boundary_states(p):
    """Whenever the degree is pinned, the corresponding move has weight 0."""
    kern = kernel_from_prefix(p)
    for n, k, entry in kern.rows():
        m = p.ones(n)
        if k == m and entry.bit == 0:
            assert entry.p_up == 0
        if k == n - m and entry.bit == 1:
            assert entry.p_up == 0


def test_kernel_entry_validation():
    with pytest.raises(ValueError):
        KernelEntry(0, Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        KernelEntry(2, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        KernelEntry(None, Fraction(3, 2), Fraction(-1, 2))


@pytest.mark.parametrize("bad", [1.0, 0.0, True, False, Fraction(1), "1"])
def test_kernel_entry_bit_is_an_int_or_none(bad):
    """A float, ``bool`` or ``Fraction`` bit would reach the kernel CSV as
    ``1.0`` or ``True``; the bit is None or an ``int``, as in ``forms._index``."""
    with pytest.raises(TypeError):
        KernelEntry(bad, Fraction(1, 2), Fraction(1, 2))
    assert KernelEntry(None, Fraction(1, 2), Fraction(1, 2)).bit is None


@pytest.mark.parametrize("bad", [0.5, "1/2", Decimal("0.5")])
def test_kernel_entry_takes_only_exact_rationals(bad):
    with pytest.raises(TypeError):
        KernelEntry(None, bad, Fraction(1, 2))
    with pytest.raises(TypeError):
        KernelEntry(None, Fraction(1, 2), bad)
    assert KernelEntry(1, 1, 0) == KernelEntry(1, Fraction(1), Fraction(0))


def test_transition_kernel_validation():
    good = KernelEntry(None, Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        TransitionKernel(0, {})
    with pytest.raises(ValueError):
        TransitionKernel(3, {(3, 0): good})
    with pytest.raises(ValueError):
        TransitionKernel(3, {(2, 2): good})


# spectral tables


def test_table_validation():
    with pytest.raises(ValueError):
        SpectralTable(2, {TwoRowTableau(2, ()): Fraction(1, 2)})
    with pytest.raises(ValueError):
        SpectralTable(2, {TwoRowTableau(3, ()): Fraction(1)})
    with pytest.raises(ValueError):
        SpectralTable(
            2,
            {
                TwoRowTableau(2, ()): Fraction(3, 2),
                TwoRowTableau(2, (2,)): Fraction(-1, 2),
            },
        )


@pytest.mark.parametrize("bad", [1.0, "1", Decimal(1)])
def test_table_takes_only_exact_rationals(bad):
    u = TwoRowTableau(1, ())
    with pytest.raises(TypeError):
        SpectralTable(1, {u: bad})
    assert SpectralTable(1, {u: True}).prob(u) == SpectralTable(1, {u: 1}).prob(u) == 1


def test_trusted_table_checks_its_mass():
    half = Fraction(1, 2)
    table = SpectralTable._trusted(2, {TwoRowTableau(2, ()): half, TwoRowTableau(2, (2,)): half})
    assert table == SpectralTable(2, table.probs)
    with pytest.raises(ValueError, match=r"probabilities sum to 1/2, not 1"):
        SpectralTable._trusted(2, {TwoRowTableau(2, ()): half})
    with pytest.raises(ValueError, match=r"probabilities sum to 7/6, not 1"):
        SpectralTable._trusted(
            2, {TwoRowTableau(2, ()): half, TwoRowTableau(2, (2,)): Fraction(2, 3)}
        )
    with pytest.raises(ValueError, match=r"probabilities sum to 0, not 1"):
        SpectralTable._trusted(2, {})


def test_table_drops_zero_entries():
    t = SpectralTable(
        2, {TwoRowTableau(2, ()): Fraction(1), TwoRowTableau(2, (2,)): Fraction(0)}
    )
    assert t.support() == [TwoRowTableau(2, ())]
    assert t.prob(TwoRowTableau(2, (2,))) == 0


def test_measure_01():
    table = spectral_measure(BitPrefix.from_string("01"))
    assert table.prob(TwoRowTableau(2, ())) == Fraction(1, 2)
    assert table.prob(TwoRowTableau(2, (2,))) == Fraction(1, 2)


def test_measure_all_zeros_is_point_mass():
    table = spectral_measure(BitPrefix.from_string("0000"))
    assert table.items() == [(TwoRowTableau(4, ()), Fraction(1))]


def test_measure_0101_full_table():
    table = spectral_measure(BitPrefix.from_string("0101"))
    expect = {
        (): Fraction(1, 6),
        (2,): Fraction(1, 4),
        (3,): Fraction(1, 12),
        (4,): Fraction(1, 6),
        (2, 4): Fraction(1, 4),
        (3, 4): Fraction(1, 12),
    }
    assert {u.second_row: p for u, p in table.items()} == expect


def test_measure_level_argument():
    p = BitPrefix.from_string("0101")
    assert spectral_measure(p, 2) == spectral_measure(BitPrefix.from_string("01"))
    with pytest.raises(ValueError):
        spectral_measure(p, 5)
    with pytest.raises(ValueError):
        spectral_measure(p, 0)


@given(prefixes(max_len=7))
@settings(max_examples=60)
def test_measure_equals_path_products(p):
    """The projection route and the kernel route agree table for table."""
    for level in range(1, len(p) + 1):
        assert spectral_measure(p, level) == path_product_table(kernel_from_prefix(p, level))


def _all_prefixes(max_len):
    return [p for length in range(1, max_len + 1) for p in _valid_prefixes(length)]


def _basis_projection(prefix):
    """The table read off the full basis: squared coefficient of the
    sequence's monomial over each vector's squared norm."""
    level = len(prefix)
    key = tuple(t for t in range(1, level + 1) if prefix.bits[t - 1])
    probs = {}
    for vec in full_gz_basis(level, len(key)):
        c = vec.form.coeffs.get(key)
        if c:
            probs[vec.tableau] = Fraction(c * c, vec.norm_sq)
    return SpectralTable(level, probs)


def _enumerated_path_products(prefix):
    """Every level-n tableau's path product, 0 once a row is missing."""
    level = len(prefix)
    rows = kernel_from_prefix(prefix).entries
    probs = {}
    for u in enumerate_all_tableaux(level):
        second = set(u.second_row)
        p = Fraction(1)
        k = 0
        for t in range(1, level):
            entry = rows.get((t, k))
            if entry is None:
                p = Fraction(0)
                break
            if t + 1 in second:
                p *= entry.p_up
                k += 1
            else:
                p *= entry.p_stay
            if not p:
                break
        if p:
            probs[u] = p
    return SpectralTable(level, probs)


def test_measure_equals_basis_projection():
    for prefix in _all_prefixes(9):
        assert spectral_measure(prefix) == _basis_projection(prefix), str(prefix)


def _rook_term(ps, sub):
    """The term (-1)^|H| * R1 * R2 of the k-subset S = sub, k = len(ps), in
    the closed sum of the ``gz`` module docstring, walking the entries of
    ps upwards: the coefficient of x_S in the harmonic vector with second
    row ps.  The reference for ``gz_coefficient`` and the rook columns."""
    k = len(ps)
    below = 0  # entries of S below the current p
    term = 1
    for j, p in enumerate(ps):  # j smaller p's
        while below < k and sub[below] < p:
            below += 1
        if below < k and sub[below] == p:
            # p is in H.  Of the p - 1 entries below it, the smaller p's,
            # the entries of S - P and one free low per smaller p in H are
            # taken; the last two number ``below`` together, as the smaller
            # p's in H are the entries of both S and P below p.
            factor = p - 1 - j - below
            below += 1
            term = -term
        else:
            # Each smaller p uses up one entry of S below p: itself when in
            # H, else its matched entry of S - P.
            factor = below - j
        if factor <= 0:
            return 0
        term *= factor
    return term


def gz_coefficient(u, key):
    """The coefficient of x_key in psi(h_u, m - k), m = len(key), as one
    closed rook-count sum per tableau: the reference for the prefix scan
    of ``spectral_measure``."""
    ps = u.second_row
    return sum(_rook_term(ps, sub) for sub in combinations(key, len(ps)))


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


def _rook_sum_table(prefix):
    """The spectral table with one rook sum per tableau: c_u^2 over the
    closed squared norm of u's vector."""
    level = len(prefix)
    key = tuple(t for t in range(1, level + 1) if prefix.bits[t - 1])
    m = len(key)
    probs = {}
    for k in range(m + 1):
        for u in enumerate_tableaux(TwoRowDiagram(level, k)):
            c = gz_coefficient(u, key)
            if c:
                probs[u] = Fraction(c * c, closed_norm_sq_in_H(u, m))
    return SpectralTable(level, probs)


def _seeded_prefix(length, seed):
    """A direction sequence drawn bit by bit, a one wherever the ballot
    condition allows it and a fair coin says so."""
    rng = random.Random(seed)
    bits = []
    for t in range(1, length + 1):
        bits.append(rng.randrange(2) if 2 * (sum(bits) + 1) <= t else 0)
    return BitPrefix(tuple(bits))


def test_measure_equals_rook_sums():
    """The prefix scan against one rook sum per tableau: every valid
    sequence up to level 10, and seeded ones at levels 11 to 16."""
    deep = [_seeded_prefix(length, seed) for length in range(11, 17) for seed in (0, 1)]
    for prefix in _all_prefixes(10) + deep:
        assert spectral_measure(prefix) == _rook_sum_table(prefix), str(prefix)


def _seeded_tableau(n, seed):
    """The tableau of ``_seeded_prefix``: its ones are the second row."""
    bits = _seeded_prefix(n, seed).bits
    return TwoRowTableau(n, tuple(t for t, bit in enumerate(bits, start=1) if bit))


def test_harmonic_columns_equal_rook_sums():
    """The harmonic from the rook columns of every tableau of its shape
    and from its own columns, against one rook term per k-subset, in
    lexicographic order: every tableau up to level 10, and two seeded ones
    at each level 11 to 16."""
    deep = [_seeded_tableau(n, seed) for n in range(11, 17) for seed in (0, 1)]
    shapes = {}
    for u in [u for n in range(11) for u in enumerate_all_tableaux(n)] + deep:
        n, ps = u.n, u.second_row
        if (n, len(ps)) not in shapes:
            shape = enumerate_tableaux(TwoRowDiagram(n, len(ps)))
            shapes[n, len(ps)] = gz._rook_columns(n, len(ps), shape)
        terms = ((sub, _rook_term(ps, sub)) for sub in combinations(range(1, n + 1), len(ps)))
        expect = [(sub, term) for sub, term in terms if term]
        assert list(gz_harmonic(u, shapes[n, len(ps)]).form.coeffs.items()) == expect, u
        assert list(gz_harmonic(u).form.coeffs.items()) == expect, u


def test_path_products_equal_enumeration():
    for prefix in _all_prefixes(10):
        table = path_product_table(kernel_from_prefix(prefix))
        assert table == _enumerated_path_products(prefix), str(prefix)


def test_central_path_products_equal_central_table():
    """The path products of the central kernel are the central measure's
    closed weights 2^-n prod (2 + content)/hook at every level."""
    for n in range(1, 13):
        assert path_product_table(central_kernel(n)) == central_table(n), n


@pytest.mark.parametrize("level", [14, 15, 16])
def test_path_products_equal_enumeration_sparse_deep(level):
    """The benchmark's sparse shapes: ones at index 1 and at index 3, 4 or 5."""
    for second in (3, 4, 5):
        bits = ["0"] * level
        bits[1] = bits[second] = "1"
        prefix = BitPrefix.from_string("".join(bits))
        assert path_product_table(kernel_from_prefix(prefix)) == _enumerated_path_products(prefix)


@given(prefixes(min_len=2, max_len=7))
@settings(max_examples=40)
def test_measure_marginals_are_coherent(p):
    deep = spectral_measure(p)
    shallow = spectral_measure(p, len(p) - 1)
    assert deep.restricted() == shallow


@given(prefixes(max_len=7))
@settings(max_examples=40)
def test_measure_support_respects_degree(p):
    table = spectral_measure(p)
    m = p.ones(len(p))
    for u in table.support():
        assert len(u.second_row) <= m


# the step detector


@given(prefixes(min_len=2, max_len=7))
@settings(max_examples=40)
def test_measure_steps_are_markov(p):
    level = len(p)
    table = spectral_measure(p, level - 1)
    deeper = spectral_measure(p, level)
    report = is_markov(table, deeper)
    assert report.ok
    assert report.violations == ()
    kern = kernel_from_prefix(p)
    assert kernel_matches(table, deeper, kern)


def test_detector_rejects_negative_control():
    """The table of x1 x2 + x1 x4 fails against its own restriction: the
    level-3 tableaux with second rows (2,) and (3,) share a shape but
    split their mass differently."""
    t4 = _projection_table(SquareFreeForm(4, 2, {(1, 2): 1, (1, 4): 1}))
    report = is_markov(t4.restricted(), t4)
    assert not report.ok
    got = [
        (v.first.second_row, v.second.second_row, v.up, v.first_ratio, v.second_ratio)
        for v in report.violations
    ]
    assert got == [
        ((2,), (3,), False, Fraction(1, 2), Fraction(9, 10)),
        ((2,), (3,), True, Fraction(1, 2), Fraction(1, 10)),
    ]


@pytest.mark.parametrize("n,rejected,steps", [(3, 0, 6), (4, 6, 27), (5, 24, 110)])
def test_two_monomial_forms_are_markov_per_step_not_per_level(n, rejected, steps):
    """Over every x_I + x_J with distinct m-subsets I, J and 2m <= n: the
    table need not be Markov against its own restriction, yet multiplying
    the form by x_{n+1}^bit always takes one step of the induced kernel,
    as the split of each basis vector depends only on (n, k, m, bit)."""
    rejects = 0
    step_pairs = []
    for m in range(n // 2 + 1):
        for a, b in combinations(combinations(range(1, n + 1), m), 2):
            table = _projection_table(SquareFreeForm(n, m, {a: 1, b: 1}))
            rejects += not is_markov(table.restricted(), table).ok
            for bit in (0, 1):
                if 2 * (m + bit) <= n + 1:
                    tail = (n + 1,) * bit
                    h = SquareFreeForm(n + 1, m + bit, {a + tail: 1, b + tail: 1})
                    step_pairs.append(is_markov(table, _projection_table(h)))
    assert rejects == rejected
    assert len(step_pairs) == steps
    assert all(r.ok and r.violations == () for r in step_pairs)


def test_detector_validates_inputs():
    p = BitPrefix.from_string("0101")
    with pytest.raises(ValueError):
        is_markov(spectral_measure(p, 2), spectral_measure(p, 4))
    broken = SpectralTable(
        3,
        {
            TwoRowTableau(3, ()): Fraction(1, 2),
            TwoRowTableau(3, (2,)): Fraction(1, 2),
        },
    )
    with pytest.raises(ValueError):
        is_markov(broken, spectral_measure(p, 4))


# squared-norm ratios of the distinguished tableau


def test_good_tableau_ratio_known_values():
    assert good_tableau_ratio(1, 0, 0, 1) == Fraction(1, 2)
    assert good_tableau_ratio(2, 0, 1, 1) == Fraction(2, 3)
    assert good_tableau_ratio(2, 1, 1, 1) == Fraction(1)


def test_good_tableau_ratio_validation():
    with pytest.raises(ValueError):
        good_tableau_ratio(2, 0, 1, 3)
    with pytest.raises(ValueError):
        good_tableau_ratio(2, 2, 2, 2)
    with pytest.raises(ValueError):
        good_tableau_ratio(4, 1, 0, 0)


@given(prefixes(min_len=2, max_len=9))
@settings(max_examples=40)
def test_good_tableau_ratio_equals_stay_probability(p):
    kern = kernel_from_prefix(p)
    for n, k, entry in kern.rows():
        ratio = good_tableau_ratio(n, k, p.ones(n), p.ones(n + 1))
        assert ratio == entry.p_stay


# the central measure


def test_central_weights_small_levels():
    assert central_shape_weight(TwoRowTableau(1, ()).shape) == 1
    assert central_shape_weight(TwoRowDiagram(2, 0)) == Fraction(3, 4)
    assert central_shape_weight(TwoRowDiagram(2, 1)) == Fraction(1, 4)
    assert central_shape_weight(TwoRowDiagram(3, 1)) == Fraction(1, 4)


def test_central_mass_sums_to_one():
    for level in range(1, 11):
        total = sum(
            dim(d) * central_shape_weight(d) for d in enumerate_diagrams(level)
        )
        assert total == 1
        central_table(level)  # construction revalidates the same sum


def test_central_transition_known_values():
    assert central_alpha_transition(1, 0) == (Fraction(3, 4), Fraction(1, 4))
    assert central_alpha_transition(3, 1) == (Fraction(3, 4), Fraction(1, 4))
    assert central_alpha_transition(2, 1) == (Fraction(1), Fraction(0))
    assert central_alpha_transition(4, 2) == (Fraction(1), Fraction(0))


def test_central_transition_matches_weight_ratios():
    """The closed stay/up rule agrees with the ratio of consecutive shape
    weights at every reachable state."""
    for n in range(1, 9):
        for k in range(n // 2 + 1):
            assert central_alpha_transition(n, k) == _central_transition_oracle(n, k)


def test_central_tables_are_markov():
    for level in range(1, 7):
        table = central_table(level)
        deeper = central_table(level + 1)
        assert is_markov(table, deeper).ok
        assert kernel_matches(table, deeper, central_kernel(level + 1))


def test_central_kernel_rows_have_no_bit():
    for _, _, entry in central_kernel(6).rows():
        assert entry.bit is None
        assert entry.p_stay + entry.p_up == 1


def test_spectral_table_is_not_central():
    """Same-shape tableaux get different weights under a direction sequence,
    so the two families of measures genuinely differ."""
    table = spectral_measure(BitPrefix.from_string("0101"))
    a = table.prob(TwoRowTableau(4, (2,)))
    b = table.prob(TwoRowTableau(4, (3,)))
    assert TwoRowTableau(4, (2,)).shape == TwoRowTableau(4, (3,)).shape
    assert a == Fraction(1, 4)
    assert b == Fraction(1, 12)
    assert a != b


# sampling


@st.composite
def unit_fractions(draw):
    den = draw(st.integers(min_value=1, max_value=2**70))
    return Fraction(draw(st.integers(min_value=0, max_value=den)), den)


@given(unit_fractions(), st.integers(min_value=0, max_value=2**64 - 1))
def test_up_threshold_is_the_fraction_compare(p, r_random):
    t = _up_threshold(p)
    assert 0 <= t <= 2**64
    for r in (0, t - 1, t, 2**64 - 1, r_random):
        if 0 <= r < 2**64:
            assert (r < t) == (r * p.denominator < p.numerator << 64)


def test_up_threshold_endpoints():
    assert _up_threshold(Fraction(0)) == 0
    assert _up_threshold(Fraction(1)) == 2**64
    assert _up_threshold(Fraction(1, 2)) == 2**63
    assert _up_threshold(Fraction(1, 3)) == 2**64 // 3 + 1


@pytest.mark.parametrize(
    "kernel,gaps",
    [
        (central_kernel(64), False),
        (kernel_from_prefix(BitPrefix.from_string("0010110100110011" * 4)), True),
    ],
)
def test_threshold_table_holds_every_stored_row_and_none_elsewhere(kernel, gaps):
    table = _threshold_table(kernel, 64)
    assert len(table) == 63
    for n, row in enumerate(table, start=1):
        assert len(row) == n // 2 + 1
        for k, limit in enumerate(row):
            entry = kernel.entries.get((n, k))
            assert limit == (None if entry is None else _up_threshold(entry.p_up))
    assert any(None in row for row in table) == gaps


def _reference_walks(kernel, depth, paths, seed):
    """Walks drawn with the Fraction comparison r * den < num * 2^64."""
    rng = random.Random(seed)
    walks = []
    for _ in range(paths):
        ks = [0]
        for n in range(1, depth):
            p = kernel.transition(n, ks[-1]).p_up
            up = rng.getrandbits(64) * p.denominator < p.numerator << 64
            ks.append(ks[-1] + up)
        walks.append(ks)
    return walks


def _counts_of(walks):
    counts = {}
    for ks in walks:
        for n in range(1, len(ks)):
            c = counts.setdefault((n, ks[n - 1]), [0, 0])
            c[0] += 1
            c[1] += ks[n] - ks[n - 1]
    return {key: tuple(c) for key, c in sorted(counts.items())}


@pytest.mark.parametrize(
    "kernel,depth",
    [
        (central_kernel(20), 20),
        (central_kernel(20), 7),
        (kernel_from_prefix(BitPrefix.alternating(16)), 16),
        (kernel_from_prefix(BitPrefix.from_string("0010110100110011")), 16),
        (central_kernel(64), 64),
        (kernel_from_prefix(BitPrefix.from_string("0010110100110011" * 4)), 64),
    ],
)
def test_samplers_equal_fraction_reference(kernel, depth):
    walks = _reference_walks(kernel, depth, 300, seed=41)
    counts = transition_counts(kernel, depth, 300, seed=41)
    assert list(counts.items()) == list(_counts_of(walks).items())
    assert list(sample_paths(kernel, depth, 300, 41)) == walks
    assert sample_path(kernel, depth, 41) == walks[0]


def test_deep_induced_kernel_has_zero_up_rows():
    # Rows with k = m and bit 0 never go up; the depth-64 case above walks them.
    prefix = BitPrefix.from_string("0010110100110011" * 4)
    kernel = kernel_from_prefix(prefix)
    zero_up = [
        (n, k)
        for (n, k), entry in kernel.entries.items()
        if entry.bit == 0 and k == prefix.ones(n) and entry.p_up == 0
    ]
    assert len(zero_up) == 31
    visits = transition_counts(kernel, 64, 300, seed=41)
    assert all(visits[key][0] > 0 and visits[key][1] == 0 for key in zero_up)


def _gap_kernels():
    one = KernelEntry(None, Fraction(0), Fraction(1))
    # Level 2 stores k = 0 only, but the walk reaches k = 1 there.
    missing = TransitionKernel(4, {(1, 0): one, (2, 0): one, (3, 0): one})
    # Level 2 steps up from k = 1, past the states level 3 can hold.
    past_half = TransitionKernel(4, {(1, 0): one, (2, 1): one})
    return [(missing, (2, 1)), (past_half, (3, 2))]


@pytest.mark.parametrize("kernel,state", _gap_kernels())
def test_samplers_raise_on_missing_rows_like_transition(kernel, state):
    with pytest.raises(ValueError) as lookup:
        kernel.transition(*state)
    message = str(lookup.value)
    assert message == "no transition stored for level {}, k={}".format(*state)
    with pytest.raises(ValueError) as walked:
        sample_path(kernel, 4, 0)
    assert str(walked.value) == message
    with pytest.raises(ValueError) as streamed:
        list(sample_paths(kernel, 4, 2, 0))
    assert str(streamed.value) == message
    with pytest.raises(ValueError) as counted:
        transition_counts(kernel, 4, 2, 0)
    assert str(counted.value) == message
    assert transition_counts(kernel, 4, 0, 0) == {}
    assert sample_path(kernel, 2, 0) == [0, 1]


def test_sample_paths_checks_arguments_before_drawing():
    kern = central_kernel(6)
    with pytest.raises(ValueError):
        sample_paths(kern, 7, 1, 0)
    with pytest.raises(ValueError):
        sample_paths(kern, 6, -1, 0)
    assert list(sample_paths(kern, 6, 0, 0)) == []


def _law_of_k(kernel, level):
    """The exact law of the second-row length at ``level``, propagated
    through the kernel's Fraction rows one level at a time."""
    law = {0: Fraction(1)}
    for n in range(1, level):
        nxt = {}
        for k, p in law.items():
            entry = kernel.transition(n, k)
            nxt[k] = nxt.get(k, 0) + p * entry.p_stay
            nxt[k + 1] = nxt.get(k + 1, 0) + p * entry.p_up
        law = {k: p for k, p in nxt.items() if p}
    return law


def _shape_marginal(table):
    law = {}
    for u, p in table.probs.items():
        k = len(u.second_row)
        law[k] = law.get(k, 0) + p
    return law


def test_law_of_k_equals_table_marginals():
    prefix = BitPrefix.alternating(10)
    kern = kernel_from_prefix(prefix)
    for level in range(1, 11):
        table = path_product_table(kernel_from_prefix(prefix, level))
        assert _law_of_k(kern, level) == _shape_marginal(table)
    central = central_kernel(12)
    for level in range(1, 13):
        assert _law_of_k(central, level) == _shape_marginal(central_table(level))


def test_sample_path_all_zero_directions():
    kern = kernel_from_prefix(BitPrefix.from_string("000000"))
    ks = sample_path(kern, 6, random.Random(0))
    assert ks == [0, 0, 0, 0, 0, 0]


def test_sample_path_is_seed_deterministic():
    kern = central_kernel(12)
    a = sample_path(kern, 12, random.Random(99))
    b = sample_path(kern, 12, random.Random(99))
    c = sample_path(kern, 12, 99)
    assert a == b == c


@pytest.mark.parametrize(
    "kernel",
    [central_kernel(64), kernel_from_prefix(BitPrefix.from_string("0010110100110011" * 4))],
)
def test_sample_path_is_the_first_stream_walk_and_thresholds_only_its_rows(
    kernel, monkeypatch
):
    computed = []

    def counted(p):
        computed.append(p)
        return _up_threshold(p)

    monkeypatch.setattr(markov, "_up_threshold", counted)
    for seed in range(5):
        computed.clear()
        walk = sample_path(kernel, 64, seed)
        assert len(computed) <= 63
        rng = random.Random(seed)
        assert sample_path(kernel, 64, rng) == walk
        assert rng.getstate() == _drawn(63, seed).getstate()
        assert next(sample_paths(kernel, 64, 1, seed)) == walk


def _drawn(steps, seed):
    rng = random.Random(seed)
    for _ in range(steps):
        rng.getrandbits(64)
    return rng


def test_sample_path_steps_are_valid():
    kern = central_kernel(16)
    rng = random.Random(5)
    for _ in range(50):
        ks = sample_path(kern, 16, rng)
        assert ks[0] == 0
        for n in range(1, 16):
            assert ks[n] - ks[n - 1] in (0, 1)
            assert 2 * ks[n] <= n + 1


def test_sample_tableau_matches_path():
    kern = kernel_from_prefix(BitPrefix.alternating(10))
    u = sample_tableau(kern, 10, 42)
    ks = sample_path(kern, 10, 42)
    assert u.n == 10
    assert len(u.second_row) == ks[-1]


def test_sample_depth_validation():
    kern = central_kernel(6)
    with pytest.raises(ValueError):
        sample_path(kern, 7, random.Random(0))
    with pytest.raises(ValueError):
        sample_path(kern, 0, random.Random(0))


def test_transition_counts_structure():
    kern = central_kernel(8)
    counts = transition_counts(kern, 8, 500, seed=3)
    for n in range(1, 8):
        level_total = sum(v for (lev, _), (v, _) in counts.items() if lev == n)
        assert level_total == 500
    for (n, k), (visits, ups) in counts.items():
        assert 0 <= ups <= visits
        assert 2 * k <= n
    assert counts == transition_counts(kern, 8, 500, seed=3)


def test_transition_counts_track_frequencies():
    kern = kernel_from_prefix(BitPrefix.alternating(12))
    counts = transition_counts(kern, 12, 4000, seed=11)
    for (n, k), (visits, ups) in counts.items():
        p_up = kern.transition(n, k).p_up
        assert within_three_sigma(visits, ups, p_up)


def test_within_three_sigma_boundary_is_exact():
    half = Fraction(1, 2)
    assert within_three_sigma(100, 35, half)
    assert within_three_sigma(100, 65, half)
    assert not within_three_sigma(100, 34, half)
    assert not within_three_sigma(100, 66, half)
    assert within_three_sigma(0, 0, half)
    assert within_three_sigma(77, 0, Fraction(0))
    assert within_three_sigma(77, 77, Fraction(1))
