from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from tworow.ygraph import (
    Cell,
    TwoRowDiagram,
    TwoRowTableau,
    dim,
    enumerate_all_tableaux,
    enumerate_diagrams,
    enumerate_tableaux,
    good_tableau,
    hook_length,
)


@st.composite
def diagrams(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    k = draw(st.integers(min_value=0, max_value=n // 2))
    return TwoRowDiagram(n, k)


@st.composite
def tableaux(draw, max_n=9):
    d = draw(diagrams(max_n))
    return draw(st.sampled_from(enumerate_tableaux(d)))


KNOWN_DIMS = {
    (2, 1): 1,
    (3, 1): 2,
    (4, 1): 3,
    (4, 2): 2,
    (5, 2): 5,
    (6, 3): 5,
    (7, 3): 14,
    (8, 4): 14,
    (10, 5): 42,
}


def test_dim_known_values():
    for (n, k), expect in KNOWN_DIMS.items():
        assert dim(TwoRowDiagram(n, k)) == expect


def test_dim_zero_row():
    # one-row shapes carry the trivial module
    for n in range(8):
        assert dim(TwoRowDiagram(n, 0)) == 1


@given(diagrams())
def test_dim_counts_tableaux(d):
    assert dim(d) == len(enumerate_tableaux(d))


def test_dim_matches_hook_product():
    """n! over the product of hooks is an independent route to dim."""
    for n in range(1, 9):
        for d in enumerate_diagrams(n):
            hooks = 1
            for cell in d.cells():
                hooks *= hook_length(d, cell)
            assert factorial(n) % hooks == 0
            assert factorial(n) // hooks == dim(d)


def test_enumerate_diagrams():
    assert enumerate_diagrams(0) == [TwoRowDiagram(0, 0)]
    assert enumerate_diagrams(5) == [
        TwoRowDiagram(5, 0),
        TwoRowDiagram(5, 1),
        TwoRowDiagram(5, 2),
    ]
    assert len(enumerate_diagrams(8)) == 5
    with pytest.raises(ValueError):
        enumerate_diagrams(-1)


def test_diagram_validation():
    with pytest.raises(ValueError):
        TwoRowDiagram(3, 2)
    with pytest.raises(ValueError):
        TwoRowDiagram(2, -1)


def test_rows_property():
    d = TwoRowDiagram(7, 3)
    assert d.rows == (4, 3)


def test_cell_content():
    assert Cell(1, 1).content == 0
    assert Cell(1, 4).content == 3
    assert Cell(2, 1).content == -1
    assert Cell(2, 3).content == 1


def test_hook_lengths_of_3_1():
    d = TwoRowDiagram(4, 1)
    got = {(c.row, c.col): hook_length(d, c) for c in d.cells()}
    assert got == {(1, 1): 4, (1, 2): 2, (1, 3): 1, (2, 1): 1}


def test_hook_outside_raises():
    d = TwoRowDiagram(4, 1)
    with pytest.raises(ValueError):
        hook_length(d, Cell(2, 2))


def test_tableaux_of_2_2():
    d = TwoRowDiagram(4, 2)
    rows = [u.second_row for u in enumerate_tableaux(d)]
    assert rows == [(2, 4), (3, 4)]


def test_tableaux_of_3_2():
    d = TwoRowDiagram(5, 2)
    rows = [u.second_row for u in enumerate_tableaux(d)]
    assert rows == [(2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]


@given(diagrams(max_n=8))
def test_tableaux_sorted_lex(d):
    rows = [u.second_row for u in enumerate_tableaux(d)]
    assert rows == sorted(rows)


def test_enumerate_all_tableaux_counts():
    # levelwise totals are the Bell-like sums of two-row dims
    assert len(enumerate_all_tableaux(4)) == 1 + 3 + 2
    by_level_5 = enumerate_all_tableaux(5)
    assert len(by_level_5) == 1 + 4 + 5


def test_tableau_validation():
    TwoRowTableau(4, (2, 4))
    with pytest.raises(ValueError):
        TwoRowTableau(4, (2, 3, 4))  # second row longer than first
    with pytest.raises(ValueError):
        TwoRowTableau(4, (2, 2))
    with pytest.raises(ValueError):
        TwoRowTableau(4, (4, 2))
    with pytest.raises(ValueError):
        TwoRowTableau(4, (1, 4))  # entry 1 can never sit in row 2
    with pytest.raises(ValueError):
        TwoRowTableau(4, (2, 3))  # 3 < 2*2 breaks standardness
    with pytest.raises(ValueError):
        TwoRowTableau(3, (5,))


def test_tableau_validation_passes_tight_cases():
    TwoRowTableau(4, (2, 4))
    TwoRowTableau(6, (2, 4, 6))
    TwoRowTableau(1, ())


@pytest.mark.parametrize("bad", [2.0, 4.5, True, Fraction(2), "2"])
def test_only_ints_are_sizes_and_entries(bad):
    with pytest.raises(TypeError):
        TwoRowDiagram(bad, 1)
    with pytest.raises(TypeError):
        TwoRowDiagram(4, bad)
    with pytest.raises(TypeError):
        TwoRowTableau(bad, ())
    with pytest.raises(TypeError):
        TwoRowTableau(4, (bad,))
    with pytest.raises(TypeError):
        TwoRowTableau(4, (2, bad))


@given(tableaux())
def test_entry_cells_partition(u):
    """Entries 1..n land in distinct in-shape cells with matching row data."""
    seen = set()
    in_shape = set(u.shape.cells())
    for entry in range(1, u.n + 1):
        cell = u.cell_of(entry)
        assert cell not in seen
        seen.add(cell)
        assert cell in in_shape
        assert (entry in u.second_row) == (cell.row == 2)
        assert u.content(entry) == cell.content
    assert seen == in_shape


@given(tableaux())
def test_first_entries_content(u):
    if u.n >= 1:
        assert u.content(1) == 0
    if u.n >= 2:
        assert u.content(2) == (-1 if 2 in u.second_row else 1)


@given(tableaux(max_n=9), st.integers(min_value=0, max_value=1))
def test_extend_then_restrict(u, up):
    if up == 1 and 2 * (u.shape.k + 1) > u.n + 1:
        with pytest.raises(ValueError):
            u.extended(up)
        return
    v = u.extended(up)
    assert v.n == u.n + 1
    assert v.restricted() == u


@given(tableaux(max_n=9))
def test_restriction_chain_reaches_empty(u):
    while u.n > 0:
        u = u.restricted()
    assert u.second_row == ()


def test_restrict_at_level_zero_raises():
    with pytest.raises(ValueError):
        TwoRowTableau(0, ()).restricted()


def test_dim_branching_rule():
    """dim(big) is the sum of dim(small) over the shapes one cell smaller."""
    for n in range(1, 12):
        for big in enumerate_diagrams(n):
            total = sum(
                dim(small)
                for small in enumerate_diagrams(n - 1)
                if all(small.rows[i] <= big.rows[i] for i in range(2))
            )
            assert total == dim(big)


def test_good_tableau():
    u = good_tableau(6, 2)
    assert u.second_row == (2, 4)
    assert u.shape == TwoRowDiagram(6, 2)
    assert good_tableau(5, 0).second_row == ()
    with pytest.raises(ValueError):
        good_tableau(3, 2)
