"""Value semantics of the small value classes and records.

The reprs and error messages below are the ones these types printed when
they were dataclasses; the ``__slots__`` classes keep them byte for byte.
"""

from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from tworow.gz import gz_harmonic, gz_in_H
from tworow.markov import BitPrefix, KernelEntry, MarkovReport, MarkovViolation, SpectralTable
from tworow.verify import CheckResult
from tworow.ygraph import Cell, TwoRowDiagram, TwoRowTableau

# (class, field values by name, another value of the same class, repr)
VALUES = [
    (TwoRowDiagram, {"n": 4, "k": 1}, (4, 2), "TwoRowDiagram(n=4, k=1)"),
    (Cell, {"row": 2, "col": 3}, (1, 3), "Cell(row=2, col=3)"),
    (
        TwoRowTableau,
        {"n": 5, "second_row": (2, 4)},
        (5, (2, 5)),
        "TwoRowTableau(n=5, second_row=(2, 4))",
    ),
    (TwoRowTableau, {"n": 0, "second_row": ()}, (1, ()), "TwoRowTableau(n=0, second_row=())"),
    (BitPrefix, {"bits": (0, 1, 0)}, ((0, 0, 1),), "BitPrefix(bits=(0, 1, 0))"),
    (
        KernelEntry,
        {"bit": 0, "p_stay": Fraction(2, 3), "p_up": Fraction(1, 3)},
        (1, Fraction(2, 3), Fraction(1, 3)),
        "KernelEntry(bit=0, p_stay=Fraction(2, 3), p_up=Fraction(1, 3))",
    ),
    # A row given as ints reads back as Fractions, as a module-built row does.
    (
        KernelEntry,
        {"bit": None, "p_stay": 1, "p_up": 0},
        (None, 0, 1),
        "KernelEntry(bit=None, p_stay=Fraction(1, 1), p_up=Fraction(0, 1))",
    ),
]


@pytest.mark.parametrize("cls, fields, other, text", VALUES)
def test_values_compare_and_hash_by_fields(cls, fields, other, text):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert cls(*other) != a
    assert len({a, b, cls(*other)}) == 2
    assert repr(a) == text


@pytest.mark.parametrize("cls, fields, other, text", VALUES)
def test_values_never_equal_another_class(cls, fields, other, text):
    """Not even a named tuple with the same class name, fields and repr."""
    a = cls(**fields)
    values = tuple(getattr(a, f) for f in fields)
    lookalike = namedtuple(cls.__name__, fields)(*values)
    assert repr(lookalike) == repr(a)
    assert a != lookalike and lookalike != a
    assert a.__eq__(lookalike) is NotImplemented
    assert a != tuple(fields.values()) and a != values


def test_kernel_entry_probabilities_are_read_only():
    entry = KernelEntry(0, Fraction(2, 3), Fraction(1, 3))
    for name in ("p_stay", "p_up"):
        with pytest.raises(AttributeError):
            setattr(entry, name, Fraction(1, 2))
    assert (entry.p_stay, entry.p_up) == (Fraction(2, 3), Fraction(1, 3))


def test_list_fields_are_stored_as_tuples():
    pairs = [
        (TwoRowTableau(4, [2, 4]), TwoRowTableau(4, (2, 4))),
        (BitPrefix([0, 1, 0, 1]), BitPrefix((0, 1, 0, 1))),
    ]
    for from_list, from_tuple in pairs:
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)
        assert repr(from_list) == repr(from_tuple)
    table = SpectralTable(4, {TwoRowTableau(4, [2, 4]): 1})
    assert table.probs == {TwoRowTableau(4, (2, 4)): 1}


def test_gz_vectors_compare_by_identity():
    u = TwoRowTableau(2, (2,))
    v, w = gz_harmonic(u), gz_harmonic(u)
    assert v == v and v != w
    assert len({v, w}) == 2
    assert repr(v) == (
        "GzVector(tableau=TwoRowTableau(n=2, second_row=(2,)), "
        "form=SquareFreeForm(2, 1, (1)*x1 + (-1)*x2), norm_sq=2)"
    )
    assert repr(gz_in_H(TwoRowTableau(4, (2,)), 2)) == (
        "GzVector(tableau=TwoRowTableau(n=4, second_row=(2,)), form=SquareFreeForm(4, 2, "
        "(1)*x1*x3 + (1)*x1*x4 + (-1)*x2*x3 + (-1)*x2*x4), norm_sq=4)"
    )


def test_records_compare_hash_and_print_by_fields():
    first, second = TwoRowTableau(3, (2,)), TwoRowTableau(3, (3,))
    violation = MarkovViolation(first, second, True, Fraction(1, 2), Fraction(1, 10))
    records = [
        (
            violation,
            MarkovViolation(first, second, True, Fraction(1, 2), Fraction(1, 10)),
            "MarkovViolation(first=TwoRowTableau(n=3, second_row=(2,)), "
            "second=TwoRowTableau(n=3, second_row=(3,)), up=True, "
            "first_ratio=Fraction(1, 2), second_ratio=Fraction(1, 10))",
        ),
        (MarkovReport(True, ()), MarkovReport(True, ()), "MarkovReport(ok=True, violations=())"),
        (
            CheckResult("gz", True, "ok"),
            CheckResult("gz", True, "ok"),
            "CheckResult(name='gz', ok=True, detail='ok')",
        ),
    ]
    for a, b, text in records:
        assert a == b and hash(a) == hash(b)
        assert repr(a) == text
    assert MarkovReport(False, (violation,)) != MarkovReport(True, ())
    assert CheckResult("gz", False, "ok") != CheckResult("gz", True, "ok")


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: TwoRowDiagram(3, 2), ValueError, "need 0 <= k <= n/2, got n=3, k=2"),
        (lambda: TwoRowDiagram(-1, 0), ValueError, "cell count must be nonnegative, got n=-1"),
        (lambda: TwoRowDiagram(4.0, 1), TypeError, "indices must be int, got float: 4.0"),
        (lambda: TwoRowDiagram(True, 0), TypeError, "indices must be int, got bool: True"),
        (lambda: Cell(3, 1), ValueError, "row must be 1 or 2, got 3"),
        (lambda: Cell(1, 0), ValueError, "column must be >= 1, got 0"),
        (lambda: TwoRowTableau(4, (3, 2)), ValueError, "second row entries must increase: (3, 2)"),
        (
            lambda: TwoRowTableau(4, (1,)),
            ValueError,
            "entry 1 in second-row position 1 violates standardness",
        ),
        (lambda: TwoRowTableau(3, (2, 3)), ValueError, "second row too long for 3 cells: (2, 3)"),
        (lambda: TwoRowTableau(4, (2, 5)), ValueError, "entries must lie in 1..4: (2, 5)"),
        (lambda: TwoRowTableau(4, (2.0,)), TypeError, "indices must be int, got float: 2.0"),
        (lambda: TwoRowTableau(True, ()), TypeError, "indices must be int, got bool: True"),
        (lambda: BitPrefix((1,)), ValueError, "prefix of length 1 has 1 ones, more than half"),
        (lambda: BitPrefix((0, 2)), ValueError, "bits must be 0 or 1, got 2"),
        (lambda: BitPrefix((0, True)), TypeError, "indices must be int, got bool: True"),
        (lambda: BitPrefix((0, 1.0)), TypeError, "indices must be int, got float: 1.0"),
        (
            lambda: KernelEntry(2, Fraction(1, 2), Fraction(1, 2)),
            ValueError,
            "bit must be 0, 1 or None, got 2",
        ),
        (
            lambda: KernelEntry(0, 0.5, 0.5),
            TypeError,
            "scalars must be int or Fraction, got float: 0.5",
        ),
        (
            lambda: KernelEntry(0, Fraction(1, 2), Fraction(1, 3)),
            ValueError,
            "probabilities must be nonnegative and sum to 1, got 1/2, 1/3",
        ),
        (
            lambda: KernelEntry(0, -1, 2),
            ValueError,
            "probabilities must be nonnegative and sum to 1, got -1, 2",
        ),
    ],
)
def test_bad_values_raise_the_recorded_errors(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


_probabilities = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.booleans(),
    st.fractions(min_value=-2, max_value=2, max_denominator=12),
)


@given(
    st.one_of(
        st.tuples(_probabilities, _probabilities),
        _probabilities.map(lambda p: (p, 1 - p)),
    )
)
@example((1, 0))
@example((True, 0))
@example((Fraction(1, 2), Fraction(1, 2)))
@example((Fraction(1, 2), Fraction(2, 3)))
@example((Fraction(1, 4), Fraction(3, 5)))
@example((2, -1))
@example((Fraction(3, 2), Fraction(-1, 2)))
def test_kernel_entry_accepts_exactly_nonnegative_pairs_summing_to_one(pair):
    p_stay, p_up = pair
    if p_stay >= 0 and p_up >= 0 and p_stay + p_up == 1:
        entry = KernelEntry(None, p_stay, p_up)
        assert (entry.p_stay, entry.p_up) == (p_stay, p_up)
    else:
        with pytest.raises(ValueError) as info:
            KernelEntry(None, p_stay, p_up)
        assert str(info.value) == (
            f"probabilities must be nonnegative and sum to 1, got {p_stay}, {p_up}"
        )


def _ballot(flips: list[bool]) -> tuple[int, ...]:
    """The direction sequence that takes each flip as a 1 unless that would
    put more ones than zeros in the prefix."""
    bits, ones = [], 0
    for t, flip in enumerate(flips, start=1):
        bit = int(flip and 2 * (ones + 1) <= t)
        ones += bit
        bits.append(bit)
    return tuple(bits)


def _unchecked(cls, **slots):
    """A value built as the ``_trusted`` fast paths build theirs: no
    ``__init__``, each slot set as given."""
    value = object.__new__(cls)
    for name, field in slots.items():
        setattr(value, name, field)
    return value


@given(
    st.lists(st.booleans(), max_size=12),
    st.sampled_from([None, 0, 1]),
    st.fractions(min_value=0, max_value=1, max_denominator=64),
)
@example([], None, Fraction(0))
@example([False, True, True], 1, Fraction(1))
def test_every_route_to_a_value_gives_one_value(flips, bit, p_up):
    """The public constructor and the unchecked route agree on ``==``,
    ``hash`` and ``repr``, as do ``Fraction`` and ``int`` kernel rows."""
    bits = _ballot(flips)
    n, row = len(bits), tuple(t for t, b in enumerate(bits, start=1) if b)
    tableau = TwoRowTableau(n, row)
    p_stay = 1 - p_up
    routes = [
        (TwoRowDiagram(n, len(row)), _unchecked(TwoRowDiagram, n=n, k=len(row))),
        (tableau, TwoRowTableau._trusted(n, row)),
        (BitPrefix(bits), _unchecked(BitPrefix, bits=bits)),
        (
            KernelEntry(bit, p_stay, p_up),
            KernelEntry._trusted(bit, p_stay.numerator, p_up.numerator, p_up.denominator),
        ),
    ]
    for entry in range(1, n + 1):
        cell = tableau.cell_of(entry)
        routes.append((cell, _unchecked(Cell, row=cell.row, col=cell.col)))
    if p_up.denominator == 1:
        routes.append((KernelEntry(bit, p_stay, p_up), KernelEntry(bit, int(p_stay), int(p_up))))
    for checked, other in routes:
        assert checked is not other
        assert checked == other and other == checked
        assert hash(checked) == hash(other)
        assert repr(checked) == repr(other)
