import io
import json
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, strategies as st

from tworow.forms import SquareFreeForm
from tworow.gz import GzVector, gz_harmonic, iter_basis
from tworow.markov import BitPrefix, central_kernel, kernel_from_prefix, spectral_measure
from tworow.serialize import (
    KERNEL_HEADER,
    SUMMARY_HEADER,
    TRACE_HEADER,
    form_to_dict,
    fraction_to_dict,
    gz_vector_to_dict,
    json_text,
    kernel_to_csv,
    kernel_to_rows,
    summary_to_csv,
    table_to_dict,
    trace_to_csv,
    write_basis,
)
from tworow.ygraph import TwoRowTableau


def _assert_lowest_terms(d, x):
    """A ``num``/``den`` dict spells x in lowest terms, denominator positive."""
    num, den = int(d["num"]), int(d["den"])
    assert den > 0 and gcd(num, den) == 1
    assert Fraction(num, den) == x


@given(st.fractions())
def test_fraction_roundtrip(x):
    d = fraction_to_dict(x)
    assert set(d) == {"num", "den"}
    _assert_lowest_terms(d, x)


@st.composite
def forms(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=0, max_value=n))
    keys = list(combinations(range(1, n + 1), k))
    chosen = draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
    return SquareFreeForm(
        n,
        k,
        {
            key: Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 20)))
            for key in chosen
        },
    )


@given(forms())
def test_form_roundtrip(f):
    obj = form_to_dict(f)
    assert (obj["n"], obj["k"]) == (f.n, f.k)
    keys = [tuple(term["vars"]) for term in obj["terms"]]
    assert keys == sorted(f.coeffs)
    for key, term in zip(keys, obj["terms"]):
        _assert_lowest_terms(term, f.coeffs[key])


def test_form_dict_layout():
    f = SquareFreeForm(3, 1, {(1,): Fraction(1), (2,): Fraction(-1, 2)})
    assert form_to_dict(f) == {
        "n": 3,
        "k": 1,
        "terms": [
            {"vars": [1], "num": "1", "den": "1"},
            {"vars": [2], "num": "-1", "den": "2"},
        ],
    }


@pytest.mark.parametrize(
    "field,value",
    [
        ("n", 3.9),
        ("n", "3"),
        ("k", True),
        ("k", 1.0),
        ("vars", [2.7]),
        ("vars", ["3"]),
        ("vars", [False]),
    ],
)
def test_form_takes_only_integer_indices(field, value):
    """``form_to_dict`` writes ``n``, ``k`` and ``vars`` as they are, so the
    form it is given must refuse any index that is not an ``int``."""
    args = {"n": 3, "k": 1, "vars": [2]}
    args[field] = value
    with pytest.raises(TypeError):
        SquareFreeForm(args["n"], args["k"], {tuple(args["vars"]): 1})


@pytest.mark.parametrize(
    "field,value",
    [
        ("level", 2.5),
        ("level", 2.0),
        ("level", "2"),
        ("second_row", [2.0]),
        ("second_row", ["2"]),
        ("second_row", [True]),
    ],
)
def test_table_takes_only_integer_indices(field, value):
    """``table_to_dict`` writes ``level`` and ``second_row`` from the table's
    tableaux, so a tableau must refuse any index that is not an ``int``."""
    args = {"level": 2, "second_row": [2]}
    args[field] = value
    with pytest.raises(TypeError):
        TwoRowTableau(args["level"], tuple(args["second_row"]))


def test_gz_vector_dict():
    vec = gz_harmonic(TwoRowTableau(2, (2,)))
    assert gz_vector_to_dict(vec) == {
        "second_row": [2],
        "terms": [
            {"vars": [1], "num": "1", "den": "1"},
            {"vars": [2], "num": "-1", "den": "1"},
        ],
        "norm_sq": {"num": "2", "den": "1"},
    }


def _buffered_basis(n, m, vectors):
    buf = io.StringIO()
    write_basis(buf, n, m, vectors)
    return buf.getvalue()


def test_write_basis_equals_json_text():
    for n in range(0, 10):
        for m in range(n // 2 + 1):
            vectors = list(iter_basis(n, m))
            doc = {"n": n, "m": m, "vectors": [gz_vector_to_dict(v) for v in vectors]}
            assert _buffered_basis(n, m, vectors) == json_text(doc), (n, m)


def test_write_basis_empty_lists_and_fractions():
    u = TwoRowTableau(3, (2,))
    vectors = [
        GzVector(u, SquareFreeForm(3, 1, {(1,): Fraction(-1, 2), (3,): 5}), Fraction(101, 4)),
        GzVector(TwoRowTableau(3, ()), SquareFreeForm.zero(3, 1), 0),
    ]
    for vecs in ([], vectors):
        doc = {"n": 3, "m": 1, "vectors": [gz_vector_to_dict(v) for v in vecs]}
        assert _buffered_basis(3, 1, vecs) == json_text(doc)


def test_table_roundtrip_and_layout():
    table = spectral_measure(BitPrefix.from_string("01"))
    obj = table_to_dict(table)
    assert obj == {
        "level": 2,
        "entries": [
            {"second_row": [], "num": "1", "den": "2"},
            {"second_row": [2], "num": "1", "den": "2"},
        ],
    }
    table = spectral_measure(BitPrefix.from_string("001011"))
    obj = table_to_dict(table)
    rows = [tuple(entry["second_row"]) for entry in obj["entries"]]
    assert rows == sorted(set(rows), key=lambda row: (len(row), row))
    assert len(rows) == len(table.probs) > 2
    for row, entry in zip(rows, obj["entries"]):
        _assert_lowest_terms(entry, table.prob(TwoRowTableau(obj["level"], row)))


def test_kernel_csv_golden():
    kern = kernel_from_prefix(BitPrefix.from_string("0101"))
    expect = (
        KERNEL_HEADER + "\n"
        "1,0,1,1,2,1,2\n"
        "2,0,0,2,3,1,3\n"
        "2,1,0,1,1,0,1\n"
        "3,0,1,1,2,1,2\n"
        "3,1,1,1,2,1,2\n"
    )
    assert kernel_to_csv(kern) == expect


def test_central_kernel_csv_empty_bit_column():
    text = kernel_to_csv(central_kernel(3))
    lines = text.strip().split("\n")
    assert lines[0] == KERNEL_HEADER
    assert lines[1] == "1,0,,3,4,1,4"
    assert lines[2] == "2,0,,2,3,1,3"
    assert lines[3] == "2,1,,1,1,0,1"


def test_kernel_rows_mirror_csv():
    kern = kernel_from_prefix(BitPrefix.from_string("001"))
    rows = kernel_to_rows(kern)
    assert rows[0] == {
        "n": 1,
        "k": 0,
        "bit": 0,
        "p_stay": {"num": "1", "den": "1"},
        "p_up": {"num": "0", "den": "1"},
    }
    assert rows[1]["bit"] == 1
    assert rows[1]["p_up"] == {"num": "2", "den": "3"}


def test_trace_csv():
    text = trace_to_csv([[0, 0, 1], [0, 1, 1]])
    assert text == (
        TRACE_HEADER + "\n"
        "1,0,1\n"
        "2,0,2\n"
        "3,1,1\n"
        "1,0,1\n"
        "2,1,0\n"
        "3,1,1\n"
    )


def test_summary_csv():
    rows = [
        (1, 0, 1000, 497, Fraction(1, 2), True),
        (2, 0, 1000, 700, Fraction(1, 3), False),
    ]
    assert summary_to_csv(rows) == (
        SUMMARY_HEADER + "\n"
        "1,0,1000,497,1,2,1\n"
        "2,0,1000,700,1,3,0\n"
    )


def test_json_text_is_deterministic():
    obj = {"b": 1, "a": [1, 2]}
    text = json_text(obj)
    assert text == json_text({"a": [1, 2], "b": 1})
    assert text.endswith("\n")
    assert json.loads(text) == obj


def test_json_text_sorts_keys():
    text = json_text({"z": 0, "a": 0})
    assert text.index('"a"') < text.index('"z"')
