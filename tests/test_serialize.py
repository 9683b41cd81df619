import io
import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from tworow import (
    BitPrefix,
    GzVector,
    SquareFreeForm,
    central_kernel,
    gz_harmonic,
    iter_basis,
    kernel_from_prefix,
    spectral_measure,
)
from tworow.serialize import (
    KERNEL_HEADER,
    SUMMARY_HEADER,
    TRACE_HEADER,
    form_from_dict,
    form_to_dict,
    fraction_from_dict,
    fraction_to_dict,
    gz_vector_to_dict,
    json_text,
    kernel_to_csv,
    kernel_to_rows,
    summary_to_csv,
    table_from_dict,
    table_to_dict,
    trace_to_csv,
    write_basis,
)
from tworow.ygraph import TwoRowTableau


@given(st.fractions())
def test_fraction_roundtrip(x):
    d = fraction_to_dict(x)
    assert int(d["den"]) > 0
    assert fraction_from_dict(d) == x


def test_fraction_rejects_bad_denominator():
    with pytest.raises(ValueError):
        fraction_from_dict({"num": "1", "den": "0"})
    with pytest.raises(ValueError):
        fraction_from_dict({"num": "1", "den": "-2"})


@pytest.mark.parametrize("value", [2.7, 3, True, None, ["3"]])
def test_fraction_takes_only_strings(value):
    for obj in ({"num": value, "den": "1"}, {"num": "1", "den": value}):
        with pytest.raises(TypeError):
            fraction_from_dict(obj)


@pytest.mark.parametrize("text", [" 3", "3 ", "+3", "1_0", "--3", "-", "", "\u0663", "3.0", "0x3"])
def test_fraction_takes_only_decimal_integers(text):
    for obj in ({"num": text, "den": "1"}, {"num": "1", "den": text}):
        with pytest.raises(ValueError):
            fraction_from_dict(obj)


def test_fraction_reads_signed_decimals():
    assert fraction_from_dict({"num": "-12", "den": "18"}) == Fraction(-2, 3)
    assert fraction_from_dict({"num": "-0", "den": "007"}) == 0


def test_form_and_table_read_fractions_strictly():
    form = {"n": 3, "k": 1, "terms": [{"vars": [2], "num": 2.7, "den": "1"}]}
    with pytest.raises(TypeError):
        form_from_dict(form)
    table = {"level": 2, "entries": [{"second_row": [], "num": True, "den": 2.9}]}
    with pytest.raises(TypeError):
        table_from_dict(table)


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
    assert form_from_dict(form_to_dict(f)) == f


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


def test_form_rejects_duplicate_terms():
    obj = {
        "n": 2,
        "k": 1,
        "terms": [
            {"vars": [1], "num": "1", "den": "1"},
            {"vars": [1], "num": "2", "den": "1"},
        ],
    }
    with pytest.raises(ValueError):
        form_from_dict(obj)


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
    obj = {"n": 3, "k": 1, "terms": [{"vars": [2], "num": "1", "den": "1"}]}
    if field == "vars":
        obj["terms"][0]["vars"] = value
    else:
        obj[field] = value
    with pytest.raises(TypeError):
        form_from_dict(obj)


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
    obj = {"level": 2, "entries": [{"second_row": [2], "num": "1", "den": "1"}]}
    if field == "second_row":
        obj["entries"][0]["second_row"] = value
    else:
        obj[field] = value
    with pytest.raises(TypeError):
        table_from_dict(obj)


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
    assert table_from_dict(obj) == table


def test_table_rejects_duplicates():
    obj = {
        "level": 2,
        "entries": [
            {"second_row": [], "num": "1", "den": "2"},
            {"second_row": [], "num": "1", "den": "2"},
        ],
    }
    with pytest.raises(ValueError):
        table_from_dict(obj)


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
