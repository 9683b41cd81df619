import io
import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, strategies as st

from tworow.forms import SquareFreeForm
from tworow.gz import GzVector, iter_basis
from tworow.markov import (
    BitPrefix,
    KernelEntry,
    SpectralTable,
    TransitionKernel,
    central_kernel,
    kernel_from_prefix,
    path_product_table,
    sample_path,
    spectral_measure,
)
from tworow.serialize import (
    KERNEL_HEADER,
    SUMMARY_HEADER,
    kernel_to_csv,
    summary_to_csv,
    trace_rows,
    trace_table,
    write_basis,
    write_measure,
)
from tworow.ygraph import TwoRowTableau


def _json_reference(doc):
    """The layout every JSON writer must match byte for byte."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _fraction(x):
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _assert_lowest_terms(d, x):
    """A ``num``/``den`` dict spells x in lowest terms, denominator positive."""
    num, den = int(d["num"]), int(d["den"])
    assert den > 0 and gcd(num, den) == 1
    assert Fraction(num, den) == x


@given(st.fractions())
def test_fraction_roundtrip(x):
    """A fraction written by ``write_basis`` is a bare ``num``/``den``
    object in lowest terms, as a norm and as a coefficient (a zero
    coefficient is dropped from the form, so it writes no term)."""
    vec = GzVector(TwoRowTableau(1, ()), SquareFreeForm(1, 0, {(): x}), x)
    (obj,) = json.loads(_buffered_basis(1, 0, [vec]))["vectors"]
    assert set(obj["norm_sq"]) == {"num", "den"}
    _assert_lowest_terms(obj["norm_sq"], x)
    assert len(obj["terms"]) == (x != 0)
    for term in obj["terms"]:
        assert set(term) == {"vars", "num", "den"}
        _assert_lowest_terms(term, x)


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
            for key in sorted(chosen)
        },
    )


@given(forms(), st.fractions())
def test_form_roundtrip(f, norm_sq):
    """``write_basis`` spells every coefficient and the norm in lowest
    terms with a positive denominator, and writes the terms in key order."""
    vec = GzVector(TwoRowTableau(f.n, ()), f, norm_sq)
    (obj,) = json.loads(_buffered_basis(f.n, f.k, [vec]))["vectors"]
    _assert_lowest_terms(obj["norm_sq"], norm_sq)
    keys = [tuple(term["vars"]) for term in obj["terms"]]
    assert keys == sorted(f.coeffs)
    for key, term in zip(keys, obj["terms"]):
        _assert_lowest_terms(term, f.coeffs[key])


unit_fractions = st.fractions(min_value=0, max_value=1)


@given(unit_fractions, unit_fractions)
def test_measure_roundtrip(p, q):
    """``write_measure`` spells every table and kernel probability in
    lowest terms with a positive denominator."""
    probs = {TwoRowTableau(2, ()): p, TwoRowTableau(2, (2,)): 1 - p}
    table = SpectralTable(2, probs)
    kernel = TransitionKernel(2, {(1, 0): KernelEntry(0, 1 - q, q)})
    doc = json.loads(_buffered_measure(BitPrefix.from_string("01"), table, kernel, True))
    for entry in doc["table"]["entries"]:
        _assert_lowest_terms(entry, probs[TwoRowTableau(2, tuple(entry["second_row"]))])
    (row,) = doc["kernel"]
    _assert_lowest_terms(row["p_stay"], 1 - q)
    _assert_lowest_terms(row["p_up"], q)


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
    """``write_basis`` writes a term's ``vars`` as they are, so a form must
    refuse any index that is not an ``int``."""
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
    """``write_basis`` and ``write_measure`` write ``second_row``, and
    ``write_measure`` the table's ``level``, as they are, so a tableau must
    refuse any index that is not an ``int``."""
    args = {"level": 2, "second_row": [2]}
    args[field] = value
    with pytest.raises(TypeError):
        TwoRowTableau(args["level"], tuple(args["second_row"]))


def _buffered_basis(n, m, vectors):
    buf = io.StringIO()
    write_basis(buf, n, m, vectors)
    return buf.getvalue()


def _basis_doc(n, m, vectors):
    return {
        "n": n,
        "m": m,
        "vectors": [
            {
                "second_row": list(v.tableau.second_row),
                "terms": [{"vars": list(key), **_fraction(val)} for key, val in v.form.terms()],
                "norm_sq": _fraction(v.norm_sq),
            }
            for v in vectors
        ],
    }


def test_write_basis_equals_json_text():
    for n in range(0, 10):
        for m in range(n // 2 + 1):
            vectors = list(iter_basis(n, m))
            expect = _json_reference(_basis_doc(n, m, vectors))
            assert _buffered_basis(n, m, vectors) == expect, (n, m)


def test_write_basis_empty_lists_and_fractions():
    """Empty documents and term lists, fractional coefficients, ``2`` next
    to ``Fraction(2)`` in one vector and a value repeated across vectors
    all write as ``json.dumps`` lays them out."""
    u = TwoRowTableau(3, (2,))
    mixed = {(1,): 2, (2,): Fraction(2), (3,): Fraction(-1, 2)}
    vectors = [
        GzVector(u, SquareFreeForm(3, 1, {(1,): Fraction(-1, 2), (3,): 5}), Fraction(101, 4)),
        GzVector(TwoRowTableau(3, ()), SquareFreeForm.zero(3, 1), 0),
        GzVector(TwoRowTableau(3, (3,)), SquareFreeForm(3, 1, mixed), Fraction(2)),
    ]
    for vecs in ([], vectors):
        assert _buffered_basis(3, 1, vecs) == _json_reference(_basis_doc(3, 1, vecs))


def _measure_doc(prefix, table, kernel, match):
    return {
        "xi": str(prefix),
        "level": table.level,
        "table": {
            "level": table.level,
            "entries": [
                {"second_row": list(u.second_row), **_fraction(p)} for u, p in table.items()
            ],
        },
        "kernel": [
            {
                "n": n,
                "k": k,
                "bit": entry.bit,
                "p_stay": _fraction(entry.p_stay),
                "p_up": _fraction(entry.p_up),
            }
            for n, k, entry in kernel.rows()
        ],
        "oracle_match": match,
    }


def _buffered_measure(prefix, table, kernel, match):
    buf = io.StringIO()
    write_measure(buf, prefix, table, kernel, match)
    return buf.getvalue()


def _random_prefix(rng, length):
    """A prefix with at most t/2 ones among its first t bits, for every t."""
    bits, ones = [], 0
    for t in range(1, length + 1):
        bit = rng.randrange(2) if 2 * (ones + 1) <= t else 0
        bits.append(bit)
        ones += bit
    return BitPrefix(tuple(bits))


def test_write_measure_equals_json_dumps():
    """Every level up to 12 of a length-1 prefix (an empty kernel), the
    all-zero prefix (a one-entry table), the alternating prefix, 0011...
    and a random prefix, each with ``oracle_match`` true and false."""
    prefixes = [
        BitPrefix.from_string("0"),
        BitPrefix.from_string("0" * 12),
        BitPrefix.alternating(12),
        BitPrefix.from_string("001100110011"),
        _random_prefix(random.Random(2005), 12),
    ]
    for prefix in prefixes:
        for n in range(1, len(prefix) + 1):
            table = spectral_measure(prefix, n)
            kernel = kernel_from_prefix(prefix, n)
            assert table == path_product_table(kernel)
            for verdict in (True, False):
                text = _buffered_measure(prefix, table, kernel, verdict)
                expect = _json_reference(_measure_doc(prefix, table, kernel, verdict))
                assert text == expect, (str(prefix), n, verdict)
    assert not kernel_from_prefix(prefixes[0], 1).rows()
    assert len(spectral_measure(prefixes[1], 12).probs) == 1


def test_write_measure_writes_a_missing_bit_as_null():
    prefix = BitPrefix.from_string("01")
    table, kernel = spectral_measure(prefix), central_kernel(3)
    text = _buffered_measure(prefix, table, kernel, False)
    assert text == _json_reference(_measure_doc(prefix, table, kernel, False))
    assert text.count('"bit": null') == len(kernel.rows()) == 3


def test_table_roundtrip_and_layout():
    prefix = BitPrefix.from_string("01")
    table = spectral_measure(prefix)
    text = _buffered_measure(prefix, table, kernel_from_prefix(prefix), True)
    assert json.loads(text)["table"] == {
        "level": 2,
        "entries": [
            {"second_row": [], "num": "1", "den": "2"},
            {"second_row": [2], "num": "1", "den": "2"},
        ],
    }
    prefix = BitPrefix.from_string("001011")
    table = spectral_measure(prefix)
    obj = json.loads(_buffered_measure(prefix, table, kernel_from_prefix(prefix), True))["table"]
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
    prefix = BitPrefix.from_string("001")
    kern = kernel_from_prefix(prefix)
    rows = json.loads(_buffered_measure(prefix, spectral_measure(prefix), kern, True))["kernel"]
    assert len(rows) == len(kern.rows()) == 2
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
    table = trace_table(3)
    text = "".join(trace_rows(ks, table) for ks in [[0, 0, 1], [0, 1, 1]])
    assert text == (
        "1,0,1\n"
        "2,0,2\n"
        "3,1,1\n"
        "1,0,1\n"
        "2,1,0\n"
        "3,1,1\n"
    )


def test_trace_table_holds_every_row_to_the_depth_bound():
    table = trace_table(64)
    assert [len(row) for row in table] == [step // 2 + 1 for step in range(1, 65)]
    for step in range(1, 65):
        for k in range(step // 2 + 1):
            assert table[step - 1][k] == f"{step},{k},{step - 2 * k}\n"
    assert trace_table(0) == []


def test_trace_csv_of_ragged_paths_equals_formatted_rows():
    paths = [[0], [0, 1, 1], sample_path(central_kernel(64), 64, 5)]
    formatted = "".join(
        f"{step},{k},{step - 2 * k}\n"
        for ks in paths
        for step, k in enumerate(ks, start=1)
    )
    deep = trace_table(64)
    assert "".join(trace_rows(ks, deep) for ks in paths) == formatted
    for outside in ([0, -1], [0, 2], [1]):
        with pytest.raises(KeyError):
            trace_rows(outside, deep)


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

