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
    write_basis,
    write_kernel,
    write_measure,
    write_summary,
    write_trace,
)
from tworow.ygraph import TwoRowTableau


def _written(writer, *args):
    """The text ``writer(handle, *args)`` writes to a fresh handle."""
    buf = io.StringIO()
    writer(buf, *args)
    return buf.getvalue()


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
    coefficient writes no term)."""
    vec = GzVector(TwoRowTableau(1, ()), [x], [()], x)
    (obj,) = json.loads(_written(write_basis, 1, 0, [vec]))["vectors"]
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
    keys = list(combinations(range(1, f.n + 1), f.k))
    vec = GzVector(TwoRowTableau(f.n, ()), [f.coeffs.get(key, 0) for key in keys], keys, norm_sq)
    (obj,) = json.loads(_written(write_basis, f.n, f.k, [vec]))["vectors"]
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
    doc = json.loads(_written(write_measure, BitPrefix.from_string("01"), table, kernel, True))
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
            assert _written(write_basis, n, m, vectors) == expect, (n, m)


def test_write_basis_empty_lists_and_fractions():
    """Empty documents and term lists, fractional coefficients, ``2`` next
    to ``Fraction(2)`` in one vector and a value repeated across vectors
    all write as ``json.dumps`` lays them out."""
    keys = [(1,), (2,), (3,)]
    vectors = [
        GzVector(TwoRowTableau(3, (2,)), [Fraction(-1, 2), 0, 5], keys, Fraction(101, 4)),
        GzVector(TwoRowTableau(3, ()), [0, 0, 0], keys, 0),
        GzVector(TwoRowTableau(3, (3,)), [2, Fraction(2), Fraction(-1, 2)], keys, Fraction(2)),
    ]
    for vecs in ([], vectors):
        assert _written(write_basis, 3, 1, vecs) == _json_reference(_basis_doc(3, 1, vecs))


coefficients = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=6), st.just(0))


@given(st.data())
def test_write_basis_writes_the_nonzero_dense_coefficients(data):
    """Hand-built vectors with zero, negative and ``Fraction`` entries on
    every m-subset write as ``json.dumps`` lays out their nonzero terms,
    in key order, next to a reference read straight off the lists."""
    n = data.draw(st.integers(0, 6))
    m = data.draw(st.integers(0, n // 2))
    keys = list(combinations(range(1, n + 1), m))
    vectors = [
        GzVector(
            TwoRowTableau(n, ()),
            data.draw(st.lists(coefficients, min_size=len(keys), max_size=len(keys))),
            keys,
            data.draw(st.fractions()),
        )
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    doc = {
        "n": n,
        "m": m,
        "vectors": [
            {
                "second_row": [],
                "terms": [
                    {"vars": list(key), **_fraction(Fraction(c))}
                    for key, c in zip(keys, vec.coeffs)
                    if c
                ],
                "norm_sq": _fraction(vec.norm_sq),
            }
            for vec in vectors
        ],
    }
    assert _written(write_basis, n, m, vectors) == _json_reference(doc)


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
                text = _written(write_measure, prefix, table, kernel, verdict)
                expect = _json_reference(_measure_doc(prefix, table, kernel, verdict))
                assert text == expect, (str(prefix), n, verdict)
    assert not kernel_from_prefix(prefixes[0], 1).rows()
    assert len(spectral_measure(prefixes[1], 12).probs) == 1


def test_write_measure_writes_a_missing_bit_as_null():
    prefix = BitPrefix.from_string("01")
    table, kernel = spectral_measure(prefix), central_kernel(3)
    text = _written(write_measure, prefix, table, kernel, False)
    assert text == _json_reference(_measure_doc(prefix, table, kernel, False))
    assert text.count('"bit": null') == len(kernel.rows()) == 3


def test_table_roundtrip_and_layout():
    prefix = BitPrefix.from_string("01")
    table = spectral_measure(prefix)
    text = _written(write_measure, prefix, table, kernel_from_prefix(prefix), True)
    assert json.loads(text)["table"] == {
        "level": 2,
        "entries": [
            {"second_row": [], "num": "1", "den": "2"},
            {"second_row": [2], "num": "1", "den": "2"},
        ],
    }
    prefix = BitPrefix.from_string("001011")
    table = spectral_measure(prefix)
    text = _written(write_measure, prefix, table, kernel_from_prefix(prefix), True)
    obj = json.loads(text)["table"]
    rows = [tuple(entry["second_row"]) for entry in obj["entries"]]
    assert rows == sorted(set(rows), key=lambda row: (len(row), row))
    assert len(rows) == len(table.probs) > 2
    for row, entry in zip(rows, obj["entries"]):
        _assert_lowest_terms(entry, table.prob(TwoRowTableau(obj["level"], row)))


def test_kernel_csv_golden():
    kern = kernel_from_prefix(BitPrefix.from_string("0101"))
    expect = (
        "n,k,bit,p_stay_num,p_stay_den,p_up_num,p_up_den\n"
        "1,0,1,1,2,1,2\n"
        "2,0,0,2,3,1,3\n"
        "2,1,0,1,1,0,1\n"
        "3,0,1,1,2,1,2\n"
        "3,1,1,1,2,1,2\n"
    )
    assert _written(write_kernel, kern) == expect


def test_central_kernel_csv_empty_bit_column():
    text = _written(write_kernel, central_kernel(3))
    lines = text.strip().split("\n")
    assert lines[0] == "n,k,bit,p_stay_num,p_stay_den,p_up_num,p_up_den"
    assert lines[1] == "1,0,,3,4,1,4"
    assert lines[2] == "2,0,,2,3,1,3"
    assert lines[3] == "2,1,,1,1,0,1"


def test_kernel_rows_mirror_csv():
    prefix = BitPrefix.from_string("001")
    kern = kernel_from_prefix(prefix)
    text = _written(write_measure, prefix, spectral_measure(prefix), kern, True)
    rows = json.loads(text)["kernel"]
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
    text = _written(write_trace, 3, [[0, 0, 1], [0, 1, 1]])
    assert text == (
        "step,k,j\n"
        "1,0,1\n"
        "2,0,2\n"
        "3,1,1\n"
        "1,0,1\n"
        "2,1,0\n"
        "3,1,1\n"
    )


def test_trace_table_holds_every_row_to_the_depth_bound():
    """For each k <= 32 the path min(k, step // 2) over steps 1..64 holds
    (step, k') for every k' <= min(k, step // 2), so the 33 paths together
    write every row a depth-64 path can hold."""
    paths = [[min(k, step // 2) for step in range(1, 65)] for k in range(33)]
    rows = [f"{step},{k},{step - 2 * k}\n" for ks in paths for step, k in enumerate(ks, 1)]
    assert _written(write_trace, 64, paths) == "step,k,j\n" + "".join(rows)
    assert len(rows) == 33 * 64
    assert set(rows) == {
        f"{step},{k},{step - 2 * k}\n" for step in range(1, 65) for k in range(step // 2 + 1)
    }
    assert len(set(rows)) == 1088
    assert _written(write_trace, 0, []) == _written(write_trace, 64, []) == "step,k,j\n"


def test_trace_csv_of_ragged_paths_equals_formatted_rows():
    paths = [[0], [0, 1, 1], sample_path(central_kernel(64), 64, 5)]
    formatted = "".join(
        f"{step},{k},{step - 2 * k}\n"
        for ks in paths
        for step, k in enumerate(ks, start=1)
    )
    assert _written(write_trace, 64, paths) == "step,k,j\n" + formatted
    for outside in ([0, -1], [0, 2], [1]):
        with pytest.raises(KeyError):
            write_trace(io.StringIO(), 64, [outside])


def test_write_trace_writes_each_path_before_drawing_the_next():
    """The i-th request for a path sees the header and the rows of the
    i - 1 paths before it in the handle, and nothing more."""
    paths = [[0], [0, 1, 1], [0, 1], sample_path(central_kernel(64), 64, 5)]
    buf = io.StringIO()
    seen = []

    def drawn():
        for ks in paths:
            seen.append(buf.getvalue())
            yield ks
        seen.append(buf.getvalue())

    write_trace(buf, 64, drawn())
    expect = ["step,k,j\n"]
    for ks in paths:
        expect.append(expect[-1] + "".join(f"{t},{k},{t - 2 * k}\n" for t, k in enumerate(ks, 1)))
    assert seen == expect
    assert buf.getvalue() == expect[-1]


def test_summary_csv():
    rows = [
        (1, 0, 1000, 497, Fraction(1, 2), True),
        (2, 0, 1000, 700, Fraction(1, 3), False),
    ]
    assert _written(write_summary, rows) == (
        "n,k,trials,observed_up,p_up_num,p_up_den,sigma_ok\n"
        "1,0,1000,497,1,2,1\n"
        "2,0,1000,700,1,3,0\n"
    )

