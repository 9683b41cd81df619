"""Wire formats: JSON for forms, basis vectors and tables, CSV for kernels,
traces and sample summaries.  The package writes these formats and reads
none of them back.

All rationals travel as decimal strings in lowest terms with positive
denominators, and every writer is deterministic byte for byte: keys are
sorted, entries are sorted, lines end with a single newline.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Iterable, TextIO

from .forms import SquareFreeForm
from .gz import GzVector
from .markov import SpectralTable, TransitionKernel


def fraction_to_dict(x: Fraction | int) -> dict[str, str]:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def form_to_dict(f: SquareFreeForm) -> dict[str, Any]:
    terms = [{"vars": list(key), **fraction_to_dict(val)} for key, val in f.terms()]
    return {"n": f.n, "k": f.k, "terms": terms}


def gz_vector_to_dict(vec: GzVector) -> dict[str, Any]:
    return {
        "second_row": list(vec.tableau.second_row),
        "terms": form_to_dict(vec.form)["terms"],
        "norm_sq": fraction_to_dict(vec.norm_sq),
    }


def write_basis(handle: TextIO, n: int, m: int, vectors: Iterable[GzVector]) -> None:
    """Write ``json_text({"n": n, "m": m, "vectors": [gz_vector_to_dict(v)
    for v in vectors]})`` to handle, one vector at a time, byte for byte.
    Each vector's ``form.coeffs`` must hold its keys in lexicographic
    order, as ``iter_basis`` builds them; the terms are written in that
    order and not sorted again."""
    # A term's text after its numerator depends only on its monomial, and a
    # degree-m basis has only C(n, m) monomials, so each is laid out once.
    tails: dict[tuple[int, ...], str] = {}
    handle.write(f'{{\n  "m": {m},\n  "n": {n},\n  "vectors": [')
    sep = "\n"
    for vec in vectors:
        terms = []
        for key, val in vec.form.coeffs.items():
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = f'",\n          "vars": {_json_ints(key, 12)}\n        }}'
            terms.append(
                f'{{\n          "den": "{val.denominator}",'
                f'\n          "num": "{val.numerator}{tail}'
            )
        norm = vec.norm_sq
        handle.write(
            f'{sep}    {{\n      "norm_sq": {{\n        "den": "{norm.denominator}",'
            f'\n        "num": "{norm.numerator}"\n      }},'
            f'\n      "second_row": {_json_ints(vec.tableau.second_row, 8)},'
            f'\n      "terms": {_json_list(terms, 8)}\n    }}'
        )
        sep = ",\n"
    handle.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


def _json_list(items: list[str], indent: int) -> str:
    """A list of already-indented JSON values as ``json.dumps(indent=2)``
    lays it out with its items at ``indent`` spaces."""
    if not items:
        return "[]"
    pad = " " * indent
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + pad[:-2] + "]"


def _json_ints(values: Iterable[int], indent: int) -> str:
    return _json_list([str(v) for v in values], indent)


def table_to_dict(table: SpectralTable) -> dict[str, Any]:
    entries = [
        {"second_row": list(u.second_row), **fraction_to_dict(p)} for u, p in table.items()
    ]
    return {"level": table.level, "entries": entries}


KERNEL_HEADER = "n,k,bit,p_stay_num,p_stay_den,p_up_num,p_up_den"


def kernel_to_csv(kernel: TransitionKernel) -> str:
    lines = [KERNEL_HEADER]
    for n, k, entry in kernel.rows():
        bit = "" if entry.bit is None else str(entry.bit)
        lines.append(
            f"{n},{k},{bit},{entry.p_stay.numerator},{entry.p_stay.denominator},"
            f"{entry.p_up.numerator},{entry.p_up.denominator}"
        )
    return "\n".join(lines) + "\n"


def kernel_to_rows(kernel: TransitionKernel) -> list[dict[str, Any]]:
    rows = []
    for n, k, entry in kernel.rows():
        rows.append(
            {
                "n": n,
                "k": k,
                "bit": entry.bit,
                "p_stay": fraction_to_dict(entry.p_stay),
                "p_up": fraction_to_dict(entry.p_up),
            }
        )
    return rows


TRACE_HEADER = "step,k,j"


def trace_table(depth: int) -> list[dict[int, str]]:
    """Every CSV row a path of up to ``depth`` levels can hold, laid out
    once: ``table[step - 1][k]`` is ``f"{step},{k},{step - 2 * k}\n"`` for
    0 <= 2k <= step; the j column is the walk coordinate level - 2k."""
    return [
        {k: f"{step},{k},{step - 2 * k}\n" for k in range(step // 2 + 1)}
        for step in range(1, depth + 1)
    ]


def trace_rows(ks: list[int], table: list[dict[int, str]]) -> str:
    """One path's CSV rows, each ending in a newline: the path is its list
    of second-row lengths at levels 1, 2, ..., as ``sample_path`` returns
    it, and ``table`` is a ``trace_table`` at least as deep.  Steps
    restart at 1 for every path; a k outside 0 <= 2k <= step raises
    ``KeyError``."""
    return "".join(map(dict.__getitem__, table, ks))


def trace_to_csv(paths: list[list[int]]) -> str:
    """The header line, then every path's ``trace_rows``."""
    table = trace_table(max(map(len, paths), default=0))
    return TRACE_HEADER + "\n" + "".join(trace_rows(ks, table) for ks in paths)


SUMMARY_HEADER = "n,k,trials,observed_up,p_up_num,p_up_den,sigma_ok"


def summary_to_csv(
    rows: list[tuple[int, int, int, int, Fraction, bool]]
) -> str:
    lines = [SUMMARY_HEADER]
    for n, k, trials, ups, p_up, ok in rows:
        lines.append(
            f"{n},{k},{trials},{ups},{p_up.numerator},{p_up.denominator},"
            f"{1 if ok else 0}"
        )
    return "\n".join(lines) + "\n"


def json_text(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
