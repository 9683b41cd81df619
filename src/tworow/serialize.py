"""Wire formats: JSON for basis vectors and spectral measures, CSV for
kernels, traces and sample summaries.  Each format has one writer,
``write_<doc>(handle, ...)``, which writes to a handle as it goes; the
package reads none of them back.

The JSON writers lay out their documents by hand, one list item at a time,
byte for byte as ``json.dumps(indent=2, sort_keys=True)`` plus a newline.
All rationals travel as decimal strings in lowest terms with positive
denominators, and every writer is deterministic byte for byte: keys are
sorted, entries are sorted, lines end with a single newline.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress
from operator import add
from typing import Iterable, Sequence, TextIO

from .gz import GzVector
from .markov import BitPrefix, SpectralTable, TransitionKernel


def write_basis(handle: TextIO, n: int, m: int, vectors: Iterable[GzVector]) -> None:
    """Write ``{"m", "n", "vectors"}`` to handle as ``json.dumps(indent=2,
    sort_keys=True)`` lays it out, one vector at a time, byte for byte.
    Each vector is ``{"norm_sq", "second_row", "terms"}``, each term
    ``{"den", "num", "vars"}``, and ``norm_sq`` a ``{"den", "num"}``.
    Each vector's ``coeffs`` lists its coefficient on every m-subset of
    1..n in lexicographic order, zeros included, as ``iter_basis`` builds
    them; its nonzero terms are written in that order."""
    # A term's text is a head that depends only on its coefficient and a
    # tail that depends only on its monomial.  A degree-m basis has C(n, m)
    # monomials and few distinct coefficients, so each piece is laid out
    # once and every term is one concatenation.
    tails = [
        f'",\n          "vars": {_json_ints(key, 12)}\n        }}'
        for key in combinations(range(1, n + 1), m)
    ]
    heads = _TermHeads()
    handle.write(f'{{\n  "m": {m},\n  "n": {n},\n  "vectors": [')
    sep = "\n"
    for vec in vectors:
        coeffs = vec.coeffs
        terms = ",\n        ".join(
            map(add, map(heads.__getitem__, compress(coeffs, coeffs)), compress(tails, coeffs))
        )
        terms = f"[\n        {terms}\n      ]" if terms else "[]"
        norm = vec.norm_sq
        handle.write(
            f'{sep}    {{\n      "norm_sq": {_json_pair(norm.numerator, norm.denominator, 8)},'
            f'\n      "second_row": {_json_ints(vec.tableau.second_row, 8)},'
            f'\n      "terms": {terms}\n    }}'
        )
        sep = ",\n"
    handle.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


class _TermHeads(dict):
    """A basis term's text up to its numerator, keyed by its coefficient and
    laid out on first lookup; ``2`` and ``Fraction(2)`` share one entry."""

    def __missing__(self, val: Fraction) -> str:
        self[val] = f'{{\n          "den": "{val.denominator}",\n          "num": "{val.numerator}'
        return self[val]


def write_measure(
    handle: TextIO,
    prefix: BitPrefix,
    table: SpectralTable,
    kernel: TransitionKernel,
    oracle_match: bool,
) -> None:
    """Write the ``measure`` document ``{"kernel", "level", "oracle_match",
    "table", "xi"}`` to handle as ``json.dumps(indent=2, sort_keys=True)``
    lays it out, one kernel row and one table entry at a time, byte for
    byte.  ``level`` is the table's level and ``xi`` the whole prefix.
    ``kernel`` lists ``{"bit", "k", "n", "p_stay", "p_up"}`` in
    ``kernel.rows()`` order, with ``bit`` null where the kernel has none
    and each probability a ``{"den", "num"}``; ``table`` is ``{"entries",
    "level"}``, with the entries ``{"den", "num", "second_row"}`` in
    ``table.weights()`` order."""
    handle.write('{\n  "kernel": [')
    sep = "\n"
    for n, k, entry in kernel.rows():
        bit = "null" if entry.bit is None else entry.bit
        handle.write(
            f'{sep}    {{\n      "bit": {bit},\n      "k": {k},\n      "n": {n},'
            f'\n      "p_stay": {_json_pair(entry.stay, entry.den, 8)},'
            f'\n      "p_up": {_json_pair(entry.up, entry.den, 8)}\n    }}'
        )
        sep = ",\n"
    close = "]" if sep == "\n" else "\n  ]"
    match = "true" if oracle_match else "false"
    handle.write(
        f'{close},\n  "level": {table.level},\n  "oracle_match": {match},'
        '\n  "table": {\n    "entries": ['
    )
    # A table holds mass 1, so it has at least one entry.
    sep = "\n"
    for row, num, den in table.weights():
        handle.write(
            f'{sep}      {{\n        "den": "{den}",\n        "num": "{num}",'
            f'\n        "second_row": {_json_ints(row, 10)}\n      }}'
        )
        sep = ",\n"
    handle.write(f'\n    ],\n    "level": {table.level}\n  }},\n  "xi": "{prefix}"\n}}\n')


def _json_pair(num: int, den: int, indent: int) -> str:
    """``{"den", "num"}`` of num / den, given in lowest terms, as
    ``json.dumps(indent=2)`` lays it out with its keys at ``indent`` spaces."""
    pad = " " * indent
    return f'{{\n{pad}"den": "{den}",\n{pad}"num": "{num}"\n{pad[:-2]}}}'


def _json_ints(values: Sequence[int], indent: int) -> str:
    """A list of ints as ``json.dumps(indent=2)`` lays it out with its
    items at ``indent`` spaces."""
    if not values:
        return "[]"
    pad = " " * indent
    return "[\n" + pad + (",\n" + pad).join(map(str, values)) + "\n" + pad[:-2] + "]"


def write_kernel(handle: TextIO, kernel: TransitionKernel) -> None:
    """Write the kernel CSV to handle: the header
    ``n,k,bit,p_stay_num,p_stay_den,p_up_num,p_up_den``, then one row per
    entry in ``kernel.rows()`` order, with the bit column empty where the
    kernel has none."""
    handle.write("n,k,bit,p_stay_num,p_stay_den,p_up_num,p_up_den\n")
    for n, k, entry in kernel.rows():
        bit = "" if entry.bit is None else entry.bit
        handle.write(f"{n},{k},{bit},{entry.stay},{entry.den},{entry.up},{entry.den}\n")


def write_trace(handle: TextIO, depth: int, paths: Iterable[list[int]]) -> None:
    """Write the trace CSV to handle: the header ``step,k,j``, then each
    path's rows as the path is drawn from ``paths``.  A path is its list of
    second-row lengths at levels 1, 2, ..., as ``sample_path`` returns it,
    at most ``depth`` long; steps restart at 1 for every path, and the j
    column is the walk coordinate step - 2k.  A k outside 0 <= 2k <= step
    raises ``KeyError``."""
    # Every row a path can hold, laid out once: rows[step - 1][k].
    rows = [
        {k: f"{step},{k},{step - 2 * k}\n" for k in range(step // 2 + 1)}
        for step in range(1, depth + 1)
    ]
    handle.write("step,k,j\n")
    for ks in paths:
        handle.write("".join(map(dict.__getitem__, rows, ks)))


def write_summary(
    handle: TextIO, rows: Iterable[tuple[int, int, int, int, int, int, bool]]
) -> None:
    """Write the sample summary CSV to handle: the header
    ``n,k,trials,observed_up,p_up_num,p_up_den,sigma_ok``, then one line
    per ``(n, k, trials, ups, up, den, ok)`` row, p_up = up / den, ok 1 or 0."""
    handle.write("n,k,trials,observed_up,p_up_num,p_up_den,sigma_ok\n")
    for n, k, trials, ups, up, den, ok in rows:
        handle.write(f"{n},{k},{trials},{ups},{up},{den},{int(ok)}\n")
