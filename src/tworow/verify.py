"""Self-checks tying the closed formulas to first-principles computations.

Every check recomputes something two independent ways and compares exactly.
The suites are sized by level bounds so both the command line tool and the
test suite can run them at the documented desk scale.

The library keeps one closed route per fact; the first-principles oracles
it is checked against live here, private to this module:

- ``_expanded_harmonic``: the harmonic vector as the sum of its products
  of differences, each expanded by the unchecked core of
  ``forms.pseudo_monomial``, summed into one dict;
- ``_yjm_misses``, the one eigen check: every level's transposition sum,
  given as the gather rows of ``gz.yjm_rows``, applied to the coefficient
  columns of a whole batch of forms at once; ``check_basis`` builds the
  rows once per cached basis;
- sums of products of dense coefficient lists, ``sum(map(mul, a, b))``,
  against which every closed norm, the orthogonality of every full basis,
  the isometry of every lift and the norm shares of every split are checked;
- ``forms.psi``: the lift term by term, one index tuple per l-subset of a
  monomial's complement, against which every lifted basis vector is checked;
- ``_projection_table``: the spectral table of any nonzero form, its inner
  product with every vector of the cached full basis read off the columns
  of its monomials;
- ``_acts_by``: an adjacent-transposition matrix by its definition, each
  vector's image under ``forms.act`` times the common denominator D of its
  shape's matrices, against the integer combination of dense coefficients
  that the row of D times the matrix gives;
- ``_central_transition_oracle``: the central kernel as ratios of shape
  weights between consecutive levels;
- ``linalg.harmonic_dim``: harmonic dimensions by exact rank, eliminated
  mod one prime on the sparse rows of the divergence.

A whole shape's vectors, at any degree, come only from the cached
``gz.full_gz_basis`` that ``check_basis`` certifies; it reads the
harmonics as the last block of each basis.  Only ``check_good`` builds
single vectors, the ones it tests, each by ``gz.gz_in_H`` on a chain of
the branching rule of its own, the same recurrence that builds the bases.
A suite compares basis vectors as their dense ``coeffs``, and reads a
vector's ``form``, a fresh view, once where a ``forms`` route takes one:
the harmonic for ``psi``, f0 and f for ``decompose_step``, a shape's
block for ``act``.  What those return is laid out on the keys of the
vectors or of a lift table, so every oracle runs as C-level list passes.
``check_decompose`` passes one dict of ``forms`` lift tables to every
``decompose_step`` and ``forms._scaled_preimage`` of the call.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, compress, count, product, repeat
from math import comb, lcm
from operator import add, mul, ne
from typing import NamedTuple

from .forms import (
    Key,
    LiftTables,
    Permutation,
    Scalar,
    SquareFreeForm,
    _dense,
    _expand_pairs,
    _scaled_preimage,
    _table,
    act,
    decompose_step,
    psi,
)
from .gz import (
    GzVector,
    YjmRows,
    full_gz_basis,
    gz_in_H,
    orthogonal_form_matrix,
    yjm_rows,
)
from .linalg import harmonic_dim
from .markov import (
    BitPrefix,
    SpectralTable,
    _reduced,
    central_alpha_transition,
    central_shape_weight,
    central_table,
    good_tableau_ratio,
    induced_transition,
    is_markov,
    kernel_from_prefix,
    kernel_matches,
    path_product_table,
    spectral_measure,
)
from .ygraph import (
    TwoRowDiagram,
    TwoRowTableau,
    dim,
    enumerate_all_tableaux,
    enumerate_diagrams,
    good_tableau,
)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _result(name: str, failures: list[str], ok_detail: str) -> CheckResult:
    if failures:
        shown = "; ".join(failures[:5])
        if len(failures) > 5:
            shown += f"; and {len(failures) - 5} more"
        return CheckResult(name, False, shown)
    return CheckResult(name, True, ok_detail)


def _expanded_harmonic(u: TwoRowTableau) -> SquareFreeForm:
    """The harmonic vector of u from its definition: the sum over every
    choice of lows i_j < p_j, with all 2k indices distinct, of the
    product of differences prod_j (x_{i_j} - x_{p_j}), summed into one
    dict.  Each product is expanded by the unchecked core of
    ``forms.pseudo_monomial``: the indices are distinct by construction."""
    ps = u.second_row
    total: dict[Key, Scalar] = {}
    for lows in product(*(range(1, p) for p in ps)):
        if len(set(lows + ps)) == 2 * len(ps):
            for key, val in _expand_pairs(zip(lows, ps)).items():
                total[key] = total.get(key, 0) + val
    return SquareFreeForm._trusted(u.n, len(ps), total)


def _contents(u: TwoRowTableau) -> list[int]:
    """The content of the cell of each entry 1..n of u: the eigenvalue of
    each level's transposition sum on the vector of u."""
    return [u.content(l) for l in range(1, u.n + 1)]


# reduce(_add_columns, columns) is their elementwise sum, as one iterator.
_add_columns = partial(map, add)


def _yjm_misses(
    levels: Sequence[YjmRows],
    contents: Sequence[Sequence[int]],
    rows: Sequence[Sequence[Scalar]],
) -> set[int]:
    """The positions of the degree-k dense rows that some level l's
    transposition sum, ``levels[l - 1]`` as the ``gz.yjm_rows`` of the
    same n and k, does not scale by the content at l in the ``_contents``
    of the same position.  The rows are read as columns, one per k-subset
    T across every form: the columns gathered onto x_T sum, form by form,
    to (content - fixed count) times the column of T."""
    columns = list(zip(*rows))
    columns.append((0,) * len(rows))
    misses: set[int] = set()
    for level, at_level in zip(levels, zip(*contents)):
        shifted = {fixed: [c - fixed for c in at_level] for fixed in {f for _, f, _ in level}}
        for (_, fixed, gather), column in zip(level, columns):
            image = list(reduce(_add_columns, gather(columns)))
            expect = list(map(mul, shifted[fixed], column))
            if image != expect:
                misses.update(compress(count(), map(ne, image, expect)))
    return misses


def _projection_table(
    g: SquareFreeForm, layouts: dict[tuple[int, int], dict[Key, tuple[int, ...]]] | None = None
) -> SpectralTable:
    """The spectral table of a nonzero integral form g read off the full basis
    of its level and degree: each vector v_u weighs <g, v_u>^2 / (|v_u|^2 |g|^2).
    The full basis is laid out as one column per monomial, the coefficients
    of every vector there, and <g, v_u> for every u sums g's monomials'
    columns.  ``layouts`` holds each (n, k)'s columns, built on first use,
    so the forms of one check share them."""
    n, k = g.n, g.k
    basis = full_gz_basis(n, k)
    if layouts is None:
        layouts = {}
    columns = layouts.get((n, k))
    if columns is None:
        columns = layouts[n, k] = dict(zip(basis[0].keys, zip(*(v.coeffs for v in basis))))
    values = list(g.coeffs.values())
    g_sq = sum(map(mul, values, values))
    terms = [list(map(mul, repeat(val), columns[key])) for key, val in g.coeffs.items()]
    pairs: dict[Key, tuple[int, int]] = {}
    for vec, c in zip(basis, map(sum, zip(*terms))):
        if c:
            pairs[vec.tableau.second_row] = _reduced(c * c, vec.norm_sq * g_sq)
    return SpectralTable._trusted(n, pairs)


# The vectors of one shape at one degree, each with its form.
Block = list[tuple[GzVector, SquareFreeForm]]


def _acts_by(matrix: list[list[int]], scale: int, i: int, block: Block) -> bool:
    """Whether (i i+1) sends each vector of ``block`` to the combination
    its row of ``matrix / scale`` gives; a matrix of another size fails.
    The combination of ``coeffs`` by the integer row is compared with
    ``scale`` times the image of the vector's form under ``act``."""
    size = len(block)
    if len(matrix) != size or any(len(row) != size for row in matrix):
        return False
    swap = Permutation.transposition(block[0][0].tableau.n, i, i + 1)
    for entries, (vec, form) in zip(matrix, block):
        combo = [0] * len(vec.coeffs)
        for c, (other, _) in zip(entries, block):
            if c:
                combo = list(map(add, combo, map(mul, repeat(c), other.coeffs)))
        if combo != list(map(mul, repeat(scale), _dense(act(swap, form), vec.keys))):
            return False
    return True


def _central_transition_oracle(n: int, k: int) -> tuple[Fraction, Fraction]:
    """The central walk's stay/up probabilities from first principles, as
    weight ratios between consecutive levels."""
    here = central_shape_weight(TwoRowDiagram(n, k))
    stay = central_shape_weight(TwoRowDiagram(n + 1, k)) / here
    if 2 * (k + 1) <= n + 1:
        up = central_shape_weight(TwoRowDiagram(n + 1, k + 1)) / here
    else:
        up = Fraction(0)
    return stay, up


def check_basis(n_max: int) -> list[CheckResult]:
    """Eigenvector property, orthogonality and closed norms of the basis,
    and the closed harmonic vectors against their expansion.  Each full
    basis is checked whole, as the dense ``coeffs`` of its vectors; its last
    block, of shape (n - m, m), holds the harmonic vectors, whose failures
    each level reports before those of its lifted vectors.  A basis must
    also have C(n, m) vectors: that many orthogonal ones span the module."""
    eig_fail: list[str] = []
    orth_fail: list[str] = []
    norm_fail: list[str] = []
    vectors = 0
    for n in range(1, n_max + 1):
        contents = {u: _contents(u) for u in enumerate_all_tableaux(n)}
        lifted_eig: list[str] = []
        lifted_norm: list[str] = []
        for m in range(n // 2 + 1):
            basis = full_gz_basis(n, m)
            if len(basis) != comb(n, m):
                orth_fail.append(f"n={n} m={m}: {len(basis)} vectors, not {comb(n, m)}")
            rows = [vec.coeffs for vec in basis]
            levels = [yjm_rows(n, m, l) for l in range(1, n + 1)]
            misses = _yjm_misses(levels, [contents[vec.tableau] for vec in basis], rows)
            for pos, (vec, row) in enumerate(zip(basis, rows)):
                ps = vec.tableau.second_row
                normed = vec.norm_sq == sum(map(mul, row, row))
                if len(ps) == m:
                    vectors += 1
                    if row != _dense(_expanded_harmonic(vec.tableau), vec.keys):
                        eig_fail.append(f"harmonic {ps} at n={n} differs from its expansion")
                    if pos in misses:
                        eig_fail.append(f"harmonic {ps} at n={n}")
                    if not normed:
                        norm_fail.append(f"harmonic norm {ps} at n={n}")
                if pos in misses:
                    lifted_eig.append(f"lifted {ps} at n={n} m={m}")
                if not normed:
                    lifted_norm.append(f"lifted norm {ps} at n={n} m={m}")
            for (a, row_a), (b, row_b) in combinations(zip(basis, rows), 2):
                if sum(map(mul, row_a, row_b)):
                    orth_fail.append(
                        f"n={n} m={m}: {a.tableau.second_row} vs {b.tableau.second_row}"
                    )
        eig_fail += lifted_eig
        norm_fail += lifted_norm
    return [
        _result(
            "basis-eigen",
            eig_fail,
            f"all {vectors} vectors at n <= {n_max} are eigenvectors of every "
            f"partial transposition sum, eigenvalues the entry contents",
        ),
        _result(
            "basis-orthogonal",
            orth_fail,
            f"full bases pairwise orthogonal for n <= {n_max}",
        ),
        _result(
            "basis-norms",
            norm_fail,
            f"squared norms match prod (p_j - 2j + 1)(p_j - 2j + 2) and its "
            f"binomial lift for n <= {n_max}",
        ),
    ]


def _lifts(n: int) -> dict[TwoRowTableau, list[GzVector | None]]:
    """Each tableau's cached full-basis vectors at level n, of every degree
    from its k up, with None for one missing from its basis."""
    cached = {(m, v.tableau): v for m in range(n // 2 + 1) for v in full_gz_basis(n, m)}
    return {
        u: [cached.get((m, u)) for m in range(len(u.second_row), n // 2 + 1)]
        for u in enumerate_all_tableaux(n)
    }


def check_psi(n_max: int) -> list[CheckResult]:
    """The averaging map scales squared norms by C(n - 2k, m - k), and
    every lifted vector of the cached full basis is psi of its harmonic,
    the basis's degree-k vector of the same tableau, read as a form once
    per tableau; a vector missing from its basis fails the check."""
    failures: list[str] = []
    cases = 0
    for n in range(0, n_max + 1):
        for u, lifts in _lifts(n).items():
            if None in lifts:
                failures.append(f"n={n}, u={u.second_row}: a basis vector is missing")
                continue
            k, base = len(u.second_row), lifts[0]
            harmonic, base_sq = base.form, sum(map(mul, base.coeffs, base.coeffs))
            for m, vec in enumerate(lifts, start=k):
                cases += 1
                lifted = _dense(psi(harmonic, m - k), vec.keys)
                if sum(map(mul, lifted, lifted)) != comb(n - 2 * k, m - k) * base_sq:
                    failures.append(f"n={n}, u={u.second_row}, m={m}")
                if lifted != vec.coeffs:
                    failures.append(f"basis vector n={n}, u={u.second_row}, m={m} is not psi")
    return [
        _result(
            "psi-isometry",
            failures,
            f"{cases} lifts at n <= {n_max} scale squared norms by "
            f"C(n - 2k, m - k); at k = 0 this is the norm C(n, m) of the "
            f"averaged constant",
        )
    ]


def check_decompose(n_max: int) -> list[CheckResult]:
    """One-level splits: sum, orthogonality, norm ratios, exact preimages,
    of every vector of the cached full bases over its harmonic, the basis
    vector of degree k of the same tableau (``check_psi`` ties the two by
    ``psi``), each read as a form once; a vector missing from its basis
    fails the check.  The two pieces and d times the whole, built here from
    f, are laid out on the keys of the stay piece's preimage table and
    checked as list passes.  The splits and preimages share one dict of
    lift tables, dropped when the call returns."""
    failures: list[str] = []
    cases = 0
    tables: LiftTables = {}
    for n in range(1, n_max + 1):
        for u, lifts in _lifts(n).items():
            if None in lifts:
                failures.append(f"missing n={n} u={u.second_row}")
                continue
            k = len(u.second_row)
            f0 = lifts[0].form
            d = n - 2 * k + 1
            for m, vec in enumerate(lifts, start=k):
                f = vec.form if m > k else f0
                for bit in (0, 1):
                    if 2 * (m + bit) > n + 1:
                        continue
                    cases += 1
                    stay, up = decompose_step(f, f0, bit, tables)
                    whole = {key + (n + 1,) * bit: d * c for key, c in f.coeffs.items()}
                    rows = (stay, up, SquareFreeForm._trusted(n + 1, m + bit, whole))
                    keys = _table(tables, n + 1, m + bit, k).keys
                    stay_row, up_row, whole_row = (_dense(row, keys) for row in rows)
                    if list(map(add, stay_row, up_row)) != whole_row:
                        failures.append(f"sum n={n} u={u.second_row} m={m} b={bit}")
                        continue
                    if sum(map(mul, stay_row, up_row)):
                        failures.append(f"orth n={n} u={u.second_row} m={m} b={bit}")
                    whole_sq = sum(map(mul, whole_row, whole_row))
                    p_stay, p_up = induced_transition(n, k, m, bit)
                    if sum(map(mul, stay_row, stay_row)) != p_stay * whole_sq:
                        failures.append(f"stay-norm n={n} u={u.second_row} m={m} b={bit}")
                    if sum(map(mul, up_row, up_row)) != p_up * whole_sq:
                        failures.append(f"up-norm n={n} u={u.second_row} m={m} b={bit}")
                    pieces = [(p, j) for p, j in ((stay, k), (up, k + 1)) if not p.is_zero()]
                    if any(isinstance(_scaled_preimage(p, j, tables), str) for p, j in pieces):
                        failures.append(f"preimage n={n} u={u.second_row} m={m} b={bit}")
    return [
        _result(
            "decompose-step",
            failures,
            f"{cases} splits at n <= {n_max}: components sum back, are "
            f"orthogonal, carry the kernel's share of the squared norm, and "
            f"project back to harmonic forms",
        )
    ]


def _valid_prefixes(length: int) -> list[BitPrefix]:
    out = []
    for bits in product((0, 1), repeat=length):
        try:
            out.append(BitPrefix(bits))
        except ValueError:
            continue
    return out


def check_spectral(n_max: int) -> list[CheckResult]:
    """Rook-count tables equal the basis projection and the kernel path
    products for every valid direction sequence, and the step ratios
    equal the kernel exactly."""
    table_fail: list[str] = []
    markov_fail: list[str] = []
    prefixes = 0
    shallower: dict[tuple[int, ...], SpectralTable] = {}
    layouts: dict[tuple[int, int], dict[Key, tuple[int, ...]]] = {}
    for length in range(1, n_max + 1):
        tables: dict[tuple[int, ...], SpectralTable] = {}
        for prefix in _valid_prefixes(length):
            prefixes += 1
            left = tables[prefix.bits] = spectral_measure(prefix)
            key = tuple(t for t, b in enumerate(prefix.bits, start=1) if b)
            if left != _projection_table(SquareFreeForm(length, len(key), {key: 1}), layouts):
                table_fail.append(f"xi={prefix} (basis projection)")
                continue
            kernel = kernel_from_prefix(prefix)
            if left != path_product_table(kernel):
                table_fail.append(f"xi={prefix} (path products)")
                continue
            if length >= 2:
                shallow = shallower[prefix.bits[:-1]]
                if not is_markov(shallow, left).ok:
                    markov_fail.append(f"xi={prefix}")
                elif not kernel_matches(shallow, left, kernel):
                    markov_fail.append(f"kernel xi={prefix}")
        shallower = tables
    return [
        _result(
            "spectral-vs-paths",
            table_fail,
            f"projection and path-product tables agree for all {prefixes} "
            f"valid sequences of length <= {n_max}",
        ),
        _result(
            "spectral-markov",
            markov_fail,
            f"step ratios depend only on the shape and match the closed "
            f"kernel for all sequences of length <= {n_max}",
        ),
    ]


def check_good(n_max: int) -> list[CheckResult]:
    """Norms and level ratios for the tableau with second row 2, 4, ..., 2k.
    Its vectors are built alone, not read from the cached bases: one
    ``gz_in_H`` per degree m >= k it lifts to, the harmonic itself at
    m = k, each walking the branching rule from level 0."""
    norm_fail: list[str] = []
    ratio_fail: list[str] = []
    for n in range(0, n_max + 1):
        for k in range(n // 2 + 1):
            u = good_tableau(n, k)
            for m in range(k, n // 2 + 1):
                coeffs = gz_in_H(u, m).coeffs
                if sum(map(mul, coeffs, coeffs)) != 2**k * comb(n - 2 * k, m - k):
                    label = f"lifted n={n} k={k} m={m}" if m > k else f"harmonic n={n} k={k}"
                    norm_fail.append(label)
                for bit in (0, 1):
                    if 2 * (m + bit) > n + 1:
                        continue
                    stay, _ = induced_transition(n, k, m, bit)
                    if good_tableau_ratio(n, k, m, m + bit) != stay:
                        ratio_fail.append(f"n={n} k={k} m={m} b={bit}")
    return [
        _result(
            "good-tableau-norms",
            norm_fail,
            f"squared norms are 2^k and 2^k C(n - 2k, m - k) for n <= {n_max}",
        ),
        _result(
            "good-tableau-ratio",
            ratio_fail,
            f"consecutive-level norm ratios equal the stay probability for "
            f"n <= {n_max}",
        ),
    ]


def check_central(mass_max: int, ratio_max: int, markov_max: int) -> list[CheckResult]:
    """The two-frequency central measure: total mass at levels up to
    ``mass_max``, the kernel against weight ratios up to ``ratio_max``, and
    the Markov property of consecutive tables up to level ``markov_max``,
    reading the mass check's tables: each level's is built once per call."""
    mass_fail: list[str] = []
    ratio_fail: list[str] = []
    markov_fail: list[str] = []
    tables: dict[int, SpectralTable] = {}
    for n in range(1, mass_max + 1):
        try:
            tables[n] = central_table(n)
        except ValueError as exc:
            mass_fail.append(f"n={n}: {exc}")
    for n in range(0, ratio_max + 1):
        for k in range(n // 2 + 1):
            if central_alpha_transition(n, k) != _central_transition_oracle(n, k):
                ratio_fail.append(f"n={n} k={k}")
    for n in range(1, markov_max):
        for level in (n, n + 1):
            if level not in tables:
                tables[level] = central_table(level)
        if not is_markov(tables[n], tables[n + 1]).ok:
            markov_fail.append(f"n={n}")
    return [
        _result(
            "central-mass",
            mass_fail,
            f"per-path weights 2^-n prod (2 + content)/hook sum to exactly 1 "
            f"at every level n <= {mass_max}",
        ),
        _result(
            "central-kernel",
            ratio_fail,
            f"the rows ((n - 2k + 2)/(2(n - 2k + 1)), "
            f"(n - 2k)/(2(n - 2k + 1))) equal the weight ratios at every "
            f"level n <= {ratio_max} and every k, with no parity restriction",
        ),
        _result(
            "central-markov",
            markov_fail,
            "central tables pass the shape-dependence test across levels",
        ),
    ]


def check_parity(n_max: int) -> list[CheckResult]:
    """Pin down the alternating sequence's kernel by parity.

    For directions 0, 1, 0, 1, ... the exact rows are (1/2, 1/2) at every
    odd level and the central rows at every even level.  A convention that
    attaches the flat 1/2 rows to even levels instead is refuted by these
    values; the direct projection tables below n_max certify the kernel.
    """
    failures: list[str] = []
    prefix = BitPrefix.alternating(n_max + 1)
    kernel = kernel_from_prefix(prefix)
    for n in range(1, n_max + 1):
        m = prefix.ones(n)
        for k in range(m + 1):
            entry = kernel.transition(n, k)
            if n % 2 == 1:
                expect = (Fraction(1, 2), Fraction(1, 2))
                label = "odd level, flat row"
            else:
                expect = central_alpha_transition(n, k)
                label = "even level, central row"
            if (entry.p_stay, entry.p_up) != expect:
                failures.append(f"{label} fails at n={n} k={k}")
    shallow = spectral_measure(prefix, 1)
    for n in range(1, n_max):
        deeper = spectral_measure(prefix, n + 1)
        if not kernel_matches(shallow, deeper, kernel):
            failures.append(f"projection disagrees with kernel at n={n}")
        shallow = deeper
    return [
        _result(
            "alternating-parity",
            failures,
            f"flat (1/2, 1/2) rows at odd levels, central rows at even "
            f"levels, certified against direct projection for n <= {n_max}; "
            f"the opposite parity attribution is refuted",
        )
    ]


def check_markov_detector() -> list[CheckResult]:
    """The shape-dependence test accepts the real chains and rejects the
    table of the form x1 x2 + x1 x4 against its own restriction."""
    failures: list[str] = []
    prefix = BitPrefix.from_string("010010")
    shallow = spectral_measure(prefix, 1)
    for n in range(1, 6):
        deeper = spectral_measure(prefix, n + 1)
        if not is_markov(shallow, deeper).ok:
            failures.append(f"spectral pair rejected at n={n}")
        shallow = deeper
    if not is_markov(central_table(5), central_table(6)).ok:
        failures.append("central pair rejected")
    bad = _projection_table(SquareFreeForm(4, 2, {(1, 2): 1, (1, 4): 1}))
    report = is_markov(bad.restricted(), bad)
    if report.ok:
        failures.append("corrupted pair accepted")
    elif not report.violations:
        failures.append("corrupted pair rejected without a witness")
    return [
        _result(
            "markov-detector",
            failures,
            "real chains accepted, corrupted pair rejected with a "
            "same-shape witness",
        )
    ]


def check_dimensions(n_max: int) -> list[CheckResult]:
    """Harmonic dimensions by exact rank, and how they fill the module."""
    dim_fail: list[str] = []
    sum_fail: list[str] = []
    ranks: dict[tuple[int, int], int] = {}
    for n in range(0, n_max + 1):
        for k in range(n // 2 + 1):
            got = harmonic_dim(n, k)
            ranks[(n, k)] = got
            if got != dim(TwoRowDiagram(n, k)):
                dim_fail.append(f"n={n} k={k}: rank gives {got}")
        for m in range(n // 2 + 1):
            if sum(ranks[(n, k)] for k in range(m + 1)) != comb(n, m):
                sum_fail.append(f"n={n} m={m}")
    return [
        _result(
            "harmonic-dimension",
            dim_fail,
            f"divergence kernel ranks equal C(n, k) - C(n, k - 1) for "
            f"n <= {n_max}",
        ),
        _result(
            "module-filling",
            sum_fail,
            f"harmonic pieces fill the degree-m module to C(n, m) for "
            f"n <= {n_max}",
        ),
    ]


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product of square matrices, each entry a row of a against a
    column of b."""
    columns = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in columns] for row in a]


def check_matrices(n_max: int) -> list[CheckResult]:
    """Adjacent-transposition matrices: closed entries act on the shape's
    vectors of degree k and, lifted, k + 1, and satisfy the involution,
    braid and commutation relations, all in integers on the shape's
    matrices times their common denominator D: the action against D times
    each image, squares against D^2 I, braids at D^3 and commutators at D^2."""
    agree_fail: list[str] = []
    relation_fail: list[str] = []
    for n in range(2, n_max + 1):
        for d in enumerate_diagrams(n):
            blocks = [
                [(v, v.form) for v in full_gz_basis(n, m) if len(v.tableau.second_row) == d.k]
                for m in range(d.k, min(d.k + 1, n // 2) + 1)
            ]
            closed = {i: orthogonal_form_matrix(i, d) for i in range(1, n)}
            scale = lcm(*(c.denominator for mat in closed.values() for row in mat for c in row))
            mats = {
                i: [[c.numerator * (scale // c.denominator) for c in row] for row in mat]
                for i, mat in closed.items()
            }
            for i in range(1, n):
                if not _acts_by(mats[i], scale, i, blocks[0]):
                    agree_fail.append(f"n={n} k={d.k} i={i}")
                if len(blocks) > 1 and not _acts_by(mats[i], scale, i, blocks[1]):
                    agree_fail.append(f"lifted n={n} k={d.k} i={i}")
            size = len(mats[1])
            ident = [[scale * scale if r == c else 0 for c in range(size)] for r in range(size)]
            for i in range(1, n):
                if _mat_mul(mats[i], mats[i]) != ident:
                    relation_fail.append(f"involution n={n} k={d.k} i={i}")
            for i in range(1, n - 1):
                left = _mat_mul(mats[i], _mat_mul(mats[i + 1], mats[i]))
                right = _mat_mul(mats[i + 1], _mat_mul(mats[i], mats[i + 1]))
                if left != right:
                    relation_fail.append(f"braid n={n} k={d.k} i={i}")
            for i in range(1, n - 2):
                for j in range(i + 2, n):
                    if _mat_mul(mats[i], mats[j]) != _mat_mul(mats[j], mats[i]):
                        relation_fail.append(f"commute n={n} k={d.k} i={i} j={j}")
    return [
        _result(
            "matrices-agree",
            agree_fail,
            f"closed-entry matrices equal the projection-built ones, also "
            f"after lifting, for n <= {n_max}",
        ),
        _result(
            "matrices-relations",
            relation_fail,
            f"involution, braid and commutation relations hold for "
            f"n <= {n_max}",
        ),
    ]


def run_scope(scope: str, n_max: int | None = None) -> list[CheckResult]:
    """The suites behind one verification scope, optionally capped.

    ``n_max`` lowers each suite's level bounds; it never raises a suite past
    its documented ceilings, so runtimes stay at desk scale.
    """
    # Suites and ceilings in report order, built per call so that it holds
    # whatever sits at each check_* name now (a tracing wrapper, a stand-in).
    suites = {
        "gz": ((check_basis, 8), (check_psi, 8), (check_good, 12), (check_matrices, 6),
               (check_dimensions, 10)),
        "markov": ((check_decompose, 7), (check_spectral, 8), (check_parity, 8),
                   (check_markov_detector,)),
        "central": ((check_central, 12, 10, 9),),
    }
    if scope not in ("all", *suites):
        raise ValueError(f"unknown scope {scope!r}")
    if n_max is not None and n_max < 1:
        raise ValueError(f"level cap must be at least 1, got {n_max}")
    out: list[CheckResult] = []
    for name in suites if scope == "all" else (scope,):
        for suite, *ceilings in suites[name]:
            bounds = [c if n_max is None else min(c, n_max) for c in ceilings]
            # A wrong closed formula can break an invariant that the exact
            # objects enforce while a suite runs (a table whose mass is not 1,
            # a vector outside its span); that is a failed check, not an error.
            try:
                out.extend(suite(*bounds))
            except (ValueError, ZeroDivisionError) as exc:
                label = suite.__name__.removeprefix("check_").replace("_", "-")
                out.append(CheckResult(label, False, f"raised {exc}"))
    return out
