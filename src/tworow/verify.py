"""Self-checks tying the closed formulas to first-principles computations.

Every check recomputes something two independent ways and compares exactly.
The suites are sized by level bounds so both the command line tool and the
test suite can run them at the documented desk scale.

The library keeps one closed route per fact; the first-principles oracles
it is checked against live here, private to this module:

- ``_expanded_harmonic``: the harmonic vector as the sum of its products
  of differences, each one a ``forms.pseudo_monomial``;
- ``_is_yjm_eigenform``: every level's transposition sum applied to a form;
- ``forms.inner``: a vector's squared norm as the sum of its squared
  coefficients, against which every closed norm a vector carries is checked;
- ``forms.psi``: the lift term by term, one index tuple per l-subset of a
  monomial's complement, against which every lifted basis vector is checked;
- ``_projection_table``: spectral tables read off the cached full basis;
- ``_transposition_matrix_in_basis``: adjacent-transposition matrices by
  projecting each permuted basis vector back onto the basis;
- ``_central_transition_oracle``: the central kernel as ratios of shape
  weights between consecutive levels;
- ``_negative_control_tables``: a coherent, non-Markov pair of tables that
  the shape-dependence test must reject;
- ``linalg.harmonic_dim``: harmonic dimensions by exact rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .forms import (
    Permutation,
    SquareFreeForm,
    act,
    decompose_step,
    harmonic_preimage,
    inner,
    pseudo_monomial,
    psi,
)
from .gz import (
    full_gz_basis,
    gz_harmonic,
    gz_in_H,
    orthogonal_form_matrix,
    yjm_apply,
)
from .linalg import harmonic_dim
from .markov import (
    BitPrefix,
    SpectralTable,
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
    enumerate_tableaux,
    good_tableau,
)


@dataclass(frozen=True)
class CheckResult:
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
    ``pseudo_monomial`` prod_j (x_{i_j} - x_{p_j})."""
    ps = u.second_row
    total = SquareFreeForm.zero(u.n, len(ps))
    for lows in product(*(range(1, p) for p in ps)):
        if len(set(lows + ps)) == 2 * len(ps):
            total = total + pseudo_monomial(u.n, zip(lows, ps))
    return total


def _is_yjm_eigenform(u: TwoRowTableau, form: SquareFreeForm) -> bool:
    """Whether every level l's operator scales ``form`` by u's content at l."""
    return all(yjm_apply(l, form) == u.content(l) * form for l in range(1, u.n + 1))


def _projection_table(prefix: BitPrefix, level: int) -> SpectralTable:
    """The spectral table read off the full basis: each vector's
    coefficient on the sequence's monomial, squared, over its norm."""
    m = prefix.ones(level)
    key = tuple(t for t in range(1, level + 1) if prefix.bits[t - 1])
    probs: dict[TwoRowTableau, Fraction] = {}
    for vec in full_gz_basis(level, m):
        c = vec.form.coeffs.get(key)
        if c:
            probs[vec.tableau] = Fraction(c * c, vec.norm_sq)
    return SpectralTable(level, probs)


def _transposition_matrix_in_basis(
    i: int, d: TwoRowDiagram, m: int | None = None
) -> list[list[Fraction]]:
    """Matrix of (i i+1) computed directly from the forms, row = source.

    Each image is expanded over the shape's basis by orthogonal projection
    and the expansion is verified exactly, so the result is trustworthy
    independent of any closed formula.
    """
    if not 1 <= i <= d.n - 1:
        raise ValueError(f"transposition index must lie in 1..{d.n - 1}, got {i}")
    if m is None:
        m = d.k
    basis = [gz_in_H(u, m) for u in enumerate_tableaux(d)]
    sigma = Permutation.transposition(d.n, i, i + 1)
    matrix = []
    for vec in basis:
        image = act(sigma, vec.form)
        row = [Fraction(inner(image, w.form), w.norm_sq) for w in basis]
        recon = sum((c * w.form for c, w in zip(row, basis)), SquareFreeForm.zero(d.n, m))
        if recon != image:
            raise ValueError("image does not lie in the span of the shape's basis")
        matrix.append(row)
    return matrix


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


def _negative_control_tables() -> tuple[SpectralTable, SpectralTable]:
    """A coherent but non-Markov pair of tables, for exercising detectors.

    The level-4 table refines the level-3 one exactly, yet the two level-3
    tableaux of shape (2, 1) step up with different conditional weights.
    """
    t3 = SpectralTable(
        3,
        {
            TwoRowTableau(3, ()): Fraction(1, 2),
            TwoRowTableau(3, (2,)): Fraction(1, 4),
            TwoRowTableau(3, (3,)): Fraction(1, 4),
        },
    )
    t4 = SpectralTable(
        4,
        {
            TwoRowTableau(4, ()): Fraction(1, 2),
            TwoRowTableau(4, (2,)): Fraction(1, 4),
            TwoRowTableau(4, (3, 4)): Fraction(1, 4),
        },
    )
    return t3, t4


def check_basis(n_max: int) -> list[CheckResult]:
    """Eigenvector property, orthogonality and closed norms of the basis,
    and the closed harmonic vectors against their expansion."""
    eig_fail: list[str] = []
    orth_fail: list[str] = []
    norm_fail: list[str] = []
    vectors = 0
    for n in range(1, n_max + 1):
        for u in enumerate_all_tableaux(n):
            vectors += 1
            harmonic = gz_harmonic(u)
            if harmonic.form != _expanded_harmonic(u):
                eig_fail.append(f"harmonic {u.second_row} at n={n} differs from its expansion")
            if not _is_yjm_eigenform(u, harmonic.form):
                eig_fail.append(f"harmonic {u.second_row} at n={n}")
            if harmonic.norm_sq != inner(harmonic.form, harmonic.form):
                norm_fail.append(f"harmonic norm {u.second_row} at n={n}")
        for m in range(n // 2 + 1):
            basis = full_gz_basis(n, m)
            for vec in basis:
                if not _is_yjm_eigenform(vec.tableau, vec.form):
                    eig_fail.append(f"lifted {vec.tableau.second_row} at n={n} m={m}")
                if vec.norm_sq != inner(vec.form, vec.form):
                    norm_fail.append(
                        f"lifted norm {vec.tableau.second_row} at n={n} m={m}"
                    )
            for a, b in combinations(basis, 2):
                if inner(a.form, b.form) != 0:
                    orth_fail.append(
                        f"n={n} m={m}: {a.tableau.second_row} vs {b.tableau.second_row}"
                    )
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


def check_psi(n_max: int) -> list[CheckResult]:
    """The averaging map scales squared norms by C(n - 2k, m - k), and
    every lifted vector of the cached full basis is psi of its harmonic."""
    failures: list[str] = []
    cases = 0
    for n in range(0, n_max + 1):
        basis = {
            (m, vec.tableau.second_row): vec.form
            for m in range(n // 2 + 1)
            for vec in full_gz_basis(n, m)
        }
        for u in enumerate_all_tableaux(n):
            k = len(u.second_row)
            base = gz_harmonic(u).form
            base_sq = inner(base, base)
            for m in range(k, n // 2 + 1):
                cases += 1
                lifted = psi(base, m - k)
                expect = comb(n - 2 * k, m - k) * base_sq
                if inner(lifted, lifted) != expect:
                    failures.append(f"n={n}, u={u.second_row}, m={m}")
                if basis.get((m, u.second_row)) != lifted:
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
    """One-level splits: sum, orthogonality, norm ratios, exact preimages."""
    failures: list[str] = []
    cases = 0
    for n in range(1, n_max + 1):
        for u in enumerate_all_tableaux(n):
            k = len(u.second_row)
            f0 = gz_harmonic(u).form
            for m in range(k, n // 2 + 1):
                f = psi(f0, m - k)
                norm_f = inner(f, f)
                for bit in (0, 1):
                    if 2 * (m + bit) > n + 1:
                        continue
                    cases += 1
                    stay, up = decompose_step(f, f0, bit)
                    whole = f.embedded(n + 1)
                    if bit:
                        whole = whole.times_var(n + 1)
                    if stay + up != whole:
                        failures.append(f"sum n={n} u={u.second_row} m={m} b={bit}")
                        continue
                    if inner(stay, up) != 0:
                        failures.append(f"orth n={n} u={u.second_row} m={m} b={bit}")
                    p_stay, p_up = induced_transition(n, k, m, bit)
                    if inner(stay, stay) != p_stay * norm_f:
                        failures.append(f"stay-norm n={n} u={u.second_row} m={m} b={bit}")
                    if inner(up, up) != p_up * norm_f:
                        failures.append(f"up-norm n={n} u={u.second_row} m={m} b={bit}")
                    try:
                        if not stay.is_zero():
                            harmonic_preimage(stay, k)
                        if not up.is_zero():
                            harmonic_preimage(up, k + 1)
                    except ValueError:
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
    for length in range(1, n_max + 1):
        tables: dict[tuple[int, ...], SpectralTable] = {}
        for prefix in _valid_prefixes(length):
            prefixes += 1
            left = tables[prefix.bits] = spectral_measure(prefix)
            if left != _projection_table(prefix, length):
                table_fail.append(f"xi={prefix} (basis projection)")
                continue
            if left != path_product_table(prefix):
                table_fail.append(f"xi={prefix} (path products)")
                continue
            if length >= 2:
                kernel = kernel_from_prefix(prefix)
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
    """Norms and level ratios for the tableau with second row 2, 4, ..., 2k."""
    norm_fail: list[str] = []
    ratio_fail: list[str] = []
    for n in range(0, n_max + 1):
        for k in range(n // 2 + 1):
            u = good_tableau(n, k)
            harmonic = gz_harmonic(u).form
            if inner(harmonic, harmonic) != 2**k:
                norm_fail.append(f"harmonic n={n} k={k}")
            for m in range(k, n // 2 + 1):
                lifted = gz_in_H(u, m).form
                if inner(lifted, lifted) != 2**k * comb(n - 2 * k, m - k):
                    norm_fail.append(f"lifted n={n} k={k} m={m}")
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
    the Markov property of consecutive tables up to level ``markov_max``."""
    mass_fail: list[str] = []
    ratio_fail: list[str] = []
    markov_fail: list[str] = []
    for n in range(1, mass_max + 1):
        try:
            central_table(n)
        except ValueError as exc:
            mass_fail.append(f"n={n}: {exc}")
    for n in range(0, ratio_max + 1):
        for k in range(n // 2 + 1):
            if central_alpha_transition(n, k) != _central_transition_oracle(n, k):
                ratio_fail.append(f"n={n} k={k}")
    for n in range(1, markov_max):
        if not is_markov(central_table(n), central_table(n + 1)).ok:
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
    for n in range(1, n_max):
        shallow = spectral_measure(prefix, n)
        deeper = spectral_measure(prefix, n + 1)
        if not kernel_matches(shallow, deeper, kernel):
            failures.append(f"projection disagrees with kernel at n={n}")
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
    built-in corrupted pair."""
    failures: list[str] = []
    prefix = BitPrefix.from_string("010010")
    for n in range(1, 6):
        if not is_markov(spectral_measure(prefix, n), spectral_measure(prefix, n + 1)).ok:
            failures.append(f"spectral pair rejected at n={n}")
    if not is_markov(central_table(5), central_table(6)).ok:
        failures.append("central pair rejected")
    bad = _negative_control_tables()
    report = is_markov(*bad)
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


def _mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    size = len(a)
    return [
        [sum((a[r][t] * b[t][c] for t in range(size)), Fraction(0)) for c in range(size)]
        for r in range(size)
    ]


def _identity(size: int) -> list[list[Fraction]]:
    return [
        [Fraction(1) if r == c else Fraction(0) for c in range(size)]
        for r in range(size)
    ]


def check_matrices(n_max: int) -> list[CheckResult]:
    """Adjacent-transposition matrices: closed entries against direct
    projection, involutions, braid and commutation relations."""
    agree_fail: list[str] = []
    relation_fail: list[str] = []
    for n in range(2, n_max + 1):
        for d in enumerate_diagrams(n):
            mats = {}
            for i in range(1, n):
                closed = orthogonal_form_matrix(i, d)
                direct = _transposition_matrix_in_basis(i, d)
                if closed != direct:
                    agree_fail.append(f"n={n} k={d.k} i={i}")
                if d.k < n // 2 and closed != _transposition_matrix_in_basis(i, d, d.k + 1):
                    agree_fail.append(f"lifted n={n} k={d.k} i={i}")
                mats[i] = closed
            size = len(mats[1])
            ident = _identity(size)
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
