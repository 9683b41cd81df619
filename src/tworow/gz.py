"""Gelfand-Tsetlin bases for two-row representations, from closed formulas.

For a tableau u with second-row entries p_1 < ... < p_k, the harmonic basis
vector is the sum of pseudo-monomials

    h_u = sum prod_j (x_{i_j} - x_{p_j})

over all choices i_1, .., i_k with i_j < p_j and all 2k indices pairwise
distinct.  These vectors are eigenvectors of every partial-transposition-sum
operator, with eigenvalue at level l the content of the cell holding l, so
they form the Gelfand-Tsetlin basis of the harmonic space.  Applying psi
carries the basis into each higher-degree copy of the same irreducible.

Applying psi(., m - k) to h_u gives the vector of u in the degree-m module.
Its coefficient on x_I, for an m-subset I, is a closed sum that needs no
expansion: it is the sum over k-subsets S of I of

    (-1)^|H| * R1 * R2,    H = {j : p_j in S},

where P = {p_1, .., p_k}, R1 counts the ways to match S - P onto the p_j
outside H with i_j < p_j, and R2 counts the ways to give each p_j in H a
distinct free low i_j < p_j from {1, .., n} - (P union S).  Both are
Ferrers-board rook numbers: walking the p's upwards, each contributes the
number of entries available below it minus those already placed, and the
count is 0 once a factor is not positive.  At m = k the sum has the single
term S = I, so the term of S is the coefficient of x_S in h_u itself, and
``gz_harmonic`` never expands the products of differences.

The factor of p_j depends on S only through b, the number of entries of S
below p_j, and whether p_j lies in S: it is one of the 2k + 2 values of
``_rook_factors`` indexed by the code 2b + [p_j in S].  ``_rook_columns``
computes that code once per entry value p for every k-subset, in
lexicographic order, and maps it to one column of factors per (p, j); the
dense harmonic of u is the elementwise product of its k columns.  A lone
``gz_harmonic`` builds only its own k columns, and ``iter_basis`` builds
every column a shape uses once (``_shape_columns``) and shares them across
its tableaux.  The same factorisation lets ``markov.spectral_measure`` sum
the terms of one monomial for every tableau at once, in one scan over the
entries 1, .., n.

So the lifted vector sums h_u over the k-subsets of each m-subset, and that
index structure depends only on (n, m, k), not on u.  ``_lift_table``
lays it out once per shape as one getter of the positions of the
k-subsets of every m-subset in turn, C(m, k) slots each.  ``_lift`` spreads
h_u into a dense list over the k-subsets, gathers every slot at once and
takes each coefficient as the difference of one running sum at the ends of
its m-subset's run, so a lifted vector costs C(n, m) * C(m, k) additions
in C-level passes and builds no index tuples.  The level operators
X_l = sum_{i<l} (i l) take a similar form: ``yjm_rows`` gives, for each
k-subset, its count of fixing transpositions and a gather of the monomials
the others carry onto it.

Vectors are kept unnormalized with integer coefficients; their squared
norms are the closed products ``closed_harmonic_norm_sq`` and, lifted,
``closed_norm_sq_in_H``.  Only ``full_gz_basis`` caches; single vectors
are recomputed on every call, and ``iter_basis`` yields them one at a time,
so a streamed export such as ``tworow basis`` holds one vector in memory.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, compress, islice, repeat
from math import comb
from operator import itemgetter, mul, sub

from .forms import Key, SquareFreeForm
from .ygraph import TwoRowDiagram, TwoRowTableau, enumerate_tableaux


class GzVector:
    """A basis vector: tableau label, exact form, closed squared norm.
    Vectors compare by identity; compare their fields to compare values."""

    __slots__ = ("tableau", "form", "norm_sq")

    def __init__(self, tableau: TwoRowTableau, form: SquareFreeForm, norm_sq: int):
        self.tableau = tableau
        self.form = form
        self.norm_sq = norm_sq

    def __repr__(self) -> str:
        return f"GzVector(tableau={self.tableau!r}, form={self.form!r}, norm_sq={self.norm_sq!r})"


def gz_harmonic(u: TwoRowTableau, columns: RookColumns | None = None) -> GzVector:
    """The harmonic Gelfand-Tsetlin vector labeled by u, unnormalized: the
    coefficient of x_S is the product of the rook factors of u's entries
    at S.  ``columns`` is a ``_rook_columns`` table of u's shape that holds
    every (p_j, j) of u; by default u builds only its own k columns.  The
    form's keys are filled in lexicographic order."""
    ps = u.second_row
    if columns is None:
        columns = _rook_columns(u.n, len(ps), {p: (j,) for j, p in enumerate(ps)})
    subsets, factors = columns
    dense = [1] * len(subsets)
    for j, p in enumerate(ps):
        dense = list(map(mul, dense, factors[p, j]))
    coeffs = dict(compress(zip(subsets, dense), dense))
    form = SquareFreeForm._trusted(u.n, len(ps), coeffs, nonzero=True)
    return GzVector(u, form, closed_harmonic_norm_sq(u))


def gz_in_H(u: TwoRowTableau, m: int) -> GzVector:
    """The vector for u inside the degree-m module: psi(h_u, m - k)."""
    k = len(u.second_row)
    if not k <= m:
        raise ValueError(f"degree {m} is below the tableau's second row {k}")
    if 2 * m > u.n:
        raise ValueError(f"degree {m} exceeds half of {u.n} variables")
    return _lift(u, m, (None, _lift_table(u.n, m, k)))


RookColumns = tuple[list[Key], dict[tuple[int, int], list[int]]]


def _rook_factors(p: int, j: int, k: int) -> list[int]:
    """The rook factor of a second-row entry p with j smaller entries, at a
    k-subset S, indexed by the code 2b + [p in S], where b is the number of
    entries of S below p; a count that is not positive gives the factor 0,
    which zeroes the term of S."""
    factors = []
    for b in range(k + 1):
        # p not in S: each smaller p uses up one entry of S below p, itself
        # when in H, else its matched entry of S - P.  p in H (sign -1): of
        # the p - 1 entries below it, the smaller p's, the entries of S - P
        # and one free low per smaller p in H are taken; the last two number
        # b together, as the smaller p's in H are the entries of both S and
        # P below p.
        factors += (max(b - j, 0), -max(p - 1 - j - b, 0))
    return factors


def _rook_columns(n: int, k: int, entries: dict[int, Iterable[int]]) -> RookColumns:
    """The k-subsets S of 1..n in lexicographic order, and for each entry
    value p of ``entries`` and each count j of smaller entries listed for
    it, the column of the rook factors of (p, j) over those S: the code
    2b + [p in S] of each S, computed once per p, mapped through
    ``_rook_factors``."""
    subsets = list(combinations(range(1, n + 1), k))
    columns = {}
    for p, js in entries.items():
        codes = [2 * bisect_left(subset, p) + (p in subset) for subset in subsets]
        for j in js:
            columns[p, j] = list(map(_rook_factors(p, j, k).__getitem__, codes))
    return subsets, columns


def _shape_columns(n: int, k: int) -> RookColumns:
    """The rook columns of every (p_j, j) that a tableau of shape (n, k)
    can hold: the entry p_{j+1} of such a tableau lies in
    2j + 2..n - k + 1 + j, and each value there is taken by some tableau."""
    return _rook_columns(
        n, k, {p: range(max(0, p - 1 - n + k), min(k, p // 2)) for p in range(2, n + 1)}
    )


LiftTable = tuple[list[Key], itemgetter, int]


def _lift_table(n: int, m: int, k: int) -> LiftTable | None:
    """The index structure of the lift from degree k to degree m in n
    variables: the m-subsets I of 1..n in lexicographic order, one getter
    of the positions, in the lexicographic order of the k-subsets, of the
    k-subsets of every I in turn, and their count C(m, k) per I.  Every
    lift reads at least two positions (C(n, m) >= 2 once 0 <= k < m), so
    the getter returns a tuple.  At k = m the lift is the identity and the
    table is None."""
    if k == m:
        return None
    position = {subset: i for i, subset in enumerate(combinations(range(1, n + 1), k))}
    keys = list(combinations(range(1, n + 1), m))
    slots = chain.from_iterable(map(combinations, keys, repeat(k)))
    return keys, itemgetter(*map(position.__getitem__, slots)), comb(m, k)


def _lift(
    u: TwoRowTableau, m: int, table: tuple[RookColumns | None, LiftTable | None]
) -> GzVector:
    """psi(h_u, m - k) with its closed norm, for a checked degree m.  The
    table pairs the rook columns for ``gz_harmonic`` (None: u builds its
    own) with the ``_lift_table`` of (n, m, k).  Each coefficient sums h_u
    over the k-subsets of its m-subset: the running sum over all gathered
    slots, read at the end of each m-subset's C(m, k) slots, differenced.
    Only nonzero sums are kept, and the form's keys are filled in
    lexicographic order, which ``serialize.write_basis`` relies on."""
    columns, lift = table
    form = gz_harmonic(u, columns).form
    if lift is not None:
        keys, gather, width = lift
        dense = list(map(form.coeffs.get, combinations(range(1, u.n + 1), form.k), repeat(0)))
        ends = list(islice(accumulate(gather(dense), initial=0), 0, None, width))
        sums = list(map(sub, islice(ends, 1, None), ends))
        form = SquareFreeForm._trusted(u.n, m, dict(compress(zip(keys, sums), sums)), nonzero=True)
    return GzVector(u, form, closed_norm_sq_in_H(u, m))


def closed_harmonic_norm_sq(u: TwoRowTableau) -> int:
    """Product formula prod_j (p_j - 2j + 1)(p_j - 2j + 2) for |h_u|^2."""
    out = 1
    for j, p in enumerate(u.second_row, start=1):
        out *= (p - 2 * j + 1) * (p - 2 * j + 2)
    return out


def closed_norm_sq_in_H(u: TwoRowTableau, m: int) -> int:
    """The harmonic norm times the psi isometry constant C(n - 2k, m - k)."""
    k = len(u.second_row)
    return closed_harmonic_norm_sq(u) * comb(u.n - 2 * k, m - k)


def iter_basis(n: int, m: int):
    """Yield the Gelfand-Tsetlin basis of the degree-m module in n variables.

    Vectors are ordered by second-row length k, then lexicographically by
    second-row entries; their count telescopes to C(n, m).  Each is the psi
    lift of the closed harmonic vector, built from one ``_shape_columns``
    and summed through one ``_lift_table`` per k, which every tableau of
    that shape shares.  Vectors are built when requested and not cached, so
    a consumer that writes each vector before asking for the next holds one
    at a time, plus the current tables.
    """
    if not 0 <= 2 * m <= n:
        raise ValueError(f"need 0 <= m <= n/2, got n={n}, m={m}")
    for k in range(m + 1):
        table = _shape_columns(n, k), _lift_table(n, m, k)
        for u in enumerate_tableaux(TwoRowDiagram(n, k)):
            yield _lift(u, m, table)


@lru_cache(maxsize=None)
def full_gz_basis(n: int, m: int) -> tuple[GzVector, ...]:
    """The vectors of ``iter_basis(n, m)`` as a tuple, cached per (n, m)
    for the life of the process; this is the package's only cache."""
    return tuple(iter_basis(n, m))


YjmRows = list[tuple[Key, int, itemgetter]]


def yjm_rows(n: int, k: int, l: int) -> YjmRows:
    """The sum of transpositions (i l) over i < l on degree-k forms in n
    variables, as one gather row per k-subset T of 1..n, in lexicographic
    order: T, the number of those transpositions that fix x_T, and a getter
    of the positions of the monomials the others carry onto x_T.

    A transposition moves x_T only when exactly one of i and l lies in T.
    If l is in T, the sources are T - l + i for each i < l not in T;
    otherwise they are T - i + l for each i < l in T.  Positions index a
    dense list of coefficients in the same order, and each getter also reads
    the slot one past the k-subsets, which callers keep at 0, so it returns
    a tuple even with no source.
    """
    subsets = list(combinations(range(1, n + 1), k))
    position = {sub: i for i, sub in enumerate(subsets)}
    pad = len(subsets)
    rows = []
    for key in subsets:
        at = bisect_left(key, l)  # entries of key below l
        low = key[:at]
        if at < k and key[at] == l:
            fixed = at
            high = key[at + 1:]
            sources = []
            q = 0
            for i in range(1, l):
                if q < at and low[q] == i:
                    q += 1
                else:
                    sources.append(position[low[:q] + (i,) + low[q:] + high])
        else:
            fixed = l - 1 - at
            high = (l,) + key[at:]
            sources = [position[low[:q] + low[q + 1:] + high] for q in range(at)]
        rows.append((key, fixed, itemgetter(pad, *sources or (pad,))))
    return rows


def _swap_levels(u: TwoRowTableau, i: int) -> TwoRowTableau:
    """The tableau with entries i and i + 1 exchanged (rows differ)."""
    swap = {i: i + 1, i + 1: i}
    return TwoRowTableau(u.n, tuple(sorted(swap.get(p, p) for p in u.second_row)))


def orthogonal_form_matrix(i: int, d: TwoRowDiagram) -> list[list[Fraction]]:
    """Matrix of the adjacent transposition (i i+1) in the basis of shape d.

    Rows index the source vector, columns the target, both in the order of
    ``enumerate_tableaux``.  With c the content difference between the cells
    of i + 1 and i in the source tableau, the diagonal entry is 1/c; when
    exchanging i and i + 1 is again standard the off-diagonal entry is
    1 - 1/c.  The unnormalized basis makes every entry rational.
    """
    if not 1 <= i <= d.n - 1:
        raise ValueError(f"transposition index must lie in 1..{d.n - 1}, got {i}")
    tabs = enumerate_tableaux(d)
    index = {u.second_row: r for r, u in enumerate(tabs)}
    size = len(tabs)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for r, u in enumerate(tabs):
        dist = u.content(i + 1) - u.content(i)
        matrix[r][r] = Fraction(1, dist)
        if abs(dist) >= 2:
            v = _swap_levels(u, i)
            matrix[r][index[v.second_row]] = 1 - Fraction(1, dist)
    return matrix

