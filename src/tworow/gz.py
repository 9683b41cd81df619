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
lexicographic order, and maps it to one column of factors for each (p, j)
that the given tableaux hold; the dense harmonic of u is the elementwise
product of its k columns.  ``markov.spectral_measure`` reads the same
``_rook_factors``, split by the parity of the code, to sum the terms of
one monomial for every tableau at once, in one scan over the entries
1, .., n.

So the lifted vector sums h_u over the k-subsets of each m-subset, and that
index structure depends only on (n, m, k), not on u.  ``_lift_table``,
from ``forms``, whose lift checks read the same table, lays it out as one
getter of the positions of the k-subsets of every m-subset in turn,
C(m, k) slots each.  ``_vectors`` is the one vector
builder: for the tableaux of one shape it builds the rook columns and, for
k < m, the lift table once, then gathers every slot of each dense harmonic
at once and takes each coefficient as the difference of one running sum
at the ends of its m-subset's run, so a lifted vector costs
C(n, m) * C(m, k) additions in C-level passes and builds no index tuples.
``iter_basis`` runs it once per shape and ``gz_in_H`` on one tableau;
verify's good-tableau check passes it one tableau's rook columns, built
once for all the degrees it lifts to.  The
level operators X_l = sum_{i<l} (i l) take a similar form: ``yjm_rows``
gives, for each k-subset, its count of fixing transpositions and a gather
of the monomials the others carry onto it.

Vectors are kept unnormalized, only as the dense ``int`` lists that the
builder computes and ``serialize.write_basis`` and ``verify`` read; their
``form`` is a view built anew on each read.  Their squared norms are the
closed products ``closed_harmonic_norm_sq``, of one ``_norm_factor`` per
entry, which the spectral scan also uses, and, lifted,
``closed_norm_sq_in_H``.  Only ``full_gz_basis`` caches; single vectors
are recomputed on every call, and ``iter_basis`` yields them one at a
time, so a streamed export such as ``tworow basis`` holds one vector.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Collection, Iterable, Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count
from math import comb, prod
from operator import itemgetter, mul

from .forms import Key, SquareFreeForm, _lift, _lift_table, _sparse
from .ygraph import TwoRowDiagram, TwoRowTableau, enumerate_tableaux


class GzVector:
    """A basis vector: tableau label, its coefficient on each of ``keys``,
    the m-subsets in lexicographic order that the vectors of one builder
    call share, and closed squared norm.  ``coeffs`` is the one copy of the
    vector: each read of ``form`` builds a fresh ``SquareFreeForm`` view.
    Vectors compare by identity; compare fields to compare values."""

    __slots__ = ("tableau", "coeffs", "keys", "norm_sq")

    def __init__(self, tableau: TwoRowTableau, coeffs: list[int], keys: list[Key], norm_sq: int):
        self.tableau = tableau
        self.coeffs = coeffs
        self.keys = keys
        self.norm_sq = norm_sq

    @property
    def form(self) -> SquareFreeForm:
        return _sparse(self.tableau.n, len(self.keys[0]), self.keys, self.coeffs)

    def __repr__(self) -> str:
        return f"GzVector(tableau={self.tableau!r}, form={self.form!r}, norm_sq={self.norm_sq!r})"


def gz_harmonic(u: TwoRowTableau, columns: RookColumns | None = None) -> GzVector:
    """The harmonic Gelfand-Tsetlin vector labeled by u, unnormalized: the
    coefficient of x_S is the product of the rook factors of u's entries
    at S.  ``columns`` is a ``_rook_columns`` table of u's shape that holds
    every (p_j, j) of u, whose k-subsets the vector shares as its keys; by
    default u builds only its own k columns."""
    if columns is None:
        columns = _rook_columns(u.n, len(u.second_row), (u,))
    return GzVector(u, _dense_harmonic(u, columns), columns[0], closed_harmonic_norm_sq(u))


def gz_in_H(u: TwoRowTableau, m: int) -> GzVector:
    """The vector for u inside the degree-m module: psi(h_u, m - k)."""
    k = len(u.second_row)
    if not k <= m:
        raise ValueError(f"degree {m} is below the tableau's second row {k}")
    if 2 * m > u.n:
        raise ValueError(f"degree {m} exceeds half of {u.n} variables")
    return next(_vectors(u.n, m, k, (u,)))


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


def _rook_columns(n: int, k: int, tableaux: Iterable[TwoRowTableau]) -> RookColumns:
    """The k-subsets S of 1..n in lexicographic order, and for each (p, j)
    that one of ``tableaux`` holds, entry value p with j smaller entries,
    the column of its rook factors over those S: the code 2b + [p in S] of
    each S, computed once per p, mapped through ``_rook_factors``."""
    held = {(p, j) for u in tableaux for j, p in enumerate(u.second_row)}
    subsets = list(combinations(range(1, n + 1), k))
    values = {p for p, _ in held}
    codes = {p: [2 * bisect_left(s, p) + (p in s) for s in subsets] for p in values}
    columns = {(p, j): list(map(_rook_factors(p, j, k).__getitem__, codes[p])) for p, j in held}
    return subsets, columns


def _dense_harmonic(u: TwoRowTableau, columns: RookColumns) -> list[int]:
    """The coefficients of h_u on every k-subset of ``columns``, in its
    order, zeros included: the elementwise product of u's k columns."""
    subsets, factors = columns
    dense = [1] * len(subsets)
    for j, p in enumerate(u.second_row):
        dense = list(map(mul, dense, factors[p, j]))
    return dense


def _vectors(
    n: int,
    m: int,
    k: int,
    tableaux: Collection[TwoRowTableau],
    columns: RookColumns | None = None,
) -> Iterator[GzVector]:
    """psi(h_u, m - k) with its closed norm for each u of ``tableaux``, of
    shape (n, k), for a checked degree m, built when requested from one
    ``_rook_columns`` table and, for k < m, one ``_lift_table``.  A caller
    that already holds a table of rook columns for these tableaux passes
    it as ``columns``; by default the call builds its own.  Each
    coefficient sums the dense h_u over the k-subsets of its m-subset: the
    running sum of all gathered slots at the end of the m-subset's C(m, k)
    slots, differenced.  The vectors share the lift table's m-subsets, or
    at k == m the rook columns' k-subsets, as their keys."""
    if columns is None:
        columns = _rook_columns(n, k, tableaux)
    if k == m:
        for u in tableaux:
            yield gz_harmonic(u, columns)
        return
    table = _lift_table(n, m, k)
    for u in tableaux:
        coeffs = _lift(table, _dense_harmonic(u, columns))
        yield GzVector(u, coeffs, table.keys, closed_norm_sq_in_H(u, m))


def _norm_factor(p: int, j: int) -> int:
    """The factor (p - 2j - 1)(p - 2j) that a second-row entry p with j
    smaller entries contributes to the closed squared norm of h_u."""
    return (p - 2 * j - 1) * (p - 2 * j)


def closed_harmonic_norm_sq(u: TwoRowTableau) -> int:
    """|h_u|^2 as the product of its entries' ``_norm_factor``s,
    prod_j (p_j - 2j + 1)(p_j - 2j + 2) over j = 1..k."""
    return prod(map(_norm_factor, u.second_row, count()))


def closed_norm_sq_in_H(u: TwoRowTableau, m: int) -> int:
    """The harmonic norm times the psi isometry constant C(n - 2k, m - k)."""
    k = len(u.second_row)
    return closed_harmonic_norm_sq(u) * comb(u.n - 2 * k, m - k)


def iter_basis(n: int, m: int):
    """Yield the Gelfand-Tsetlin basis of the degree-m module in n variables.

    Vectors are ordered by second-row length k, then lexicographically by
    second-row entries; their count telescopes to C(n, m).  Each shape's
    vectors come from one ``_vectors`` call, so its tableaux share one
    table of rook columns and, below k = m, one lift table.  Vectors are
    built when requested and not cached, so a consumer that writes each
    vector before asking for the next holds one at a time, plus the
    current tables.
    """
    if not 0 <= 2 * m <= n:
        raise ValueError(f"need 0 <= m <= n/2, got n={n}, m={m}")
    for k in range(m + 1):
        yield from _vectors(n, m, k, enumerate_tableaux(TwoRowDiagram(n, k)))


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
    otherwise they are T - i + l for each i < l in T.  Either way a source
    keeps the entries of T above l and changes only the part below it,
    which is sorted again.  Positions index a
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
        low, high = key[:at], key[at:]
        if high[:1] == (l,):
            fixed, high = at, high[1:]
            lows = [tuple(sorted(low + (i,))) for i in range(1, l) if i not in low]
        else:
            fixed, high = l - 1 - at, (l,) + high
            lows = [low[:q] + low[q + 1:] for q in range(at)]
        sources = [position[s + high] for s in lows]
        rows.append((key, fixed, itemgetter(pad, *sources or (pad,))))
    return rows


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
    # |c| >= 2 puts i and i + 1 in different rows, so exactly one of them
    # is in the second row and exchanging them keeps it increasing.
    swap = {i: i + 1, i + 1: i}
    for r, u in enumerate(tabs):
        dist = u.content(i + 1) - u.content(i)
        matrix[r][r] = Fraction(1, dist)
        if abs(dist) >= 2:
            swapped = tuple(swap.get(p, p) for p in u.second_row)
            matrix[r][index[swapped]] = 1 - Fraction(1, dist)
    return matrix

