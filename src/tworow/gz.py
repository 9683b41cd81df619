"""Gelfand-Tsetlin bases for two-row representations, by the branching rule.

For a tableau u with second-row entries p_1 < ... < p_k, the harmonic basis
vector is the sum of pseudo-monomials

    h_u = sum prod_j (x_{i_j} - x_{p_j})

over all choices i_1, .., i_k with i_j < p_j and all 2k indices pairwise
distinct.  These vectors are eigenvectors of every partial-transposition-sum
operator, with eigenvalue at level l the content of the cell holding l, so
they form the Gelfand-Tsetlin basis of the harmonic space.  Applying psi
carries the basis into each higher-degree copy of the same irreducible,
and psi(h_u, m - k) is the vector of u in the degree-m module.

Every such vector is built from the two vectors of its restriction one
level down.  Write V(s, d) for psi(h, d - j) as the dense list of its
coefficients on the d-subsets of 1..s in colexicographic order, so that
the subsets without s come first, where h is the harmonic of u's
restriction to the entries 1..s and j its second-row length.  It is zero
unless j <= d <= s - j, and V(0, 0) = [1].  With j now the second-row
length at level s - 1:

- s in the first row: V(s, d) = V(s - 1, d) ++ V(s - 1, d - 1), the
  monomials without x_s and those with it;
- s in the second row: V(s, d) = (d - j) V(s - 1, d) ++
  -(s - d - j) V(s - 1, d - 1).

The recurrence takes no division and no index tuple: each slice is list
concatenations and scalings.  ``_vector`` walks it on one ``_Chain`` of
slices, one per level, each holding V(s, d) for the degrees d that still
reach m at level n.  Tableaux taken in ``iter_basis`` order, second rows
in lexicographic order, are the leaves of the tree of prefixes with the
second row taken first, so a chain shared by them rebuilds only the
levels after the first entry where a tableau leaves the one before.  The
chain's getter then reads the colexicographic list off in the
lexicographic order of ``keys``.  ``iter_basis`` shares one chain among
all its tableaux, ``gz_harmonic`` and ``gz_in_H`` walk one of their own.
The level operators X_l = sum_{i<l} (i l) take a gather form:
``yjm_rows`` gives, for each k-subset, its count of fixing transpositions
and a gather of the monomials the others carry onto it.

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
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count
from math import comb, prod
from operator import itemgetter

from .forms import Key, SquareFreeForm, _getter, _sparse
from .ygraph import TwoRowDiagram, TwoRowTableau, enumerate_tableaux


class GzVector:
    """A basis vector: tableau label, its coefficient on each of ``keys``,
    the m-subsets in lexicographic order that the vectors of one builder
    chain share, and closed squared norm.  ``coeffs`` is the one copy of
    the vector: each read of ``form`` builds a fresh ``SquareFreeForm``
    view.  Vectors compare by identity; compare fields to compare values."""

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


def gz_harmonic(u: TwoRowTableau, columns: _Chain | None = None) -> GzVector:
    """The harmonic Gelfand-Tsetlin vector labeled by u, unnormalized.
    ``columns`` is a ``_Chain`` of degree k at u's level that the caller
    shares among tableaux in ``iter_basis`` order; by default u walks a
    chain of its own."""
    return _vector(u, columns or _Chain(u.n, len(u.second_row)))


def gz_in_H(u: TwoRowTableau, m: int) -> GzVector:
    """The vector for u inside the degree-m module: psi(h_u, m - k)."""
    k = len(u.second_row)
    if not k <= m:
        raise ValueError(f"degree {m} is below the tableau's second row {k}")
    if 2 * m > u.n:
        raise ValueError(f"degree {m} exceeds half of {u.n} variables")
    return _vector(u, _Chain(u.n, m))


class _Chain:
    """The branching rule's slices for tableaux of level n in the degree-m
    module: the m-subsets ``keys`` in lexicographic order, which its
    vectors share, the getter ``order`` of their positions in the
    colexicographic order, the second-row set ``row`` of the tableau last
    built, and ``slices``, whose entry s maps each degree d to V(s, d) of
    that tableau's entries 1..s, from V(0, 0) = [1] up."""

    __slots__ = ("n", "m", "keys", "order", "row", "slices")

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.keys = list(combinations(range(1, n + 1), m))
        colex = {key: i for i, key in enumerate(sorted(self.keys, key=lambda key: key[::-1]))}
        self.order = _getter(list(map(colex.__getitem__, self.keys)))
        self.row: set[int] = set()
        self.slices = [{0: [1]}]


def _slice(
    below: dict[int, list[int]], s: int, j: int, second: bool, degrees: range
) -> dict[int, list[int]]:
    """V(s, d) for each d of ``degrees``, from the slice ``below`` of the
    entries 1..s - 1, j of them in the second row, where s joins the
    second row if ``second``.  A degree missing from ``below`` is zero
    there, which happens only at the ends of a first-row step."""
    lists = {}
    for d in degrees:
        if second:
            no_s, has_s = d - j, d + j - s
            lists[d] = [no_s * c for c in below[d]] + [has_s * c for c in below[d - 1]]
        else:
            head = below.get(d) or [0] * comb(s - 1, d)
            lists[d] = head + (below.get(d - 1) or [0] * (comb(s, d) - len(head)))
    return lists


def _vector(u: TwoRowTableau, chain: _Chain) -> GzVector:
    """psi(h_u, m - k) with its closed norm, from the slices of ``chain``
    that u shares with the tableau the chain last built: the levels from
    the first entry where the two second rows differ are built again."""
    n, m, slices = chain.n, chain.m, chain.slices
    row = set(u.second_row)
    del slices[min(row ^ chain.row, default=n + 1):]
    chain.row = row
    j = sum(p < len(slices) for p in u.second_row)
    for s in range(len(slices), n + 1):
        second = s in row
        j += second
        degrees = range(max(j, m - n + s), min(m, s - j) + 1)
        slices.append(_slice(slices[-1], s, j - second, second, degrees))
    return GzVector(u, list(chain.order(slices[n][m])), chain.keys, closed_norm_sq_in_H(u, m))


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
    second-row entries; their count telescopes to C(n, m).  All of them
    walk one ``_Chain``, so each prefix of a shape's tableaux is built
    once, and share its ``keys``.  Vectors are built when requested and
    not cached, so a consumer that writes each vector before asking for
    the next holds one at a time, plus the chain's slices.
    """
    if not 0 <= 2 * m <= n:
        raise ValueError(f"need 0 <= m <= n/2, got n={n}, m={m}")
    chain = _Chain(n, m)
    for k in range(m + 1):
        build = gz_harmonic if k == m else _vector
        for u in enumerate_tableaux(TwoRowDiagram(n, k)):
            yield build(u, chain)


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

