"""Exact rank computations for the divergence operator.

The divergence from degree k down to degree k - 1 is an integer matrix with
a 0/1 entry for each containment J subset I.  It is built sparse, one map
column -> 1 per row over the containments alone, and its kernel dimension
is found by Gaussian elimination over the one field GF(p), p = 32749, on
those sparse rows, each pivoting on its last column: on these matrices
the pivot rows then fill in far less than with first-column pivots (1667
entries against 5600 at n = 10, k = 4).  The prime lies below 2^15, so
every product in the elimination stays below 2^30, within one digit of
a Python int.

The certificate stays exact.  Rank mod p never exceeds the rank over the
rationals, so a full rank mod p is a full rank over Q.  And by R. M.
Wilson's diagonal form of the inclusion matrices (1990), the matrix of
(k-1)-subsets against k-subsets has full rank mod p whenever p > k, so
one elimination mod p, with no rational fallback, certifies every k that
``harmonic_dim`` accepts; it rejects k >= p, the one range that
certificate does not cover.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import combinations
from math import comb

_PRIME = 32749


def _rank(rows: Iterable[Mapping[int, int]]) -> int:
    """Rank over GF(p), p = ``_PRIME``, of integer rows given as sparse
    maps column -> value; columns left out, and values that vanish mod p,
    are zero.

    Each row is reduced at its last column by that column's pivot row
    until it is zero or ends in a column without a pivot, where it becomes
    that column's pivot row, scaled to end with 1; the rank is the number
    of pivots.
    """
    p = _PRIME
    pivots: dict[int, dict[int, int]] = {}
    for sparse in rows:
        row = {c: v % p for c, v in sparse.items() if v % p}
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], p - 2, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivot.items():
                val = (row.get(c, 0) - factor * v) % p
                if val:
                    row[c] = val
                else:
                    del row[c]
    return len(pivots)


def divergence_matrix(n: int, k: int) -> list[dict[int, int]]:
    """Sparse rows indexed by the (k-1)-subsets, columns by the k-subsets,
    both in lexicographic order: row J maps the column of each k-subset
    containing J to 1.  Each column is entered in the k rows of the
    subsets it drops one entry to, so the columns of every row ascend."""
    if not (1 <= k and 2 * k <= n):
        raise ValueError(f"need 1 <= k <= n/2, got n={n}, k={k}")
    rows = {sub: {} for sub in combinations(range(1, n + 1), k - 1)}
    for c, key in enumerate(combinations(range(1, n + 1), k)):
        for drop in range(k):
            rows[key[:drop] + key[drop + 1:]][c] = 1
    return list(rows.values())


def harmonic_dim(n: int, k: int) -> int:
    """Kernel dimension of the degree-k divergence, computed from its rank
    mod ``_PRIME``, which Wilson's theorem makes the rank over Q for every
    k below the prime."""
    if not 0 <= 2 * k <= n:
        raise ValueError(f"need 0 <= k <= n/2, got n={n}, k={k}")
    if k >= _PRIME:
        raise ValueError(f"rank mod {_PRIME} certifies only k < {_PRIME}, got k={k}")
    if k == 0:
        return 1
    return comb(n, k) - _rank(divergence_matrix(n, k))
