"""Exact rank computations for the divergence operator.

The divergence from degree k down to degree k - 1 is an integer matrix with
a 0/1 entry for each containment J subset I.  Its kernel dimension is found
by Gaussian elimination modulo a large prime; a full-rank certificate mod p
lifts to the integers, and in the (never yet observed) deficient case the
computation falls back to exact rational elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

_PRIME = (1 << 61) - 1


def _rank(rows: list[list[int]], p: int | None = None) -> int:
    """Rank by Gaussian elimination over GF(p), or over the rationals when
    p is None."""
    if p is None:
        work = [[Fraction(v) for v in row] for row in rows]
    else:
        work = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank]
        inv = 1 / lead[col] if p is None else pow(lead[col], p - 2, p)
        for r in range(rank + 1, len(work)):
            if work[r][col]:
                factor = work[r][col] * inv
                row = [v - factor * lv for v, lv in zip(work[r], lead)]
                work[r] = row if p is None else [v % p for v in row]
        rank += 1
        if rank == len(work):
            break
    return rank


def divergence_matrix(n: int, k: int) -> list[list[int]]:
    """Rows indexed by (k-1)-subsets, columns by k-subsets, entry 1 on
    containment."""
    if not (1 <= k and 2 * k <= n):
        raise ValueError(f"need 1 <= k <= n/2, got n={n}, k={k}")
    cols = {key: c for c, key in enumerate(combinations(range(1, n + 1), k))}
    rows = []
    for sub in combinations(range(1, n + 1), k - 1):
        row = [0] * len(cols)
        free = set(range(1, n + 1)) - set(sub)
        for extra in free:
            row[cols[tuple(sorted(sub + (extra,)))]] = 1
        rows.append(row)
    return rows


def harmonic_dim(n: int, k: int) -> int:
    """Kernel dimension of the degree-k divergence, computed from rank."""
    if not 0 <= 2 * k <= n:
        raise ValueError(f"need 0 <= k <= n/2, got n={n}, k={k}")
    if k == 0:
        return 1
    rows = divergence_matrix(n, k)
    ncols = len(rows[0])
    rank = _rank(rows, _PRIME)
    if rank < len(rows):
        # Rank can only drop mod p, so a deficit needs exact confirmation.
        rank = _rank(rows)
    return ncols - rank
