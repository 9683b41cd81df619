"""Two-row Young diagrams and their standard tableaux.

Level n of the two-row branching graph holds the shapes (n - k, k) for
0 <= k <= n // 2.  A standard tableau of such a shape is determined by the
set of entries sitting in its second row, so tableaux are stored as the
strictly increasing tuple of those entries.

Shapes, cells and tableaux are ``__slots__`` value classes that take
``==``, ``hash`` and ``repr`` from ``forms._Value``: equal exactly when
they are of the same class with equal fields, hashed by the tuple of
their fields, and immutable by convention.
"""

from __future__ import annotations

from math import comb

from .forms import _index, _Value


class TwoRowDiagram(_Value):
    """Shape (n - k, k): n cells in total, k of them in the second row;
    ``n`` and ``k`` are ``int`` and not ``bool``, else ``TypeError``."""

    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int):
        _index(n)
        _index(k)
        if n < 0:
            raise ValueError(f"cell count must be nonnegative, got n={n}")
        if not 0 <= 2 * k <= n:
            raise ValueError(f"need 0 <= k <= n/2, got n={n}, k={k}")
        self.n = n
        self.k = k

    @property
    def rows(self) -> tuple[int, int]:
        return (self.n - self.k, self.k)

    def cells(self) -> list[Cell]:
        first = [Cell(1, c) for c in range(1, self.n - self.k + 1)]
        second = [Cell(2, c) for c in range(1, self.k + 1)]
        return first + second


class Cell(_Value):
    """A box of a diagram, with 1-based row and column, each an ``int``
    and not a ``bool``, else ``TypeError``."""

    __slots__ = ("row", "col")

    def __init__(self, row: int, col: int):
        _index(row)
        _index(col)
        if row not in (1, 2):
            raise ValueError(f"row must be 1 or 2, got {row}")
        if col < 1:
            raise ValueError(f"column must be >= 1, got {col}")
        self.row = row
        self.col = col

    @property
    def content(self) -> int:
        return self.col - self.row


def enumerate_diagrams(n: int) -> list[TwoRowDiagram]:
    """All level-n shapes, ordered by increasing second-row length k."""
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    return [TwoRowDiagram(n, k) for k in range(n // 2 + 1)]


def dim(d: TwoRowDiagram) -> int:
    """Number of standard tableaux of shape d, C(n, k) - C(n, k - 1)."""
    if d.k == 0:
        return 1
    return comb(d.n, d.k) - comb(d.n, d.k - 1)


def hook_length(d: TwoRowDiagram, cell: Cell) -> int:
    """Cells to the right plus cells below plus one, for a cell of d."""
    a, b = d.rows
    if cell.row == 1:
        if cell.col > a:
            raise ValueError(f"{cell} lies outside {d}")
        arm = a - cell.col
        leg = 1 if cell.col <= b else 0
        return arm + leg + 1
    if cell.col > b:
        raise ValueError(f"{cell} lies outside {d}")
    return b - cell.col + 1


class TwoRowTableau(_Value):
    """A standard tableau with at most two rows.

    ``second_row`` lists the entries placed in the second row, in increasing
    order; any sequence is stored as a tuple.  Standardness forces the j-th
    of them (1-based) to be at least 2j: entry p sits at the end of the
    second row only after p - 1 entries filled both rows above and left of
    it.  ``n`` and the entries are ``int`` and not ``bool``, else
    ``TypeError``.
    """

    __slots__ = ("n", "second_row")

    def __init__(self, n: int, second_row: tuple[int, ...]):
        _index(n)
        ps = tuple(second_row)
        for p in ps:
            if type(p) is not int:
                _index(p)
        if any(ps[j] <= ps[j - 1] for j in range(1, len(ps))):
            raise ValueError(f"second row entries must increase: {ps}")
        if ps and (ps[0] < 1 or ps[-1] > n):
            raise ValueError(f"entries must lie in 1..{n}: {ps}")
        if 2 * len(ps) > n:
            raise ValueError(f"second row too long for {n} cells: {ps}")
        for j, p in enumerate(ps, start=1):
            if p < 2 * j:
                raise ValueError(
                    f"entry {p} in second-row position {j} violates standardness"
                )
        self.n = n
        self.second_row = ps

    @classmethod
    def _trusted(cls, n: int, second_row: tuple[int, ...]) -> TwoRowTableau:
        """Build from a tuple already known to be a standard second row for
        n cells, without validation; the package's own enumerations and
        steps build their tableaux through this."""
        u = object.__new__(cls)
        u.n = n
        u.second_row = second_row
        return u

    def cell_of(self, entry: int) -> Cell:
        if not 1 <= entry <= self.n:
            raise ValueError(f"entry must lie in 1..{self.n}, got {entry}")
        ps = self.second_row
        for j, p in enumerate(ps, start=1):
            if p == entry:
                return Cell(2, j)
        below = sum(1 for p in ps if p < entry)
        return Cell(1, entry - below)

    def content(self, entry: int) -> int:
        """Column minus row of the cell holding ``entry``."""
        return self.cell_of(entry).content

    def restricted(self) -> TwoRowTableau:
        """Drop the entry n, stepping one level down the branching graph."""
        if self.n == 0:
            raise ValueError("cannot restrict the empty tableau")
        if self.second_row and self.second_row[-1] == self.n:
            return TwoRowTableau._trusted(self.n - 1, self.second_row[:-1])
        return TwoRowTableau._trusted(self.n - 1, self.second_row)


def _second_rows(n: int, k: int) -> list[tuple[int, ...]]:
    """Second rows of the standard tableaux of shape (n - k, k), lexicographic:
    the j-th entry runs from 2j, past the one before it, up to n - k + j."""
    rows: list[tuple[int, ...]] = [()]
    for j in range(1, k + 1):
        rows = [
            ps + (p,)
            for ps in rows
            for p in range(max(ps[-1] + 1, 2 * j) if ps else 2, n - k + j + 1)
        ]
    return rows


def enumerate_tableaux(d: TwoRowDiagram) -> list[TwoRowTableau]:
    """Standard tableaux of shape d, lexicographic in the second-row set."""
    return [TwoRowTableau._trusted(d.n, ps) for ps in _second_rows(d.n, d.k)]


def enumerate_all_tableaux(n: int) -> list[TwoRowTableau]:
    """All level-n tableaux, by increasing k, then as enumerate_tableaux."""
    out: list[TwoRowTableau] = []
    for d in enumerate_diagrams(n):
        out.extend(enumerate_tableaux(d))
    return out


def good_tableau(n: int, k: int) -> TwoRowTableau:
    """The tableau of shape (n - k, k) with second row 2, 4, ..., 2k."""
    return TwoRowTableau(n, tuple(2 * j for j in range(1, k + 1)))

