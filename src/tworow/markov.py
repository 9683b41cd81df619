"""Spectral measures of induced representations and their random walks.

A direction sequence xi in {0,1}^N with at most t/2 ones among the first t
entries picks out, at every level n, the monomial over the one-positions
inside the degree-m(n) module.  Projecting that vector onto the
Gelfand-Tsetlin basis gives a probability on level-n tableaux, the spectral
measure.  These measures cohere across levels and are Markov: the chance of
the walk staying at second-row length k or moving up depends only on
(n, k, m(n)) and the next direction bit, through the closed kernel in
``induced_transition``.

A table maps each second row of positive weight to a ``(num, den)`` pair
in lowest terms.  Both routes to a table walk the tree of tableau
prefixes once in integers and reduce each leaf with one gcd:
``spectral_measure`` carries the partial rook-count sums of the GZ
coefficients and the closed norm, and ``path_product_table`` the
product of the rows of a kernel its caller passes in and keeps.
Marginals, equality and cross-multiplied step ratios work on the pairs,
and path products and sampler thresholds on a kernel's integer rows;
tableaux and ``Fraction``s are made only when a caller reads them.
Tables and kernels that the module builds itself skip validation
(``_trusted``), but every table still checks that its mass is exactly 1.

The same machinery covers the exchangeable central measure with two equal
frequencies, whose kernel is level-homogeneous, and exact-arithmetic
samplers for both walks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, mul
from typing import Iterator, NamedTuple

from .forms import _index, _scalar, _Value
from .gz import _norm_factor
from .ygraph import (
    TwoRowDiagram,
    TwoRowTableau,
    _second_rows,
    enumerate_diagrams,
    hook_length,
)


class BitPrefix(_Value):
    """A direction sequence: ``int`` bits 0 or 1, with at most t/2 ones in
    every prefix; a ``bool`` or ``float`` bit raises ``TypeError``.  Any
    sequence of bits is stored as a tuple."""

    __slots__ = ("bits",)

    def __init__(self, bits: tuple[int, ...]):
        bits = tuple(bits)
        ones = 0
        for t, b in enumerate(bits, start=1):
            if _index(b) not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
            ones += b
            if 2 * ones > t:
                raise ValueError(
                    f"prefix of length {t} has {ones} ones, more than half"
                )
        self.bits = bits

    @classmethod
    def from_string(cls, s: str) -> BitPrefix:
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"direction sequence must match [01]+, got {s!r}")
        return cls(tuple(int(c) for c in s))

    @classmethod
    def alternating(cls, length: int) -> BitPrefix:
        """The sequence 0, 1, 0, 1, ... with ones at even positions."""
        return cls(tuple(t % 2 for t in range(length)))

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def ones(self, t: int) -> int:
        """Number of ones among the first t bits."""
        if not 0 <= t <= len(self.bits):
            raise ValueError(f"prefix length must lie in 0..{len(self.bits)}, got {t}")
        return sum(self.bits[:t])


class SpectralTable:
    """An exact probability table on the standard tableaux of one level.
    ``probs`` is read-only: a new dict, in ``weights`` order, on each access."""

    __slots__ = ("level", "_pairs")

    def __init__(self, level: int, probs: dict[TwoRowTableau, Fraction]):
        pairs: dict[tuple[int, ...], tuple[int, int]] = {}
        for u, p in probs.items():
            if u.n != level:
                raise ValueError(f"tableau {u} does not live at level {level}")
            if _scalar(p) < 0:
                raise ValueError(f"negative probability {p} at {u}")
            if p:
                pairs[u.second_row] = (p.numerator, p.denominator)
        _check_mass(pairs)
        self.level = level
        self._pairs = pairs

    @classmethod
    def _trusted(cls, level: int, pairs: dict[tuple[int, ...], tuple[int, int]]) -> SpectralTable:
        """Build from positive ``(num, den)`` pairs in lowest terms on second
        rows known to be standard at ``level``, keeping the dict unchecked.
        The mass must still be exactly 1."""
        _check_mass(pairs)
        table = object.__new__(cls)
        table.level = level
        table._pairs = pairs
        return table

    @property
    def probs(self) -> dict[TwoRowTableau, Fraction]:
        level = self.level
        return {
            TwoRowTableau._trusted(level, row): Fraction(num, den)
            for row, num, den in self.weights()
        }

    def weights(self) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """The entries as ``(second_row, num, den)``, sorted by second-row
        length, then second row, each weight num / den in lowest terms,
        with no tableau or ``Fraction`` made."""
        pairs = self._pairs
        return ((row, *pairs[row]) for row in sorted(pairs, key=_by_shape))

    def restricted(self) -> SpectralTable:
        """The exact marginal one level down: numerators summed over the
        lcm of the denominators, each marginal reduced once."""
        level = self.level
        if level == 0:
            raise ValueError("cannot restrict a level-0 table")
        common = lcm(*(den for _, den in self._pairs.values()))
        sums: dict[tuple[int, ...], int] = {}
        for row, (num, den) in self._pairs.items():
            if row and row[-1] == level:
                row = row[:-1]
            sums[row] = sums.get(row, 0) + num * (common // den)
        pairs = {row: _reduced(num, common) for row, num in sums.items()}
        return SpectralTable._trusted(level - 1, pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpectralTable):
            return NotImplemented
        return self.level == other.level and self._pairs == other._pairs

    def __repr__(self) -> str:
        entries = ", ".join(f"{row}: {Fraction(num, den)}" for row, num, den in self.weights())
        return f"SpectralTable(level={self.level}, {{{entries}}})"


def _check_mass(pairs: dict[tuple[int, ...], tuple[int, int]]) -> None:
    """Raise unless the ``(num, den)`` pairs in lowest terms sum to 1: the
    numerators, each brought to the lcm of the denominators, must sum to
    that lcm."""
    common = lcm(*(den for _, den in pairs.values()))
    total = sum(num * (common // den) for num, den in pairs.values())
    if total != common:
        raise ValueError(f"probabilities sum to {Fraction(total, common)}, not 1")


def _by_shape(row: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return len(row), row


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num / den as a pair in lowest terms, for den > 0."""
    g = gcd(num, den)
    return num // g, den // g


class KernelEntry(_Value):
    """One transition row: direction bit (None when level-homogeneous, else
    an ``int`` 0 or 1, a ``bool`` or ``float`` raising ``TypeError``) and
    exact stay/up probabilities, each an ``int`` or a ``Fraction``, stored as
    reduced integers stay + up == den and read back as ``Fraction``s.  Rows
    compare, hash and print by bit and those two ``Fraction``s."""

    __slots__ = ("bit", "stay", "up", "den")
    _fields = ("bit", "p_stay", "p_up")

    def __init__(self, bit: int | None, p_stay: Fraction, p_up: Fraction):
        if bit is not None and _index(bit) not in (0, 1):
            raise ValueError(f"bit must be 0, 1 or None, got {bit!r}")
        _scalar(p_stay)
        _scalar(p_up)
        # Both are in lowest terms, so they sum to 1 exactly when they share
        # a denominator that their numerators add up to.
        stay, up, den = p_stay.numerator, p_up.numerator, p_stay.denominator
        if stay < 0 or up < 0 or p_up.denominator != den or stay + up != den:
            raise ValueError(
                f"probabilities must be nonnegative and sum to 1, "
                f"got {p_stay}, {p_up}"
            )
        self.bit = bit
        self.stay = stay
        self.up = up
        self.den = den

    @classmethod
    def _trusted(cls, bit: int | None, stay: int, up: int, den: int) -> KernelEntry:
        """Build from a row the module computed itself, unchecked: ``bit``
        is None, 0 or 1 and stay + up == den with up / den in lowest terms."""
        entry = object.__new__(cls)
        entry.bit = bit
        entry.stay = stay
        entry.up = up
        entry.den = den
        return entry

    @property
    def p_stay(self) -> Fraction:
        return Fraction(self.stay, self.den)

    @property
    def p_up(self) -> Fraction:
        return Fraction(self.up, self.den)


def _missing_row(n: int, k: int) -> ValueError:
    return ValueError(f"no transition stored for level {n}, k={k}")


class TransitionKernel:
    """Stay/up probabilities keyed by (level, second-row length)."""

    __slots__ = ("depth", "entries")

    def __init__(self, depth: int, entries: dict[tuple[int, int], KernelEntry]):
        if depth < 1:
            raise ValueError(f"depth must be at least 1, got {depth}")
        for (n, k), entry in entries.items():
            if not 1 <= n < depth:
                raise ValueError(f"level {n} outside 1..{depth - 1}")
            if not 0 <= 2 * k <= n:
                raise ValueError(f"state k={k} invalid at level {n}")
        self.depth = depth
        self.entries = dict(entries)

    @classmethod
    def _trusted(cls, depth: int, entries: dict[tuple[int, int], KernelEntry]) -> TransitionKernel:
        """Build from rows the module computed itself on valid keys, keeping
        the dict unchecked and uncopied."""
        kernel = object.__new__(cls)
        kernel.depth = depth
        kernel.entries = entries
        return kernel

    def transition(self, n: int, k: int) -> KernelEntry:
        try:
            return self.entries[(n, k)]
        except KeyError:
            raise _missing_row(n, k) from None

    def rows(self) -> list[tuple[int, int, KernelEntry]]:
        return [(n, k, self.entries[(n, k)]) for n, k in sorted(self.entries)]


def induced_transition(n: int, k: int, m: int, bit: int) -> tuple[Fraction, Fraction]:
    """Stay/up probabilities for the induced walk at level n, second-row
    length k, degree m, next direction bit.

    With d = n - 2k + 1, bit 0 gives ((n - m - k + 1)/d, (m - k)/d) and
    bit 1 gives ((m - k + 1)/d, (n - m - k)/d).
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    if not 0 <= 2 * k <= n:
        raise ValueError(f"need 0 <= k <= n/2, got n={n}, k={k}")
    if not k <= m <= n - k:
        raise ValueError(f"degree must lie in {k}..{n - k}, got {m}")
    if 2 * (m + bit) > n + 1:
        raise ValueError(
            f"next degree {m + bit} exceeds half of {n + 1}, not a valid step"
        )
    stay, up, den = _induced_row(n, k, m, bit)
    return Fraction(stay, den), Fraction(up, den)


def _induced_row(n: int, k: int, m: int, bit: int) -> tuple[int, int, int]:
    """``induced_transition`` unchecked, as reduced integers (stay, up, den)."""
    up, den = _reduced(m - k if bit == 0 else n - m - k, n - 2 * k + 1)
    return den - up, up, den


def kernel_from_prefix(prefix: BitPrefix, depth: int | None = None) -> TransitionKernel:
    """The induced walk's kernel along a direction sequence, levels
    1 .. depth - 1, states k = 0 .. m(n)."""
    if depth is None:
        depth = len(prefix)
    if not 1 <= depth <= len(prefix):
        raise ValueError(f"depth must lie in 1..{len(prefix)}, got {depth}")
    bits = prefix.bits
    entries: dict[tuple[int, int], KernelEntry] = {}
    m = 0
    for n in range(1, depth):
        m += bits[n - 1]
        bit = bits[n]
        for k in range(m + 1):
            entries[(n, k)] = KernelEntry._trusted(bit, *_induced_row(n, k, m, bit))
    return TransitionKernel._trusted(depth, entries)


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


def spectral_measure(prefix: BitPrefix, level: int | None = None) -> SpectralTable:
    """Project the direction sequence's monomial x_I onto the basis: the
    weight of tableau u is the squared coefficient c_u over the closed
    squared norm of u's vector.  No basis vector is built.

    c_u, the coefficient of x_I in psi(h_u, m - k), is a closed sum over
    the k-subsets S of I of (-1)^|H| R1 R2, H = {j : p_j in S}, with P the
    second row: R1 counts the ways to match S - P onto the p_j outside H
    with i_j < p_j, and R2 the ways to give each p_j in H a distinct free
    low i_j < p_j from {1, .., n} - (P union S).  Both are Ferrers-board
    rook numbers, and the term of S is the coefficient of x_S in h_u.
    Walking the p's upwards, each contributes the number of entries
    available below it minus those already placed, its ``_rook_factors``,
    so each term factorises along the entries 1, 2, .. in order.

    Hence one depth-first scan over tableau prefixes carries, for each
    count b of S-entries placed so far, the signed sum of the partial
    terms, and the running norm.  Entry t + 1 in the first row keeps the
    sums, or, if it lies in I, also lets b grow: new[b] += v[b],
    new[b + 1] += v[b].  Entry t + 1 in the second row multiplies v[b] by
    its ``_rook_factors`` at b: the factor outside S goes to new[b] and,
    if t + 1 lies in I, the factor inside S to new[b + 1].  A prefix whose
    sums are all zero has no tableau of positive weight below it.  At a
    leaf with k second-row entries, c_u is the sum at b = k."""
    if level is None:
        level = len(prefix)
    if not 1 <= level <= len(prefix):
        raise ValueError(f"level must lie in 1..{len(prefix)}, got {level}")
    bits = prefix.bits
    m = prefix.ones(level)
    # k <= m, as S is a k-subset of I, and b never falls, so sums past the
    # largest k cannot reach a leaf.
    width = min(m, level // 2) + 1
    # The psi isometry constant of each k, as in ``gz.closed_norm_sq_in_H``.
    lift = [comb(level - 2 * k, m - k) for k in range(width)]
    # The factors of entry t + 1 as the (j + 1)-th second-row entry: its
    # rook factors by b, outside S (even codes) and inside S (odd codes),
    # and its norm factor.
    factors = {}
    for t in range(1, level):
        for j in range(min((t + 1) // 2, width - 1)):
            rook = _rook_factors(t + 1, j, width - 1)
            factors[t, j] = rook[0::2], rook[1::2], _norm_factor(t + 1, j)
    pairs: dict[tuple[int, ...], tuple[int, int]] = {}
    stack: list[tuple[int, tuple[int, ...], list[int], int]] = [
        (0, (), [1] + [0] * (width - 1), 1)
    ]
    while stack:
        t, second, v, norm = stack.pop()
        j = len(second)
        if t == level:
            c = v[j]
            if c:
                pairs[second] = _reduced(c * c, norm * lift[j])
            continue
        in_i = bits[t]
        stay = [x + y for x, y in zip(v, [0, *v])] if in_i else v
        if any(stay):
            stack.append((t + 1, second, stay, norm))
        if 2 * (j + 1) > t + 1 or j + 1 >= width:
            continue
        outside, inside, norm_factor = factors[t, j]
        if in_i:
            up = list(map(add, map(mul, v, outside), [0, *map(mul, v, inside)]))
        else:
            up = list(map(mul, v, outside))
        if any(up):
            stack.append((t + 1, second + (t + 1,), up, norm * norm_factor))
    return SpectralTable._trusted(level, pairs)


def path_product_table(kernel: TransitionKernel) -> SpectralTable:
    """The table at level ``kernel.depth`` from the kernel's rows: each
    tableau's weight is the product of stay/up probabilities along its
    path.  Only paths through stored rows and nonzero steps are walked;
    every other tableau has weight 0.  Each path carries an integer
    numerator and denominator, reduced once at its leaf."""
    level, rows = kernel.depth, kernel.entries
    pairs: dict[tuple[int, ...], tuple[int, int]] = {}
    stack: list[tuple[int, int, tuple[int, ...], int, int]] = [(1, 0, (), 1, 1)]
    while stack:
        t, k, second, num, den = stack.pop()
        if t == level:
            pairs[second] = _reduced(num, den)
            continue
        row = rows.get((t, k))
        if row is None:
            continue
        den *= row.den
        if row.stay:
            stack.append((t + 1, k, second, num * row.stay, den))
        if row.up:
            stack.append((t + 1, k + 1, second + (t + 1,), num * row.up, den))
    return SpectralTable._trusted(level, pairs)


class MarkovViolation(NamedTuple):
    """Two same-shape tableaux whose conditional step weights differ."""

    first: TwoRowTableau
    second: TwoRowTableau
    up: bool
    first_ratio: Fraction
    second_ratio: Fraction


class MarkovReport(NamedTuple):
    ok: bool
    violations: tuple[MarkovViolation, ...]


def _step_ratios(
    table: SpectralTable, deeper: SpectralTable, row: tuple[int, ...]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The stay and up ratios of a row in the support of ``table``, each an
    unreduced (num, den) with den > 0: the extension's weight in ``deeper``,
    0 if it has none (an up step past n/2), over the row's in ``table``."""
    num, den = table._pairs[row]
    deep = deeper._pairs
    stay_num, stay_den = deep.get(row, (0, 1))
    up_num, up_den = deep.get(row + (deeper.level,), (0, 1))
    return (stay_num * den, stay_den * num), (up_num * den, up_den * num)


def is_markov(table: SpectralTable, deeper: SpectralTable) -> MarkovReport:
    """Decide whether the level-to-level step depends only on the shape.

    ``deeper`` must be one level up with exact marginal ``table``; violations
    list same-shape tableau pairs with different stay or up ratios, each
    against the first tableau of its shape in ``items`` order.
    """
    if deeper.level != table.level + 1:
        raise ValueError(
            f"levels {table.level} and {deeper.level} are not consecutive"
        )
    if deeper.restricted() != table:
        raise ValueError("deeper table does not marginalize to the shallow one")
    by_shape: dict[int, list] = {}
    for row in sorted(table._pairs, key=_by_shape):
        by_shape.setdefault(len(row), []).append((row, _step_ratios(table, deeper, row)))
    violations: list[MarkovViolation] = []
    level = table.level
    for (lead, lead_ratios), *rest in by_shape.values():
        for up in (False, True):
            lead_num, lead_den = lead_ratios[up]
            for row, ratios in rest:
                num, den = ratios[up]
                if num * lead_den != lead_num * den:
                    first, second = (TwoRowTableau._trusted(level, r) for r in (lead, row))
                    ratio = Fraction(lead_num, lead_den), Fraction(num, den)
                    violations.append(MarkovViolation(first, second, up, *ratio))
    return MarkovReport(not violations, tuple(violations))


def kernel_matches(
    table: SpectralTable, deeper: SpectralTable, kernel: TransitionKernel
) -> bool:
    """Check that the observed step ratios equal the kernel's rows exactly."""
    for row in sorted(table._pairs, key=len):
        entry = kernel.transition(table.level, len(row))
        for (num, den), want in zip(_step_ratios(table, deeper, row), (entry.stay, entry.up)):
            if num * entry.den != want * den:
                return False
    return True


def good_tableau_ratio(n: int, k: int, m_n: int, m_n1: int) -> Fraction:
    """Squared-norm ratio, level n over level n + 1, for the tableau with
    second row 2, 4, ..., 2k: C(n - 2k, m_n - k) / C(n + 1 - 2k, m_n1 - k).

    Equals the stay probability of the induced walk for the matching bit
    m_n1 - m_n.
    """
    if not 0 <= 2 * k <= n:
        raise ValueError(f"need 0 <= k <= n/2, got n={n}, k={k}")
    if not k <= m_n <= n - k:
        raise ValueError(f"degree must lie in {k}..{n - k}, got {m_n}")
    if m_n1 - m_n not in (0, 1):
        raise ValueError(f"degrees must step by 0 or 1, got {m_n} -> {m_n1}")
    if not k <= m_n1 <= n + 1 - k:
        raise ValueError(f"next degree must lie in {k}..{n + 1 - k}, got {m_n1}")
    return Fraction(comb(n - 2 * k, m_n - k), comb(n + 1 - 2 * k, m_n1 - k))


def central_shape_weight(d: TwoRowDiagram) -> Fraction:
    """Per-path weight of the two-frequency central measure at shape d:
    2^-n times the product over cells of (2 + content) / hook."""
    num, den = 1, 2**d.n
    for cell in d.cells():
        num *= 2 + cell.content
        den *= hook_length(d, cell)
    return Fraction(num, den)


def central_table(level: int) -> SpectralTable:
    """The central measure's table: every path to a shape gets that shape's
    weight."""
    if level < 1:
        raise ValueError(f"level must be at least 1, got {level}")
    pairs: dict[tuple[int, ...], tuple[int, int]] = {}
    for d in enumerate_diagrams(level):
        w = central_shape_weight(d)
        pairs.update(dict.fromkeys(_second_rows(level, d.k), (w.numerator, w.denominator)))
    return SpectralTable._trusted(level, pairs)


def central_alpha_transition(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Closed stay/up probabilities of the central walk at every level:
    ((n - 2k + 2) / (2(n - 2k + 1)), (n - 2k) / (2(n - 2k + 1)))."""
    if not 0 <= 2 * k <= n:
        raise ValueError(f"need 0 <= k <= n/2, got n={n}, k={k}")
    stay, up, den = _central_row(n, k)
    return Fraction(stay, den), Fraction(up, den)


def _central_row(n: int, k: int) -> tuple[int, int, int]:
    """``central_alpha_transition`` unchecked, as reduced integers (stay, up, den)."""
    up, den = _reduced(n - 2 * k, 2 * (n - 2 * k + 1))
    return den - up, up, den


def central_kernel(depth: int) -> TransitionKernel:
    """The central walk's kernel for levels 1 .. depth - 1."""
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    entries: dict[tuple[int, int], KernelEntry] = {}
    for n in range(1, depth):
        for k in range(n // 2 + 1):
            entries[(n, k)] = KernelEntry._trusted(None, *_central_row(n, k))
    return TransitionKernel._trusted(depth, entries)


def _up_threshold(num: int, den: int) -> int:
    """ceil(num 2^64 / den): for every 64-bit r, r < T exactly when
    r * den < num * 2^64, so one int compare decides a step."""
    return -((-num << 64) // den)


def _threshold_table(kernel: TransitionKernel, depth: int) -> list[list[int | None]]:
    """Up thresholds for levels 1 .. depth - 1, one list per level indexed
    by k = 0 .. n/2: ``_up_threshold`` of each stored row, None where the
    kernel stores no row, so that a walk which reaches one raises."""
    entries = kernel.entries
    return [
        [
            None if (row := entries.get((n, k))) is None else _up_threshold(row.up, row.den)
            for k in range(n // 2 + 1)
        ]
        for n in range(1, depth)
    ]


def _as_rng(rng: random.Random | int) -> random.Random:
    if isinstance(rng, random.Random):
        return rng
    return random.Random(rng)


# A walk holds each second-row length, at most depth // 2, in one byte.
_MAX_WALK_DEPTH = 2 * 255


def _check_walks(kernel: TransitionKernel, depth: int, count: int) -> None:
    deepest = min(kernel.depth, _MAX_WALK_DEPTH)
    if not 1 <= depth <= deepest:
        raise ValueError(f"depth must lie in 1..{deepest}, got {depth}")
    if count < 0:
        raise ValueError(f"path count must be nonnegative, got {count}")


# Paths walked together: one draw and one pass per level serve a chunk,
# and a chunk's words (258 KB at depth 64) bound the memory a walk holds.
# 512 paths walk about as fast per path as 1024, with half the words.
_CHUNK = 512


def _walks(table: list[list[int | None]], rng: random.Random, count: int) -> Iterator[list[bytes]]:
    """Walk ``count`` paths over ``table`` in chunks of up to ``_CHUNK``,
    yielding each chunk's states: one ``bytes`` per level 1 .. depth, whose
    byte p is the second-row length of the chunk's path p there.

    A chunk of c paths takes its words from one ``getrandbits(64 (depth -
    1) c)``.  CPython fills that from 32-bit words, least significant
    first, so it is the stream of as many ``getrandbits(64)`` calls: path
    p's step from level n reads word p (depth - 1) + n - 1.  Each level
    decides every path at once on top bytes.  With h the top byte of a
    path's word r and t = min(T >> 56, 255) for its threshold T, h < t
    gives r < (h + 1) 2^56 <= T, an up step, and h > t gives t = T >> 56
    and r >= (t + 1) 2^56 > T, a stay.  One subtraction over 16-bit lanes
    of 256 + t - h leaves 1 in a lane's high byte exactly when h <= t, and
    0 in its low byte exactly when h == t; only such a tie (about 1 in
    256) compares the whole word with T.  A state with no stored row, or
    past n/2, raises ``_missing_row`` at the lowest level a path of the
    chunk reaches one, smallest k first, before the chunk is yielded."""
    steps = len(table)
    stride = 8 * steps
    # Per level, translate tables from k to t, and to 1 where k has no row.
    levels = []
    for n, row in enumerate(table, start=1):
        tops = bytes([0 if limit is None else min(limit >> 56, 255) for limit in row])
        gaps = bytes([limit is None for limit in row])
        levels.append((n, row, tops.ljust(256, b"\0"), gaps.ljust(256, b"\1")))
    while count:
        c = min(count, _CHUNK)
        count -= c
        words = rng.getrandbits(64 * steps * c).to_bytes(stride * c, "little")
        high_ones = b"\0\1" * c
        heads = bytearray(2 * c)
        ks = bytes(c)
        states = [ks]
        for i, (n, row, tops, gaps) in enumerate(levels):
            if 1 in ks.translate(gaps):
                raise _missing_row(n, min(k for k in ks if gaps[k]))
            lanes = bytearray(high_ones)
            lanes[::2] = ks.translate(tops)
            heads[::2] = words[8 * i + 7 :: stride]
            diff = int.from_bytes(lanes, "little") - int.from_bytes(heads, "little")
            diff = diff.to_bytes(2 * c, "little")
            up = bytearray(diff[1::2])
            ties = diff[::2]
            p = ties.find(0)
            while p >= 0:
                w = 8 * (p * steps + i)
                if int.from_bytes(words[w : w + 8], "little") >= row[ks[p]]:
                    up[p] = 0
                p = ties.find(0, p + 1)
            ks = (int.from_bytes(ks, "little") + int.from_bytes(up, "little")).to_bytes(c, "little")
            states.append(ks)
        yield states


def sample_path(kernel: TransitionKernel, depth: int, rng: random.Random | int) -> list[int]:
    """Run the walk once; the second-row length at levels 1 .. depth.

    ``rng`` is a Random instance or an integer seed.  Each step consumes
    exactly 64 bits, so traces are reproducible byte for byte under a
    fixed seed.  This is the one walk of ``sample_paths`` with the same
    arguments, so a lone path pays for the threshold table of every
    stored row up to ``depth``.
    """
    return next(sample_paths(kernel, depth, 1, rng))


def sample_paths(
    kernel: TransitionKernel, depth: int, count: int, rng: random.Random | int
) -> Iterator[list[int]]:
    """``count`` walks drawn one after another from ``rng``, each the
    second-row length at levels 1 .. depth.  Arguments are checked before
    the first walk is asked for, and the walks share one threshold table,
    built from the whole kernel before the first walk.

    The walks are drawn in chunks of up to ``_CHUNK``, each from one wide
    draw that consumes what 64 bits per step of its paths would, so a
    fully consumed iterator leaves ``rng`` where ``count`` walks one at a
    time would.  Asking for a chunk's first walk draws the whole chunk:
    a caller that stops early, or draws from the same ``rng`` between
    walks, sees ``rng`` advanced past every walk of the chunk.  A state
    the kernel stores no row for raises when its chunk is drawn, at the
    lowest level a walk of the chunk reaches one."""
    rng = _as_rng(rng)
    _check_walks(kernel, depth, count)
    table = _threshold_table(kernel, depth)
    return (list(ks) for states in _walks(table, rng, count) for ks in zip(*states))


def sample_tableau(kernel: TransitionKernel, depth: int, rng: random.Random | int) -> TwoRowTableau:
    """Run the walk from the one-cell tableau down to ``depth`` levels."""
    ks = sample_path(kernel, depth, rng)
    second = tuple(t for t in range(2, depth + 1) if ks[t - 1] > ks[t - 2])
    return TwoRowTableau(depth, second)


def transition_counts(
    kernel: TransitionKernel, depth: int, paths: int, seed: int
) -> dict[tuple[int, int], tuple[int, int]]:
    """Visit and up counts per (level, k) over ``paths`` sampled walks, in
    order of level, then k, for the states some walk visits.

    The walks are those of ``sample_paths`` under ``random.Random(seed)``,
    drawn chunk by chunk, and a state the kernel stores no row for raises
    at the lowest level a walk of its chunk reaches one.  Only the visits
    are counted, one count per level and k.  The ups follow by
    conservation: a walk never goes down and goes up by at most one, so
    the walks of length at most k at level n outnumber those at level
    n + 1 by exactly the ones that went up from (n, k)."""
    _check_walks(kernel, depth, paths)
    table = _threshold_table(kernel, depth)
    visits = [[0] * (n // 2 + 1) for n in range(1, depth + 1)]
    for states in _walks(table, random.Random(seed), paths):
        for seen, ks in zip(visits, states):
            for k in range(len(seen)):
                seen[k] += ks.count(k)
    counts = {}
    for n, (here, there) in enumerate(zip(visits, visits[1:]), start=1):
        ups = 0
        for k, (v, w) in enumerate(zip(here, there)):
            ups += v - w
            if v:
                counts[(n, k)] = (v, ups)
    return counts


def within_three_sigma(visits: int, ups: int, num: int, den: int) -> bool:
    """Exact integer test of |ups - visits p|^2 <= 9 visits p (1 - p) for
    p = num / den, den > 0: both sides times den^2."""
    lhs = (ups * den - visits * num) ** 2
    rhs = 9 * visits * num * (den - num)
    return lhs <= rhs
