"""Spectral measures of induced representations and their random walks.

A direction sequence xi in {0,1}^N with at most t/2 ones among the first t
entries picks out, at every level n, the monomial over the one-positions
inside the degree-m(n) module.  Projecting that vector onto the
Gelfand-Tsetlin basis gives a probability on level-n tableaux, the spectral
measure.  These measures cohere across levels and are Markov: the chance of
the walk staying at second-row length k or moving up depends only on
(n, k, m(n)) and the next direction bit, through the closed kernel in
``induced_transition``.

Both routes to a table walk the tree of tableau prefixes once in integers
and make one ``Fraction`` per tableau: ``spectral_measure`` carries the
partial rook-count sums of ``gz``'s closed coefficients and the closed
norm, and ``path_product_table`` the product of the rows of a kernel its
caller passes in and keeps.  Step ratios compare by cross-multiplying
integers.  Tables and tableaux that the module builds itself skip
validation (``_trusted``), but every table still checks that its mass is
exactly 1.

The same machinery covers the exchangeable central measure with two equal
frequencies, whose kernel is level-homogeneous, and exact-arithmetic
samplers for both walks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, lcm
from typing import Iterator, NamedTuple

from .forms import _index, _scalar
from .gz import _norm_factor
from .ygraph import (
    TwoRowDiagram,
    TwoRowTableau,
    enumerate_diagrams,
    enumerate_tableaux,
    hook_length,
)


class BitPrefix:
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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.bits,))

    def __repr__(self) -> str:
        return f"BitPrefix(bits={self.bits!r})"

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
    """An exact probability table on the standard tableaux of one level."""

    __slots__ = ("level", "probs")

    def __init__(self, level: int, probs: dict[TwoRowTableau, Fraction]):
        clean: dict[TwoRowTableau, Fraction] = {}
        total = Fraction(0)
        for u, p in probs.items():
            if u.n != level:
                raise ValueError(f"tableau {u} does not live at level {level}")
            p = Fraction(_scalar(p))
            if p < 0:
                raise ValueError(f"negative probability {p} at {u}")
            total += p
            if p:
                clean[u] = p
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self.level = level
        self.probs = clean

    @classmethod
    def _trusted(cls, level: int, probs: dict[TwoRowTableau, Fraction]) -> SpectralTable:
        """Build from positive ``Fraction`` weights on tableaux already known
        to live at ``level``, without validating them and keeping the dict.
        The mass must still be exactly 1: the numerators, each brought to
        the lcm of the denominators, must sum to that lcm."""
        common = lcm(*(p.denominator for p in probs.values()))
        total = sum(p.numerator * (common // p.denominator) for p in probs.values())
        if total != common:
            raise ValueError(f"probabilities sum to {Fraction(total, common)}, not 1")
        table = object.__new__(cls)
        table.level = level
        table.probs = probs
        return table

    def prob(self, u: TwoRowTableau) -> Fraction:
        return self.probs.get(u, Fraction(0))

    def items(self) -> list[tuple[TwoRowTableau, Fraction]]:
        """Entries sorted by second-row length, then second row."""
        return sorted(
            self.probs.items(), key=lambda kv: (len(kv[0].second_row), kv[0].second_row)
        )

    def support(self) -> list[TwoRowTableau]:
        return [u for u, _ in self.items()]

    def restricted(self) -> SpectralTable:
        """The exact marginal one level down."""
        if self.level == 0:
            raise ValueError("cannot restrict a level-0 table")
        out: dict[TwoRowTableau, Fraction] = {}
        for u, p in self.probs.items():
            v = u.restricted()
            out[v] = out.get(v, 0) + p
        return SpectralTable._trusted(self.level - 1, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpectralTable):
            return NotImplemented
        return self.level == other.level and self.probs == other.probs

    def __repr__(self) -> str:
        entries = ", ".join(f"{u.second_row}: {p}" for u, p in self.items())
        return f"SpectralTable(level={self.level}, {{{entries}}})"


class KernelEntry:
    """One transition row: direction bit (None when level-homogeneous, else
    an ``int`` 0 or 1, a ``bool`` or ``float`` raising ``TypeError``) and
    exact stay/up probabilities, each an ``int`` or a ``Fraction``."""

    __slots__ = ("bit", "p_stay", "p_up")

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
        self.p_stay = p_stay
        self.p_up = p_up

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.bit, self.p_stay, self.p_up) == (other.bit, other.p_stay, other.p_up)

    def __hash__(self) -> int:
        return hash((self.bit, self.p_stay, self.p_up))

    def __repr__(self) -> str:
        return f"KernelEntry(bit={self.bit!r}, p_stay={self.p_stay!r}, p_up={self.p_up!r})"


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
    d = n - 2 * k + 1
    if bit == 0:
        return Fraction(n - m - k + 1, d), Fraction(m - k, d)
    return Fraction(m - k + 1, d), Fraction(n - m - k, d)


def kernel_from_prefix(prefix: BitPrefix, depth: int | None = None) -> TransitionKernel:
    """The induced walk's kernel along a direction sequence, levels
    1 .. depth - 1, states k = 0 .. m(n)."""
    if depth is None:
        depth = len(prefix)
    if not 1 <= depth <= len(prefix):
        raise ValueError(f"depth must lie in 1..{len(prefix)}, got {depth}")
    entries: dict[tuple[int, int], KernelEntry] = {}
    for n in range(1, depth):
        bit = prefix.bits[n]
        m = prefix.ones(n)
        for k in range(m + 1):
            stay, up = induced_transition(n, k, m, bit)
            entries[(n, k)] = KernelEntry(bit, stay, up)
    return TransitionKernel(depth, entries)


def spectral_measure(prefix: BitPrefix, level: int | None = None) -> SpectralTable:
    """Project the direction sequence's monomial x_I onto the basis: the
    weight of tableau u is the squared coefficient c_u over the closed
    squared norm of u's vector.  No basis vector is built.

    c_u is the closed rook-count sum of ``gz`` over the k-subsets S of I,
    and each of its terms factorises along the entries 1, 2, .. in order.
    So one depth-first scan over tableau prefixes carries, for each count
    b of S-entries placed so far, the signed sum of the partial terms, and
    the running norm.  Entry t + 1 in the first row keeps the sums, or, if
    it lies in I, also lets b grow: new[b] += v[b], new[b + 1] += v[b].
    Entry t + 1 = p_{j+1} in the second row adds v[b] (b - j) to new[b],
    and, if it lies in I, subtracts v[b] (t - j - b) from new[b + 1]; a
    factor below 1 adds nothing.  A prefix whose sums are all zero has no
    tableau of positive weight below it.  At a leaf with k second-row
    entries, c_u is the sum at b = k."""
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
    probs: dict[TwoRowTableau, Fraction] = {}
    stack: list[tuple[int, tuple[int, ...], list[int], int]] = [
        (0, (), [1] + [0] * (width - 1), 1)
    ]
    while stack:
        t, second, v, norm = stack.pop()
        j = len(second)
        if t == level:
            c = v[j]
            if c:
                probs[TwoRowTableau._trusted(level, second)] = Fraction(
                    c * c, norm * lift[j]
                )
            continue
        in_i = bits[t]
        stay = [x + y for x, y in zip(v, [0, *v])] if in_i else v
        if any(stay):
            stack.append((t + 1, second, stay, norm))
        if 2 * (j + 1) > t + 1 or j + 1 >= width:
            continue
        up = [0] * width
        for b in range(j + 1, width):
            up[b] = v[b] * (b - j)
        if in_i:
            for b in range(min(t - j, width - 1)):
                up[b + 1] -= v[b] * (t - j - b)
        if any(up):
            stack.append((t + 1, second + (t + 1,), up, norm * _norm_factor(t + 1, j)))
    return SpectralTable._trusted(level, probs)


def path_product_table(kernel: TransitionKernel) -> SpectralTable:
    """The table at level ``kernel.depth`` from the kernel's rows: each
    tableau's weight is the product of stay/up probabilities along its
    path.  Only paths through stored rows and nonzero steps are walked;
    every other tableau has weight 0.  Each path carries an integer
    numerator and denominator, and each leaf makes one ``Fraction``."""
    level = kernel.depth
    # A row's two probabilities share their denominator (``KernelEntry``).
    rows = {
        key: (entry.p_stay.numerator, entry.p_up.numerator, entry.p_stay.denominator)
        for key, entry in kernel.entries.items()
    }
    probs: dict[TwoRowTableau, Fraction] = {}
    stack: list[tuple[int, int, tuple[int, ...], int, int]] = [(1, 0, (), 1, 1)]
    while stack:
        t, k, second, num, den = stack.pop()
        if t == level:
            probs[TwoRowTableau._trusted(level, second)] = Fraction(num, den)
            continue
        row = rows.get((t, k))
        if row is None:
            continue
        stay, up, d = row
        den *= d
        if stay:
            stack.append((t + 1, k, second, num * stay, den))
        if up:
            stack.append((t + 1, k + 1, second + (t + 1,), num * up, den))
    return SpectralTable._trusted(level, probs)


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


def _step_ratio(
    table: SpectralTable, deeper: SpectralTable, u: TwoRowTableau, up: bool
) -> tuple[int, int]:
    """deeper.prob(u.extended(up)) / table.prob(u) for u in the support of
    ``table``, as an unreduced numerator and a positive denominator; an up
    step past n/2 has ratio 0.  Two ratios compare by cross-multiplying."""
    if up and 2 * (len(u.second_row) + 1) > u.n + 1:
        return 0, 1
    p = table.probs[u]
    q = deeper.probs.get(u.extended(up), 0)
    return q.numerator * p.denominator, q.denominator * p.numerator


def is_markov(table: SpectralTable, deeper: SpectralTable) -> MarkovReport:
    """Decide whether the level-to-level step depends only on the shape.

    ``deeper`` must be one level up with exact marginal ``table``; violations
    list same-shape tableau pairs with different stay or up ratios.
    """
    if deeper.level != table.level + 1:
        raise ValueError(
            f"levels {table.level} and {deeper.level} are not consecutive"
        )
    if deeper.restricted() != table:
        raise ValueError("deeper table does not marginalize to the shallow one")
    by_shape: dict[int, list[TwoRowTableau]] = {}
    for u in table.support():
        by_shape.setdefault(len(u.second_row), []).append(u)
    violations: list[MarkovViolation] = []
    for _, group in sorted(by_shape.items()):
        lead = group[0]
        for up in (False, True):
            lead_num, lead_den = _step_ratio(table, deeper, lead, up)
            for u in group[1:]:
                num, den = _step_ratio(table, deeper, u, up)
                if num * lead_den != lead_num * den:
                    violations.append(
                        MarkovViolation(
                            lead, u, up, Fraction(lead_num, lead_den), Fraction(num, den)
                        )
                    )
    return MarkovReport(not violations, tuple(violations))


def kernel_matches(
    table: SpectralTable, deeper: SpectralTable, kernel: TransitionKernel
) -> bool:
    """Check that the observed step ratios equal the kernel's rows exactly."""
    for u in table.support():
        entry = kernel.transition(table.level, len(u.second_row))
        for up, want in ((False, entry.p_stay), (True, entry.p_up)):
            num, den = _step_ratio(table, deeper, u, up)
            if num * want.denominator != want.numerator * den:
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
    w = Fraction(1, 2**d.n)
    for cell in d.cells():
        w *= Fraction(2 + cell.content, hook_length(d, cell))
    return w


def central_table(level: int) -> SpectralTable:
    """The central measure's table: every path to a shape gets that shape's
    weight."""
    if level < 1:
        raise ValueError(f"level must be at least 1, got {level}")
    probs: dict[TwoRowTableau, Fraction] = {}
    for d in enumerate_diagrams(level):
        w = central_shape_weight(d)
        for u in enumerate_tableaux(d):
            probs[u] = w
    return SpectralTable._trusted(level, probs)


def central_alpha_transition(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Closed stay/up probabilities of the central walk at every level:
    ((n - 2k + 2) / (2(n - 2k + 1)), (n - 2k) / (2(n - 2k + 1)))."""
    if not 0 <= 2 * k <= n:
        raise ValueError(f"need 0 <= k <= n/2, got n={n}, k={k}")
    d = 2 * (n - 2 * k + 1)
    return Fraction(n - 2 * k + 2, d), Fraction(n - 2 * k, d)


def central_kernel(depth: int) -> TransitionKernel:
    """The central walk's kernel for levels 1 .. depth - 1."""
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    entries: dict[tuple[int, int], KernelEntry] = {}
    for n in range(1, depth):
        for k in range(n // 2 + 1):
            stay, up = central_alpha_transition(n, k)
            entries[(n, k)] = KernelEntry(None, stay, up)
    return TransitionKernel(depth, entries)


def _up_threshold(p: Fraction) -> int:
    """ceil(p * 2^64): for every 64-bit r, r < T exactly when
    r * den < num * 2^64, so one int compare decides a step."""
    return -((-p.numerator << 64) // p.denominator)


def _threshold_table(kernel: TransitionKernel, depth: int) -> list[list[int | None]]:
    """Up thresholds for levels 1 .. depth - 1, one list per level indexed
    by k = 0 .. n/2: ``_up_threshold`` of each stored row, None where the
    kernel stores no row, so a walk that reaches one fails its compare."""
    entries = kernel.entries
    return [
        [
            None if (n, k) not in entries else _up_threshold(entries[n, k].p_up)
            for k in range(n // 2 + 1)
        ]
        for n in range(1, depth)
    ]


def _as_rng(rng: random.Random | int) -> random.Random:
    if isinstance(rng, random.Random):
        return rng
    return random.Random(rng)


def _check_walks(kernel: TransitionKernel, depth: int, count: int) -> None:
    if not 1 <= depth <= kernel.depth:
        raise ValueError(f"depth must lie in 1..{kernel.depth}, got {depth}")
    if count < 0:
        raise ValueError(f"path count must be nonnegative, got {count}")


def _walk(table: list[list[int | None]], rng: random.Random) -> list[int]:
    getrandbits = rng.getrandbits
    ks = [0]
    k = 0
    try:
        for n, row in enumerate(table, start=1):
            if getrandbits(64) < row[k]:
                k += 1
            ks.append(k)
    except (IndexError, TypeError):
        # An up step past n/2 leaves the kernel's states; None marks a
        # state the kernel stores no row for.
        raise _missing_row(n, k) from None
    return ks


def sample_path(kernel: TransitionKernel, depth: int, rng: random.Random | int) -> list[int]:
    """Run the walk once; the second-row length at levels 1 .. depth.

    ``rng`` is a Random instance or an integer seed.  Each step consumes
    exactly 64 bits, so traces are reproducible byte for byte under a
    fixed seed.  The walk is the first of ``sample_paths`` with the same
    arguments, but only the rows it visits get an up threshold.
    """
    rng = _as_rng(rng)
    _check_walks(kernel, depth, 1)
    getrandbits = rng.getrandbits
    entries = kernel.entries
    ks = [0]
    k = 0
    for n in range(1, depth):
        r = getrandbits(64)
        entry = entries.get((n, k))
        if entry is None:
            raise _missing_row(n, k)
        if r < _up_threshold(entry.p_up):
            k += 1
        ks.append(k)
    return ks


def sample_paths(
    kernel: TransitionKernel, depth: int, count: int, rng: random.Random | int
) -> Iterator[list[int]]:
    """``count`` walks drawn one after another from ``rng``, each as
    ``sample_path`` returns it.  Arguments are checked before the first
    walk is asked for, and the walks share one threshold table, built
    from the whole kernel before the first walk."""
    rng = _as_rng(rng)
    _check_walks(kernel, depth, count)
    table = _threshold_table(kernel, depth)
    return (_walk(table, rng) for _ in range(count))


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

    The walks count only their up steps.  Visits follow by conservation:
    every path starts at (1, 0), and a path at (n + 1, k) either stayed at
    (n, k) or went up from (n, k - 1)."""
    _check_walks(kernel, depth, paths)
    table = _threshold_table(kernel, depth)
    ups = [[0] * len(row) for row in table]
    levels = list(zip(range(1, depth), table, ups))
    getrandbits = random.Random(seed).getrandbits
    try:
        for _ in range(paths):
            k = 0
            for n, limits, went_up in levels:
                if getrandbits(64) < limits[k]:
                    went_up[k] += 1
                    k += 1
    except (IndexError, TypeError):
        # An up step past n/2 leaves the kernel's states; None marks a
        # state the kernel stores no row for.
        raise _missing_row(n, k) from None
    counts = {}
    visits = [paths]
    for n, went_up in enumerate(ups, start=1):
        for k, (v, u) in enumerate(zip(visits, went_up)):
            if v:
                counts[(n, k)] = (v, u)
        visits = [v - u for v, u in zip(visits, went_up)] + [0]
        for k, u in enumerate(went_up, start=1):
            visits[k] += u
    return counts


def within_three_sigma(visits: int, ups: int, p: Fraction) -> bool:
    """Exact integer test of |ups - visits p|^2 <= 9 visits p (1 - p)."""
    num, den = p.numerator, p.denominator
    lhs = (ups * den - visits * num) ** 2
    rhs = 9 * visits * num * (den - num)
    return lhs <= rhs
