"""Square-free multilinear forms and the symmetric group acting on them.

A degree-k form in variables x_1 .. x_n is a rational linear combination of
monomials x_I over k-element subsets I of {1, .., n}.  The group acts by
substituting variables, which permutes the monomials, so the monomial basis
is orthonormal for the coefficientwise inner product and the action is
unitary.

The constructor keeps integral coefficients as ``int`` and the rest as
``Fraction``.  With ``int`` coefficients and scalars in, every operation
returns ``int`` coefficients, and ``harmonic_preimage``, the only one that
divides, returns its integral quotients as ``int``.  Given a ``Fraction``,
the others may return an integral value as ``Fraction(x, 1)``, which
compares, hashes and prints as x, so ``==`` and ``repr`` do not see it.

The harmonic forms are the ones killed by the divergence operator, which
sends the coefficient at a (k-1)-subset J to the sum of coefficients over
all one-element extensions of J.  Products of differences of distinct
variables, prod_t (x_{i_t} - x_{j_t}) with all 2k indices pairwise distinct,
are harmonic and span the harmonic subspace.

``psi`` averages a form up to higher degree: psi_l sends x_I to the sum of
x_{I union S} over all l-element subsets S of the complement of I.  Up to a
binomial scalar it is an isometry on harmonic forms, which is what makes
exact norm bookkeeping possible throughout the package.

The lift from degree k to degree m >= k in n variables has one index
structure, the ``LiftTable`` of (n, m, k) over dense coefficient lists in
lexicographic subset order: a gather of the k-subsets of each m-subset,
and its transpose, the m-subsets over each k-subset.  At m == k it is
the identity lift, one slot per subset each way, with no case of its
own.  psi(g, m - k) of a dense g is one gather and one running sum,
differenced at the end of each m-subset's run, which is how ``gz`` builds
its lifted vectors; the adjoint of psi is the same over the transpose,
and the divergence is that adjoint at (n, k, k - 1).  ``psi`` itself
stays the term-by-term lift.  The harmonicity and lift checks of
``decompose_step`` and ``harmonic_preimage`` and the split's tail run
this way, on dense lists; a caller with many forms passes one dict of
tables to every call, so each is built once.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import accumulate, chain, combinations, compress, islice, repeat
from math import comb
from operator import itemgetter, sub
from typing import NamedTuple

Key = tuple[int, ...]
Scalar = int | Fraction


def _scalar(x: object) -> Scalar:
    """``x`` if it is an exact rational: ``int`` (``bool`` included) or
    ``Fraction``.  Floats, strings and decimals raise ``TypeError``."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"scalars must be int or Fraction, got {type(x).__name__}: {x!r}")
    return x


def _int_if_integral(x: Fraction) -> Scalar:
    return x.numerator if x.denominator == 1 else x


def _index(x: object) -> int:
    """``x`` if it is an ``int`` and not a ``bool``; anything else, floats
    with integral values included, raises ``TypeError``."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"indices must be int, got {type(x).__name__}: {x!r}")
    return x


class SquareFreeForm:
    """A square-free multilinear form, stored as subset -> coefficient.

    Keys are strictly increasing tuples of variable indices in 1..n, all of
    the same length k.  Zero coefficients are dropped on construction, so two
    forms are equal exactly when they have identical coefficient maps.  The
    constructor takes ``n``, ``k`` and indices as ``int`` only, validates
    every key and stores integral values as ``int``;
    the package's own operations build results through ``_trusted``.
    """

    __slots__ = ("n", "k", "coeffs")

    def __init__(self, n: int, k: int, coeffs: Mapping[Iterable[int], Scalar] | None = None):
        _index(n)
        _index(k)
        if n < 0:
            raise ValueError(f"variable count must be nonnegative, got {n}")
        if not 0 <= k <= n:
            raise ValueError(f"degree must lie in 0..{n}, got {k}")
        self.n = n
        self.k = k
        clean: dict[Key, Scalar] = {}
        for raw_key, raw_val in (coeffs or {}).items():
            key = tuple(map(_index, raw_key))
            if len(key) != k:
                raise ValueError(f"monomial {key} does not have degree {k}")
            if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise ValueError(f"monomial indices must increase: {key}")
            if key and (key[0] < 1 or key[-1] > n):
                raise ValueError(f"monomial indices must lie in 1..{n}: {key}")
            val = Fraction(_scalar(raw_val))
            if val:
                clean[key] = _int_if_integral(val)
        self.coeffs = clean

    @classmethod
    def _trusted(
        cls, n: int, k: int, coeffs: Mapping[Key, Scalar], nonzero: bool = False
    ) -> SquareFreeForm:
        """Build from keys already known to be sorted k-subsets of 1..n,
        without validation; only zero coefficients are dropped.  A caller
        whose fresh dict holds no zero passes ``nonzero`` and the form keeps
        that dict."""
        form = object.__new__(cls)
        form.n = n
        form.k = k
        form.coeffs = coeffs if nonzero else {key: val for key, val in coeffs.items() if val}
        return form

    @classmethod
    def zero(cls, n: int, k: int) -> SquareFreeForm:
        return cls(n, k)

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> Iterator[tuple[Key, Scalar]]:
        """Coefficients in lexicographic monomial order."""
        for key in sorted(self.coeffs):
            yield key, self.coeffs[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SquareFreeForm):
            return NotImplemented
        return (self.n, self.k) == (other.n, other.k) and self.coeffs == other.coeffs

    def __add__(self, other: SquareFreeForm) -> SquareFreeForm:
        self._check_compatible(other)
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, 0) + val
        return SquareFreeForm._trusted(self.n, self.k, out)

    def __sub__(self, other: SquareFreeForm) -> SquareFreeForm:
        self._check_compatible(other)
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, 0) - val
        return SquareFreeForm._trusted(self.n, self.k, out)

    def __neg__(self) -> SquareFreeForm:
        return self * -1

    def __mul__(self, scalar: Scalar) -> SquareFreeForm:
        """The form times a scalar; a nonzero scalar keeps every
        coefficient nonzero, so only a zero one drops them."""
        val = _scalar(scalar)
        coeffs = {key: val * c for key, c in self.coeffs.items()} if val else {}
        return SquareFreeForm._trusted(self.n, self.k, coeffs, nonzero=True)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"SquareFreeForm({self.n}, {self.k}, 0)"
        bits = []
        for key, val in self.terms():
            mono = "*".join(f"x{i}" for i in key) or "1"
            bits.append(f"({val})*{mono}")
        return f"SquareFreeForm({self.n}, {self.k}, {' + '.join(bits)})"

    def _check_compatible(self, other: SquareFreeForm) -> None:
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError(
                f"incompatible forms: ({self.n},{self.k}) vs ({other.n},{other.k})"
            )

    def embedded(self, n_new: int) -> SquareFreeForm:
        """The same form viewed inside x_1 .. x_{n_new} for n_new >= n."""
        if n_new < self.n:
            raise ValueError(f"cannot shrink variable range {self.n} -> {n_new}")
        return SquareFreeForm._trusted(n_new, self.k, self.coeffs)

    def times_var(self, v: int) -> SquareFreeForm:
        """Multiply by the variable x_v, which must not occur in any term."""
        if not 1 <= v <= self.n:
            raise ValueError(f"variable must lie in 1..{self.n}, got {v}")
        out: dict[Key, Scalar] = {}
        for key, val in self.coeffs.items():
            if v in key:
                raise ValueError(f"variable x{v} already occurs in {key}")
            out[tuple(sorted(key + (v,)))] = val
        return SquareFreeForm._trusted(self.n, self.k + 1, out)


class Permutation:
    """A permutation of {1, .., n}, stored by its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(map(_index, images))
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs}")
        self.images = imgs

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> Permutation:
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"need distinct i, j in 1..{n}, got {i}, {j}")
        imgs = list(range(1, n + 1))
        imgs[i - 1], imgs[j - 1] = j, i
        return cls(imgs)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"point must lie in 1..{self.n}, got {i}")
        return self.images[i - 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.images})"


def act(sigma: Permutation, f: SquareFreeForm) -> SquareFreeForm:
    """Substitute x_i -> x_{sigma(i)} in every monomial of f.  Distinct
    monomials go to distinct monomials, so no terms merge or cancel."""
    if sigma.n != f.n:
        raise ValueError(f"permutation of 1..{sigma.n} cannot act on {f.n} variables")
    images = sigma.images
    out = {tuple(sorted(images[i - 1] for i in key)): val for key, val in f.coeffs.items()}
    return SquareFreeForm._trusted(f.n, f.k, out, nonzero=True)


def inner(f: SquareFreeForm, g: SquareFreeForm) -> Scalar:
    """Coefficientwise inner product, with the monomials orthonormal; an
    ``int`` when both forms are integral."""
    f._check_compatible(g)
    small, large = (f, g) if len(f.coeffs) <= len(g.coeffs) else (g, f)
    total = 0
    for key, val in small.coeffs.items():
        other = large.coeffs.get(key)
        if other is not None:
            total += val * other
    return total


def divergence(f: SquareFreeForm) -> SquareFreeForm:
    """Sum over one-element extensions: (div f)_J = sum_{j not in J} f_{J + j},
    the adjoint of the lift from degree k - 1 to k."""
    if f.k == 0:
        raise ValueError("degree-0 forms have no divergence")
    table = _table({}, f.n, f.k, f.k - 1)
    return _sparse(f.n, f.k - 1, table.subsets, _adjoint(table, _dense(f, table.keys)))


def pseudo_monomial(n: int, pairs: Iterable[tuple[int, int]]) -> SquareFreeForm:
    """The product prod_t (x_{i_t} - x_{j_t}) over pairs with distinct indices.

    All 2k indices must be pairwise distinct ``int`` values, which makes
    the product square-free and harmonic.
    """
    pair_list = [(_index(i), _index(j)) for i, j in pairs]
    flat = [idx for pair in pair_list for idx in pair]
    if len(set(flat)) != len(flat):
        raise ValueError(f"indices must be pairwise distinct: {pair_list}")
    if any(not 1 <= idx <= n for idx in flat):
        raise ValueError(f"indices must lie in 1..{n}: {pair_list}")
    return SquareFreeForm._trusted(n, len(pair_list), _expand_pairs(pair_list))


def _expand_pairs(pairs: Iterable[tuple[int, int]]) -> dict[Key, int]:
    """The coefficients of prod_t (x_{i_t} - x_{j_t}), unchecked: the
    caller guarantees that all indices are distinct ``int`` values."""
    coeffs: dict[Key, int] = {(): 1}
    for i, j in pairs:
        nxt: dict[Key, int] = {}
        for key, val in coeffs.items():
            up = tuple(sorted(key + (i,)))
            down = tuple(sorted(key + (j,)))
            nxt[up] = nxt.get(up, 0) + val
            nxt[down] = nxt.get(down, 0) - val
        coeffs = nxt
    return coeffs


def psi(f: SquareFreeForm, l: int) -> SquareFreeForm:
    """Average f up by l degrees: x_I -> sum over l-subsets S of the
    complement of I of x_{I union S}.

    Negative l yields the zero form (of clamped degree), l = 0 is the
    identity, and degrees beyond n are rejected.
    """
    if l < 0:
        return SquareFreeForm.zero(f.n, max(f.k + l, 0))
    if l == 0:
        return f
    if f.k + l > f.n:
        raise ValueError(f"target degree {f.k + l} exceeds {f.n} variables")
    universe = range(1, f.n + 1)
    out: dict[Key, Scalar] = {}
    for key, val in f.coeffs.items():
        in_key = set(key)
        rest = [i for i in universe if i not in in_key]
        for extra in combinations(rest, l):
            new_key = tuple(sorted(key + extra))
            out[new_key] = out.get(new_key, 0) + val
    return SquareFreeForm._trusted(f.n, f.k + l, out)


Getter = Callable[[Sequence[Scalar]], tuple[Scalar, ...]]


class LiftTable(NamedTuple):
    """The index structure of the lift from degree k <= m to degree m in n
    variables, over dense coefficient lists in lexicographic subset order.
    ``gather`` reads, for every m-subset in turn, the positions of its
    ``width`` = C(m, k) k-subsets.  A table shared through ``_table`` also
    holds the transpose: ``supersets`` reads, for every k-subset in turn,
    the positions of the ``fan`` = C(n - k, m - k) m-subsets containing it."""

    keys: list[Key]
    subsets: list[Key]
    gather: Getter
    width: int
    supersets: Getter | None = None
    fan: int = 0


LiftTables = dict[tuple[int, int, int], LiftTable]


def _getter(positions: Sequence[int]) -> Getter:
    """A getter of ``positions`` from a list, as a tuple; an itemgetter of
    one position would return the bare item."""
    if len(positions) == 1:
        (only,) = positions
        return lambda dense: (dense[only],)
    return itemgetter(*positions)


def _lift_table(n: int, m: int, k: int) -> LiftTable:
    """The lift of (n, m, k), for 0 <= k <= m <= n, without its transpose:
    the basis builder ``gz._vectors`` reads only the gather.  At k == m
    the gather is 0, 1, .., C(n, m) - 1, one slot wide."""
    subsets = list(combinations(range(1, n + 1), k))
    position = {subset: i for i, subset in enumerate(subsets)}
    keys = list(combinations(range(1, n + 1), m))
    slots = chain.from_iterable(map(combinations, keys, repeat(k)))
    return LiftTable(keys, subsets, _getter(list(map(position.__getitem__, slots))), comb(m, k))


def _table(tables: LiftTables, n: int, m: int, k: int) -> LiftTable:
    """The lift table of (n, m, k) with its transpose, from ``tables``,
    built there on first use, for 0 <= k <= m <= n.  The gather of the
    identity 0, 1, .. is the flat list of positions, and a stable sort of
    its slots by position lists the slots of each k-subset in the order of
    their m-subsets; at k == m both are the identity, with fan 1."""
    table = tables.get((n, m, k))
    if table is None:
        table = _lift_table(n, m, k)
        slots = table.gather(range(len(table.subsets)))
        owners = [i // table.width for i in sorted(range(len(slots)), key=slots.__getitem__)]
        table = tables[n, m, k] = table._replace(
            supersets=_getter(owners), fan=comb(n - k, m - k)
        )
    return table


def _run_sums(slots: Iterable[Scalar], width: int) -> list[Scalar]:
    """The sums of the consecutive runs of ``width`` slots: the running sum
    at the end of each run, differenced.  Runs of one slot are the slots
    themselves, each coefficient keeping its type."""
    if width == 1:
        return list(slots)
    ends = list(islice(accumulate(slots, initial=0), 0, None, width))
    return list(map(sub, islice(ends, 1, None), ends))


def _lift(table: LiftTable, dense: Sequence[Scalar]) -> list[Scalar]:
    """psi(g, m - k) on the m-subsets, for g dense on the k-subsets."""
    return _run_sums(table.gather(dense), table.width)


def _adjoint(table: LiftTable, dense: Sequence[Scalar]) -> list[Scalar]:
    """The adjoint of psi(., m - k) on the k-subsets, for f dense on the
    m-subsets: each k-subset sums f over the m-subsets containing it."""
    return _run_sums(table.supersets(dense), table.fan)


def _dense(f: SquareFreeForm, keys: Iterable[Key]) -> list[Scalar]:
    """The coefficients of f on ``keys``, zeros included."""
    return list(map(f.coeffs.get, keys, repeat(0)))


def _sparse(n: int, k: int, keys: Iterable[Key], dense: Sequence[Scalar]) -> SquareFreeForm:
    """The form with coefficients ``dense`` on ``keys``, zeros dropped."""
    return SquareFreeForm._trusted(n, k, dict(compress(zip(keys, dense), dense)), nonzero=True)


def _harmonic(tables: LiftTables, n: int, k: int, dense: Sequence[Scalar]) -> bool:
    """Whether the degree-k form dense on the k-subsets of 1..n is
    harmonic: its divergence, the adjoint at (n, k, k - 1), is zero."""
    return k == 0 or not any(_adjoint(_table(tables, n, k, k - 1), dense))


def _lifted(
    tables: LiftTables, n: int, j: int, k: int, dense: Sequence[Scalar]
) -> tuple[list[Scalar], list[Key]]:
    """psi(g, j - k) for g dense on the k-subsets of 1..n, with the
    j-subsets it is dense on."""
    table = _table(tables, n, j, k)
    return _lift(table, dense), table.keys


def decompose_step(
    f: SquareFreeForm, f0: SquareFreeForm, bit: int, tables: LiftTables | None = None
) -> tuple[SquareFreeForm, SquareFreeForm]:
    """Split f under one more variable into stay and up components.

    ``f`` must equal psi applied to the harmonic form ``f0``, lifting degree
    k to degree m.  Viewing f inside x_1 .. x_{n+1}, multiplied by x_{n+1}
    when bit is 1, there is a unique decomposition f_stay + f_up with
    f_stay a psi-image of f0 (same k) and f_up a psi-image of a harmonic
    degree-(k+1) form, both in degree m + bit.  Requires 2(m + bit) <= n + 1
    so that the target degree is still at most half the variable count.

    The pieces are returned scaled by d = n - 2k + 1, as the pair
    (d * f_stay, d * f_up), so they sum to d times the embedded f and are
    integral whenever f and f0 are.  They are a * (base + tail) and
    b * base - a * tail for integers a + b = d, with base f (times x_{n+1}
    at bit 1) and tail psi(f0, m - k - 1) x_{n+1} (psi(f0, m - k + 1) at
    bit 1): one has x_{n+1} in every monomial and the other in none, so
    each piece is two scaled copies on disjoint supports.

    ``tables`` holds the ``LiftTable``s that validate f0 and f and lift
    the tail; a caller with many forms of the same sizes passes one dict
    to every call, and by default the call builds its own.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    n, m, k = f.n, f.k, f0.k
    if f0.n != n:
        raise ValueError(f"variable counts differ: {n} vs {f0.n}")
    if not k <= m:
        raise ValueError(f"harmonic degree {k} exceeds form degree {m}")
    if 2 * (m + bit) > n + 1:
        raise ValueError(f"target degree {m + bit} exceeds half of {n + 1} variables")
    if tables is None:
        tables = {}
    table = _table(tables, n, m, k)
    g0 = _dense(f0, table.subsets)
    if not _harmonic(tables, n, k, g0):
        raise ValueError("f0 is not harmonic")
    base, keys = _lift(table, g0), table.keys
    if base != _dense(f, keys):
        raise ValueError("f is not the psi-image of f0")

    if bit == 0:
        tail, tail_keys = _lifted(tables, n, m - 1, k, g0) if m > k else ((), [])
        keys = keys + [key + (n + 1,) for key in tail_keys]
        a, b = n - m - k + 1, m - k
    else:
        tail, tail_keys = _lifted(tables, n, m + 1, k, g0)
        keys = [key + (n + 1,) for key in keys] + tail_keys
        a, b = m - k + 1, n - m - k
    stay = [a * c for c in chain(base, tail)]
    up = [b * c for c in base] + [-a * c for c in tail]
    return _sparse(n + 1, m + bit, keys, stay), _sparse(n + 1, m + bit, keys, up)


def _scaled_preimage(f: SquareFreeForm, k: int, tables: LiftTables) -> list[Scalar] | str:
    """C = C(n - 2k, m - k) times the harmonic f0 with psi(f0, m - k) == f,
    dense on the k-subsets, or, if there is none, the reason: the check of
    ``harmonic_preimage`` without its division or its form."""
    n, m = f.n, f.k
    if not 0 <= k <= m:
        return f"harmonic degree must lie in 0..{m}, got {k}"
    if 2 * k > n:
        return f"harmonic degree {k} exceeds half of {n} variables"
    scale = comb(n - 2 * k, m - k)
    if scale == 0:
        return f"no degree-{k} harmonic component in degree {m}"
    table = _table(tables, n, m, k)
    target = _dense(f, table.keys)
    g = _adjoint(table, target)
    if not _harmonic(tables, n, k, g) or _lift(table, g) != [scale * c for c in target]:
        return "form is not a psi-image of a degree-k harmonic form"
    return g


def harmonic_preimage(
    f: SquareFreeForm, k: int, tables: LiftTables | None = None
) -> SquareFreeForm:
    """Recover the harmonic f0 with psi(f0, m - k) == f, or raise.

    On the psi-image of the degree-k harmonic subspace, following psi with
    its adjoint multiplies by C = C(n - 2k, m - k), so the preimage is the
    adjoint image g divided by that constant.  The candidate is checked
    before the division, as g harmonic with psi(g, m - k) == C * f, so
    forms outside the image are rejected rather than mangled and integral
    forms are checked in integers.  The adjoint, the divergence and the
    lift are each one gather of a ``LiftTable`` from ``tables``, shared
    as in ``decompose_step``.
    """
    if tables is None:
        tables = {}
    g = _scaled_preimage(f, k, tables)
    if isinstance(g, str):
        raise ValueError(g)
    n, m = f.n, f.k
    scale = comb(n - 2 * k, m - k)
    quotients = [Fraction(val, scale) if val % scale else val // scale for val in g]
    return _sparse(n, k, _table(tables, n, m, k).subsets, quotients)
