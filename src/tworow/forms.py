"""Square-free multilinear forms and the symmetric group acting on them.

A degree-k form in variables x_1 .. x_n is a rational linear combination of
monomials x_I over k-element subsets I of {1, .., n}.  The group acts by
substituting variables, which permutes the monomials, so the monomial basis
is orthonormal for the coefficientwise inner product and the action is
unitary.

Integral coefficients are kept as ``int`` and the rest as ``Fraction``.
Products of differences, their psi-images and their permuted images are
integral, so only the operations that divide produce fractions.

The harmonic forms are the ones killed by the divergence operator, which
sends the coefficient at a (k-1)-subset J to the sum of coefficients over
all one-element extensions of J.  Products of differences of distinct
variables, prod_t (x_{i_t} - x_{j_t}) with all 2k indices pairwise distinct,
are harmonic and span the harmonic subspace.

``psi`` averages a form up to higher degree: psi_l sends x_I to the sum of
x_{I union S} over all l-element subsets S of the complement of I.  Up to a
binomial scalar it is an isometry on harmonic forms, which is what makes
exact norm bookkeeping possible throughout the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Mapping

Key = tuple[int, ...]
Scalar = int | Fraction


def _scalar(x: object) -> Scalar:
    """``x`` if it is an exact rational: ``int`` (``bool`` included) or
    ``Fraction``.  Floats, strings and decimals raise ``TypeError``."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"scalars must be int or Fraction, got {type(x).__name__}: {x!r}")
    return x


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
                clean[key] = val.numerator if val.denominator == 1 else val
        self.coeffs = clean

    @classmethod
    def _trusted(cls, n: int, k: int, coeffs: Mapping[Key, Scalar]) -> SquareFreeForm:
        """Build from keys already known to be sorted k-subsets of 1..n,
        without validation; only zero coefficients are dropped."""
        form = object.__new__(cls)
        form.n = n
        form.k = k
        form.coeffs = {key: val for key, val in coeffs.items() if val}
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
        return self + (-other)

    def __neg__(self) -> SquareFreeForm:
        return self * -1

    def __mul__(self, scalar: Scalar) -> SquareFreeForm:
        val = _scalar(scalar)
        coeffs = {key: val * c for key, c in self.coeffs.items()}
        return SquareFreeForm._trusted(self.n, self.k, coeffs)

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
    """Substitute x_i -> x_{sigma(i)} in every monomial of f."""
    if sigma.n != f.n:
        raise ValueError(f"permutation of 1..{sigma.n} cannot act on {f.n} variables")
    images = sigma.images
    out: dict[Key, Scalar] = {}
    for key, val in f.coeffs.items():
        new_key = tuple(sorted(images[i - 1] for i in key))
        out[new_key] = out.get(new_key, 0) + val
    return SquareFreeForm._trusted(f.n, f.k, out)


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
    """Sum over one-element extensions: (div f)_J = sum_{j not in J} f_{J + j}."""
    if f.k == 0:
        raise ValueError("degree-0 forms have no divergence")
    out: dict[Key, Scalar] = {}
    for key, val in f.coeffs.items():
        for drop in range(f.k):
            sub = key[:drop] + key[drop + 1:]
            out[sub] = out.get(sub, 0) + val
    return SquareFreeForm._trusted(f.n, f.k - 1, out)


def is_harmonic(f: SquareFreeForm) -> bool:
    if f.k == 0:
        return True
    return divergence(f).is_zero()


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
    coeffs: dict[Key, int] = {(): 1}
    for i, j in pair_list:
        nxt: dict[Key, int] = {}
        for key, val in coeffs.items():
            up = tuple(sorted(key + (i,)))
            down = tuple(sorted(key + (j,)))
            nxt[up] = nxt.get(up, 0) + val
            nxt[down] = nxt.get(down, 0) - val
        coeffs = nxt
    return SquareFreeForm._trusted(n, len(pair_list), coeffs)


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


def decompose_step(
    f: SquareFreeForm, f0: SquareFreeForm, bit: int
) -> tuple[SquareFreeForm, SquareFreeForm]:
    """Split f under one more variable into stay and up components.

    ``f`` must equal psi applied to the harmonic form ``f0``, lifting degree
    k to degree m.  Viewing f inside x_1 .. x_{n+1}, multiplied by x_{n+1}
    when bit is 1, the result is the unique decomposition f_stay + f_up with
    f_stay a psi-image of f0 (same k) and f_up a psi-image of a harmonic
    degree-(k+1) form, both in degree m + bit.  Requires 2(m + bit) <= n + 1
    so that the target degree is still at most half the variable count.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    n, m, k = f.n, f.k, f0.k
    if f0.n != n:
        raise ValueError(f"variable counts differ: {n} vs {f0.n}")
    if not k <= m:
        raise ValueError(f"harmonic degree {k} exceeds form degree {m}")
    if 2 * (m + bit) > n + 1:
        raise ValueError(
            f"target degree {m + bit} exceeds half of {n + 1} variables"
        )
    if not is_harmonic(f0):
        raise ValueError("f0 is not harmonic")
    if psi(f0, m - k) != f:
        raise ValueError("f is not the psi-image of f0")

    denom = n - 2 * k + 1
    if bit == 0:
        base = f.embedded(n + 1)
        if m > k:
            tail = psi(f0, m - k - 1).embedded(n + 1).times_var(n + 1)
        else:
            tail = SquareFreeForm.zero(n + 1, m)
        stay = Fraction(n - m - k + 1, denom) * (base + tail)
        up = Fraction(m - k, denom) * base - Fraction(n - m - k + 1, denom) * tail
    else:
        base = f.embedded(n + 1).times_var(n + 1)
        tail = psi(f0, m - k + 1).embedded(n + 1)
        stay = Fraction(m - k + 1, denom) * (base + tail)
        up = Fraction(n - m - k, denom) * base - Fraction(m - k + 1, denom) * tail
    return stay, up


def harmonic_preimage(f: SquareFreeForm, k: int) -> SquareFreeForm:
    """Recover the harmonic f0 with psi(f0, m - k) == f, or raise.

    On the psi-image of the degree-k harmonic subspace, following psi with
    its adjoint multiplies by C(n - 2k, m - k), so the preimage is the
    adjoint image divided by that constant.  The candidate is then checked,
    so forms outside the image are rejected rather than mangled.
    """
    n, m = f.n, f.k
    if not 0 <= k <= m:
        raise ValueError(f"harmonic degree must lie in 0..{m}, got {k}")
    if 2 * k > n:
        raise ValueError(f"harmonic degree {k} exceeds half of {n} variables")
    scale = comb(n - 2 * k, m - k)
    if scale == 0:
        raise ValueError(f"no degree-{k} harmonic component in degree {m}")
    out: dict[Key, Scalar] = {}
    for key, val in f.coeffs.items():
        for sub in combinations(key, k):
            out[sub] = out.get(sub, 0) + val
    f0 = SquareFreeForm._trusted(n, k, {key: Fraction(val, scale) for key, val in out.items()})
    if not is_harmonic(f0) or psi(f0, m - k) != f:
        raise ValueError("form is not a psi-image of a degree-k harmonic form")
    return f0
