"""Exact coefficient arithmetic: rationals and simple extensions QQ[z]/(p(z)).

Rationals are stdlib fractions.Fraction (arbitrary precision, auto-reduced,
positive denominator). Extensions store elements as coordinate vectors in the
power basis 1, z, .., z^(m-1). Irreducibility of the modulus is never assumed:
inversion runs an extended Euclid and reports a discovered factor lazily if
the modulus splits.

Univariate polynomials over the rationals are little-endian coefficient
tuples with no trailing zeros; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

from .errors import (FieldMismatch, InvalidExtension, NotInvertible, ZeroForm,
                     ZeroInversion)

UniPoly = tuple[Fraction, ...]


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to a rational")


def clear_denominators(values: Iterable) -> tuple[int, list[int]]:
    """(den, [den * v for v in values]) as ints, den the lcm of the
    denominators of the rationals (or ints) in values."""
    values = list(values)
    den = 1
    for v in values:
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    return den, [v.numerator * (den // v.denominator) for v in values]


# ---------------------------------------------------------------------------
# univariate polynomial helpers over QQ


def uni_trim(coeffs: Iterable) -> UniPoly:
    cs = [as_fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def uni_degree(p: UniPoly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def uni_sub(p: UniPoly, q: UniPoly) -> UniPoly:
    n = max(len(p), len(q))
    return uni_trim(
        (p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n)
    )


def uni_scale(p: UniPoly, c) -> UniPoly:
    c = as_fraction(c)
    if c == 0:
        return ()
    return tuple([ci * c for ci in p])


def uni_mul(p: UniPoly, q: UniPoly) -> UniPoly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return uni_trim(out)


def uni_divmod(p: UniPoly, q: UniPoly) -> tuple[UniPoly, UniPoly]:
    if not q:
        raise ZeroDivisionError("univariate division by zero polynomial")
    rem = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quot = [Fraction(0)] * max(len(p) - dq, 0)
    for k in range(len(rem) - 1, dq - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        f = c / lead
        quot[k - dq] = f
        for j in range(dq + 1):
            rem[k - dq + j] -= f * q[j]
    return uni_trim(quot), uni_trim(rem)


def uni_monic(p: UniPoly) -> UniPoly:
    if not p:
        return ()
    return uni_scale(p, 1 / p[-1])


def uni_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm."""
    a, b = p, q
    while b:
        a, b = b, uni_divmod(a, b)[1]
    return uni_monic(a)


def uni_xgcd(p: UniPoly, q: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Monic g plus cofactors (g, u, v) with u*p + v*q = g."""
    a, b = p, q
    ua, va = (Fraction(1),), ()
    ub, vb = (), (Fraction(1),)
    while b:
        quot, rem = uni_divmod(a, b)
        a, b = b, rem
        ua, ub = ub, uni_sub(ua, uni_mul(quot, ub))
        va, vb = vb, uni_sub(va, uni_mul(quot, vb))
    if not a:
        return (), ua, va
    lead = a[-1]
    return uni_monic(a), uni_scale(ua, 1 / lead), uni_scale(va, 1 / lead)


def uni_derivative(p: UniPoly) -> UniPoly:
    return uni_trim(i * p[i] for i in range(1, len(p)))


def uni_eval(p: UniPoly, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def squarefree_check(p: Sequence) -> bool:
    """True iff the nonzero univariate polynomial has no repeated root."""
    poly = uni_trim(p)
    if not poly:
        raise ZeroForm("squarefree check on the zero polynomial")
    return uni_degree(uni_gcd(poly, uni_derivative(poly))) == 0


def squarefree_decomposition(p: Sequence) -> list[tuple[UniPoly, int]]:
    """Yun decomposition [(f_i, i), ..] with p = lead * prod f_i^i, f_i squarefree."""
    poly = uni_monic(uni_trim(p))
    if not poly:
        raise ZeroForm("squarefree decomposition of the zero polynomial")
    out: list[tuple[UniPoly, int]] = []
    g = uni_gcd(poly, uni_derivative(poly))
    w = uni_divmod(poly, g)[0]
    i = 1
    while uni_degree(w) > 0:
        y = uni_gcd(w, g)
        fac = uni_divmod(w, y)[0]
        if uni_degree(fac) > 0:
            out.append((fac, i))
        w = y
        g = uni_divmod(g, y)[0]
        i += 1
    return out


def uni_to_string(p: UniPoly, symbol: str = "z") -> str:
    """Grammar-conformant rendering, descending powers, explicit '*'."""
    if not p:
        return "0"
    parts: list[str] = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        else:
            power = symbol if k == 1 else f"{symbol}^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


@lru_cache(maxsize=128)
def cyclotomic(m: int) -> UniPoly:
    """The m-th cyclotomic polynomial (memoized: the recursion over the
    divisors of m would otherwise recompute each of them)."""
    if m < 1:
        raise ValueError("cyclotomic index must be positive")
    # z^m - 1 divided by the product of the proper cyclotomic divisors
    num = uni_trim([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            num = uni_divmod(num, cyclotomic(d))[0]
    return num


# ---------------------------------------------------------------------------
# simple extensions


class NumberField:
    """QQ[z]/(p(z)) for a monic squarefree p; degree 1 is plain QQ.

    Elements are handled as coordinate tuples internally; FieldElement is the
    user-facing wrapper. The modulus need not be irreducible: a zero divisor
    is only detected (and reported with its factor) when inverted.

    Matrices, subspaces and polynomial vectors hold raw scalars: a Fraction
    over a degree-1 field, the coordinate tuple otherwise. This class alone
    decides that format (raw_zero, raw_one, raw_rational, to_raw, from_raw).
    """

    __slots__ = ("name", "minpoly", "degree", "_zpows", "_key",
                 "raw_zero", "raw_one")

    def __init__(self, name, minpoly: Sequence):
        p = uni_trim(minpoly)
        if uni_degree(p) < 1:
            raise InvalidExtension("minimal polynomial must have degree >= 1")
        if p[-1] != 1:
            raise InvalidExtension("minimal polynomial must be monic")
        if not squarefree_check(p):
            raise InvalidExtension("minimal polynomial must be squarefree")
        self._setup(name, p)

    def _setup(self, name, p: UniPoly) -> None:
        """Fill the slots of QQ[z]/(p) for a trimmed monic squarefree p."""
        self.name = name
        self.minpoly = p
        self.degree = uni_degree(p)
        self._key = (name, p)
        # z^k mod p for k = degree .. 2*degree-2, used in products, each row
        # kept as the (index, value) pairs of its nonzero coordinates
        m = self.degree
        cur = [-c for c in p[:m]]
        self._zpows = zpows = []
        for _ in range(m - 1):
            zpows.append([(j, c) for j, c in enumerate(cur) if c])
            top, cur = cur[-1], [Fraction(0)] + cur[:-1]
            if top:
                for j, c in zpows[0]:
                    cur[j] += top * c
        self.raw_zero = self.raw_rational(0)
        self.raw_one = self.raw_rational(1)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.is_rationals():
            return "QQ"
        return f"QQ[{self.name}]/({uni_to_string(self.minpoly, self.name)})"

    def is_rationals(self) -> bool:
        return self.degree == 1 and self.minpoly == (Fraction(0), Fraction(1))

    # -- element constructors

    def element(self, coords: Sequence) -> "FieldElement":
        cs = [as_fraction(c) for c in coords]
        if len(cs) > self.degree:
            raise InvalidExtension("coordinate vector longer than the field degree")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def from_rational(self, value) -> "FieldElement":
        c = as_fraction(value)
        return FieldElement(self, (c,) + (Fraction(0),) * (self.degree - 1))

    @property
    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    @property
    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def gen(self) -> "FieldElement":
        if self.degree == 1:
            return self.element((-self.minpoly[0],))
        return self.element((0, 1))

    # -- raw scalars

    def raw_rational(self, value):
        c = as_fraction(value)
        if self.degree == 1:
            return c
        return (c,) + (Fraction(0),) * (self.degree - 1)

    def to_raw(self, value: "FieldElement"):
        if value.field is not self and value.field != self:
            raise FieldMismatch("entry from a different field")
        return value.coords[0] if self.degree == 1 else value.coords

    def from_raw(self, raw) -> "FieldElement":
        return FieldElement(self, (raw,) if self.degree == 1 else raw)

    def neg_raw(self, raw):
        return -raw if self.degree == 1 else self.neg_coords(raw)

    def raw_ops(self) -> tuple:
        """Product, sum, difference, zero test, inverse and int multiple of
        raw scalars (over a degree-1 field Fractions and ints alike), with
        the coordinate methods looked up afresh, so class wrappers show."""
        if self.degree == 1:
            return (operator.mul, operator.add, operator.sub, operator.not_,
                    lambda a: 1 / a, operator.mul)
        return (self.mul_coords, self.add_coords, self.sub_coords,
                self.is_zero_coords, self.inv_coords,
                lambda a, s: tuple([x * s for x in a]))

    # -- coordinate arithmetic
    # Results are built as tuple([...]), not from a generator: CPython
    # starts a generator's tuple at 10 slots and resizes it, so the free
    # list of its size is fed but never drawn on until a full collection.

    def add_coords(self, a, b):
        return tuple([x + y for x, y in zip(a, b)])

    def sub_coords(self, a, b):
        return tuple([x - y for x, y in zip(a, b)])

    def neg_coords(self, a):
        return tuple([-x for x in a])

    def mul_coords(self, a, b):
        """a * b over the nonzeros of both; a rational factor only scales."""
        m = self.degree
        if m == 1:
            return (a[0] * b[0],)
        na = [(i, x) for i, x in enumerate(a) if x]
        nb = [(j, y) for j, y in enumerate(b) if y]
        if len(nb) == 1 and not nb[0][0]:
            na, nb = nb, na
        if len(na) == 1 and not na[0][0]:
            c, out = na[0][1], list(self.raw_zero)
            for j, y in nb:
                out[j] = c * y
            return tuple(out)
        conv = [Fraction(0)] * (2 * m - 1)
        for i, x in na:
            for j, y in nb:
                conv[i + j] += x * y
        out = conv[:m]
        for k in range(m, 2 * m - 1):
            c = conv[k]
            if c:
                for j, z in self._zpows[k - m]:
                    out[j] += c * z
        return tuple(out)

    def inv_coords(self, a):
        if all(x == 0 for x in a):
            raise ZeroInversion("division by zero field element")
        if self.degree == 1:
            return (1 / a[0],)
        g, u, _ = uni_xgcd(uni_trim(a), self.minpoly)
        if uni_degree(g) > 0:
            raise NotInvertible(
                "modulus is reducible, discovered factor "
                f"{uni_to_string(g, self.name)}",
                factor=g,
            )
        out = list(u) + [Fraction(0)] * (self.degree - len(u))
        return tuple(out[: self.degree])

    def is_zero_coords(self, a) -> bool:
        return all(x == 0 for x in a)


QQ = NumberField(None, (0, 1))


@lru_cache(maxsize=128)
def cyclotomic_field(m: int, name: str = "z") -> NumberField:
    """Splitting data for m-th roots of unity: QQ[z]/(Phi_m), z a primitive
    root; built once per (m, name), as a NumberField never changes."""
    if m <= 2:
        return QQ
    # Phi_m is irreducible, hence squarefree, so __init__'s check (minutes
    # at degree 720) is skipped
    field = object.__new__(NumberField)
    field._setup(name, cyclotomic(m))
    return field


@lru_cache(maxsize=128)
def roots_of_unity(field: NumberField, m: int) -> tuple["FieldElement", ...]:
    """zeta_m^0, .., zeta_m^(m-1) in the field, built once per (field, m).

    For m <= 2 these are +-1, which every field holds; otherwise the field's
    generator z must be a primitive m-th root of unity. Each power is the
    last one shifted up a coordinate, its top one reduced by z^degree mod p.
    """
    if m <= 2:
        return tuple(field.from_rational((-1) ** k) for k in range(m))
    if field.degree == 1:
        raise InvalidExtension(f"rationals contain no primitive {m}-th root of unity")
    table = [field.one]
    for _ in range(m - 1):
        *low, top = table[-1].coords
        nxt = [Fraction(0), *low]
        for j, c in field._zpows[0] if top else ():
            nxt[j] += top * c
        table.append(FieldElement(field, tuple(nxt)))
    return tuple(table)


def root_of_unity(field: NumberField, m: int, k: int) -> "FieldElement":
    """zeta_m^k, looked up in the field's table of m-th roots of unity."""
    return roots_of_unity(field, m)[k % m]


class FieldElement:
    """One element of a NumberField, stored in the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple):
        self.field = field
        self.coords = coords

    # -- coercion

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise TypeError("field elements from different extensions")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.add_coords(self.coords, o.coords))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_coords(self.coords, o.coords))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_coords(o.coords, self.coords))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_coords(self.coords))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_coords(self.coords, o.coords))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            return NotImplemented
        result, base, e = self.field.one, self, exp
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_coords(self.coords))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field, self.coords))

    def __bool__(self):
        return not self.field.is_zero_coords(self.coords)

    def is_zero(self) -> bool:
        return self.field.is_zero_coords(self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    def __str__(self):
        name = self.field.name or "z"
        return uni_to_string(uni_trim(self.coords), name)

    def __repr__(self):
        return f"FieldElement({self})"


def field_invert(a: FieldElement) -> FieldElement:
    """Multiplicative inverse; ZeroInversion on zero, NotInvertible on a split modulus."""
    return a.inverse()
