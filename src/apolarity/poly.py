"""Sparse multivariate polynomials and the apolarity (differentiation) action.

One VarSet serves both the polynomial ring S and the dual operator ring T:
a dual operator is just another Poly over the same variables, acting by
X^a o x^b = (prod_i b_i!/(b_i - a_i)!) x^(b-a) when a <= b and 0 otherwise.

Monomials are exponent tuples. Within a fixed degree the canonical order is
lexicographic descending on the exponent vector, so for two variables and
degree 2 the basis reads x0^2, x0*x1, x1^2. Linear forms are degree-1 Polys.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, perm
from operator import add, mul
from typing import Iterable, Sequence

from .errors import (
    FieldMismatch,
    NonHomogeneous,
    VarSetMismatch,
    ZeroForm,
)
from .fields import QQ, FieldElement, NumberField, clear_denominators

Exps = tuple[int, ...]

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class VarSet:
    """Ordered, distinct variable names shared by the ring and its dual."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("a variable set needs at least one name")
        for name in names:
            if not _IDENT.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarSet{self.names}"

    def index(self, name: str) -> int:
        return self._index[name]


@lru_cache(maxsize=None)
def _basis(nvars: int, degree: int) -> tuple[Exps, ...]:
    """The monomial basis as a shared tuple, built once per (nvars, degree).

    No recursion: the exponents of all but the last two variables, the
    head, run down in lex order, and each head adds its whole run
    head + (rest - j, j), j = 0..rest, at once. The next head takes one
    off its last nonzero exponent, and the variable after it (or the run,
    past the head's end) takes that one together with rest."""
    if nvars < 1 or degree < 0:
        raise ValueError("need nvars >= 1 and degree >= 0")
    if nvars == 1:
        return ((degree,),)
    head = [degree] + [0] * (nvars - 3) if nvars > 2 else []
    rest = degree - sum(head)
    out: list[Exps] = []
    while True:
        prefix = tuple(head)
        out.extend([prefix + (rest - j, j) for j in range(rest + 1)])
        i = len(head) - 1
        while i >= 0 and not head[i]:
            i -= 1
        if i < 0:
            return tuple(out)
        head[i] -= 1
        if i + 1 < len(head):
            head[i + 1], rest = rest + 1, 0
        else:
            rest += 1


def monomial_basis(nvars: int, degree: int) -> list[Exps]:
    """All exponent tuples of the given total degree, lex descending."""
    return list(_basis(nvars, degree))


def space_dim(nvars: int, degree: int) -> int:
    """Dimension of the degree piece: C(nvars - 1 + degree, degree)."""
    return comb(nvars - 1 + degree, degree)


def _multinomial(d: int, exps: Exps) -> int:
    out = 1
    rest = d
    for e in exps:
        out *= comb(rest, e)
        rest -= e
    return out


def _term_sort_key(exps: Exps):
    return (-sum(exps), tuple(-e for e in exps))


class Poly:
    """Immutable-by-convention sparse polynomial over a NumberField."""

    __slots__ = ("varset", "field", "terms")

    def __init__(self, varset: VarSet, terms: dict, field: NumberField = QQ):
        self.varset = varset
        self.field = field
        clean: dict[Exps, FieldElement] = {}
        width = len(varset)
        for exps, coeff in terms.items():
            exps = exps if type(exps) is tuple else tuple(exps)
            if len(exps) != width or min(exps) < 0:
                raise ValueError(f"bad exponent vector {exps}")
            if not isinstance(coeff, FieldElement):
                coeff = field.from_rational(coeff)
            elif coeff.field is not field and coeff.field != field:
                raise FieldMismatch("coefficient from a different field")
            if any(coeff.coords):
                clean[exps] = coeff
        self.terms = clean

    # -- constructors

    @classmethod
    def zero(cls, varset: VarSet, field: NumberField = QQ) -> "Poly":
        return cls(varset, {}, field)

    @classmethod
    def constant(cls, varset: VarSet, value, field: NumberField = QQ) -> "Poly":
        return cls(varset, {(0,) * len(varset): value}, field)

    @classmethod
    def monomial(cls, varset: VarSet, exps: Sequence[int], coeff=1,
                 field: NumberField = QQ) -> "Poly":
        return cls(varset, {tuple(exps): coeff}, field)

    @classmethod
    def variable(cls, varset: VarSet, index: int, power: int = 1,
                 field: NumberField = QQ) -> "Poly":
        exps = [0] * len(varset)
        exps[index] = power
        return cls(varset, {tuple(exps): 1}, field)

    @classmethod
    def from_vector(cls, varset: VarSet, degree: int, vector: Sequence,
                    field: NumberField = QQ) -> "Poly":
        basis = _basis(len(varset), degree)
        if len(vector) != len(basis):
            raise ValueError("vector length does not match the monomial basis")
        return cls(varset, dict(zip(basis, vector)), field)

    # -- structure

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def degree(self) -> int:
        """Common degree of a nonzero homogeneous polynomial."""
        degrees = {sum(e) for e in self.terms}
        if not degrees:
            raise ZeroForm("the zero polynomial has no degree")
        if len(degrees) > 1:
            raise NonHomogeneous(f"mixed degrees {sorted(degrees)}")
        return degrees.pop()

    def support_vars(self) -> tuple[int, ...]:
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return tuple(sorted(used))

    def coeff(self, exps: Sequence[int]) -> FieldElement:
        return self.terms.get(tuple(exps), self.field.zero)

    def to_vector(self, degree: int | None = None) -> list[FieldElement]:
        d = self.degree() if degree is None and not self.is_zero() else degree
        if d is None:
            raise ZeroForm("specify a degree to vectorize the zero polynomial")
        if any(sum(e) != d for e in self.terms):
            raise NonHomogeneous("vectorization needs a single degree")
        zero = self.field.zero
        return [self.terms.get(m, zero) for m in _basis(len(self.varset), d)]

    # -- ring operations

    def _check(self, other: "Poly"):
        if self.varset != other.varset:
            raise VarSetMismatch(f"{self.varset} vs {other.varset}")
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            acc = terms.get(exps)
            terms[exps] = c if acc is None else acc + c
        return Poly(self.varset, terms, self.field)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            acc = terms.get(exps)
            terms[exps] = -c if acc is None else acc - c
        return Poly(self.varset, terms, self.field)

    def __neg__(self) -> "Poly":
        return Poly(self.varset, {e: -c for e, c in self.terms.items()}, self.field)

    def scale(self, scalar) -> "Poly":
        if not isinstance(scalar, FieldElement):
            scalar = self.field.from_rational(scalar)
        return Poly(self.varset, {e: c * scalar for e, c in self.terms.items()},
                    self.field)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.scale(other)
        self._check(other)
        terms: dict[Exps, FieldElement] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                acc = terms.get(exps)
                terms[exps] = c if acc is None else acc + c
        return Poly(self.varset, terms, self.field)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Poly":
        """self^exp. A linear base expands by _power_values over only the
        variables it uses, never the whole ambient; any other base can
        collide in its products, so it is multiplied one factor at a time."""
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("polynomial powers need a nonnegative integer")
        field = self.field
        pos = [e.index(1) for e in self.terms if sum(e) == 1]
        if not pos or len(pos) != len(self.terms):
            return reduce(mul, [self] * exp, Poly.constant(self.varset, 1, field))
        values = _power_values([field.to_raw(c) for c in self.terms.values()],
                               [exp], field.raw_ops(), field.raw_one,
                               field.raw_zero, True)[0]
        terms, big = {}, [0] * len(self.varset)
        for comp, v in zip(_basis(len(pos), exp), values):
            for i, e in zip(pos, comp):
                big[i] = e
            terms[tuple(big)] = field.from_raw(v)
        return Poly(self.varset, terms, field)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.varset == other.varset and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.varset, self.field, frozenset(self.terms.items())))

    # -- evaluation and substitution

    def evaluate(self, point: Sequence) -> FieldElement:
        vals = [v if isinstance(v, FieldElement) else self.field.from_rational(v)
                for v in point]
        if len(vals) != len(self.varset):
            raise ValueError("point length does not match the variable count")
        acc = self.field.zero
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(vals, exps):
                if e:
                    term = term * (v ** e)
            acc = acc + term
        return acc

    def substitute(self, replacements: Sequence["Poly"]) -> "Poly":
        """Replace each variable x_i by replacements[i] (same target varset)."""
        if len(replacements) != len(self.varset):
            raise ValueError("one replacement per variable is required")
        target = replacements[0].varset
        out = Poly.zero(target, self.field)
        for exps, c in self.terms.items():
            term = Poly.constant(target, 1, self.field).scale(c)
            for r, e in zip(replacements, exps):
                if e:
                    term = term * (r ** e)
            out = out + term
        return out

    def lift(self, field: NumberField) -> "Poly":
        """Reinterpret a rational-coefficient polynomial inside an extension."""
        if self.field == field:
            return self
        if not self.field.is_rationals():
            raise FieldMismatch("can only lift rational-coefficient polynomials")
        return Poly(
            self.varset,
            {e: field.from_rational(c.as_fraction()) for e, c in self.terms.items()},
            field,
        )

    # -- rendering

    def __str__(self):
        if not self.terms:
            return "0"
        parts: list[str] = []
        names = self.varset.names
        for exps in sorted(self.terms, key=_term_sort_key):
            c = self.terms[exps]
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps) if e
            )
            if c.is_rational():
                q = c.as_fraction()
                sign = "-" if q < 0 else "+"
                mag = -q if q < 0 else q
                if not mono:
                    body = str(mag)
                elif mag == 1:
                    body = mono
                else:
                    body = f"{mag}*{mono}"
            else:
                sign = "+"
                body = f"({c})*{mono}" if mono else f"({c})"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def dual_str(self) -> str:
        """Rendering as a contraction operator: each variable name with its
        first letter uppercased."""
        names = tuple(n[0].upper() + n[1:] for n in self.varset.names)
        return str(Poly(VarSet(names), dict(self.terms), self.field))

    def __repr__(self):
        return f"Poly({self})"


def linear_form(varset: VarSet, coeffs: Sequence, field: NumberField = QQ) -> Poly:
    """The degree-1 form with the given coefficient vector."""
    vals = list(coeffs)
    if len(vals) != len(varset):
        raise ValueError("coefficient count does not match the variable count")
    terms = {}
    for i, c in enumerate(vals):
        exps = [0] * len(varset)
        exps[i] = 1
        terms[tuple(exps)] = c
    return Poly(varset, terms, field)


def apolar_action(g: Poly, f: Poly) -> Poly:
    """g acting on f by differentiation, X^a o x^b = b!/(b-a)! x^(b-a).
    Over a degree-1 field, integer multiples of g and f are contracted and
    each coefficient is divided once by the product of the two scalings."""
    if g.varset != f.varset:
        raise VarSetMismatch(f"{g.varset} vs {f.varset}")
    if g.field != f.field:
        if g.field.is_rationals():
            g = g.lift(f.field)
        elif f.field.is_rationals():
            f = f.lift(g.field)
        else:
            raise FieldMismatch("apolar action across different extensions")
    field = f.field
    if field.degree == 1:
        gden, gints = clear_denominators(c.coords[0] for c in g.terms.values())
        fden, fints = clear_denominators(c.coords[0] for c in f.terms.values())
        terms = _contract_raw(list(zip(g.terms, gints)),
                              list(zip(f.terms, fints)), mul, add, mul)
        den = gden * fden
        return Poly(f.varset, {exps: FieldElement(field, (Fraction(c, den),))
                               for exps, c in terms.items()}, field)
    terms = _contract_raw([(a, c.coords) for a, c in g.terms.items()],
                          [(b, c.coords) for b, c in f.terms.items()],
                          field.mul_coords, field.add_coords,
                          lambda c, s: tuple(x * s for x in c))
    return Poly(f.varset, {exps: FieldElement(field, c)
                           for exps, c in terms.items()}, field)


def _contract_raw(g_terms, f_terms, mul, add, times) -> dict:
    """The apolar action on (exponents, scalar) term lists: the dict
    exponents -> coefficient of g o f, zero coefficients included. mul and
    add combine two scalars, times(c, s) multiplies one by an int, so the
    scalars may be coordinate tuples, Fractions or plain ints."""
    out: dict = {}
    for a, ca in g_terms:
        for b, cb in f_terms:
            scale = 1
            for ai, bi in zip(a, b):
                if ai > bi:
                    break
                if ai:
                    scale *= perm(bi, ai)
            else:
                exps = tuple(bi - ai for ai, bi in zip(a, b))
                c = mul(ca, cb)
                if scale != 1:
                    c = times(c, scale)
                acc = out.get(exps)
                out[exps] = c if acc is None else add(acc, c)
    return out


def _power_values(point: Sequence, degrees: Sequence[int], ops, one, zero,
                  multinomial: bool) -> list[list]:
    """The products p^alpha of a point's raw coordinates over
    _basis(n, r), in its order, for each r in degrees; with multinomial,
    each times multinomial(r; alpha), so the list for r is the coefficient
    vector of L^r for L = sum p_k x_k. ops is NumberField.raw_ops() (ints
    work over a degree-1 field).

    Each coordinate's powers are tabulated once. The lists are built from
    the last variable up: those of variables k.. in degree r are, for
    e = r .. 0, p_k^e (times C(r, e)) times those of variables k+1.. in
    degree r - e, so a product costs one multiplication, not one per
    variable. A monomial touching a zero coordinate is zero without any
    product.
    """
    mul, _, _, is_zero, _, times = ops
    top = max(degrees)
    tables = []
    for v in point:
        table = None
        if not is_zero(v):
            table = [one]
            for _ in range(top):
                table.append(mul(table[-1], v))
        tables.append(table)
    last = tables[-1]
    lists = {r: [last[r] if last else one if r == 0 else zero]
             for r in range(top + 1)}
    for k in range(len(point) - 2, -1, -1):
        table = tables[k]
        below = lists
        lists = {}
        for r in degrees if k == 0 else range(top + 1):
            out = []
            for e in range(r, 0, -1):
                tail = below[r - e]
                if table is None:
                    out += [zero] * len(tail)
                    continue
                c = times(table[e], comb(r, e)) if multinomial else table[e]
                out += [zero if v is zero else mul(c, v) for v in tail]
            lists[r] = out + below[r]
    return [lists[r] for r in degrees]


def power_of_linear(linear: Poly, d: int) -> Poly:
    """L^d for a nonzero linear form L: linear ** d."""
    if linear.is_zero() or linear.degree() != 1:
        raise ValueError("power_of_linear needs a nonzero linear form")
    return linear ** d


def split_disjoint(f: Poly) -> list[tuple[Poly, tuple[int, ...]]]:
    """Partition a form into subpolynomials over pairwise disjoint variables.

    Returns (component, variable indices) pairs ordered by least variable,
    with the components summing back to f. Variables that co-occur in a
    monomial land in one block, so a shared factor forces a single block.
    """
    if f.is_zero():
        raise ZeroForm("cannot split the zero polynomial")
    if f.degree() < 1:
        raise ZeroForm("constants cannot be split")
    parent = list(range(len(f.varset)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for exps in f.terms:
        used = [i for i, e in enumerate(exps) if e]
        for i in used[1:]:
            union(used[0], i)

    blocks: dict[int, list[Exps]] = {}
    for exps in f.terms:
        root = find(next(i for i, e in enumerate(exps) if e))
        blocks.setdefault(root, []).append(exps)

    out = []
    for root in sorted(blocks):
        members = {e: f.terms[e] for e in blocks[root]}
        indices = tuple(sorted(i for i in range(len(f.varset))
                               if find(i) == root and any(e[i] for e in members)))
        out.append((Poly(f.varset, members, f.field), indices))
    return out


def restrict_to_vars(f: Poly, indices: Sequence[int]) -> Poly:
    """Rewrite f over only the chosen variables; they must carry all support."""
    indices = list(indices)
    support = set(f.support_vars())
    if not support.issubset(indices):
        raise VarSetMismatch("polynomial uses variables outside the chosen block")
    sub = VarSet([f.varset.names[i] for i in indices])
    terms = {tuple(e[i] for i in indices): c for e, c in f.terms.items()}
    return Poly(sub, terms, f.field)


def embed_in_varset(f: Poly, target: VarSet, index_map: Sequence[int]) -> Poly:
    """Send variable i of f to target variable index_map[i]."""
    if len(index_map) != len(f.varset):
        raise ValueError("index map length must match the source variable count")
    width = len(target)
    terms = {}
    for exps, c in f.terms.items():
        big = [0] * width
        for i, e in enumerate(exps):
            big[index_map[i]] = e
        terms[tuple(big)] = c
    return Poly(target, terms, f.field)
