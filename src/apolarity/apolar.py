"""Apolarity calculus: catalecticants, annihilator slices, colons, Hilbert functions.

Ideals appear only through their graded slices up to a truncation degree D,
held as canonical subspaces of each degree piece. The default truncation is
deg F + 1: every ideal handled here contains the annihilator of some form
(or is a point ideal), so all slices beyond the socle are full and carry no
information. Building runs in ascending degree, and once a slice fills the
whole degree piece every later slice is full by ideal closure. Full slices
are implicit (Subspace.full stores no rows), so they cost nothing to build,
copy, lift or test against.

Every catalecticant is assembled in one place, _catalecticant_cells, from
its nonzero cells, driven by the terms of each form: a term c x^beta
reaches only the columns alpha <= beta, and one walk over them fills the
catalecticants of every requested degree at once, each cell under its
degree |alpha|. Row gamma is filled times gamma!, so every cell of the term
holds the one value c beta!, and over QQ each form is first scaled to
integer coefficients; both are row scalings, which move no rank and no
kernel, so no Fraction and no per-cell product reaches elimination. Rows
and columns with one nonzero cell are peeled off before elimination
(linalg._peel), so stacked monomials are ranked with no elimination at
all, and a single monomial's catalecticants are ranked by counting, with
no cell assembled (_monomial_ranks). The assembly has three consumers:

- Annihilators and colons. (F_perp : I) is the common annihilator of the
  forms g o F for the generators g of I: in each degree, the kernel of
  their stacked catalecticant rows. No ideals are ever intersected.
- Ranks. principal_sum_hf reads the Hilbert function of
  T/((F_perp : I) + (t)), all a lower bound needs, off ranks of the same
  rows with their zero columns dropped; perp_hf reads
  HF(T/F_perp, i) = rk Cat_i(F), and catalecticant_rank one rank. Where a
  single form is ranked, the Gorenstein symmetry rk Cat_i = rk Cat_(d-i)
  halves the eliminations.
- catalecticant, the public dense matrix of the true coefficients: the
  assembled row gamma divided by gamma! again.

add_principal adds (t) to a sliced ideal by one batch elimination per
degree. Point evaluations come from poly._power_values, the routine
behind Poly.__pow__ of a linear form, over QQ on each point's primitive
integer vector (_checked_points), and a point ideal's kernels are taken
from the top degree down to its first zero slice.

Groebner machinery is deliberately absent; degreewise exact linear algebra
decides everything needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import factorial, gcd, prod
from typing import Sequence

from .errors import (
    AmbientMismatch,
    DegreeMismatch,
    DuplicatePoint,
    EmptyGeneratorList,
    FieldMismatch,
    NonHomogeneous,
    ZeroForm,
)
from .fields import (QQ, FieldElement, NumberField, as_fraction,
                     clear_denominators)
from .linalg import Matrix, Subspace, _kernel, _peel, kernel, matrix_rank
from .poly import (Exps, Poly, VarSet, _basis, _contract_raw, _power_values,
                   apolar_action, space_dim)


@lru_cache(maxsize=None)
def _basis_index(nvars: int, degree: int) -> dict:
    return {m: j for j, m in enumerate(_basis(nvars, degree))}


@lru_cache(maxsize=None)
def _shift_map(nvars: int, degree: int, alpha: Exps) -> tuple[int, ...]:
    """Index map for multiplication by the monomial alpha."""
    target = _basis_index(nvars, degree + sum(alpha))
    return tuple(
        target[tuple(a + b for a, b in zip(m, alpha))]
        for m in _basis(nvars, degree)
    )


def _poly_raw_vector(f: Poly, degree: int) -> list:
    field = f.field
    vec = [field.raw_zero] * space_dim(len(f.varset), degree)
    for j, v in _poly_sparse_vector(f, degree).items():
        vec[j] = v
    return vec


def _poly_sparse_vector(f: Poly, degree: int) -> dict:
    """The coefficients of a form of the given degree as a sparse raw row."""
    index = _basis_index(len(f.varset), degree)
    out = {}
    for exps, c in f.terms.items():
        if sum(exps) != degree:
            raise NonHomogeneous("vectorization needs a single degree")
        out[index[exps]] = f.field.to_raw(c)
    return out


def _sparse_row_poly(varset: VarSet, field: NumberField, degree: int,
                     row: dict) -> Poly:
    basis = _basis(len(varset), degree)
    return Poly(varset, {basis[j]: field.from_raw(row[j]) for j in sorted(row)},
                field)


def _variable_shifts(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """The index maps of multiplication by x_0, .., x_(nvars-1) on forms of
    the given degree."""
    return [_shift_map(nvars, degree,
                       tuple(1 if j == k else 0 for j in range(nvars)))
            for k in range(nvars)]


def _times_variables(row: dict, shifts):
    """The products x_k * row of a sparse row, one per map of
    _variable_shifts, one at a time: each moves the entries onto the
    shifted monomials."""
    for shift in shifts:
        yield {shift[j]: v for j, v in row.items()}


def _insert_times_linear(out: Subspace, s: Subspace, nvars: int,
                         degree: int) -> None:
    """Insert T_1 * s into out, for a slice s of the given degree, until
    out is full. Each product is a fresh dict, which out takes over."""
    shifts = _variable_shifts(nvars, degree)
    for row in s.sparse_rows():
        for v in _times_variables(row, shifts):
            out._insert(v)
            if out.is_full():
                return


def _poly_raw_terms(t: Poly) -> list[tuple[Exps, object]]:
    return [(exps, t.field.to_raw(c)) for exps, c in t.terms.items()]


# ---------------------------------------------------------------------------
# catalecticants


def _catalecticant_cells(field: NumberField, forms: Sequence[tuple],
                         degrees) -> dict[int, list[dict]]:
    """Cat_i of each form of degree >= i, for every i in degrees, from one
    walk over the terms: {i: [{row: {column: value}} per form]}. forms holds
    each form's (degree, raw terms).

    A term c x^beta reaches the cells X^alpha o x^beta = c beta!/gamma! x^gamma,
    gamma = beta - alpha, in row gamma and column alpha of Cat_|alpha|. Rows
    are filled times gamma!, a row scaling that moves no rank and no kernel,
    so every cell of the term holds the one value c beta!. The alpha <= beta
    are walked once, in lockstep with their gamma, over a box clipped to the
    requested degrees; distinct terms reach distinct rows of a column, so
    each nonzero cell is written once."""
    times = field.raw_ops()[5]
    lo, hi = min(degrees, default=0), max(degrees, default=-1)
    out: dict[int, list[dict]] = {i: [] for i in degrees}
    for d, terms in forms:
        n = len(terms[0][0])
        fill = {}
        for i, blocks in out.items():
            if i <= d:
                blocks.append({})
                fill[i] = (blocks[-1], _basis_index(n, d - i),
                           _basis_index(n, i))
        for beta, c in terms:
            value = times(c, prod(map(factorial, beta)))
            box = [(max(0, b - d + lo), min(b, hi)) for b in beta]
            for alpha, gamma in zip(
                    product(*(range(a, z + 1) for a, z in box)),
                    product(*(range(b - a, b - z - 1, -1)
                              for b, (a, z) in zip(beta, box)))):
                cell = fill.get(sum(alpha))
                if cell is not None:
                    block, rows, cols = cell
                    block.setdefault(rows[gamma], {})[cols[alpha]] = value
    return out


def _checked_degree(f: Poly, i: int) -> int:
    """deg F, for a nonzero F with 0 <= i <= deg F."""
    if f.is_zero():
        raise ZeroForm("catalecticant of the zero form")
    d = f.degree()
    if not 0 <= i <= d:
        raise DegreeMismatch(f"catalecticant index {i} outside 0..{d}")
    return d


def catalecticant(f: Poly, i: int) -> Matrix:
    """Cat_i(F): g |-> g o F from T_i to S_(d-i) as a dense raw matrix, rows
    in the degree d-i monomial basis, columns in the degree i basis."""
    d = _checked_degree(f, i)
    n, field = len(f.varset), f.field
    ncols = space_dim(n, i)
    entries = [[field.raw_zero] * ncols for _ in range(space_dim(n, d - i))]
    block, = _catalecticant_cells(field, [(d, _poly_raw_terms(f))], [i])[i]
    times, gammas = field.raw_ops()[5], _basis(n, d - i)
    for r, row in block.items():
        # the assembly's row gamma holds gamma! times the true coefficients
        scale = Fraction(1, prod(map(factorial, gammas[r])))
        for c, v in row.items():
            entries[r][c] = times(v, scale)
    return Matrix(field, len(entries), ncols, entries)


def catalecticant_rank(f: Poly, i: int) -> int:
    """rk Cat_i(F), ranked from the nonzero cells with no dense matrix."""
    d = _checked_degree(f, i)
    return _catalecticant_ranks(f.field, [(d, _integral_terms(f))], [i])[0]


# ---------------------------------------------------------------------------
# graded ideals


class GradedIdeal:
    """Degreewise slices 0..D of a homogeneous ideal, each a canonical Subspace."""

    __slots__ = ("varset", "field", "D", "slices")

    def __init__(self, varset: VarSet, field: NumberField, D: int,
                 slices: Sequence[Subspace]):
        if len(slices) != D + 1:
            raise AmbientMismatch("need one slice per degree 0..D")
        for i, s in enumerate(slices):
            if s.ambient != space_dim(len(varset), i):
                raise AmbientMismatch(f"slice {i} has ambient {s.ambient}")
            if s.field != field:
                raise FieldMismatch("slice over the wrong field")
        self.varset = varset
        self.field = field
        self.D = D
        self.slices = list(slices)

    def dim(self, i: int) -> int:
        return self.slices[i].dim

    def slice_polys(self, i: int) -> list[Poly]:
        return [_sparse_row_poly(self.varset, self.field, i, row)
                for row in self.slices[i].sparse_rows()]

    def contains_poly(self, g: Poly) -> bool:
        if g.is_zero():
            return True
        i = g.degree()
        if i > self.D:
            raise DegreeMismatch(f"degree {i} beyond the truncation {self.D}")
        return self.slices[i].contains_raw(_poly_sparse_vector(g, i))

    def lift(self, field: NumberField) -> "GradedIdeal":
        if field == self.field:
            return self
        if not self.field.is_rationals():
            raise FieldMismatch("can only lift a rational-coefficient ideal")
        out = []
        for s in self.slices:
            rows = None if s.is_full() else [
                {j: field.raw_rational(v) for j, v in row.items()}
                for row in s.sparse_rows()]
            out.append(Subspace(field, s.ambient, rows, list(s.pivots)))
        return GradedIdeal(self.varset, field, self.D, out)

    def verify_closure(self) -> bool:
        """Check T_1 * slice_i inside slice_(i+1) on every basis element."""
        n = len(self.varset)
        for i in range(self.D):
            nxt = self.slices[i + 1]
            if nxt.is_full() or not self.slices[i].dim:
                continue
            shifts = _variable_shifts(n, i)
            for row in self.slices[i].sparse_rows():
                if not all(nxt.contains_raw(v)
                           for v in _times_variables(row, shifts)):
                    return False
        return True

    def __eq__(self, other):
        return (isinstance(other, GradedIdeal) and self.varset == other.varset
                and self.field == other.field and self.D == other.D
                and self.slices == other.slices)

    def __repr__(self):
        dims = tuple(s.dim for s in self.slices)
        return f"GradedIdeal(D={self.D}, dims={dims})"


def _nonzero_forms(forms: Sequence[Poly], D: int) -> list[Poly]:
    """The nonzero forms, checked to share one field and to leave degree D
    beyond every one of them."""
    field = forms[0].field
    if any(g.field != field for g in forms):
        raise FieldMismatch("forms over different fields")
    forms = [g for g in forms if not g.is_zero()]
    if forms and D < max(g.degree() for g in forms) + 1:
        raise DegreeMismatch("truncation must reach deg F + 1")
    return forms


def _annihilator(forms: Sequence[Poly], D: int) -> GradedIdeal:
    """The common annihilator of forms in one ring, sliced up to D: in
    degree i the kernel of the stacked nonzero Cat_i rows of the nonzero
    forms, over QQ integer rows, full where no form reaches degree i."""
    varset, field = forms[0].varset, forms[0].field
    nonzero = [(g.degree(), _integral_terms(g))
               for g in _nonzero_forms(forms, D)]
    cells = _catalecticant_cells(field, nonzero, range(D + 1))
    slices = []
    for i in range(D + 1):
        amb = space_dim(len(varset), i)
        rows = [row for block in cells.pop(i) for row in block.values()]
        slices.append(_kernel(field, rows, amb) if rows
                      else Subspace.full(amb, field))
    return GradedIdeal(varset, field, D, slices)


def perp(f: Poly, D: int | None = None) -> GradedIdeal:
    """The annihilator of a nonzero form, sliced up to D (default deg F + 1)."""
    if f.is_zero():
        raise ZeroForm("the zero form has no annihilator")
    return _annihilator([f], f.degree() + 1 if D is None else D)


def ideal_from_generators(varset: VarSet, gens: Sequence[Poly],
                          D: int) -> GradedIdeal:
    """Slices of (g_1, .., g_k) up to D, built by ascending-degree closure."""
    if not gens:
        raise EmptyGeneratorList("need at least one generator")
    field = gens[0].field
    n = len(varset)
    by_degree: dict[int, list[Poly]] = {}
    for g in gens:
        if g.is_zero():
            continue
        if g.varset != varset:
            raise AmbientMismatch("generator over a different variable set")
        if g.field != field:
            raise FieldMismatch("generator over a different field")
        by_degree.setdefault(g.degree(), []).append(g)
    slices: list[Subspace] = []
    for i in range(D + 1):
        amb = space_dim(n, i)
        if i > 0 and slices[i - 1].is_full():
            slices.append(Subspace.full(amb, field))
            continue
        cur = Subspace.zero(amb, field)
        if i:
            _insert_times_linear(cur, slices[i - 1], n, i - 1)
        for g in by_degree.get(i, []):
            if not cur.is_full():
                cur.insert_raw(_poly_sparse_vector(g, i))
        slices.append(cur)
    return GradedIdeal(varset, field, D, slices)


def colon_by_form(f: Poly, t: Poly, D: int | None = None) -> GradedIdeal:
    """(F_perp : t), the annihilator of t o F."""
    if f.is_zero():
        raise ZeroForm("colon against the zero form")
    if t.is_zero():
        raise ZeroForm("colon by the zero operator")
    return _annihilator([apolar_action(t, f)],
                        f.degree() + 1 if D is None else D)


def _gens_degree(gens: Sequence[Poly]) -> int:
    """The one degree e >= 1 of a nonempty list of nonzero forms."""
    if not gens:
        raise EmptyGeneratorList("need ideal generators")
    degrees = set()
    for g in gens:
        if g.is_zero():
            raise ZeroForm("zero ideal generator")
        degrees.add(g.degree())
    if len(degrees) != 1:
        raise DegreeMismatch(f"generators span degrees {sorted(degrees)}")
    e = degrees.pop()
    if e < 1:
        raise DegreeMismatch("generators must have positive degree")
    return e


def colon_by_ideal(f: Poly, gens: Sequence[Poly], D: int | None = None) -> GradedIdeal:
    """(F_perp : I) for I generated in one degree.

    h * I lies in F_perp exactly when h o (g o F) = 0 for every generator g,
    so the colon is the common annihilator of the forms g o F: in each
    degree one kernel of their stacked catalecticants, with no intersection
    of per-generator colons.
    """
    _gens_degree(gens)
    if f.is_zero():
        raise ZeroForm("colon against the zero form")
    return _annihilator([apolar_action(g, f) for g in gens],
                        f.degree() + 1 if D is None else D)


def add_principal(ideal: GradedIdeal, t: Poly) -> GradedIdeal:
    """Slices of I + (t) from the slices of I.

    Each degree i >= deg t that is not yet full is one batch elimination of
    the slice's rows together with the multiples t * T_(i - deg t).
    """
    if t.is_zero():
        raise ZeroForm("cannot add the zero form")
    if t.varset != ideal.varset:
        raise AmbientMismatch("t lives over a different variable set")
    t = t.lift(ideal.field)
    e = t.degree()
    if e < 1 or e > ideal.D:
        raise DegreeMismatch(f"degree of t must lie in 1..{ideal.D}")
    n = len(ideal.varset)
    field = ideal.field
    t_terms = _poly_raw_terms(t)
    out: list[Subspace] = []
    for i in range(ideal.D + 1):
        base = ideal.slices[i]
        if i < e or base.is_full():
            out.append(base.copy())
            continue
        amb = space_dim(n, i)
        if out[i - 1].is_full():
            out.append(Subspace.full(amb, field))
            continue
        # row j is t times the j-th monomial of degree i - e
        shifts = [(_shift_map(n, i - e, alpha), c) for alpha, c in t_terms]
        multiples = []
        for j in range(space_dim(n, i - e)):
            row = [field.raw_zero] * amb
            for mp, c in shifts:
                row[mp[j]] = c
            multiples.append(row)
        out.append(Subspace.from_raw_vectors(multiples + base.rows, amb,
                                             field))
    return GradedIdeal(ideal.varset, field, ideal.D, out)


# ---------------------------------------------------------------------------
# Hilbert functions


@dataclass(frozen=True)
class HFProfile:
    """Hilbert function values of T/I for degrees 0..D."""

    values: tuple[int, ...]
    stabilized: bool | None = None

    @property
    def D(self) -> int:
        return len(self.values) - 1

    def total(self) -> int:
        return sum(self.values)

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.values) + ")"


def hf(ideal: GradedIdeal) -> HFProfile:
    """Hilbert function of the quotient by the ideal, degrees 0..D."""
    n = len(ideal.varset)
    return HFProfile(tuple(space_dim(n, i) - ideal.slices[i].dim
                           for i in range(ideal.D + 1)))


def perp_hf(f: Poly, D: int | None = None) -> HFProfile:
    """hf(perp(f, D)) from ranks alone, with no ideal:
    HF(T/F_perp, i) = rk Cat_i(F)."""
    if f.is_zero():
        raise ZeroForm("the zero form has no annihilator")
    D = f.degree() + 1 if D is None else D
    forms = [(g.degree(), _integral_terms(g)) for g in _nonzero_forms([f], D)]
    return HFProfile(tuple(_catalecticant_ranks(f.field, forms,
                                                range(D + 1))))


def _integral_terms(g: Poly) -> list[tuple[Exps, object]]:
    """The raw terms of g; over a degree-1 field scaled by the lcm of the
    coefficient denominators to plain ints, which scales every catalecticant
    row of g and leaves its ranks alone."""
    terms = _poly_raw_terms(g)
    if g.field.degree != 1:
        return terms
    _, ints = clear_denominators(c for _, c in terms)
    return [(exps, c) for (exps, _), c in zip(terms, ints)]


def _stacked_rank(field: NumberField, rows: list[dict]) -> int:
    """rk of a matrix given by its rows as {column: raw scalar} dicts of
    nonzero cells (changed here). The singleton pairs are peeled off (see
    linalg._peel), each adding 1; only the core left is made dense, with its
    zero columns left out, and eliminated."""
    pairs, core = _peel(rows, True)
    if not core:
        return len(pairs)
    used = {c: k for k, c in enumerate(set().union(*core))}
    zero = 0 if field.degree == 1 else field.raw_zero
    dense = []
    for row in core:
        vec = [zero] * len(used)
        for c, v in row.items():
            vec[used[c]] = v
        dense.append(vec)
    return len(pairs) + matrix_rank(Matrix(field, len(dense), len(used),
                                            dense))


def _monomial_ranks(beta: Exps) -> list[int]:
    """rk Cat_i(x^beta) for i = 0..|beta|: its cells are the distinct
    columns alpha <= beta with |alpha| = i, one per row, so the rank is
    their number, the coefficient of z^i in prod_k (1 + z + ... + z^b_k).
    Each factor makes entry i the window sum counts[i - b .. i], read off
    running sums, O(|beta|) per variable."""
    counts = [1]
    for b in beta:
        run, top = list(accumulate(counts, initial=0)), len(counts)
        counts = [run[min(i + 1, top)] - run[max(i - b, 0)]
                  for i in range(top + b)]
    return counts


def _catalecticant_ranks(field: NumberField, forms: Sequence[tuple],
                         degrees) -> list[int]:
    """rk Cat_i of the forms stacked for each i in degrees, for nonzero
    forms given as (degree, raw terms), from one assembly; each degree's
    rows are released once ranked. A single form F of degree d has
    rk Cat_i = rk Cat_(d-i) (the Gorenstein symmetry of T/F_perp: Cat_(d-i)
    is the transpose of Cat_i up to nonzero row and column scalings), so
    only the degrees max(i, d - i) are eliminated, whose catalecticants have
    no more rows than columns; stacked forms have no such symmetry. A
    single term c x^beta is ranked by counting, with no cell (see
    _monomial_ranks)."""
    if len(forms) == 1 and len(forms[0][1]) == 1:
        counts = _monomial_ranks(forms[0][1][0][0])
        return [counts[i] if i < len(counts) else 0 for i in degrees]
    if len(forms) == 1:
        d = forms[0][0]
        mirror = {i: max(i, d - i) for i in degrees if i <= d}
    else:
        mirror = {i: i for i in degrees}
    cells = _catalecticant_cells(field, forms, sorted(set(mirror.values())))
    ranks = {j: _stacked_rank(field, [row for block in cells.pop(j)
                                      for row in block.values()])
             for j in sorted(cells)}
    return [ranks[mirror[i]] if i in mirror else 0 for i in degrees]


def principal_sum_hf(forms: Sequence[Poly], ts: Sequence[Poly],
                     D: int) -> list[HFProfile]:
    """HF of T/(ann(forms) + (t)) in degrees 0..D, one profile per t.

    With e = deg t, ann(forms) meets t * T_(i-e) in t * ann(t o forms)_(i-e),
    and multiplication by t is injective, so the value in degree i is
    rk Cat_i(forms) - rk Cat_(i-e)(t o forms), catalecticants of several
    forms stacked. The ranks of the forms are taken once for all t, and no
    ideal is built. For the forms g o F over the generators g of I this is
    T/((F_perp : I) + (t)). Over a degree-1 field t o g is contracted on
    the integer coefficients of _integral_terms.
    """
    nonzero = _nonzero_forms(forms, D)
    field = forms[0].field

    def blocks(fld):
        return [(g.degree(), _integral_terms(g.lift(fld))) for g in nonzero]

    base_forms = blocks(field)
    base = _catalecticant_ranks(field, base_forms, range(D + 1))
    out = []
    for t in ts:
        if t.varset != forms[0].varset:
            raise AmbientMismatch("t lives over a different variable set")
        e = t.degree()
        # apolar_action's rule: a rational side is lifted to the other's field
        fld = field if t.field.is_rationals() else t.field
        t_terms = _integral_terms(t.lift(fld))
        mul, add, _, is_zero, _, times = fld.raw_ops()
        shifted = []
        for d, g_terms in base_forms if fld == field else blocks(fld):
            tg = _contract_raw(t_terms, g_terms, mul, add, times)
            terms = [(gamma, c) for gamma, c in tg.items() if not is_zero(c)]
            if terms:
                shifted.append((d - e, terms))
        ranks = _catalecticant_ranks(fld, shifted, range(D - e + 1))
        out.append(HFProfile(tuple([
            v - (ranks[i - e] if i >= e else 0)
            for i, v in enumerate(base)])))
    return out


def koszul_ci_hf(degrees: Sequence[int], upto: int) -> HFProfile:
    """HF of an Artinian complete intersection with the given generator degrees."""
    series = [1]
    for d in degrees:
        block = [0] * (len(series) + d - 1)
        for i, v in enumerate(series):
            if v:
                for j in range(d):
                    block[i + j] += v
        series = block
    vals = [series[i] if i < len(series) else 0 for i in range(upto + 1)]
    return HFProfile(tuple(vals))


# ---------------------------------------------------------------------------
# point sets


def normalize_point(point: Sequence, field: NumberField) -> tuple[FieldElement, ...]:
    vals = [v if isinstance(v, FieldElement) else field.from_rational(v)
            for v in point]
    lead = next((v for v in vals if v), None)
    if lead is None:
        raise ZeroForm("the zero vector is not a projective point")
    inv = lead.inverse()
    return tuple([v * inv for v in vals])


def _rational(v):
    """A point coordinate over a degree-1 field as an int or a Fraction."""
    if isinstance(v, FieldElement):
        if v.field.degree != 1:
            raise FieldMismatch("point coordinate from an extension field")
        return v.coords[0]
    return v if isinstance(v, (int, Fraction)) else as_fraction(v)


def _checked_points(points: Sequence[Sequence], n: int,
                    field: NumberField) -> tuple[list[tuple], object, object]:
    """The points as raw coordinate rows for _power_values, with the one and
    zero of those rows, each point checked to have n coordinates, to be
    nonzero and to differ from the earlier ones as a projective point.

    Over a degree-1 field a point is its primitive integer vector with a
    positive lead, from one clear_denominators and one gcd: den * q for q
    the point scaled to lead 1 and den the lcm of q's denominators.
    Otherwise it is the coordinates of the point scaled to lead 1."""
    rational = field.degree == 1
    rows, seen = [], set()
    for p in points:
        if len(p) != n:
            raise AmbientMismatch(
                "point length does not match the variable count")
        if rational:
            ints = clear_denominators([_rational(v) for v in p])[1]
            lead = next((v for v in ints if v), 0)
            if not lead:
                raise ZeroForm("the zero vector is not a projective point")
            g = gcd(*ints) if lead > 0 else -gcd(*ints)
            key = tuple([v // g for v in ints])
        else:
            key = tuple([v.coords for v in normalize_point(p, field)])
        if key in seen:
            raise DuplicatePoint("repeated projective point")
        seen.add(key)
        rows.append(key)
    return (rows, 1, 0) if rational else (rows, field.raw_one, field.raw_zero)


def points_ideal(points: Sequence[Sequence], varset: VarSet, D: int,
                 field: NumberField = QQ) -> GradedIdeal:
    """The ideal of a finite reduced point set, sliced by evaluation kernels
    from degree D down. Below the first zero slice every slice is zero: for
    g != 0 in I_j, x_0 * g != 0 lies in I_(j+1)."""
    n = len(varset)
    # an integer multiple of a point scales each evaluation row and keeps
    # every kernel; row i of a point is its monomials of degree i evaluated
    rows, one, zero = _checked_points(points, n, field)
    ops = field.raw_ops()
    per_point = [_power_values(p, range(D + 1), ops, one, zero, False)
                 for p in rows]
    slices = [Subspace.zero(space_dim(n, i), field) for i in range(D + 1)]
    for i in range(D, -1, -1):
        evals = [values[i] for values in per_point]
        slices[i] = kernel(Matrix(field, len(evals), space_dim(n, i), evals))
        if not slices[i].dim:
            break
    return GradedIdeal(varset, field, D, slices)


def hf_points(points: Sequence[Sequence], varset: VarSet, D: int,
              field: NumberField = QQ) -> tuple[HFProfile, GradedIdeal]:
    """HF of a reduced point set up to D, plus its sliced ideal.

    The profile notes whether the tail has stabilized (last two values equal,
    the regularity plateau for points).
    """
    ideal = points_ideal(points, varset, D, field)
    vals = hf(ideal).values
    stab = len(vals) >= 2 and vals[-1] == vals[-2]
    return HFProfile(vals, stabilized=stab), ideal


def minimal_generators(ideal: GradedIdeal) -> list[Poly]:
    """A deterministic minimal generating set read off the graded slices.

    In each degree the canonical basis rows that survive modulo
    T_1 * (previous slice) are kept, in basis order. Past a full slice
    there is nothing to keep, since T_1 * T_(i-1) = T_i. The slices must
    be closed under T_1, as verify_closure checks and every ideal built
    here is: a product x_k * g then lies in I_i, and its coordinates in
    I_i's basis are its entries at the pivot columns. With basis row j at
    coordinate k-1-j, k = dim I_i, row j is redundant exactly when k-1-j
    is a pivot of the products' span. Products with one coordinate are
    peeled, and only the rest is inserted, sparsely, in dimension k.
    """
    n = len(ideal.varset)
    field = ideal.field
    gens: list[Poly] = []
    for i in range(ideal.D + 1):
        cur = ideal.slices[i]
        k = cur.dim
        if not k or i > 0 and ideal.slices[i - 1].is_full():
            continue
        coord = {p: k - 1 - j for j, p in enumerate(cur.pivots)}
        prods = []
        if i:
            shifts = _variable_shifts(n, i - 1)
            prods = [{coord[s[c]]: v for c, v in row.items() if s[c] in coord}
                     for row in ideal.slices[i - 1].sparse_rows()
                     for s in shifts]
        peeled, core = _peel(prods, False)
        span = Subspace.zero(k, field)
        for row in core:
            if len(peeled) + span.dim == k:
                break
            span._insert(row)
        redundant = set(peeled).union(span.pivots)
        rows = cur.sparse_rows()
        gens += [_sparse_row_poly(ideal.varset, field, i, rows[j])
                 for j in range(k) if k - 1 - j not in redundant]
    return gens
