"""Rank certification: quotient lower bounds, point-decomposition upper bounds.

The lower bound sums the Hilbert function of T/(ann(F):I + (t)) and divides
by e = deg t. That function comes from catalecticant ranks alone
(apolar.principal_sum_hf), so no colon ideal is built. When I = (t) the
bound is valid for every nonzero t; for a larger I it holds for a general t
in I_e, so drawn t's are flagged as such.
An upper bound is an explicit list of points whose d-th powers of linear
forms combine to F, found by an exact linear solve: linalg.solve returns a
solution only after the integer check M x = b, whose columns are the
expanded powers and whose right-hand side is F, so no second expansion is
needed. The columns come straight from the point coordinates
(poly._power_values), over QQ from integer multiples of the points.
The solve serves points given by the caller (ub, certify); the recognized
families write their decompositions in closed form, in families.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .apolar import (
    HFProfile,
    add_principal,
    catalecticant,
    perp,
    points_ideal,
    principal_sum_hf,
)
from .apolar import _checked_points, _gens_degree, _poly_raw_vector
from .errors import (
    DegreeMismatch,
    EOutOfRange,
    FieldMismatch,
    PointsNotApolar,
    TNotInIdeal,
    ZeroForm,
)
from .fields import FieldElement, NumberField
from .linalg import Matrix, Subspace, kernel, rref, solve
from .poly import (Poly, VarSet, _power_values, apolar_action, linear_form,
                   restrict_to_vars, space_dim)

GENERIC_COEFF_BOUND = 997
GENERIC_DRAWS = 5


@dataclass(frozen=True)
class LowerBoundWitness:
    """Certified inequality rank(F) >= bound, from one (I, t) choice."""

    gens: tuple[Poly, ...]
    t: Poly
    e: int
    profile: HFProfile
    bound: int
    validity: str    # "unconditional" | "generic-t"

    def as_dict(self) -> dict:
        return {
            "e": self.e,
            "ideal_generators": [str(g) for g in self.gens],
            "t": str(self.t),
            "hf_profile": list(self.profile.values),
            "lower_bound": self.bound,
            "validity": self.validity,
        }


@dataclass(frozen=True)
class UpperBoundWitness:
    """Exact decomposition F = sum c_i L_i^d over the recorded points."""

    points: tuple[tuple[FieldElement, ...], ...]
    coefficients: tuple[FieldElement, ...]
    count: int
    field: NumberField

    def as_dict(self) -> dict:
        out = {
            "points": [[str(v) for v in p] for p in self.points],
            "coefficients": [str(c) for c in self.coefficients],
            "count": self.count,
        }
        if not self.field.is_rationals():
            out["extension"] = {
                "generator": self.field.name,
                "minpoly": [str(c) for c in self.field.minpoly],
            }
        return out


def witness_fields(lower: LowerBoundWitness,
                   upper: UpperBoundWitness | None) -> dict:
    """The lower witness's fields, then the upper one's; a cited upper bound
    shows as empty point and coefficient lists."""
    out = lower.as_dict()
    out.update({"points": [], "coefficients": []} if upper is None
               else upper.as_dict())
    return out


@dataclass(frozen=True)
class RankCertificate:
    """Pairing of a lower-bound witness with an upper bound (points or cited)."""

    form: Poly
    lower: LowerBoundWitness
    upper: UpperBoundWitness | None
    status: str    # "certified-equal" | "bounds-only" | "cited-upper"
    cited_rank: int | None = None
    citation: str | None = None

    @property
    def rank(self) -> int | None:
        if self.status == "certified-equal":
            return self.lower.bound
        if self.status == "cited-upper" and self.cited_rank == self.lower.bound:
            return self.cited_rank
        return None

    def as_dict(self) -> dict:
        out = {"form": str(self.form)}
        out.update(witness_fields(self.lower, self.upper))
        out["status"] = self.status
        if self.cited_rank is not None:
            out["cited_rank"] = self.cited_rank
            out["citation"] = self.citation or ""
        if self.rank is not None:
            out["rank"] = self.rank
        return out


def _gen_span(gens, e: int) -> Subspace:
    f0 = gens[0]
    amb = space_dim(len(f0.varset), e)
    return Subspace.from_raw_vectors(
        [_poly_raw_vector(g, e) for g in gens], amb, f0.field)


def lower_bound(f: Poly, gens, t: Poly | None = None,
                seed: int = 0) -> LowerBoundWitness:
    """rank(F) >= ceil(sum_i HF(T/(ann(F):I + (t)), i) / e) for t in I_e.

    With t omitted: for principal I the generator itself is used and the
    bound is unconditional; otherwise up to five seeded integer combinations
    of the generators are tried, flagged generic-t. A special t can only
    raise the colon sum above its general value, so the bound can overshoot
    the rank; the draw with the smallest sum (the first among ties) is
    reported.
    """
    if f.is_zero():
        raise ZeroForm("no bound for the zero form")
    d = f.degree()
    if d < 1:
        raise DegreeMismatch("constant forms have no rank bound")
    gens = [g.lift(f.field) for g in gens]
    e = _gens_degree(gens)
    if e > d:
        raise EOutOfRange(f"e = {e} exceeds deg F = {d}")
    span = _gen_span(gens, e)
    # (F_perp : I) is the common annihilator of the forms g o F
    forms = [apolar_action(g, f) for g in gens]

    def witnesses(ts, validity: str) -> list[LowerBoundWitness]:
        return [LowerBoundWitness(tuple(gens), tc, e, profile,
                                  -(-profile.total() // e), validity)
                for tc, profile in zip(ts, principal_sum_hf(forms, ts, d + 1))]

    if t is not None:
        t = t.lift(f.field)
        if t.is_zero() or t.degree() != e:
            raise DegreeMismatch("t must be nonzero of the generators' degree")
        if not span.contains_raw(_poly_raw_vector(t, e)):
            raise TNotInIdeal(f"t = {t} is not in the degree-{e} span of I")
        validity = "unconditional" if span.dim == 1 else "generic-t"
        return witnesses([t], validity)[0]

    if len(gens) == 1:
        return witnesses([gens[0]], "unconditional")[0]

    rng = random.Random(seed)
    draws = []
    for _ in range(GENERIC_DRAWS):
        coeffs = [rng.randint(-GENERIC_COEFF_BOUND, GENERIC_COEFF_BOUND)
                  for _ in gens]
        tc = Poly.zero(f.varset, f.field)
        for c, g in zip(coeffs, gens):
            if c:
                tc = tc + g.scale(c)
        if not tc.is_zero():
            draws.append(tc)
    if not draws:
        raise ZeroForm("all drawn combinations of the generators vanished")
    # min keeps the first draw among those with the smallest sum
    return min(witnesses(draws, "generic-t"), key=lambda w: w.profile.total())


def _unify_field(f: Poly, points):
    found = None
    for p in points:
        for v in p:
            if isinstance(v, FieldElement) and not v.field.is_rationals():
                if found is None or found.is_rationals():
                    found = v.field
                elif found != v.field:
                    raise FieldMismatch("points mix different extensions")
    if found is None:
        found = f.field
    elif not f.field.is_rationals() and f.field != found:
        raise FieldMismatch("form and points live over different extensions")
    if not f.field.is_rationals():
        found = f.field
    return found


def upper_bound_from_points(f: Poly, points) -> UpperBoundWitness | None:
    """Solve F = sum c_i L_i^d over the given projective points exactly.

    Returns None when the system is inconsistent (the points are not apolar
    to F); otherwise the coefficients have passed solve's exact check that
    they recombine the expanded powers into F.
    """
    if f.is_zero():
        raise ZeroForm("no decomposition for the zero form")
    d = f.degree()
    fld = _unify_field(f, points)
    raw, one, zero = _checked_points(points, len(f.varset), fld)
    ops = fld.raw_ops()
    cols = [_power_values(p, [d], ops, one, zero, True)[0] for p in raw]
    # map lets zip reuse its one row tuple (a row held by a loop variable
    # would cost a fresh tuple each other row)
    mat = Matrix(fld, space_dim(len(f.varset), d), len(raw),
                 list(map(list, zip(*cols))))
    sol = solve(mat, f.lift(fld).to_vector(d))
    if sol is None:
        return None
    if fld.degree == 1:
        # column j is p_j^d for the integer point p_j with lead a_j, so the
        # coefficient of (p_j / a_j)^d is the solved one times a_j^d
        leads = [next(v for v in p if v) for p in raw]
        sol = [c * a ** d for c, a in zip(sol, leads)]
        raw = [[Fraction(v, a) for v in p] for p, a in zip(raw, leads)]
    norm = tuple([tuple([fld.from_raw(v) for v in p]) for p in raw])
    return UpperBoundWitness(norm, tuple(sol), len(norm), fld)


def certify(f: Poly, gens, t: Poly | None = None, points=None,
            seed: int = 0, cited_rank: int | None = None,
            citation: str | None = None) -> RankCertificate:
    """Combine a lower-bound witness with an upper bound into one verdict.

    certified-equal requires a solved point decomposition whose size matches
    the lower bound; a closed-form upper bound yields cited-upper; anything
    else is bounds-only.
    """
    lower = lower_bound(f, gens, t, seed)
    if points:
        upper = upper_bound_from_points(f, points)
        if upper is not None and upper.count == lower.bound:
            return RankCertificate(f, lower, upper, "certified-equal")
        return RankCertificate(f, lower, upper, "bounds-only")
    if cited_rank is not None:
        return RankCertificate(f, lower, None, "cited-upper",
                               cited_rank, citation)
    return RankCertificate(f, lower, None, "bounds-only")


@dataclass(frozen=True)
class Prop36Report:
    """Degreewise comparison of I_X + (t) against ann(F) + (t)."""

    equal: bool
    t: Poly
    degrees: tuple[tuple[int, int, int], ...]    # (degree, dim lhs, dim rhs)

    def as_dict(self) -> dict:
        return {
            "equal": self.equal,
            "t": str(self.t),
            "degrees": [list(row) for row in self.degrees],
        }


def prop36_check(f: Poly, points, gens, t: Poly) -> Prop36Report:
    """Necessary condition for rank computed by (I, t): I_X+(t) = ann(F)+(t).

    The points are first verified apolar to F (their ideal lies inside
    ann(F) degree by degree). A failed equality refutes that this (I, t)
    computes the rank via this X; it says nothing about other choices.
    """
    if f.is_zero():
        raise ZeroForm("no check for the zero form")
    d = f.degree()
    e = _gens_degree([g.lift(f.field) for g in gens])
    if e > d:
        raise EOutOfRange(f"e = {e} exceeds deg F = {d}")
    fld = _unify_field(f, points)
    ix = points_ideal(points, f.varset, d + 1, fld)
    fperp = perp(f, d + 1).lift(fld)
    for i in range(d + 1):
        if not fperp.slices[i].contains_subspace(ix.slices[i]):
            raise PointsNotApolar(f"point ideal escapes ann(F) in degree {i}")
    tl = t.lift(fld)
    if tl.is_zero() or tl.degree() != e:
        raise DegreeMismatch("t must be nonzero of the generators' degree")
    lhs = add_principal(ix, tl)
    rhs = add_principal(fperp, tl)
    rows = []
    equal = True
    for i in range(d + 2):
        da, db = lhs.slices[i].dim, rhs.slices[i].dim
        rows.append((i, da, db))
        if lhs.slices[i] != rhs.slices[i]:
            equal = False
    return Prop36Report(equal, tl, tuple(rows))


@dataclass(frozen=True)
class ChangeOfBasis:
    """Invertible linear substitution between original and reduced variables."""

    varset: VarSet
    field: NumberField
    forward: tuple[tuple[FieldElement, ...], ...]
    inverse: tuple[tuple[FieldElement, ...], ...]
    removed: int

    def apply(self, f: Poly) -> Poly:
        n = len(self.varset)
        reps = [linear_form(self.varset,
                            [self.forward[k][j] for k in range(n)], self.field)
                for j in range(n)]
        return f.substitute(reps)

    def restore(self, g: Poly) -> Poly:
        n = len(self.varset)
        reps = [linear_form(self.varset,
                            [self.inverse[j][k] for j in range(n)], self.field)
                for k in range(n)]
        return g.substitute(reps)


def _invert_rows(rows, field: NumberField):
    n = len(rows)
    one, zero = field.raw_one, field.raw_zero
    aug = [[field.to_raw(v) for v in row] + [one if i == j else zero
                                             for j in range(n)]
           for i, row in enumerate(rows)]
    red, pivots = rref(Matrix(field, n, 2 * n, aug))
    if pivots != tuple(range(n)):
        raise ArithmeticError("basis matrix is singular")
    return tuple(tuple(row[n:]) for row in red.vectors())


def essential_vars(f: Poly) -> tuple[ChangeOfBasis, Poly]:
    """Drop variables F does not essentially involve.

    The degree-1 part of ann(F) spans the operators killed by F; extending
    its basis and dualizing yields coordinates in which F uses only the
    first n - s variables. The identity change is returned when s = 0.
    F is constant along that kernel, so the reduced form, change.apply(F),
    is F with the kernel's pivot variables set to 0 and its free variables
    moved to the front: no substitution is expanded.
    """
    if f.is_zero():
        raise ZeroForm("the zero form involves no variables")
    n = len(f.varset)
    fld = f.field
    ker = kernel(catalecticant(f, 1))
    s = ker.dim
    if s == 0:
        ident = tuple(tuple(fld.one if i == j else fld.zero for j in range(n))
                      for i in range(n))
        return ChangeOfBasis(f.varset, fld, ident, ident, 0), f
    pivset = set(ker.pivots)
    frees = [j for j in range(n) if j not in pivset]
    rows = [tuple(fld.one if k == j else fld.zero for k in range(n))
            for j in frees]
    rows += [tuple(vec) for vec in ker.vectors()]
    forward = tuple(rows)
    inverse = _invert_rows(forward, fld)
    pad = (0,) * s
    reduced = Poly(f.varset, {tuple(e[j] for j in frees) + pad: c
                              for e, c in f.terms.items()
                              if not any(e[p] for p in pivset)}, fld)
    return ChangeOfBasis(f.varset, fld, forward, inverse, s), reduced


def essential_form(f: Poly) -> tuple[int, Poly]:
    """(ess, F in its ess essential variables, named as F's first ess)."""
    change, reduced = essential_vars(f)
    ess = len(f.varset) - change.removed
    return ess, restrict_to_vars(reduced, range(ess))


@dataclass(frozen=True)
class LinearCaseAnalysis:
    """Finite case analysis over degree-1 candidates (t) for computing a rank.

    Coordinate forms are exhaustive: when I is principal on a coordinate
    hyperplane, the colon sum is computed exactly. Every other candidate
    ideal forces a general t supported on two or more coordinates; for those
    the sum is capped by the quotient by ann(F) + (t) alone, sampled over a
    deterministic coefficient grid.
    """

    target: int
    coordinate_sums: tuple[tuple[str, int], ...]
    sampled_max: int
    samples: int
    refuted: bool

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "coordinate_sums": {k: v for k, v in self.coordinate_sums},
            "sampled_max": self.sampled_max,
            "samples": self.samples,
            "refuted": self.refuted,
        }


def linear_candidate_analysis(f: Poly, target: int,
                              grid=(1, -1, 2, -2)) -> LinearCaseAnalysis:
    """Decide whether any degree-1 (I, t) could certify the given rank."""
    if f.is_zero():
        raise ZeroForm("no analysis for the zero form")
    n = len(f.varset)
    coord = []
    for k in range(n):
        xk = Poly.variable(f.varset, k, field=f.field)
        w = lower_bound(f, [xk], xk)
        coord.append((f.varset.names[k], w.profile.total()))
    ts = []
    for coeffs in _coeff_grid(n, (0,) + tuple(grid)):
        if sum(1 for c in coeffs if c) < 2:
            continue
        lead = next(i for i, c in enumerate(coeffs) if c)
        if coeffs[lead] == 1:
            ts.append(linear_form(f.varset, [Fraction(c) for c in coeffs],
                                  f.field))
    # the quotient by ann(F) + (t) alone
    totals = [p.total() for p in principal_sum_hf([f], ts, f.degree() + 1)]
    sampled_max = max(totals, default=0)
    samples = len(ts)
    refuted = all(v != target for _, v in coord) and sampled_max < target
    return LinearCaseAnalysis(target, tuple(coord), sampled_max, samples,
                              refuted)


def _coeff_grid(n: int, choices):
    if n == 0:
        yield ()
        return
    for rest in _coeff_grid(n - 1, choices):
        for c in choices:
            yield (c,) + rest
