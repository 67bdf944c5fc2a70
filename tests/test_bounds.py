"""Lower-bound witnesses, point upper bounds, certificates, reductions."""

import math
import random
from fractions import Fraction

import pytest

from apolarity.apolar import add_principal, colon_by_ideal, ideal_from_generators
from apolarity.bounds import (
    certify,
    essential_form,
    essential_vars,
    linear_candidate_analysis,
    lower_bound,
    prop36_check,
    upper_bound_from_points,
)
from apolarity.errors import (
    AmbientMismatch,
    DegreeMismatch,
    DuplicatePoint,
    EmptyGeneratorList,
    EOutOfRange,
    PointsNotApolar,
    TNotInIdeal,
    ZeroForm,
)
from apolarity.fields import QQ, cyclotomic_field
from apolarity.linalg import _rref_q
from apolarity.poly import (Poly, VarSet, linear_form, monomial_basis,
                            restrict_to_vars)

V2 = VarSet(("x0", "x1"))
V3 = VarSet(("x", "y", "z"))
V4 = VarSet(("w", "x", "y", "z"))


def mono(vs, exps, c=1):
    return Poly.monomial(vs, tuple(exps), c)


def var(vs, i, p=1):
    return Poly.variable(vs, i, p)


def expand_decomposition(points, coeffs, d, nvars):
    """Independent multinomial expansion of sum c * (p1 x1 + ...)^d."""
    terms = {}
    for p, c in zip(points, coeffs):
        for exps in monomial_basis(nvars, d):
            w = Fraction(math.factorial(d))
            for e in exps:
                w /= math.factorial(e)
            val = w * Fraction(c)
            for x, e in zip(p, exps):
                val *= Fraction(x) ** e
            terms[exps] = terms.get(exps, Fraction(0)) + val
    return {e: v for e, v in terms.items() if v}


# -- lower bounds


def test_monomial_colon_has_closed_form_generators():
    # ann(x^a) : (X0^e) + (X0^e) = (X1^{a1+1}, ..., Xn^{an+1}, X0^e)
    # whenever 2e <= a0 + 1 and a0 is minimal among the exponents.
    cases = [
        (V3, (1, 1, 1), 1),
        (V3, (3, 4, 5), 1),
        (V3, (3, 4, 5), 2),
        (V2, (2, 3), 1),
    ]
    for vs, exps, e in cases:
        f = mono(vs, exps)
        d = f.degree()
        t = var(vs, 0, e)
        left = add_principal(colon_by_ideal(f, [t], d + 1), t)
        gens = [var(vs, i, exps[i] + 1) for i in range(1, len(vs))] + [t]
        right = ideal_from_generators(vs, gens, d + 1)
        for i in range(d + 2):
            assert left.slices[i] == right.slices[i], (exps, e, i)


def test_lower_bound_frozen_profiles():
    f = mono(V3, (1, 1, 1))
    w = lower_bound(f, [var(V3, 0)], var(V3, 0))
    assert w.profile.values == (1, 2, 1, 0, 0)
    assert w.bound == 4 and w.validity == "unconditional"

    g = mono(V3, (1, 2, 0)) + mono(V3, (1, 0, 2))
    w = lower_bound(g, [var(V3, 0)], var(V3, 0))
    assert w.profile.values == (1, 2, 1, 0, 0)
    assert w.bound == 4 and w.validity == "unconditional"

    h = mono(V2, (1, 1))
    w = lower_bound(h, [var(V2, 0)], var(V2, 0))
    assert w.profile.values == (1, 1, 0, 0)
    assert w.bound == 2 and w.validity == "unconditional"


def test_lower_bound_with_degree_two_ideal():
    # rank(x0^3 + x1^3) = 2 caught at e = 2 by the full square ideal:
    # colon by (X0^2, X0X1, X1^2) then add t = X0X1 leaves (1, 2, 0), and
    # ceil(3/2) = 2.
    f = mono(V2, (3, 0)) + mono(V2, (0, 3))
    gens = [mono(V2, (2, 0)), mono(V2, (1, 1)), mono(V2, (0, 2))]
    w = lower_bound(f, gens, mono(V2, (1, 1)))
    assert w.e == 2
    assert w.profile.values == (1, 2, 0, 0, 0)
    assert w.profile.total() == 3
    assert w.bound == 2


def test_lower_bound_annihilating_t_collapses_to_zero():
    # t inside ann(F) contracts F to zero, the colon is the unit ideal and
    # the bound degenerates to 0; the witness stays sound, just useless.
    f = mono(V3, (1, 4, 5))
    w = lower_bound(f, [var(V3, 0, 2)], var(V3, 0, 2))
    assert w.bound == 0
    assert w.profile.total() == 0


def test_lower_bound_generic_t_draws():
    # x^2(y^2 + z^2 + w^2): the coordinate t = X misses the rank, the
    # degree-one ideal on the other block catches it.
    vs = V4
    g = mono(vs, (2, 2, 0, 0)) + mono(vs, (2, 0, 2, 0)) + mono(vs, (2, 0, 0, 2))
    wx = lower_bound(g, [var(vs, 0)], var(vs, 0))
    assert wx.profile.values == (1, 3, 1, 0, 0, 0) and wx.bound == 5

    gens = [var(vs, i) for i in (1, 2, 3)]
    wy = lower_bound(g, gens, linear_form(vs, [0, 1, 1, 1]))
    assert wy.profile.values == (1, 3, 3, 2, 0, 0)
    assert wy.bound == 9 and wy.validity == "generic-t"

    auto = lower_bound(g, gens)
    assert auto.bound == 9 and auto.validity == "generic-t"
    assert lower_bound(g, gens, seed=7).bound == 9


def test_lower_bound_validation_errors():
    f = mono(V2, (3, 0)) + mono(V2, (0, 3))
    with pytest.raises(EmptyGeneratorList):
        lower_bound(f, [])
    with pytest.raises(ZeroForm):
        lower_bound(Poly.zero(V2, QQ), [var(V2, 0)])
    with pytest.raises(DegreeMismatch):
        lower_bound(f, [var(V2, 0), mono(V2, (2, 0))])
    with pytest.raises(DegreeMismatch):
        lower_bound(f, [Poly.monomial(V2, (0, 0), 1)])
    with pytest.raises(EOutOfRange):
        lower_bound(f, [mono(V2, (4, 0))])
    with pytest.raises(TNotInIdeal):
        lower_bound(f, [var(V2, 0)], var(V2, 1))
    with pytest.raises(DegreeMismatch):
        lower_bound(f, [var(V2, 0)], mono(V2, (2, 0)))


# -- upper bounds


def test_upper_bound_known_decompositions():
    h = mono(V2, (1, 1))
    w = upper_bound_from_points(h, [(1, 1), (1, -1)])
    assert [c.as_fraction() for c in w.coefficients] == [
        Fraction(1, 4),
        Fraction(-1, 4),
    ]
    assert w.count == 2

    cubes = mono(V2, (3, 0)) + mono(V2, (0, 3))
    w = upper_bound_from_points(cubes, [(1, 0), (0, 1)])
    assert [c.as_fraction() for c in w.coefficients] == [1, 1]

    # points are normalized projectively, so scaled input gives the
    # same witness as the unit representatives
    w = upper_bound_from_points(cubes, [(2, 0), (0, 3)])
    assert [c.as_fraction() for c in w.coefficients] == [1, 1]
    assert [[c.as_fraction() for c in p] for p in w.points] == [[1, 0], [0, 1]]


def test_upper_bound_expansion_oracle():
    cases = [
        (mono(V2, (1, 1)), [(1, 1), (1, -1)]),
        (mono(V2, (3, 0)) + mono(V2, (0, 3)), [(1, 0), (0, 1), (1, 1)]),
        (mono(V3, (2, 0, 0)) + mono(V3, (0, 1, 1)), [(1, 0, 0), (0, 1, 1), (0, 1, -1)]),
    ]
    for f, pts in cases:
        w = upper_bound_from_points(f, pts)
        assert w is not None
        got = expand_decomposition(
            [[c.as_fraction() for c in p] for p in w.points],
            [c.as_fraction() for c in w.coefficients],
            f.degree(),
            len(f.varset),
        )
        assert got == {e: c.as_fraction() for e, c in f.terms.items()}


def unscaled_solution(f, points):
    """The free-variables-zero solution of the unscaled system: columns
    L_j^d of the normalized points by repeated Poly products, [M | F]
    reduced by the exact _rref_q; None when inconsistent."""
    d = f.degree()
    cols = []
    for p in points:
        lead = next(Fraction(v) for v in p if v)
        ell = linear_form(f.varset, [Fraction(v) / lead for v in p])
        power = Poly.constant(f.varset, 1)
        for _ in range(d):
            power = power * ell
        cols.append([c.as_fraction() for c in power.to_vector(d)])
    rhs = [c.as_fraction() for c in f.to_vector(d)]
    aug = [[col[r] for col in cols] + [rhs[r]] for r in range(len(rhs))]
    red, pivots = _rref_q(aug)
    n = len(points)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        x[p] = row[n]
    return x


def test_upper_bound_matches_unscaled_exact_elimination():
    f3 = (mono(V3, (2, 1, 0), Fraction(1, 3)) + mono(V3, (0, 0, 3), -2)
          + mono(V3, (1, 1, 1), Fraction(5, 2)))
    on_a_line = [(1, 0, 0), (0, 1, 0), (2, 3, 0), (1, -1, 0)]
    cases = [
        # full rank, with denominators and zero coordinates
        (f3, [(2, 1, 0), (3, 0, 1), (1, 1, 1), (0, 2, 3), (4, -1, 2),
              (1, 0, 0), (0, 1, 0), (0, 0, 5), (3, 2, -1), (1, -3, 2)]),
        # rank deficient: four points on a line, with six rows
        (mono(V3, (2, 0, 0), 3) + mono(V3, (1, 1, 0), Fraction(-1, 2)),
         on_a_line),
        # inconsistent: z^2 is outside the span of the line's squares,
        # at full column rank and below it
        (mono(V3, (2, 0, 0)) + mono(V3, (0, 0, 2)), on_a_line[1:]),
        (mono(V3, (2, 0, 0)) + mono(V3, (0, 0, 2)), on_a_line),
        # more points than monomials: the elimination path alone
        (mono(V2, (2, 1), Fraction(7, 3)),
         [(3, 2), (1, 0), (0, 4), (2, -5), (5, 1)]),
    ]
    for f, pts in cases:
        want = unscaled_solution(f, pts)
        w = upper_bound_from_points(f, [tuple(map(Fraction, p)) for p in pts])
        if want is None:
            assert w is None
        else:
            assert [c.as_fraction() for c in w.coefficients] == want
    assert unscaled_solution(*cases[1])[3] == 0
    assert unscaled_solution(*cases[2]) is unscaled_solution(*cases[3]) is None


def test_upper_bound_inconsistent_returns_none():
    h = mono(V2, (1, 1))
    assert upper_bound_from_points(h, [(1, 0), (0, 1)]) is None


def test_upper_bound_duplicate_point_rejected():
    h = mono(V2, (1, 1))
    with pytest.raises(DuplicatePoint):
        upper_bound_from_points(h, [(1, 1), (2, 2)])


def test_upper_bound_point_length_must_match_variables():
    h = mono(V2, (1, 1))
    for points in ([(1, 1, 1)], [(1, 0), (1,)]):
        with pytest.raises(AmbientMismatch, match="point length"):
            upper_bound_from_points(h, points)


def test_upper_bound_cyclotomic_points():
    fld = cyclotomic_field(3)
    om = fld.gen()
    f = mono(V2, (1, 2))
    w = upper_bound_from_points(f, [(fld.one, om**k) for k in range(3)])
    assert w is not None and w.count == 3
    d = w.as_dict()
    assert "extension" in d and len(d["points"]) == 3


# -- certificates


def test_certify_statuses():
    cubes = mono(V2, (3, 0)) + mono(V2, (0, 3))
    gens = [mono(V2, (2, 0)), mono(V2, (1, 1)), mono(V2, (0, 2))]
    t = mono(V2, (1, 1))

    cert = certify(cubes, gens, t, points=[(1, 0), (0, 1)])
    assert cert.status == "certified-equal"
    assert cert.rank == 2 and cert.lower.e == 2

    loose = certify(cubes, gens, t, points=[(1, 0), (0, 1), (1, 1)])
    assert loose.status == "bounds-only"
    assert loose.rank is None and loose.upper.count == 3

    cited = certify(cubes, gens, t, cited_rank=2, citation="two distinct cube roots")
    assert cited.status == "cited-upper" and cited.rank == 2

    off = certify(cubes, gens, t, cited_rank=5, citation="slack")
    assert off.status == "cited-upper" and off.rank is None

    bare = certify(cubes, gens, t)
    assert bare.status == "bounds-only" and bare.upper is None


def test_certificate_dict_layout():
    cubes = mono(V2, (3, 0)) + mono(V2, (0, 3))
    gens = [mono(V2, (2, 0)), mono(V2, (1, 1)), mono(V2, (0, 2))]
    cert = certify(cubes, gens, mono(V2, (1, 1)), points=[(1, 0), (0, 1)])
    d = cert.as_dict()
    assert list(d.keys()) == [
        "form",
        "e",
        "ideal_generators",
        "t",
        "hf_profile",
        "lower_bound",
        "validity",
        "points",
        "coefficients",
        "count",
        "status",
        "rank",
    ]
    assert d["lower_bound"] == 2 and d["rank"] == 2
    assert d["hf_profile"] == [1, 2, 0, 0, 0]


# -- necessary condition on point ideals


def test_point_ideal_condition_holds_for_true_decompositions():
    fld = cyclotomic_field(3)
    om = fld.gen()
    f = mono(V2, (1, 2))
    pts = [(fld.one, om**k) for k in range(3)]
    rep = prop36_check(f, pts, [var(V2, 0)], var(V2, 0))
    assert rep.equal
    assert rep.degrees == ((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 4, 4), (4, 5, 5))

    h = mono(V2, (1, 1))
    rep = prop36_check(h, [(1, 1), (1, -1)], [var(V2, 0)], var(V2, 0))
    assert rep.equal
    assert rep.degrees == ((0, 0, 0), (1, 1, 1), (2, 3, 3), (3, 4, 4))


def test_point_ideal_condition_detects_mismatch():
    fld = cyclotomic_field(3)
    om = fld.gen()
    f = mono(V2, (1, 2))
    pts = [(fld.one, om**k) for k in range(3)]
    rep = prop36_check(f, pts, [var(V2, 0), var(V2, 1)], var(V2, 1))
    assert not rep.equal
    assert (2, 2, 3) in rep.degrees


def test_point_ideal_condition_requires_apolar_points():
    with pytest.raises(PointsNotApolar):
        prop36_check(mono(V2, (3, 0)), [(1, 1)], [var(V2, 1)], var(V2, 1))


def test_certified_equal_implies_point_ideal_condition():
    # a solved certificate must satisfy the necessary ideal equality for
    # its own witness pair and point set
    from apolarity.families import monomial_certificate, vandermonde

    certs = [
        monomial_certificate(mono(V2, (1, 2))),
        monomial_certificate(mono(V3, (1, 1, 1))),
        monomial_certificate(mono(V3, (2, 2, 2))),
    ]
    for cert in certs:
        assert cert.status == "certified-equal"
        rep = prop36_check(cert.form, cert.upper.points,
                           list(cert.lower.gens), cert.lower.t)
        assert rep.equal
    v = vandermonde(3)
    assert v.status == "certified-equal"
    rep = prop36_check(v.form, v.upper.points, list(v.lower.gens), v.lower.t)
    assert rep.equal


# -- essential variables


def test_essential_vars_collapses_perfect_power():
    f = (
        mono(V2, (3, 0))
        + mono(V2, (2, 1), 3)
        + mono(V2, (1, 2), 3)
        + mono(V2, (0, 3))
    )
    change, reduced = essential_vars(f)
    assert change.removed == 1
    assert set(reduced.terms) == {(3, 0)}
    assert change.restore(reduced) == f


def test_essential_vars_drops_unused_variable():
    f = mono(V3, (2, 0, 0)) + mono(V3, (1, 1, 0))
    change, reduced = essential_vars(f)
    assert change.removed == 1
    assert all(e[2] == 0 for e in reduced.terms)
    assert change.restore(reduced) == f


def test_essential_vars_identity_when_concise():
    f = mono(V3, (1, 1, 1))
    change, reduced = essential_vars(f)
    assert change.removed == 0
    assert reduced == f
    assert change.apply(f) == f


def test_essential_vars_over_extension():
    fld = cyclotomic_field(4)
    i = fld.gen()
    f = (
        Poly.monomial(V2, (2, 0), fld.one, fld)
        + Poly.monomial(V2, (1, 1), i + i, fld)
        + Poly.monomial(V2, (0, 2), -fld.one, fld)
    )  # (x0 + i x1)^2
    change, reduced = essential_vars(f)
    assert change.removed == 1
    assert all(e[1] == 0 for e in reduced.terms)
    assert change.restore(reduced) == f


@pytest.mark.parametrize("field", [QQ, cyclotomic_field(3)])
def test_essential_vars_match_the_substitution(field):
    # F is a sum of products of k <= n seeded linear forms, so it has at
    # most k essential variables; the reduced form, read off F without a
    # substitution, must equal the expanded substitution change.apply(F)
    rng = random.Random(15)
    lost = 0
    for _ in range(24):
        n = rng.randint(2, 4)
        vs = VarSet(tuple(f"x{i}" for i in range(n)))

        def scalar():
            c = field.from_rational(Fraction(rng.randint(-3, 3),
                                             rng.randint(1, 2)))
            return c + field.gen() * rng.randint(-1, 1)

        ls = [linear_form(vs, [scalar() for _ in range(n)], field)
              for _ in range(rng.randint(1, n))]
        f = Poly.zero(vs, field)
        for _ in range(rng.randint(1, 3)):
            term = Poly.constant(vs, rng.randint(1, 3), field)
            for _ in range(3):
                term = term * rng.choice(ls)
            f = f + term
        if f.is_zero():
            continue
        change, reduced = essential_vars(f)
        assert reduced == change.apply(f), f
        assert change.restore(reduced) == f
        ess, g = essential_form(f)
        assert ess == n - change.removed
        assert g == restrict_to_vars(reduced, range(ess))
        lost += change.removed > 0
    assert lost >= 8


def test_essential_vars_rejects_zero():
    with pytest.raises(ZeroForm):
        essential_vars(Poly.zero(V2, QQ))


# -- finite case analysis over linear candidates


def test_linear_candidates_refute_degree_one_certification():
    f = (
        mono(V4, (1, 3, 0, 0))
        + mono(V4, (1, 0, 3, 0))
        + mono(V4, (1, 0, 0, 3))
    )  # w(x^3 + y^3 + z^3), rank 9
    rep = linear_candidate_analysis(f, 9)
    assert rep.refuted
    assert rep.coordinate_sums == (("w", 8), ("x", 2), ("y", 2), ("z", 2))
    assert rep.sampled_max == 8
    assert rep.samples == 152
    d = rep.as_dict()
    assert d["coordinate_sums"]["w"] == 8 and d["refuted"]


def test_linear_candidates_accept_achievable_target():
    f = mono(V3, (1, 1, 1))
    rep = linear_candidate_analysis(f, 4)
    assert not rep.refuted
    assert all(v == 4 for _, v in rep.coordinate_sums)
