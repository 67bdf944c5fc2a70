"""Closed-form family engines: binary, monomial, power sums, CI, Vandermonde."""

from fractions import Fraction

import pytest

from apolarity.apolar import add_principal, ideal_from_generators, perp
from apolarity.bounds import lower_bound
from apolarity.errors import (
    EOutOfRange,
    FieldMismatch,
    HypothesisViolated,
    NotBinary,
    NotCIShape,
    NotMonomial,
    NOutOfRange,
    ParameterOutOfRange,
    ZeroForm,
)
from apolarity.families import (
    build_vandermonde,
    build_xa_sum_b,
    ci_rank,
    classify,
    detect_x0a_g,
    elementary_symmetric,
    monomial_certificate,
    monomial_points,
    monomial_rank,
    sylvester,
    vandermonde,
    x0a_g_certificate,
    xa_sum_b_rank,
)
from apolarity.fields import QQ, cyclotomic_field
from apolarity.poly import Poly, VarSet, apolar_action

V2 = VarSet(("x0", "x1"))
V3 = VarSet(("x0", "x1", "x2"))
XYZ = VarSet(("x", "y", "z"))


def mono(vs, exps, c=1):
    return Poly.monomial(vs, tuple(exps), c)


def var(vs, i, p=1):
    return Poly.variable(vs, i, p)


def degree_11_ci_example():
    # ternary degree-11 form whose annihilator is ((X^2+Y^2+Z^2)^2, Y^5, Z^5)
    f = (
        mono(XYZ, (11, 0, 0))
        + mono(XYZ, (9, 2, 0), -22)
        + mono(XYZ, (7, 4, 0), 33)
        + mono(XYZ, (9, 0, 2), -22)
        + mono(XYZ, (7, 2, 2), 396)
        + mono(XYZ, (5, 4, 2), -462)
        + mono(XYZ, (7, 0, 4), 33)
        + mono(XYZ, (5, 2, 4), -462)
        + mono(XYZ, (3, 4, 4), 385)
    )
    q = mono(XYZ, (2, 0, 0)) + mono(XYZ, (0, 2, 0)) + mono(XYZ, (0, 0, 2))
    return f, q


# -- binary forms


def test_sylvester_squarefree_case():
    f = mono(V2, (3, 0)) + mono(V2, (0, 3))
    res = sylvester(f)
    assert (res.d1, res.d2) == (2, 3)
    assert res.squarefree_h1 and res.rank == 2
    assert str(res.h1) == "x0*x1"


def test_sylvester_repeated_factor_case():
    res = sylvester(mono(V2, (4, 1)))
    assert (res.d1, res.d2) == (2, 5)
    assert not res.squarefree_h1
    assert res.rank == 5
    # root at infinity: h1 = X1^2 is a square though its dehomogenization
    # is the constant 1
    assert str(res.h1) == "x1^2"


def test_sylvester_pencil_case():
    res = sylvester(mono(V2, (1, 1)))
    assert (res.d1, res.d2) == (2, 2)
    assert res.squarefree_h1 and res.rank == 2
    assert str(res.h1) == "x0^2 + x1^2"

    res = sylvester(mono(V2, (2, 2)))
    assert (res.d1, res.d2) == (3, 3)
    assert res.rank == 3


def test_sylvester_uses_essential_variables():
    f = mono(V3, (3, 0, 0)) + mono(V3, (0, 3, 0))
    assert sylvester(f).rank == 2


def test_sylvester_errors():
    with pytest.raises(NotBinary):
        sylvester(mono(V3, (1, 1, 1)))
    with pytest.raises(ZeroForm):
        sylvester(Poly.zero(V2, QQ))
    fld = cyclotomic_field(3)
    with pytest.raises(FieldMismatch):
        sylvester(Poly.monomial(V2, (1, 1), fld.one, fld))


def test_sylvester_agrees_with_monomial_formula():
    for a in range(1, 4):
        for b in range(a, 8 - a):
            f = mono(V2, (a, b))
            assert sylvester(f).rank == monomial_rank(f) == b + 1


# -- monomials


def test_monomial_rank_formula():
    assert monomial_rank(mono(V3, (1, 1, 1))) == 4
    assert monomial_rank(mono(V3, (1, 4, 5))) == 30
    assert monomial_rank(mono(V3, (3, 4, 5))) == 30
    assert monomial_rank(mono(V2, (2, 3))) == 4
    # least exponent pins the excluded factor, position does not matter
    assert monomial_rank(mono(V3, (4, 1, 2))) == 15
    # pure powers have rank 1
    assert monomial_rank(mono(V2, (5, 0))) == 1
    with pytest.raises(NotMonomial):
        monomial_rank(mono(V2, (1, 1)) + mono(V2, (2, 0)))
    with pytest.raises(NotMonomial):
        monomial_rank(Poly.zero(V2, QQ))


def test_monomial_points_structure():
    pts, fld = monomial_points(mono(V3, (1, 1, 1)))
    assert fld.is_rationals()
    assert [[c.as_fraction() for c in p] for p in pts] == [
        [1, 1, 1],
        [1, 1, -1],
        [1, -1, 1],
        [1, -1, -1],
    ]

    pts, fld = monomial_points(mono(V2, (2, 3)))
    assert len(pts) == 4 and not fld.is_rationals()

    pts, fld = monomial_points(mono(V2, (5, 0)))
    assert len(pts) == 1 and fld.is_rationals()


def test_monomial_certificate_small():
    cert = monomial_certificate(mono(V3, (1, 1, 1)))
    assert cert.status == "certified-equal"
    assert cert.rank == 4
    assert cert.lower.validity == "unconditional"

    cert = monomial_certificate(mono(V2, (2, 3)))
    assert cert.status == "certified-equal" and cert.rank == 4


def test_monomial_certificate_e_range():
    f = mono(V3, (3, 4, 5))
    cert = monomial_certificate(f, e=2)
    assert cert.rank == 30 and cert.lower.e == 2
    with pytest.raises(EOutOfRange):
        monomial_certificate(f, e=3)
    with pytest.raises(EOutOfRange):
        monomial_certificate(mono(V3, (1, 4, 5)), e=2)
    with pytest.raises(EOutOfRange):
        monomial_certificate(f, e=0)


def test_monomial_colon_ideal_structure():
    # ann(x0^2 x1^3) : (X0) + (X0) = (X1^4, X0)
    f = mono(V2, (2, 3))
    w = lower_bound(f, [var(V2, 0)], var(V2, 0))
    assert w.profile.total() == 4 == monomial_rank(f)


# -- x0^a (x1^b + ... + xn^b)


def test_build_xa_sum_b():
    f = build_xa_sum_b(1, 3, 2)
    assert set(f.terms) == {(1, 3, 0), (1, 0, 3)}
    g = build_xa_sum_b(2, 3, 2, plus_power=True)
    assert set(g.terms) == {(2, 3, 0), (2, 0, 3), (5, 0, 0)}


def test_xa_sum_b_geq_regime():
    r = xa_sum_b_rank(2, 2, 3)
    assert r.regime == "a+1>=b" and r.rank == 9
    assert r.status == "certified-equal" and r.upper.count == 9
    assert r.lower.bound == 9 and r.lower.validity == "generic-t"

    r = xa_sum_b_rank(3, 2, 2)
    assert r.rank == 8 and r.status == "certified-equal"

    # b > a blocks the explicit point construction, the rank is cited
    r = xa_sum_b_rank(1, 2, 2)
    assert r.regime == "n=2" and r.rank == 4 and r.status == "cited-upper"

    r = xa_sum_b_rank(2, 3, 3)
    assert r.regime == "a+1>=b" and r.rank == 9 and r.status == "cited-upper"


@pytest.mark.parametrize("seed", [73, 126, 142, 173])
def test_xa_sum_b_generic_t_keeps_the_smallest_colon_sum(seed):
    # at these seeds one draw of t is special and overshoots the rank;
    # the general draws give the bound that meets the 12 points
    r = xa_sum_b_rank(2, 3, 4, seed=seed)
    assert r.regime == "a+1>=b" and r.rank == 12
    assert r.lower.bound == 12 and r.lower.validity == "generic-t"


def test_xa_sum_b_n2_regime():
    r = xa_sum_b_rank(1, 3, 2)
    assert r.regime == "n=2" and r.rank == 6
    assert r.status == "cited-upper"
    assert r.lower.bound == 6 and r.lower.validity == "unconditional"
    assert tuple(r.lower.profile.values[:5]) == (1, 2, 2, 1, 0)


def test_xa_sum_b_open_regime():
    r = xa_sum_b_rank(1, 3, 3)
    assert r.regime == "open" and r.rank == 9
    assert r.interval == (9, 9) and r.status == "cited-upper"
    assert r.lower.bound == 8  # colon sum bn-n+2; strictness closes the gap

    r = xa_sum_b_rank(1, 3, 5)
    assert r.rank is None and r.interval == (13, 15)
    assert r.status == "bounds-only" and r.lower.bound == 12


def test_xa_sum_b_plus_power():
    # the pure power does not disturb the colon by (X1,...,Xn)
    r = xa_sum_b_rank(2, 2, 3, plus_power=True)
    assert r.rank == 9 and r.status == "cited-upper" and r.lower.bound == 9

    r = xa_sum_b_rank(2, 3, 2, plus_power=True)
    assert r.regime == "a+1>=b" and r.rank == 6

    # a+1 < b: contracting by X0 keeps the pure power alive and the colon
    # sum lands one short of the plain table; only an interval is sound
    r = xa_sum_b_rank(1, 3, 2, plus_power=True)
    assert r.rank is None and r.interval == (5, 6)
    assert r.status == "bounds-only"

    r = xa_sum_b_rank(1, 3, 3, plus_power=True)
    assert r.interval == (7, 9) and r.status == "bounds-only"


def test_xa_sum_b_parameter_errors():
    for bad in [(0, 2, 2), (1, 1, 2), (1, 2, 1)]:
        with pytest.raises(ParameterOutOfRange):
            xa_sum_b_rank(*bad)


# -- complete intersection annihilators


def test_ci_rank_degree_11():
    f, q = degree_11_ci_example()
    cert = ci_rank(f, q, 2)
    assert cert.status == "cited-upper" and cert.rank == 25
    assert cert.lower.e == 2 and cert.lower.bound == 25
    assert cert.lower.validity == "unconditional"
    assert cert.lower.profile.values[:10] == (1, 3, 5, 7, 9, 9, 7, 5, 3, 1)


def test_ci_rank_monomial_cross_check():
    f = mono(V3, (1, 1, 1))
    cert = ci_rank(f, var(V3, 0), 2)
    assert cert.rank == 4 == monomial_rank(f)

    cert = ci_rank(mono(V2, (2, 2)), var(V2, 0), 3)
    assert cert.rank == 3


def test_ci_rank_hypothesis_checks():
    f = mono(V2, (3, 0)) + mono(V2, (0, 3))
    with pytest.raises(HypothesisViolated):
        ci_rank(f, mono(V2, (1, 1)), 1)       # a = 1 is outside the theorem
    with pytest.raises(NotCIShape):
        ci_rank(f, var(V2, 0), 2)             # X0^2 does not annihilate
    f11, q = degree_11_ci_example()
    with pytest.raises(NotCIShape):
        ci_rank(f11, q, 3)                    # no minimal generator of degree 6
    with pytest.raises(ZeroForm):
        ci_rank(Poly.zero(V2, QQ), var(V2, 0), 2)


# -- x0^a * G


def test_detect_x0a_g():
    f = mono(V3, (1, 3, 0)) + mono(V3, (1, 0, 3))
    hit = detect_x0a_g(f)
    assert hit is not None
    j, alpha, quotient = hit
    assert j == 0 and alpha == 1
    assert set(quotient.terms) == {(0, 3, 0), (0, 0, 3)}
    assert detect_x0a_g(mono(V2, (3, 0)) + mono(V2, (0, 3))) is None


def test_x0a_g_certificate_matches_family_rank():
    f = mono(V3, (1, 3, 0)) + mono(V3, (1, 0, 3))
    cert = x0a_g_certificate(f)
    assert cert.rank == 6 == xa_sum_b_rank(1, 3, 2).rank
    assert cert.lower.e == 1 and cert.lower.validity == "unconditional"


def test_x0a_g_perp_structure():
    # ann(x0^a G) = (X0^{a+1}) + ann(G)
    f = mono(V3, (2, 3, 0)) + mono(V3, (2, 0, 3))   # x0^2 (x1^3 + x2^3)
    d = f.degree()
    left = perp(f, d + 1)
    gens = [var(V3, 0, 3), mono(V3, (0, 1, 1)),
            mono(V3, (0, 3, 0)) - mono(V3, (0, 0, 3))]
    right = ideal_from_generators(V3, gens, d + 1)
    for i in range(d + 2):
        assert left.slices[i] == right.slices[i], i


# -- Vandermonde


def test_vandermonde_certificates():
    v3 = vandermonde(3)
    assert v3.rank == 2 and v3.status == "certified-equal"
    assert v3.lower.bound == 2

    v4 = vandermonde(4)
    assert v4.rank == 6 and v4.status == "certified-equal"
    assert v4.upper.count == 6


def test_vandermonde_five_lower_bound():
    v5 = vandermonde(5)
    assert v5.rank == 24 and v5.lower.bound == 24
    assert v5.status == "cited-upper"    # point solve skipped by default


def test_vandermonde_sigma_annihilation():
    for n in (3, 4):
        v = build_vandermonde(n)
        for k in range(1, n + 1):
            sigma = elementary_symmetric(v.varset, k)
            assert apolar_action(sigma, v).is_zero()


def test_vandermonde_out_of_range():
    with pytest.raises(NOutOfRange):
        vandermonde(2)
    with pytest.raises(NOutOfRange):
        vandermonde(7)


# -- classification


def test_classify_examples():
    assert classify(mono(V3, (2, 1, 0))).tag == "Monomial"

    match = classify(build_xa_sum_b(1, 3, 2))
    assert match.tag == "XaSumB"
    assert match.parameters["a"] == 1 and match.parameters["b"] == 3
    assert match.parameters["n"] == 2

    match = classify(build_xa_sum_b(2, 3, 2, plus_power=True))
    assert match.tag == "XaSumBPlusPower"

    assert classify(build_vandermonde(3)).tag == "Vandermonde"
    assert classify(mono(V2, (3, 0)) + mono(V2, (0, 3))).tag == "Binary"

    scraps = mono(V3, (4, 0, 0)) + mono(V3, (1, 3, 0)) + mono(V3, (0, 2, 2))
    assert classify(scraps).tag == "None"
    assert classify(Poly.zero(V3, QQ)).tag == "None"


def test_classify_x0a_g():
    f = mono(V3, (2, 2, 1)) + mono(V3, (2, 0, 3))   # x0^2 (x1^2 x2 + x2^3)
    match = classify(f)
    assert match.tag == "X0aG"
    assert match.parameters["a"] == 2
