"""Independent derivations of the numbers every lower bound rests on.

lower_bound and linear_candidate_analysis read their Hilbert functions off
catalecticant ranks alone. Here those profiles are compared with the ideal
engine (colon slices, add_principal, hf), the ranks with sympy's own
elimination, and certified ranks with the Ranestad-Schreyer bound.
"""

import random
import re
from fractions import Fraction

import pytest

from apolarity.apolar import (add_principal, catalecticant_rank,
                              colon_by_ideal, hf, minimal_generators, perp,
                              perp_hf, principal_sum_hf)
from apolarity.bounds import linear_candidate_analysis, lower_bound
from apolarity.errors import AmbientMismatch, DegreeMismatch
from apolarity.fields import QQ, cyclotomic_field
from apolarity.linalg import Matrix, matrix_rank
from apolarity.parser import parse_poly
from apolarity.poly import (Poly, VarSet, apolar_action, linear_form,
                            monomial_basis)
from conftest import contraction_catalecticant
from test_family_goldens import RANK, STRASSEN

V2 = VarSet(("x0", "x1"))
V3 = VarSet(("x", "y", "z"))
V4 = VarSet(("w", "x", "y", "z"))


def mono(vs, exps, c=1):
    return Poly.monomial(vs, tuple(exps), c)


def random_form(vs, degree, rng, field=QQ, density=0.6):
    """A seeded form; over an extension every coefficient is a + b*z."""
    terms = {}
    for exps in monomial_basis(len(vs), degree):
        if rng.random() > density:
            continue
        c = field.from_rational(rng.randint(-4, 4))
        if not field.is_rationals():
            c = c + field.gen() * rng.randint(-3, 3)
        if c:
            terms[exps] = c
    if not terms:
        terms[(degree,) + (0,) * (len(vs) - 1)] = field.one
    return Poly(vs, terms, field)


def ideal_profile(f, gens, t):
    """The former path: colon slices, plus (t), Hilbert function."""
    return hf(add_principal(colon_by_ideal(f, gens, f.degree() + 1), t))


def _cases(field, rng):
    """(F, generators, t or None) over one field, seeded."""
    out = []
    for _ in range(10):
        vs = rng.choice((V3, V4))
        d = rng.randint(3, 5 if vs is V3 else 4)
        e = rng.randint(1, 2)
        f = random_form(vs, d, rng, field)
        gens = [random_form(vs, e, rng, field)
                for _ in range(rng.choice((1, 2, 3, 4)))]
        out.append((f, gens, None))
        if len(gens) > 1:
            t = gens[0] + gens[-1].scale(rng.randint(-5, 5) or 1)
            if not t.is_zero():
                out.append((f, gens, t))
    # generators that kill F: F does not involve z
    f = Poly(V3, {exps + (0,): c
                  for exps, c in random_form(V2, 4, rng, field).terms.items()},
             field)
    z, y = mono(V3, (0, 0, 1)), mono(V3, (0, 1, 0))
    out.append((f, [z], z))
    out.append((f, [z, y], z + y))
    out.append((f, [mono(V3, (0, 0, 2)), mono(V3, (0, 1, 1))], None))
    # t o G = 0 for G = (Y o F): x^3*y is killed by Y^2
    g = mono(V3, (3, 1, 0)).lift(field)
    out.append((g, [y], y))
    out.append((g, [y, z], None))
    out.append((g, [mono(V3, (0, 2, 0))], None))
    return out


@pytest.mark.parametrize("field", [QQ, cyclotomic_field(5)],
                         ids=["QQ", "Qzeta5"])
def test_lower_bound_profile_matches_ideal_engine(field):
    rng = random.Random(71)
    seen_zero = False
    for f, gens, t in _cases(field, rng):
        w = lower_bound(f, gens, t, seed=rng.randrange(100))
        assert w.profile == ideal_profile(f, gens, w.t), (f, gens, w.t)
        assert w.bound == -(-w.profile.total() // w.e)
        seen_zero |= w.profile.total() == 0
    assert seen_zero


def test_generic_draw_matches_ideal_engine():
    # the drawn t's profile equals the ideal engine's, and a special t
    # (a single generator) can only raise the colon sum above it
    f = parse_poly("x0^2*(x1^3+x2^3+x3^3+x4^3)")
    gens = [Poly.variable(f.varset, k) for k in range(1, 5)]
    w = lower_bound(f, gens, seed=73)
    assert w.bound == 12 and w.validity == "generic-t"
    assert w.profile == ideal_profile(f, gens, w.t)
    for g in gens:
        assert ideal_profile(f, gens, g).total() >= w.profile.total()


@pytest.mark.parametrize("field", [QQ, cyclotomic_field(5)],
                         ids=["QQ", "Qzeta5"])
def test_linear_candidate_sums_match_ideal_engine(field):
    rng = random.Random(43)
    f = random_form(V3, 4, rng, field)
    rep = linear_candidate_analysis(f, 7, grid=(1, -2))
    fperp = perp(f)
    totals = []
    for coeffs in [(1, a, b) for a in (0, 1, -2) for b in (0, 1, -2)] + [
            (0, 1, 1), (0, 1, -2)]:
        if sum(1 for c in coeffs if c) < 2:
            continue
        t = linear_form(V3, [Fraction(c) for c in coeffs], field)
        totals.append(hf(add_principal(fperp, t)).total())
    assert rep.samples == len(totals)
    assert rep.sampled_max == max(totals)
    for k, (name, total) in enumerate(rep.coordinate_sums):
        xk = Poly.variable(V3, k, field=field)
        assert name == V3.names[k]
        assert total == ideal_profile(f, [xk], xk).total()


def test_principal_sum_hf_rejects_t_over_another_ring():
    with pytest.raises(AmbientMismatch):
        principal_sum_hf([mono(V2, (2, 1))], [mono(V3, (1, 0, 0))], 4)


# -- ranks against sympy


def _sympy_rank(rows):
    sympy = pytest.importorskip("sympy")
    if not rows:
        return 0
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                          for v in row] for row in rows]).rank()


def test_matrix_rank_matches_sympy_on_catalecticants():
    rng = random.Random(17)
    for _ in range(12):
        vs = rng.choice((V2, V3, V4))
        d = rng.randint(2, 5)
        forms = [random_form(vs, d, rng, density=rng.choice((0.2, 0.6)))
                 for _ in range(rng.randint(1, 3))]
        for i in range(d + 1):
            single = contraction_catalecticant(forms[0], i)
            assert matrix_rank(single) == _sympy_rank(single.rows)
            rows = [r for g in forms
                    for r in contraction_catalecticant(g, i).rows]
            stacked = Matrix(QQ, len(rows), single.ncols, rows)
            assert matrix_rank(stacked) == _sympy_rank(rows)


def test_principal_sum_hf_matches_sympy_ranks():
    # the profile is rk Cat_i(G) - rk Cat_(i-e)(t o G), here with every
    # rank taken by sympy
    rng = random.Random(29)
    for _ in range(6):
        f = random_form(V3, rng.randint(3, 5), rng)
        e = rng.randint(1, 2)
        gens = [random_form(V3, e, rng) for _ in range(rng.randint(1, 3))]
        t = gens[0]
        forms = [apolar_action(g, f) for g in gens]
        tforms = [apolar_action(t, g) for g in forms]
        D = f.degree() + 1

        def ranks(fs, i):
            rows = [r for g in fs if not g.is_zero() and g.degree() >= i
                    for r in contraction_catalecticant(g, i).rows]
            return _sympy_rank(rows)

        want = tuple(ranks(forms, i) - (ranks(tforms, i - e) if i >= e else 0)
                     for i in range(D + 1))
        assert principal_sum_hf(forms, [t], D)[0].values == want


def _fraction_rank(forms, i):
    """rk of the stacked Cat_i of the nonzero forms of degree >= i, from
    dense Fraction rows of contractions X^alpha o g."""
    rows = [r for g in forms if not g.is_zero() and g.degree() >= i
            for r in contraction_catalecticant(g, i).rows]
    return matrix_rank(Matrix(QQ, len(rows), len(rows[0]), rows)) if rows \
        else 0


def _fractional_form(vs, degree, rng):
    """A seeded form with denominators, dense or sparse."""
    coeffs = (Fraction(-5, 7), Fraction(1, 3), Fraction(7, 2), 1, -2)
    density = rng.choice((0.25, 0.6, 1.0))
    terms = {exps: rng.choice(coeffs)
             for exps in monomial_basis(len(vs), degree)
             if rng.random() < density}
    return Poly(vs, terms or {(degree,) + (0,) * (len(vs) - 1):
                              Fraction(3, 5)})


def test_principal_sum_hf_matches_fraction_catalecticant_ranks():
    # integer rows, nonzero cells and the one-form symmetry against
    # differences of ranks of dense Fraction contraction matrices
    rng = random.Random(97)
    cases = []
    for _ in range(14):
        vs = rng.choice((V2, V3, V4))
        d = rng.randint(3, 6 if vs is V2 else 5)
        e = rng.randint(1, 3)
        f = _fractional_form(vs, d, rng)
        gens = [_fractional_form(vs, e, rng)
                for _ in range(rng.randint(1, 4))]
        cases.append(([apolar_action(g, f) for g in gens], gens[0], e, d))
    # t o G = 0 and G = 0: x^3*y is killed by Y^2, and Z kills it
    g = mono(V3, (3, 1, 0), Fraction(-5, 7))
    y2, z = mono(V3, (0, 2, 0), Fraction(1, 3)), mono(V3, (0, 0, 1))
    cases += [([g], y2, 2, 4), ([g, g.scale(Fraction(1, 3))], y2, 2, 4),
              ([apolar_action(z, g)], z, 1, 4), ([g], z, 1, 4)]
    stacked = symmetric = killed = 0
    for forms, t, e, d in cases:
        D = d + 1
        tforms = [apolar_action(t, g) for g in forms]
        want = tuple(_fraction_rank(forms, i)
                     - (_fraction_rank(tforms, i - e) if i >= e else 0)
                     for i in range(D + 1))
        assert principal_sum_hf(forms, [t], D)[0].values == want
        live = [g for g in forms if not g.is_zero()]
        stacked += len(live) > 1
        symmetric += len(live) == 1
        killed += all(g.is_zero() for g in tforms)
        if live:
            # the truncation must reach the top degree + 1
            with pytest.raises(DegreeMismatch):
                principal_sum_hf(forms, [t], max(g.degree() for g in live))
    assert stacked >= 4 and symmetric >= 4 and killed >= 2


def test_single_form_catalecticant_ranks_are_symmetric():
    # rk Cat_i(F) = rk Cat_(d-i)(F), the Gorenstein symmetry of T/F_perp
    rng = random.Random(61)
    for field in (QQ, cyclotomic_field(5)):
        for _ in range(10):
            vs = rng.choice((V2, V3, V4))
            d = rng.randint(1, 6 if vs is V2 else 5)
            f = (_fractional_form(vs, d, rng) if field is QQ
                 else random_form(vs, d, rng, field,
                                  density=rng.choice((0.3, 0.8))))
            ranks = [matrix_rank(contraction_catalecticant(f, i))
                     for i in range(d + 1)]
            assert ranks == ranks[::-1], (f, ranks)


@pytest.mark.parametrize("field", [QQ, cyclotomic_field(5)],
                         ids=["QQ", "Qzeta5"])
def test_perp_hf_ranks_match_perp_kernels(field):
    # the hf verb's route, catalecticant ranks with the one-form symmetry,
    # against the dimensions of perp's kernels, at D = d + 1 and beyond
    rng = random.Random(89)
    for _ in range(10):
        vs = rng.choice((V2, V3, V4))
        d = rng.randint(1, 6 if vs is V2 else 4)
        f = (_fractional_form(vs, d, rng) if field is QQ
             else random_form(vs, d, rng, field,
                              density=rng.choice((0.3, 0.8))))
        for D in (d + 1, d + 1 + rng.randint(1, 3)):
            assert perp_hf(f, D) == hf(perp(f, D)), (f, D)
    with pytest.raises(DegreeMismatch):
        perp_hf(f, d)


@pytest.mark.parametrize("field", [QQ, cyclotomic_field(5)],
                         ids=["QQ", "Qzeta5"])
def test_catalecticant_rank_matches_contraction_matrix(field):
    # the cat verb's and strassen's rank, from the nonzero cells, against
    # the dense matrix of contractions X^alpha o F
    rng = random.Random(47)
    for _ in range(10):
        vs = rng.choice((V2, V3, V4))
        d = rng.randint(1, 5)
        f = (_fractional_form(vs, d, rng) if field is QQ
             else random_form(vs, d, rng, field,
                              density=rng.choice((0.2, 0.7))))
        for i in range(d + 1):
            assert catalecticant_rank(f, i) == matrix_rank(
                contraction_catalecticant(f, i)), (f, i)


# -- certified ranks against the Ranestad-Schreyer bound


def _certified(cases, pattern):
    for expr, code, text, _ in cases:
        m = re.search(pattern, text)
        if m:
            yield expr, int(m.group(1))


@pytest.mark.parametrize(
    "expr,rank",
    list(_certified(RANK, r"^rank = (\d+) ")) +
    list(_certified(STRASSEN, r"total rank = (\d+)\n")))
def test_certified_ranks_satisfy_ranestad_schreyer(expr, rank):
    # rk F >= length(A_F) / delta, with delta the largest degree of a
    # minimal generator of F_perp (Ranestad-Schreyer, J. Algebra 346, 2011)
    f = parse_poly(expr)
    fperp = perp(f)
    length = hf(fperp).total()
    delta = max(g.degree() for g in minimal_generators(fperp))
    assert rank >= -(-length // delta)
