"""Randomized invariants for the core calculus, seeded and deterministic."""

import random
from fractions import Fraction
from math import comb

from apolarity.apolar import (add_principal, colon_by_ideal, hf, hf_points,
                              perp)
from apolarity.bounds import essential_vars, lower_bound
from apolarity.fields import QQ
from apolarity.linalg import (Matrix, Subspace, kernel, matrix_rank,
                              subspace_intersect, subspace_sum)
from apolarity.poly import (Poly, VarSet, apolar_action, embed_in_varset,
                            monomial_basis, space_dim)
from conftest import contraction_catalecticant

VS = {n: VarSet(tuple(f"x{i}" for i in range(n))) for n in range(1, 5)}


def random_form(rng, n, d, terms=4):
    f = None
    for _ in range(rng.randint(1, terms)):
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        c = Fraction(rng.randint(-6, 6)) or Fraction(1)
        mono = Poly.monomial(VS[n], tuple(exps), c)
        f = mono if f is None else f + mono
    if f is None or f.is_zero():
        return Poly.monomial(VS[n], (d,) + (0,) * (n - 1))
    return f


def falling(b, a):
    out = 1
    for j in range(a):
        out *= b - j
    return out


def test_contraction_formula():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 4)
        a = tuple(rng.randint(0, 3) for _ in range(n))
        b = tuple(rng.randint(0, 4) for _ in range(n))
        g = Poly.monomial(VS[n], a)
        f = Poly.monomial(VS[n], b)
        got = apolar_action(g, f)
        if any(ai > bi for ai, bi in zip(a, b)):
            assert got.is_zero()
        else:
            scale = 1
            for ai, bi in zip(a, b):
                scale *= falling(bi, ai)
            want = Poly.monomial(
                VS[n], tuple(bi - ai for ai, bi in zip(a, b)),
                Fraction(scale))
            assert got == want


def test_apolar_action_is_bilinear():
    rng = random.Random(102)
    for _ in range(200):
        n = rng.randint(2, 4)
        f = random_form(rng, n, rng.randint(2, 4))
        g1 = random_form(rng, n, rng.randint(0, 2))
        g2 = random_form(rng, n, g1.terms and max(sum(e) for e in g1.terms))
        c = Fraction(rng.randint(-5, 5)) or Fraction(2)
        lhs = apolar_action(g1.scale(c) + g2, f)
        rhs = apolar_action(g1, f).scale(c) + apolar_action(g2, f)
        assert lhs == rhs


def test_contraction_composes():
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randint(2, 4)
        f = random_form(rng, n, rng.randint(2, 5))
        g = random_form(rng, n, rng.randint(0, 2))
        h = random_form(rng, n, rng.randint(0, 2))
        assert apolar_action(g, apolar_action(h, f)) == \
            apolar_action(g * h, f)


def test_gorenstein_symmetry():
    rng = random.Random(104)
    for _ in range(150):
        n = rng.randint(2, 3)
        d = rng.randint(2, 4)
        f = random_form(rng, n, d)
        values = hf(perp(f)).values
        for i in range(d + 1):
            assert values[i] == values[d - i]
        assert values[0] == 1


def test_colon_by_t_matches_annihilator_of_contraction():
    rng = random.Random(105)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 3)
        d = rng.randint(2, 4)
        f = random_form(rng, n, d)
        e = rng.randint(1, 2)
        t = random_form(rng, n, e, terms=2)
        tf = apolar_action(t, f)
        if tf.is_zero():
            continue
        D = d + 1
        left = colon_by_ideal(f, [t], D)
        right = perp(tf)
        for i in range(d - e + 1):
            assert left.slices[i] == right.slices[i]
        checked += 1


def test_point_hilbert_function_stabilizes_at_count():
    rng = random.Random(106)
    for _ in range(30):
        n = rng.randint(2, 3)
        pts = set()
        for _ in range(rng.randint(1, 8)):
            pts.add(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)))
        pts = [p for p in pts if any(p)]
        if not pts:
            continue
        # distinct projective representatives
        seen = {}
        for p in pts:
            lead = next(v for v in p if v)
            seen[tuple(v / lead for v in p)] = p
        pts = list(seen.values())
        count = len(pts)
        profile, _ = hf_points(pts, VS[n], count)
        assert profile.values[-1] == count
        assert profile.stabilized


def test_embedding_leaves_hilbert_function_unchanged():
    rng = random.Random(107)
    for _ in range(100):
        n = rng.randint(1, 3)
        d = rng.randint(2, 4)
        f = random_form(rng, n, d)
        m = rng.randint(n + 1, 4)
        positions = sorted(rng.sample(range(m), n))
        g = embed_in_varset(f, VS[m], tuple(positions))
        assert hf(perp(f)).values == hf(perp(g)).values


def test_essential_change_of_basis_round_trip():
    rng = random.Random(108)
    for _ in range(150):
        n = rng.randint(2, 4)
        d = rng.randint(2, 3)
        f = random_form(rng, n, d)
        change, reduced = essential_vars(f)
        assert change.restore(reduced) == f
        ess = n - change.removed
        if ess:
            tail = [e for e in reduced.terms if any(e[ess:])]
            assert tail == []


def test_grassmann_dimension_formula():
    rng = random.Random(109)
    for _ in range(150):
        dim = 6
        def rand_space():
            k = rng.randint(0, 4)
            rows = [[Fraction(rng.randint(-4, 4)) for _ in range(dim)]
                    for _ in range(k)]
            return Subspace.from_raw_vectors(rows, dim, QQ)
        a = rand_space()
        b = rand_space()
        s = subspace_sum(a, b)
        i = subspace_intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        assert i.dim <= min(a.dim, b.dim)
        assert s.dim >= max(a.dim, b.dim)


def test_catalecticant_rank_complements_perp_dimension():
    rng = random.Random(110)
    for _ in range(80):
        n = rng.randint(2, 3)
        d = rng.randint(2, 4)
        f = random_form(rng, n, d)
        i = rng.randint(0, d)
        c = contraction_catalecticant(f, i)
        assert matrix_rank(c) + kernel(c).dim == space_dim(n, i)
        assert kernel(c).dim == perp(f).slices[i].dim


def test_lower_bound_is_ceiling_of_profile_total():
    rng = random.Random(111)
    for _ in range(60):
        n = rng.randint(2, 3)
        exps = tuple(rng.randint(1, 3) for _ in range(n))
        f = Poly.monomial(VS[n], exps)
        a0 = min(exps)
        e = rng.randint(1, max(1, (a0 + 1) // 2))
        pivot = exps.index(a0)
        t = Poly.variable(VS[n], pivot, e)
        w = lower_bound(f, [t], t)
        total = w.profile.total()
        assert w.bound == -(-total // e)
