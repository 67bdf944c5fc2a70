"""ideal: annihilator ideals, their minimal generators and point ideals.

Incremental Subspace.insert_raw reduction and dense full slices do most of
the work. The colon workload reaches the same linalg and apolar layers
through batch elimination instead, so a change that speeds one use and
slows the other shows on one of the two.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks as C
from common import (Item, distinct_points, make_poly, pick_names,
                    random_form, rational_dict, set_reps, var_op)
from corpus_colon import DEGREE_11, DEGREE_11_Q
from corpus_points import vandermonde_form

# Cost tiers, as in the points corpus: seven heavy items, then a block of
# point-set Hilbert functions of one shape around the tail rank, twelve
# seeded forms of one shape around the median, and cheap items below.

# monomials whose annihilator is generated by X_i^(a_i+1)
MONOMIALS = [(3, 4, 5), (2, 2, 2), (1, 2, 3), (2, 5), (1, 1, 1, 1),
             (2, 3, 1, 2), (4, 4)]
# (n, d, terms, copies): seeded forms; generators must annihilate F
RANDOM_FORMS = [(3, 4, 5, 1), (3, 5, 6, 12), (3, 4, 8, 1), (2, 7, 4, 1),
                (4, 3, 6, 1), (3, 6, 4, 1), (4, 4, 5, 1), (2, 9, 3, 1)]
# (n, r, copies): seeded rational point sets in P^(n-1)
POINT_SETS = [(3, 6, 1), (3, 10, 1), (3, 15, 1), (3, 4, 1), (4, 8, 1),
              (4, 12, 1), (4, 20, 1), (4, 5, 1), (2, 5, 1), (3, 21, 4)]
HEAVY = {"gens monomial (2, 3, 1, 2)", "gens x^2y^2z^2w + xyzw^4",
         "ci_rank degree-11 form", "gens V_4", "gens monomial (3, 4, 5)",
         "gens degree-11 form", "point ideal union n=4 r=6+7"}
LIGHT_REPS = 3
# (n, d, r): F = sum of r rational d-th powers, for prop36_check with t = X0
PROP36_SEEDED = [(3, 4, 5), (3, 5, 7), (2, 5, 3)]
# exponent bounds (a_1, ..) of the monomial ideal (X_1^a_1, ..)
BOXES = [(2, 3, 4), (3, 3, 3), (2, 2, 2, 2), (4, 5)]


def _symmetric_hf(form, n, values):
    d = C.degree(form)
    want = C.hf_of_perp(form, n, d + 1)
    C.require(list(values) == want,
              f"HF {list(values)}, catalecticant ranks {want}")
    C.require(all(want[i] == want[d - i] for i in range(d + 1)),
              "HF(T/F^perp) is not symmetric")


def _annihilates(gens, form):
    for g in gens:
        C.require(not C.contract(rational_dict(g), form),
                  f"generator {g} does not annihilate F")


def _gens_item(ap, label, names, form, check_gens):
    n = len(names)
    f = make_poly(ap, names, form)

    def run():
        ideal = ap.apolar.perp(f)
        return ap.apolar.minimal_generators(ideal), ap.apolar.hf(ideal)

    def check(res):
        gens, profile = res
        _annihilates(gens, form)
        _symmetric_hf(form, n, profile.values)
        check_gens(gens)

    return Item(label, run, check)


def _degrees(want):
    def check(gens):
        got = sorted(g.degree() for g in gens)
        C.require(got == sorted(want), f"generator degrees {got}")
    return check


def _monomial_gens(ap, rng, exps):
    n = len(exps)
    want = {tuple(a + 1 if j == i else 0 for j in range(n))
            for i, a in enumerate(exps)}

    def check(gens):
        got = [rational_dict(g) for g in gens]
        C.require(all(len(g) == 1 and next(iter(g.values())) == 1
                      for g in got), "a generator is not a monic monomial")
        C.require({next(iter(g)) for g in got} == want and
                  len(got) == n, "generators are not the X_i^(a_i+1)")

    return _gens_item(ap, f"gens monomial {exps}", pick_names(rng, n),
                      {tuple(exps): 1}, check)


def _random_gens(ap, rng, n, d, terms):
    form = random_form(rng, n, d, terms)
    return _gens_item(ap, f"gens random n={n} d={d}", pick_names(rng, n),
                      form, lambda gens: None)


def _eval_rank(points, n, i):
    return C.rank_mod_p([[C.evaluate_exact({m: 1}, p) for m in
                          C.monomials(n, i)] for p in points])


def _general_points(rng, n, r):
    """Seeded points that impose independent conditions in the least degree
    where that is possible; D is one degree higher, so HF has reached r."""
    D = next(i for i in range(r + 1) if C.space_dim(n, i) >= r)
    while True:
        pts = distinct_points(rng, n, r, spread=5, first_one=False)
        if _eval_rank(pts, n, D) == r:
            return pts, D + 1


def _hf_points(ap, rng, n, r):
    pts, D = _general_points(rng, n, r)
    varset = ap.poly.VarSet(tuple(pick_names(rng, n)))
    points = [tuple(Fraction(v) for v in p) for p in pts]

    def check(res):
        profile, ideal = res
        want = [_eval_rank(pts, n, i) for i in range(D + 1)]
        C.require(list(profile.values) == want,
                  f"HF {list(profile.values)}, evaluation ranks {want}")
        C.require(profile.values[-1] == r and profile.stabilized,
                  "HF of the points does not reach the point count")
        for i in range(D + 1):
            for g in ideal.slice_polys(i):
                form = rational_dict(g)
                for p in pts:
                    C.require(C.evaluate_exact(form, p) == 0,
                              f"ideal element {g} misses a point")

    return Item(f"hf_points n={n} r={r}",
                lambda: ap.apolar.hf_points(points, varset, D), check)


def _prop36(ap, label, names, form, pts, equal=None):
    """prop36_check with t = X0; both sides' dimensions from references.

    X0 does not vanish at any point used here, so it is a nonzerodivisor
    on T/I_X and HF(T/(I_X + (X0)), i) = HF_X(i) - HF_X(i-1); the other
    side is rk Cat_i(F) - rk Cat_(i-1)(X0 o F).
    """
    n = len(names)
    f = make_poly(ap, names, form)
    x0 = var_op(ap, names, 0)
    points = [tuple(Fraction(v) for v in p) for p in pts]

    def check(rep):
        d = C.degree(form)
        t = {tuple(1 if j == 0 else 0 for j in range(n)): 1}
        tf = C.contract(t, form)
        rows = []
        for i in range(d + 2):
            hx = _eval_rank(pts, n, i) - (
                _eval_rank(pts, n, i - 1) if i else 0)
            hf = C.cat_rank(form, n, i) - C.cat_rank(tf, n, i - 1)
            rows.append((i, C.space_dim(n, i) - hx, C.space_dim(n, i) - hf))
        C.require(tuple(rep.degrees) == tuple(rows),
                  f"dimensions {rep.degrees}, references {rows}")
        C.require(rep.equal == all(a == b for _, a, b in rows),
                  "equal flag disagrees with the dimensions")
        if equal is not None:
            C.require(rep.equal == equal, "the certified decomposition "
                      "fails the ideal equality")

    return Item(label, lambda: ap.bounds.prop36_check(f, points, [x0], x0),
                check)


def _prop36_monomial(ap, rng, exps):
    # pivot first with exponent 1; points (1, +-1, ..): rank 2^(n-1)
    n = len(exps)
    pts = [(1,) + s for s in _signs(n - 1)]
    return _prop36(ap, f"prop36 monomial {exps}", pick_names(rng, n),
                   {tuple(exps): 1}, pts, equal=True)


def _signs(k):
    if k == 0:
        return [()]
    return [(s,) + rest for rest in _signs(k - 1) for s in (1, -1)]


def _prop36_seeded(ap, rng, n, d, r):
    while True:
        pts = distinct_points(rng, n, r, spread=4)
        powers = [C.power_of_linear(p, d) for p in pts]
        form = C.add_forms(*(C.scale(pw, rng.choice((1, 2, -1, 3)))
                             for pw in powers))
        if form:
            break
    return _prop36(ap, f"prop36 seeded n={n} d={d} r={r}",
                   pick_names(rng, n), form, pts)


def _lemma52(ap, rng, label, n, parts):
    """parts: (form, t) pairs over disjoint variables of one n-variable ring."""
    names = pick_names(rng, n)
    triples = []
    for form, t in parts:
        top = make_poly(ap, names, t)
        triples.append((make_poly(ap, names, form), [top], top))
    e = C.degree(parts[0][1])

    def check(rep):
        totals = [sum(C.principal_profile(form, t, n, C.degree(form) + 1))
                  for form, t in parts]
        expected = sum(totals) - len(parts) + 1
        C.require(rep.ok, "the joint Hilbert function identity failed")
        C.require(list(rep.summand_totals) == totals,
                  f"summand totals {rep.summand_totals}, ranks give {totals}")
        C.require(rep.joint_total == rep.expected_total == expected,
                  "joint total is not sum - m + 1")
        C.require(rep.joint_bound == -(-expected // e), "joint bound")

    return Item(label, lambda: ap.strassen.lemma52_hf_check(triples), check)


def _lemma52_items(ap, rng):
    def u(n, i, p=1):
        return {tuple(p if j == i else 0 for j in range(n)): 1}

    cubes = ({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1},
             {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1})
    return [
        _lemma52(ap, rng, "lemma52 cubes + monomial", 4,
                 [cubes, ({(0, 0, 2, 1): 1}, u(4, 3))]),
        _lemma52(ap, rng, "lemma52 three powers", 3,
                 [(u(3, i, 4), u(3, i)) for i in range(3)]),
        _lemma52(ap, rng, "lemma52 two monomials", 5,
                 [({(1, 2, 0, 0, 0): 1}, u(5, 0)),
                  ({(0, 0, 1, 1, 1): 1}, u(5, 2))]),
        _lemma52(ap, rng, "lemma52 quartics at e=2", 4,
                 [({(2, 2, 0, 0): 1}, u(4, 0, 2)),
                  ({(0, 0, 3, 1): 1, (0, 0, 1, 3): 2}, u(4, 2, 2))]),
    ]


def _box(ap, rng, bounds):
    n = len(bounds)
    names = pick_names(rng, n)
    gens = [var_op(ap, names, i, a) for i, a in enumerate(bounds)]
    D = sum(a - 1 for a in bounds) + 1
    want = [sum(1 for m in C.monomials(n, i)
                if all(x < a for x, a in zip(m, bounds)))
            for i in range(D + 1)]
    varset = gens[0].varset

    def check(ideal):
        got = [C.space_dim(n, i) - ideal.dim(i) for i in range(D + 1)]
        C.require(got == want, f"HF {got}, monomial count {want}")

    return Item(f"ideal_from_generators {bounds}",
                lambda: ap.apolar.ideal_from_generators(varset, gens, D),
                check)


def _union(ap, rng, n, r1, r2):
    """I_(X u Y) = I_X cap I_Y slice by slice, with the Grassmann formula."""
    pts, D = _general_points(rng, n, r1 + r2)
    varset = ap.poly.VarSet(tuple(pick_names(rng, n)))
    X = [tuple(Fraction(v) for v in p) for p in pts[:r1]]
    Y = [tuple(Fraction(v) for v in p) for p in pts[r1:]]

    def run():
        ix = ap.apolar.points_ideal(X, varset, D)
        iy = ap.apolar.points_ideal(Y, varset, D)
        ixy = ap.apolar.points_ideal(X + Y, varset, D)
        rows = []
        for a, b, c in zip(ix.slices, iy.slices, ixy.slices):
            s = ap.linalg.subspace_sum(a, b)
            m = ap.linalg.subspace_intersect(a, b)
            rows.append((a.dim, b.dim, s.dim, m.dim, m == c))
        return rows

    def check(rows):
        want = [C.space_dim(n, i) - _eval_rank(pts, n, i)
                for i in range(D + 1)]
        for (a, b, s, m, same), w in zip(rows, want):
            C.require(same, "I_X cap I_Y differs from I_(X u Y)")
            C.require(m == w, f"dim I_(X u Y) = {m}, evaluation gives {w}")
            C.require(s + m == a + b, "dim(A+B) + dim(A cap B) != dim A + dim B")

    return Item(f"point ideal union n={n} r={r1}+{r2}", run, check)


def build(ap, rng: random.Random, seed: int) -> list[Item]:
    items = [_monomial_gens(ap, rng, exps) for exps in MONOMIALS]
    items.append(_gens_item(ap, "gens V_4", ["x1", "x2", "x3", "x4"],
                            vandermonde_form(4), _degrees([1, 2, 3, 4])))
    items.append(_gens_item(ap, "gens x^5+y^5+z^5+w^5", pick_names(rng, 4),
                            {tuple(5 if j == i else 0 for j in range(4)): 1
                             for i in range(4)},
                            _degrees([2] * 6 + [5] * 3)))
    items.append(_gens_item(ap, "gens x^2y^2z^2w + xyzw^4",
                            pick_names(rng, 4),
                            {(2, 2, 2, 1): 1, (1, 1, 1, 4): 1},
                            lambda gens: None))
    names11 = pick_names(rng, 3)
    items.append(_gens_item(ap, "gens degree-11 form", names11, DEGREE_11,
                            _degrees([4, 5, 5])))
    f11 = make_poly(ap, names11, DEGREE_11)
    q11 = make_poly(ap, names11, DEGREE_11_Q)

    def ci_check(cert):
        C.require(cert.rank == 25 and cert.lower.bound == 25,
                  f"ci_rank gave {cert.rank}")
    items.append(Item("ci_rank degree-11 form",
                      lambda: ap.families.ci_rank(f11, q11, 2), ci_check))
    items += [_random_gens(ap, rng, n, d, terms)
              for n, d, terms, copies in RANDOM_FORMS for _ in range(copies)]
    items += [_hf_points(ap, rng, n, r)
              for n, r, copies in POINT_SETS for _ in range(copies)]
    items += [_prop36_monomial(ap, rng, exps)
              for exps in ((1, 1), (1, 1, 1), (1, 1, 1, 1))]
    items += [_prop36_seeded(ap, rng, *spec) for spec in PROP36_SEEDED]
    items += _lemma52_items(ap, rng) + _lemma52_items(ap, rng)
    items += [_box(ap, rng, b) for b in BOXES]
    items += [_union(ap, rng, 3, 5, 6), _union(ap, rng, 4, 6, 7),
              _union(ap, rng, 3, 3, 8)]
    rng.shuffle(items)
    return set_reps(items, HEAVY, LIGHT_REPS)
