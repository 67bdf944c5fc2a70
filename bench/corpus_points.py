"""points: exact point decompositions, mostly over cyclotomic fields.

Field arithmetic (NumberField.mul_coords) inside linalg.solve, called from
bounds.upper_bound_from_points, does nearly all the work; the lower bounds
that pair with the points are cheap. The shapes are fixed; a seed draws the
variable names, the order of the items and the rational point sets.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import checks as C
from common import (Item, distinct_points, make_poly, pick_names,
                    set_reps)

# The corpus is laid out in cost tiers so that item_p50_s and item_tail_s
# each fall inside a block of items of nearly equal cost, not on a jump
# between two unlike items: eight heavy items lie above the tail rank, a
# block of rank 9-16 monomials around it, and eight seeded rational sums of
# one shape around the median.

# (exponents, e, copies): monomial certificates solved over Q(zeta_m),
# m = lcm of a_i + 1 over the exponents other than a least one; copies
# differ in their seeded variable names
MONOMIALS = [
    ((1, 4, 5), 1, 1), ((3, 4, 5), 2, 1), ((1, 2, 2, 2), 1, 1),
    ((1, 4, 4), 1, 1), ((1, 2, 4), 1, 1), ((3, 3, 3), 2, 1),
    ((2, 3, 3), 1, 1), ((1, 1, 1, 2), 1, 1), ((1, 1, 4), 1, 1),
    ((1, 3, 3), 1, 3), ((2, 2, 3), 1, 3), ((1, 2, 3), 1, 1),
    ((1, 2, 2), 1, 1), ((1, 6), 1, 1), ((1, 1, 3), 1, 1), ((1, 1, 2), 1, 1),
    ((1, 1, 1, 1), 1, 1), ((2, 4), 1, 1), ((1, 4), 1, 1), ((1, 5), 1, 1),
    ((2, 3), 1, 1), ((2, 2), 1, 1), ((1, 3), 1, 1), ((1, 1, 1), 1, 1),
    ((1, 1), 1, 1), ((1, 2), 1, 1), ((3, 3), 1, 1), ((2, 5), 1, 1),
    ((1, 7), 1, 1),
]
HEAVY = {"monomial (1, 4, 5) e=1", "monomial (3, 4, 5) e=2",
         "monomial (1, 2, 2, 2) e=1", "monomial (1, 4, 4) e=1",
         "monomial (1, 2, 4) e=1", "monomial (3, 3, 3) e=2",
         "monomial (2, 3, 3) e=1", "xa_sum_b 4,4,2"}
LIGHT_REPS = 3
# (a, b, n) with b <= a: x0^a*(x1^b+...+xn^b) certified by (a+1)n points
XASUMB = [(2, 2, 3), (3, 3, 2), (2, 2, 2), (3, 2, 2), (4, 4, 2)]
# Vandermonde V_n with its (n-1)! permutation points
VANDERMONDE = [3, 4]
# (n, d, r, copies): F = sum of r seeded rational d-th powers in n variables
RATIONAL = [(2, 6, 4, 1), (2, 9, 7, 1), (3, 4, 8, 1), (3, 6, 15, 8),
            (3, 8, 20, 1), (4, 4, 15, 1), (4, 5, 24, 1), (3, 5, 12, 1),
            (2, 12, 10, 1), (4, 3, 10, 1)]


def _decomposition_check(form, m, rank, rng):
    def check(upper):
        C.require(upper is not None, "the points gave no decomposition")
        C.require(upper.count == rank == len(upper.points),
                  f"count {upper.count}, expected {rank}")
        if not upper.field.is_rationals():
            C.check_modulus(upper.field.minpoly, m)
        C.check_decomposition(form, [[v.coords for v in p]
                                     for p in upper.points],
                              [c.coords for c in upper.coefficients], m, rng)
    return check


def _monomial(ap, rng, seed, exps, e):
    names = pick_names(rng, len(exps))
    form = {tuple(exps): 1}
    f = make_poly(ap, names, form)
    rank = C.closed_monomial_rank(exps)
    pivot = exps.index(min(exps))
    others = [a + 1 for i, a in enumerate(exps) if i != pivot]
    m = math.lcm(*others) if others else 1
    check_points = _decomposition_check(form, m, rank,
                                        random.Random(f"{seed}/{exps}/{e}"))

    def check(cert):
        C.require(cert.status == "certified-equal", cert.status)
        C.require(cert.rank == rank and cert.lower.bound == rank,
                  f"rank {cert.rank}, expected {rank}")
        C.require(cert.lower.e == e, "wrong certificate degree")
        check_points(cert.upper)

    return Item(f"monomial {exps} e={e}",
                lambda: ap.families.monomial_certificate(f, e), check)


def _xa_sum_b(ap, seed, a, b, n):
    form = {}
    for i in range(1, n + 1):
        exps = [0] * (n + 1)
        exps[0], exps[i] = a, b
        form[tuple(exps)] = 1
    rank = (a + 1) * n
    check_points = _decomposition_check(form, a + 1, rank,
                                        random.Random(f"{seed}/xab{a}{b}{n}"))

    def check(res):
        C.require(res.status == "certified-equal", res.status)
        C.require(res.rank == rank and res.lower.bound == rank,
                  f"rank {res.rank}, expected (a+1)n = {rank}")
        check_points(res.upper)

    return Item(f"xa_sum_b {a},{b},{n}",
                lambda: ap.families.xa_sum_b_rank(a, b, n), check)


def vandermonde_form(n: int) -> dict:
    form = {(0,) * n: 1}
    for i, j in itertools.combinations(range(n), 2):
        lin = {tuple(1 if k == i else 0 for k in range(n)): 1,
               tuple(1 if k == j else 0 for k in range(n)): -1}
        form = C.multiply(form, lin)
    return form


def _vandermonde(ap, seed, n):
    form = vandermonde_form(n)
    rank = math.factorial(n - 1)
    check_points = _decomposition_check(form, n, rank,
                                        random.Random(f"{seed}/V{n}"))

    def check(res):
        C.require(res.status == "certified-equal", res.status)
        C.require(res.rank == rank == res.lower.bound,
                  f"rank {res.rank}, expected (n-1)! = {rank}")
        check_points(res.upper)

    return Item(f"vandermonde {n}",
                lambda: ap.families.vandermonde(n, solve_points=True), check)


def _rational(ap, rng, seed, n, d, r):
    while True:
        pts = distinct_points(rng, n, r, spread=6)
        powers = [C.power_of_linear(p, d) for p in pts]
        basis = C.monomials(n, d)
        if C.rank_mod_p([[pw.get(m, 0) for m in basis]
                         for pw in powers]) == r:
            break
    coeffs = [rng.choice([c for c in range(-9, 10) if c]) for _ in pts]
    form = C.add_forms(*(C.scale(pw, c) for pw, c in zip(powers, coeffs)))
    f = make_poly(ap, pick_names(rng, n), form)
    points = [tuple(Fraction(v) for v in p) for p in pts]
    check_points = _decomposition_check(form, 1, r,
                                        random.Random(f"{seed}/Q{n}{d}{r}"))

    def check(upper):
        check_points(upper)
        got = [c.coords[0] for c in upper.coefficients]
        C.require(got == [Fraction(c) for c in coeffs],
                  "solved coefficients differ from the generating ones")

    return Item(f"rational n={n} d={d} r={r}",
                lambda: ap.bounds.upper_bound_from_points(f, points), check)


def build(ap, rng: random.Random, seed: int) -> list[Item]:
    items = [_monomial(ap, rng, seed, exps, e)
             for exps, e, copies in MONOMIALS for _ in range(copies)]
    items += [_xa_sum_b(ap, seed, *abn) for abn in XASUMB]
    items += [_vandermonde(ap, seed, n) for n in VANDERMONDE]
    items += [_rational(ap, rng, seed, n, d, r)
              for n, d, r, copies in RATIONAL for _ in range(copies)]
    rng.shuffle(items)
    return set_reps(items, HEAVY, LIGHT_REPS)
