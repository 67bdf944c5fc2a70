"""colon: rank lower bounds over Q from colon ideals, no point solving.

Bareiss elimination under catalecticant, kernel, colon_by_ideal and
add_principal does nearly all the work, and no extension field appears.
Principal colons (I = (t)) and colons by several generators followed by
intersections are both present. Each principal witness is checked against
rk Cat_i(t o F) - rk Cat_(i-e)(t^2 o F), computed by checks.py.
"""

from __future__ import annotations

import math
import random

import checks as C
from common import (Item, make_poly, pick_names, random_form, set_reps,
                    stripped)
from corpus_points import vandermonde_form

# Cost tiers, as in the points corpus: six heavy items, then ten monomial
# bounds of nearly equal cost around the tail rank, fifteen seeded
# principal witnesses of one shape around the median, and cheap items below.

# (exponents, e, copies) for monomial lower bounds carried without solving
# points; copies differ in their seeded variable names
MONOMIALS = [
    ((3, 4, 5), 1, 1), ((3, 4, 5), 2, 1), ((5, 5, 6), 1, 3),
    ((5, 5, 6), 2, 3), ((5, 5, 6), 3, 3), ((4, 4, 4), 1, 1),
    ((4, 4, 4), 2, 1), ((2, 3, 3, 4), 1, 1), ((1, 2, 2, 2, 2), 1, 1),
    ((5, 7), 1, 1), ((5, 7), 3, 1), ((3, 3, 3, 3), 2, 1), ((1, 4, 5), 1, 1),
    ((2, 6, 6), 1, 1),
]
HEAVY = {"vandermonde 5", "xa_sum_b 2,3,4", "monomial (1, 2, 2, 2, 2) e=1",
         "w(x^3+y^3+z^3) linear candidates", "monomial (3, 3, 3, 3) e=2",
         "monomial (2, 3, 3, 4) e=1"}
LIGHT_REPS = 3
# (a, b, n) with b > a, so no points are solved
XASUMB = [(2, 3, 4), (1, 3, 5), (1, 3, 3), (1, 2, 3), (1, 2, 4), (2, 3, 2),
          (1, 4, 2), (3, 4, 2)]
# (n, d, e, terms, copies): seeded principal witnesses t o F, random F, t
RANDOM_PRINCIPAL = [(3, 6, 1, 10, 14), (2, 8, 1, 5, 10), (3, 5, 2, 8, 4)]

DEGREE_11 = {
    (11, 0, 0): 1, (9, 2, 0): -22, (7, 4, 0): 33,
    (9, 0, 2): -22, (7, 2, 2): 396, (5, 4, 2): -462,
    (7, 0, 4): 33, (5, 2, 4): -462, (3, 4, 4): 385,
}
DEGREE_11_Q = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}


def _unit(n, i, power=1):
    exps = [0] * n
    exps[i] = power
    return {tuple(exps): 1}


def _principal_check(form, t, n, bound=None, e=None):
    """Profile of a principal witness against catalecticant ranks."""
    e = e if e is not None else C.degree(t)

    def check(w):
        D = C.degree(form) + 1
        want = C.principal_profile(form, t, n, D)
        C.require(list(w.profile.values) == want,
                  f"profile {list(w.profile.values)}, ranks give {want}")
        C.require(w.bound == -(-sum(want) // e), "bound is not ceil(sum/e)")
        C.require(w.validity == "unconditional", w.validity)
        if bound is not None:
            C.require(w.bound == bound, f"bound {w.bound}, expected {bound}")
    return check


def _monomial(ap, rng, exps, e):
    n = len(exps)
    names = pick_names(rng, n)
    form = {tuple(exps): 1}
    f = make_poly(ap, names, form)
    rank = C.closed_monomial_rank(exps)
    pivot = exps.index(min(exps))
    witness = _principal_check(form, _unit(n, pivot, e), n, bound=rank)

    def check(cert):
        C.require(cert.status == "cited-upper", cert.status)
        C.require(cert.rank == rank, f"rank {cert.rank}, expected {rank}")
        witness(cert.lower)

    return Item(f"monomial {exps} e={e}",
                lambda: ap.families.monomial_certificate(
                    f, e, solve_points=False), check)


def _xa_sum_b(ap, rng, a, b, n):
    s = rng.randrange(1000)
    form = {}
    for i in range(1, n + 1):
        exps = [0] * (n + 1)
        exps[0], exps[i] = a, b
        form[tuple(exps)] = 1
    x0 = _unit(n + 1, 0)

    def check(res):
        prof = stripped(res.lower.profile.values)
        if n == 2 and a + 1 <= b:
            C.require(prof == (1,) + (2,) * (b - 1) + (1,), f"profile {prof}")
            C.require(res.rank == 2 * b and res.lower.bound == 2 * b,
                      "n = 2 rank is not 2b")
            _principal_check(form, x0, n + 1)(res.lower)
        elif a + 1 >= b:
            C.require(prof == (1,) + (n,) * a + (n - 1,), f"profile {prof}")
            C.require(res.rank == (a + 1) * n == res.lower.bound,
                      "rank is not (a+1)n")
            C.require(res.lower.validity == "generic-t", res.lower.validity)
        else:
            low = b * n - n + 2
            C.require(prof == (1,) + (n,) * (b - 1) + (1,), f"profile {prof}")
            C.require(res.lower.bound == low, "bound is not bn-n+2")
            C.require(res.interval == (low + 1, b * n), "interval")
            C.require(res.rank == (3 * b if n == 3 else None), "open rank")
            _principal_check(form, x0, n + 1)(res.lower)
        known = res.rank if res.rank is not None else res.interval[1]
        C.require(res.lower.bound <= known, "bound above the rank")

    return Item(f"xa_sum_b {a},{b},{n}",
                lambda: ap.families.xa_sum_b_rank(a, b, n, seed=s), check)


def _vandermonde(ap, n):
    form = vandermonde_form(n)
    rank = math.factorial(n - 1)
    witness = _principal_check(form, _unit(n, 0), n, bound=rank)

    def check(res):
        C.require(res.status == "cited-upper" and res.rank == rank,
                  f"V_{n}: {res.status} {res.rank}")
        witness(res.lower)

    return Item(f"vandermonde {n}",
                lambda: ap.families.vandermonde(n, solve_points=False), check)


def _lower_bound(ap, names, form, t, bound, label):
    n = len(names)
    f = make_poly(ap, names, form)
    top = make_poly(ap, names, t)
    return Item(label, lambda: ap.bounds.lower_bound(f, [top], top),
                _principal_check(form, t, n, bound=bound))


def _random_principal(ap, rng, n, d, e, terms):
    while True:
        form = random_form(rng, n, d, terms)
        t = random_form(rng, n, e, min(3, C.space_dim(n, e)))
        if C.contract(t, form):
            break
    return _lower_bound(ap, pick_names(rng, n), form, t, None,
                        f"random principal n={n} d={d} e={e}")


def _sum_of_cubes(ap, rng):
    names = pick_names(rng, 4)
    form = {(1, 3, 0, 0): 1, (1, 0, 3, 0): 1, (1, 0, 0, 3): 1}
    items = [_lower_bound(ap, names, form, _unit(4, k), want,
                          f"w(x^3+y^3+z^3) colon by {'WXYZ'[k]}")
             for k, want in enumerate((8, 2, 2, 2))]
    f = make_poly(ap, names, form)
    sums = dict(zip(names, (8, 2, 2, 2)))

    def check(res):
        C.require(res.refuted, "rank 9 was not refuted at e = 1")
        C.require(dict(res.coordinate_sums) == sums,
                  f"coordinate sums {res.coordinate_sums}")
        C.require(res.sampled_max < 9, "a sampled t reached 9")

    items.append(Item("w(x^3+y^3+z^3) linear candidates",
                      lambda: ap.bounds.linear_candidate_analysis(f, 9),
                      check))
    return items


def build(ap, rng: random.Random, seed: int) -> list[Item]:
    items = [_monomial(ap, rng, exps, e)
             for exps, e, copies in MONOMIALS for _ in range(copies)]
    items += [_xa_sum_b(ap, rng, *abn) for abn in XASUMB]
    items += [_vandermonde(ap, n) for n in (3, 4, 5)]
    items += [_random_principal(ap, rng, n, d, e, terms)
              for n, d, e, terms, copies in RANDOM_PRINCIPAL
              for _ in range(copies)]
    items.append(_lower_bound(ap, pick_names(rng, 3), DEGREE_11, DEGREE_11_Q,
                              25, "degree-11 form colon by q"))
    items += _sum_of_cubes(ap, rng)
    rng.shuffle(items)
    return set_reps(items, HEAVY, LIGHT_REPS)
