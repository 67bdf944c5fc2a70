"""Reference arithmetic for the benchmark's correctness checks.

Nothing here imports apolarity. Forms are dicts {exponent tuple: Fraction
or int}. Ranks are taken modulo the prime P: a rank modulo P can fall below
the rank over Q but never exceed it, and with P this large a drop has
probability about 1e-17 per pivot. Decompositions over cyclotomic fields are
evaluated in complex floating point through the embedding z -> exp(2 pi i/m),
which is valid for any root of the field's modulus, and that is checked too.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations_with_replacement

P = (1 << 61) - 1


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def monomials(n: int, d: int) -> list[tuple[int, ...]]:
    if d < 0:
        return []
    out = []
    for combo in combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def space_dim(n: int, d: int) -> int:
    return math.comb(n + d - 1, d) if d >= 0 else 0


def falling(b: int, a: int) -> int:
    out = 1
    for j in range(a):
        out *= b - j
    return out


def contract(g: dict, f: dict) -> dict:
    """g acting on f by differentiation: X^a o x^b = b!/(b-a)! x^(b-a)."""
    out: dict = {}
    for a, ca in g.items():
        for b, cb in f.items():
            if any(x > y for x, y in zip(a, b)):
                continue
            scale = 1
            for x, y in zip(a, b):
                scale *= falling(y, x)
            key = tuple(y - x for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb * scale
    return {k: v for k, v in out.items() if v != 0}


def multiply(g: dict, h: dict) -> dict:
    out: dict = {}
    for a, ca in g.items():
        for b, cb in h.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def degree(f: dict) -> int:
    return max(sum(e) for e in f)


def _mod(v) -> int:
    v = Fraction(v)
    return v.numerator % P * pow(v.denominator % P, P - 2, P) % P


def rank_mod_p(rows: list[list]) -> int:
    mat = [[_mod(v) for v in row] for row in rows]
    mat = [row for row in mat if any(row)]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], P - 2, P)
        prow = [v * inv % P for v in mat[rank]]
        mat[rank] = prow
        for i in range(rank + 1, len(mat)):
            f = mat[i][c]
            if f:
                mat[i] = [(a - f * b) % P for a, b in zip(mat[i], prow)]
        rank += 1
    return rank


def cat_rank(f: dict, n: int, i: int) -> int:
    """rank of Cat_i(f): T_i -> S_(d-i), computed on the smaller side.

    Cat_i and Cat_(d-i) differ by a transpose and diagonal scalings, so
    their ranks agree.
    """
    if not f:
        return 0
    d = degree(f)
    if i < 0 or i > d:
        return 0
    if space_dim(n, i) > space_dim(n, d - i):
        i = d - i
    rows_basis = monomials(n, d - i)
    index = {m: j for j, m in enumerate(rows_basis)}
    cols = []
    for alpha in monomials(n, i):
        image = contract({alpha: 1}, f)
        col = [0] * len(rows_basis)
        for k, v in image.items():
            col[index[k]] = v
        cols.append(col)
    return rank_mod_p(cols)


def hf_of_perp(f: dict, n: int, D: int) -> list[int]:
    """HF(T/F^perp, i) = rk Cat_i(F) for i = 0..D."""
    return [cat_rank(f, n, i) for i in range(D + 1)]


def principal_profile(f: dict, t: dict, n: int, D: int) -> list[int]:
    """HF(T/((F^perp : t) + (t)), i) = rk Cat_i(t o F) - rk Cat_(i-e)(t^2 o F)."""
    e = degree(t)
    g = contract(t, f)
    g2 = contract(t, g)
    return [cat_rank(g, n, i) - cat_rank(g2, n, i - e) for i in range(D + 1)]


def closed_monomial_rank(exps) -> int:
    """prod(a_i + 1) over the positive exponents other than one least one."""
    pos = sorted(a for a in exps if a > 0)
    return math.prod(a + 1 for a in pos[1:])


def power_of_linear(coeffs, d: int) -> dict:
    """(c_0 x_0 + ... + c_(n-1) x_(n-1))^d by multinomials, exact."""
    n = len(coeffs)
    out = {}
    for exps in monomials(n, d):
        c = Fraction(math.factorial(d))
        for a, e in zip(coeffs, exps):
            c = c / math.factorial(e) * Fraction(a) ** e
        if c:
            out[exps] = c
    return out


def add_forms(*forms) -> dict:
    out: dict = {}
    for f in forms:
        for k, v in f.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v != 0}


def scale(f: dict, c) -> dict:
    return {k: v * c for k, v in f.items()}


def evaluate(f: dict, point) -> complex:
    total = 0
    for exps, c in f.items():
        term = complex(c)
        for x, e in zip(point, exps):
            if e:
                term *= x ** e
        total += term
    return total


def evaluate_exact(f: dict, point) -> Fraction:
    total = Fraction(0)
    for exps, c in f.items():
        term = Fraction(c)
        for x, e in zip(point, exps):
            if e:
                term *= Fraction(x) ** e
        total += term
    return total


def embed(coords, zeta: complex) -> complex:
    return sum(float(c) * zeta ** k for k, c in enumerate(coords))


def check_decomposition(form: dict, points, coefficients, m: int, rng,
                        trials: int = 4) -> None:
    """F(x) = sum_i c_i (p_i . x)^d at seeded real points, in complex floats.

    points and coefficients are coordinate tuples in the power basis of
    Q[z]/(modulus); modulus is checked to vanish at zeta = exp(2 pi i/m).
    """
    zeta = cmath.exp(2j * math.pi / m)
    d = degree(form)
    n = len(next(iter(form)))
    pts = [[embed(c, zeta) for c in p] for p in points]
    cs = [embed(c, zeta) for c in coefficients]
    for _ in range(trials):
        x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        want = evaluate(form, x)
        got = 0j
        scale_sum = abs(want)
        for p, c in zip(pts, cs):
            term = c * sum(a * b for a, b in zip(p, x)) ** d
            got += term
            scale_sum += abs(term)
        require(abs(got - want) <= 1e-9 * (1.0 + scale_sum),
                f"decomposition misses F by {abs(got - want):.3e}")


def check_modulus(modulus, m: int) -> None:
    zeta = cmath.exp(2j * math.pi / m)
    value = sum(float(c) * zeta ** k for k, c in enumerate(modulus))
    require(abs(value) < 1e-9, f"zeta_{m} is not a root of the field modulus")
