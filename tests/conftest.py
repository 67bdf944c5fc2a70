"""Shared test oracles, deliberately written against different algorithms
than the package uses so expected values come from an independent route."""

from fractions import Fraction

from apolarity.linalg import Matrix, Subspace
from apolarity.poly import Poly, apolar_action, monomial_basis, space_dim


def naive_rref(rows):
    """Plain Fraction Gauss-Jordan, the slow textbook way."""
    mat = [[Fraction(v) for v in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                p = i
                break
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod_poly(a, b):
    a = _trim(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while a and len(a) >= len(b):
        shift = len(a) - len(b)
        f = a[-1] / b[-1]
        quot[shift] += f
        for j in range(len(b)):
            a[shift + j] -= f * b[j]
        a = _trim(a)
    return _trim(quot), a


def _mul_poly(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _sub_poly(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else Fraction(0))
                  - (b[i] if i < len(b) else Fraction(0)) for i in range(n)])


def uni_xgcd_oracle(p, q):
    """Extended Euclid over little-endian Fraction lists: monic g and u with
    u*p + v*q = g for some v. Independent restatement for freezing inverses."""
    a, b = _trim([Fraction(c) for c in p]), _trim([Fraction(c) for c in q])
    ua, ub = [Fraction(1)], []
    while b:
        quot, rem = _divmod_poly(a, b)
        a, b = b, rem
        ua, ub = ub, _sub_poly(ua, _mul_poly(quot, ub))
    lead = a[-1]
    return [v / lead for v in a], [v / lead for v in ua]


def naive_kernel(rows, ncols):
    """Right-kernel basis via free columns of a plain RREF."""
    live = [list(r) for r in rows if any(r)]
    if not live:
        out = []
        for j in range(ncols):
            vec = [Fraction(0)] * ncols
            vec[j] = Fraction(1)
            out.append(vec)
        return out
    red, pivots = naive_rref(live)
    pivset = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivset:
            continue
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -red[r][j]
        basis.append(vec)
    return basis


def span_rref(vectors):
    """Canonical span representative used for set-level comparisons."""
    live = [list(v) for v in vectors if any(v)]
    if not live:
        return []
    red, _ = naive_rref(live)
    return red


def contraction_catalecticant(f, i):
    """Cat_i(F) as a dense Matrix over F's field, column alpha holding the
    coefficients of X^alpha o F (apolar_action), so it shares no cell code
    with apolarity.apolar; rows follow the degree d-i monomial basis."""
    n, d = len(f.varset), f.degree()
    cols = [apolar_action(Poly.monomial(f.varset, alpha), f).to_vector(d - i)
            for alpha in monomial_basis(n, i)]
    rows = [list(r) for r in zip(*cols)]
    return Matrix.from_rows(rows, field=f.field, ncols=len(cols))


def naive_minimal_generators(ideal):
    """Minimal generators by growing T_1 * I_(i-1) in the full ambient of
    each degree i, one Subspace.insert_raw per product x_k * g (multiplied
    as polynomials), then inserting the canonical basis rows of I_i in
    basis order: a row that grows the span is a generator.

    Precondition: the slices are closed under T_1 (GradedIdeal.
    verify_closure checks it; every ideal the package builds is). Without
    it a product need not lie in I_i, and the generators read off I_i's
    own coordinates may differ from these."""
    field, varset, n = ideal.field, ideal.varset, len(ideal.varset)
    xs = [Poly.variable(varset, k, field=field) for k in range(n)]

    def raw(g, i):
        return [field.to_raw(c) for c in g.to_vector(i)]

    gens = []
    for i in range(ideal.D + 1):
        grown = Subspace.zero(space_dim(n, i), field)
        for g in ideal.slice_polys(i - 1) if i else []:
            for x in xs:
                grown.insert_raw(raw(g * x, i))
        gens += [g for g in ideal.slice_polys(i)
                 if grown.insert_raw(raw(g, i))]
    return gens
