import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest

from apolarity.apolar import (
    GradedIdeal,
    _catalecticant_cells,
    add_principal,
    catalecticant,
    catalecticant_rank,
    colon_by_form,
    colon_by_ideal,
    hf,
    hf_points,
    ideal_from_generators,
    koszul_ci_hf,
    minimal_generators,
    perp,
    perp_hf,
    points_ideal,
)
from apolarity.errors import (
    AmbientMismatch,
    DegreeMismatch,
    DuplicatePoint,
    EmptyGeneratorList,
    FieldMismatch,
    NonHomogeneous,
    ZeroForm,
)
from apolarity.fields import QQ, cyclotomic_field
from apolarity.linalg import (Matrix, Subspace, kernel, matrix_rank,
                              subspace_intersect)
from apolarity.poly import Poly, VarSet, apolar_action, monomial_basis, space_dim

from conftest import (naive_kernel, naive_minimal_generators, naive_rref,
                      span_rref)

V2 = VarSet(("x0", "x1"))
V3 = VarSet(("x0", "x1", "x2"))


def mono(vs, exps, c=1):
    return Poly.monomial(vs, tuple(exps), c)


def random_form(vs, degree, rng, field=QQ):
    terms = {}
    for exps in monomial_basis(len(vs), degree):
        c = rng.randint(-6, 6)
        if c:
            terms[exps] = c
    if not terms:
        terms[(degree,) + (0,) * (len(vs) - 1)] = 1
    return sum((mono(vs, e, c) for e, c in terms.items()),
               Poly.zero(vs, field))


def raw_rows(sub):
    return [list(r) for r in sub.rows]


def _sparse_form(vs, degree, rng, field, coeffs):
    """A seeded form with a few terms; over an extension every coefficient
    is c + c' * zeta."""
    basis = monomial_basis(len(vs), degree)
    terms = {}
    for exps in rng.sample(basis, min(len(basis), rng.randint(1, 6))):
        c = field.from_rational(rng.choice(coeffs))
        if not field.is_rationals():
            c = c + field.gen() * rng.choice(coeffs)
        if c:
            terms[exps] = c
    if not terms:
        terms[basis[0]] = field.one
    return Poly(vs, terms, field)


def _contraction_entry(alpha, beta):
    """X^alpha o x^beta = prod beta_k! / (beta_k - alpha_k)! x^(beta-alpha),
    zero unless alpha <= beta: from factorials, not from the package."""
    if any(a > b for a, b in zip(alpha, beta)):
        return 0
    out = 1
    for a, b in zip(alpha, beta):
        out *= factorial(b) // factorial(b - a)
    return out


def test_catalecticant_matches_contraction_oracle():
    # dense and sparse forms in 2-5 variables with fractional coefficients,
    # over QQ and Q(zeta_5): every entry is the coefficient of x^gamma in
    # x^alpha's contraction
    rng = random.Random(11)
    coeffs = (Fraction(-5, 7), Fraction(1, 3), 2, -1, Fraction(9, 4))
    forms = []
    for field in (QQ, cyclotomic_field(5)):
        forms += [random_form(V3, 4, rng).lift(field) for _ in range(2)]
        for n in (2, 3, 4, 5):
            vs = VarSet(tuple(f"x{k}" for k in range(n)))
            for _ in range(3):
                forms.append(_sparse_form(vs, rng.randint(1, 5), rng, field,
                                          coeffs))
    for f in forms:
        field = f.field
        n, d = len(f.varset), f.degree()
        for i in range(d + 1):
            cat = catalecticant(f, i)
            rows, cols = monomial_basis(n, d - i), monomial_basis(n, i)
            assert (cat.nrows, cat.ncols) == (len(rows), len(cols))
            entries = cat.vectors()
            for r, gamma in enumerate(rows):
                for j, alpha in enumerate(cols):
                    beta = tuple(a + g for a, g in zip(alpha, gamma))
                    c = f.terms.get(beta, field.zero)
                    assert entries[r][j] == c * _contraction_entry(alpha,
                                                                   beta)
            # the raw entries keep the field's raw format
            raw = field.raw_zero
            assert all(type(v) is type(raw) for row in cat.rows for v in row)


def test_catalecticant_cells_are_the_dense_matrices_scaled_by_gamma():
    # one assembly for all degrees, and for any window of them, against the
    # public dense Cat_i with row gamma scaled by gamma!; stacked forms keep
    # one block each, and a form of degree below i has none
    rng = random.Random(16)
    coeffs = (Fraction(-5, 7), Fraction(1, 3), 2, -1, Fraction(9, 4))
    for field in (QQ, cyclotomic_field(5)):
        times = field.raw_ops()[5]
        for n in (2, 3, 4, 5):
            vs = VarSet(tuple(f"x{k}" for k in range(n)))
            for _ in range(3):
                f, g = (_sparse_form(vs, rng.randint(1, 5), rng, field, coeffs)
                        for _ in range(2))
                d = f.degree()
                terms = [(e, field.to_raw(c)) for e, c in f.terms.items()]
                cells = _catalecticant_cells(field, [(d, terms)],
                                             range(d + 1))
                for i in range(d + 1):
                    gammas = monomial_basis(n, d - i)
                    want = {}
                    for r, row in enumerate(catalecticant(f, i).rows):
                        scale = prod(factorial(k) for k in gammas[r])
                        nonzero = {c: times(v, scale)
                                   for c, v in enumerate(row)
                                   if v != field.raw_zero}
                        if nonzero:
                            want[r] = nonzero
                    assert cells[i] == [want], (f, i)
                lo = rng.randint(0, d)
                hi = rng.randint(lo, d)
                assert _catalecticant_cells(field, [(d, terms)],
                                            range(lo, hi + 1)) == {
                    i: cells[i] for i in range(lo, hi + 1)}
                e = g.degree()
                g_terms = [(x, field.to_raw(c)) for x, c in g.terms.items()]
                g_cells = _catalecticant_cells(field, [(e, g_terms)],
                                               range(e + 1))
                top = max(d, e)
                stacked = _catalecticant_cells(
                    field, [(d, terms), (e, g_terms)], range(top + 1))
                assert stacked == {i: cells.get(i, []) + g_cells.get(i, [])
                                   for i in range(top + 1)}


def test_catalecticant_rank_equals_hf():
    frozen = {
        "square_sum": (mono(V2, (2, 0)) + mono(V2, (0, 2)), (1, 2, 1, 0)),
        "shifted_cube": (mono(V2, (2, 1)), (1, 2, 2, 1, 0)),
    }
    for f, expected in frozen.values():
        d = f.degree()
        profile = hf(perp(f))
        assert profile.values == expected
        # independent route: ranks of contraction matrices via the naive RREF
        for i in range(d + 1):
            rows = []
            for alpha in monomial_basis(len(f.varset), i):
                g = apolar_action(mono(f.varset, alpha), f)
                rows.append([c.as_fraction() for c in g.to_vector(d - i)])
            live = [r for r in rows if any(r)]
            rank = len(naive_rref(live)[0]) if live else 0
            assert profile.values[i] == rank


def test_single_term_ranks_are_counted():
    # rk Cat_i(c x^beta) is #{alpha <= beta : |alpha| = i}, counted with no
    # cell; the rank of the dense matrix is an independent derivation
    for beta in itertools.product(range(5), repeat=3):
        d = sum(beta)
        f = Poly(V3, {beta: Fraction(-3, 7)})
        dense = [matrix_rank(catalecticant(f, i)) for i in range(d + 1)]
        count = [sum(1 for alpha in monomial_basis(3, i)
                     if all(a <= b for a, b in zip(alpha, beta)))
                 for i in range(d + 1)]
        assert dense == count
        assert [catalecticant_rank(f, i) for i in range(d + 1)] == dense
        assert perp_hf(f).values == tuple(dense) + (0,)


def test_perp_of_triple_product_is_square_ideal():
    f = mono(V3, (1, 1, 1))
    P = perp(f)
    gens = [mono(V3, (2, 0, 0)), mono(V3, (0, 2, 0)), mono(V3, (0, 0, 2))]
    assert P == ideal_from_generators(V3, gens, P.D)
    assert P.verify_closure()
    assert hf(P).values == (1, 3, 3, 1, 0)


def test_minimal_generators_frozen():
    f = mono(V2, (2, 1))
    gens = minimal_generators(perp(f))
    assert gens == [mono(V2, (0, 2)), mono(V2, (3, 0))]


def test_minimal_generators_regenerate():
    rng = random.Random(23)
    forms = [random_form(V3, 3, rng) for _ in range(4)]
    forms.append(mono(V3, (1, 1, 1)))
    forms.append(mono(V2, (3, 2)))
    for f in forms:
        P = perp(f)
        gens = minimal_generators(P)
        assert ideal_from_generators(f.varset, gens, P.D) == P


def test_minimal_generator_counts_match_batch_ranks():
    # generators kept in degree i = dim I_i - rank of T_1 * I_(i-1), that
    # rank taken by one batch elimination of the products as polynomials
    rng = random.Random(29)
    V4 = VarSet(("x0", "x1", "x2", "x3"))
    forms = [random_form(V2, 6, rng), random_form(V3, 3, rng),
             random_form(V3, 4, rng), random_form(V4, 3, rng),
             mono(V3, (1, 2, 3)), mono(V4, (2, 1, 1, 2))]
    forms.append(forms[1] + mono(V3, (0, 0, 3)))
    for f in forms:
        P = perp(f)
        n = len(f.varset)
        per_degree = [0] * (P.D + 1)
        for g in minimal_generators(P):
            per_degree[g.degree()] += 1
        for i in range(P.D + 1):
            products = [] if i == 0 else [
                (g * Poly.variable(f.varset, k)).to_vector(i)
                for g in P.slice_polys(i - 1) for k in range(n)]
            m = Matrix.from_rows(products, field=QQ, ncols=space_dim(n, i))
            assert per_degree[i] == P.dim(i) - matrix_rank(m), (f, i)


def test_vandermonde_generator_degrees():
    from apolarity.families import build_vandermonde

    gens = minimal_generators(perp(build_vandermonde(4)))
    assert [g.degree() for g in gens] == [1, 2, 3, 4]


def _generator_oracle_ideals(rng):
    """Seeded ideals of every kind minimal_generators is given, all closed
    under T_1: annihilators over QQ and Q(zeta_5), ideals of a minimal
    generating set with one generator dropped (not Gorenstein), point
    ideals, monomial ideals and ideals with a full slice."""
    V4 = VarSet(("x0", "x1", "x2", "x3"))
    F5 = cyclotomic_field(5)
    perps = []
    for vs, d in ((V2, 5), (V3, 3), (V3, 4), (V4, 3)):
        perps.append(perp(random_form(vs, d, rng)))
        perps.append(perp(_sparse_form(vs, d, rng, QQ, (-3, -1, 1, 2, 5))))
        perps.append(perp(_sparse_form(vs, d, rng, F5, (-2, -1, 1, 3))))
    perps += [perp(_random_ext_form(V2, 4, rng, F5)),
              perp(_random_ext_form(V3, 3, rng, F5)),
              perp(random_form(V3, 3, rng), 6)]
    ideals = list(perps)
    for P in perps:
        gens = naive_minimal_generators(P)
        if len(gens) > 1:
            del gens[rng.randrange(len(gens))]
            ideals.append(ideal_from_generators(P.varset, gens, P.D))
    for vs, field in ((V3, QQ), (V4, QQ), (V3, F5)):
        z = field.gen() if not field.is_rationals() else field.one
        pts = {tuple(field.from_rational(rng.randint(-3, 3))
                     + z * rng.randint(0, 1) for _ in vs.names)
               for _ in range(rng.randint(3, 8))}
        pts = [p for p in pts if any(p)]
        try:
            ideals.append(points_ideal(sorted(pts, key=str), vs, 4, field))
        except DuplicatePoint:
            pass
    for vs in (V2, V3, V4):
        for _ in range(2):
            monos = [mono(vs, rng.choice(monomial_basis(len(vs), d)))
                     for d in (1, 2, 2, 3, 3, 3)[:rng.randint(2, 6)]]
            ideals.append(ideal_from_generators(vs, monos, 5))
    ideals.append(ideal_from_generators(
        V3, [mono(V3, e) for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2))], 6))
    ideals.append(ideal_from_generators(
        V2, [mono(V2, (0, 1)) + mono(V2, (1, 0)), mono(V2, (2, 0)),
             mono(V2, (0, 2))], 4))
    return ideals


def test_minimal_generators_match_insertion_oracle():
    # the generators, their order included, equal those of growing
    # T_1 * I_(i-1) in the full ambient one insert_raw at a time
    rng = random.Random(43)
    ideals = [I for _ in range(3) for I in _generator_oracle_ideals(rng)]
    several = full = 0
    for ideal in ideals:
        assert ideal.verify_closure()
        gens = minimal_generators(ideal)
        assert gens == naive_minimal_generators(ideal), ideal
        degrees = [g.degree() for g in gens]
        several += any(degrees.count(d) > 1 for d in degrees)
        full += any(s.is_full() and not prev.is_full()
                    for prev, s in zip(ideal.slices, ideal.slices[1:]))
    assert len(ideals) >= 100 and several >= 50 and full >= 50


def test_gorenstein_symmetry():
    rng = random.Random(5)
    for _ in range(8):
        f = random_form(V3, 4, rng)
        vals = hf(perp(f)).values
        d = f.degree()
        for i in range(d + 1):
            assert vals[i] == vals[d - i]


def _colon_block_oracle(f, t, i):
    """Degree-i slice of the classic colon {g : g*t in ann(F)} over QQ."""
    d = f.degree()
    e = t.degree()
    n = len(f.varset)
    amb_hi = space_dim(n, i + e)
    P = perp(f, d + 1 + e)
    cols = []
    for m in monomial_basis(n, i):
        prod = t * mono(f.varset, m)
        cols.append([c.as_fraction() for c in prod.to_vector(i + e)])
    for row in P.slices[i + e].rows:
        cols.append([Fraction(v) for v in row])
    k = space_dim(n, i)
    block = [[cols[c][r] for c in range(len(cols))] for r in range(amb_hi)]
    parts = [vec[:k] for vec in naive_kernel(block, len(cols))]
    return span_rref(parts)


def test_colon_by_form_matches_block_oracle():
    rng = random.Random(41)
    cases = []
    for _ in range(3):
        f = random_form(V3, 3, rng)
        cases.append((f, mono(V3, (1, 0, 0))))
        cases.append((f, mono(V3, (0, 1, 0)) + mono(V3, (0, 0, 1), -2)))
    cases.append((mono(V3, (2, 1, 0)), mono(V3, (1, 1, 0))))
    # operator annihilating the form: colon is the unit ideal
    cases.append((mono(V2, (3, 0)), mono(V2, (0, 1))))
    # deg t = deg F with t o F constant: everything except degree zero
    cases.append((mono(V2, (3, 0)), mono(V2, (3, 0))))
    for f, t in cases:
        C = colon_by_form(f, t)
        for i in range(C.D + 1):
            assert raw_rows(C.slices[i]) == _colon_block_oracle(f, t, i)


def test_colon_by_form_degenerate_shapes():
    f = mono(V2, (3, 0))
    unit = colon_by_form(f, mono(V2, (0, 1)))
    assert all(s.is_full() for s in unit.slices)
    near = colon_by_form(f, mono(V2, (3, 0)))
    assert near.slices[0].dim == 0
    assert all(s.is_full() for s in near.slices[1:])
    with pytest.raises(ZeroForm):
        colon_by_form(f, Poly.zero(V2))
    with pytest.raises(ZeroForm):
        colon_by_form(Poly.zero(V2), mono(V2, (0, 1)))


def test_colon_by_ideal_membership_and_dims():
    f = (mono(V3, (3, 0, 0)) + mono(V3, (0, 3, 0)) + mono(V3, (0, 0, 3)))
    g0 = mono(V3, (1, 0, 0))
    g1 = mono(V3, (0, 1, 0))
    C = colon_by_ideal(f, [g0, g1])
    A = colon_by_form(f, g0)
    B = colon_by_form(f, g1)
    for i in range(C.D + 1):
        for g in C.slice_polys(i):
            if i + 1 <= f.degree():
                assert apolar_action(g * g0, f).is_zero()
                assert apolar_action(g * g1, f).is_zero()
        stacked = raw_rows(A.slices[i]) + raw_rows(B.slices[i])
        rank_sum = len(span_rref(stacked))
        assert C.slices[i].dim == A.slices[i].dim + B.slices[i].dim - rank_sum


def _colon_by_intersection(f, gens, D):
    # the former definition: one colon per generator, met slice by slice
    slices = colon_by_form(f, gens[0], D).slices
    for g in gens[1:]:
        slices = [subspace_intersect(a, b)
                  for a, b in zip(slices, colon_by_form(f, g, D).slices)]
    return slices


def _random_ext_form(vs, degree, rng, field):
    z = field.gen()
    return Poly(vs, {exps: field.from_rational(rng.randint(-3, 3))
                     + z * rng.randint(-3, 3)
                     for exps in monomial_basis(len(vs), degree)}, field)


@pytest.mark.parametrize("field", [QQ, cyclotomic_field(5)],
                         ids=["QQ", "Qzeta5"])
def test_colon_by_ideal_equals_intersection_of_form_colons(field):
    rng = random.Random(59)

    def form(vs, degree):
        if field.is_rationals():
            return random_form(vs, degree, rng)
        return _random_ext_form(vs, degree, rng, field)

    cases = []
    for _ in range(8):
        d = rng.randint(2, 4)
        e = rng.randint(1, 2)
        f = form(V3, d)
        gens = [form(V3, e) for _ in range(rng.randint(2, 4))]
        cases.append((f, gens))
    # a generator that kills F: F does not involve x2
    f = form(V2, 3)
    f = Poly(V3, {exps + (0,): c for exps, c in f.terms.items()}, field)
    cases.append((f, [mono(V3, (0, 0, 1)), form(V3, 1), form(V3, 1)]))
    cases.append((f, [mono(V3, (0, 1, 1)), mono(V3, (0, 0, 2)), form(V3, 2)]))
    # deg t = deg F, so each t o F is a constant
    f = form(V3, 2)
    cases.append((f, [form(V3, 2), mono(V3, (1, 1, 0)), mono(V3, (0, 0, 2))]))
    for f, gens in cases:
        for D in (f.degree() + 1, f.degree() + 2):
            C = colon_by_ideal(f, gens, D)
            assert (C.field, C.D) == (field, D)
            assert C.slices == _colon_by_intersection(f, gens, D)


def test_colon_by_ideal_rejects_generators_over_two_fields():
    f = mono(V2, (2, 1))
    ext = Poly.variable(V2, 1, field=cyclotomic_field(5))
    with pytest.raises(FieldMismatch):
        colon_by_ideal(f, [mono(V2, (1, 0)), ext])


def test_colon_by_ideal_validation():
    f = mono(V3, (2, 1, 0))
    with pytest.raises(EmptyGeneratorList):
        colon_by_ideal(f, [])
    with pytest.raises(DegreeMismatch):
        colon_by_ideal(f, [mono(V3, (1, 0, 0)), mono(V3, (0, 2, 0))])
    with pytest.raises(ZeroForm):
        colon_by_ideal(f, [Poly.zero(V3)])
    with pytest.raises(DegreeMismatch):
        colon_by_ideal(f, [Poly.constant(V3, 2)])
    with pytest.raises(NonHomogeneous):
        colon_by_ideal(f, [mono(V3, (1, 0, 0)) + mono(V3, (2, 0, 0))])


def test_add_principal_matches_regenerated_ideal():
    rng = random.Random(97)
    ts = [
        mono(V3, (1, 0, 0)),
        mono(V3, (2, 0, 0)),
        mono(V3, (1, 1, 0)),
        mono(V3, (1, 0, 0)) + mono(V3, (0, 1, 0)),
        mono(V3, (2, 0, 0)) + mono(V3, (0, 1, 1), -3),
    ]
    F5 = cyclotomic_field(5)
    t5 = (mono(V3, (0, 0, 1)).lift(F5)
          + mono(V3, (1, 0, 0)).lift(F5).scale(F5.gen()))
    cases = [(random_form(V3, 4, rng), ts),
             (_random_ext_form(V3, 4, rng, F5), ts + [t5])]
    for f, f_ts in cases:
        J = perp(f)
        for t in f_ts:
            A = add_principal(J, t)
            B = ideal_from_generators(
                V3, minimal_generators(J) + [t.lift(f.field)], J.D)
            assert A == B
            assert A.verify_closure()
            for i in range(J.D + 1):
                assert A.slices[i].contains_subspace(J.slices[i])


def test_add_principal_validation():
    J = perp(mono(V2, (2, 1)))
    with pytest.raises(ZeroForm):
        add_principal(J, Poly.zero(V2))
    with pytest.raises(DegreeMismatch):
        add_principal(J, Poly.constant(V2, 3))
    with pytest.raises(AmbientMismatch):
        add_principal(J, mono(V3, (1, 0, 0)))


def test_degree_one_quotient_telescopes_on_points():
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    I = points_ideal(pts, V3, 5)
    base = hf(I).values
    t = (mono(V3, (1, 0, 0)) + mono(V3, (0, 1, 0), 2)
         + mono(V3, (0, 0, 1), 5))
    J = add_principal(I, t)
    vals = hf(J).values
    running = 0
    for s in range(6):
        running += vals[s]
        assert running == base[s]


def test_degree_two_quotient_sums_on_points():
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    I = points_ideal(pts, V3, 5)
    t = (mono(V3, (2, 0, 0)) + mono(V3, (0, 2, 0)) + mono(V3, (0, 0, 2)))
    J = add_principal(I, t)
    vals = hf(J).values
    for s in (3, 4, 5):
        assert sum(vals[: s + 1]) == 2 * 4


def test_points_ideal_profiles_and_errors():
    profile, I = hf_points([(1, 0, 0), (0, 1, 0), (0, 0, 1)], V3, 3)
    assert profile.values == (1, 3, 3, 3)
    assert profile.stabilized is True
    assert I.verify_closure()
    with pytest.raises(DuplicatePoint):
        points_ideal([(1, 0, 0), (2, 0, 0)], V3, 2)
    with pytest.raises(DuplicatePoint):
        points_ideal([(QQ.from_rational(2), 4, 6), (1, 2, 3)], V3, 2)
    with pytest.raises(ZeroForm):
        points_ideal([(0, 0, 0)], V3, 2)
    with pytest.raises(AmbientMismatch):
        points_ideal([(1, 0)], V3, 2)


_LENGTH = (AmbientMismatch, "point length does not match the variable count")
_ZERO = (ZeroForm, "the zero vector is not a projective point")
_REPEAT = (DuplicatePoint, "repeated projective point")


@pytest.mark.parametrize("pts,error", [
    ([(1, 2, 3), (1, 2)], _LENGTH),
    ([(0, 0, 0)], _ZERO),
    ([(1, 2, 3), (-2, -4, -6)], _REPEAT),
    ([(Fraction(1, 2), -1, 0), (-3, 6, 0)], _REPEAT),
    # the first failing point decides; within a point the length is
    # checked first, then every coordinate's type, then the zero vector
    ([(0, 0, 0), (1, 2)], _ZERO),
    ([(1, 2), (0, 0, 0)], _LENGTH),
    ([(0, 0)], _LENGTH),
    ([(1, 0, 0), (2, 0, 0), (0, 0, 0)], _REPEAT),
    ([(1, 0, 0), (0, 0, 0), (2, 0, 0)], _ZERO),
    ([(1, 0, 0), (2, 0, 0), (1, 2)], _REPEAT),
    ([(1, 2, 3), (1, "a")], _LENGTH),
    ([(1, 0.5, 0)], (TypeError, "cannot coerce 0.5 to a rational")),
    ([(0, 0.0, 0)], (TypeError, "cannot coerce 0.0 to a rational")),
])
def test_point_check_errors_and_their_order(pts, error):
    # points_ideal over Q and Q(zeta_5) and upper_bound_from_points share
    # one point check: the same class and message, in the same order
    from apolarity.bounds import upper_bound_from_points
    cls, message = error
    calls = [lambda: points_ideal(pts, V3, 2),
             lambda: points_ideal(pts, V3, 2, cyclotomic_field(5)),
             lambda: upper_bound_from_points(mono(V3, (2, 1, 0)), pts)]
    for call in calls:
        with pytest.raises(cls) as info:
            call()
        assert type(info.value) is cls and str(info.value) == message


def test_extension_coordinates_need_the_extension_field():
    # over a degree-1 field a coordinate from an extension is refused, not
    # cut to its rational part: the ideal of (1 : z) and (1 : 1) is not the
    # ideal of (1 : 0) and (1 : 1), x*y - y^2
    K = cyclotomic_field(3)
    z = K.gen()
    vs = VarSet(("x", "y"))
    pts = [(K.one, z), (K.one, K.one)]
    for call in (points_ideal, hf_points):
        with pytest.raises(FieldMismatch) as info:
            call(pts, vs, 2)
        assert str(info.value) == "point coordinate from an extension field"
        # the CLI's one error line names the class by its origin
        assert f"{info.value.origin}.{type(info.value).__name__}" \
            == "poly.FieldMismatch"
    with pytest.raises(FieldMismatch):
        points_ideal([(1, 0), (z, 1)], vs, 2)
    got = points_ideal(pts, vs, 2, K).slice_polys(2)
    assert [str(g) for g in got] == ["x^2 + (z)*x*y + (-z - 1)*y^2"]
    assert points_ideal([(1, 0), (1, 1)], vs, 2).slice_polys(2) == [
        Poly.monomial(vs, (1, 1)) - Poly.monomial(vs, (0, 2))]


def _evaluation_kernels(points, vs, D, field):
    """Slices of a point ideal as kernels of evaluation matrices built one
    FieldElement product at a time, the points taken as given (not
    normalized, not scaled to integers)."""
    out = []
    for i in range(D + 1):
        basis = monomial_basis(len(vs), i)
        rows = []
        for p in points:
            row = []
            for exps in basis:
                acc = field.one
                for v, e in zip(p, exps):
                    for _ in range(e):
                        acc = acc * v
                row.append(acc)
            rows.append(row)
        out.append(kernel(Matrix.from_rows(rows, field, len(basis))))
    return out


@pytest.mark.parametrize("field", [QQ, cyclotomic_field(5)],
                         ids=["QQ", "Qzeta5"])
def test_points_ideal_slices_equal_evaluation_kernels(field):
    # fractional, unnormalized and (over Q(zeta_5)) irrational points: the
    # slices equal the kernels of evaluation rows of the points as given
    rng = random.Random(5)
    vs = VarSet(("x0", "x1", "x2"))
    z = field.gen()
    checked = 0
    for _ in range(6):
        size = rng.randint(2, 7)
        pts = set()
        while len(pts) < size:
            p = [field.from_rational(Fraction(rng.randint(-4, 4),
                                              rng.randint(1, 5)))
                 for _ in range(3)]
            if not field.is_rationals():
                p[rng.randrange(3)] += z * rng.randint(-2, 2)
            if any(p):
                pts.add(tuple(v * field.from_rational(rng.choice((1, 3, -2)))
                              for v in p))
        pts = sorted(pts, key=str)
        try:
            ideal = points_ideal(pts, vs, 4, field)
        except DuplicatePoint:
            continue
        assert ideal.slices == _evaluation_kernels(pts, vs, 4, field)
        checked += 1
    assert checked >= 4
    # the slices are taken from degree 4 down and stop at the first zero
    # one; these sets reach each shape of that walk
    for pts, zero_slices in _special_point_sets(field):
        ideal = points_ideal(pts, vs, 4, field)
        assert ideal.slices == _evaluation_kernels(pts, vs, 4, field)
        assert [i for i in range(5) if not ideal.dim(i)] == zero_slices


def _special_point_sets(field):
    """(points in P^2, the degrees of the zero slices of their ideal) for
    sets the top-down slices must get right: 4, 6, 10 and 15 general
    points (r >= space_dim(3, i) for i up to 1, 2, 3 and 4), collinear
    points (a nonzero degree-1 slice), the three coordinate points with
    two more (singleton evaluation rows), negative leads with mixed
    denominators, and the same coordinates as rational FieldElements of
    the field with plain values mixed in."""
    F = Fraction
    rng = random.Random(27)
    general = [(F(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-9, 9),
                F(rng.randint(1, 9), rng.randint(-9, -1)))
               for _ in range(15)]
    collinear = [(a, b, a + b) for a, b in
                 ((1, 0), (F(-1, 2), 3), (2, F(5, 7)), (0, -1), (-3, -4))]
    axes = [(F(-2, 3), 0, 0), (0, 5, 0), (0, 0, F(1, 7)), (3, 0, -1),
            (1, 1, 1)]
    mixed = [(F(-2, 3), F(1, 5), F(7, 2)), (F(-1, 4), 3, F(-5, 6)),
             (0, F(-3, 7), F(2, 9)), (F(-9, 8), F(-5, 12), 1)]
    lifted = [(field.from_rational(a), b, field.from_rational(c))
              for a, b, c in mixed]
    return [(general[:4], [0, 1]), (general[:6], [0, 1, 2]),
            (general[:10], [0, 1, 2, 3]), (general, [0, 1, 2, 3, 4]),
            (collinear, [0]), (axes, [0, 1]), (mixed, [0, 1]),
            (lifted, [0, 1])]


def test_points_ideal_extension_field():
    F4 = cyclotomic_field(4)
    z = F4.gen()
    profile, I = hf_points([(F4.one, z), (F4.one, -z), (F4.one, F4.one)],
                           VarSet(("x0", "x1")), 3, F4)
    assert profile.values == (1, 2, 3, 3)
    assert profile.stabilized is True
    assert I.verify_closure()


def test_koszul_ci_hf_values():
    assert koszul_ci_hf([2, 2], 3).values == (1, 2, 1, 0)
    assert koszul_ci_hf([2, 3], 4).values == (1, 2, 2, 1, 0)
    prof = koszul_ci_hf([3, 3, 3], 8)
    assert prof.total() == 27
    assert prof.values[6] == 1
    assert prof.values[7] == prof.values[8] == 0
    vals = prof.values[:7]
    assert vals == tuple(reversed(vals))


def test_graded_ideal_validation_and_membership():
    f = mono(V2, (2, 0)) + mono(V2, (0, 2))
    P = perp(f)
    assert P.contains_poly(mono(V2, (1, 1)))
    assert P.contains_poly(mono(V2, (2, 0)) - mono(V2, (0, 2)))
    assert not P.contains_poly(mono(V2, (2, 0)))
    with pytest.raises(DegreeMismatch):
        P.contains_poly(mono(V2, (4, 0)))
    with pytest.raises(AmbientMismatch):
        GradedIdeal(V2, QQ, 2, [Subspace.zero(1, QQ)])
    bad = GradedIdeal(V2, QQ, 2, [
        Subspace.zero(1, QQ),
        Subspace.from_raw_vectors([[Fraction(1), Fraction(0)]], 2, QQ),
        Subspace.zero(3, QQ),
    ])
    assert not bad.verify_closure()


def test_perp_rejects_bad_input():
    with pytest.raises(ZeroForm):
        perp(Poly.zero(V2))
    with pytest.raises(NonHomogeneous):
        perp(mono(V2, (2, 0)) + mono(V2, (1, 0)))
    with pytest.raises(DegreeMismatch):
        perp(mono(V2, (2, 0)), D=1)


def test_lift_preserves_structure():
    F3 = cyclotomic_field(3)
    P = perp(mono(V2, (3, 0)) + mono(V2, (0, 3)))
    L = P.lift(F3)
    assert hf(L).values == hf(P).values
    assert L.field == F3
    for i in range(P.D + 1):
        for g in P.slice_polys(i):
            assert L.contains_poly(g.lift(F3))


def test_hf_profile_helpers():
    prof = hf(perp(mono(V2, (1, 1))))
    assert str(prof) == "(1, 2, 1, 0)"
    assert prof.total() == 4
    assert prof.D == 3
