"""The two exact certificates behind every upper bound.

A family's decomposition (monomial, XaSumB with b <= a, Vandermonde) comes
in closed form and is checked on exponents of roots of unity: a monomial's
and each XaSumB term's on its grid of residues, the Vandermonde one as a set
of signed permutations. The signed counting loop that once checked the
XaSumB and Vandermonde witnesses lives here as the oracle of both checks.
The decompositions of user points come from linalg.solve, which returns
only solutions that pass the integer check M x = b. Each is tested against
an independent derivation and against a deliberate fault.
"""

import io
import itertools
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from apolarity import families, linalg, modular
from apolarity.bounds import upper_bound_from_points
from apolarity.cli import run
from apolarity.families import monomial_certificate, monomial_points
from apolarity.fields import QQ, NumberField, cyclotomic, cyclotomic_field
from apolarity.linalg import Matrix, solve
from apolarity.poly import Poly, VarSet, _basis, _multinomial

V4 = VarSet(("x0", "x1", "x2", "x3"))


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def admissible_es(exps):
    a0 = min(a for a in exps if a)
    return range(1, (a0 + 1) // 2 + 1)


def assert_closed_form_matches_solve(exps, coeff):
    f = Poly.monomial(VarSet(V4.names[:len(exps)]), exps, coeff)
    solved = upper_bound_from_points(f, monomial_points(f)[0]).as_dict()
    for e in admissible_es(exps):
        cert = monomial_certificate(f, e)
        assert cert.status == "certified-equal"
        assert cert.lower.e == e
        assert cert.upper.as_dict() == solved


class TestClosedFormAgainstSolve:
    @pytest.mark.parametrize("exps,coeff", [
        ((0, 3, 1, 2), Fraction(-2, 7)),    # zero exponent, pivot third
        ((3, 1, 3), Fraction(5, 3)),        # pivot second
        ((2, 3, 3, 2), Fraction(1)),        # ties: the first least pivots
        ((4,), Fraction(-9, 2)),            # a pure power
        ((0, 1, 0, 1), Fraction(3)),        # m = 2: points +-1 over QQ
    ])
    def test_named_forms(self, exps, coeff):
        assert_closed_form_matches_solve(exps, coeff)

    def test_random_monomials(self):
        pytest.importorskip("hypothesis")
        from hypothesis import assume, given, settings, strategies as st

        @settings(max_examples=40, deadline=None, derandomize=True,
                  database=None)
        @given(exps=st.lists(st.integers(0, 4), min_size=1, max_size=4),
               num=st.integers(-9, 9).filter(bool),
               den=st.integers(1, 9))
        def check(exps, num, den):
            involved = [a for a in exps if a]
            assume(involved)
            pivot = involved.index(min(involved))
            rank = 1
            for i, a in enumerate(involved):
                if i != pivot:
                    rank *= a + 1
            assume(rank <= 24)
            assert_closed_form_matches_solve(tuple(exps), Fraction(num, den))

        check()


def xa_sum_b_form(a, b, n, pivot):
    """x_p^a*(sum of x_i^b over the n other variables), p = pivot."""
    vs = VarSet(tuple(f"x{i}" for i in range(n + 1)))
    terms = {}
    for i in range(n + 1):
        if i != pivot:
            exps = [0] * (n + 1)
            exps[pivot], exps[i] = a, b
            terms[tuple(exps)] = 1
    return Poly(vs, terms)


def assert_solve_agrees(f, upper):
    """upper_bound_from_points on the closed form's points gives its
    coefficients: the solve normalizes a point at its first nonzero
    coordinate v, which multiplies the coefficient by v^d."""
    d = f.degree()
    solved = upper_bound_from_points(f, upper.points)
    assert solved.field == upper.field
    assert solved.count == upper.count == len(upper.points)
    for p, c, q, s in zip(upper.points, upper.coefficients, solved.points,
                          solved.coefficients):
        lead = next(v for v in p if v)
        assert q == tuple(v / lead for v in p)
        assert s == c * lead ** d


class TestFamilyClosedFormsAgainstSolve:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_vandermonde(self, n):
        res = families.vandermonde(n, solve_points=True)
        assert res.status == "certified-equal"
        assert_solve_agrees(res.form, res.upper)

    def test_xa_sum_b_grid(self):
        # b < a and b = a, n = 2..4; the pivot is first for even n and at
        # a seeded later place for n = 3
        rng = random.Random(19)
        for a, b in [(2, 2), (3, 2), (3, 3)]:
            for n in (2, 3, 4):
                pivot = rng.randrange(1, n + 1) if n % 2 else 0
                f = xa_sum_b_form(a, b, n, pivot)
                res = families.analyze(f).result
                assert res.status == "certified-equal"
                assert res.upper.count == (a + 1) * n
                assert all(p[pivot] == 1 for p in res.upper.points)
                assert_solve_agrees(f, res.upper)


REVERIFICATION = ("error: internal.ArithmeticError: "
                  "decomposition failed re-verification\n")


class TestClosedFormCheck:
    def test_flipped_vandermonde_sign_raises(self, monkeypatch):
        real = families._permutation_check

        def tampered(target, m, points, weights, signs):
            return real(target, m, points, weights, [-signs[0]] + signs[1:])

        monkeypatch.setattr(families, "_permutation_check", tampered)
        with pytest.raises(ArithmeticError,
                           match="decomposition failed re-verification"):
            families.vandermonde(4, solve_points=True)
        assert cli(["rank", "(a-b)*(a-c)*(b-c)"]) == (4, "", REVERIFICATION)

    def test_shifted_xa_sum_b_weight_raises(self, monkeypatch):
        real = families._closed_form

        def tampered(*args):
            m, points, weights = real(*args)
            return m, points, [(weights[0] + 1) % m] + weights[1:]

        monkeypatch.setattr(families, "_closed_form", tampered)
        with pytest.raises(ArithmeticError,
                           match="decomposition failed re-verification"):
            families.xa_sum_b_rank(3, 2, 2)
        assert cli(["rank", "x0^2*(x1^2+x2^2)"]) == (4, "", REVERIFICATION)

    def test_tampered_weight_raises(self, monkeypatch):
        real = families._closed_form

        def tampered(*args):
            m, points, weights = real(*args)
            return m, points, [(weights[0] + 1) % m] + weights[1:]

        monkeypatch.setattr(families, "_closed_form", tampered)
        f = Poly.monomial(VarSet(("x", "y")), (1, 2))
        with pytest.raises(ArithmeticError,
                           match="decomposition failed re-verification"):
            monomial_certificate(f)
        assert cli(["rank", "x*y^2"]) == (
            4, "", "error: internal.ArithmeticError: "
                   "decomposition failed re-verification\n")

    def test_tampered_point_raises(self, monkeypatch):
        real = families._closed_form

        def tampered(*args):
            m, points, weights = real(*args)
            first = tuple((k + 1) % m for k in points[0])
            return m, [first] + points[1:], weights

        monkeypatch.setattr(families, "_closed_form", tampered)
        f = Poly.monomial(VarSet(("x", "y", "z")), (1, 2, 3))
        with pytest.raises(ArithmeticError):
            monomial_certificate(f)

    def test_solve_points_false_is_cited(self):
        f = Poly.monomial(VarSet(("x", "y")), (1, 2))
        cert = monomial_certificate(f, solve_points=False)
        assert cert.status == "cited-upper"
        assert cert.upper is None and cert.rank == 3


def signed_count_witness(f, involved, target, m, points, weights, signs):
    """F's part c*target as sum_k c_k L_k^d, checked by signed counts: the
    oracle of the grid and permutation checks.

    target maps exponents on the involved variables to +-1. L_k is zeta_m^e
    on them, e = points[k], and 0 elsewhere. The coefficient of x^b in
    sum_k s_k zeta^(w_k) L_k^d is multinomial(d; b) times
    sum_k s_k zeta^(w_k + b.e_k), a signed count per exponent class mod m
    reduced by the nonzero coefficients of Phi_m. Every degree-d b is
    visited, and the counts must be one lambda times target, or
    ArithmeticError is raised.
    """
    d = sum(next(iter(target)))
    phi = cyclotomic(m)
    deg, low = len(phi) - 1, [(t, int(c)) for t, c in enumerate(phi[:-1])
                              if c]
    cols = list(zip(*points))
    lam = lead = None
    for b in _basis(len(involved), d):
        acc = weights
        for bi, col in zip(b, cols):
            if bi:
                acc = [x + bi * y for x, y in zip(acc, col)]
        counts = [0] * m
        for x, s in zip(acc, signs):
            counts[x % m] += s
        for k in range(m - 1, deg - 1, -1):
            c = counts[k]
            if c:
                for t, p in low:
                    counts[k - deg + t] -= c * p
        sign = target.get(b)
        if sign is None:
            if any(counts[:deg]):
                raise ArithmeticError("decomposition failed re-verification")
            continue
        value = [sign * _multinomial(d, b) * x for x in counts[:deg]]
        if lam is None:
            lam, lead = value, b
        elif value != lam:
            raise ArithmeticError("decomposition failed re-verification")
    if not any(lam):
        raise ArithmeticError("decomposition failed re-verification")
    return families._exponent_witness(f, involved, m, points, weights, signs,
                                      lead, [target[lead] * x for x in lam])


def counted_witness(f, closed_form=families._closed_form):
    """The signed counting loop run on a monomial's closed-form data: the
    oracle of its grid check."""
    exps, involved, pivot = families._monomial_data(f)
    m, points, weights = closed_form(exps, involved, pivot)
    return signed_count_witness(
        f, involved, {tuple(exps[i] for i in involved): 1}, m, points,
        weights, [1] * len(points))


def witness_data(w):
    return None if w is None else (w.points, w.coefficients, w.count, w.field)


class TestGridCheckAgainstCounting:
    def test_every_small_exponent_vector(self):
        # 2 or 3 involved variables, exponents 1..4, with the pivot first,
        # in the middle or last, tied least exponents, a zero exponent in
        # any place, and seeded non-unit rational coefficients
        rng = random.Random(23)
        vs = VarSet(("x0", "x1", "x2"))
        checked = 0
        for exps in itertools.product(range(5), repeat=3):
            if sum(1 for a in exps if a) < 2:
                continue
            coeff = Fraction(rng.choice([-7, -3, -1, 2, 5]), rng.randint(1, 6))
            f = Poly.monomial(vs, exps, coeff)
            cert = monomial_certificate(f)
            assert cert.status == "certified-equal"
            assert witness_data(cert.upper) == witness_data(counted_witness(f))
            checked += 1
        assert checked == 112

    @pytest.mark.parametrize("exps,status", [
        ((1, 1, 0), "certified-equal"),    # m = 2: points +-1
        ((1, 1, 1), "certified-equal"),    # m = 2, three variables
        ((0, 3, 0), "certified-equal"),    # m = 1: a pure power
        ((2, 1, 1), "cited-upper"),        # m = 6: no zeta_6 in Q(zeta_5)
    ])
    def test_form_over_another_cyclotomic_field(self, exps, status):
        fld = cyclotomic_field(5)
        f = Poly.monomial(VarSet(("x0", "x1", "x2")), exps,
                          fld.element([2, 1]), field=fld)
        cert = monomial_certificate(f)
        assert cert.status == status
        assert witness_data(cert.upper) == witness_data(counted_witness(f))
        if cert.upper is not None:
            assert cert.upper.field == fld


def duplicated(exps, involved, pivot, m, points, weights):
    # the count stays, but one residue class of the grid goes missing
    return points[:-1] + points[:1], weights[:-1] + weights[:1]


def off_grid(exps, involved, pivot, m, points, weights):
    # a residue between two (a_i+1)-th roots, its weight still consistent
    x = next(x for x, i in enumerate(involved) if i != pivot)
    es = list(points[0])
    es[x] = (es[x] + 1) % m
    return ([tuple(es)] + points[1:],
            [(weights[0] - exps[involved[x]]) % m] + weights[1:])


def shifted_weight(exps, involved, pivot, m, points, weights):
    return points, weights[:-1] + [(weights[-1] + 1) % m]


def dropped(exps, involved, pivot, m, points, weights):
    return points[:-1], weights[:-1]


class TestGridCheckTampered:
    @pytest.mark.parametrize("tamper", [duplicated, off_grid, shifted_weight,
                                        dropped])
    def test_tampered_grid_raises(self, monkeypatch, tamper):
        real = families._closed_form

        def tampered(exps, involved, pivot):
            m, points, weights = real(exps, involved, pivot)
            return (m,) + tamper(exps, involved, pivot, m, points, weights)

        f = Poly.monomial(VarSet(("x", "y", "z")), (1, 2, 3))
        # the counting oracle refuses the same data
        with pytest.raises(ArithmeticError,
                           match="decomposition failed re-verification"):
            counted_witness(f, tampered)
        monkeypatch.setattr(families, "_closed_form", tampered)
        with pytest.raises(ArithmeticError,
                           match="decomposition failed re-verification"):
            monomial_certificate(f)
        assert cli(["rank", "x*y^2*z^3"]) == (4, "", REVERIFICATION)


def counted_xa_sum_b(f, a, b, pivot):
    """The oracle's XaSumB witness: each term x_p^a*x_i^b on its own line,
    coordinate 1 at the pivot, zeta^(-k) at x_i and weight zeta^(kb),
    k < a+1, written out by hand."""
    m = a + 1
    line = [(0, -k % m) for k in range(m)]
    weights = [k * b % m for k in range(m)]
    parts = [signed_count_witness(f, (pivot, i), {(a, b): 1}, m, line,
                                  weights, [1] * m)
             for i in range(len(f.varset)) if i != pivot]
    return (tuple(p for w in parts for p in w.points),
            tuple(c for w in parts for c in w.coefficients),
            m * len(parts), parts[0].field)


def vandermonde_data(n):
    """V_n, its coefficients +-1 by exponent, and its permutation points
    (0, s(1), ..., s(n-1)) with weight exponents 0 and signs sgn s."""
    v = families.build_vandermonde(n)
    target = {e: int(c.as_fraction()) for e, c in v.terms.items()}
    points = [(0,) + s for s in itertools.permutations(range(1, n))]
    signs = [(-1) ** sum(x > y for x, y in itertools.combinations(e, 2))
             for e in points]
    return v, target, points, [0] * len(points), signs


class TestFamilyChecksAgainstCounting:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_xa_sum_b(self, n):
        # every 2 <= b <= a <= 6, with the pivot first and not first
        for a in range(2, 7):
            for b in range(2, a + 1):
                for pivot in (0, 1 + n // 2):
                    f = xa_sum_b_form(a, b, n, pivot)
                    res = families.analyze(f).result
                    assert res.status == "certified-equal"
                    assert witness_data(res.upper) == \
                        counted_xa_sum_b(f, a, b, pivot)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_vandermonde(self, n):
        v, target, *data = vandermonde_data(n)
        counted = witness_data(signed_count_witness(v, range(n), target, n,
                                                    *data))
        lead, den = families._permutation_check(v.terms, n, *data)
        assert witness_data(families._exponent_witness(
            v, range(n), n, *data, lead, den)) == counted
        if n <= 5:
            # V_6's colon bound alone takes seconds; its witness bytes are
            # pinned by the CI step on `vandermonde 6 --solve --json`
            res = families.vandermonde(n, solve_points=True)
            assert witness_data(res.upper) == counted


def duplicated_permutation(points, weights, signs):
    # each point still valid on its own; one permutation goes missing
    return (points[:-1] + points[:1], weights[:-1] + weights[:1],
            signs[:-1] + signs[:1])


def missing_permutation(points, weights, signs):
    return points[:-1], weights[:-1], signs[:-1]


def zero_moved(points, weights, signs):
    # s(0) != 0: the first two exponents swapped, the sign flipped to match
    e = points[0]
    return ([(e[1], e[0]) + e[2:]] + points[1:], weights,
            [-signs[0]] + signs[1:])


def nonzero_weight(points, weights, signs):
    return points, [1] + weights[1:], signs


class TestPermutationCheckTampered:
    @pytest.mark.parametrize("tamper", [duplicated_permutation,
                                        missing_permutation, zero_moved,
                                        nonzero_weight])
    def test_tampered_permutations_raise(self, monkeypatch, tamper):
        real = families._permutation_check

        def tampered(target, m, points, weights, signs):
            return real(target, m, *tamper(points, weights, signs))

        # the counting oracle refuses the same data
        v, target, *data = vandermonde_data(4)
        with pytest.raises(ArithmeticError,
                           match="decomposition failed re-verification"):
            signed_count_witness(v, range(4), target, 4, *tamper(*data))
        monkeypatch.setattr(families, "_permutation_check", tampered)
        with pytest.raises(ArithmeticError,
                           match="decomposition failed re-verification"):
            families.vandermonde(4, solve_points=True)
        assert cli(["rank", "(a-b)*(a-c)*(b-c)"]) == (4, "", REVERIFICATION)


def wrapped(field, rows, rhs, x):
    """[M | b] as the integer rows check_solution reads, x as coordinate
    tuples."""
    raw = [[field.to_raw(v) for v in row] + [field.to_raw(b)]
           for row, b in zip(rows, rhs)]
    return (modular.integer_rows(raw, field.degree), [v.coords for v in x])


def system(field, entries, x0):
    rows = [[field.element(c) for c in row] for row in entries]
    x0 = [field.element(c) for c in x0]
    rhs = [sum((a * b for a, b in zip(row, x0)), field.zero) for row in rows]
    return rows, rhs, x0


class TestSolveCertificate:
    FIELDS = [
        (QQ, [[[1], [2], [0]], [[3], [-1], [Fraction(1, 2)]],
              [[0], [5], [7]], [[2], [2], [2]]], [[1], [Fraction(-2, 3)], [4]]),
        (NumberField("z", [-2, 0, 1]),
         [[[1, 1], [0, 2]], [[3, 0], [1, -1]], [[0, 1], [2, 2]]],
         [[1, Fraction(1, 2)], [-3, 1]]),
        (NumberField("z", [Fraction(-1, 2), 0, 1]),
         [[[1, 1], [0, 2]], [[3, 0], [1, -1]], [[0, 1], [2, 2]]],
         [[Fraction(2, 3), 1], [-3, 1]]),
    ]

    @pytest.mark.parametrize("field,entries,x0", FIELDS,
                             ids=["QQ", "z^2-2", "z^2-1/2"])
    def test_elimination_solutions_pass_the_check(self, field, entries, x0):
        rows, rhs, x0 = system(field, entries, x0)
        x = solve(Matrix.from_rows(rows, field=field), rhs)
        assert x == x0
        aug, sol = wrapped(field, rows, rhs, x)
        assert modular.check_solution(aug, sol, field.minpoly)
        sol[0] = (sol[0][0] + 1,) + sol[0][1:]
        assert not modular.check_solution(aug, sol, field.minpoly)

    def test_wrong_elimination_raises(self, monkeypatch):
        # full-rank systems over QQ are answered modulo primes, so the
        # faulty elimination is reached through systems that the modular
        # route hands back: a rank-deficient one, and five points for the
        # four coefficients of a binary cubic (more columns than rows)
        real = linalg._rref_q

        def wrong(rows):
            red, pivots = real(rows)
            red[0][-1] += 1
            return red, pivots

        monkeypatch.setattr(linalg, "_rref_q", wrong)
        entries, x0 = self.FIELDS[0][1:]
        deficient = [row[:2] + [[row[0][0] + row[1][0]]] for row in entries]
        rows, rhs, _ = system(QQ, deficient, x0)
        with pytest.raises(ArithmeticError, match="exact check M x = b"):
            solve(Matrix.from_rows(rows, field=QQ), rhs)
        code, out, err = cli(["ub", "x^2*y", "--points",
                              "1,1; 1,-1; 0,1; 1,2; 1,3"])
        assert (code, out) == (4, "")
        assert err == ("error: internal.ArithmeticError: "
                       "elimination failed the exact check M x = b\n")

    def test_corrupted_modular_candidate_is_never_returned(self, monkeypatch):
        # every reconstruction is off by one, so the exact check rejects
        # each candidate; solve must still answer exactly, by elimination
        real_reconstruct, real_verify = modular._reconstruct, modular._verify
        verdicts = []

        def corrupted(u, modulus, bound):
            value = real_reconstruct(u, modulus, bound)
            return None if value is None else value + 1

        def spy(int_rows, sol, phi):
            verdicts.append(real_verify(int_rows, sol, phi))
            return verdicts[-1]

        monkeypatch.setattr(modular, "_reconstruct", corrupted)
        monkeypatch.setattr(modular, "_verify", spy)
        rows, rhs, x0 = system(QQ, *self.FIELDS[0][1:])
        assert solve(Matrix.from_rows(rows, field=QQ), rhs) == x0
        assert verdicts == [False] * modular.MAX_PRIMES + [True]
        # the point (2, 1) is normalized to (1, 1/2) and solved as (2, 1)
        vs = VarSet(("x", "y"))
        ell = Poly(vs, {(1, 0): 1, (0, 1): Fraction(1, 2)})
        f = Poly(vs, {(3, 0): 2, (0, 3): Fraction(-1, 8)}) + ell * ell * ell * 3
        verdicts.clear()
        w = upper_bound_from_points(f, [(1, 0), (2, 1), (0, 1), (1, 1)])
        assert [c.as_fraction() for c in w.coefficients] == \
            [2, 3, Fraction(-1, 8), 0]
        assert verdicts == [False] * modular.MAX_PRIMES + [True]
