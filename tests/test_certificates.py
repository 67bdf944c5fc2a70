"""The two exact certificates behind every upper bound.

A monomial's decomposition comes in closed form and is checked by integer
counts of roots of unity; every other decomposition comes from
linalg.solve, which returns only solutions that pass the integer check
M x = b. Each is tested against an independent derivation and against a
deliberate fault.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from apolarity import families, linalg, modular
from apolarity.bounds import upper_bound_from_points
from apolarity.cli import run
from apolarity.families import monomial_certificate, monomial_points
from apolarity.fields import QQ, NumberField
from apolarity.linalg import Matrix, solve
from apolarity.poly import Poly, VarSet

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


class TestClosedFormCheck:
    def test_tampered_weight_raises(self, monkeypatch):
        real = families._closed_form

        def tampered(*args):
            m, points, weights, denom = real(*args)
            return m, points, [(weights[0] + 1) % m] + weights[1:], denom

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
            m, points, weights, denom = real(*args)
            first = tuple((k + 1) % m for k in points[0])
            return m, [first] + points[1:], weights, denom

        monkeypatch.setattr(families, "_closed_form", tampered)
        f = Poly.monomial(VarSet(("x", "y", "z")), (1, 2, 3))
        with pytest.raises(ArithmeticError):
            monomial_certificate(f)

    def test_solve_points_false_is_cited(self):
        f = Poly.monomial(VarSet(("x", "y")), (1, 2))
        cert = monomial_certificate(f, solve_points=False)
        assert cert.status == "cited-upper"
        assert cert.upper is None and cert.rank == 3


def wrapped(field, rows, rhs, x):
    """[M | b] and x as the coordinate tuples check_solution reads."""
    return ([[v.coords for v in row] + [b.coords]
             for row, b in zip(rows, rhs)], [v.coords for v in x])


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
