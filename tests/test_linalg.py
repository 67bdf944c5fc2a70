import itertools
import random
from fractions import Fraction
from collections import Counter
from functools import reduce
from math import prod

import pytest
from conftest import naive_rref

from apolarity import modular
from apolarity.errors import AmbientMismatch, FieldMismatch, NotInvertible
from apolarity.fields import QQ, NumberField, cyclotomic_field
from apolarity.apolar import _stacked_rank
from apolarity.poly import monomial_basis
from apolarity.linalg import (
    Matrix,
    Subspace,
    _bareiss_step,
    _batch_rref,
    _exact_quotients,
    _peel,
    kernel,
    matrix_rank,
    rref,
    solve,
    subspace_intersect,
    subspace_sum,
)


def q_matrix(rows):
    return Matrix.from_rows(
        [[QQ.from_rational(Fraction(v)) for v in row] for row in rows],
        field=QQ, ncols=len(rows[0]) if rows else 0)


def rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 1, 2, 3, 5]))


class TestRref:
    def test_known_small_case(self):
        m = q_matrix([[0, 2, 4], [1, 1, 1], [2, 2, 2]])
        r, pivots = rref(m)
        assert pivots == (0, 1)
        got = [[e.as_fraction() for e in row] for row in r.vectors()]
        assert got == [[1, 0, -1], [0, 1, 2]]

    def test_matches_naive_oracle_on_randoms(self):
        rng = random.Random(42)
        cases = []
        for _ in range(120):
            nrows = rng.randint(0, 6)
            ncols = rng.randint(1, 6)
            rows = [[rand_fraction(rng) for _ in range(ncols)]
                    for _ in range(nrows)]
            if rng.random() < 0.4 and nrows >= 2:
                rows[-1] = [a + b for a, b in zip(rows[0], rows[1 % nrows])]
            cases.append(rows)
        # large pairwise coprime denominators, so clearing them per row
        # multiplies big integers
        big = [2**61 - 1, 10**9 + 7, 998244353, 2**31 - 1, 3**40]
        cases.append([[Fraction(rng.randint(-10**12, 10**12), big[(i + j) % 5])
                       for j in range(5)] for i in range(4)])
        for rows in cases:
            want_rows, want_pivots = naive_rref(rows)
            m = q_matrix(rows)
            got, pivots = rref(m)
            assert list(pivots) == want_pivots
            assert [[e.as_fraction() for e in row]
                    for row in got.vectors()] == want_rows

    def test_rank(self):
        assert matrix_rank(q_matrix([[1, 2], [2, 4], [0, 1]])) == 2
        assert matrix_rank(q_matrix([[0, 0], [0, 0]])) == 0

    def test_integer_rows_divide_out_the_content(self):
        # elimination starts from coprime integer rows whatever the raw
        # format, int, Fraction or mixed, so Bareiss divisors stay small
        from apolarity.linalg import _integer_rows

        rows = [[6, -4, 0, 10], [Fraction(3, 4), Fraction(-1, 2), 0, 1],
                [0, 0, 0, 0], [Fraction(7), 14, 0, 21]]
        got = _integer_rows(rows)
        assert got == [[3, -2, 0, 5], [3, -2, 0, 4], [0, 0, 0, 0],
                       [1, 2, 0, 3]]
        assert all(type(v) is int for row in got for v in row)
        assert rows[0] == [6, -4, 0, 10]

    def test_rank_of_int_rows_matches_fraction_rows(self):
        rng = random.Random(3)
        for _ in range(60):
            ncols = rng.randint(1, 6)
            rows = [[rng.randint(-3, 3) * rng.choice((1, 2, 6))
                     for _ in range(ncols)] for _ in range(rng.randint(1, 6))]
            if len(rows) >= 2:
                rows[-1] = [2 * a - 3 * b for a, b in zip(rows[0], rows[1])]
            ints = Matrix(QQ, len(rows), ncols, [list(r) for r in rows])
            assert matrix_rank(ints) == matrix_rank(q_matrix(rows))


class TestKernel:
    def test_kernel_vectors_annihilate(self):
        rng = random.Random(7)
        for _ in range(80):
            nrows = rng.randint(0, 5)
            ncols = rng.randint(1, 7)
            rows = [[rand_fraction(rng) for _ in range(ncols)]
                    for _ in range(nrows)]
            m = q_matrix(rows) if rows else Matrix.from_rows([], field=QQ, ncols=ncols)
            ker = kernel(m)
            assert ker.dim == ncols - matrix_rank(m)
            for vec in ker.vectors():
                for row in rows:
                    s = sum((Fraction(a) * b.as_fraction()
                             for a, b in zip(row, vec)), Fraction(0))
                    assert s == 0

    def test_kernel_is_canonical(self):
        rng = random.Random(11)
        for _ in range(60):
            ncols = rng.randint(1, 6)
            rows = [[rand_fraction(rng) for _ in range(ncols)]
                    for _ in range(rng.randint(1, 4))]
            ker = kernel(q_matrix(rows))
            rebuilt = Subspace.from_raw_vectors(ker.rows, ncols, QQ)
            assert rebuilt.rows == ker.rows and rebuilt.pivots == list(ker.pivots)

    def test_full_kernel_for_zero_matrix(self):
        ker = kernel(q_matrix([[0, 0, 0]]))
        assert ker.is_full() and ker == Subspace.full(3, QQ)


def oracle_cases(rng):
    """Seeded matrices over QQ as (name, raw rows, ncols): tall, wide and
    square shapes up to 25 x 40 with small, fractional and 100-bit
    entries, at random (but for the largest 100-bit shape) and of rank
    below their size by construction; zero rows and columns with repeated
    rows; and the integer evaluation rows of 21 points in P^2 at degrees 4
    to 7."""
    def entry(kind):
        if kind == "small":
            return Fraction(rng.randint(-9, 9))
        if kind == "fraction":
            return Fraction(rng.randint(-99, 99), rng.randint(1, 30))
        return Fraction(rng.getrandbits(100) - 2 ** 99)

    def random_rows(m, n, kind):
        return [[entry(kind) for _ in range(n)] for _ in range(m)]

    def low_rank(m, n, k, kind):
        left, right = random_rows(m, k, kind), random_rows(k, n, "small")
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                for row in left]

    cases = []
    for kind in ("small", "fraction", "100-bit"):
        for m, n in ((25, 12), (12, 40), (20, 20), (25, 40)):
            # a random 100-bit 25 x 40 matrix alone would double the time
            if kind != "100-bit" or n * m < 1000:
                cases.append((f"{kind} {m}x{n}", random_rows(m, n, kind), n))
            k = rng.randint(1, min(m, n) - 2)
            cases.append((f"{kind} {m}x{n} of rank <= {k}",
                          low_rank(m, n, k, kind), n))
    rows = low_rank(18, 30, 9, "fraction")
    for j in rng.sample(range(30), 5):
        for row in rows:
            row[j] = Fraction(0)
    for i in rng.sample(range(18), 4):
        rows[i] = [Fraction(0)] * 30
    rows += [list(rows[i]) for i in rng.sample(range(18), 3)]
    rng.shuffle(rows)
    cases.append(("zero rows and columns, repeated rows", rows, 30))
    points = set()
    while len(points) < 21:
        points.add(tuple(rng.randint(-9, 9) for _ in range(3)))
    points = sorted(points)
    for d in range(4, 8):
        basis = monomial_basis(3, d)
        cases.append((f"21 points in P^2 at degree {d}",
                      [[prod(c ** e for c, e in zip(p, exps))
                        for exps in basis] for p in points], len(basis)))
    return cases


def reversed_kernel(rows, ncols):
    """The canonical kernel basis from the naive RREF of the columns in
    reverse order: each free-column vector, flipped back, leads with its 1
    and vanishes at the leads of the others."""
    red, pivots = naive_rref([row[::-1] for row in rows])
    basis = []
    for f in range(ncols - 1, -1, -1):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[ncols - 1 - f] = Fraction(1)
        for row, p in zip(red, pivots):
            vec[ncols - 1 - p] = -row[f]
        basis.append(vec)
    return basis


class TestEliminationOracle:
    """rref, matrix_rank and kernel over larger seeded matrices against the
    textbook Fraction Gauss-Jordan of conftest."""

    def test_rref_rank_and_kernel_match_naive_elimination(self):
        for name, rows, ncols in oracle_cases(random.Random(18)):
            m = Matrix(QQ, len(rows), ncols, [list(r) for r in rows])
            want_rows, want_pivots = naive_rref(rows)
            got, pivots = rref(m)
            assert list(pivots) == want_pivots, name
            assert got.rows == want_rows, name
            assert matrix_rank(m) == len(want_pivots), name
            ker = kernel(m)
            assert ker.dim == ncols - len(want_pivots), name
            assert ker.rows == reversed_kernel(rows, ncols), name

    def test_kernel_over_q_zeta5(self):
        field = cyclotomic_field(5)
        mul, add, _, is_zero, _, _ = field.raw_ops()
        rng = random.Random(19)
        # a rational matrix has the rational kernel, lifted
        for name, rows, ncols in oracle_cases(rng):
            if "100-bit" in name or len(rows) * ncols > 300:
                continue
            lift = [[field.raw_rational(v) for v in row] for row in rows]
            ker = kernel(Matrix(field, len(rows), ncols, lift))
            assert ker.rows == [[field.raw_rational(v) for v in row]
                                for row in reversed_kernel(rows, ncols)], name

        # products of random m x k and k x n matrices over Q(zeta_5)
        def entry():
            return tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))

        for m, n, k in ((8, 12, 5), (12, 7, 4), (9, 9, 9)):
            left = [[entry() for _ in range(k)] for _ in range(m)]
            right = [[entry() for _ in range(n)] for _ in range(k)]
            rows = [[reduce(add, (mul(a, b) for a, b in zip(row, col)))
                     for col in zip(*right)] for row in left]
            mat = Matrix(field, m, n, rows)
            ker = kernel(mat)
            assert ker.dim == n - matrix_rank(mat) >= n - k
            for vec in ker.rows:
                for row in rows:
                    assert is_zero(reduce(add, (mul(a, b)
                                                for a, b in zip(row, vec))))
            rebuilt = Subspace.from_raw_vectors(ker.rows, n, field)
            assert rebuilt == ker


FIELDS = (QQ, cyclotomic_field(5))


def unit_rows(field, n):
    return [[field.raw_one if j == i else field.raw_zero for j in range(n)]
            for i in range(n)]


class TestFullSubspace:
    @pytest.mark.parametrize("field", FIELDS, ids=["QQ", "Q(zeta_5)"])
    def test_full_equals_insertion_and_zero_kernel(self, field):
        n = 4
        built = Subspace.zero(n, field)
        for row in reversed(unit_rows(field, n)):
            assert built.insert_raw(row)
        zero = Matrix.from_rows([[field.zero] * n] * 2, field=field)
        for full in (Subspace.full(n, field), kernel(zero)):
            assert full == built and built == full
            assert full.is_full() and full.dim == n
            assert full.rows == unit_rows(field, n)
            assert list(full.pivots) == list(range(n))
        assert built.vectors() == [[field.one if j == i else field.zero
                                    for j in range(n)] for i in range(n)]

    @pytest.mark.parametrize("field", FIELDS, ids=["QQ", "Q(zeta_5)"])
    def test_operations_on_a_full_subspace(self, field):
        n = 4
        rng = random.Random(9)

        def vec():
            return [field.raw_rational(rng.randint(-5, 5)) for _ in range(n)]

        full = Subspace.full(n, field)
        part = Subspace.from_raw_vectors([vec(), vec()], n, field)
        assert part.dim == 2 and not part.is_full()
        # the identity rows, reduced the way a materialized basis would be
        dense = Subspace.from_raw_vectors(unit_rows(field, n), n, field)
        for v in (vec(), [field.raw_zero] * n):
            assert full.contains_raw(v) and dense.contains_raw(v)
        assert full.contains_subspace(part) and not part.contains_subspace(full)
        copied = full.copy()
        assert not copied.insert_raw(vec())
        assert copied == full == dense and copied.dim == n
        assert subspace_sum(full, part) == full == subspace_sum(part, full)
        for meet in (subspace_intersect(full, part),
                     subspace_intersect(part, full)):
            assert meet == part and meet.rows == part.rows
        assert subspace_intersect(full, full) == full

    def test_lift_of_perp_keeps_full_slices(self):
        from apolarity.apolar import perp
        from apolarity.parser import parse_poly

        field = cyclotomic_field(5)
        f = parse_poly("x0^2*x1 + x1^3 - 2*x0*x1*x2")
        lifted = perp(f).lift(field)
        top = lifted.slices[-1]
        assert top.is_full() and top.field == field
        assert top.rows == unit_rows(field, top.ambient)
        assert lifted == perp(f.lift(field))

    def test_from_rows_rejects_a_foreign_entry(self):
        field = cyclotomic_field(5)
        with pytest.raises(FieldMismatch):
            Matrix.from_rows([[field.one, QQ.one]], field=field)
        with pytest.raises(FieldMismatch):
            Matrix.from_rows([[QQ.one], [field.one]])


class TestSubspaces:
    def build(self, rng, ambient, count):
        vecs = [[rand_fraction(rng) for _ in range(ambient)] for _ in range(count)]
        return Subspace.from_raw_vectors(vecs, ambient, QQ)

    def test_grassmann_dimension_formula(self):
        rng = random.Random(3)
        for _ in range(60):
            ambient = rng.randint(1, 7)
            a = self.build(rng, ambient, rng.randint(0, ambient))
            b = self.build(rng, ambient, rng.randint(0, ambient))
            s = subspace_sum(a, b)
            i = subspace_intersect(a, b)
            assert s.dim + i.dim == a.dim + b.dim
            assert s.contains_subspace(a) and s.contains_subspace(b)
            assert a.contains_subspace(i) and b.contains_subspace(i)

    def test_sum_with_unit_vectors_keeps_canonical_form(self):
        amb = 5
        a = Subspace.from_raw_vectors(
            [[1, 2, 0, 1, 0], [0, 0, 1, 3, 0]], amb, QQ)
        unit = Subspace.from_raw_vectors([[0, 0, 0, 0, 1]], amb, QQ)
        s = subspace_sum(a, unit)
        rebuilt = Subspace.from_raw_vectors(s.rows, amb, QQ)
        assert s.rows == rebuilt.rows
        assert s.dim == 3

    def test_intersection_known(self):
        # span{e0, e1} meet span{e1, e2} = span{e1}
        a = Subspace.from_raw_vectors([[1, 0, 0], [0, 1, 0]], 3, QQ)
        b = Subspace.from_raw_vectors([[0, 1, 0], [0, 0, 1]], 3, QQ)
        i = subspace_intersect(a, b)
        assert i.dim == 1
        assert [v.as_fraction() for v in i.vectors()[0]] == [0, 1, 0]

    def test_ambient_mismatch(self):
        a = Subspace.zero(3, QQ)
        b = Subspace.zero(4, QQ)
        with pytest.raises(AmbientMismatch):
            subspace_sum(a, b)

    def test_equality_is_basis_independent(self):
        a = Subspace.from_raw_vectors([[1, 1, 0], [0, 1, 1]], 3, QQ)
        b = Subspace.from_raw_vectors([[1, 2, 1], [1, 0, -1]], 3, QQ)
        assert a == b


def rand_raw(field, rng):
    coords = [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
              for _ in range(field.degree)]
    return coords[0] if field.degree == 1 else tuple(coords)


def vector_stream(field, rng, n):
    """Seeded raw vectors of length n: sparse and dense ones, unit vectors,
    zero vectors, repeats and combinations of earlier ones; every other
    stream has enough dense vectors to fill the ambient."""
    zero = field.raw_zero
    out = []
    count = rng.randint(1, 2 * n + 2)
    for _ in range(count):
        kind = rng.choice(("sparse", "dense", "unit", "zero", "repeat",
                           "combination"))
        if kind in ("repeat", "combination") and not out:
            kind = "unit"
        if kind == "sparse":
            vec = [zero] * n
            for j in rng.sample(range(n), rng.randint(1, min(2, n))):
                vec[j] = rand_raw(field, rng)
        elif kind == "dense":
            vec = [rand_raw(field, rng) for _ in range(n)]
        elif kind == "unit":
            vec = [zero] * n
            vec[rng.randrange(n)] = field.raw_one
        elif kind == "zero":
            vec = [zero] * n
        elif kind == "repeat":
            vec = list(rng.choice(out))
        else:
            a, b = rng.choice(out), rng.choice(out)
            ca, cb = (field.from_raw(rand_raw(field, rng)) for _ in range(2))
            vec = [field.to_raw(ca * field.from_raw(x) + cb * field.from_raw(y))
                   for x, y in zip(a, b)]
        out.append(vec)
    if rng.random() < 0.5:
        out += [[rand_raw(field, rng) for _ in range(n)] for _ in range(n)]
    return out


def sparse(field, vec):
    return {j: v for j, v in enumerate(vec) if v != field.raw_zero}


class TestIncrementalAgainstBatch:
    """Sparse incremental insertion against one batch elimination of the
    same vectors, which shares no reduction code with it."""

    def same(self, got, want):
        assert got.rows == want.rows
        assert list(got.pivots) == list(want.pivots)
        assert got.dim == want.dim and got.is_full() == want.is_full()
        assert got == want and want == got

    @pytest.mark.parametrize("field", FIELDS, ids=["QQ", "Q(zeta_5)"])
    def test_insert_raw_in_any_order_equals_batch(self, field):
        rng = random.Random(61 if field.degree == 1 else 62)
        for _ in range(40 if field.degree == 1 else 15):
            n = rng.randint(1, 7)
            stream = vector_stream(field, rng, n)
            batch = Subspace.from_raw_vectors(stream, n, field)
            for order in range(3):
                vecs = list(stream)
                if order:
                    rng.shuffle(vecs)
                inc = Subspace.zero(n, field)
                for k, vec in enumerate(vecs):
                    # alternate dense rows and sparse dicts; neither changes
                    arg = sparse(field, vec) if k % 2 else list(vec)
                    before, dim = repr(arg), inc.dim
                    grew = inc.insert_raw(arg)
                    assert grew == (inc.dim == dim + 1)
                    assert repr(arg) == before
                self.same(inc, batch)
                for vec in stream:
                    assert inc.contains_raw(vec)
                    assert inc.contains_raw(sparse(field, vec))
                for _ in range(3):
                    probe = [rand_raw(field, rng) if rng.random() < 0.5
                             else field.raw_zero for _ in range(n)]
                    inside = Subspace.from_raw_vectors(
                        stream + [probe], n, field).dim == batch.dim
                    assert inc.contains_raw(probe) == inside

    @pytest.mark.parametrize("field", FIELDS, ids=["QQ", "Q(zeta_5)"])
    def test_subspace_sum_equals_batch_of_both_bases(self, field):
        rng = random.Random(63 if field.degree == 1 else 64)
        for _ in range(30 if field.degree == 1 else 10):
            n = rng.randint(1, 7)
            a = Subspace.from_raw_vectors(vector_stream(field, rng, n), n, field)
            b = Subspace.from_raw_vectors(vector_stream(field, rng, n), n, field)
            want = Subspace.from_raw_vectors(a.rows + b.rows, n, field)
            self.same(subspace_sum(a, b), want)
            self.same(subspace_sum(b, a), want)
            assert want.contains_subspace(a) and want.contains_subspace(b)


def zassenhaus(a, b):
    """Oracle: RREF [[A A], [B 0]] by batch elimination and keep the right
    halves of the rows whose left half is zero."""
    field, n = a.field, a.ambient
    zero = field.raw_zero
    stacked = [row + row for row in a.rows]
    stacked += [row + [zero] * n for row in b.rows]
    if not stacked:
        return Subspace.zero(n, field)
    m, pivots = rref(Matrix(field, len(stacked), 2 * n, stacked))
    return Subspace.from_raw_vectors(
        [row[n:] for row, p in zip(m.rows, pivots) if p >= n], n, field)


def combinations(field, rng, rows, count):
    """count random combinations of the raw rows."""
    out = []
    for _ in range(count):
        vec = [field.from_raw(field.raw_zero)] * len(rows[0])
        for row in rows:
            c = field.from_raw(rand_raw(field, rng))
            vec = [v + c * field.from_raw(x) for v, x in zip(vec, row)]
        out.append([field.to_raw(v) for v in vec])
    return out


def random_rows(field, rng, n, count):
    """count raw rows of length n, all of one random density."""
    density = rng.uniform(0.3, 1)
    return [[rand_raw(field, rng) if rng.random() < density
             else field.raw_zero for _ in range(n)] for _ in range(count)]


def operand(field, rng, n, earlier, core):
    """A seeded subspace: zero, full, equal to or nested in an earlier
    operand, spanned by sparse and dense vectors, or (most often) by the
    vectors of core, which every case shares, and a few more."""
    kind = rng.choice(("core",) * 6 + ("stream", "dense", "zero", "full",
                                       "equal", "nested"))
    if kind in ("equal", "nested") and not any(s.dim for s in earlier):
        kind = "core"
    if kind == "zero":
        return Subspace.zero(n, field)
    if kind == "full":
        return Subspace.full(n, field)
    if kind == "equal":
        return rng.choice(earlier).copy()
    if kind == "nested":
        rows = rng.choice([s for s in earlier if s.dim]).rows
        vecs = combinations(field, rng, rows, rng.randint(1, len(rows)))
    elif kind == "dense":
        vecs = random_rows(field, rng, n, rng.randint(1, n))
    elif kind == "stream":
        vecs = vector_stream(field, rng, n)
    else:
        vecs = core + random_rows(field, rng, n, rng.randint(1, n - len(core)))
    return Subspace.from_raw_vectors(vecs, n, field)


def lift(s, field):
    """A rational subspace read over field, its rows lifted entrywise."""
    rows = None if s.is_full() else [
        {j: field.raw_rational(v) for j, v in row.items()}
        for row in s.sparse_rows()]
    return Subspace(field, s.ambient, rows, list(s.pivots))


def snapshot(spaces):
    return [(s.rows, list(s.pivots)) for s in spaces]


def nonzero_raw(field, rng):
    while True:
        v = rand_raw(field, rng)
        if v != field.raw_zero:
            return v


def peel_cases(field, rng):
    """Seeded sparse matrices as (name, dense raw rows, ncols), built from
    cells {(row, column): value} and then shuffled: a bidiagonal chain whose
    last row is the one singleton, so each peeled row unlocks the next; a
    staircase whose first column is the one singleton, so each peeled column
    unlocks the next; random cells with zero rows and zero columns; a dense
    block, with nothing to peel; all of these as diagonal blocks of one
    matrix with a few cells coupling them; and rows of at most one cell,
    two of them in one column and one of them empty, the shape of a
    monomial's catalecticants. Over QQ some matrices hold the int 0 for
    their zeros."""
    def chain(m):
        cells = {(k, k): nonzero_raw(field, rng) for k in range(m)}
        cells.update({(k, k + 1): nonzero_raw(field, rng)
                      for k in range(m - 1)})
        return cells, m, m

    def staircase(m):
        cells = {(k, c): nonzero_raw(field, rng)
                 for k in range(m) for c in (k, k + 1)}
        return cells, m, m + 1

    def zero_lines(m, n):
        cells = {(r, c): nonzero_raw(field, rng)
                 for r in range(1, m) for c in range(1, n)
                 if rng.random() < 0.35}
        return cells, m + 1, n + 1

    def dense(m, n):
        return ({(r, c): nonzero_raw(field, rng)
                 for r in range(m) for c in range(n)}, m, n)

    def singletons(m, n):
        c = rng.randrange(n)
        cells = {(r, c): nonzero_raw(field, rng) for r in (0, 1)}
        cells.update({(r, rng.randrange(n)): nonzero_raw(field, rng)
                      for r in range(2, m) if rng.random() < 0.7})
        return cells, m + 1, n

    parts = [("chain", chain(rng.randint(2, 6))),
             ("staircase", staircase(rng.randint(2, 6))),
             ("zero lines", zero_lines(rng.randint(1, 5), rng.randint(1, 5))),
             ("dense", dense(rng.randint(1, 4), rng.randint(1, 4)))]
    mixed, nrows, ncols = {}, 0, 0
    for _, (cells, m, n) in parts:
        mixed.update({(r + nrows, c + ncols): v for (r, c), v in cells.items()})
        nrows, ncols = nrows + m, ncols + n
    for _ in range(rng.randint(0, 3)):
        mixed[rng.randrange(nrows), rng.randrange(ncols)] = nonzero_raw(
            field, rng)
    out = []
    last = [("mixed", (mixed, nrows, ncols)),
            ("singletons", singletons(rng.randint(2, 7), rng.randint(1, 4)))]
    for name, (cells, m, n) in parts + last:
        zero = field.raw_zero
        if field.degree == 1 and rng.random() < 0.5:
            zero = 0
        rperm, cperm = rng.sample(range(m), m), rng.sample(range(n), n)
        rows = [[zero] * n for _ in range(m)]
        for (r, c), v in cells.items():
            rows[rperm[r]][cperm[c]] = v
        out.append((name, rows, n))
    return out


def unpeeled_kernel(field, rows, ncols):
    """The canonical kernel from one full elimination, no peeling: the
    free-column vectors of the RREF, brought to canonical form."""
    red, pivots = rref(Matrix(field, len(rows), ncols, rows))
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [field.raw_zero] * ncols
        vec[f] = field.raw_one
        for row, p in zip(red.rows, pivots):
            vec[p] = field.neg_raw(row[f])
        basis.append(vec)
    return Subspace.from_raw_vectors(basis, ncols, field)


class TestPeeling:
    """Singleton peeling before elimination against plain elimination of
    the whole matrix."""

    @pytest.mark.parametrize("field", FIELDS, ids=["QQ", "Q(zeta_5)"])
    def test_peeled_rank_and_kernel_equal_plain_elimination(self, field):
        rng = random.Random(16)
        seen = set()
        for _ in range(25):
            for name, rows, ncols in peel_cases(field, rng):
                m = Matrix(field, len(rows), ncols, rows)
                assert _stacked_rank(field, [sparse(field, r) for r in rows]) \
                    == matrix_rank(m), name
                assert kernel(m) == unpeeled_kernel(field, rows, ncols), name
                peeled = {columns: _peel([sparse(field, r) for r in rows],
                                         columns)
                          for columns in (False, True)}
                if name == "chain":
                    assert not peeled[False][1]
                if name == "staircase":
                    assert not peeled[False][0] and not peeled[True][1]
                if name == "singletons":
                    for pairs, core in peeled.values():
                        assert not core
                        assert sorted(pairs) == sorted(set(pairs))
                        assert len(pairs) == matrix_rank(m)
                seen.update((name, columns, bool(pairs), bool(core))
                            for columns, (pairs, core) in peeled.items())
        # each chain peels fully by rows and each staircase by columns (see
        # above); a dense block is left unpeeled, a mixed matrix in part
        assert ("dense", True, False, True) in seen
        assert ("mixed", False, True, True) in seen
        assert ("mixed", True, True, True) in seen


class TestExactQuotients:
    """The one sum check of a row's fraction-free divisions."""

    @pytest.mark.parametrize("d", [1, 2, -2, 7, -7])
    def test_an_exact_row_divides(self, d):
        qs = [5, -7, 0, 1, -1]
        assert _exact_quotients([d * q for q in qs], d) == qs

    # [1, -1] over 2 has truncated quotients [0, 0] and remainders
    # [1, -1], which sum to 0: only floor remainders, of d's sign, catch it
    @pytest.mark.parametrize("xs", [[1, -1], [-1, 1], [2, 1, -1], [3], [0, -3, 4]])
    @pytest.mark.parametrize("d", [2, -2, 4, -4])
    def test_a_non_exact_row_raises(self, xs, d):
        with pytest.raises(ArithmeticError):
            _exact_quotients(list(xs), d)

    @pytest.mark.parametrize("prev", [2, -2])
    def test_bareiss_step_raises_on_a_non_exact_row(self, prev):
        # the update piv * row - f * pivot_row is [0, 1, -1]
        with pytest.raises(ArithmeticError):
            _bareiss_step([1, 1, 0], 0, [1, 0, 1], prev)
        # a row with no entry in the pivot column is only rescaled
        with pytest.raises(ArithmeticError):
            _bareiss_step([0, 1, -1], 0, [1, 0, 1], prev)
        row = [1, 3, 0]
        _bareiss_step(row, 0, [1, 1, 2], prev)
        assert row == [0, 2 // prev, -2 // prev]


class TestIntersection:
    """subspace_intersect against the Zassenhaus elimination it replaced,
    rebuilt here on batch rref."""

    @pytest.mark.parametrize("field", FIELDS, ids=["QQ", "Q(zeta_5)"])
    def test_matches_zassenhaus_in_every_order(self, field):
        rng = random.Random(71 if field.degree == 1 else 72)
        for _ in range(150 if field.degree == 1 else 25):
            n = rng.randint(2, 7)
            core = random_rows(field, rng, n, rng.randint(1, n - 1))
            spaces = []
            for _ in range(rng.randint(2, 4)):
                spaces.append(operand(field, rng, n, spaces, core))
            before = snapshot(spaces)
            want = reduce(zassenhaus, spaces)
            for order in itertools.permutations(spaces):
                got = subspace_intersect(*order)
                assert got.rows == want.rows
                assert list(got.pivots) == list(want.pivots)
                assert got == want and got.is_full() == want.is_full()
                assert reduce(subspace_intersect, order) == want
            assert snapshot(spaces) == before

    @pytest.mark.parametrize("field", FIELDS, ids=["QQ", "Q(zeta_5)"])
    def test_large_subspaces_of_small_codimension(self, field):
        # the shape of ideal slices: few free columns, many basis rows
        rng = random.Random(73 if field.degree == 1 else 74)
        n = 12 if field.degree == 1 else 7
        for _ in range(6 if field.degree == 1 else 4):
            spaces = [Subspace.from_raw_vectors(
                [[rand_raw(field, rng) if rng.random() < 0.6
                  else field.raw_zero for _ in range(n)]
                 for _ in range(n - rng.randint(1, 3))], n, field)
                for _ in range(rng.randint(2, 3))]
            before = snapshot(spaces)
            assert subspace_intersect(*spaces) == reduce(zassenhaus, spaces)
            assert snapshot(spaces) == before

    def test_integer_route_matches_the_lifted_route(self):
        # over QQ the residuals and the recombination run on integers;
        # Q(zeta_3) keeps the route of Subspace._reduce on raw scalars, so
        # the lifted operands' meet is the lifted meet
        K = cyclotomic_field(3)
        rng = random.Random(2701)
        dens = (1, 2, 3, 5, 7, 11, 12)

        def mixed_rows(n, count):
            return [[Fraction(rng.randint(-9, 9), rng.choice(dens))
                     if rng.random() < 0.6 else 0 for _ in range(n)]
                    for _ in range(count)]

        def mixed(n, count):
            return Subspace.from_raw_vectors(mixed_rows(n, count), n, QQ)

        def check(*spaces):
            got = subspace_intersect(*spaces)
            assert lift(got, K) == subspace_intersect(
                *[lift(s, K) for s in spaces])
            return got

        seen = Counter()
        for _ in range(60):
            n = rng.randint(2, 8)
            core = mixed_rows(n, rng.randint(1, n - 1))
            spaces = []
            for _ in range(rng.randint(2, 3)):
                spaces.append(operand(QQ, rng, n, spaces, core))
            got = check(*spaces)
            seen[len(spaces)] += 1
            seen["zero meet"] += not got.dim
            seen["full or zero operand"] += any(
                s.is_full() or not s.dim for s in spaces)
        for n in (3, 6, 9):
            a = mixed(n, n // 3)
            b = subspace_sum(a, mixed(n, n // 3))
            # containment, in both orders and beside a third operand
            assert check(a, b) == a and check(b, a) == a
            assert check(b, a, Subspace.full(n, QQ)) == a
            # a trivial meet of general subspaces of complementary sizes
            c, d = mixed(n, n // 2), mixed(n, n - n // 2)
            assert check(c, d).dim == 0
            assert check(c, Subspace.zero(n, QQ), d).dim == 0
            assert check(Subspace.full(n, QQ), c) == c
        assert seen[2] and seen[3]
        assert seen["zero meet"] and seen["full or zero operand"]

    def test_result_shares_no_row_with_an_operand(self):
        a = Subspace.from_raw_vectors([[1, 2, 0], [0, 0, 1]], 3, QQ)
        for got in (subspace_intersect(a, Subspace.full(3, QQ)),
                    subspace_intersect(a, a)):
            assert got == a
            got.insert_raw([0, 1, 0])
            assert a.dim == 2 and got.is_full()

    def test_lemma52_joint_profile_equals_the_fold(self):
        from apolarity.apolar import add_principal, colon_by_ideal
        from apolarity.poly import Poly, VarSet, space_dim
        from apolarity.strassen import lemma52_hf_check

        V = VarSet(("x0", "x1", "y0", "y1", "z"))

        def var(i):
            return Poly.variable(V, i)

        def mono(exps):
            return Poly.monomial(V, exps)

        triples = [
            (mono((3, 0, 0, 0, 0)) + mono((0, 3, 0, 0, 0)),
             [var(0) - var(1)], var(0) - var(1)),
            (mono((0, 0, 2, 1, 0)), [var(3)], var(3)),
            (mono((0, 0, 0, 0, 3)), [var(4)], var(4)),
        ]
        report = lemma52_hf_check(triples)
        D = 4
        ideals = [add_principal(colon_by_ideal(f, gens, D), t)
                  for f, gens, t in triples]
        fold = []
        for s in range(D + 1):
            slices = [J.slices[s] for J in ideals]
            meet = reduce(zassenhaus, slices)
            assert reduce(subspace_intersect, slices) == meet
            fold.append(space_dim(len(V), s) - meet.dim)
        fold = tuple(fold)
        assert report.joint_values == fold
        assert report.ok and report.joint_total == sum(fold)
        assert report.expected_total == sum(report.summand_totals) - 2


class TestSolve:
    def test_consistent_system_roundtrip(self):
        rng = random.Random(5)
        for _ in range(60):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            rows = [[rand_fraction(rng) for _ in range(ncols)]
                    for _ in range(nrows)]
            x = [rand_fraction(rng) for _ in range(ncols)]
            b = [sum((r[j] * x[j] for j in range(ncols)), Fraction(0))
                 for r in rows]
            m = q_matrix(rows)
            got = solve(m, [QQ.from_rational(v) for v in b])
            assert got is not None
            for row, want in zip(rows, b):
                s = sum((a * v.as_fraction() for a, v in zip(row, got)),
                        Fraction(0))
                assert s == want

    def test_inconsistent_returns_none(self):
        m = q_matrix([[1, 0], [1, 0]])
        rhs = [QQ.from_rational(1), QQ.from_rational(2)]
        assert solve(m, rhs) is None

    def test_underdetermined_solution_verifies(self):
        m = q_matrix([[1, 1, 1]])
        got = solve(m, [QQ.from_rational(3)])
        assert got is not None
        assert sum(v.as_fraction() for v in got) == 3


class TestExtensionField:
    def field(self):
        return NumberField("z", [1, 1, 1])

    def e_matrix(self, field, rows):
        return Matrix.from_rows(
            [[field.element(v) for v in row] for row in rows],
            field=field, ncols=len(rows[0]))

    def test_kernel_over_extension(self):
        field = self.field()
        z = field.gen()
        # row (1, z): kernel spanned by (-z, 1) up to scaling
        m = self.e_matrix(field, [[[1], [0, 1]]])
        ker = kernel(m)
        assert ker.dim == 1
        v = ker.vectors()[0]
        assert v[0] + z * v[1] == field.zero

    def test_grassmann_over_extension(self):
        field = self.field()
        rng = random.Random(13)
        for _ in range(25):
            ambient = rng.randint(1, 4)

            def vec():
                return [field.element([rng.randint(-3, 3), rng.randint(-3, 3)])
                        for _ in range(ambient)]

            a = Subspace.from_vectors(
                [vec() for _ in range(rng.randint(0, ambient))], ambient, field)
            b = Subspace.from_vectors(
                [vec() for _ in range(rng.randint(0, ambient))], ambient, field)
            s = subspace_sum(a, b)
            i = subspace_intersect(a, b)
            assert s.dim + i.dim == a.dim + b.dim

    def test_solve_over_extension(self):
        field = self.field()
        z = field.gen()
        m = self.e_matrix(field, [[[0, 1], [1]]])  # z*x + y = rhs
        got = solve(m, [z * z])
        assert got is not None
        assert z * got[0] + got[1] == z * z


CONDUCTORS = (3, 4, 5, 8, 12, 15, 30)
# every degree-1 field is Q(zeta_1), whatever its linear modulus
MODULAR_FIELDS = tuple(cyclotomic_field(m) for m in CONDUCTORS) + (
    QQ, NumberField("z", [-3, 1]))


def exact_solution(field, rows, rhs):
    """Free-variables-zero solution read off the exact RREF of [M | b]."""
    n = len(rows[0])
    aug = Matrix.from_rows([row + [b] for row, b in zip(rows, rhs)],
                           field=field)
    red, pivots = rref(aug)
    if n in pivots:
        return None
    x = [field.zero] * n
    for row, p in zip(red.vectors(), pivots):
        x[p] = row[n]
    return x


def rand_element(field, rng, height=4, dens=(1,)):
    return field.element([Fraction(rng.randint(-height, height),
                                   rng.choice(dens))
                          for _ in range(field.degree)])


def mat_vec(field, rows, x):
    return [sum((a * v for a, v in zip(row, x)), field.zero) for row in rows]


def modular_answer(field, rows, rhs):
    """What the modular route alone returns for the system."""
    m = 1 if field.degree == 1 else modular.cyclotomic_index(field.minpoly)
    raw = [[field.to_raw(e) for e in row] + [field.to_raw(b)]
           for row, b in zip(rows, rhs)]
    return modular.solve_cyclotomic(modular.integer_rows(raw, field.degree),
                                    len(rows[0]), m)


class TestModularSolve:
    """solve over Q(zeta_m), Q = Q(zeta_1) included, against exact
    elimination of [M | b]."""

    def test_conductor_detection(self):
        for m in CONDUCTORS + (6, 7, 9, 56):
            assert modular.cyclotomic_index(cyclotomic_field(m).minpoly) == m
        for poly in ([-2, 0, 1], [-1, 0, 1], [1, 1, 0, 1], [2, 1, 1]):
            assert modular.cyclotomic_index(NumberField("z", poly).minpoly) \
                is None

    def test_full_column_rank_matches_exact(self):
        rng = random.Random(31)
        for field in MODULAR_FIELDS:
            for _ in range(3):
                ncols = rng.randint(1, 4)
                nrows = ncols + rng.randint(0, 2)
                rows = [[rand_element(field, rng) for _ in range(ncols)]
                        for _ in range(nrows)]
                x0 = [rand_element(field, rng) for _ in range(ncols)]
                rhs = mat_vec(field, rows, x0)
                want = exact_solution(field, rows, rhs)
                assert modular_answer(field, rows, rhs) is not modular.UNDECIDED
                assert solve(Matrix.from_rows(rows, field=field), rhs) == want
                assert want == x0

    def test_denominators(self):
        rng = random.Random(37)
        for field in MODULAR_FIELDS:
            rows = [[rand_element(field, rng, 9, (1, 2, 3, 7, 10))
                     for _ in range(3)] for _ in range(4)]
            x0 = [rand_element(field, rng, 9, (1, 4, 9, 11))
                  for _ in range(3)]
            rhs = mat_vec(field, rows, x0)
            assert modular_answer(field, rows, rhs) == [v.coords for v in x0]
            assert solve(Matrix.from_rows(rows, field=field), rhs) == x0

    def test_rank_deficient_falls_back(self):
        rng = random.Random(41)
        for field in MODULAR_FIELDS:
            z = field.gen()
            rows = [[rand_element(field, rng) for _ in range(2)]
                    for _ in range(4)]
            # third column = first + z * second: rank 2 of 3 columns
            rows = [row + [row[0] + z * row[1]] for row in rows]
            x0 = [rand_element(field, rng) for _ in range(3)]
            rhs = mat_vec(field, rows, x0)
            assert modular_answer(field, rows, rhs) is modular.UNDECIDED
            want = exact_solution(field, rows, rhs)
            assert want[2] == field.zero
            got = solve(Matrix.from_rows(rows, field=field), rhs)
            assert got == want
            assert mat_vec(field, rows, got) == rhs

    def test_inconsistent_is_none(self):
        rng = random.Random(43)
        for field in MODULAR_FIELDS:
            rows = [[rand_element(field, rng) for _ in range(2)]
                    for _ in range(4)]
            rhs = [rand_element(field, rng) for _ in range(4)]
            assert exact_solution(field, rows, rhs) is None
            assert modular_answer(field, rows, rhs) is None
            assert solve(Matrix.from_rows(rows, field=field), rhs) is None

    def test_contradiction_before_full_rank_is_none(self):
        # a repeated row with another right-hand side contradicts before
        # the columns are all pivots; every other row agrees with x0
        rng = random.Random(45)
        for field in MODULAR_FIELDS:
            rows = [[rand_element(field, rng) for _ in range(2)]
                    for _ in range(4)]
            rhs = mat_vec(field, rows, [rand_element(field, rng)
                                        for _ in range(2)])
            rows.insert(1, rows[0])
            rhs.insert(1, rhs[0] + 1)
            assert exact_solution(field, rows, rhs) is None
            assert modular_answer(field, rows, rhs) is None
            assert solve(Matrix.from_rows(rows, field=field), rhs) is None

    def test_large_heights_need_several_primes(self, monkeypatch):
        rng = random.Random(47)
        for field in (cyclotomic_field(12), *MODULAR_FIELDS[-2:]):
            rows = [[rand_element(field, rng) for _ in range(3)]
                    for _ in range(5)]
            x0 = [field.element([Fraction(rng.randint(2**40, 2**41),
                                          rng.randint(2**33, 2**34))
                                 for _ in range(field.degree)])
                  for _ in range(3)]
            rhs = mat_vec(field, rows, x0)
            with monkeypatch.context() as patch:
                assert modular_answer(field, rows, rhs) == \
                    [v.coords for v in x0]
                assert solve(Matrix.from_rows(rows, field=field), rhs) == x0
                patch.setattr(modular, "MAX_PRIMES", 1)
                assert modular_answer(field, rows, rhs) is modular.UNDECIDED
                assert solve(Matrix.from_rows(rows, field=field), rhs) == x0

    def test_reconstruction_respects_its_bound(self):
        p = 1000003
        bound = 707
        assert modular._reconstruct(3 * pow(4, -1, p) % p, p, bound) \
            == Fraction(3, 4)
        assert modular._reconstruct(p - 5 * pow(7, -1, p) % p, p, bound) \
            == Fraction(-5, 7)
        # 1/1000 needs a denominator above the bound
        assert modular._reconstruct(pow(1000, -1, p), p, bound) is None

    def test_exact_check_rejects_a_wrong_solution(self):
        rng = random.Random(59)
        field = cyclotomic_field(15)
        rows = [[rand_element(field, rng, 5, (1, 3)) for _ in range(2)]
                for _ in range(3)]
        x0 = [rand_element(field, rng, 5, (1, 2)) for _ in range(2)]
        rhs = mat_vec(field, rows, x0)
        int_rows = modular.integer_rows(
            [[e.coords for e in row] + [b.coords] for row, b in zip(rows, rhs)],
            field.degree)
        phi = [int(c) for c in field.minpoly]
        assert modular._verify(int_rows, [v.coords for v in x0], phi)
        wrong = [v.coords for v in x0]
        wrong[1] = (wrong[1][0] + Fraction(1, 2),) + wrong[1][1:]
        assert not modular._verify(int_rows, wrong, phi)

    def test_non_cyclotomic_modulus_is_exact(self):
        rng = random.Random(53)
        field = NumberField("z", [-2, 0, 1])
        rows = [[rand_element(field, rng) for _ in range(3)]
                for _ in range(4)]
        x0 = [rand_element(field, rng) for _ in range(3)]
        rhs = mat_vec(field, rows, x0)
        got = solve(Matrix.from_rows(rows, field=field), rhs)
        assert got == exact_solution(field, rows, rhs) == x0

    def test_reducible_modulus_still_raises(self):
        field = NumberField("z", [-1, 0, 1])
        z = field.gen()
        rows = [[z - 1, field.one], [field.one, z]]
        with pytest.raises(NotInvertible):
            solve(Matrix.from_rows(rows, field=field), [field.one, z])


def eliminated(rows, rhs):
    """solve over QQ by exact elimination alone: _batch_rref of [M | b],
    its solution certified by check_solution, or None."""
    n = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = _batch_rref(aug, QQ)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        x[p] = row[n]
    assert modular.check_solution(modular.integer_rows(aug, 1),
                                  [(v,) for v in x], QQ.minpoly)
    return x


class TestIntegerRoute:
    """solve over QQ, whose rows reach the modular solver as plain integer
    vectors, against exact elimination of [M | b]."""

    DENS = (1, 2, 3, 5, 7, 12)

    def draw(self, rng, nrows, ncols):
        return [[Fraction(rng.randint(-9, 9), rng.choice(self.DENS))
                 for _ in range(ncols)] for _ in range(nrows)]

    def answers(self, rows, rhs):
        """(modular answer, solve's answer, elimination's answer)."""
        aug = [row + [b] for row, b in zip(rows, rhs)]
        int_rows = modular.integer_rows(aug, 1)
        # one plain integer vector per row, b scaled with its row
        assert all(len(r) == 1 and all(type(v) is int for v in r[0])
                   for r in int_rows)
        got = solve(q_matrix(rows), [QQ.from_rational(b) for b in rhs])
        got = None if got is None else [v.as_fraction() for v in got]
        return (modular.solve_cyclotomic(int_rows, len(rows[0]), 1), got,
                eliminated(rows, rhs))

    def shapes(self):
        # square, one more row than columns, overdetermined
        return [(n, n) for n in (1, 2, 4, 6)] + \
            [(n + 1, n) for n in (1, 3, 5)] + [(9, 3), (12, 5)]

    def test_consistent_systems_match_elimination(self):
        rng = random.Random(61)
        for nrows, ncols in self.shapes():
            for zero_row in (False, True):
                rows = self.draw(rng, nrows, ncols)
                if zero_row:
                    rows.append([Fraction(0)] * ncols)
                x0 = [Fraction(rng.randint(-20, 20), rng.choice(self.DENS))
                      for _ in range(ncols)]
                rhs = [sum(a * v for a, v in zip(row, x0)) for row in rows]
                found, got, want = self.answers(rows, rhs)
                assert found is not modular.UNDECIDED
                assert [v for v, in found] == got == want == x0

    def test_inconsistent_systems_are_none(self):
        rng = random.Random(67)
        for nrows, ncols in self.shapes():
            if nrows == ncols:
                continue
            rows = self.draw(rng, nrows, ncols)
            rows.append([Fraction(0)] * ncols)
            # the zero row asks for 0 = 1/7
            rhs = [Fraction(rng.randint(-9, 9), rng.choice(self.DENS))
                   for _ in rows[:-1]] + [Fraction(1, 7)]
            found, got, want = self.answers(rows, rhs)
            assert found is None and got is None and want is None
            # a row repeated with another right-hand side, the rest agreeing
            rows = self.draw(rng, nrows, ncols)
            x0 = [Fraction(rng.randint(-9, 9), 5) for _ in range(ncols)]
            rhs = [sum(a * v for a, v in zip(row, x0)) for row in rows]
            rows.append(rows[0])
            rhs.append(rhs[0] + Fraction(1, 3))
            found, got, want = self.answers(rows, rhs)
            assert found is None and got is None and want is None

    def test_rank_deficient_systems_fall_back(self):
        rng = random.Random(71)
        for nrows, ncols in self.shapes():
            if ncols < 2:
                continue
            rows = self.draw(rng, nrows, ncols - 1)
            # the last column is the first minus 2/3 of the second
            rows = [row + [row[0] - Fraction(2, 3) * row[-1]] for row in rows]
            x0 = [Fraction(rng.randint(-9, 9), rng.choice(self.DENS))
                  for _ in range(ncols)]
            rhs = [sum(a * v for a, v in zip(row, x0)) for row in rows]
            found, got, want = self.answers(rows, rhs)
            assert found is modular.UNDECIDED
            assert got == want is not None
            assert [sum(a * v for a, v in zip(row, got))
                    for row in rows] == rhs
            # rank-deficient and inconsistent: elimination says None
            rhs[-1] += 1
            found, got, want = self.answers(rows, rhs)
            assert found is modular.UNDECIDED
            assert got is None and want is None
