"""Exact linear algebra: canonical reduced row echelon subspaces and kernels.

Matrices and subspaces hold raw rows: raw scalars in the format NumberField
fixes (a Fraction over a degree-1 field, a coordinate tuple otherwise), so
values go from a polynomial to elimination without a FieldElement in
between. Matrix.from_rows and the vectors() views are the only FieldElement
boundaries.

Over the rationals, elimination is fraction-free on integer rows, every
division checked exact, so entries stay minors instead of exploding
fractions. One forward Bareiss pass (_echelon_q) serves rank, RREF and
kernel: the RREF back-substitutes only its free columns, in integers
scaled by the last pivot minor, and a kernel reads its vectors straight
off them. Over extensions a plain Gauss-Jordan runs on coordinate vectors.

Every subspace is stored as the unique reduced row echelon basis with pivot
1, so equal subspaces compare equal rowwise. A Matrix row is a dense list;
a Subspace stores each basis row sparsely, as a {column: raw scalar} dict
of its nonzero entries keyed by its pivot, and builds dense rows only when
.rows is read. Incremental insertion works on those sparse rows: a vector
is reduced only by the rows whose pivots lie in its support, so the
T_1-products of sparse forms (monomial ideals have one nonzero per row)
cost their support, not their ambient. Minimal generators insert them in
the coordinates of the next slice's basis instead, in a space of its
dimension (apolar.minimal_generators). A full subspace stores no rows at
all: its basis is the identity, built only when read.

Pivoting always selects the first usable column, and kernels are emitted
directly in canonical form by eliminating with the column order reversed.
A kernel (_kernel) takes its rows as {column: raw scalar} dicts, as an
annihilator assembles them, peels the rows with one nonzero cell, whose
columns every kernel vector vanishes at, and eliminates only the rest. A
Subspace keeps a superset of the columns its rows use, so an insertion
whose new pivot column no row holds skips the back-substitution scan.
An intersection A cap B_1 cap ... cap B_m costs sparse reductions of A's
rows modulo each B_j and one kernel of at most sum codim B_j rows and dim A
columns: no doubled ambient, no dense row and no second elimination.

solve is the one place that may take a modular route, over Q = Q(zeta_1)
(every degree-1 field) and Q(zeta_m), a field whose modulus is the
cyclotomic polynomial Phi_m (detected once per modulus). The system is
first solved modulo primes p = 1 (mod m), as phi(m) scalar eliminations
per prime, one over Q (see modular.py). That route answers only when
every scalar image has full column rank: the solution is then unique,
hence the same one Gauss-Jordan would return. An image
inconsistent at full column rank proves there is no solution. Rank
deficiency, or no verified solution within a fixed number of primes,
falls back to exact elimination, as does every other modulus; rref,
kernel and the subspace operations always eliminate exactly.

Every solution solve returns has passed one certificate, the exact
integer check M x = b of modular.check_solution: on the modular route it
is the acceptance test of a candidate, after exact elimination it is a
self-check that raises ArithmeticError.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Sequence

from .errors import AmbientMismatch, FieldMismatch
from .fields import QQ, FieldElement, NumberField, clear_denominators
from .modular import (UNDECIDED, check_solution, cyclotomic_index,
                      integer_rows, solve_cyclotomic)


def _elements(field: NumberField, rows) -> list[list[FieldElement]]:
    return [[field.from_raw(v) for v in row] for row in rows]


def _exact_quotients(xs: list[int], d: int) -> list[int]:
    """[x // d for x in xs], checked exact by one sum: floor remainders all
    have the sign of d, so sum(xs) == d * sum(qs) only if each is 0."""
    qs = [x // d for x in xs]
    if sum(xs) != d * sum(qs):
        raise ArithmeticError("fraction-free elimination lost exactness")
    return qs


_INT = {int}


def _integer_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    """Each row scaled to coprime integers, spanning the same lines. Rows
    of ints are only divided by their content."""
    mat: list[list[int]] = []
    for row in rows:
        ints = (list(row) if set(map(type, row)) == _INT
                else clear_denominators(row)[1])
        g = gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        mat.append(ints)
    return mat


def _bareiss_step(row: list[int], start: int, pivot_row: list[int],
                  prev: int) -> None:
    """One fraction-free update of row from column start on:
    row <- (piv * row - row[start] * pivot_row) / prev, checked exact by
    one sum (_exact_quotients). pivot_row is aligned with row[start:] and
    piv is its first entry. A row with no entry in column start is only
    rescaled. Dividing by prev = 1 needs no check, and content-1 rows (see
    _integer_rows) make that the common case."""
    f = row[start]
    piv = pivot_row[0]
    tail = row[start:] if start else row
    if prev == 1:
        if f:
            row[start:] = [piv * a - f * b for a, b in zip(tail, pivot_row)]
        elif piv != 1:
            row[start:] = [piv * a for a in tail]
    elif f:
        row[start:] = _exact_quotients(
            [piv * a - f * b for a, b in zip(tail, pivot_row)], prev)
    elif prev != piv:
        row[start:] = _exact_quotients([piv * a for a in tail], prev)


def _echelon_q(rows: list[list]):
    """Forward-only fraction-free (Bareiss) elimination over QQ.

    A pivot row leaves the matrix once the rows still in it are updated
    from its column on; nothing is reduced above a pivot. Yields each
    pivot column p_k, in increasing order, with its pivot row U_k from
    p_k on: U_k[0] = d_k is the k-th leading minor of the pivot rows, and
    U_k is d_k times row k of an echelon form. A caller that keeps no
    row, like matrix_rank, holds one pivot row at a time."""
    mat = _integer_rows(rows)
    ncols = len(mat[0]) if mat else 0
    prev = 1
    for c in range(ncols):
        p = next((i for i, row in enumerate(mat) if row[c]), None)
        if p is None:
            continue
        rest = mat.pop(p)[c:]
        for row in mat:
            _bareiss_step(row, c, rest, prev)
        prev = rest[0]
        yield c, rest
        if not mat:
            break


def _reduced_q(rows: list[list], ncols: int
               ) -> tuple[list[int], list[int], list[list[int]], int]:
    """The RREF over QQ in integers, from one forward pass and a back
    substitution in the free columns only.

    Returns (pivots, free, rs, d): the pivot columns, the other columns,
    and for each pivot row k the integer row R_k = d * RREF_k on the free
    columns to the right of p_k, from the last one down: R_k[i] sits at
    free[-1 - i]. RREF_k is 1 at p_k and 0 at the other pivot columns.
    d = d_last is the last leading minor, so R_k is integral by Cramer's
    rule; R_last = U_last and R_k = (d U_k - sum_(j>k) U_k[p_j] R_j) / d_k,
    each row's divisions checked exact at once (see _exact_quotients)."""
    echelon = list(_echelon_q(rows))
    pivots = [p for p, _ in echelon]
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    d = echelon[-1][1][0] if echelon else 1
    rs: list[list[int]] = []
    while echelon:
        p, u = echelon.pop()
        acc = [d * u[f - p] for f in reversed(free) if f > p]
        for q, r in zip(pivots[len(echelon) + 1:], reversed(rs)):
            a = u[q - p]
            if a and r:
                acc[:len(r)] = [x - a * y for x, y in zip(acc, r)]
        dk = u[0]
        rs.append(acc if dk == 1 else _exact_quotients(acc, dk))
    rs.reverse()
    return pivots, free, rs, d


def _rref_q(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Canonical RREF over QQ. Only the nonzero free entries are made
    Fractions; every other cell is the shared 0 or 1."""
    ncols = len(rows[0]) if rows else 0
    pivots, free, rs, d = _reduced_q(rows, ncols)
    zero, one = Fraction(0), Fraction(1)
    out = []
    for p, r in zip(pivots, rs):
        row = [zero] * ncols
        row[p] = one
        for f, v in zip(reversed(free), r):
            if v:
                row[f] = Fraction(v, d)
        out.append(row)
    return out, pivots


def _rref_ext(rows: list[list[tuple]], field: NumberField
              ) -> tuple[list[list[tuple]], list[int]]:
    """Canonical RREF over an extension by plain Gauss-Jordan."""
    mat = [list(row) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    is_zero = field.is_zero_coords
    mul = field.mul_coords
    sub = field.sub_coords
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if not is_zero(mat[i][c])), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = field.inv_coords(mat[r][c])
        mat[r] = [mul(inv, v) for v in mat[r]]
        piv_row = mat[r]
        for i in range(nrows):
            if i == r:
                continue
            f = mat[i][c]
            if not is_zero(f):
                mat[i] = [sub(a, mul(f, b)) for a, b in zip(mat[i], piv_row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[: len(pivots)], pivots


class Matrix:
    """Dense exact matrix over one field, held as raw rows; vectors() gives
    FieldElement rows."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: NumberField, nrows: int, ncols: int, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[FieldElement]],
                  field: NumberField | None = None, ncols: int | None = None
                  ) -> "Matrix":
        """A matrix from FieldElement rows, all over one field."""
        rows = [list(r) for r in rows]
        if rows:
            field = field or rows[0][0].field
            ncols = len(rows[0])
            for r in rows:
                if len(r) != ncols:
                    raise AmbientMismatch("ragged matrix rows")
        elif field is None or ncols is None:
            raise AmbientMismatch("an empty matrix needs explicit field and ncols")
        return cls(field, len(rows), ncols,
                   [[field.to_raw(v) for v in r] for r in rows])

    def vectors(self) -> list[list[FieldElement]]:
        return _elements(self.field, self.rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def _batch_rref(raw_rows, field: NumberField):
    if field.degree == 1:
        return _rref_q(raw_rows)
    return _rref_ext(raw_rows, field)


def rref(matrix: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form (zero rows dropped) and its pivot columns."""
    rows, pivots = _batch_rref(matrix.rows, matrix.field)
    return Matrix(matrix.field, len(rows), matrix.ncols, rows), tuple(pivots)


def matrix_rank(matrix: Matrix) -> int:
    if matrix.field.degree == 1:
        return sum(1 for _ in _echelon_q(matrix.rows))
    return len(_rref_ext(matrix.rows, matrix.field)[1])


def _sparse(vec, is_zero) -> dict:
    """A fresh {column: raw scalar} dict of the nonzero entries of a dense
    raw row or of another such dict."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {j: v for j, v in items if not is_zero(v)}


def _sub_multiple(vec: dict, f, row: dict, skip: int, ops, zero) -> None:
    """vec -= f * row in place, over the entries of row off column skip;
    ops is NumberField.raw_ops()."""
    mul, _, sub, is_zero, _, _ = ops
    for j, b in row.items():
        if j != skip:
            v = sub(vec.get(j, zero), mul(f, b))
            if is_zero(v):
                vec.pop(j, None)
            else:
                vec[j] = v


class Subspace:
    """A linear subspace held as its canonical reduced row echelon basis.

    Each basis row is stored sparsely, as a {column: raw scalar} dict of
    its nonzero entries (raw as in NumberField.to_raw), keyed by its pivot;
    pivots lists the pivot columns in increasing order. .rows builds dense
    raw rows in pivot order when read, sparse_rows() returns the stored
    dicts and vectors() FieldElement rows. A full subspace keeps no rows:
    its basis is the identity, built afresh whenever it is read. Equality
    is equality of the canonical bases.
    """

    __slots__ = ("field", "ambient", "_rows", "pivots", "_cols")

    def __init__(self, field: NumberField, ambient: int, rows, pivots):
        """rows: the sparse basis rows aligned with the increasing pivots,
        or None for the full space."""
        self.field = field
        self.ambient = ambient
        # a superset of the columns the stored rows use, built on first insert
        self._cols = None
        if rows is None or len(pivots) == ambient:
            self._rows, self.pivots = None, range(ambient)
        else:
            self._rows = dict(zip(pivots, rows))
            self.pivots = list(pivots)

    # -- constructors

    @classmethod
    def zero(cls, ambient: int, field: NumberField = QQ) -> "Subspace":
        return cls(field, ambient, [], [])

    @classmethod
    def full(cls, ambient: int, field: NumberField = QQ) -> "Subspace":
        return cls(field, ambient, None, range(ambient))

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence[FieldElement]],
                     ambient: int, field: NumberField = QQ) -> "Subspace":
        raw = []
        for vec in vectors:
            if len(vec) != ambient:
                raise AmbientMismatch("vector length does not match the ambient")
            raw.append([field.to_raw(v) for v in vec])
        return cls._from_rref(raw, ambient, field)

    @classmethod
    def from_raw_vectors(cls, raw: Sequence[Sequence], ambient: int,
                         field: NumberField = QQ) -> "Subspace":
        return cls._from_rref([list(r) for r in raw], ambient, field)

    @classmethod
    def _from_rref(cls, raw: list, ambient: int, field: NumberField):
        rows, pivots = _batch_rref(raw, field)
        is_zero = field.raw_ops()[3]
        return cls(field, ambient, [_sparse(r, is_zero) for r in rows], pivots)

    # -- views

    def sparse_rows(self) -> list[dict]:
        """The basis rows as {column: raw scalar} dicts of their nonzero
        entries, in pivot order. The stored dicts: read, do not change."""
        if self._rows is None:
            one = self.field.raw_one
            return [{i: one} for i in range(self.ambient)]
        return [self._rows[p] for p in self.pivots]

    @property
    def rows(self) -> list:
        """The basis rows as dense raw rows, in pivot order."""
        zero = self.field.raw_zero
        out = []
        for row in self.sparse_rows():
            dense = [zero] * self.ambient
            for j, v in row.items():
                dense[j] = v
            out.append(dense)
        return out

    @property
    def dim(self) -> int:
        return self.ambient if self._rows is None else len(self._rows)

    def is_full(self) -> bool:
        return self._rows is None

    def vectors(self) -> list[list[FieldElement]]:
        return _elements(self.field, self.rows)

    def copy(self) -> "Subspace":
        if self._rows is None:
            return Subspace.full(self.ambient, self.field)
        return Subspace(self.field, self.ambient,
                        [dict(r) for r in self.sparse_rows()], self.pivots)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self._rows == other._rows)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"

    # -- sparse reduction (insert_raw mutates; used while a subspace is built)

    def _reduce(self, vec: dict, ops) -> dict:
        """vec minus its part in the span, in place: zero in every pivot
        column. Basis rows vanish in each other's pivot columns, so only the
        rows whose pivots lie in vec's support are read, once each."""
        rows, zero = self._rows, self.field.raw_zero
        for p in [j for j in vec if j in rows]:
            _sub_multiple(vec, vec.pop(p), rows[p], p, ops, zero)
        return vec

    def insert_raw(self, vec) -> bool:
        """Add one raw vector, a dense row or a sparse {column: raw scalar}
        dict, keeping canonical form; True if the dim grew. vec itself is
        not changed."""
        return self._insert(_sparse(vec, self.field.raw_ops()[3]))

    def _insert(self, vec: dict) -> bool:
        """insert_raw of a {column: raw scalar} dict with no zero entry,
        which the subspace takes over: it is reduced in place."""
        rows = self._rows
        if rows is None:
            return False
        ops = self.field.raw_ops()
        mul, _, _, _, inv, _ = ops
        vec = self._reduce(vec, ops)
        if not vec:
            return False
        lead = min(vec)
        scale = inv(vec[lead])
        vec = {j: mul(scale, v) for j, v in vec.items()}
        zero = self.field.raw_zero
        if self._cols is None:
            self._cols = set().union(*rows.values())
        # a row without the column lead is left as it is
        if lead in self._cols:
            for row in rows.values():
                f = row.pop(lead, None)
                if f is not None:
                    _sub_multiple(row, f, vec, lead, ops, zero)
        self._cols.update(vec)
        rows[lead] = vec
        insort(self.pivots, lead)
        if len(rows) == self.ambient:
            self._rows, self.pivots = None, range(self.ambient)
        return True

    def contains_raw(self, vec) -> bool:
        """Whether a raw vector, dense or sparse, lies in the subspace."""
        if self._rows is None:
            return True
        ops = self.field.raw_ops()
        return not self._reduce(_sparse(vec, ops[3]), ops)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        if other._rows is None:
            return self._rows is None
        return all(self.contains_raw(row) for row in other.sparse_rows())

    def _check(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"ambient {self.ambient} vs {other.ambient}")
        if self.field != other.field:
            raise FieldMismatch("subspaces over different fields")


def _peel(rows: list[dict], columns: bool) -> tuple[list[int], list[dict]]:
    """Peel singletons off a matrix given by its rows as {column: raw
    scalar} dicts of nonzero cells, changed in place: a row with one cell
    (and, with columns, a column with one cell) is removed together with
    the column (row) through that cell, until no singleton is left. Returns
    the columns of the removed pairs and the nonempty rows left, the core.

    Each pair is a pivot of its own, so the rank is the number of pairs
    plus the rank of the core; a row with one cell forces its coordinate of
    every kernel vector to 0. With no row of two cells (a monomial's
    catalecticants) the pairs are the distinct columns, in no fixed order."""
    if max(map(len, rows), default=0) < 2:
        return list(set().union(*rows)), []
    live = {r: row for r, row in enumerate(rows) if row}
    if all(len(row) > 1 for row in live.values()) and not (
            columns and 1 in Counter(chain(*live.values())).values()):
        return [], list(live.values())
    where = defaultdict(set)
    for r, row in live.items():
        for c in row:
            where[c].add(r)
    row_todo = [r for r, row in live.items() if len(row) == 1]
    col_todo = [c for c, rs in where.items() if len(rs) == 1] if columns \
        else []
    pairs = []
    while row_todo or col_todo:
        if row_todo:
            r = row_todo.pop()
            if len(live.get(r, ())) != 1:
                continue
            c, = live[r]
        else:
            c = col_todo.pop()
            if len(where.get(c, ())) != 1:
                continue
            r, = where[c]
        pairs.append(c)
        for j in live.pop(r):
            rs = where[j]
            rs.discard(r)
            if columns and len(rs) == 1:
                col_todo.append(j)
        for s in where.pop(c):
            row = live[s]
            del row[c]
            if len(row) == 1:
                row_todo.append(s)
            elif not row:
                del live[s]
    return pairs, list(live.values())


def kernel(matrix: Matrix) -> Subspace:
    """Null space of the matrix, returned directly in canonical RREF form."""
    is_zero = matrix.field.raw_ops()[3]
    return _kernel(matrix.field,
                   [_sparse(row, is_zero) for row in matrix.rows],
                   matrix.ncols)


def _kernel(field: NumberField, rows: list[dict], ncols: int) -> Subspace:
    """Null space of the matrix with ncols columns given by its rows as
    {column: raw scalar} dicts of nonzero cells, which it consumes.

    Rows with one nonzero cell are peeled first (see _peel): the columns
    they force to 0 are dropped, and the rest, the core, is eliminated.
    Eliminating with the column order reversed makes the standard
    free-column basis canonical once the coordinates are flipped back, and
    putting the forced zeros back keeps it canonical. Over QQ each vector
    is read off the integer rows R_k = d RREF_k of _reduced_q as
    e_f - sum_k (R_k[f] / d) e_(p_k), with no Fraction RREF in between.
    """
    forced, core = _peel(rows, False)
    # the coordinates not forced, reversed: core column k is cols[k]
    forced = set(forced)
    cols = [j for j in range(ncols - 1, -1, -1) if j not in forced]
    # negs[k]: -RREF_k on the free columns right of p_k, from the last one
    # down, None at a zero
    if field.degree == 1:
        dense = [[row.get(j, 0) for j in cols] for row in core]
        pivots, free, rs, d = _reduced_q(dense, len(cols))
        negs = [[Fraction(-v, d) if v else None for v in r] for r in rs]
    else:
        zero, is_zero = field.raw_zero, field.is_zero_coords
        dense = [[row.get(j, zero) for j in cols] for row in core]
        red, pivots = _rref_ext(dense, field)
        pivot_set = set(pivots)
        free = [c for c in range(len(cols)) if c not in pivot_set]
        negs = [[None if is_zero(row[f]) else field.neg_coords(row[f])
                 for f in reversed(free) if f > p]
                for row, p in zip(red, pivots)]
    if not pivots and not forced:
        return Subspace.full(ncols, field)
    one = field.raw_one
    # the free columns from the last one down are the original columns
    # in increasing order
    basis = [{cols[f]: one} for f in reversed(free)]
    for p, neg in zip(pivots, negs):
        for vec, v in zip(basis, neg):
            if v is not None:
                vec[cols[p]] = v
    return Subspace(field, ncols, basis, [cols[f] for f in reversed(free)])


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both; canonical like every Subspace."""
    a._check(b)
    big, small = (a, b) if a.dim >= b.dim else (b, a)
    out = big.copy()
    if out.is_full():
        return out
    for row in small.sparse_rows():
        out.insert_raw(row)
        if out.is_full():
            break
    return out


def subspace_intersect(a: Subspace, b: Subspace, *more: Subspace) -> Subspace:
    """A cap B_1 cap ... cap B_m, read off the canonical basis of A, the
    smallest operand that is not full. sum lambda_i a_i lies in every B_j
    exactly when its residuals modulo the B_j, linear in lambda, vanish;
    the canonical kernel of the residuals maps to the canonical basis, as
    the combination takes the value lambda_i at a_i's pivot."""
    spaces = [a, b, *more]
    for other in spaces[1:]:
        a._check(other)
    parts = sorted((s for s in spaces if not s.is_full()), key=lambda s: s.dim)
    if not parts:
        return Subspace.full(a.ambient, a.field)
    base, field = parts[0], a.field
    ops = field.raw_ops()
    zero = field.raw_zero
    basis = base.sparse_rows()
    residuals: dict[tuple[int, int], list] = {}
    for j, other in enumerate(parts[1:]):
        for i, row in enumerate(basis):
            for c, v in other._reduce(dict(row), ops).items():
                residuals.setdefault((j, c), [zero] * len(basis))[i] = v
    if not residuals:
        return base.copy()
    lam = kernel(Matrix(field, len(residuals), len(basis),
                        list(residuals.values())))
    rows = []
    for coeffs in lam.sparse_rows():
        x: dict = {}
        for i, f in coeffs.items():
            _sub_multiple(x, field.neg_raw(f), basis[i], None, ops, zero)
        rows.append(x)
    return Subspace(field, base.ambient, rows,
                    [base.pivots[q] for q in lam.pivots])


def solve(matrix: Matrix, rhs: Sequence[FieldElement]) -> list[FieldElement] | None:
    """One exact solution of M x = rhs (free variables zero), or None.

    Over Q = Q(zeta_1) and Q(zeta_m), a system with at least as many
    rows as columns is tried modulo primes first, on its augmented rows
    scaled to integers once (modular.integer_rows: over Q one plain integer
    vector per row, one `% p` per entry). Its answer is exact: a
    solution comes back only when it is unique and passed an exact check
    of M x = rhs, and None only when a full-rank modular image proves the
    system inconsistent. In every other case, and over any other field, the
    augmented matrix is reduced by exact elimination, and its solution
    must pass the same check or ArithmeticError is raised.
    """
    field = matrix.field
    if len(rhs) != matrix.nrows:
        raise AmbientMismatch("right-hand side length does not match the rows")
    aug = [row + [field.to_raw(v)] for row, v in zip(matrix.rows, rhs)]
    n = matrix.ncols
    # each row scaled to integers once, a plain integer vector over Q: the
    # modular route and the exact check both read these rows
    int_rows = integer_rows(aug, field.degree)
    m = 1 if field.degree == 1 else cyclotomic_index(field.minpoly)
    if m is not None and 0 < n <= len(aug):
        found = solve_cyclotomic(int_rows, n, m)
        if found is not UNDECIDED:
            # coordinate tuples, which FieldElement holds over every field
            return None if found is None else [FieldElement(field, v)
                                               for v in found]
    rows, pivots = _batch_rref(aug, field) if aug else ([], [])
    if any(p == n for p in pivots):
        return None
    x = [field.raw_zero] * n
    for row, p in zip(rows, pivots):
        x[p] = row[n]
    sol = [(v,) for v in x] if field.degree == 1 else x
    if not check_solution(int_rows, sol, field.minpoly):
        raise ArithmeticError("elimination failed the exact check M x = b")
    return [field.from_raw(v) for v in x]
