"""Exact linear algebra: canonical reduced row echelon subspaces and kernels.

Matrices and subspaces hold raw rows: lists of raw scalars in the format
NumberField fixes (a Fraction over a degree-1 field, a coordinate tuple
otherwise), so values go from a polynomial to elimination without a
FieldElement in between. Matrix.from_rows and the vectors() views are the
only FieldElement boundaries.

Over the rationals, batch elimination is fraction-free (Bareiss-Jordan on
integer rows, exact divisions checked), which keeps intermediate entries as
minors instead of exploding fractions. Over extensions a plain Gauss-Jordan
runs on coordinate vectors. Every subspace is stored as the unique reduced
row echelon basis with pivot 1, so equal subspaces compare equal rowwise.
A full subspace stores no rows at all: its basis is the identity, which is
built only when a caller reads .rows.

Pivoting always selects the first usable column, and kernels are emitted
directly in canonical form by eliminating with the column order reversed.

solve is the one place that may take a modular route. When the field's
modulus is a cyclotomic polynomial Phi_m with m >= 3 (detected once per
modulus), the system is first solved modulo primes p = 1 (mod m), as
phi(m) scalar eliminations per prime (see modular.py). That route answers
only when every scalar image has full column rank: the solution is then
unique, hence the same one Gauss-Jordan would return. An image
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

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import AmbientMismatch, FieldMismatch
from .fields import QQ, FieldElement, NumberField
from .modular import (UNDECIDED, check_solution, cyclotomic_index,
                      solve_cyclotomic)


def _elements(field: NumberField, rows) -> list[list[FieldElement]]:
    return [[field.from_raw(v) for v in row] for row in rows]


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return q


def _rref_q(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Canonical RREF over QQ via integer Bareiss-Jordan elimination."""
    mat: list[list[int]] = []
    for row in rows:
        den = lcm(*(c.denominator for c in row))
        ints = [c.numerator * (den // c.denominator) for c in row]
        g = gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        mat.append(ints)
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        piv_row = mat[r]
        piv = piv_row[c]
        for i in range(nrows):
            if i == r:
                continue
            row = mat[i]
            f = row[c]
            if f:
                row[:] = [_exact_div(piv * a - f * b, prev)
                          for a, b in zip(row, piv_row)]
            elif prev != piv:
                row[:] = [_exact_div(piv * a, prev) for a in row]
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for j, c in enumerate(pivots):
        piv = mat[j][c]
        out.append([Fraction(v, piv) for v in mat[j]])
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
    return len(_batch_rref(matrix.rows, matrix.field)[1])


class Subspace:
    """A linear subspace held as its canonical reduced row echelon basis.

    Rows are raw (see NumberField.to_raw); use vectors() for FieldElement
    views. A full subspace keeps no rows: its basis is the identity, built
    afresh whenever .rows is read. Equality is rowwise equality of the
    canonical bases.
    """

    __slots__ = ("field", "ambient", "_rows", "pivots")

    def __init__(self, field: NumberField, ambient: int, rows, pivots):
        self.field = field
        self.ambient = ambient
        if len(pivots) == ambient:
            rows, pivots = None, range(ambient)
        self._rows = rows
        self.pivots = pivots

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
        rows, pivots = _batch_rref(raw, field)
        return cls(field, ambient, rows, pivots)

    @classmethod
    def from_raw_vectors(cls, raw: Sequence[Sequence], ambient: int,
                         field: NumberField = QQ) -> "Subspace":
        rows, pivots = _batch_rref([list(r) for r in raw], field)
        return cls(field, ambient, rows, pivots)

    # -- views

    @property
    def rows(self) -> list:
        if self._rows is not None:
            return self._rows
        one, zero = self.field.raw_one, self.field.raw_zero
        n = self.ambient
        return [[one if j == i else zero for j in range(n)] for i in range(n)]

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
                        [list(r) for r in self._rows], list(self.pivots))

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self._rows == other._rows)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"

    # -- reduction helpers (mutating; used while a subspace is being built)

    def _reduce_raw(self, vec: list) -> list:
        field = self.field
        if field.degree == 1:
            for row, p in zip(self._rows, self.pivots):
                f = vec[p]
                if f:
                    vec = [a - f * b for a, b in zip(vec, row)]
        else:
            mul, sub, is_zero = field.mul_coords, field.sub_coords, field.is_zero_coords
            for row, p in zip(self._rows, self.pivots):
                f = vec[p]
                if not is_zero(f):
                    vec = [sub(a, mul(f, b)) for a, b in zip(vec, row)]
        return vec

    def insert_raw(self, vec: list) -> bool:
        """Add one vector, keeping canonical form; True if the dim grew."""
        if self._rows is None:
            return False
        field = self.field
        rows = self._rows
        vec = self._reduce_raw(list(vec))
        if field.degree == 1:
            lead = next((j for j, v in enumerate(vec) if v), None)
            if lead is None:
                return False
            inv = 1 / vec[lead]
            vec = [v * inv for v in vec]
            for i, row in enumerate(rows):
                f = row[lead]
                if f:
                    rows[i] = [a - f * b for a, b in zip(row, vec)]
        else:
            is_zero = field.is_zero_coords
            lead = next((j for j, v in enumerate(vec) if not is_zero(v)), None)
            if lead is None:
                return False
            inv = field.inv_coords(vec[lead])
            mul, sub = field.mul_coords, field.sub_coords
            vec = [mul(inv, v) for v in vec]
            for i, row in enumerate(rows):
                f = row[lead]
                if not is_zero(f):
                    rows[i] = [sub(a, mul(f, b)) for a, b in zip(row, vec)]
        at = next((i for i, p in enumerate(self.pivots) if p > lead),
                  len(self.pivots))
        rows.insert(at, vec)
        self.pivots.insert(at, lead)
        if len(rows) == self.ambient:
            self._rows, self.pivots = None, range(self.ambient)
        return True

    def contains_raw(self, vec: list) -> bool:
        if self._rows is None:
            return True
        zero = self.field.raw_zero
        return all(v == zero for v in self._reduce_raw(list(vec)))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        if other._rows is None:
            return self._rows is None
        return all(self.contains_raw(row) for row in other._rows)

    def _check(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"ambient {self.ambient} vs {other.ambient}")
        if self.field != other.field:
            raise FieldMismatch("subspaces over different fields")


def kernel(matrix: Matrix) -> Subspace:
    """Null space of the matrix, returned directly in canonical RREF form.

    Eliminating with the column order reversed makes the standard
    free-column basis canonical once the coordinates are flipped back.
    """
    field = matrix.field
    n = matrix.ncols
    rows, pivots = _batch_rref([row[::-1] for row in matrix.rows], field)
    if not pivots:
        return Subspace.full(n, field)
    pivot_set = set(pivots)
    zero, one = field.raw_zero, field.raw_one
    basis = []
    basis_pivots = []
    for f in range(n - 1, -1, -1):
        if f in pivot_set:
            continue
        vec = [zero] * n
        vec[n - 1 - f] = one
        for row, p in zip(rows, pivots):
            val = row[f]
            if val != zero:
                vec[n - 1 - p] = field.neg_raw(val)
        basis.append(vec)
        basis_pivots.append(n - 1 - f)
    return Subspace(field, n, basis, basis_pivots)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both; canonical like every Subspace."""
    a._check(b)
    big, small = (a, b) if a.dim >= b.dim else (b, a)
    out = big.copy()
    if out.is_full():
        return out
    for row in small.rows:
        out.insert_raw(list(row))
        if out.is_full():
            break
    return out


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus intersection: RREF [[A A],[B 0]], read rows with zero left half."""
    a._check(b)
    if a.is_full():
        return b.copy()
    if b.is_full():
        return a.copy()
    field = a.field
    n = a.ambient
    stacked = [list(row) + list(row) for row in a.rows]
    stacked += [list(row) + [field.raw_zero] * n for row in b.rows]
    rows, pivots = _batch_rref(stacked, field)
    inter = []
    for row, p in zip(rows, pivots):
        if p >= n:
            inter.append(row[n:])
    return Subspace.from_raw_vectors(inter, n, field)


def solve(matrix: Matrix, rhs: Sequence[FieldElement]) -> list[FieldElement] | None:
    """One exact solution of M x = rhs (free variables zero), or None.

    Over Q(zeta_m), m >= 3, a system with at least as many rows as columns
    is tried modulo primes first. Its answer is exact: a solution comes
    back only when it is unique and passed an exact check of M x = rhs,
    and None only when a full-rank modular image proves the system
    inconsistent. In every other case, and over any other field, the
    augmented matrix is reduced by exact elimination, and its solution
    must pass the same check or ArithmeticError is raised.
    """
    field = matrix.field
    if len(rhs) != matrix.nrows:
        raise AmbientMismatch("right-hand side length does not match the rows")
    aug = [row + [field.to_raw(v)] for row, v in zip(matrix.rows, rhs)]
    n = matrix.ncols
    m = cyclotomic_index(field.minpoly)
    if m is not None and 0 < n <= len(aug):
        found = solve_cyclotomic(aug, n, m)
        if found is not UNDECIDED:
            return None if found is None else [field.from_raw(v) for v in found]
    rows, pivots = _batch_rref(aug, field) if aug else ([], [])
    if any(p == n for p in pivots):
        return None
    x = [field.raw_zero] * n
    for row, p in zip(rows, pivots):
        x[p] = row[n]
    if field.degree == 1:
        certified = check_solution([[(v,) for v in row] for row in aug],
                                   [(v,) for v in x], field.minpoly)
    else:
        certified = check_solution(aug, x, field.minpoly)
    if not certified:
        raise ArithmeticError("elimination failed the exact check M x = b")
    return [field.from_raw(v) for v in x]
