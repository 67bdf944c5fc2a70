"""Exact linear algebra: canonical reduced row echelon subspaces and kernels.

Over the rationals, batch elimination is fraction-free (Bareiss-Jordan on
integer rows, exact divisions checked), which keeps intermediate entries as
minors instead of exploding fractions. Over extensions a plain Gauss-Jordan
runs on coordinate vectors. Every subspace is stored as the unique reduced
row echelon basis with pivot 1, so equal subspaces compare equal rowwise.

Pivoting always selects the first usable column, and kernels are emitted
directly in canonical form by eliminating with the column order reversed.

solve is the one place that may take a modular route. When the field's
modulus is a cyclotomic polynomial Phi_m with m >= 3 (detected once per
modulus), the system is first solved modulo primes p = 1 (mod m), as
phi(m) scalar eliminations per prime (see modular.py). That route answers
only when every scalar image has full column rank: the solution is then
unique, hence the same one Gauss-Jordan would return, and it is returned
only after an exact check M x = b. An image inconsistent at full column
rank proves there is no solution. Rank deficiency, or no verified
solution within a fixed number of primes, falls back to Gauss-Jordan, as
does every other modulus; rref, kernel and the subspace operations always
eliminate exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import AmbientMismatch, FieldMismatch
from .fields import QQ, FieldElement, NumberField
from .modular import UNDECIDED, cyclotomic_index, solve_cyclotomic

F0 = Fraction(0)
F1 = Fraction(1)


def _unwrap(field: NumberField, value: FieldElement):
    if value.field != field:
        raise FieldMismatch("entry from a different field")
    return value.coords[0] if field.degree == 1 else value.coords


def _wrap(field: NumberField, raw) -> FieldElement:
    if field.degree == 1:
        return FieldElement(field, (raw,))
    return FieldElement(field, raw)


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return q


def _rref_q(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Canonical RREF over QQ via integer Bareiss-Jordan elimination."""
    mat: list[list[int]] = []
    for row in rows:
        den = 1
        for c in row:
            d = c.denominator
            den = den * d // gcd(den, d)
        ints = [int(c * den) for c in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
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
    """Dense exact matrix; rows of FieldElement entries over one field."""

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
        rows = [list(r) for r in rows]
        if rows:
            field = field or rows[0][0].field
            ncols = len(rows[0])
            for r in rows:
                if len(r) != ncols:
                    raise AmbientMismatch("ragged matrix rows")
        elif field is None or ncols is None:
            raise AmbientMismatch("an empty matrix needs explicit field and ncols")
        return cls(field, len(rows), ncols, rows)

    def raw_rows(self):
        return [[_unwrap(self.field, v) for v in row] for row in self.rows]

    def entry(self, i: int, j: int) -> FieldElement:
        return self.rows[i][j]

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
    rows, pivots = _batch_rref(matrix.raw_rows(), matrix.field)
    wrapped = [[_wrap(matrix.field, v) for v in row] for row in rows]
    return (Matrix(matrix.field, len(wrapped), matrix.ncols, wrapped),
            tuple(pivots))


def matrix_rank(matrix: Matrix) -> int:
    return len(_batch_rref(matrix.raw_rows(), matrix.field)[1])


class Subspace:
    """A linear subspace held as its canonical reduced row echelon basis.

    Rows are stored unwrapped (Fraction over QQ, coordinate tuples over an
    extension); use vectors() for FieldElement views. Equality is rowwise
    equality of the canonical bases.
    """

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field: NumberField, ambient: int, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    # -- constructors

    @classmethod
    def zero(cls, ambient: int, field: NumberField = QQ) -> "Subspace":
        return cls(field, ambient, [], [])

    @classmethod
    def full(cls, ambient: int, field: NumberField = QQ) -> "Subspace":
        if field.degree == 1:
            rows = [[F1 if j == i else F0 for j in range(ambient)]
                    for i in range(ambient)]
        else:
            one = field.one.coords
            zero = field.zero.coords
            rows = [[one if j == i else zero for j in range(ambient)]
                    for i in range(ambient)]
        return cls(field, ambient, rows, list(range(ambient)))

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence[FieldElement]],
                     ambient: int, field: NumberField = QQ) -> "Subspace":
        raw = []
        for vec in vectors:
            if len(vec) != ambient:
                raise AmbientMismatch("vector length does not match the ambient")
            raw.append([_unwrap(field, v) for v in vec])
        rows, pivots = _batch_rref(raw, field)
        return cls(field, ambient, rows, pivots)

    @classmethod
    def from_raw_vectors(cls, raw: Sequence[Sequence], ambient: int,
                         field: NumberField = QQ) -> "Subspace":
        rows, pivots = _batch_rref([list(r) for r in raw], field)
        return cls(field, ambient, rows, pivots)

    # -- views

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient

    def vectors(self) -> list[list[FieldElement]]:
        return [[_wrap(self.field, v) for v in row] for row in self.rows]

    def copy(self) -> "Subspace":
        return Subspace(self.field, self.ambient,
                        [list(r) for r in self.rows], list(self.pivots))

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.rows == other.rows)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"

    # -- reduction helpers (mutating; used while a subspace is being built)

    def _reduce_raw(self, vec: list) -> list:
        field = self.field
        if field.degree == 1:
            for row, p in zip(self.rows, self.pivots):
                f = vec[p]
                if f:
                    vec = [a - f * b for a, b in zip(vec, row)]
        else:
            mul, sub, is_zero = field.mul_coords, field.sub_coords, field.is_zero_coords
            for row, p in zip(self.rows, self.pivots):
                f = vec[p]
                if not is_zero(f):
                    vec = [sub(a, mul(f, b)) for a, b in zip(vec, row)]
        return vec

    def insert_raw(self, vec: list) -> bool:
        """Add one vector, keeping canonical form; True if the dim grew."""
        field = self.field
        vec = self._reduce_raw(list(vec))
        if field.degree == 1:
            lead = next((j for j, v in enumerate(vec) if v), None)
            if lead is None:
                return False
            inv = 1 / vec[lead]
            vec = [v * inv for v in vec]
            for i, row in enumerate(self.rows):
                f = row[lead]
                if f:
                    self.rows[i] = [a - f * b for a, b in zip(row, vec)]
        else:
            is_zero = field.is_zero_coords
            lead = next((j for j, v in enumerate(vec) if not is_zero(v)), None)
            if lead is None:
                return False
            inv = field.inv_coords(vec[lead])
            mul, sub = field.mul_coords, field.sub_coords
            vec = [mul(inv, v) for v in vec]
            for i, row in enumerate(self.rows):
                f = row[lead]
                if not is_zero(f):
                    self.rows[i] = [sub(a, mul(f, b)) for a, b in zip(row, vec)]
        at = next((i for i, p in enumerate(self.pivots) if p > lead),
                  len(self.pivots))
        self.rows.insert(at, vec)
        self.pivots.insert(at, lead)
        return True

    def contains_raw(self, vec: list) -> bool:
        field = self.field
        vec = self._reduce_raw(list(vec))
        if field.degree == 1:
            return all(v == 0 for v in vec)
        return all(field.is_zero_coords(v) for v in vec)

    def contains_vector(self, vec: Sequence[FieldElement]) -> bool:
        if len(vec) != self.ambient:
            raise AmbientMismatch("vector length does not match the ambient")
        return self.contains_raw([_unwrap(self.field, v) for v in vec])

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains_raw(row) for row in other.rows)

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
    raw = [[row[j] for j in range(n - 1, -1, -1)]
           for row in matrix.raw_rows()]
    rows, pivots = _batch_rref(raw, field)
    pivot_set = set(pivots)
    zero = F0 if field.degree == 1 else field.zero.coords
    one = F1 if field.degree == 1 else field.one.coords
    neg = (lambda v: -v) if field.degree == 1 else field.neg_coords
    basis = []
    basis_pivots = []
    for f in range(n - 1, -1, -1):
        if f in pivot_set:
            continue
        vec = [zero] * n
        vec[n - 1 - f] = one
        for row, p in zip(rows, pivots):
            val = row[f]
            if (val != 0 if field.degree == 1 else not field.is_zero_coords(val)):
                vec[n - 1 - p] = neg(val)
        basis.append(vec)
        basis_pivots.append(n - 1 - f)
    return Subspace(field, n, basis, basis_pivots)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both; canonical like every Subspace."""
    a._check(b)
    big, small = (a, b) if a.dim >= b.dim else (b, a)
    if big.is_full():
        return big.copy()
    out = big.copy()
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
    zero = F0 if field.degree == 1 else field.zero.coords
    stacked = [list(row) + list(row) for row in a.rows]
    stacked += [list(row) + [zero] * n for row in b.rows]
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
    augmented matrix is reduced by exact elimination.
    """
    field = matrix.field
    if len(rhs) != matrix.nrows:
        raise AmbientMismatch("right-hand side length does not match the rows")
    aug = [row + [_unwrap(field, v)] for row, v in zip(matrix.raw_rows(), rhs)]
    n = matrix.ncols
    m = cyclotomic_index(field.minpoly)
    if m is not None and 0 < n <= len(aug):
        found = solve_cyclotomic(aug, n, m)
        if found is not UNDECIDED:
            return None if found is None else [_wrap(field, v) for v in found]
    rows, pivots = _batch_rref(aug, field) if aug else ([], [])
    if any(p == n for p in pivots):
        return None
    zero = F0 if field.degree == 1 else field.zero.coords
    x = [zero] * n
    for row, p in zip(rows, pivots):
        x[p] = row[n]
    return [_wrap(field, v) for v in x]
