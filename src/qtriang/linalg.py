"""Exact linear algebra over cyclotomic scalars.

Dense routines work on lists of lists of CycScalar and stay small: every
system solved in this package has at most a few thousand entries, and
``rref`` is its only elimination (scalars invert without one).  A subspace
is eliminated once, by ``row_basis``, into its canonical basis; membership
is then read from that basis's pivots without further elimination, and
two subspaces are equal exactly when their canonical bases compare equal
with ``==``.  The sparse Matrix class backs representation matrices and
braided symmetric-group actions, where tensor-power dimensions reach a few
hundred but columns stay nearly empty.

A Matrix stores one cyclotomic order N for all of its entries, one
positive integer denominator D, and for each nonzero entry the phi(N)
integer coordinates of D times that entry: the form ``cyclotomic`` lifts,
reduces and compares for ``GATensor`` and ``ClassFunction`` too.  Products
and traces run on these integers: both operands are lifted to the lcm
order, products accumulate unreduced integer polynomials and reduce modulo
Phi_N once per output entry, and every result is put in lowest terms.
CycScalars appear only where values enter a matrix (the constructor,
``from_entries``, ``from_dense``) or leave it (``to_dense``, ``trace``,
equality across orders whose lcm is past ``ORDER_CAP``).
"""

from __future__ import annotations

import math

from .cyclotomic import (
    CycScalar,
    accumulate,
    as_scalar,
    common_scalars,
    euler_phi,
    lift_rows,
    lowest_terms,
    reduced_rows,
    same_values,
    summed,
)

_ZERO = CycScalar.zero()


def rref(rows: list[list[CycScalar]]) -> tuple[list[list[CycScalar]], list[int]]:
    """Reduced row echelon form (a fresh matrix) and its pivot columns."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    nrows = len(rows)
    pivots = []
    row = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(row, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        inv = 1 / rows[row][col]
        rows[row] = [v * inv for v in rows[row]]
        for r in range(nrows):
            if r != row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return rows, pivots


def row_basis(rows: list[list[CycScalar]]) -> list[list[CycScalar]]:
    """Canonical basis of the row space (nonzero rows of the rref)."""
    reduced, pivots = rref(rows)
    return reduced[: len(pivots)]


def in_row_span(basis: list[list[CycScalar]], vector: list[CycScalar]) -> bool:
    """Whether ``vector`` is a combination of the rows of a reduced ``basis``.

    Precondition: every row leads with a 1 in a column where all other rows
    are 0.  A ``row_basis`` result qualifies, and so do the Kronecker
    products of the rows of two such bases.  The only candidate combination
    then takes the vector's entry at each row's pivot as that row's
    coefficient, so the vector lies in the span exactly when subtracting it
    leaves zero.  Nothing is divided or eliminated.
    """
    residual = vector
    for row in basis:
        c = vector[next(j for j, v in enumerate(row) if v)]
        if c:
            residual = [a - c * b if b else a for a, b in zip(residual, row)]
    return not any(residual)


def solve(a_rows: list[list[CycScalar]], rhs: list[CycScalar]):
    """One solution of A x = rhs, or None if the system is inconsistent.

    Free variables are set to zero.
    """
    ncols = len(a_rows[0]) if a_rows else 0
    reduced, pivots = rref([list(r) + [b] for r, b in zip(a_rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    solution = [_ZERO] * ncols
    for r, col in enumerate(pivots):
        solution[col] = reduced[r][ncols]
    return solution


class Matrix:
    """Immutable sparse matrix over a cyclotomic field, stored column-major.

    ``order`` is one cyclotomic order N containing every entry (the lcm of
    the entry orders), ``den`` one positive integer D, and ``cols`` maps
    column -> row -> the integer coordinate tuple, of length phi(N), of D
    times the entry; zero entries are not stored.  The form is in lowest
    terms (D and all coordinates have gcd 1) and coordinates at a fixed
    order are unique, so equal matrices at the same order store identical
    data.  Equality lifts both sides to the lcm order.
    """

    __slots__ = ("nrows", "ncols", "order", "den", "cols")

    def __init__(self, nrows: int, ncols: int, cols=None):
        values: dict[int, dict[int, CycScalar]] = {}
        for j, col in (cols or {}).items():
            for i, v in col.items():
                v = as_scalar(v)
                if v:
                    values.setdefault(j, {})[i] = v
        self._set(nrows, ncols, *common_scalars(values))

    def _set(self, nrows: int, ncols: int, order: int, den: int, cols: dict) -> None:
        # cols must hold no zero entries; divides out the common content.
        den, cols = lowest_terms(den, cols)
        self.nrows = nrows
        self.ncols = ncols
        self.order = order if cols else 1
        self.den = den
        self.cols = cols

    @classmethod
    def _make(cls, nrows: int, ncols: int, order: int, den: int, cols: dict) -> "Matrix":
        self = object.__new__(cls)
        self._set(nrows, ncols, order, den, cols)
        return self

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._make(n, n, 1, 1, {j: {j: (1,)} for j in range(n)})

    @classmethod
    def from_permutation(cls, perm) -> "Matrix":
        # Column j holds the image of basis vector j.
        n = len(perm)
        return cls._make(n, n, 1, 1, {j: {perm[j]: (1,)} for j in range(n)})

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries) -> "Matrix":
        cols: dict[int, dict[int, CycScalar]] = {}
        for i, j, v in entries:
            col = cols.setdefault(j, {})
            col[i] = col[i] + v if i in col else v
        return cls(nrows, ncols, cols)

    @classmethod
    def from_dense(cls, rows) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        cells = ((i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v)
        return cls.from_entries(nrows, ncols, cells)

    def _scalar(self, coords: tuple) -> CycScalar:
        return CycScalar._make(self.order, self.den, coords)

    def to_dense(self) -> list[list[CycScalar]]:
        rows = [[_ZERO] * self.ncols for _ in range(self.nrows)]
        for j, col in self.cols.items():
            for i, v in col.items():
                rows[i][j] = self._scalar(v)
        return rows

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.ncols} vs {other.nrows}")
        order = math.lcm(self.order, other.order)
        a, b = lift_rows(self.cols, self.order, order), lift_rows(other.cols, other.order, order)
        width, cols = 2 * euler_phi(order) - 1, {}
        for j, col in b.items():
            polys: dict[int, list[int]] = {}
            for k, c in col.items():
                for i, v in a.get(k, {}).items():
                    raw = polys.get(i)
                    if raw is None:
                        raw = polys[i] = [0] * width
                    accumulate(raw, v, c)
            if out := reduced_rows(polys, order):
                cols[j] = out
        return Matrix._make(self.nrows, other.ncols, order, self.den * other.den, cols)

    def trace(self) -> CycScalar:
        total = summed((0, col[j]) for j, col in self.cols.items() if j in col)
        return self._scalar(total.get(0, (0,) * euler_phi(self.order)))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return same_values((self.order, self.den, self.cols), (other.order, other.den, other.cols))

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.den, frozenset(
            (j, i) for j, col in self.cols.items() for i in col
        )))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {sum(len(c) for c in self.cols.values())} entries)"
