"""Exact linear algebra over cyclotomic scalars.

Dense routines (Gaussian elimination, spans) work on lists of lists of
CycScalar and stay small: every system solved in this package has at most
a few thousand entries.  The sparse Matrix class backs representation
matrices and braided symmetric-group actions, where tensor-power
dimensions reach a few hundred but columns stay nearly empty.
"""

from __future__ import annotations

from .cyclotomic import CycScalar, rref as _rref

_ZERO = CycScalar.zero()
_ONE = CycScalar.one()


def rref(rows: list[list[CycScalar]]) -> tuple[list[list[CycScalar]], list[int]]:
    """Reduced row echelon form (a fresh matrix) and its pivot columns."""
    return _rref(rows)


def rank(rows: list[list[CycScalar]]) -> int:
    return len(rref(rows)[1])


def row_basis(rows: list[list[CycScalar]]) -> list[list[CycScalar]]:
    """Canonical basis of the row space (nonzero rows of the rref)."""
    reduced, pivots = rref(rows)
    return reduced[: len(pivots)]


def in_row_span(basis: list[list[CycScalar]], vector: list[CycScalar]) -> bool:
    return rank(list(basis) + [list(vector)]) == rank(basis)


def row_space_equal(a: list[list[CycScalar]], b: list[list[CycScalar]]) -> bool:
    return row_basis(a) == row_basis(b)


def solve(a_rows: list[list[CycScalar]], rhs: list[CycScalar]):
    """One solution of A x = rhs, or None if the system is inconsistent.

    Free variables are set to zero.
    """
    ncols = len(a_rows[0]) if a_rows else 0
    reduced, pivots = _rref([list(r) + [b] for r, b in zip(a_rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    solution = [_ZERO] * ncols
    for r, col in enumerate(pivots):
        solution[col] = reduced[r][ncols]
    return solution


class Matrix:
    """Immutable sparse matrix over CycScalar, stored column-major."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        clean: dict[int, dict[int, CycScalar]] = {}
        for j, col in (cols or {}).items():
            kept = {i: v for i, v in col.items() if v}
            if kept:
                clean[j] = kept
        self.cols = clean

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, {j: {j: _ONE} for j in range(n)})

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls(nrows, ncols, {})

    @classmethod
    def from_permutation(cls, perm) -> "Matrix":
        # Column j holds the image of basis vector j.
        n = len(perm)
        return cls(n, n, {j: {perm[j]: _ONE} for j in range(n)})

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries) -> "Matrix":
        cols: dict[int, dict[int, CycScalar]] = {}
        for i, j, v in entries:
            col = cols.setdefault(j, {})
            col[i] = col.get(i, _ZERO) + v
        return cls(nrows, ncols, cols)

    @classmethod
    def from_dense(cls, rows) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        cols: dict[int, dict[int, CycScalar]] = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    cols.setdefault(j, {})[i] = v
        return cls(nrows, ncols, cols)

    def get(self, i: int, j: int) -> CycScalar:
        return self.cols.get(j, {}).get(i, _ZERO)

    def to_dense(self) -> list[list[CycScalar]]:
        rows = [[_ZERO] * self.ncols for _ in range(self.nrows)]
        for j, col in self.cols.items():
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.ncols} vs {other.nrows}")
        cols: dict[int, dict[int, CycScalar]] = {}
        for j, col in other.cols.items():
            acc: dict[int, CycScalar] = {}
            for k, c in col.items():
                left = self.cols.get(k)
                if not left:
                    continue
                for i, v in left.items():
                    acc[i] = acc.get(i, _ZERO) + v * c
            if acc:
                cols[j] = acc
        return Matrix(self.nrows, other.ncols, cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        cols = {j: dict(col) for j, col in self.cols.items()}
        for j, col in other.cols.items():
            acc = cols.setdefault(j, {})
            for i, v in col.items():
                acc[i] = acc.get(i, _ZERO) + v
        return Matrix(self.nrows, self.ncols, cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(CycScalar.rational(-1))

    def scale(self, scalar) -> "Matrix":
        if not isinstance(scalar, CycScalar):
            scalar = CycScalar.rational(scalar)
        return Matrix(
            self.nrows,
            self.ncols,
            {j: {i: v * scalar for i, v in col.items()} for j, col in self.cols.items()},
        )

    def kron(self, other: "Matrix") -> "Matrix":
        cols: dict[int, dict[int, CycScalar]] = {}
        for ja, ca in self.cols.items():
            for jb, cb in other.cols.items():
                j = ja * other.ncols + jb
                col = cols.setdefault(j, {})
                for ia, va in ca.items():
                    for ib, vb in cb.items():
                        col[ia * other.nrows + ib] = va * vb
        return Matrix(self.nrows * other.nrows, self.ncols * other.ncols, cols)

    def trace(self) -> CycScalar:
        total = _ZERO
        for j, col in self.cols.items():
            v = col.get(j)
            if v is not None:
                total = total + v
        return total

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, frozenset(
            (j, i, v.key()) for j, col in self.cols.items() for i, v in col.items()
        )))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {sum(len(c) for c in self.cols.values())} entries)"
