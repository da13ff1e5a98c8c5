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
integer coordinates of D times that entry.  Products and traces run on
these integers: both operands are lifted to the lcm order by a cached
integer map, products accumulate unreduced integer polynomials and reduce
modulo Phi_N once per output entry, and every result is divided by the gcd
of its denominator and coordinates.  CycScalars appear only where values
enter a matrix (the constructor, ``from_entries``, ``from_dense``) or leave
it (``to_dense``, ``trace``, equality across orders whose lcm is past ``ORDER_CAP``).
"""

from __future__ import annotations

import math

from .cyclotomic import (
    ORDER_CAP,
    CycScalar,
    _reduce_mod_cyclotomic,
    content,
    embed_map,
    euler_phi,
    lift,
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


def _as_scalar(value) -> CycScalar:
    return value if isinstance(value, CycScalar) else CycScalar.rational(value)


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
        entries = []
        for j, col in (cols or {}).items():
            for i, v in col.items():
                v = _as_scalar(v)
                if v:
                    entries.append((i, j, v))
        order = math.lcm(1, *(v.order for _, _, v in entries))
        parts = [(i, j, v.embed(order)) for i, j, v in entries]
        den = math.lcm(1, *(v.den for _, _, v in parts))
        out: dict[int, dict[int, tuple[int, ...]]] = {}
        for i, j, v in parts:
            out.setdefault(j, {})[i] = tuple(x * (den // v.den) for x in v.num)
        self._set(nrows, ncols, order, den, out)

    def _set(self, nrows: int, ncols: int, order: int, den: int, cols: dict) -> None:
        # cols must hold no zero entries; divides out the common content.
        g = content(den, (v for col in cols.values() for v in col.values()))
        if g != 1:
            den //= g
            cols = {
                j: {i: tuple(x // g for x in v) for i, v in col.items()}
                for j, col in cols.items()
            }
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

    def _entries(self) -> dict[int, dict[int, CycScalar]]:
        return {j: {i: self._scalar(v) for i, v in col.items()} for j, col in self.cols.items()}

    def to_dense(self) -> list[list[CycScalar]]:
        rows = [[_ZERO] * self.ncols for _ in range(self.nrows)]
        for j, col in self.cols.items():
            for i, v in col.items():
                rows[i][j] = self._scalar(v)
        return rows

    def _lifted(self, order: int) -> dict:
        # cols re-expressed at a multiple of self.order; orders 1 and 2
        # (phi = 1) share their coordinates.
        if order == self.order or order == 2:
            return self.cols
        rows = embed_map(self.order, order)
        return {j: {i: lift(v, rows) for i, v in col.items()} for j, col in self.cols.items()}

    def _common(self, other: "Matrix") -> tuple[int, dict, dict]:
        order = math.lcm(self.order, other.order)
        return order, self._lifted(order), other._lifted(order)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.ncols} vs {other.nrows}")
        order, a, b = self._common(other)
        cols: dict[int, dict[int, tuple]] = {}
        if order <= 2:  # phi(order) == 1: one plain int per entry
            for j, col in b.items():
                acc: dict[int, int] = {}
                for k, (c,) in col.items():
                    left = a.get(k)
                    if left:
                        for i, (v,) in left.items():
                            acc[i] = acc.get(i, 0) + v * c
                out = {i: (s,) for i, s in acc.items() if s}
                if out:
                    cols[j] = out
        else:
            width = 2 * euler_phi(order) - 1
            for j, col in b.items():
                polys: dict[int, list[int]] = {}
                for k, c in col.items():
                    left = a.get(k)
                    if not left:
                        continue
                    terms = [(t, y) for t, y in enumerate(c) if y]
                    for i, v in left.items():
                        raw = polys.get(i)
                        if raw is None:
                            raw = polys[i] = [0] * width
                        for s, x in enumerate(v):
                            if x:
                                for t, y in terms:
                                    raw[s + t] += x * y
                out = {}
                for i, raw in polys.items():
                    v = _reduce_mod_cyclotomic(raw, order)
                    if any(v):
                        out[i] = v
                if out:
                    cols[j] = out
        return Matrix._make(self.nrows, other.ncols, order, self.den * other.den, cols)

    def trace(self) -> CycScalar:
        total = [0] * euler_phi(self.order)
        for j, col in self.cols.items():
            v = col.get(j)
            if v is not None:
                total = [x + y for x, y in zip(total, v)]
        return self._scalar(tuple(total))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols, self.den) != (other.nrows, other.ncols, other.den):
            return False
        # The power basis at every order is an integral basis, so the
        # lowest-terms denominator does not depend on the order.
        if math.lcm(self.order, other.order) > ORDER_CAP:  # no common field: entry by entry
            return self._entries() == other._entries()
        _, a, b = self._common(other)
        return a == b

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.den, frozenset(
            (j, i) for j, col in self.cols.items() for i in col
        )))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {sum(len(c) for c in self.cols.values())} entries)"
