"""Exact linear algebra over cyclotomic scalars.

Dense routines (Gaussian elimination, spans) work on lists of lists of
CycScalar and stay small: every system solved in this package has at most
a few thousand entries.  The sparse Matrix class backs representation
matrices and braided symmetric-group actions, where tensor-power
dimensions reach a few hundred but columns stay nearly empty.

A Matrix stores one cyclotomic order N for all of its entries, one
positive integer denominator D, and for each nonzero entry the phi(N)
integer coordinates of D times that entry.  Products, sums, scaling,
Kronecker products and traces run on these integers: both operands are
lifted to the lcm order by a cached integer map, products accumulate
unreduced integer polynomials and reduce modulo Phi_N once per output
entry, and every result is divided by the gcd of its denominator and
coordinates.  CycScalars appear only where values enter a matrix (the
constructor, ``from_entries``, ``from_dense``) or leave it (``get``,
``to_dense``, ``trace``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import (
    CycScalar,
    _reduce_mod_cyclotomic,
    embed_map,
    euler_phi,
    lift,
    rref as _rref,
)

_ZERO = CycScalar.zero()


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


def _as_scalar(value) -> CycScalar:
    return value if isinstance(value, CycScalar) else CycScalar.rational(value)


def _integral(coeffs: tuple) -> tuple[int, tuple[int, ...]]:
    # (d, c) with d the least positive integer making d * coeffs integral.
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, tuple(c.numerator * (den // c.denominator) for c in coeffs)


def _times(u: tuple, v: tuple, order: int) -> tuple:
    # Product of two integer coordinate tuples at one order.
    if len(u) == 1:
        return (u[0] * v[0],)
    raw = [0] * (2 * len(u) - 1)
    for s, x in enumerate(u):
        if x:
            for t, y in enumerate(v):
                if y:
                    raw[s + t] += x * y
    return _reduce_mod_cyclotomic(raw, order)


def _content(den: int, cols: dict) -> int:
    # gcd of den and every stored coordinate.
    g = den
    for col in cols.values():
        for v in col.values():
            g = math.gcd(g, *v)
            if g == 1:
                return 1
    return g


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
        parts = [(i, j, _integral(v.embed(order).coeffs)) for i, j, v in entries]
        den = math.lcm(1, *(d for _, _, (d, _) in parts))
        out: dict[int, dict[int, tuple[int, ...]]] = {}
        for i, j, (d, coords) in parts:
            out.setdefault(j, {})[i] = tuple(x * (den // d) for x in coords)
        self._set(nrows, ncols, order, den, out)

    def _set(self, nrows: int, ncols: int, order: int, den: int, cols: dict) -> None:
        # cols must hold no zero entries; divides out the common content.
        g = _content(den, cols) if den != 1 else 1
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
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._make(nrows, ncols, 1, 1, {})

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

    def _scalar(self, coords: tuple) -> CycScalar:
        return CycScalar._make(self.order, tuple(Fraction(x, self.den) for x in coords))

    def get(self, i: int, j: int) -> CycScalar:
        v = self.cols.get(j, {}).get(i)
        return _ZERO if v is None else self._scalar(v)

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

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        order, a, b = self._common(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        cols = {
            j: {i: tuple(fa * x for x in v) for i, v in col.items()} for j, col in a.items()
        }
        for j, col in b.items():
            acc = cols.setdefault(j, {})
            for i, v in col.items():
                w = acc.get(i)
                if w is None:
                    acc[i] = tuple(fb * y for y in v)
                    continue
                total = tuple(x + fb * y for x, y in zip(w, v))
                if any(total):
                    acc[i] = total
                else:
                    del acc[i]
            if not acc:
                del cols[j]
        return Matrix._make(self.nrows, self.ncols, order, den, cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def scale(self, scalar) -> "Matrix":
        scalar = _as_scalar(scalar)
        if not scalar:
            return Matrix.zero(self.nrows, self.ncols)
        order = math.lcm(self.order, scalar.order)
        sden, s = _integral(scalar.embed(order).coeffs)
        cols = {
            j: {i: _times(v, s, order) for i, v in col.items()}
            for j, col in self._lifted(order).items()
        }
        return Matrix._make(self.nrows, self.ncols, order, self.den * sden, cols)

    def kron(self, other: "Matrix") -> "Matrix":
        order, a, b = self._common(other)
        cols: dict[int, dict[int, tuple]] = {}
        for ja, ca in a.items():
            for jb, cb in b.items():
                cols[ja * other.ncols + jb] = {
                    ia * other.nrows + ib: _times(va, vb, order)
                    for ia, va in ca.items()
                    for ib, vb in cb.items()
                }
        return Matrix._make(
            self.nrows * other.nrows,
            self.ncols * other.ncols,
            order,
            self.den * other.den,
            cols,
        )

    def trace(self) -> CycScalar:
        total = [0] * euler_phi(self.order)
        for j, col in self.cols.items():
            v = col.get(j)
            if v is not None:
                total = [x + y for x, y in zip(total, v)]
        return self._scalar(total)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols, self.den) != (other.nrows, other.ncols, other.den):
            return False
        # The power basis at every order is an integral basis, so the
        # lowest-terms denominator does not depend on the order.
        _, a, b = self._common(other)
        return a == b

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.den, frozenset(
            (j, i) for j, col in self.cols.items() for i in col
        )))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {sum(len(c) for c in self.cols.values())} entries)"
