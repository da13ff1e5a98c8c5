"""Sparse ``Matrix`` operations that only the test oracles use.

Zero matrices, entry reads, sums, scaling and Kronecker products on the
stored form of ``qtriang.linalg.Matrix`` (one order, one denominator,
integer coordinate tuples), through the form operations of
``qtriang.cyclotomic``: operands are lifted to one order (and, for sums,
one denominator), the integer coordinates are combined, and
``Matrix._make`` divides out the common content.  The dense and d^n
references in the tests build their matrices with these; the package
itself needs none of them.
"""

import math

from qtriang.cyclotomic import CycScalar, common_form, lift_rows, scaled, summed, times
from qtriang.linalg import Matrix


def zero(nrows: int, ncols: int) -> Matrix:
    return Matrix._make(nrows, ncols, 1, 1, {})


def entry(m: Matrix, i: int, j: int) -> CycScalar:
    v = m.cols.get(j, {}).get(i)
    return CycScalar.zero() if v is None else CycScalar._make(m.order, m.den, v)


def _combine(a: Matrix, b: Matrix, sign: int) -> Matrix:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch")
    order, den, (left, right) = common_form([(a.order, a.den, a.cols), (b.order, b.den, b.cols)])
    if sign != 1:
        right = {j: {i: tuple(sign * y for y in v) for i, v in col.items()} for j, col in right.items()}
    cols = {}
    for j in {**left, **right}:
        if col := summed([*left.get(j, {}).items(), *right.get(j, {}).items()]):
            cols[j] = col
    return Matrix._make(a.nrows, a.ncols, order, den, cols)


def add(a: Matrix, b: Matrix) -> Matrix:
    return _combine(a, b, 1)


def sub(a: Matrix, b: Matrix) -> Matrix:
    return _combine(a, b, -1)


def scale(m: Matrix, scalar) -> Matrix:
    if not scalar:
        return zero(m.nrows, m.ncols)
    return Matrix._make(m.nrows, m.ncols, *scaled((m.order, m.den, m.cols), scalar))


def kron(a: Matrix, b: Matrix) -> Matrix:
    order = math.lcm(a.order, b.order)
    left, right = lift_rows(a.cols, a.order, order), lift_rows(b.cols, b.order, order)
    cols: dict[int, dict[int, tuple]] = {}
    for ja, ca in left.items():
        for jb, cb in right.items():
            cols[ja * b.ncols + jb] = {
                ia * b.nrows + ib: times(va, vb, order)
                for ia, va in ca.items()
                for ib, vb in cb.items()
            }
    return Matrix._make(a.nrows * b.nrows, a.ncols * b.ncols, order, a.den * b.den, cols)
