"""Sparse ``Matrix`` operations that only the test oracles use.

Zero matrices, entry reads, sums, scaling and Kronecker products on the
stored form of ``qtriang.linalg.Matrix`` (one order, one denominator,
integer coordinate tuples): both operands are lifted to the lcm order, the
integer coordinates are combined, and ``Matrix._make`` divides out the
common content.  The dense and d^n references in the tests build their
matrices with these; the package itself needs none of them.
"""

import math

from qtriang.cyclotomic import CycScalar, times
from qtriang.linalg import Matrix


def zero(nrows: int, ncols: int) -> Matrix:
    return Matrix._make(nrows, ncols, 1, 1, {})


def entry(m: Matrix, i: int, j: int) -> CycScalar:
    v = m.cols.get(j, {}).get(i)
    return CycScalar.zero() if v is None else CycScalar._make(m.order, m.den, v)


def _combine(a: Matrix, b: Matrix, sign: int) -> Matrix:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch")
    order, left, right = a._common(b)
    den = math.lcm(a.den, b.den)
    fa, fb = den // a.den, sign * (den // b.den)
    cols = {j: {i: tuple(fa * x for x in v) for i, v in col.items()} for j, col in left.items()}
    for j, col in right.items():
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
    return Matrix._make(a.nrows, a.ncols, order, den, cols)


def add(a: Matrix, b: Matrix) -> Matrix:
    return _combine(a, b, 1)


def sub(a: Matrix, b: Matrix) -> Matrix:
    return _combine(a, b, -1)


def scale(m: Matrix, scalar) -> Matrix:
    if not isinstance(scalar, CycScalar):
        scalar = CycScalar.rational(scalar)
    if not scalar:
        return zero(m.nrows, m.ncols)
    order = math.lcm(m.order, scalar.order)
    s = scalar.embed(order)
    cols = {
        j: {i: times(v, s.num, order) for i, v in col.items()}
        for j, col in m._lifted(order).items()
    }
    return Matrix._make(m.nrows, m.ncols, order, m.den * s.den, cols)


def kron(a: Matrix, b: Matrix) -> Matrix:
    order, left, right = a._common(b)
    cols: dict[int, dict[int, tuple]] = {}
    for ja, ca in left.items():
        for jb, cb in right.items():
            cols[ja * b.ncols + jb] = {
                ia * b.nrows + ib: times(va, vb, order)
                for ia, va in ca.items()
                for ib, vb in cb.items()
            }
    return Matrix._make(a.nrows * b.nrows, a.ncols * b.ncols, order, a.den * b.den, cols)
