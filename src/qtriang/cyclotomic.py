"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

A scalar is stored as its order N together with rational coordinates in the
power basis 1, z, ..., z^(phi(N)-1), reduced modulo the N-th cyclotomic
polynomial.  Every value carries its order explicitly; binary operations
embed both operands into the field of order lcm first, so there is no
global field object.  Embedding is one cached integer map per (order,
target order), ``embed_map``, which sparse matrices share.  All
arithmetic is exact (arbitrary-precision rationals), and the reduced
representation at a fixed order is unique.
Every linear solve, inversion included, goes through the one elimination
routine ``rref``: the inverse of x is the solution y of x * y = 1, a
phi(N) x phi(N) rational system.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

#: Largest cyclotomic order the module will construct.  Group exponents at
#: the supported group sizes stay far below this.
ORDER_CAP = 360

_ZERO = Fraction(0)
_ONE = Fraction(1)


def euler_phi(n: int) -> int:
    """Euler's totient."""
    if n < 1:
        raise ValueError("euler_phi is defined for positive integers")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result = result // p * (p - 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result = result // m * (m - 1)
    return result


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # Exact division of integer polynomials; den must be monic.
    num = list(num)
    dd = len(den) - 1
    if dd < 0 or den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, p in enumerate(den):
                num[i - dd + j] -= c * p
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by exact division of x^n - 1 by the cyclotomic polynomials of
    all proper divisors of n.  Degree is euler_phi(n).
    """
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    if n > ORDER_CAP:
        raise ValueError(f"cyclotomic order {n} exceeds the supported cap {ORDER_CAP}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        poly, rem = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
        if rem:
            raise AssertionError(f"cyclotomic division left a remainder at order {n}")
    return tuple(poly)


def _reduce_mod_cyclotomic(coeffs: list, n: int) -> tuple:
    # Remainder modulo the monic Phi_n; exact for int and Fraction
    # coefficients alike (an int input gives an int output).
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    c = list(coeffs) + [0] * (deg - len(coeffs))
    for i in range(len(c) - 1, deg - 1, -1):
        lead = c[i]
        if lead:
            for j in range(deg + 1):
                c[i - deg + j] -= lead * phi[j]
    return tuple(c[:deg])


@lru_cache(maxsize=None)
def embed_map(order: int, target: int) -> tuple[tuple[int, ...], ...]:
    """Integer coordinates at ``target`` of z_order^i for i < phi(order).

    Row i is the image of the i-th power-basis vector, so lifting a value
    from order to a multiple target is one integer linear map.
    """
    step = target // order
    return tuple(
        _reduce_mod_cyclotomic([0] * (i * step) + [1], target)
        for i in range(euler_phi(order))
    )


def lift(coeffs: tuple, rows: tuple[tuple[int, ...], ...]) -> tuple:
    """Apply an ``embed_map`` to one coordinate tuple (ints or Fractions)."""
    out = [coeffs[0] * 0] * len(rows[0])
    for c, r in zip(coeffs, rows):
        if c:
            for t, x in enumerate(r):
                if x:
                    out[t] += c if x == 1 else c * x
    return tuple(out)


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (a fresh matrix) and its pivot columns.

    Field-agnostic: entries need only exact ``1 / x``, ``*``, ``-`` and a
    truth value, so the same loop serves Fraction and CycScalar matrices.
    """
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


class CycScalar:
    """An element of Q(zeta_N) with explicit order and canonical coordinates."""

    __slots__ = ("order", "coeffs", "_min")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be positive")
        if order > ORDER_CAP:
            raise ValueError(f"cyclotomic order {order} exceeds the supported cap {ORDER_CAP}")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValueError(
                f"expected {euler_phi(order)} coordinates at order {order}, got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs
        self._min = None

    @classmethod
    def _make(cls, order: int, coeffs: tuple) -> "CycScalar":
        # Internal fast constructor: coeffs must already be a valid tuple of
        # Fractions of length euler_phi(order).
        self = object.__new__(cls)
        self.order = order
        self.coeffs = coeffs
        self._min = None
        return self

    @classmethod
    def rational(cls, value, order: int = 1) -> "CycScalar":
        q = Fraction(value)
        return cls(order, (q,) + (_ZERO,) * (euler_phi(order) - 1))

    @classmethod
    def zero(cls, order: int = 1) -> "CycScalar":
        return cls.rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CycScalar":
        return cls.rational(1, order)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def embed(self, order: int) -> "CycScalar":
        """The same field element re-expressed at a multiple of its order."""
        if order == self.order:
            return self
        if order < 1 or order % self.order:
            raise ValueError(f"order {self.order} does not divide {order}")
        if order > ORDER_CAP:
            raise ValueError(f"cyclotomic order {order} exceeds the supported cap {ORDER_CAP}")
        return CycScalar._make(order, lift(self.coeffs, embed_map(self.order, order)))

    def _coerce(self, other):
        if isinstance(other, CycScalar):
            pass
        elif isinstance(other, (int, Fraction)):
            other = CycScalar.rational(other)
        else:
            return None
        if self.order == other.order:
            return self, other
        m = math.lcm(self.order, other.order)
        return self.embed(m), other.embed(m)

    def __add__(self, other):
        if isinstance(other, CycScalar) and self.order == other.order:
            a, b = self, other
        else:
            pair = self._coerce(other)
            if pair is None:
                return NotImplemented
            a, b = pair
        return CycScalar._make(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CycScalar) and self.order == other.order:
            a, b = self, other
        else:
            pair = self._coerce(other)
            if pair is None:
                return NotImplemented
            a, b = pair
        return CycScalar._make(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return CycScalar._make(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, CycScalar) and self.order == other.order:
            a, b = self, other
        else:
            pair = self._coerce(other)
            if pair is None:
                return NotImplemented
            a, b = pair
        n = len(a.coeffs)
        if n == 1:
            return CycScalar._make(a.order, (a.coeffs[0] * b.coeffs[0],))
        raw = [_ZERO] * (2 * n - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        raw[i + j] += x * y
        return CycScalar._make(a.order, _reduce_mod_cyclotomic(raw, a.order))

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        """The unique y with self * y = 1, solved by ``rref``.

        Column j of the phi(N) x phi(N) rational system is self * z^j; it has
        full rank because the field has no zero divisors.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        n = len(self.coeffs)
        cols = [
            _reduce_mod_cyclotomic([_ZERO] * j + list(self.coeffs), self.order)
            for j in range(n)
        ]
        aug = [[col[i] for col in cols] + [_ONE if i == 0 else _ZERO] for i in range(n)]
        reduced_rows, _ = rref(aug)
        return CycScalar._make(self.order, tuple(r[n] for r in reduced_rows))

    def __truediv__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycScalar.one(self.order)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def reduced(self) -> "CycScalar":
        """Canonical representative at the smallest order containing the value."""
        if self._min is not None:
            return self._min
        result = self
        for d in divisors(self.order)[:-1]:
            basis = embed_map(d, self.order)
            m = len(basis)
            # Solve sum_j x_j * basis[j] = coeffs over Q.  The embedded basis
            # is independent, so the system is consistent exactly when the
            # target column is not a pivot, i.e. when there are m pivots.
            aug = [
                [Fraction(col[i]) for col in basis] + [c]
                for i, c in enumerate(self.coeffs)
            ]
            reduced_rows, pivots = rref(aug)
            if len(pivots) == m:
                result = CycScalar(d, [r[m] for r in reduced_rows[:m]])
                break
        result._min = result
        self._min = result
        return result

    def key(self):
        """Hashable canonical key, identical exactly for equal field elements."""
        r = self.reduced()
        return (r.order, tuple((c.numerator, c.denominator) for c in r.coeffs))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycScalar.rational(other)
        if not isinstance(other, CycScalar):
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        a, b = self.reduced(), other.reduced()
        return a.order == b.order and a.coeffs == b.coeffs

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
                continue
            power = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
            if c == 1:
                mag = power
            elif c == -1:
                mag = f"-{power}"
            else:
                mag = f"{c}*{power}"
            terms.append(mag)
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


@lru_cache(maxsize=None)
def root_of_unity(order: int, exponent: int = 1) -> CycScalar:
    """zeta_order^exponent in canonical form at the given order."""
    if order < 1:
        raise ValueError("order must be positive")
    if order > ORDER_CAP:
        raise ValueError(f"cyclotomic order {order} exceeds the supported cap {ORDER_CAP}")
    k = exponent % order
    raw = [_ZERO] * k + [_ONE]
    return CycScalar(order, _reduce_mod_cyclotomic(raw, order))


@lru_cache(maxsize=None)
def root_power_table(order: int) -> tuple:
    """Coefficient vectors of 1, zeta, ..., zeta^(order-1) at the given order."""
    return tuple(root_of_unity(order, k).coeffs for k in range(order))
