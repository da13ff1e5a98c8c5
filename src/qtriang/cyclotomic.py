"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

A scalar is stored as its order N together with rational coordinates in the
power basis 1, z, ..., z^(phi(N)-1), reduced modulo the N-th cyclotomic
polynomial.  Every value carries its order explicitly; binary operations
embed both operands into the field of order lcm first, so there is no
global field object.  All arithmetic is exact (arbitrary-precision
rationals), and the reduced representation at a fixed order is unique.
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


def _reduce_mod_cyclotomic(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    c = list(coeffs) + [_ZERO] * (deg - len(coeffs))
    for i in range(len(c) - 1, deg - 1, -1):
        lead = c[i]
        if lead:
            for j in range(deg + 1):
                c[i - deg + j] -= lead * phi[j]
    return tuple(c[:deg])


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

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def embed(self, order: int) -> "CycScalar":
        """The same field element re-expressed at a multiple of its order."""
        if order == self.order:
            return self
        if order < 1 or order % self.order:
            raise ValueError(f"order {self.order} does not divide {order}")
        if order > ORDER_CAP:
            raise ValueError(f"cyclotomic order {order} exceeds the supported cap {ORDER_CAP}")
        step = order // self.order
        raw = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            raw[i * step] = c
        return CycScalar(order, _reduce_mod_cyclotomic(raw, order))

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
            return CycScalar._make(
                self.order, tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
            )
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CycScalar._make(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CycScalar) and self.order == other.order:
            return CycScalar._make(
                self.order, tuple(x - y for x, y in zip(self.coeffs, other.coeffs))
            )
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
        if self.is_zero():
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        if self.order == 1:
            return CycScalar.rational(1 / self.coeffs[0])
        # Extended Euclid on (self, Phi_N) over Q[x]; Phi_N is irreducible,
        # so the gcd is a nonzero constant.
        a = list(self.coeffs)
        b = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        sa: list[Fraction] = [_ONE]
        sb: list[Fraction] = []
        while True:
            while a and not a[-1]:
                a.pop()
            if len(a) == 1:
                inv = 1 / a[0]
                raw = [c * inv for c in sa]
                return CycScalar(self.order, _reduce_mod_cyclotomic(raw, self.order))
            if not a:
                raise AssertionError("unreachable: nonzero element shares a factor with Phi_N")
            q, r = _poly_divmod_frac(b, a)
            sr = _poly_sub(sb, _poly_mul_frac(q, sa))
            b, sb = a, sa
            a, sa = r, sr

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
            basis = _embed_basis(d, self.order)
            m = len(basis)
            # Solve sum_j x_j * basis[j] = coeffs over Q.  The embedded basis
            # is independent, so the system is consistent exactly when the
            # target column is not a pivot, i.e. when there are m pivots.
            aug = [[col[i] for col in basis] + [c] for i, c in enumerate(self.coeffs)]
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


def _poly_divmod_frac(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    while den and not den[-1]:
        den = den[:-1]
    dd = len(den) - 1
    quot = [_ZERO] * max(len(num) - dd, 0)
    inv_lead = 1 / den[-1]
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] * inv_lead
        if c:
            quot[i - dd] = c
            for j, p in enumerate(den):
                num[i - dd + j] -= c * p
    while num and not num[-1]:
        num.pop()
    return quot, num


def _poly_mul_frac(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


@lru_cache(maxsize=None)
def _embed_basis(d: int, n: int) -> list:
    return [root_of_unity(d, j).embed(n).coeffs for j in range(euler_phi(d))]


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
