"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

A scalar is stored as its order N, one positive integer denominator D and
the phi(N) integer coordinates of D times the value in the power basis
1, z, ..., z^(phi(N)-1), reduced modulo the N-th cyclotomic polynomial and
kept in lowest terms (gcd(D, *coordinates) == 1).  The reduced
representation at a fixed order is unique, so equal values at one order
store identical data.  Every value carries its order explicitly; binary
operations embed both operands into the field of order lcm first, so there
is no global field object.  Embedding is one cached integer map per (order,
target order), ``embed_map``.  Addition, multiplication, negation and
embedding run on Python ints and divide out one gcd per result; all
arithmetic is exact.
``GATensor``, ``Matrix`` and ``ClassFunction`` store the same form with many
rows: one order, one denominator and per value one integer row, in lowest
terms over the whole container.  The functions after ``times`` are the one
place that lifts such rows, brings forms to one order and denominator,
scales, accumulates and reduces products, and compares forms.
The two field operations that are not ring operations read the Galois
action sigma_a: z -> z^a.  The inverse of x is the product of its other
conjugates over its norm, a rational integer, and ``reduced`` steps down
one prime at a time while the relative trace embeds back to x.  Both run
on integers; Fractions appear only in the public constructor, in
``rational`` and in the read-only ``coeffs``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import chain

#: Largest cyclotomic order the module will construct.  Group exponents at
#: the supported group sizes stay far below this.
ORDER_CAP = 360


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # phi(n) and the nonzero lower coefficients of Phi_n as (offset from
    # the leading term, coefficient) pairs.
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    return deg, tuple((j - deg, p) for j, p in enumerate(phi[:-1]) if p)


def _reduce_mod_cyclotomic(coeffs: list, n: int) -> tuple:
    # Remainder modulo the monic Phi_n of an integer coefficient list.  A
    # list of at least phi(n) entries is reduced in place: every caller
    # passes a scratch list it does not read again.
    deg, tail = _phi_tail(n)
    c = coeffs if len(coeffs) >= deg else coeffs + [0] * (deg - len(coeffs))
    for i in range(len(c) - 1, deg - 1, -1):
        lead = c[i]
        if lead:
            for offset, p in tail:
                c[i + offset] -= lead * p
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
    """Apply an integer map given by basis images, e.g. an ``embed_map``."""
    out = [0] * len(rows[0])
    for c, r in zip(coeffs, rows):
        if c:
            for t, x in enumerate(r):
                if x:
                    out[t] += c if x == 1 else c * x
    return tuple(out)


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError("order must be positive")
    if order > ORDER_CAP:
        raise ValueError(f"cyclotomic order {order} exceeds the supported cap {ORDER_CAP}")


def times(u: tuple, v: tuple, order: int) -> tuple:
    """Product of two integer coordinate tuples at one order, reduced mod Phi_N."""
    if len(u) == 1:
        return (u[0] * v[0],)
    return _reduce_mod_cyclotomic(accumulate([0] * (2 * len(u) - 1), u, v), order)


# -- The integer-row form.  A form is (order, den, rows): rows is a sequence
# of integer rows, or a dict whose values are rows or such dicts (a Matrix's
# columns), and holds D times each value at order N.  A CycScalar is the form
# whose rows are (num,).


def map_rows(fn, rows):
    """fn applied to every row: a dict keeps its keys and nesting, a sequence gives a tuple."""
    if isinstance(rows, dict):
        return {k: map_rows(fn, r) if isinstance(r, dict) else fn(r) for k, r in rows.items()}
    return tuple(map(fn, rows))


def _each_row(rows):
    # An iterable over every row, nested dicts flattened.
    rows = rows.values() if isinstance(rows, dict) else rows
    nested = isinstance(next(iter(rows), None), dict)
    return chain.from_iterable(map(_each_row, rows)) if nested else rows


def lift_row(row: tuple, order: int, target: int) -> tuple:
    """A row at ``order`` re-expressed at a multiple ``target``; orders 1, 2 share coordinates."""
    return row if order == target or target == 2 else lift(row, embed_map(order, target))


def lift_rows(rows, order: int, target: int):
    """``lift_row`` of every row, through one ``embed_map``."""
    if order == target or target == 2:
        return rows
    images = embed_map(order, target)
    return map_rows(lambda row: lift(row, images), rows)


def scale_rows(rows, factor: int):
    """Every coordinate times an integer factor."""
    return rows if factor == 1 else map_rows(lambda row: tuple(factor * x for x in row), rows)


def lowest_terms(den: int, rows) -> tuple:
    """(den, rows) with gcd(den, every coordinate) divided out, read until it reaches 1."""
    if den == 1:
        return den, rows
    g = den
    for row in _each_row(rows):
        g = math.gcd(g, *row)
        if g == 1:
            return den, rows
    return den // g, map_rows(lambda row: tuple(x // g for x in row), rows)


def common_form(forms, order: int = 1) -> tuple:
    """(N, D, [rows]): the forms at one order N and one denominator D.

    N is the lcm of ``order`` and the forms' orders, D the lcm of their
    denominators, and each form's rows are lifted to N and multiplied by
    D / den.  Embedding keeps each value's least denominator, so the rows
    of all forms together are in lowest terms.  Orders each within
    ``ORDER_CAP`` whose lcm is past it are refused (ValueError).
    """
    forms = list(forms)
    order = math.lcm(order, *(o for o, _, _ in forms))
    den = math.lcm(1, *(d for _, d, _ in forms))
    return order, den, [scale_rows(lift_rows(rows, o, order), den // d) for o, d, rows in forms]


def as_scalar(value) -> "CycScalar":
    """A CycScalar as it is, an int or Fraction as a CycScalar at order 1."""
    return value if isinstance(value, CycScalar) else CycScalar.rational(value)


def common_scalars(values, order: int = 1) -> tuple:
    """``common_form`` of CycScalars: (N, D, the row of D times each value at N).

    ``values`` is shaped as rows are (a sequence, or dicts of values), and so
    is the result, ``map_rows`` of it.
    """
    flat = list(_each_row(values))
    order = math.lcm(order, *(v.order for v in flat))
    den = math.lcm(1, *(v.den for v in flat))

    def row(v):
        num, factor = lift_row(v.num, v.order, order), den // v.den
        return num if factor == 1 else tuple(factor * x for x in num)

    return order, den, map_rows(row, values)


def scaled(form, scalar) -> tuple:
    """A form times a CycScalar or rational, at the lcm of their orders."""
    order, den, rows = form
    scalar = as_scalar(scalar)
    n = math.lcm(order, scalar.order)
    s = lift_row(scalar.num, scalar.order, n)
    return n, den * scalar.den, map_rows(lambda row: times(row, s, n), lift_rows(rows, order, n))


def accumulate(raw: list, u, v, weight: int = 1) -> list:
    """Add weight * u * v into raw as unreduced polynomials in zeta, in place."""
    if len(u) == 1:  # phi(N) == 1: one int per value
        raw[0] += weight * u[0] * v[0]
        return raw
    for s, x in enumerate(u):
        if x:
            x *= weight
            for t, y in enumerate(v):
                if y:
                    raw[s + t] += x * y
    return raw


def reduced_rows(polys, order: int):
    """Unreduced polynomials mod Phi_N (one coordinate, already reduced, at orders 1 and 2).

    A dict keeps its nonzero rows, a sequence all of its rows."""
    reduce = tuple if order <= 2 else lambda raw: _reduce_mod_cyclotomic(raw, order)
    if isinstance(polys, dict):
        return {k: r for k, raw in polys.items() if any(r := reduce(raw))}
    return tuple(map(reduce, polys))


def summed(pairs) -> dict:
    """Rows added per key in first-seen key order, zero sums dropped."""
    acc: dict = {}
    for key, row in pairs:
        acc[key] = tuple(map(operator.add, acc[key], row)) if key in acc else row
    return {key: row for key, row in acc.items() if any(row)}


def same_values(a, b) -> bool:
    """Whether two lowest-terms forms hold the same values.

    The power basis is integral at every order, so the denominator does not
    depend on the order: equal denominators, then the rows at one order,
    lifted to the lcm order or, past ``ORDER_CAP``, value by value.
    """
    (m, d, u), (n, e, v) = a, b
    if d != e:
        return False
    order = math.lcm(m, n)
    if order > ORDER_CAP:  # no common field to lift to
        return map_rows(lambda r: CycScalar._make(m, d, r), u) == map_rows(
            lambda r: CycScalar._make(n, e, r), v
        )
    return lift_rows(u, m, order) == lift_rows(v, n, order)


def _trace_down(x: "CycScalar", p: int) -> tuple[int, tuple]:
    # (den, num) at order M = N / p of Tr_{N/M}(x) / [Q(z_N) : Q(z_M)],
    # which equals x exactly when x lies in Q(z_M).
    m = x.order // p
    if m % p == 0:
        # z_N^(p i + r) = z_M^i z_N^r, and z_N^r has trace 0 for 0 < r < p.
        return x.den, x.num[::p]
    # z_N^j = z_M^(j u) z_p^(j v) with u = 1/p mod M and v = 1/M mod p; the
    # z_p factor has trace p - 1 when p | j and -1 otherwise.
    u, powers = pow(p, -1, m), root_power_table(m)
    weighted = [c * (p - 1) if j % p == 0 else -c for j, c in enumerate(x.num)]
    return x.den * (p - 1), lift(weighted, [powers[j * u % m] for j in range(len(weighted))])


class CycScalar:
    """An element of Q(zeta_N): one order, one denominator, integer coordinates.

    ``order`` is N, ``den`` a positive integer D and ``num`` the tuple of the
    phi(N) integer coordinates of D times the value in the power basis.  The
    pair is kept in lowest terms (gcd(D, *num) == 1, so zero has D == 1), and
    coordinates at a fixed order are unique, so equal values at the same
    order store identical data.  Arithmetic, ``inverse``, ``reduced`` and
    ``embed`` never build Fractions; ``coeffs`` reads the coordinates back
    as Fractions.
    """

    __slots__ = ("order", "den", "num", "_min")

    def __init__(self, order: int, coeffs):
        _check_order(order)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != euler_phi(order):
            raise ValueError(
                f"expected {euler_phi(order)} coordinates at order {order}, got {len(coeffs)}"
            )
        self.order = order
        # The least den making den * coeffs integral gives lowest terms.
        self.den = math.lcm(1, *(c.denominator for c in coeffs))
        self.num = tuple(c.numerator * (self.den // c.denominator) for c in coeffs)
        self._min = None

    @classmethod
    def _make(cls, order: int, den: int, num: tuple) -> "CycScalar":
        # Internal fast constructor: num must be a tuple of euler_phi(order)
        # ints and den > 0; divides out their common factor.
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                den //= g
                num = tuple(x // g for x in num)
        self = object.__new__(cls)
        self.order = order
        self.den = den
        self.num = num
        self._min = None
        return self

    @classmethod
    def rational(cls, value, order: int = 1) -> "CycScalar":
        _check_order(order)
        q = Fraction(value)
        return cls._make(order, q.denominator, (q.numerator,) + (0,) * (euler_phi(order) - 1))

    @classmethod
    def zero(cls, order: int = 1) -> "CycScalar":
        return cls.rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CycScalar":
        return cls.rational(1, order)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions (for reading only)."""
        return tuple(Fraction(x, self.den) for x in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def embed(self, order: int) -> "CycScalar":
        """The same field element re-expressed at a multiple of its order."""
        if order == self.order:
            return self
        if order < 1 or order % self.order:
            raise ValueError(f"order {self.order} does not divide {order}")
        _check_order(order)
        return CycScalar._make(order, self.den, lift_row(self.num, self.order, order))

    def _operand(self, other):
        # other as a CycScalar (a rational at self's order), or None.
        if isinstance(other, CycScalar):
            return other
        return CycScalar.rational(other, self.order) if isinstance(other, (int, Fraction)) else None

    def _additive(op):
        # x + y for op = operator.add, x - y for operator.sub.
        def method(self, other):
            other = self._operand(other)
            if other is None:
                return NotImplemented
            if self.order == other.order and self.den == other.den:
                return CycScalar._make(self.order, self.den, tuple(map(op, self.num, other.num)))
            order, den, (u, v) = common_scalars((self, other))
            return CycScalar._make(order, den, tuple(map(op, u, v)))

        return method

    __add__ = __radd__ = _additive(operator.add)
    __sub__ = _additive(operator.sub)
    del _additive

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return CycScalar._make(self.order, self.den, tuple(map(operator.neg, self.num)))

    def __mul__(self, other):
        a, b = self, self._operand(other)
        if b is None:
            return NotImplemented
        if a.order != b.order:
            order = math.lcm(a.order, b.order)
            a, b = a.embed(order), b.embed(order)
        return CycScalar._make(a.order, a.den * b.den, times(a.num, b.num, a.order))

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        """The unique y with self * y = 1: den * rest / norm for self = num / den.

        rest = prod sigma_a(num) over the units 1 < a < N, so num * rest is
        the norm of num, a nonzero integer.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        n, powers = self.order, root_power_table(self.order)
        rest = powers[0]
        for a in range(2, n):
            if math.gcd(a, n) == 1:
                # sigma_a(num) sends coordinate j to z^(j a).
                image = [powers[j * a % n] for j in range(len(self.num))]
                rest = times(rest, lift(self.num, image), n)
        norm = times(self.num, rest, n)[0]
        sign = -self.den if norm < 0 else self.den
        return CycScalar._make(n, abs(norm), tuple(sign * x for x in rest))

    def __truediv__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        # Square-and-multiply with no product by 1 and no square past the
        # last bit: x**2 is one product, x**1 is x.
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result, base = None, self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return CycScalar.one(self.order) if result is None else result
            base = base * base

    def reduced(self) -> "CycScalar":
        """Canonical representative at the smallest order containing the value.

        The orders whose field holds the value are closed under gcd, so
        stepping down one prime p | N at a time, while the value lies in
        Q(z_(N/p)), ends at the least of them.
        """
        if self._min is not None:
            return self._min
        result = self
        while True:
            for p in (d for d in divisors(result.order)[1:] if euler_phi(d) == d - 1):
                down = CycScalar._make(result.order // p, *_trace_down(result, p))
                if down.embed(result.order) == result:
                    result = down
                    break
            else:
                break
        result._min = result
        self._min = result
        return result

    def key(self):
        """Hashable canonical key, identical exactly for equal field elements."""
        r = self.reduced()
        return (r.order, r.den, r.num)

    def __eq__(self, other):
        if isinstance(other, CycScalar):
            if self.order == other.order:
                return self.den == other.den and self.num == other.num
            a, b = self.reduced(), other.reduced()
            return a.order == b.order and a.den == b.den and a.num == b.num
        if isinstance(other, (int, Fraction)):
            # A rational q has coordinates (q, 0, ..., 0) at every order.
            num = self.num
            return (
                self.den == other.denominator
                and num[0] == other.numerator
                and not any(num[1:])
            )
        return NotImplemented

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
    _check_order(order)
    raw = [0] * (exponent % order) + [1]
    return CycScalar._make(order, 1, _reduce_mod_cyclotomic(raw, order))


@lru_cache(maxsize=None)
def root_power_table(order: int) -> tuple:
    """Integer coordinate tuples of 1, zeta, ..., zeta^(order-1) at the given order."""
    return tuple(root_of_unity(order, k).num for k in range(order))
