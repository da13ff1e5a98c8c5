import functools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtriang import cyclotomic
from qtriang.cyclotomic import (
    CycScalar,
    ORDER_CAP,
    common_form,
    common_scalars,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    lift_rows,
    lowest_terms,
    root_of_unity,
    same_values,
    scaled,
)


# Independent oracle: Phi_n by the Moebius product formula
#   Phi_n = prod_{d | n} (x^d - 1)^(mu(n/d)),
# computed with integer polynomial multiplication and exact division.

def _mu(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_exact(a, b):
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i] // b[-1]
        q[i - len(b) + 1] = c
        for j, y in enumerate(b):
            a[i - len(b) + 1 + j] -= c * y
    assert not any(a[: len(b) - 1])
    return q


@functools.lru_cache(maxsize=None)
def _phi_moebius(n):
    num, den = [1], [1]
    for d in divisors(n):
        factor = [-1] + [0] * (d - 1) + [1]
        m = _mu(n // d)
        if m == 1:
            num = _poly_mul(num, factor)
        elif m == -1:
            den = _poly_mul(den, factor)
    return tuple(_poly_div_exact(num, den))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 15, 24])
def test_cyclotomic_polynomial_against_moebius_oracle(n):
    assert cyclotomic_polynomial(n) == _phi_moebius(n)


def test_cyclotomic_polynomial_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)


def test_cyclotomic_degree_is_totient():
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_order_cap_enforced():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(ORDER_CAP + 1)
    with pytest.raises(ValueError):
        root_of_unity(ORDER_CAP + 1)


def test_root_of_unity_examples():
    assert root_of_unity(2, 1) == -1
    # zeta_4^2 via squaring against the direct reduction
    assert root_of_unity(4, 1) * root_of_unity(4, 1) == -1
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(3, 3) == 1
    assert root_of_unity(7, 0) == 1


def test_arithmetic_examples():
    assert root_of_unity(3, 1) * root_of_unity(3, 2) == 1
    assert CycScalar.rational(Fraction(1, 2)) + CycScalar.rational(Fraction(1, 2)) == 1
    z4 = root_of_unity(4)
    assert z4 / z4 == 1


def test_embed_examples():
    e = CycScalar.rational(-1).embed(4)
    assert e.order == 4 and e.coeffs == (Fraction(-1), Fraction(0))
    assert root_of_unity(3).embed(6) == root_of_unity(6, 2)
    one = CycScalar.one().embed(12)
    assert one.order == 12 and one == 1


def test_embed_rejects_incompatible_order():
    with pytest.raises(ValueError):
        root_of_unity(4).embed(6)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycScalar.one() / CycScalar.zero(3)


def test_roots_of_unity_power_and_sum():
    for n in range(2, 25):
        z = root_of_unity(n)
        assert z**n == 1
        total = CycScalar.zero(n)
        for k in range(n):
            total = total + root_of_unity(n, k)
        assert total == 0


def test_power_is_repeated_product_with_the_fewest_products(monkeypatch):
    # x**n equals n-fold multiplication; square-and-multiply forms no
    # product by 1 and no square past the last bit: x**1 is x itself and
    # x**2 one product.
    x = CycScalar(12, [Fraction(1, 2), -1, 0, 3])
    expected = [CycScalar.one(12)]
    for _ in range(9):
        expected.append(expected[-1] * x)
    real_mul, products = CycScalar.__mul__, []

    def counting(left, right):
        products.append(1)
        return real_mul(left, right)

    monkeypatch.setattr(CycScalar, "__mul__", counting)
    counts = []
    for n, value in enumerate(expected):
        products.clear()
        assert x**n == value, n
        counts.append(len(products))
    assert x**1 is x
    assert counts == [0, 0, 1, 2, 2, 3, 3, 4, 3, 4]


def test_canonical_form_uniqueness():
    a = root_of_unity(6, 2)
    b = root_of_unity(3, 1)
    assert a == b
    assert (a - b).is_zero()
    assert a.embed(6).coeffs == b.embed(6).coeffs
    assert a.key() == b.key()
    assert hash(a) == hash(b)


def test_reduced_finds_minimal_order():
    r = (root_of_unity(12, 3)).reduced()  # zeta_12^3 = i
    assert r.order == 4
    assert CycScalar.rational(5, 8).reduced().order == 1


_orders = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24])
_rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)


@st.composite
def _scalars(draw):
    order = draw(_orders)
    coeffs = [draw(_rationals) for _ in range(euler_phi(order))]
    return CycScalar(order, coeffs)


@settings(max_examples=60, deadline=None)
@given(_scalars(), _scalars(), _scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    # Reflected subtraction from an int or a Fraction.
    assert 1 - a == -(a - 1)
    assert Fraction(1, 2) - a == -(a - Fraction(1, 2))


@settings(max_examples=40, deadline=None)
@given(_scalars())
def test_additive_and_multiplicative_inverses(a):
    assert a + (-a) == 0
    if not a.is_zero():
        assert a * a.inverse() == 1
        assert a / a == 1


@settings(max_examples=40, deadline=None)
@given(_scalars(), _scalars())
def test_embedding_commutes_with_arithmetic(a, b):
    import math

    m = math.lcm(a.order, b.order)
    target = m * (3 if m % 3 else 2) if m * 3 <= 24 else m
    assert (a + b).embed(target) == a.embed(target) + b.embed(target)
    assert (a * b).embed(target) == a.embed(target) * b.embed(target)


@settings(max_examples=40, deadline=None)
@given(_scalars(), st.sampled_from([1, 2, 3, 5]))
def test_reduced_is_independent_of_the_written_order(a, k):
    lifted = a.embed(a.order * k).reduced()
    r = a.reduced()
    assert (lifted.order, lifted.coeffs) == (r.order, r.coeffs)


def test_inverse_matches_sympy():
    # sympy inverts modulo Phi_N with its own polynomial arithmetic over QQ,
    # sharing no code with the Galois-conjugate product CycScalar.inverse uses.
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261018)
    cases = 0
    for n in (1, 2, 3, 4, 5, 8, 12, 15, 24):
        phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain=sympy.QQ)
        assert tuple(int(c) for c in reversed(phi.all_coeffs())) == cyclotomic_polynomial(n)
        for _ in range(20):
            coeffs = [
                Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(euler_phi(n))
            ]
            if not any(coeffs):
                continue
            p = sympy.Poly(
                [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                x,
                domain=sympy.QQ,
            )
            expected = [
                Fraction(int(c.p), int(c.q)) for c in reversed(sympy.invert(p, phi).all_coeffs())
            ]
            expected += [Fraction(0)] * (euler_phi(n) - len(expected))
            assert list(CycScalar(n, coeffs).inverse().coeffs) == expected
            cases += 1
    assert cases > 150


# Stored form: every result holds int coordinates over one positive
# denominator in lowest terms, and agrees with a reference that computes on
# Fraction coordinate lists, reducing modulo the Moebius-formula Phi_N.

def _ref_reduce(coeffs, n):
    phi = _phi_moebius(n)
    deg = len(phi) - 1
    c = list(coeffs) + [Fraction(0)] * max(0, deg - len(coeffs))
    for i in range(len(c) - 1, deg - 1, -1):
        lead = c[i]
        for j, p in enumerate(phi):
            c[i - deg + j] -= lead * p
    return c[:deg]


def _ref_mul(u, v, n):
    raw = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            raw[i + j] += x * y
    return _ref_reduce(raw, n)


def _ref_embed(u, n, m):
    # Substitute z_n = z_m^(m/n) and reduce at order m.
    step = m // n
    raw = [Fraction(0)] * ((len(u) - 1) * step + 1)
    for i, x in enumerate(u):
        raw[i * step] += x
    return _ref_reduce(raw, m)


def _assert_stored_form(x):
    assert type(x.den) is int and x.den > 0
    assert type(x.num) is tuple and len(x.num) == euler_phi(x.order)
    assert all(type(c) is int for c in x.num)
    assert math.gcd(x.den, *x.num) == 1


@settings(max_examples=80, deadline=None)
@given(_scalars(), _scalars())
def test_stored_form_and_reference_arithmetic(a, b):
    n = math.lcm(a.order, b.order)
    ra = _ref_embed(list(a.coeffs), a.order, n)
    rb = _ref_embed(list(b.coeffs), b.order, n)
    cases = [
        (a + b, n, [x + y for x, y in zip(ra, rb)]),
        (a - b, n, [x - y for x, y in zip(ra, rb)]),
        (a * b, n, _ref_mul(ra, rb, n)),
        (-a, a.order, [-x for x in a.coeffs]),
        (a.embed(24), 24, _ref_embed(list(a.coeffs), a.order, 24)),
    ]
    for got, order, want in cases:
        _assert_stored_form(got)
        assert got.order == order and list(got.coeffs) == want
    if not a.is_zero():
        inv = a.inverse()
        _assert_stored_form(inv)
        assert inv.order == a.order
        assert _ref_mul(list(inv.coeffs), list(a.coeffs), a.order) == [1] + [0] * (
            euler_phi(a.order) - 1
        )
    r = a.reduced()
    _assert_stored_form(r)
    assert a.order % r.order == 0
    assert _ref_embed(list(r.coeffs), r.order, a.order) == list(a.coeffs)


@settings(max_examples=80, deadline=None)
@given(_scalars(), st.sampled_from([1, 2, 3, 4, 6]), _scalars())
def test_equality_and_hash_agree_across_orders(a, k, c):
    m = a.order * k
    b = CycScalar(m, _ref_embed(list(a.coeffs), a.order, m))
    assert a == b and b == a and hash(a) == hash(b) and a.key() == b.key()
    n = math.lcm(a.order, c.order)
    same = _ref_embed(list(a.coeffs), a.order, n) == _ref_embed(list(c.coeffs), c.order, n)
    assert (a == c) is same and (a != c) is not same
    if same:
        assert hash(a) == hash(c)
    back = (a + c) - c
    assert back == a and hash(back) == hash(a)
    assert (a * Fraction(1, 2) == a) is a.is_zero()
    q = a.coeffs[0]
    rational = not any(a.coeffs[1:])
    assert (a == q) is rational and (b == q) is rational
    assert (a == CycScalar.rational(q, 12)) is rational


# Elimination reference for ``inverse`` and ``reduced``: each is a rational
# linear solve, the inverse of x as the solution y of x * y = 1 and the
# minimal order as the least d for which x is a combination of the embedded
# powers of z_d.  Built on the Moebius-formula reduction above, it shares no
# code with the Galois action the package uses.

def _ref_solve(columns, rhs):
    # One solution of sum_j y_j * columns[j] = rhs for independent columns,
    # or None if there is none.  Gauss-Jordan elimination on the augmented
    # matrix scaled to integers: rows are combined by cross-multiplying and
    # kept primitive by dividing out their content, so no entry is a Fraction.
    m = len(columns)
    rows = []
    for i, c in enumerate(rhs):
        row = [col[i] for col in columns] + [c]
        scale = math.lcm(*(v.denominator for v in row))
        rows.append([int(v * scale) for v in row])
    pivots = []
    for col in range(m):
        pivot = next((r for r in range(len(pivots), len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        top = len(pivots)
        rows[top], rows[pivot] = rows[pivot], rows[top]
        p = rows[top][col]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != top and f:
                new = [p * a - f * b for a, b in zip(rows[r], rows[top])]
                g = math.gcd(*new)
                rows[r] = [v // g for v in new] if g > 1 else new
        pivots.append(col)
    if any(row[m] for row in rows[len(pivots):]):
        return None
    solution = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        solution[col] = Fraction(rows[r][m], rows[r][col])
    return solution


def _unit_vector(j, length):
    return [Fraction(int(i == j)) for i in range(length)]


def _ref_times_z(u, n):
    return _ref_reduce([Fraction(0)] + list(u), n)


def _ref_inverse(x):
    # The solution y of x * y = 1: column j of the system is x * z^j.
    columns = [list(x.coeffs)]
    while len(columns) < euler_phi(x.order):
        columns.append(_ref_times_z(columns[-1], x.order))
    return CycScalar(x.order, _ref_solve(columns, _unit_vector(0, len(columns))))


@functools.lru_cache(maxsize=None)
def _ref_root_powers(n):
    # Coordinates of z^k at order n for k < n.
    powers = [_unit_vector(0, euler_phi(n))]
    while len(powers) < n:
        powers.append(_ref_times_z(powers[-1], n))
    return powers


def _ref_subfield_coords(x, d):
    # Coordinates at order d of x, or None if x is not in Q(zeta_d).
    powers = _ref_root_powers(x.order)
    basis = [powers[i * (x.order // d)] for i in range(euler_phi(d))]
    return _ref_solve(basis, list(x.coeffs))


def _ref_reduced(x):
    for d in divisors(x.order):
        coords = _ref_subfield_coords(x, d)
        if coords is not None:
            return CycScalar(d, coords)


def _subfield_values(seed):
    # One nonzero value from Q(zeta_d) at order n, for every d | n <= 60.
    rng = random.Random(seed)
    for n in range(1, 61):
        for d in divisors(n):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(d))]
            coeffs[rng.randrange(len(coeffs))] = Fraction(rng.choice((-2, 1, 3)), rng.randint(1, 3))
            yield CycScalar(d, coeffs).embed(n)


def _stored(x):
    return (x.order, x.den, x.num)


def test_inverse_and_reduced_match_the_elimination_reference():
    cases = 0
    for x in _subfield_values(20261018):
        assert _stored(x.inverse()) == _stored(_ref_inverse(x))
        assert _stored(x.reduced()) == _stored(_ref_reduced(x))
        cases += 1
    assert cases == sum(len(divisors(n)) for n in range(1, 61))


def test_reduced_order_is_the_least_subfield_holding_the_value():
    # The orders d | N whose field holds x are exactly the multiples of the
    # least one, and ``reduced`` lands on it.
    for x in _subfield_values(7):
        held = [d for d in divisors(x.order) if _ref_subfield_coords(x, d) is not None]
        least = x.reduced().order
        assert least == held[0]
        assert held == [d for d in divisors(x.order) if d % least == 0]


def test_inverse_and_reduced_at_the_order_cap():
    rng = random.Random(360)
    x = CycScalar(360, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(96)])
    assert x * x.inverse() == 1
    assert x.reduced() is x
    sub = CycScalar(72, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(24)])
    sub = sub + root_of_unity(72)
    lifted = sub.embed(360)
    assert _stored(lifted.reduced()) == _stored(sub)
    assert _stored(root_of_unity(360, 45).reduced()) == _stored(root_of_unity(8))


def test_inverse_and_reduced_build_no_fractions(monkeypatch):
    values = [
        CycScalar.rational(Fraction(-3, 4), 12),
        root_of_unity(12, 3) * 2 + 1,
        root_of_unity(3).embed(30) - Fraction(1, 5),
        root_of_unity(8) + root_of_unity(5, 2),
        root_of_unity(7, 3) * Fraction(2, 7),
    ]

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

    monkeypatch.setattr(cyclotomic, "Fraction", NoFraction)
    for x in values:
        assert (x * x.inverse()).num[0] == 1
        assert x.reduced().order <= x.order


# -- The integer-row form shared by GATensor, Matrix and ClassFunction.

def _random_scalar(rng, orders=(1, 2, 3, 4, 5, 6, 8, 12)):
    order = rng.choice(orders)
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(euler_phi(order))]
    return CycScalar(order, coeffs)


def _one_row(x):
    return (x.order, x.den, (x.num,))


def test_row_core_agrees_with_scalar_arithmetic_at_mixed_orders():
    # Seeded random values at mixed orders: the common form holds each value
    # at the lcm order and denominator, in lowest terms over all rows, and
    # combining and scaling forms give what scalar + and * give.
    rng = random.Random(4880)
    for _ in range(150):
        values = [_random_scalar(rng) for _ in range(rng.randint(1, 4))]
        order, den, rows = common_scalars(values)
        assert order == math.lcm(*(v.order for v in values))
        assert den == math.lcm(*(v.den for v in values))
        assert math.gcd(den, *(x for row in rows for x in row)) == 1
        for v, row in zip(values, rows):
            assert tuple(Fraction(x, den) for x in row) == v.embed(order).coeffs
            assert [Fraction(x, den) for x in row] == _ref_embed(list(v.coeffs), v.order, order)
        keyed = common_scalars(dict(enumerate(values)))
        assert keyed == (order, den, dict(enumerate(rows)))

        a, b = values[0], values[-1]
        n, d, ((u,), (w,)) = common_form([_one_row(a), _one_row(b)])
        total = CycScalar._make(n, d, tuple(map(operator.add, u, w)))
        assert _stored(total) == _stored(a + b)
        n, d, (row,) = scaled(_one_row(a), b)
        assert _stored(CycScalar._make(n, d, row)) == _stored(a * b)
        n, d, table = scaled((order, den, dict(enumerate(rows))), b)
        for k, v in enumerate(values):
            assert CycScalar._make(n, d, table[k]) == v * b

        m = order * rng.choice([1, 2, 3, 5])
        if m <= ORDER_CAP:
            assert same_values((order, den, rows), (m, den, lift_rows(rows, order, m)))
        shifted = [v + 1 for v in values]
        assert same_values(common_scalars(values), common_scalars(shifted)) is False


def test_orders_one_and_two_share_coordinates():
    rng = random.Random(2)
    values = [CycScalar(rng.choice([1, 2]), [Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
              for _ in range(12)]
    order, den, rows = common_scalars(values)
    assert order == 2
    assert rows == tuple((den // v.den * v.num[0],) for v in values)
    assert lift_rows(rows, 1, 2) is rows and lift_rows(rows, 2, 2) is rows
    assert all(v.embed(2).num == v.num for v in values)


def test_lowest_terms_reads_every_row_of_nested_forms():
    assert lowest_terms(6, {0: {1: (2, 4)}, 3: {0: (6, 0)}}) == (3, {0: {1: (1, 2)}, 3: {0: (3, 0)}})
    assert lowest_terms(6, ((2, 4), (3, 0))) == (6, ((2, 4), (3, 0)))
    assert lowest_terms(4, {}) == (1, {})


def test_forms_past_the_order_cap_are_refused_but_compare_value_by_value():
    # Orders 360 and 7 are each within ORDER_CAP; their lcm 2520 is not.
    with pytest.raises(ValueError, match="exceeds the supported cap"):
        common_scalars([root_of_unity(360), root_of_unity(7)])
    with pytest.raises(ValueError, match="exceeds the supported cap"):
        common_form([(360, 1, {"k": root_of_unity(360).num}), (7, 1, {"k": root_of_unity(7).num})])

    def keyed(*values):
        return common_scalars(dict(enumerate(values)))

    half = Fraction(1, 2)
    assert same_values(keyed(CycScalar.rational(half, 360)), keyed(CycScalar.rational(half, 7)))
    assert not same_values(keyed(CycScalar.rational(half, 360)), keyed(CycScalar.rational(-half, 7)))
    # zeta_3 held at order 360 and at order 21: equal values, no common order.
    z3 = root_of_unity(3)
    at_360 = keyed(z3.embed(360), CycScalar.rational(half, 360))
    at_21 = keyed(z3.embed(21), CycScalar.rational(half, 7))
    assert at_360[0] == 360 and at_21[0] == 21
    assert same_values(at_360, at_21)
    assert not same_values(at_360, keyed((z3 * z3).embed(21), CycScalar.rational(half, 7)))
