import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtriang.cyclotomic import (
    CycScalar,
    ORDER_CAP,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    root_of_unity,
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
    # sharing no code with the elimination CycScalar.inverse uses.
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
