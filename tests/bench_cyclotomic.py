"""Per-layer micro-benchmarks for cyclotomic scalars, outside tier-1.

The file name does not match ``test_*.py``, so the default test run skips
it.  Run it with

    PYTHONPATH=src python -m pytest tests/bench_cyclotomic.py --benchmark-only

Operands look like R-matrix coefficients: roots of unity averaged over
|A|^2, so small denominators and every coordinate nonzero.
"""

from fractions import Fraction

import pytest

from qtriang.classify import enumerate_qt
from qtriang.cyclotomic import CycScalar, euler_phi
from qtriang.groups import bundled_group


def _value(order: int, den: int) -> CycScalar:
    return CycScalar(order, [Fraction(2 * i + 1, den) for i in range(euler_phi(order))])


@pytest.mark.parametrize("order", [2, 4])
def test_mul_same_order(benchmark, order):
    a, b = _value(order, 4), _value(order, 16)
    benchmark(lambda: a * b)


@pytest.mark.parametrize("order", [2, 4])
def test_add_same_order(benchmark, order):
    a, b = _value(order, 4), _value(order, 16)
    benchmark(lambda: a + b)


def test_sub_same_order(benchmark):
    a, b = _value(4, 4), _value(4, 16)
    benchmark(lambda: a - b)


def test_mul_mixed_orders_3_by_4(benchmark):
    a, b = _value(3, 9), _value(4, 16)
    benchmark(lambda: a * b)


def test_add_mixed_orders_3_by_4(benchmark):
    a, b = _value(3, 9), _value(4, 16)
    benchmark(lambda: a + b)


@pytest.mark.parametrize("order", [4, 8, 24])
def test_inverse(benchmark, order):
    a = _value(order, 16)
    benchmark(a.inverse)


@pytest.mark.parametrize("order", [4, 8, 24])
def test_reduced_full_field_value(benchmark, order):
    a = _value(order, 16)

    def reduced():
        a._min = None  # drop the memoised result so every round reduces
        return a.reduced()

    assert benchmark(reduced).order == order


def test_gatensor_inverse_d4(benchmark):
    # The D4 R-matrix with the most terms.
    r = max(
        (s.rmatrix for s in enumerate_qt(bundled_group("D4")).structures),
        key=lambda t: len(t.terms),
    )
    inverse = benchmark(r.inverse)
    assert (r * inverse).is_unit()
