"""Per-layer micro-benchmarks for group-algebra tensor products, outside tier-1.

The file name does not match ``test_*.py``, so the default test run skips
it.  Run it with

    PYTHONPATH=src python -m pytest tests/bench_hopf.py --benchmark-only

R R21 is timed on the first 16-term structures of D4 and Q8 and on the
first 4-term structure of Z2xZ2; R (S x I)(R), ``verify_qt``'s inverse
guess on its fallback route, on the D4 one, where all but one of the
keys it reaches cancel; the ``yang_baxter_sides`` of a fresh
``LegProducts(R)`` (R13 R12, R13 R23 and both sides) on the D4 one; one
product of two 12-term arity-2 tensors on D4 whose coefficients have
orders 3, 4 and 8 and several nonzero coordinates over different
denominators; the six leg maps (coproduct, antipode, swap, R13
placement, adjoint action, counit) on the D4 16-term R; and ``verify_qt`` on that
R, which forms no tensor product: both hexagons are read off R's fibre
squares, and the left one decides the inverse and Yang-Baxter.
"""

from fractions import Fraction

import pytest

from qtriang.acceptance import qt_catalog
from qtriang.cyclotomic import CycScalar
from qtriang.groups import bundled_group
from qtriang.hopf import GATensor
from qtriang.rmatrix import LegProducts, verify_qt

CASES = [("D4", 16), ("Q8", 16), ("Z2xZ2", 4)]


def _structure(name: str, terms: int) -> GATensor:
    rmats = (s.rmatrix for s in qt_catalog(name).structures)
    return next(r for r in rmats if len(r.terms) == terms)


@pytest.mark.parametrize("name, terms", CASES, ids=["D4-16", "Q8-16", "Z2xZ2-4"])
def test_r_times_r21(benchmark, name, terms):
    r = _structure(name, terms)
    r21 = r.swap()
    product = benchmark(r.__mul__, r21)
    assert product.terms


def test_r_times_antipode_d4(benchmark):
    r = _structure("D4", 16)
    product = benchmark(r.__mul__, r.antipode(1))
    assert product.is_unit()


def test_yang_baxter_sides_d4(benchmark):
    r = _structure("D4", 16)
    left, right = benchmark(lambda: LegProducts(r).yang_baxter_sides)
    assert left == right


def _mixed_tensor(shift: int) -> GATensor:
    g = bundled_group("D4")
    values = [
        CycScalar(3, [Fraction(1, 2), Fraction(-1, 3)]),
        CycScalar(4, [2, Fraction(1, 5)]),
        CycScalar(8, [1, 0, Fraction(-3, 4), 1]),
    ]
    terms = {divmod(5 * i + shift, 8): values[i % 3] for i in range(12)}
    return GATensor(g, 2, terms)


LEG_MAPS = {
    "coproduct": lambda r: r.coproduct(1),
    "antipode": lambda r: r.antipode(1),
    "swap": lambda r: r.swap(),
    "embed_legs": lambda r: r.embed_legs((1, 3), 3),
    "adjoint_action": lambda r: r.adjoint_action(1, 2),
    "counit": lambda r: r.counit(1),
}


@pytest.mark.parametrize("leg_map", LEG_MAPS)
def test_leg_map_d4(benchmark, leg_map):
    r = _structure("D4", 16)
    image = benchmark(LEG_MAPS[leg_map], r)
    # The counit sums R's 16 rows into one: R's left counit is the unit.
    assert image.is_unit() if leg_map == "counit" else len(image.terms) == len(r.terms)


def test_verify_qt_d4(benchmark):
    r = _structure("D4", 16)
    report = benchmark(verify_qt, r)
    assert report.all_passed


def test_mixed_order_product(benchmark):
    x, y = _mixed_tensor(0), _mixed_tensor(5)
    product = benchmark(x.__mul__, y)
    assert product.terms
