"""Per-layer micro-benchmarks for the quasitriangularity verifier, outside tier-1.

The file name does not match ``test_*.py``, so the default test run skips
it.  Run it with

    PYTHONPATH=src python -m pytest tests/bench_verify.py --benchmark-only

``verify_qt`` (inverse, diagonal commutation, both coproduct identities,
Yang-Baxter, counits and antipodes) and ``verify_markov`` (the Markov
element u, the inverses of u and R21 R, the coproduct identity and
centrality) are timed on the first 16-term structures of D4 and Q8 and
on the first 4-term structure of Z2xZ2.  On these R-matrices ``verify_qt``
forms no GATensor product: both hexagons are read off R's fibre squares,
and the left one gives R's inverse and, with invariance, Yang-Baxter.  Its
fallback route is timed on 2R for the first 16-term D4 structure, whose
counits are not the unit: R13 R23 and R13 R12 are formed, the left
hexagon fails, R (S x I)(R) is not the unit, so the linear solve runs, and
both Yang-Baxter sides are formed.  On that D4 R-matrix the fibre square
sum_a a x r_a^2 that decides the left hexagon is timed against the
product R13 R23 it replaces, and likewise on the first 16-term Q8
structure; both are at order 4.  ``verify_qt`` is also timed over
all 44 distinct structures of the seven catalogs, one R per dedup class, as
one ``classify`` pass checks them.  A fresh ``Braiding`` of the first
16-term D4 structure is timed reading its report, then its unitarity, in
the order ``classify`` reads them.
"""

import pytest

from qtriang.acceptance import qt_catalog
from qtriang.charring import Braiding
from qtriang.groups import CATALOG_NAMES
from qtriang.rmatrix import LegProducts, verify_markov, verify_qt, verify_unitary


def _d4_structure():
    return next(s.rmatrix for s in qt_catalog("D4").structures if len(s.rmatrix.terms) == 16)

CASES = [("D4", 16), ("Q8", 16), ("Z2xZ2", 4)]


@pytest.mark.parametrize("verify", [verify_qt, verify_markov], ids=lambda f: f.__name__)
@pytest.mark.parametrize("name, terms", CASES, ids=["D4-16", "Q8-16", "Z2xZ2-4"])
def test_verify(benchmark, name, terms, verify):
    catalog = qt_catalog(name)
    r = next(s.rmatrix for s in catalog.structures if len(s.rmatrix.terms) == terms)
    report = benchmark(verify, r)
    assert report.all_passed


def test_verify_qt_fallback_d4(benchmark):
    r = _d4_structure().scale(2)
    assert not LegProducts(r).left_hexagon
    report = benchmark(verify_qt, r)
    assert report["invertible"].passed and not report.all_passed
    assert report["yang_baxter"].passed


@pytest.mark.parametrize("side", ["fibre_square", "r13r23"])
@pytest.mark.parametrize("name", ["D4", "Q8"])
def test_left_hexagon_side_d4(benchmark, name, side):
    # R equals its fibre square, and (Delta x I)(R) equals R13 R23.  Both
    # first 16-term structures are at order 4.
    r = next(s.rmatrix for s in qt_catalog(name).structures if len(s.rmatrix.terms) == 16)
    assert r.order == 4
    if side == "fibre_square":
        assert benchmark(r._fibre_square, 1) == r
    else:
        r13, r23 = r.embed_legs((1, 3), 3), r.embed_legs((2, 3), 3)
        assert benchmark(r13.__mul__, r23) == r.coproduct(1)


def test_verify_qt_every_distinct_structure(benchmark):
    rmats = []
    for name in CATALOG_NAMES:
        catalog = qt_catalog(name)
        rmats += [catalog.structures[members[0]].rmatrix for members in catalog.dedup]
    assert len(rmats) == 44
    reports = benchmark(lambda: [verify_qt(r) for r in rmats])
    assert all(report.all_passed for report in reports)


def test_braiding_report_then_unitary_d4(benchmark):
    r = _d4_structure()

    def read():
        braiding = Braiding(r)
        return braiding.report.all_passed, braiding.unitary

    assert benchmark(read) == (True, verify_unitary(r))
