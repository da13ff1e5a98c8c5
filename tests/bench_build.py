"""Per-layer micro-benchmarks for building R-matrices and twists, outside tier-1.

The file name does not match ``test_*.py``, so the default test run skips
it.  Run it with

    PYTHONPATH=src python -m pytest tests/bench_build.py --benchmark-only

``build_r`` is timed on the first datum of the Z2xZ2 and D4 catalogs that
builds a 16-term element, and ``koszul_twist`` (F, its solved form and the
three twist checks) on the first triangular D4 datum on the Klein group.
``enumerate_qt`` is timed on Z2xZ2 and D4 from fresh inclusions and forms
(every datum validated and keyed, R built once per dedup class; the
structures are verified later, on first read), and ``QTDatum`` construction
over the 226 Z2xZ2 data, whose inclusions and forms have already decided
their facts, so each datum costs its eight checks as lookups.
``QTDatum.triangular`` (``BiForm.is_skewsymmetric`` on the dual basis) is
timed over the 340 data of the seven catalogs, and
``verify_markov_equation`` (chi(u) = beta(chi, chi) by ``pairing`` at every
element of A) over their 62 triangular data.
"""

import pytest

from qtriang.acceptance import qt_catalog, triangular_catalog
from qtriang.classify import enumerate_qt
from qtriang.groups import CATALOG_NAMES, bundled_group
from qtriang.rmatrix import (
    QTDatum,
    build_r,
    koszul_twist,
    markov_element,
    verify_markov_equation,
)


@pytest.mark.parametrize("name", ["Z2xZ2", "D4"])
def test_build_r(benchmark, name):
    catalog = qt_catalog(name)
    datum = next(
        d for d, s in zip(catalog.data, catalog.structures) if len(s.rmatrix.terms) == 16
    )
    r = benchmark(build_r, datum)
    assert len(r.terms) == 16


def test_koszul_twist_d4_klein(benchmark):
    datum = next(d for d in triangular_catalog("D4").data if d.domain.factors == (2, 2))
    r = build_r(datum)
    result = benchmark(koszul_twist, datum, r, markov_element(r))
    assert result.all_passed


@pytest.mark.parametrize("name,data,classes", [("Z2xZ2", 226, 16), ("D4", 58, 8)])
def test_enumerate_qt(benchmark, name, data, classes):
    catalog = benchmark(enumerate_qt, bundled_group(name))
    assert (len(catalog), len(catalog.dedup)) == (data, classes)


def test_qtdatum_construction_z2xz2(benchmark):
    parts = [
        (d.group, d.domain, d.incl_left, d.incl_right, d.beta) for d in qt_catalog("Z2xZ2").data
    ]
    built = benchmark(lambda: [QTDatum(*p) for p in parts])
    assert len(built) == 226


def test_triangular_flag_over_catalog(benchmark):
    data = [d for name in CATALOG_NAMES for d in qt_catalog(name).data]
    assert len(data) == 340
    flags = benchmark(lambda: [d.triangular for d in data])
    assert sum(flags) == 62


def test_verify_markov_equation_over_triangular_data(benchmark):
    cases = []
    for name in CATALOG_NAMES:
        catalog = triangular_catalog(name)
        cases += [(d, s.markov) for d, s in zip(catalog.data, catalog.structures)]
    assert len(cases) == 62
    results = benchmark(lambda: [verify_markov_equation(d, u) for d, u in cases])
    assert all(results)
