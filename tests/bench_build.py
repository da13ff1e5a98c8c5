"""Per-layer micro-benchmarks for building R-matrices and twists, outside tier-1.

The file name does not match ``test_*.py``, so the default test run skips
it.  Run it with

    PYTHONPATH=src python -m pytest tests/bench_build.py --benchmark-only

``build_r`` is timed on the first datum of the Z2xZ2 and D4 catalogs that
builds a 16-term element, and ``koszul_twist`` (F, its solved form and the
three twist checks) on the first triangular D4 datum on the Klein group.
"""

import pytest

from qtriang.acceptance import qt_catalog, triangular_catalog
from qtriang.rmatrix import build_r, koszul_twist


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
    result = benchmark(koszul_twist, datum)
    assert result.all_passed
