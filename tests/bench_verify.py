"""Per-layer micro-benchmarks for the quasitriangularity verifier, outside tier-1.

The file name does not match ``test_*.py``, so the default test run skips
it.  Run it with

    PYTHONPATH=src python -m pytest tests/bench_verify.py --benchmark-only

``verify_qt`` (inverse, diagonal commutation, both coproduct identities,
Yang-Baxter, counits and antipodes) is timed on the first 16-term
structures of D4 and Q8 and on the first 4-term structure of Z2xZ2.
"""

import pytest

from qtriang.acceptance import qt_catalog
from qtriang.rmatrix import verify_qt

CASES = [("D4", 16), ("Q8", 16), ("Z2xZ2", 4)]


@pytest.mark.parametrize("name, terms", CASES, ids=["D4-16", "Q8-16", "Z2xZ2-4"])
def test_verify_qt(benchmark, name, terms):
    catalog = qt_catalog(name)
    r = next(r for r in catalog.rmats if len(r.terms) == terms)
    report = benchmark(verify_qt, r)
    assert report.all_passed
