"""Per-layer micro-benchmarks for minimal supports, outside tier-1.

The file name does not match ``test_*.py``, so the default test run skips
it.  Run it with

    PYTHONPATH=src python -m pytest tests/bench_supports.py --benchmark-only

``minimal_support`` (both supports, their closure and inclusion-span
checks, and the pairing-map checks) is timed on a unitary 16-term
structure of D4 and a 16-term structure of Q8, which is not unitary.
"""

import pytest

from qtriang.acceptance import qt_catalog
from qtriang.rmatrix import minimal_support

CASES = [("D4", True), ("Q8", False)]


def _structure(name: str, unitary: bool):
    catalog = qt_catalog(name)
    idx = next(
        m[0]
        for m in catalog.dedup
        if len(catalog.structures[m[0]].rmatrix.terms) == 16
        and catalog.structures[m[0]].unitary == unitary
    )
    return catalog.structures[idx].rmatrix, catalog.data[idx]


@pytest.mark.parametrize("name, unitary", CASES, ids=["D4-16-unitary", "Q8-16"])
def test_minimal_support(benchmark, name, unitary):
    r, datum = _structure(name, unitary)
    support = benchmark(minimal_support, r, datum)
    assert support.all_passed
    assert support.left_dim == support.right_dim == datum.domain.order
