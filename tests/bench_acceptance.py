"""Per-criterion benchmarks of the acceptance suite, outside tier-1.

The file name does not match ``test_*.py``, so the default test run skips
it.  Run it with

    PYTHONPATH=src python -m pytest tests/bench_acceptance.py --benchmark-only

Criteria 4, 6, 7, 8 and 9 are timed on warm catalogs, as a ``selftest``
run meets them: every group's catalog is enumerated and each criterion has
run once, so each triangular structure's report, Markov element and braided
words exist, and a round times the checks the criterion repeats on every
run.  Criteria 6 and 8 time the twisted lambda operations: the Newton
recursion against braided exterior powers, and the lambda-ring axioms to
depth 6 on every character ring.  ``PYTHONPATH=<checkout>/src`` times another checkout with this file;
it needs only the criterion functions and ``qt_catalog``.
"""

import pytest

from qtriang import acceptance
from qtriang.charring import standard_reps
from qtriang.groups import bundled_group


@pytest.fixture(scope="module")
def warm_catalogs():
    for name in acceptance.CATALOG_NAMES:
        acceptance.triangular_catalog(name)
        standard_reps(bundled_group(name))
    assert acceptance.criterion_4().passed


@pytest.mark.parametrize("number", [4, 6, 7, 8, 9])
def test_criterion(benchmark, warm_catalogs, number):
    criterion = getattr(acceptance, f"criterion_{number}")
    assert criterion().passed
    assert benchmark(criterion).passed
