"""Per-layer micro-benchmarks for braided symmetric-group actions, outside tier-1.

The file name does not match ``test_*.py``, so the default test run skips
it.  Run it with

    PYTHONPATH=src python -m pytest tests/bench_braided.py --benchmark-only

Construction (the generators on the n-th tensor power, without checks) and
``validate`` are timed apart, on the regular representation, for the
4- and 16-term triangular structures of D4 and the 4-term one of Q8.  The
exterior square and cube and the long-cycle trace table at p = 2 and 3 are
timed on the regular representation for the 16-term D4 and the 4-term Q8
structure.
"""

import pytest

from qtriang.acceptance import triangular_catalog
from qtriang.charring import (
    BraidedAction,
    _long_cycle_traces,
    exterior_power_char,
    regular_rep,
)

CASES = [("D4", 4), ("D4", 16), ("Q8", 4)]
TRACE_CASES = [("D4", 16), ("Q8", 4)]


def _structure(name: str, terms: int):
    catalog = triangular_catalog(name)
    return next(
        r for r in (catalog.rmats[m[0]] for m in catalog.dedup) if len(r.terms) == terms
    )


@pytest.mark.parametrize("power", [2, 3])
@pytest.mark.parametrize("name, terms", CASES, ids=[f"{n}-{t}" for n, t in CASES])
def test_build(benchmark, name, terms, power):
    r = _structure(name, terms)
    rep = regular_rep(r.group)
    action = benchmark(lambda: BraidedAction(rep, r, power, validate=False))
    assert len(action.generators) == power - 1


@pytest.mark.parametrize("power", [2, 3])
@pytest.mark.parametrize("name, terms", CASES, ids=[f"{n}-{t}" for n, t in CASES])
def test_validate(benchmark, name, terms, power):
    r = _structure(name, terms)
    action = BraidedAction(regular_rep(r.group), r, power, validate=False)
    benchmark(action.validate)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name, terms", TRACE_CASES, ids=[f"{n}-{t}" for n, t in TRACE_CASES])
def test_exterior_power(benchmark, name, terms, n):
    r = _structure(name, terms)
    rep = regular_rep(r.group)
    ext = benchmark(lambda: exterior_power_char(rep, r, n))
    assert ext.group == r.group


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name, terms", TRACE_CASES, ids=[f"{n}-{t}" for n, t in TRACE_CASES])
def test_long_cycle_table(benchmark, name, terms, p):
    r = _structure(name, terms)
    rep = regular_rep(r.group)
    table = benchmark(lambda: _long_cycle_traces(rep, r, p))
    assert sorted(table) == sorted(r.group.center())
