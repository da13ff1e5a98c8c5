"""Per-layer micro-benchmarks for braided symmetric-group actions, outside tier-1.

The file name does not match ``test_*.py``, so the default test run skips
it.  Run it with

    PYTHONPATH=src python -m pytest tests/bench_braided.py --benchmark-only

Construction (the generators on the n-th tensor power, without checks) and
validation are timed apart, on the regular representation, for the
4- and 16-term triangular structures of D4 and the 4-term one of Q8.
The image rho^(x)k of one tensor, which construction and validation
start from, is timed on the regular representation for the 16-term D4
and the 4-term Q8 structure (k = 2) and for the left Yang-Baxter side
R12 R13 R23 of each (k = 3).  The regular representation keeps its
column maps, so these images re-key R's rows without scalar arithmetic.
Validation runs on a fresh ``Braiding`` in each round, so R R21 and R's
braided differences are formed every time, as on a first call.  The
exterior square and cube and the long-cycle trace table at p = 2 and 3 are
timed on the regular representation for the 16-term D4 and the 4-term Q8
structure, and the exterior powers n = 4, 5 and 6 on the regular
representation of Z2xZ2 for its first 16-term structure, each on a fresh
``Braiding`` (a checkout that traces all n! signed words takes over a minute
per call at n = 6).  The exterior powers n = 2, 3 and 4 and the long-cycle
trace tables p = 2, 3 and 4 are also timed on one warm ``Braiding`` per
structure, R's report and braided data formed before the timing, on the
regular representation for the 16-term D4 and the 4-term Q8 structure:
the cost each ``exterior`` request pays per representation once R's data
exist, which is the braided power sums and Newton's identity.  Medians of
these small timings spread widely between runs on a shared machine; read
them with ``--benchmark-columns=min,median``.  Exterior powers on three R on S3 that fail a braided
identity in the group algebra, each on a fresh ``Braiding``, time the
``validate`` call that decides whether the representation kills R's
differences, then Newton's identity where it does: F21^-1 F on the
regular rep at n = 3 (refused, braid relation), s (x) s on it at n = 2
(refused, not equivariant), and s (x) s on the sign rep at n = 2
(passes).  Criteria 6, 7 and 10 of the
acceptance suite are timed whole, each round on freshly enumerated
catalogs whose structures are not yet read, so each round forms R R21,
the Markov elements and the braided data that a first run forms; the
enumeration and the test representations are outside the timing.  ``PYTHONPATH=<checkout>/src`` times another
checkout with this file; validation and the long-cycle table need
``Braiding``, and the other cases only names that checkouts without it
have as well.
"""

import math
from fractions import Fraction

import pytest

from qtriang import acceptance, charring
from qtriang.acceptance import triangular_catalog
from qtriang.charring import (
    BraidedAction,
    ClassFunction,
    exterior_power_char,
    linear_character_reps,
    regular_rep,
    standard_reps,
)
from qtriang.groups import bundled_group
from qtriang.hopf import GATensor
from qtriang.rmatrix import LegProducts

CASES = [("D4", 4), ("D4", 16), ("Q8", 4)]
TRACE_CASES = [("D4", 16), ("Q8", 4)]
IMAGE_CASES = [("D4", 16, 2), ("Q8", 4, 2), ("D4", 16, 3), ("Q8", 4, 3)]


def _structure(name: str, terms: int):
    catalog = triangular_catalog(name)
    rmats = (catalog.structures[m[0]].rmatrix for m in catalog.dedup)
    return next(r for r in rmats if len(r.terms) == terms)


@pytest.mark.parametrize("power", [2, 3])
@pytest.mark.parametrize("name, terms", CASES, ids=[f"{n}-{t}" for n, t in CASES])
def test_build(benchmark, name, terms, power):
    r = _structure(name, terms)
    rep = regular_rep(r.group)
    action = benchmark(lambda: BraidedAction(rep, r, power, validate=False))
    assert len(action.generators) == power - 1


@pytest.mark.parametrize(
    "name, terms, arity", IMAGE_CASES, ids=[f"{n}-{t}-arity{k}" for n, t, k in IMAGE_CASES]
)
def test_image(benchmark, name, terms, arity):
    r = _structure(name, terms)
    tensor = r if arity == 2 else LegProducts(r).yang_baxter_sides[0]
    rep = regular_rep(r.group)
    image = benchmark(lambda: charring._image(rep, tensor))
    assert image.nrows == rep.dim**arity


@pytest.mark.parametrize("power", [2, 3])
@pytest.mark.parametrize("name, terms", CASES, ids=[f"{n}-{t}" for n, t in CASES])
def test_validate(benchmark, name, terms, power):
    r = _structure(name, terms)
    rep = regular_rep(r.group)
    benchmark(lambda: charring.Braiding(r).validate(rep, power))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name, terms", TRACE_CASES, ids=[f"{n}-{t}" for n, t in TRACE_CASES])
def test_exterior_power(benchmark, name, terms, n):
    r = _structure(name, terms)
    rep = regular_rep(r.group)
    ext = benchmark(lambda: exterior_power_char(rep, r, n))
    assert ext.group == r.group


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name, terms", TRACE_CASES, ids=[f"{n}-{t}" for n, t in TRACE_CASES])
def test_exterior_power_on_a_warm_braiding(benchmark, name, terms, n):
    r = _structure(name, terms)
    rep = regular_rep(r.group)
    braiding = charring.Braiding(r)
    first = braiding.exterior_power_char(rep, n)
    assert benchmark(lambda: braiding.exterior_power_char(rep, n)) == first


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("name, terms", TRACE_CASES, ids=[f"{n}-{t}" for n, t in TRACE_CASES])
def test_long_cycle_table_on_a_warm_braiding(benchmark, name, terms, p):
    r = _structure(name, terms)
    rep = regular_rep(r.group)
    braiding = charring.Braiding(r)
    first = braiding.long_cycle_traces(rep, p)
    assert benchmark(lambda: braiding.long_cycle_traces(rep, p)) == first


@pytest.mark.parametrize("n", [4, 5, 6])
def test_exterior_power_z2xz2_16_terms(benchmark, n):
    r = _structure("Z2xZ2", 16)
    rep = regular_rep(r.group)
    ext = benchmark(lambda: exterior_power_char(rep, r, n))
    assert ext.dim() == math.comb(rep.dim, n)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name, terms", TRACE_CASES, ids=[f"{n}-{t}" for n, t in TRACE_CASES])
def test_long_cycle_table(benchmark, name, terms, p):
    r = _structure(name, terms)
    rep = regular_rep(r.group)
    table = benchmark(lambda: charring.Braiding(r).long_cycle_traces(rep, p))
    assert sorted(table) == sorted(r.group.center())


def _difference_case(case: str):
    s3 = bundled_group("S3")
    if case == "twist-regular-3":
        f = GATensor(s3, 2, {(0, 0): 1, (1, 2): Fraction(1, 2)})
        message = "adjacent generators fail the braid relation"
        return regular_rep(s3), f.swap().inverse() * f, 3, message
    square = GATensor.basis(s3, 1, 1)
    if case == "square-regular-2":
        return regular_rep(s3), square, 2, "the braided action is not equivariant"
    return linear_character_reps(s3)[1], square, 2, None


@pytest.mark.parametrize("case", ["twist-regular-3", "square-regular-2", "square-linear-2"])
def test_exterior_refusal_or_pass(benchmark, case):
    rep, r, n, message = _difference_case(case)

    def run():
        try:
            return exterior_power_char(rep, r, n)
        except ValueError as exc:
            return str(exc)

    out = benchmark(run)
    if message is None:
        assert isinstance(out, ClassFunction)
    else:
        assert out == message


def _fresh_catalogs():
    acceptance.qt_catalog.cache_clear()
    # Checkouts that cache the triangular catalog apart clear it too.
    getattr(acceptance.triangular_catalog, "cache_clear", lambda: None)()
    for name in acceptance.CATALOG_NAMES:
        triangular_catalog(name)
        standard_reps(bundled_group(name))


@pytest.mark.parametrize("number", [6, 7, 10])
def test_criterion(benchmark, number):
    criterion = getattr(acceptance, f"criterion_{number}")
    assert criterion().passed
    benchmark.pedantic(criterion, setup=_fresh_catalogs, rounds=5)
