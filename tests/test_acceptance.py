"""Acceptance gate: every criterion at its stated (exact) tolerance.

Each gate test reads one criterion from a single ``qtriang selftest`` run
shared by the session (the CLI test reads the same run), prints its
one-line summary, and asserts the criterion passed.  Criterion 3 is known
to fail as literally stated: the datum-to-element map is many-to-one, and
data with distinct inclusions can build elements that are nevertheless
unitary (first counterexample on Z2xZ2).  Both one-sided refinements are
verified inside the criterion and reported in its detail line; the test is
left honestly red rather than weakened.

The criteria over the catalog check each distinct element once and report
the outcome for every datum that builds it.  The tests after the gate
inject a failure on one group, call their criterion directly and expect
every datum of that group in the count, so no group may reuse another
group's answer.
"""

import sys
from collections import Counter

from qtriang import acceptance, charring, classify, linalg, rmatrix
from qtriang.charring import Braiding, ClassFunction
from qtriang.cyclotomic import CycScalar
from qtriang.groups import CATALOG_NAMES
from qtriang.hopf import GATensor


def _run(selftest, number):
    _, doc = selftest
    result = acceptance.CriterionResult(**doc["criteria"][number - 1])
    print()
    print(result.line())
    assert result.number == number
    assert result.passed, result.details
    return result


def test_criterion_01_koszul_golden_value(selftest):
    _run(selftest, 1)


def test_criterion_02_soundness_sweep(selftest):
    _run(selftest, 2)


def test_criterion_03_triangular_iff_unitary(selftest):
    _run(selftest, 3)


def test_criterion_04_markov_identities(selftest):
    _run(selftest, 4)


def test_criterion_05_minimal_support(selftest):
    _run(selftest, 5)


def test_criterion_06_exterior_equals_lambda(selftest):
    _run(selftest, 6)


def test_criterion_07_cyclic_operation_instances(selftest):
    _run(selftest, 7)


def test_criterion_08_lambda_ring_axioms(selftest):
    _run(selftest, 8)


def test_criterion_09_koszul_twist(selftest):
    _run(selftest, 9)


def test_criterion_10_braided_action_invariants(selftest):
    _run(selftest, 10)


def _fails_with(fn, count_line, first):
    result = fn()
    assert not result.passed
    assert result.details.startswith(count_line), result.details
    assert f"; first: {first}" in result.details, result.details


def _count_markov_elements(monkeypatch, counts):
    """Count ``markov_element`` calls through every qtriang module that binds it."""
    real = rmatrix.markov_element

    def counting(*args):
        counts["markov_element"] += 1
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qtriang" and getattr(module, "markov_element", None) is real:
            monkeypatch.setattr(module, "markov_element", counting)


def test_run_all_reads_each_structure_once(monkeypatch):
    # On fresh caches the suite enumerates each group's catalog once (340
    # data); criterion 1 enumerates Z2 (2 data) again to time it.  R is
    # built once per dedup class: 44 distinct structures, and Z2's 2 again.
    # Each dedup class is one Braiding, built with its catalog (44, and
    # Z2's 2 again), which the triangular view and every criterion share:
    # it is verified once, and the 22 distinct triangular structures form
    # their Markov element once.  A separately built triangular catalog and
    # a Braiding per criterion took 68 verify_qt calls, 404 build_r calls
    # and 66 Braidings in criteria 6, 7 and 10; building R for every datum
    # took 342 build_r calls; forming u outside the Braiding took 270
    # Markov elements (22 in criterion 4, 186 in criterion 7 and 62 in
    # criterion 9).
    acceptance.qt_catalog.cache_clear()
    counts = Counter()

    def count(owner, attr):
        real = getattr(owner, attr)

        def counting(*args):
            counts[attr] += 1
            return real(*args)

        monkeypatch.setattr(owner, attr, counting)

    count(charring, "verify_qt")
    count(classify, "build_r")
    count(Braiding, "__init__")
    _count_markov_elements(monkeypatch, counts)
    acceptance.run_all(emit=None)
    expected = {"verify_qt": 44, "build_r": 46, "__init__": 46, "markov_element": 22}
    assert counts == expected, counts


def test_criteria_07_09_read_each_structures_markov_element(monkeypatch):
    # On fresh catalogs criterion 4 forms the Markov element of each of the
    # 22 distinct triangular structures; criteria 7 and 9 then read it from
    # the structure's Braiding.  They formed it once per long-cycle trace
    # table (186) and once per triangular datum (62).
    acceptance.qt_catalog.cache_clear()
    counts = Counter()
    _count_markov_elements(monkeypatch, counts)
    formed = []
    for criterion in (acceptance.criterion_4, acceptance.criterion_7, acceptance.criterion_9):
        before = counts["markov_element"]
        assert criterion().passed
        formed.append(counts["markov_element"] - before)
    assert formed == [22, 0, 0]


def test_criterion_09_twists_with_each_structures_r(monkeypatch):
    # Each triangular datum is twisted with the R its dedup class already
    # holds, so on warm catalogs the criterion builds no R; it built one per
    # datum, 62 in all.
    for name in CATALOG_NAMES:
        acceptance.triangular_catalog(name)
    calls = []
    for module in (rmatrix, classify):
        real = module.build_r
        monkeypatch.setattr(
            module, "build_r", lambda datum, real=real: calls.append(datum) or real(datum)
        )
    result = acceptance.criterion_9()
    assert result.passed
    assert result.details == "62 triangular entries twisted, 0 failures"
    assert calls == []


def test_criterion_04_checks_class_facts_once_per_class(monkeypatch):
    # The Markov facts that depend on R alone are read once for each of the
    # 22 distinct triangular structures; the value equation, which reads the
    # datum's form, once for each of the 62 triangular data.
    counts = Counter()
    for attr in ("markov_element_flipped", "verify_markov_equation"):
        real = getattr(acceptance, attr)

        def counting(*args, attr=attr, real=real):
            counts[attr] += 1
            return real(*args)

        monkeypatch.setattr(acceptance, attr, counting)
    assert acceptance.criterion_4().passed
    assert counts == {"markov_element_flipped": 22, "verify_markov_equation": 62}, counts


def test_criterion_04_reports_every_datum_of_a_failing_group(monkeypatch):
    # A class-level failure on D4 is reported for every D4 datum, ahead of a
    # per-datum failure on each datum of Q8.
    real_flipped = acceptance.markov_element_flipped
    real_equation = acceptance.verify_markov_equation

    def flipped(r):
        out = real_flipped(r)
        return out.scale(2) if r.group.name == "D4" else out

    def equation(datum, u):
        return datum.group.name != "Q8" and real_equation(datum, u)

    monkeypatch.setattr(acceptance, "markov_element_flipped", flipped)
    monkeypatch.setattr(acceptance, "verify_markov_equation", equation)
    _fails_with(
        acceptance.criterion_4,
        "62 triangular entries checked, 28 problems",
        "('D4', 0, ['conventions_disagree'])",
    )


def test_criterion_05_reports_every_datum_of_a_failing_group(monkeypatch):
    real = acceptance.minimal_support

    def failing_on_q8(built, datum, *shared):
        support = real(built, datum, *shared)
        if built.group.name == "Q8":
            support.checks["alpha_injected"] = False
        return support

    monkeypatch.setattr(acceptance, "minimal_support", failing_on_q8)
    _fails_with(
        acceptance.criterion_5,
        "340 data checked, 26 problems",
        "('Q8', 0, ['alpha_injected'])",
    )


def test_criterion_05_reduces_each_support_once(monkeypatch):
    # Each support is eliminated once and every membership and equality
    # question is read from its canonical basis; one elimination per
    # question made 3,336 rref calls and 16,238 scalar inverses.  Each
    # support report makes two eliminations and reads R's leg products and
    # unitarity from its structure: no unitarity test (one per report, 44,
    # when each report formed R R21) and no GATensor product (88 when each
    # formed R13 R12 and R13 R23 again).
    # Every report is read first, as criterion 2 reads them in ``selftest``.
    for name in CATALOG_NAMES:
        assert acceptance.qt_catalog(name).all_verified
    counts = Counter()

    def count(owner, attr):
        real = getattr(owner, attr)

        def counting(*args):
            counts[attr] += 1
            return real(*args)

        monkeypatch.setattr(owner, attr, counting)

    count(acceptance, "minimal_support")
    count(rmatrix, "verify_unitary")
    real_mul = GATensor.__mul__

    def mul(left, right):  # the closure checks multiply arity-1 basis tensors
        counts["leg or R R21 product"] += left.arity > 1
        return real_mul(left, right)

    monkeypatch.setattr(GATensor, "__mul__", mul)
    count(linalg, "rref")
    count(CycScalar, "inverse")
    assert acceptance.criterion_5().passed
    reports = counts["minimal_support"]
    assert reports == 44, counts
    assert counts["rref"] == 2 * reports, counts
    assert counts["verify_unitary"] == counts["leg or R R21 product"] == 0, counts
    assert counts["inverse"] <= 600, counts


def test_criterion_06_reports_every_datum_of_a_failing_group(monkeypatch):
    real = acceptance.lambda_from_adams

    def wrong_on_q8(x, n, u):
        out = real(x, n, u)
        return out + ClassFunction.constant(x.group, 1) if x.group.name == "Q8" else out

    monkeypatch.setattr(acceptance, "lambda_from_adams", wrong_on_q8)
    _fails_with(
        acceptance.criterion_6,
        "1092 (entry, representation, degree) triples, 32 mismatches",
        "('Q8', 0, ",
    )


def test_criterion_07_reports_every_datum_of_a_failing_group(monkeypatch):
    real = acceptance.adams_twisted

    def wrong_on_q8(x, u, k):
        out = real(x, u, k)
        return out + ClassFunction.constant(x.group, 1) if x.group.name == "Q8" else out

    monkeypatch.setattr(acceptance, "adams_twisted", wrong_on_q8)
    _fails_with(
        acceptance.criterion_7,
        "819 (entry, rep, prime, root) cases, 24 failures",
        "('Q8', 0, ",
    )


def test_criterion_10_reports_every_datum_of_a_failing_group(monkeypatch):
    # A failure of ``Braiding.validate``, and then one of ``Braiding.check``,
    # on S3 is reported for every S3 datum.
    for method in ("validate", "check"):
        real = getattr(Braiding, method)

        def raising_on_s3(self, rep, *rest, real=real):
            if rep.group.name == "S3":
                raise ValueError("injected failure")
            return real(self, rep, *rest)

        monkeypatch.setattr(Braiding, method, raising_on_s3)
        _fails_with(
            acceptance.criterion_10,
            "606 (entry, rep, power) actions validated, 6 failures",
            "('S3', 0, ",
        )
        monkeypatch.undo()
