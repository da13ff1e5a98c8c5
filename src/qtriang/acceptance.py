"""The acceptance suite: one callable per criterion, exact everywhere.

Each criterion function measures its own runtime, returns a structured
result, and is shared verbatim between the pytest suite and the CLI
``selftest`` command.  The per-group catalogs are cached per process by
group name, and the test representations (``standard_reps``) are built,
checked and traced once per bundled group object: criteria 6, 7 and 8
read the character each one keeps.  Running the suite in order enumerates
each group's catalog once (criterion 1 times its own enumeration of Z2).  The
triangular catalog is a view of the full one, sharing its one
``charring.Braiding`` per dedup class, so each structure's report, Markov
element, unitarity, leg products and braided data are formed once per
process: criterion 5 reads the leg products and unitarity, criteria
6, 7 and 10 form R's braided data once per (structure, power), criterion 7
reads one long-cycle trace table per (structure, representation, prime),
and criterion 10 builds no matrix action.  Check results are not cached:
on every run, a criterion over the catalog checks each distinct element
once, on the first datum of its dedup class, and reports the outcome for
every datum of the class.

All comparisons are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .charring import (
    Braiding,
    ClassFunction,
    adams_twisted,
    lambda_from_adams,
    standard_reps,
    verify_lambda_ring,
    _cyclic_value,
    _lambda_additivity_failures,
    _lambda_sequence,
)
from .classify import Catalog, enumerate_qt
from .cyclotomic import CycScalar, root_of_unity
from .groups import CATALOG_NAMES, bundled_group
from .hopf import GATensor
from .rmatrix import (
    koszul_twist,
    markov_element_flipped,
    minimal_support,
    verify_markov_equation,
)

REGULAR_REP_GROUPS = ("Z2", "Z4", "Z2xZ2")


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{status}] {self.name} ({self.seconds:.2f}s): {self.details}"


@lru_cache(maxsize=None)
def qt_catalog(name: str) -> Catalog:
    return enumerate_qt(bundled_group(name))


def triangular_catalog(name: str) -> Catalog:
    return qt_catalog(name).triangular


def _triangular_classes():
    """(name, triangular catalog, members, structure) per dedup class, in catalog order."""
    for name in CATALOG_NAMES:
        catalog = triangular_catalog(name)
        for members in catalog.dedup:
            yield name, catalog, members, catalog.structures[members[0]]


def _power_test_reps(name: str) -> tuple:
    reps = standard_reps(bundled_group(name))
    return reps if name in REGULAR_REP_GROUPS else reps[:-1]


def _golden_koszul(group) -> GATensor:
    half = Fraction(1, 2)
    return GATensor(
        group, 2, {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half}
    )


def criterion_1() -> CriterionResult:
    """The sign-braided structure on k[Z/2] appears bit-exactly."""
    start = time.perf_counter()
    group = bundled_group("Z2")
    catalog = enumerate_qt(group).triangular
    golden = _golden_koszul(group)
    rmats = [s.rmatrix for s in catalog.structures]
    hits = [r for r in rmats if r == golden]
    bit_exact = any(r.canonical_key() == golden.canonical_key() for r in rmats)
    elapsed = time.perf_counter() - start
    passed = len(hits) >= 1 and bit_exact and elapsed < 1.0
    details = (
        f"triangular catalog of Z2 has {len(catalog)} entries, "
        f"{len(hits)} equal to the golden half-sum element (bit-exact: {bit_exact}), "
        f"runtime {elapsed:.3f}s < 1s"
    )
    return CriterionResult(1, "Koszul golden value on Z2", passed, details, elapsed)


def criterion_2() -> CriterionResult:
    """Every enumerated datum builds an element passing the full verifier."""
    start = time.perf_counter()
    total = 0
    failures = []
    for name in CATALOG_NAMES:
        catalog = qt_catalog(name)
        total += len(catalog)
        for idx, structure in enumerate(catalog.structures):
            if not structure.report.all_passed:
                failures.append((name, idx, [c.name for c in structure.report.failed()]))
    elapsed = time.perf_counter() - start
    passed = not failures and elapsed < 120.0
    details = (
        f"{total} data over {len(CATALOG_NAMES)} groups, "
        f"{len(failures)} verification failures, runtime {elapsed:.1f}s < 120s"
    )
    if failures:
        details += f"; first failure: {failures[0]}"
    return CriterionResult(2, "soundness sweep over the catalog", passed, details, elapsed)


def criterion_3() -> CriterionResult:
    """Literal check: the built element is unitary exactly when the datum is flagged.

    The flag is i = j with skewsymmetric form, per the datum invariant.  The
    result also reports the two one-sided refinements so a failure is fully
    diagnosed: flagged data must build unitary elements, and a dedup class
    is unitary exactly when it contains a flagged datum.
    """
    start = time.perf_counter()
    counterexample = None
    flagged_implies_unitary = True
    class_equivalence = True
    checked = 0
    for name in CATALOG_NAMES:
        catalog = qt_catalog(name)
        for idx, datum in enumerate(catalog.data):
            checked += 1
            unitary = catalog.structures[idx].unitary
            if datum.triangular and not unitary:
                flagged_implies_unitary = False
            if unitary != datum.triangular and counterexample is None:
                counterexample = (name, idx, datum, unitary)
        for members in catalog.dedup:
            unitary = catalog.structures[members[0]].unitary
            has_flagged = any(catalog.data[i].triangular for i in members)
            if unitary != has_flagged:
                class_equivalence = False
    elapsed = time.perf_counter() - start
    passed = counterexample is None
    if passed:
        details = f"unitarity equals the triangular flag on all {checked} data"
    else:
        name, idx, datum, unitary = counterexample
        details = (
            f"fails on raw data: {name}[{idx}] {datum} builds a unitary element "
            f"({unitary}) while flagged triangular={datum.triangular}; "
            f"refinements: flagged=>unitary holds: {flagged_implies_unitary}, "
            f"dedup class unitary iff it contains a flagged datum: {class_equivalence}"
        )
    return CriterionResult(
        3, "triangular flag matches unitarity per datum", passed, details, elapsed
    )


def criterion_4() -> CriterionResult:
    """Markov element facts per triangular class, and the value equation per triangular entry."""
    start = time.perf_counter()
    problems = []
    checked = 0
    for name, catalog, members, structure in _triangular_classes():
        group = catalog.group
        u = structure.markov
        class_tags = []
        if u != markov_element_flipped(structure.rmatrix):
            class_tags.append("conventions_disagree")
        grouplike = u.is_grouplike()
        if not grouplike:
            class_tags.append("not_grouplike")
        else:
            u_idx = u.grouplike_index()
            if u_idx not in group.center():
                class_tags.append("not_central")
            if group.table[u_idx][u_idx] != group.identity:
                class_tags.append("not_involution")
        for idx in members:
            checked += 1
            tags = list(class_tags)
            if grouplike and not verify_markov_equation(catalog.data[idx], u):
                tags.append("value_equation_fails")
            if tags:
                problems.append((name, idx, tags))
    elapsed = time.perf_counter() - start
    details = f"{checked} triangular entries checked, {len(problems)} problems" + _first(problems)
    return CriterionResult(4, "Markov element identities", not problems, details, elapsed)


def _first(problems: list) -> str:
    # Problems lead with a group name and an index in that group.  Checks run
    # per distinct element, so name the first by (group, index); min keeps
    # the earliest of equal keys, the datum's first failing check.
    if not problems:
        return ""
    return f"; first: {min(problems, key=lambda p: (CATALOG_NAMES.index(p[0]), p[1]))}"


def _support_tags(structure: Braiding, datum) -> list[str]:
    tags = []
    support = minimal_support(structure.rmatrix, datum, structure.legs, structure.unitary)
    if support.left_dim != datum.domain.order:
        tags.append("left_dimension")
    if support.right_dim != datum.domain.order:
        tags.append("right_dimension")
    tags.extend(k for k, ok in support.checks.items() if not ok)
    return tags


def criterion_5() -> CriterionResult:
    """Minimal supports: dimensions, inclusion spans, closures, pairing map.

    The spans are compared with the inclusion images, so each distinct
    element is checked once per (left, right) image pair among its data.
    """
    start = time.perf_counter()
    problems = []
    checked = 0
    for name in CATALOG_NAMES:
        catalog = qt_catalog(name)
        for members in catalog.dedup:
            by_images: dict = {}
            for idx in members:
                datum = catalog.data[idx]
                images = (datum.incl_left.image, datum.incl_right.image)
                by_images.setdefault(images, []).append(idx)
            for same in by_images.values():
                checked += len(same)
                tags = _support_tags(catalog.structures[same[0]], catalog.data[same[0]])
                if tags:
                    problems.extend((name, idx, tags) for idx in same)
    elapsed = time.perf_counter() - start
    details = f"{checked} data checked, {len(problems)} problems" + _first(problems)
    return CriterionResult(
        5, "minimal support and pairing map structure", not problems, details, elapsed
    )


def criterion_6() -> CriterionResult:
    """Braided exterior powers match the twisted Newton recursion, n <= 3."""
    start = time.perf_counter()
    problems = []
    checked = 0
    for name, _, members, structure in _triangular_classes():
        u = structure.markov.grouplike_index()
        for rep in _power_test_reps(name):
            for n in range(4):
                checked += len(members)
                left = structure.exterior_power_char(rep, n)
                if left != lambda_from_adams(rep.character(), n, u):
                    problems.extend((name, idx, rep.name, n) for idx in members)
    elapsed = time.perf_counter() - start
    passed = not problems and elapsed < 120.0
    details = (
        f"{checked} (entry, representation, degree) triples, "
        f"{len(problems)} mismatches, runtime {elapsed:.1f}s < 120s" + _first(problems)
    )
    return CriterionResult(
        6, "exterior powers equal twisted lambda operations", passed, details, elapsed
    )


def criterion_7() -> CriterionResult:
    """Cyclic-operation trace identities at primes 2 and 3.

    For each triangular entry, test representation, prime p and nontrivial
    p-th root eps, and central z: the categorical-trace difference of the
    two cyclic projectors equals the categorical trace of z^p on X; the
    plain-trace difference equals the twisted Adams operation at z; the
    long-cycle trace identities hold for every nonzero cycle power; and the
    nontrivial-root component reduces to the scalar sum, which vanishes.
    """
    start = time.perf_counter()
    problems = []
    checked = 0
    for name, catalog, members, structure in _triangular_classes():
        u = structure.markov.grouplike_index()
        for rep in _power_test_reps(name):
            for p in (2, 3):
                root_tags = _cyclic_root_tags(catalog.group, rep, structure, u, p)
                for eps_power, tags in enumerate(root_tags, start=1):
                    checked += len(members)
                    if tags:
                        problems.extend(
                            (name, idx, rep.name, p, eps_power, tags) for idx in members
                        )
    elapsed = time.perf_counter() - start
    details = f"{checked} (entry, rep, prime, root) cases, {len(problems)} failures"
    details += _first(problems)
    return CriterionResult(
        7, "cyclic operation and long-cycle trace identities", not problems, details, elapsed
    )


def _cyclic_root_tags(group, rep, braiding, u, p) -> list[list[str]]:
    """Failure tags of criterion 7 for eps = zeta_p^k, k = 1 .. p-1, in order.

    Every value comes from one long-cycle trace table per (R, rep, p); what
    does not depend on eps (trivial-root values, long-cycle checks,
    categorical traces of z^p, identity terms, Adams values) is read once.
    """
    one = CycScalar.one()
    table = braiding.long_cycle_traces(rep, p)
    chi = rep.character()
    adams = adams_twisted(chi, u, p)
    per_center = []
    for z, traces in table.items():
        cat_zp = chi.evaluate(group.table[u][group.power(z, p)])
        long_cycle_tags = [
            f"long_cycle_{i}_at_{z}" for i in range(1, p) if traces[i] != cat_zp
        ]
        ident_term = traces[0] * CycScalar.rational(Fraction(1, p))
        per_center.append((z, cat_zp, adams.evaluate(z), long_cycle_tags, ident_term))
    vals_one = {z: _cyclic_value(traces, one) for z, traces in table.items()}
    out = []
    for eps_power in range(1, p):
        eps = root_of_unity(p, eps_power)
        vals_eps = {z: _cyclic_value(traces, eps) for z, traces in table.items()}
        tags = []
        # The scalar component of the nontrivial-root argument.
        scalar_sum = CycScalar.zero()
        power = one
        for _ in range(p):
            scalar_sum = scalar_sum + power
            power = power * eps
        if scalar_sum * CycScalar.rational(Fraction(1, p)) != 0:
            tags.append("root_sum_nonzero")
        for z, cat_zp, adams_at_z, long_cycle_tags, ident_term in per_center:
            if vals_one[z] - vals_eps[z] != cat_zp:
                tags.append(f"projector_difference_at_{z}")
            uz = group.table[u][z]
            if vals_one[uz] - vals_eps[uz] != adams_at_z:
                tags.append(f"twisted_adams_at_{z}")
            tags.extend(long_cycle_tags)
            # Nontrivial-root component: subtracting the identity term leaves
            # (1/p) sum_{i>=1} eps^i times the categorical trace of z^p.
            if vals_eps[z] - ident_term != cat_zp * CycScalar.rational(Fraction(-1, p)):
                tags.append(f"eps_component_at_{z}")
        out.append(tags)
    return out


def criterion_8() -> CriterionResult:
    """Lambda-ring axioms for the twisted operations on every character ring."""
    start = time.perf_counter()
    problems = []
    checked = 0
    rng = random.Random(20260808)
    for name in CATALOG_NAMES:
        group = bundled_group(name)
        chars = [rep.character() for rep in standard_reps(group)]
        for u in group.central_involutions():
            checked += 1
            checks = verify_lambda_ring(u, chars)
            bad = [k for k, ok in checks.items() if not ok]
            lzero = _lambda_sequence(ClassFunction.constant(group, 0), 6, u)
            # Lambda additivity on random virtual characters.
            for _ in range(3):
                x = _random_virtual(rng, group, chars)
                y = _random_virtual(rng, group, chars)
                lx = _lambda_sequence(x, 6, u)
                failures = _lambda_additivity_failures(
                    lx, _lambda_sequence(y, 6, u), _lambda_sequence(x + y, 6, u)
                )
                bad.extend(f"random_lambda_additivity_{i}" for i in failures)
                # Series inversion: sum_{i+j=n} (-1)^i lambda^i sigma^j = 0, with
                # sigma^j(x) = (-1)^j lambda^j(-x), is lambda_t(x) lambda_t(-x) = 1.
                failures = _lambda_additivity_failures(lx, _lambda_sequence(-x, 6, u), lzero)
                bad.extend(f"series_inversion_{n}" for n in failures)
            if bad:
                problems.append((name, u, sorted(set(bad))))
    elapsed = time.perf_counter() - start
    details = f"{checked} (group, involution) rings checked to depth 6, {len(problems)} failures"
    details += _first(problems)
    return CriterionResult(
        8, "twisted lambda-ring axioms to depth 6", not problems, details, elapsed
    )


def _random_virtual(rng, group, chars) -> ClassFunction:
    out = ClassFunction.constant(group, 0)
    for c in chars:
        out = out + c.scale(rng.randint(-2, 3))
    return out


def criterion_9() -> CriterionResult:
    """The graded twist exists and satisfies all three conditions, every entry."""
    start = time.perf_counter()
    problems = []
    checked = 0
    for name in CATALOG_NAMES:
        catalog = triangular_catalog(name)
        for idx, (datum, structure) in enumerate(zip(catalog.data, catalog.structures)):
            checked += 1
            try:
                twist = koszul_twist(datum, structure.rmatrix, structure.markov)
            except ValueError as exc:
                problems.append((name, idx, str(exc)))
                continue
            if not twist.all_passed:
                problems.append(
                    (name, idx, [c.name for c in twist.report.failed()])
                )
    elapsed = time.perf_counter() - start
    details = f"{checked} triangular entries twisted, {len(problems)} failures" + _first(problems)
    return CriterionResult(
        9, "graded twist conditions on every triangular entry", not problems, details, elapsed
    )


def criterion_10() -> CriterionResult:
    """Every braiding gives an honest symmetric-group action for n <= 3."""
    start = time.perf_counter()
    problems = []
    checked = 0
    for name, _, members, structure in _triangular_classes():
        for rep in standard_reps(bundled_group(name)):
            for n in (2, 3):
                checked += len(members)
                try:
                    structure.check(rep)
                    structure.validate(rep, n)
                except ValueError as exc:
                    problems.extend((name, idx, rep.name, n, str(exc)) for idx in members)
    elapsed = time.perf_counter() - start
    details = f"{checked} (entry, rep, power) actions validated, {len(problems)} failures"
    details += _first(problems)
    return CriterionResult(
        10, "braided symmetric-group action invariants", not problems, details, elapsed
    )


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(emit=print) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        result = fn()
        results.append(result)
        if emit is not None:
            emit(result.line())
    return results
