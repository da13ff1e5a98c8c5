from fractions import Fraction

import pytest

from qtriang.groups import (
    CATALOG_NAMES,
    AbelianGroup,
    abelian_normal_subgroups,
    bundled_group,
    cyclic_group,
    dihedral_group,
    enumerate_biforms,
    normal_inclusions,
    same_module_structure,
    subgroup_structure,
)
from qtriang import charring, jsonio
from qtriang.acceptance import qt_catalog, triangular_catalog
from qtriang.classify import _catalog, _enumerate_data, enumerate_qt
from qtriang.hopf import GATensor
from qtriang.jsonio import report_to_json
from qtriang.rmatrix import build_r, character_table, markov_element, verify_qt, verify_unitary


def test_trivial_group():
    cat = enumerate_qt(cyclic_group(1, "triv"))
    assert len(cat) == 1
    assert cat.structures[0].rmatrix == GATensor.unit(cat.group, 2)
    assert cat.all_verified


def test_z2_contains_koszul():
    cat = enumerate_qt(bundled_group("Z2")).triangular
    h = Fraction(1, 2)
    golden = GATensor(
        cat.group, 2, {(0, 0): h, (0, 1): h, (1, 0): h, (1, 1): -h}
    )
    assert golden in [s.rmatrix for s in cat.structures]
    assert len(cat) == 2


def test_z3_triangular_is_only_trivial():
    cat = enumerate_qt(bundled_group("Z3")).triangular
    assert len(cat) == 1
    assert cat.structures[0].rmatrix.is_unit()
    # oracle: no nondegenerate skewsymmetric form exists on Z/3
    assert not any(
        b.is_nondegenerate() and b.is_skewsymmetric() for b in enumerate_biforms(AbelianGroup((3,)))
    )


def test_q8_triangular_markov_elements():
    cat = enumerate_qt(bundled_group("Q8")).triangular
    markov_indices = {s.markov.grouplike_index() for s in cat.structures}
    # identity or the central involution -1 only
    assert markov_indices <= {0, 1}
    assert len(cat) == 2
    assert all(s.unitary for s in cat.structures)


def test_every_entry_verified():
    for name in ("Z2", "Z3", "Z4", "S3"):
        cat = qt_catalog(name)
        assert cat.all_verified
        assert all(s.rmatrix.arity == 2 for s in cat.structures)


def test_triangular_subset_of_full_catalog():
    for name in ("Z2", "Z4", "S3", "Q8"):
        full = qt_catalog(name)
        tri = triangular_catalog(name)
        full_keys = {s.rmatrix.canonical_key() for s in full.structures}
        for structure in tri.structures:
            assert structure.unitary
            assert structure.rmatrix.canonical_key() in full_keys


def test_flagged_triangular_entries_are_unitary():
    for name in ("Z2", "Z4", "Z2xZ2", "S3", "Q8"):
        cat = qt_catalog(name)
        for idx, datum in enumerate(cat.data):
            if datum.triangular:
                assert cat.structures[idx].unitary


def test_unitary_dedup_classes_contain_flagged_data():
    for name in ("Z2xZ2", "D4"):
        cat = qt_catalog(name)
        for members in cat.dedup:
            unitary = cat.structures[members[0]].unitary
            has_flagged = any(cat.data[i].triangular for i in members)
            assert unitary == has_flagged


def _exact_form(tensor):
    # The stored representation: term keys with each scalar's order and coordinates.
    return tuple(sorted((key, c.order, c.coeffs) for key, c in tensor.terms.items()))


def _checks(report):
    return [(c.name, c.passed, c.witness) for c in report.checks]


@pytest.mark.parametrize("name", ["D4", "Q8"])
def test_shared_results_equal_fresh_verification(name):
    cat = qt_catalog(name)
    for datum, structure in zip(cat.data, cat.structures):
        built = build_r(datum)
        assert _checks(structure.report) == _checks(verify_qt(built))
        assert structure.markov == markov_element(built)
        assert structure.unitary == verify_unitary(built)


def test_verify_qt_runs_once_per_exact_form(monkeypatch):
    calls = []

    def counting_verify_qt(tensor, *shared):
        calls.append(tensor)
        return verify_qt(tensor, *shared)

    monkeypatch.setattr(charring, "verify_qt", counting_verify_qt)
    cat = enumerate_qt(bundled_group("D4"))
    assert len(cat) == 58
    assert calls == []  # a structure verifies on first read, once
    for _ in range(2):
        assert cat.all_verified
    assert len(calls) == len({_exact_form(build_r(d)) for d in cat.data}) == 8


# Oracle: independent re-enumeration with all loops reversed.
def _reversed_enumeration(group, triangular_only):
    shapes = []
    seen = set()
    for subgroup in reversed(abelian_normal_subgroups(group)):
        factors = subgroup_structure(group, subgroup).domain.factors
        if factors not in seen:
            seen.add(factors)
            shapes.append(AbelianGroup(factors))
    keys = set()
    for domain in shapes:
        incls = sorted(
            normal_inclusions(domain, group), key=lambda i: i.gen_images, reverse=True
        )
        for left in incls:
            rights = [left] if triangular_only else incls
            autos = left.conjugation_automorphisms()
            forms = [
                b
                for b in enumerate_biforms(domain)
                if b.is_nondegenerate()
                and (b.is_skewsymmetric() or not triangular_only)
                and b.is_invariant(autos)
            ]
            for right in rights:
                if right is not left and not same_module_structure(left, right):
                    continue
                for beta in reversed(forms):
                    keys.add(
                        (
                            domain.factors,
                            left.gen_images,
                            right.gen_images,
                            beta.matrix,
                        )
                    )
    return keys


@pytest.mark.parametrize("name", ["S3", "Z4", "Q8"])
def test_enumeration_order_independent(name):
    group = bundled_group(name)
    for triangular_only in (False, True):
        cat = enumerate_qt(group)
        cat = cat.triangular if triangular_only else cat
        forward = {
            (
                d.domain.factors,
                d.incl_left.gen_images,
                d.incl_right.gen_images,
                d.beta.matrix,
            )
            for d in cat.data
        }
        assert forward == _reversed_enumeration(group, triangular_only)


def test_dedup_partitions_by_exact_equality():
    cat = enumerate_qt(bundled_group("Z3"))
    flat = sorted(i for members in cat.dedup for i in members)
    assert flat == list(range(len(cat)))
    for members in cat.dedup:
        # Each datum's own build equals its class's element, stored alike.
        first = cat.structures[members[0]].rmatrix
        for idx in members:
            built = build_r(cat.data[idx])
            assert built == first
            assert _exact_form(built) == _exact_form(first)
            assert built.canonical_key() == first.canonical_key()
    # distinct classes hold distinct elements
    reps = [cat.structures[m[0]].rmatrix for m in cat.dedup]
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            assert a != b


def test_size_cap():
    big = [[(a + b) % 65 for b in range(65)] for a in range(65)]
    with pytest.raises(ValueError):
        from qtriang.groups import FiniteGroup

        FiniteGroup(big)


def test_markov_of_triangular_entries_is_central_involution():
    for name in ("Z2", "Z4", "Z2xZ2", "D4", "Q8"):
        cat = enumerate_qt(bundled_group(name)).triangular
        group = cat.group
        for structure in cat.structures:
            idx = structure.markov.grouplike_index()
            assert idx in group.center()
            assert group.table[idx][idx] == group.identity


def _canonical_classes(builds):
    classes = {}
    for idx, built in enumerate(builds):
        classes.setdefault(built.canonical_key(), []).append(idx)
    return list(classes.values())


def _extra_catalog(name):
    return enumerate_qt(cyclic_group(6) if name == "Z6" else dihedral_group(6))


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "Z6", "D6"])
def test_dedup_classes_equal_canonical_key_classes(name):
    # The dedup classes are keyed by the stored form; grouping each datum's
    # own build by the order-independent canonical_key must give the same
    # classes, and each build must equal its class's shared element in both
    # stored form and canonical_key.
    if name in CATALOG_NAMES:
        catalogs = [qt_catalog(name), triangular_catalog(name)]
    else:
        catalogs = [_extra_catalog(name)]
    for cat in catalogs:
        builds = [build_r(datum) for datum in cat.data]
        assert cat.dedup == _canonical_classes(builds)
        for members in cat.dedup:
            shared = cat.structures[members[0]].rmatrix
            for idx in members:
                assert _exact_form(builds[idx]) == _exact_form(shared)
                assert builds[idx].canonical_key() == shared.canonical_key()


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "Z6", "D6"])
def test_triangular_view_equals_filtered_build(name):
    # Oracle: the triangular data enumerated, built and verified on their own.
    full = qt_catalog(name) if name in CATALOG_NAMES else _extra_catalog(name)
    view = full.triangular
    oracle = _catalog(full.group, [d for d in _enumerate_data(full.group) if d.triangular])
    assert view.data == oracle.data
    assert view.dedup == oracle.dedup
    for members in oracle.dedup:
        mine, theirs = view.structures[members[0]], oracle.structures[members[0]]
        assert _exact_form(mine.rmatrix) == _exact_form(theirs.rmatrix)
        assert report_to_json(mine.report) == report_to_json(theirs.report)
        assert mine.markov == theirs.markov
        assert mine.unitary == theirs.unitary


@pytest.mark.parametrize("name", ["Z2xZ2", "D4"])
def test_one_structure_per_class_shared_by_the_triangular_view(name):
    full = qt_catalog(name)
    assert full.triangular is full.triangular
    for members in full.dedup:
        assert {id(full.structures[i]) for i in members} == {id(full.structures[members[0]])}
    distinct = {id(full.structures[m[0]]) for m in full.dedup}
    assert len(distinct) == len(full.dedup)
    assert {id(s) for s in full.triangular.structures} <= distinct


def _json_catalog(name):
    # The two groups read from JSON in ``test_groups``: by abelian factors and by table.
    if name == "Z2xZ4-file":
        return enumerate_qt(jsonio.group_from_json({"abelian": [2, 4]}))
    table = [list(row) for row in dihedral_group(3).table]
    return enumerate_qt(jsonio.group_from_json({"name": "D3", "table": table}))


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "Z6", "D6", "Z2xZ4-file", "D3-file"])
def test_catalog_r_from_rows_matches_build_r_and_the_sorted_term_key(name):
    # Oracle: the dedup key the catalog used before it keyed classes by R's
    # rows, the sorted (i(a), j(b), c) terms of the character table.  Both
    # keys give the same classes, and each datum's own build_r stores the
    # (order, den, rows) of its class's R.
    if name in CATALOG_NAMES:
        cat = qt_catalog(name)
    elif name in ("Z6", "D6"):
        cat = _extra_catalog(name)
    else:
        cat = _json_catalog(name)
    classes: dict = {}
    for idx, datum in enumerate(cat.data):
        left, right = datum.incl_left.forward, datum.incl_right.forward
        terms = sorted(
            (left[a], right[b], c) for (a, b), c in character_table(datum.domain, datum.beta)
        )
        key = (datum.domain.exponent, datum.domain.order, tuple(terms))
        classes.setdefault(key, []).append(idx)
        shared = cat.structures[idx].rmatrix
        built = build_r(datum)
        assert (built.order, built.den, built.rows) == (shared.order, shared.den, shared.rows)
    assert cat.dedup == list(classes.values())
