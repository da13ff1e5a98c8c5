"""``jsonio.canonical_dumps`` against ``json.dumps`` with the canonical arguments."""

import gc
import json
import os
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qtriang import cli, jsonio
from qtriang.acceptance import qt_catalog
from qtriang.charring import (
    ClassFunction, adams_twisted, lambda_from_adams, regular_rep, standard_reps
)
from qtriang.cli import _cmd_classify, build_parser
from qtriang.classify import COMPLETENESS_NOTE, _catalog, _enumerate_data
from qtriang.cyclotomic import root_of_unity
from qtriang.groups import (
    CATALOG_NAMES,
    FiniteGroup,
    bundled_group,
    cyclic_group,
    direct_product,
)
from qtriang.rmatrix import build_r


def _oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F) | st.sampled_from('"\\é€😀\u2028')),
)


def _containers(children):
    # json sorts the keys themselves, so the keys of one dict are all of one
    # kind; ints and floats sort together.
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
        st.dictionaries(
            st.integers(-3, 3) | st.floats(allow_nan=False), children, max_size=3
        ),
        st.dictionaries(st.booleans(), children, max_size=2),
        st.dictionaries(st.none(), children, max_size=1),
    )


_documents = st.recursive(_leaves, _containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_canonical_dumps_matches_json_dumps(doc):
    assert jsonio.canonical_dumps(doc) == _oracle(doc)
    fragments = []
    assert jsonio.canonical_dumps(doc, fragments.extend) is None
    assert "".join(fragments) == _oracle(doc)


@settings(max_examples=100, deadline=None)
@given(_containers(st.recursive(_leaves, _containers, max_leaves=6)), _leaves)
def test_shared_containers_are_written_in_full_at_every_depth(shared, other):
    # The same object two and three times at one depth, and at three depths.
    docs = [
        [shared, shared],
        {"a": shared, "b": [shared, other, shared], "c": {"d": shared}},
        [[shared], shared, {"x": [shared, shared]}, (shared,)],
        {"entries": [{"k": shared, "o": other} for _ in range(3)]},
    ]
    for doc in docs:
        assert jsonio.canonical_dumps(doc) == _oracle(doc)


def test_shared_inner_containers_and_empty_ones():
    # Top-level scalars, int lists and empty containers; lists of ints with
    # a bool or a float, which take no int-list join; tuples of ints; and
    # dicts whose keys 1, 1.0 and True name one key three ways.
    inner = {"coeffs": [[1, 2]], "order": 1}
    outer = {"terms": [inner, inner], "e": [], "f": {}, "g": ()}
    docs = [
        [outer, {"z": outer}, outer, [outer, [outer]], inner],
        ["é\x00", {1: 2, 10: 3}],
        7, "s", None, True, 2.5, [1, 2, 3], (1, 2), [], {}, (),
        [1, True], [1, 2.5], {"a": [1, True], "b": [1, 2.5], "c": (1, 2), "d": [(3, 4)]},
        [{1: "x"}, {1.0: "x"}, {True: "x"}, {"1": "x"}],
    ]
    for doc in docs:
        assert jsonio.canonical_dumps(doc) == _oracle(doc)


def test_int_list_text_is_kept_per_depth_and_only_for_exact_ints():
    # One int list, and equal copies of it, at several depths of one call;
    # [1, 1] next to [1, True], in both orders; [1, 2] next to (1, 2).  The
    # encoder keeps each exact-int list's text per depth, so every one of
    # these must still come out as json writes it.
    ints = [3, -1, 10**20]
    docs = [
        [ints, [ints], {"a": ints, "b": [[list(ints)]]}, _nested(list(ints), 5), ints, list(ints)],
        {"x": [ints, {"y": ints}], "z": _nested(ints, 2)},
        [[1, 1], [1, True], [1, 1], {"x": [1, True], "y": [1, 1], "z": [[1, True], [1, 1]]}],
        [[1, True], [1, 1], [True, 1], [1, 1]],
        [[1, 2], (1, 2), {"a": (1, 2), "b": [1, 2]}, [(1, 2), [1, 2]], (1, 2), [1, 2]],
        [(1, 2), [1, 2], [[1, 2], (1, 2)]],
    ]
    for doc in docs:
        assert jsonio.canonical_dumps(doc) == _oracle(doc)


def _nested(leaf, depth):
    """``leaf`` inside ``depth`` containers, dicts and lists in turn."""
    for level in range(depth):
        leaf = {"k": leaf, "n": level} if level % 2 else [level, leaf]
    return leaf


_DEEP = 130


@pytest.mark.parametrize(
    "leaf",
    [[1, -2, 10**30], [1, True, 0], [1, None, "s", 2.5], {"a": [[1, 2]], "b": ()}, [], {}, 7],
    ids=["ints", "int-bools", "mixed", "dict", "empty-list", "empty-dict", "int"],
)
def test_deep_nesting_matches_json_dumps(leaf):
    # Deeper than any depth reached elsewhere, so every indent is made
    # during the call.
    doc = _nested(leaf, _DEEP)
    assert jsonio.canonical_dumps(doc) == _oracle(doc)
    assert jsonio.canonical_dumps([doc, doc]) == _oracle([doc, doc])


@pytest.mark.parametrize("times", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "shared",
    [{"coeffs": [[1, 2], [-3, 4]], "order": 3}, [1, 2, 3], [None, {"x": [True]}, "s"]],
    ids=["record", "ints", "mixed"],
)
def test_shared_container_met_n_times(shared, times):
    # At one depth, shallow and deep; then at a different depth each time,
    # once with the repeats next to each other and once far apart.
    docs = [
        [shared] * times,
        {"entries": [{"c": shared} for _ in range(times)]},
        _nested([shared] * times, _DEEP),
        [_nested(shared, level) for level in range(times)],
        [_nested(shared, _DEEP - 20 * level) for level in range(times)],
        [shared, _nested([shared] * times, 3), shared],
        # First met inside another repeated container, whose second
        # meeting does not walk it, then met on its own.
        [{"w": shared}] * 2 + [{"x": shared} for _ in range(times)],
    ]
    for doc in docs:
        assert jsonio.canonical_dumps(doc) == _oracle(doc)


def test_shared_text_reaches_the_sink_as_one_object():
    # A container of about 12 KB of text shared by 100 siblings: from its
    # second meeting on, the sink gets its kept text itself, not a copy.
    shared = {"terms": [{"tuple": [k, k + 1], "coeff": f"c{k}"} for k in range(150)]}
    doc = {"entries": [{"report": shared, "index": k} for k in range(100)]}
    assert len(jsonio.canonical_dumps(shared)) >= 10_000
    fragments = []
    jsonio.canonical_dumps(doc, fragments.extend)
    assert "".join(fragments) == _oracle(doc)
    long = [f for f in fragments if len(f) > 10_000]
    assert len(long) == 99
    assert len({id(f) for f in long}) == 1


def test_emit_to_dev_null_holds_no_copy_of_the_report():
    # Z2xZ2's classify report is 1.5 MB.  Writing it holds the fragments,
    # which share each dedup class's text, and never the joined text.
    argv = ["classify", "--group", "Z2xZ2", "--out", os.devnull]
    args = build_parser().parse_args(argv)
    doc, ok = _cmd_classify(args)
    assert ok
    length = len(jsonio.canonical_dumps(doc))
    assert length > 1_500_000
    tracemalloc.start()
    try:
        cli._emit(doc, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < length


@pytest.mark.parametrize(
    "doc",
    [
        {(1, 2): 3},
        [object()],
        {"a": {1j}},
        _nested(object(), _DEEP),
        _nested({(1, 2): 3}, _DEEP),
        [[1, 2], [1, 2], [1, object()]],
    ],
)
def test_unencodable_documents_raise_type_error(doc):
    with pytest.raises(TypeError):
        _oracle(doc)
    with pytest.raises(TypeError):
        jsonio.canonical_dumps(doc)


def test_canonical_dumps_leaves_no_reference_cycle():
    # Its fragments and its memo of the document's containers are freed on
    # return, not at the next full collection: a classify document's cycle
    # kept a second copy alive and raised the peak memory of a catalog run.
    shared = {"report": [{"name": "x", "passed": True}], "ints": [1, 2]}
    doc = {"entries": [shared, shared, {"inner": shared}], "n": 3}
    expected = _oracle(doc)  # json's indenting encoder leaves cycles of its own
    gc.collect()
    gc.disable()
    try:
        assert jsonio.canonical_dumps(doc) == expected
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unencodable_value_in_a_shared_container_raises_at_every_meeting():
    bad = {"a": [1, object()]}
    for times in (1, 2, 3):
        with pytest.raises(TypeError):
            jsonio.canonical_dumps([bad] * times)


def _assert_one_record_per_value(values, records):
    """``records`` are ``scalar_to_json`` of ``values``, one object per stored value."""
    values = list(values)
    assert records == [jsonio.scalar_to_json(v) for v in values]
    by_value = {}
    for value, record in zip(values, records):
        assert by_value.setdefault((value.order, value.den, value.num), record) is record
    assert len({id(record) for record in records}) == len(by_value)


def _distinct_catalog_tensors():
    """The 44 distinct catalog R-matrices, each with its Markov element."""
    tensors = []
    for name in CATALOG_NAMES:
        catalog = qt_catalog(name)
        for members in catalog.dedup:
            structure = catalog.structures[members[0]]
            tensors.append((structure.rmatrix, structure.markov))
    return tensors


def test_tensor_records_are_shared_per_value_and_round_trip():
    tensors = _distinct_catalog_tensors()
    assert len(tensors) == 44
    shared = 0
    for pair in tensors:
        for tensor in pair:
            doc = jsonio.tensor_to_json(tensor)
            values = [v for _, v in tensor.sorted_terms()]
            _assert_one_record_per_value(values, [t["coeff"] for t in doc["terms"]])
            shared += len(values) - len({id(t["coeff"]) for t in doc["terms"]})
            assert jsonio.tensor_from_json(doc, tensor.group) == tensor
            text = jsonio.canonical_dumps(doc)
            assert text == _oracle(_tensor_doc(tensor))
            assert jsonio.tensor_from_json(json.loads(text), tensor.group) == tensor
    assert shared > 0


def test_class_function_records_are_shared_per_value_and_round_trip():
    checked = 0
    for name in CATALOG_NAMES:
        group = bundled_group(name)
        for character in (rep.character() for rep in standard_reps(group)):
            for u in group.central_involutions():
                for n in (2, 3, 4):
                    for fn in (adams_twisted(character, u, n), lambda_from_adams(character, n, u)):
                        doc = jsonio.class_function_to_json(fn)
                        _assert_one_record_per_value(fn.values, doc["values"])
                        assert jsonio.class_function_from_json(doc, group) == fn
                        text = jsonio.canonical_dumps(doc)
                        back = jsonio.class_function_from_json(json.loads(text), group)
                        assert back == fn
                        checked += 1
    assert checked == 378


def test_class_function_values_past_one_common_order_are_refused():
    # Orders 360 and 7 are each within the cap; their lcm 2520 is not.
    group = cyclic_group(2)
    doc = {
        "group": group.name,
        "classes": [cls_[0] for cls_ in group.conjugacy_classes()],
        "values": [jsonio.scalar_to_json(root_of_unity(n)) for n in (360, 7)],
    }
    with pytest.raises(jsonio.MalformedDocument, match="common cyclotomic order 2520"):
        jsonio.class_function_from_json(doc, group)
    with pytest.raises(ValueError, match="2520"):
        ClassFunction(group, [root_of_unity(360), root_of_unity(7)])
    doc["values"][1] = jsonio.scalar_to_json(root_of_unity(8))
    fn = jsonio.class_function_from_json(doc, group)
    assert fn.order == 360 and jsonio.class_function_to_json(fn) == doc


@pytest.mark.parametrize("name", ["Z4", "S3", "Q8"])
def test_matrix_records_are_shared_per_value(name):
    rep = regular_rep(bundled_group(name))
    for g in rep.group.elements():
        dense = rep.matrix(g).to_dense()
        rows = jsonio.matrix_to_json(rep.matrix(g))
        assert [len(row) for row in rows] == [len(row) for row in dense]
        _assert_one_record_per_value(
            [v for row in dense for v in row], [r for row in rows for r in row]
        )


def _tensor_doc(tensor):
    """The ``tensor_to_json`` document built term by term, one record per term."""
    return {
        "group": tensor.group.name,
        "arity": tensor.arity,
        "terms": [
            {"tuple": list(key), "coeff": jsonio.scalar_to_json(value)}
            for key, value in tensor.sorted_terms()
        ],
    }


def _reference_classify_doc(group, triangular):
    """The ``classify`` document with every entry's element built from its own
    datum, and the catalog enumerated and built on the selected data alone;
    every coefficient is its own ``scalar_to_json`` record."""
    data = [d for d in _enumerate_data(group) if d.triangular or not triangular]
    catalog = _catalog(group, data)
    dedup_class = {idx: cls for cls, members in enumerate(catalog.dedup) for idx in members}
    entries = [
        {
            "datum": jsonio.datum_to_json(datum),
            "rmatrix": _tensor_doc(build_r(datum)),
            "verification": jsonio.report_to_json(catalog.structures[idx].report),
            "markov": _tensor_doc(catalog.structures[idx].markov),
            "triangular": datum.triangular,
            "unitary": catalog.structures[idx].unitary,
            "dedup_class": dedup_class[idx],
        }
        for idx, datum in enumerate(catalog.data)
    ]
    return {
        "command": "classify",
        "group": group.name,
        "note": COMPLETENESS_NOTE,
        "triangular_only": triangular,
        "entries": entries,
        "dedup_classes": catalog.dedup,
        "counts": {
            "data": len(catalog),
            "distinct": len(catalog.dedup),
            "unitary": sum(s.unitary for s in catalog.structures),
        },
    }


@pytest.mark.parametrize("triangular", [False, True], ids=["all", "triangular"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_classify_report_matches_per_datum_build(name, triangular):
    argv = ["classify", "--group", name] + ["--triangular"] * triangular
    doc, ok = _cmd_classify(build_parser().parse_args(argv))
    assert ok
    for members in doc["dedup_classes"]:
        first = doc["entries"][members[0]]
        assert all(doc["entries"][m]["rmatrix"] is first["rmatrix"] for m in members)
    expected = _oracle(_reference_classify_doc(bundled_group(name), triangular))
    assert jsonio.canonical_dumps(doc) == expected


@pytest.mark.parametrize(
    "factors, builds", [([2, 32], 3), ([64], 1)], ids=["Z2xZ32", "Z64"]
)
def test_abelian_shorthand_validates_each_table_once(monkeypatch, factors, builds):
    # One validation per cyclic factor and per direct product; the name is
    # set on the group they built.
    reference = cyclic_group(factors[0])
    for n in factors[1:]:
        reference = direct_product(reference, cyclic_group(n))
    calls = []
    original = FiniteGroup.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counting)
    group = jsonio.group_from_json({"abelian": factors})
    named = jsonio.group_from_json({"abelian": factors, "name": "A"})
    assert len(calls) == 2 * builds
    assert group.table == named.table == reference.table
    assert group.name == "x".join(f"Z{n}" for n in factors)
    assert named.name == "A"


_S3_SUBSETS = [
    ([1, 2], "subset does not contain the identity"),
    ([0, 3], "subset is not closed under the product"),
    ([0, 1, 2, 3, 4, 5], "subset is not abelian"),
]


@pytest.mark.parametrize(
    "subgroup, message", _S3_SUBSETS, ids=["no_identity", "open", "nonabelian"]
)
def test_datum_subgroup_that_is_not_an_abelian_subgroup_is_refused(subgroup, message):
    doc = {"group": "S3", "subgroup": subgroup, "i": [3], "j": [3], "beta": [[1]]}
    with pytest.raises(ValueError) as info:
        jsonio.datum_from_json(doc, bundled_group("S3"))
    assert str(info.value) == message
