"""Canonical JSON interchange for every value the CLI reads or writes.

Serialization is deterministic: object keys are sorted, term lists are
sorted by tuple, rationals are in lowest terms, and every scalar is
written at the smallest cyclotomic order containing it, so identical
values always produce identical bytes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii

from .charring import ClassFunction, MatrixRep
from .cyclotomic import ORDER_CAP, CycScalar, euler_phi
from .groups import (
    AbelianGroup,
    BiForm,
    FiniteGroup,
    Inclusion,
    abelian_factors,
    bundled_group,
    CATALOG_NAMES,
    check_group_order,
    cyclic_group,
    direct_product,
)
from .hopf import GATensor
from .linalg import Matrix
from .rmatrix import QTDatum, VerificationReport


# The element type of a list written without a call per element.
_INT_ONLY = frozenset((int,))


def canonical_dumps(doc, sink=None) -> str | None:
    """``doc`` as canonical JSON text, ending in a newline.

    The bytes equal ``json.dumps(doc, sort_keys=True, indent=2,
    separators=(",", ": ")) + "\\n"``.  One walk appends text fragments to
    one list.  Without a ``sink`` the list is joined and returned; with one
    (a handle's ``writelines``, say) the list goes to ``sink`` unjoined and
    None is returned, so the whole text is never held as one string.  A
    container object that appears more than once at the same depth (a dedup
    class's report, shared by its members' entries, or a coefficient record
    shared by equal terms) is encoded once: its first meeting records the
    slice of fragments it appended, the second joins that slice into its
    text, and every later meeting appends that same text object as its own
    fragment, never a copy of it.  str, int, bool and None values and lists
    of ints are written in their parent's loop, with no call per value.
    There the text of a list of exact ints is kept per (depth, values), so
    a list met again (a term's tuple, a coordinate pair, a datum's
    inclusion) is joined once per call; [1, True] is no such list and never
    shares [1, 1]'s text.
    """
    out: list[str] = []
    append = out.append
    # Per (id, depth): the container and its slice of ``out`` once met (the
    # container keeps its id from being reused during this call), its text
    # once met twice.
    memo: dict = {}
    # indents[d] is the line break and indent of depth d; it grows as the
    # walk goes deeper.
    indents = ["\n", "\n  "]
    # Per (keys in insertion order, depth) of a dict with str keys: its
    # sorted keys and the text before each value.
    shapes: dict = {}
    # Per (depth, *values) of a list of exact ints met in a loop: its text.
    int_lists: dict = {}

    def encode(value, depth: int) -> None:
        if not isinstance(value, (list, tuple, dict)):
            append(_scalar_text(value))
            return
        if not value:
            append("{}" if isinstance(value, dict) else "[]")
            return
        outer = indents[depth]
        depth += 1
        if depth + 1 == len(indents):
            indents.append(indents[depth] + "  ")
        inner, deeper = indents[depth], indents[depth + 1]
        is_dict = isinstance(value, dict)
        if not is_dict and type(value[0]) is int and _INT_ONLY.issuperset(map(type, value)):
            append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + outer + "]")
            return
        key = (id(value), depth)
        seen = memo.get(key)
        if seen is not None:
            if type(seen) is not str:
                seen = memo[key] = "".join(out[seen[1]:seen[2]])
            append(seen)
            return
        start = len(out)
        comma = "," + inner
        if is_dict:
            shape = (tuple(value), depth)
            known = shapes.get(shape)
            if known is None:
                # Keys of one dict never compare equal, so sorting the keys
                # gives the order json's sort of the items gives.
                keys = sorted(value)
                names = [
                    encode_basestring_ascii(k if type(k) is str else _json_key(k)) + ": "
                    for k in keys
                ]
                known = keys, ["{" + inner + names[0]] + [comma + n for n in names[1:]]
                # 1, 1.0 and True are one dict key but three names: only
                # all-str shapes are kept.
                if all(type(k) is str for k in keys):
                    shapes[shape] = known
            keys, heads = known
            items = zip(heads, map(value.__getitem__, keys))
        else:
            items = zip(chain(("[" + inner,), repeat(comma)), value)
        for head, v in items:
            kind = type(v)
            if kind is str:
                append(head + encode_basestring_ascii(v))
            elif kind is int:
                append(head + int.__repr__(v))
            elif v is None:
                append(head + "null")
            elif kind is bool:
                append(head + ("true" if v else "false"))
            elif kind is list and v and type(v[0]) is int and _INT_ONLY.issuperset(map(type, v)):
                text = int_lists.get(known := (depth, *v))
                if text is None:
                    ints = ("," + deeper).join(map(int.__repr__, v))
                    text = int_lists[known] = "[" + deeper + ints + inner + "]"
                append(head + text)
            elif type(text := memo.get((id(v), depth + 1))) is str:
                append(head)
                append(text)
            else:
                append(head)
                encode(v, depth)
        append(outer + ("}" if is_dict else "]"))
        memo[key] = (value, start, len(out))

    encode(doc, 0)
    # ``encode`` refers to itself through its closure: unbound here, that
    # cycle goes, and ``out`` and ``memo`` (which holds every container of
    # ``doc``) are freed on return instead of at the next full collection.
    del encode
    append("\n")
    if sink is None:
        return "".join(out)
    sink(out)
    return None


def _scalar_text(value) -> str:
    """A value that is no list, tuple or dict as ``json`` writes it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


def _json_key(key) -> str:
    """An object key as ``json`` writes it: non-str scalars take their JSON spelling."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def scalar_to_json(value: CycScalar) -> dict:
    r = value.reduced()
    coeffs = []
    for x in r.num:
        g = math.gcd(x, r.den)
        coeffs.append([x // g, r.den // g])
    return {"order": r.order, "coeffs": coeffs}


def _scalar_records(values) -> list[dict]:
    """``scalar_to_json`` of each value, one shared record per distinct value.

    Equal stored values (order, den, num) get the same record object, so
    ``scalar_to_json`` runs once per distinct value and ``canonical_dumps``
    reuses that record's text.  A caller that edits a record in place must
    copy the document first.
    """
    records: dict = {}
    out = []
    for value in values:
        key = (value.order, value.den, value.num)
        record = records.get(key)
        if record is None:
            record = records[key] = scalar_to_json(value)
        out.append(record)
    return out


class MalformedDocument(ValueError):
    """A document that a reader refuses: a value out of range or of the wrong size."""


def _check_common_order(what: str, values) -> None:
    # A tensor or a class function keeps all its values at one order.
    order = math.lcm(1, *(v.order for v in values))
    if order > ORDER_CAP:
        raise MalformedDocument(
            f"{what} values need the common cyclotomic order {order}, past {ORDER_CAP}"
        )


def scalar_from_json(doc: dict) -> CycScalar:
    order = doc["order"]
    if type(order) is not int or not 1 <= order <= ORDER_CAP:
        raise MalformedDocument(f"scalar order must be an integer in 1..{ORDER_CAP}, got {order!r}")
    coeffs = doc["coeffs"]
    if len(coeffs) != euler_phi(order):
        raise MalformedDocument(
            f"expected {euler_phi(order)} coordinates at order {order}, got {len(coeffs)}"
        )
    for c in coeffs:
        if type(c) is not list or len(c) != 2 or any(type(v) is not int for v in c):
            raise MalformedDocument(
                f"a coordinate must be a pair [num, den] of integers, got {c!r}"
            )
    return CycScalar(order, [Fraction(n, d) for n, d in coeffs])


def group_to_json(group: FiniteGroup) -> dict:
    return {"name": group.name, "table": [list(row) for row in group.table]}


def group_from_json(doc: dict) -> FiniteGroup:
    if "abelian" in doc:
        factors = doc["abelian"]
        if type(factors) is not list or any(type(n) is not int for n in factors):
            raise MalformedDocument(f"'abelian' must be a list of integers, got {factors!r}")
        # The positive factors are capped before any table is built; a factor
        # below 1 otherwise fails in the builder.
        check_group_order(math.prod(n for n in factors if n > 0))
        if not factors:
            return cyclic_group(1, doc.get("name", "trivial"))
        group = cyclic_group(factors[0])
        for n in factors[1:]:
            group = direct_product(group, cyclic_group(n))
        group.name = doc.get("name") or "x".join(f"Z{n}" for n in factors)
        return group
    return FiniteGroup(doc["table"], doc.get("name", "G"))


def resolve_group(source: str) -> FiniteGroup:
    """A bundled group name, or a path to a group JSON file."""
    if source in CATALOG_NAMES:
        return bundled_group(source)
    with open(source) as handle:
        return group_from_json(json.load(handle))


def tensor_to_json(tensor: GATensor) -> dict:
    """The tensor's terms in key order, one shared coefficient record per distinct row."""
    rows, records, terms = tensor.rows, {}, []
    for key in sorted(rows):
        row = rows[key]
        record = records.get(row)
        if record is None:
            record = records[row] = scalar_to_json(CycScalar._make(tensor.order, tensor.den, row))
        terms.append({"tuple": list(key), "coeff": record})
    return {"group": tensor.group.name, "arity": tensor.arity, "terms": terms}


def tensor_from_json(doc: dict, group: FiniteGroup) -> GATensor:
    if doc["group"] != group.name:
        raise ValueError(f"tensor was written for group {doc['group']!r}, not {group.name!r}")
    arity = doc["arity"]
    if type(arity) is not int or arity < 0:
        raise MalformedDocument(f"arity must be a non-negative integer, got {arity!r}")
    terms = []
    for t in doc["terms"]:
        key = t["tuple"]
        if type(key) is not list or len(key) != arity or any(
            type(g) is not int or not 0 <= g < group.size for g in key
        ):
            raise MalformedDocument(
                f"term tuple {key!r} needs {arity} element indices in 0..{group.size - 1}"
            )
        terms.append((tuple(key), scalar_from_json(t["coeff"])))
    _check_common_order("tensor", [c for _, c in terms])
    return GATensor(group, arity, terms)


def datum_to_json(datum: QTDatum) -> dict:
    return {
        "group": datum.group.name,
        "subgroup": sorted(datum.incl_left.image),
        "i": list(datum.incl_left.gen_images),
        "j": list(datum.incl_right.gen_images),
        "beta": [list(row) for row in datum.beta.matrix],
    }


def datum_from_json(doc: dict, group: FiniteGroup) -> QTDatum:
    if doc["group"] != group.name:
        raise ValueError(f"datum was written for group {doc['group']!r}, not {group.name!r}")
    for key in ("subgroup", "i", "j"):
        indices = doc[key]
        if type(indices) is not list or any(
            type(g) is not int or not 0 <= g < group.size for g in indices
        ):
            raise MalformedDocument(
                f"{key!r} must be a list of element indices in 0..{group.size - 1}, got {indices!r}"
            )
    beta = doc["beta"]
    if type(beta) is not list or any(
        type(row) is not list or any(type(m) is not int for m in row) for row in beta
    ):
        raise MalformedDocument(f"'beta' must be a list of lists of integers, got {beta!r}")
    domain = AbelianGroup(abelian_factors(group, doc["subgroup"]))
    left = Inclusion(group, domain, doc["i"])
    right = Inclusion(group, domain, doc["j"])
    return QTDatum(group, domain, left, right, BiForm(domain, beta))


def class_function_to_json(fn: ClassFunction) -> dict:
    return {
        "group": fn.group.name,
        "classes": [cls_[0] for cls_ in fn.group.conjugacy_classes()],
        "values": _scalar_records(fn.values),
    }


def class_function_from_json(doc: dict, group: FiniteGroup) -> ClassFunction:
    if doc["group"] != group.name:
        raise ValueError("class function group mismatch")
    reps = [cls_[0] for cls_ in group.conjugacy_classes()]
    if list(doc["classes"]) != reps:
        raise ValueError("class representatives do not match the group's classes")
    values = [scalar_from_json(v) for v in doc["values"]]
    _check_common_order("class function", values)
    return ClassFunction(group, values)


def matrix_to_json(matrix: Matrix) -> list:
    rows = matrix.to_dense()
    records = iter(_scalar_records([v for row in rows for v in row]))
    return [list(islice(records, len(row))) for row in rows]


def matrix_rep_to_json(rep: MatrixRep) -> dict:
    return {
        "group": rep.group.name,
        "dim": rep.dim,
        "mats": [matrix_to_json(rep.matrix(g)) for g in rep.group.elements()],
    }


def matrix_rep_from_json(doc: dict, group: FiniteGroup) -> MatrixRep:
    if doc["group"] != group.name:
        raise ValueError("representation group mismatch")
    mats = [
        Matrix.from_dense([[scalar_from_json(v) for v in row] for row in mat])
        for mat in doc["mats"]
    ]
    return MatrixRep(group, mats)


def report_to_json(report: VerificationReport) -> dict:
    return {
        "all_passed": report.all_passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "witness": c.witness}
            for c in report.checks
        ],
    }
