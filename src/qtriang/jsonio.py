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
from itertools import islice
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


def canonical_dumps(doc) -> str:
    """``doc`` as canonical JSON text, ending in a newline.

    The bytes equal ``json.dumps(doc, sort_keys=True, indent=2,
    separators=(",", ": ")) + "\\n"``.  One walk appends text fragments to
    one list, joined once at the end.  A container object that appears more
    than once at the same depth (a dedup class's report, shared by its
    members' entries, or a coefficient record shared by equal terms) is
    encoded at its first and second meetings only: the first is merely
    marked, the second keeps its text, and later ones reuse that text.  A
    list of ints is written by one join, with no call per int and no mark.
    """
    out: list[str] = []
    append = out.append
    memo: dict = {}
    # indents[d] is the line break and indent of depth d; it grows as the
    # walk goes deeper.
    indents = ["\n"]

    def encode(value, depth: int) -> None:
        if isinstance(value, str):
            append(encode_basestring_ascii(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif not isinstance(value, (list, tuple, dict)):
            append(json.dumps(value))
        elif not value:
            append("{}" if isinstance(value, dict) else "[]")
        else:
            outer = indents[depth]
            depth += 1
            if depth == len(indents):
                indents.append(outer + "  ")
            inner = indents[depth]
            is_dict = isinstance(value, dict)
            if not is_dict and type(value[0]) is int and _INT_ONLY.issuperset(map(type, value)):
                append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + outer + "]")
                return
            key = (id(value), depth)
            seen = memo.get(key)
            if seen is None:
                # The mark is the container itself, which keeps its id from
                # being reused by another object during this call.
                memo[key] = value
            elif seen is not value:
                append(seen)
                return
            start = len(out)
            comma = "," + inner
            if is_dict:
                sep = "{" + inner
                # Keys of one dict never compare equal, so sorting the keys
                # gives the order json's sort of the items gives.
                for k in sorted(value):
                    name = k if type(k) is str else _json_key(k)
                    append(sep + encode_basestring_ascii(name) + ": ")
                    encode(value[k], depth)
                    sep = comma
                append(outer + "}")
            else:
                sep = "[" + inner
                for v in value:
                    append(sep)
                    encode(v, depth)
                    sep = comma
                append(outer + "]")
            if seen is not None:
                text = "".join(out[start:])
                del out[start:]
                append(text)
                memo[key] = text

    encode(doc, 0)
    append("\n")
    return "".join(out)


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
    terms = tensor.sorted_terms()
    coeffs = _scalar_records([value for _, value in terms])
    return {
        "group": tensor.group.name,
        "arity": tensor.arity,
        "terms": [
            {"tuple": list(key), "coeff": coeff} for (key, _), coeff in zip(terms, coeffs)
        ],
    }


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
