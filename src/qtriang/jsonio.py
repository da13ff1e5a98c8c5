"""Canonical JSON interchange for every value the CLI reads or writes.

Serialization is deterministic: object keys are sorted, term lists are
sorted by tuple, rationals are in lowest terms, and every scalar is
written at the smallest cyclotomic order containing it, so identical
values always produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .charring import ClassFunction, MatrixRep
from .cyclotomic import ORDER_CAP, CycScalar, euler_phi
from .groups import (
    BiForm,
    FiniteGroup,
    Inclusion,
    bundled_group,
    CATALOG_NAMES,
    cyclic_group,
    direct_product,
    subgroup_structure,
)
from .hopf import GATensor
from .linalg import Matrix
from .rmatrix import QTDatum, VerificationReport


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def scalar_to_json(value: CycScalar) -> dict:
    r = value.reduced()
    return {
        "order": r.order,
        "coeffs": [[c.numerator, c.denominator] for c in r.coeffs],
    }


class MalformedDocument(ValueError):
    """A document that a reader refuses: a value out of range or of the wrong size."""


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
        factors = list(doc["abelian"])
        if not factors:
            return cyclic_group(1, doc.get("name", "trivial"))
        group = cyclic_group(factors[0])
        for n in factors[1:]:
            group = direct_product(group, cyclic_group(n))
        name = doc.get("name") or "x".join(f"Z{n}" for n in factors)
        return FiniteGroup(group.table, name)
    return FiniteGroup(doc["table"], doc.get("name", "G"))


def resolve_group(source: str) -> FiniteGroup:
    """A bundled group name, or a path to a group JSON file."""
    if source in CATALOG_NAMES:
        return bundled_group(source)
    with open(source) as handle:
        return group_from_json(json.load(handle))


def tensor_to_json(tensor: GATensor) -> dict:
    return {
        "group": tensor.group.name,
        "arity": tensor.arity,
        "terms": [
            {"tuple": list(key), "coeff": scalar_to_json(value)}
            for key, value in tensor.sorted_terms()
        ],
    }


def tensor_from_json(doc: dict, group: FiniteGroup) -> GATensor:
    if doc["group"] != group.name:
        raise ValueError(
            f"tensor was written for group {doc['group']!r}, not {group.name!r}"
        )
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
        raise ValueError(
            f"datum was written for group {doc['group']!r}, not {group.name!r}"
        )
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
    domain = subgroup_structure(group, frozenset(doc["subgroup"])).domain
    left = Inclusion(group, domain, doc["i"])
    right = Inclusion(group, domain, doc["j"])
    return QTDatum(group, domain, left, right, BiForm(domain, beta))


def class_function_to_json(fn: ClassFunction) -> dict:
    return {
        "group": fn.group.name,
        "classes": [cls_[0] for cls_ in fn.group.conjugacy_classes()],
        "values": [scalar_to_json(v) for v in fn.values],
    }


def class_function_from_json(doc: dict, group: FiniteGroup) -> ClassFunction:
    if doc["group"] != group.name:
        raise ValueError("class function group mismatch")
    reps = [cls_[0] for cls_ in group.conjugacy_classes()]
    if list(doc["classes"]) != reps:
        raise ValueError("class representatives do not match the group's classes")
    return ClassFunction(group, [scalar_from_json(v) for v in doc["values"]])


def matrix_to_json(matrix: Matrix) -> list:
    return [[scalar_to_json(v) for v in row] for row in matrix.to_dense()]


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
