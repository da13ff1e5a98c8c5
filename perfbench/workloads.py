"""The benchmark's three workloads, as lists of items.

An item is one operation a user waits for.  ``run`` performs it and is the
only timed part; ``record`` turns its output into a small JSON record,
untimed, which is compared with the golden record stored beside this file.
Every call goes through a module attribute of qtriang (``cli.main``,
``charring.exterior_power_char``, ...), so wrappers installed by the tracer
see it.

- ``catalog``: ``classify --group G --out F`` for every bundled group.  The
  hopf/rmatrix/classify path: same-order scalars and the linear solve inside
  ``GATensor.inverse`` dominate.  An item counts once per classified datum.
- ``braided``: braided symmetric-group actions on regular representations,
  for each distinct triangular R-matrix.  Sparse ``Matrix @`` at sizes d^2
  and d^3 with mixed-order scalars; bypasses ``hopf.inverse`` and classify.
- ``requests``: one closed-loop client sending single CLI commands against
  stored input files.  Each does little work, so argument parsing, JSON
  parse and emit, group set-up and class-function arithmetic show.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

from qtriang import charring, cli, jsonio
from qtriang.cyclotomic import root_of_unity
from qtriang.groups import CATALOG_NAMES, bundled_group

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS_PATH = os.path.join(HERE, "inputs.json")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

WORKLOADS = ("catalog", "braided", "requests")

# Regular-representation cases of the braided workload.  BraidedAction at
# n=3 on the four 16-term D4 elements costs about 13 s each, three times the
# rest of the workload together; Q8 and Z2xZ2 at n=3 already exercise
# products of size d^3, and the acceptance suite still checks the D4 cases.
BRAIDED_KINDS = ("braid2", "braid3", "exterior2", "cyclic2")


def _skip_braided(group: str, terms: int, kind: str) -> bool:
    return kind == "braid3" and group == "D4" and terms == 16


@dataclass
class Item:
    id: str
    group: str
    run: Callable[[], object]
    record: Callable[[object], dict]
    weight: int = 1


def sha256_hex(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def _file_name(item_id: str) -> str:
    return item_id.replace("/", "-") + ".json"


# -- catalog -----------------------------------------------------------------

def _classify(name: str, path: str):
    return cli.main(["classify", "--group", name, "--out", path]), path


def _classify_record(out) -> dict:
    rc, path = out
    with open(path, "rb") as handle:
        payload = handle.read()
    return {
        "exit": rc,
        "sha256": sha256_hex(payload),
        "counts": json.loads(payload)["counts"],
    }


def catalog_items(inputs: dict, workdir: str) -> list[Item]:
    return [
        Item(
            id=f"classify/{name}",
            group=name,
            run=lambda name=name: _classify(
                name, os.path.join(workdir, f"classify-{name}.json")
            ),
            record=_classify_record,
            weight=inputs["catalog_data"][name],
        )
        for name in CATALOG_NAMES
    ]


# -- braided -----------------------------------------------------------------

def _braid(group, rmatrix, n):
    return charring.BraidedAction(charring.regular_rep(group), rmatrix, n, validate=True)


def _braid_record(action) -> dict:
    return {
        "generators": [
            {
                "nnz": sum(len(col) for col in s.cols.values()),
                "trace": jsonio.scalar_to_json(s.trace()),
            }
            for s in action.generators
        ]
    }


def _exterior(group, rmatrix):
    return charring.exterior_power_char(charring.regular_rep(group), rmatrix, 2)


def _cyclic(group, rmatrix):
    return charring.cyclic_operation_char(
        charring.regular_rep(group), rmatrix, 2, root_of_unity(2, 1)
    )


def _cyclic_record(values) -> dict:
    return {str(z): jsonio.scalar_to_json(v) for z, v in sorted(values.items())}


def braided_items(inputs: dict) -> list[Item]:
    items = []
    for rid in inputs["braided"]:
        name = rid.split("/")[0]
        group = bundled_group(name)
        rmatrix = jsonio.tensor_from_json(inputs["rmatrices"][rid], group)
        runs = {
            "braid2": (lambda g=group, r=rmatrix: _braid(g, r, 2), _braid_record),
            "braid3": (lambda g=group, r=rmatrix: _braid(g, r, 3), _braid_record),
            "exterior2": (
                lambda g=group, r=rmatrix: _exterior(g, r),
                jsonio.class_function_to_json,
            ),
            "cyclic2": (lambda g=group, r=rmatrix: _cyclic(g, r), _cyclic_record),
        }
        for kind in BRAIDED_KINDS:
            if _skip_braided(name, len(rmatrix.terms), kind):
                continue
            run, record = runs[kind]
            items.append(Item(id=f"{rid}/{kind}", group=name, run=run, record=record))
    return items


# -- requests ----------------------------------------------------------------

def _request(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _request_record(out) -> dict:
    rc, stdout = out
    return {"exit": rc, "stdout_sha256": sha256_hex(stdout)}


def _error_record(out) -> dict:
    # Malformed input must be refused with exit 2 and a JSON error body; the
    # message text is free, so only its presence is recorded.
    rc, stdout = out
    try:
        has_error = "error" in json.loads(stdout)
    except (json.JSONDecodeError, TypeError):
        has_error = False
    return {"exit": rc, "error_body": has_error}


def request_items(inputs: dict, workdir: str) -> list[Item]:
    def path_of(key: str, doc) -> str:
        path = os.path.join(workdir, _file_name(key))
        with open(path, "w") as handle:
            json.dump(doc, handle)
        return path

    def req(rid, group, argv, record=_request_record):
        return Item(
            id=rid, group=group, run=lambda argv=argv: _request(argv), record=record
        )

    items = []
    for rid, doc in inputs["rmatrices"].items():
        path = path_of(f"rmatrix/{rid}", doc)
        items.append(req(f"verify/{rid}", doc["group"], ["verify", "--rmatrix", path]))
    for did in inputs["markov"]:
        doc = inputs["data"][did]
        path = path_of(f"datum/{did}", doc)
        items.append(req(f"markov/{did}", doc["group"], ["markov", "--datum", path]))
    for did in inputs["triangular"]:
        doc = inputs["data"][did]
        path = path_of(f"datum/{did}", doc)
        items.append(
            req(f"koszul-twist/{did}", doc["group"], ["koszul-twist", "--datum", path])
        )
    for command in ("adams", "lambda"):
        for name, involutions in inputs["involutions"].items():
            for u in involutions:
                for n in (2, 3, 4):
                    argv = [command, "--group", name, "--u", str(u), "--n", str(n)]
                    items.append(req(f"{command}/{name}/u{u}/n{n}", name, argv))
    for mid, doc in inputs["malformed"].items():
        path = path_of(f"malformed/{mid}", doc)
        items.append(
            req(f"malformed/{mid}", "Z2", ["verify", "--rmatrix", path], _error_record)
        )
    return items


def build_items(workload: str, inputs: dict, workdir: str) -> list[Item]:
    """All items of a workload, in canonical order."""
    if workload == "catalog":
        return catalog_items(inputs, workdir)
    if workload == "braided":
        return braided_items(inputs)
    if workload == "requests":
        return request_items(inputs, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def record_of(item: Item, out, exc: BaseException | None) -> dict:
    """The JSON record of one item's outcome: its output, or the exception."""
    if exc is None:
        try:
            return item.record(out)
        except (OSError, ValueError, KeyError, TypeError) as rec_exc:
            exc = rec_exc
    return {"raised": type(exc).__name__, "message": str(exc)}
