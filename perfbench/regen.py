"""Regenerate the benchmark's inputs and golden record from the current code.

    python3 perfbench/regen.py

Writes ``perfbench/inputs.json`` (the documents the requests and braided
workloads send, taken from the ``classify`` catalogs) and
``perfbench/golden.json`` (the record every benchmark run is checked
against).  Run it only when a change to the program's output is intended;
the benchmark itself never rewrites either file.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.pop("QTRIANG_THREADS", None)

import workloads  # noqa: E402
from qtriang import cli  # noqa: E402
from qtriang.groups import CATALOG_NAMES, bundled_group  # noqa: E402

# The three documents that crashed ``verify --rmatrix`` with a traceback at
# the commit that introduced this benchmark.  The contract is exit 2 with a
# JSON error body; a run that does otherwise counts them as failed items.
MALFORMED_EXPECTED = {"exit": 2, "error_body": True}


def _malformed(doc: dict) -> dict:
    order_x = copy.deepcopy(doc)
    order_x["terms"][0]["coeff"]["order"] = "x"
    zero_den = copy.deepcopy(doc)
    zero_den["terms"][0]["coeff"]["coeffs"] = [[1, 0]]
    return {"order_x": order_x, "zero_denominator": zero_den, "top_level_list": [doc]}


def build_inputs(workdir: str) -> dict:
    inputs = {
        "catalog_data": {},
        "rmatrices": {},
        "braided": [],
        "data": {},
        "markov": [],
        "triangular": [],
        "involutions": {},
    }
    for name in CATALOG_NAMES:
        path = os.path.join(workdir, f"{name}.json")
        if cli.main(["classify", "--group", name, "--out", path]) != 0:
            raise SystemExit(f"classify --group {name} failed")
        catalog = workloads.load_json(path)
        entries = catalog["entries"]
        inputs["catalog_data"][name] = len(entries)
        for cls_id, members in enumerate(catalog["dedup_classes"]):
            rid = f"{name}/c{cls_id}"
            rep = entries[members[0]]
            inputs["rmatrices"][rid] = rep["rmatrix"]
            inputs["data"][f"{name}/e{members[0]}"] = rep["datum"]
            inputs["markov"].append(f"{name}/e{members[0]}")
            if any(entries[i]["triangular"] for i in members):
                inputs["braided"].append(rid)
        for idx, entry in enumerate(entries):
            if entry["triangular"]:
                inputs["data"][f"{name}/e{idx}"] = entry["datum"]
                inputs["triangular"].append(f"{name}/e{idx}")
        inputs["involutions"][name] = list(bundled_group(name).central_involutions())
    inputs["malformed"] = _malformed(inputs["rmatrices"]["Z2/c1"])
    return inputs


def build_golden(inputs: dict, workdir: str) -> dict:
    golden = {}
    for workload in workloads.WORKLOADS:
        records = {}
        for item in workloads.build_items(workload, inputs, workdir):
            try:
                out, exc = item.run(), None
            except Exception as err:  # a crash is recorded, not propagated
                out, exc = None, err
            record = workloads.record_of(item, out, exc)
            if item.id.startswith("malformed/"):
                expected = dict(MALFORMED_EXPECTED)
                if record != expected:
                    expected["known_defect"] = record
                record = expected
            records[item.id] = record
        golden[workload] = records
    return golden


def _write(path: str, doc) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main() -> int:
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="regen-", dir=out_dir)
    try:
        inputs = build_inputs(workdir)
        _write(workloads.INPUTS_PATH, inputs)
        _write(workloads.GOLDEN_PATH, build_golden(inputs, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
