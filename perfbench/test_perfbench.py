"""Tests of the benchmark itself, on a tiny configuration (Z2 and Z3, one pass).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ONLY = "Z2,Z3"
COUNT_METRICS = (
    "cyclotomic.mul.calls",
    "cyclotomic.add.calls",
    "cyclotomic.embed.calls",
    "cyclotomic.reduced.calls",
    "cyclotomic.inverse.calls",
    "linalg.matmul.madds",
    "hopf.mul.term_pairs",
    "rmatrix.verify_qt.calls",
)


def bench(workload: str, seed: int, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0",
            "--trace", str(trace),
            "--only", ONLY,
            *extra,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_cache: dict = {}


def cached(workload: str, seed: int, trace: int) -> dict:
    key = (workload, seed, trace)
    if key not in _cache:
        _cache[key] = bench(workload, seed, trace)
    return _cache[key]


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", ["catalog", "braided", "requests"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(spec, workload, trace):
    result = cached(workload, 1, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_malformed_requests_count_as_failed_items():
    result = cached("requests", 1, 0)
    assert result["correct"] is True
    assert result["failed"] == 3


def test_corrupted_golden_entry_is_a_failed_item(tmp_path):
    with open(os.path.join(HERE, "golden.json")) as handle:
        golden = json.load(handle)
    golden["catalog"]["classify/Z3"]["sha256"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    result = bench("catalog", 1, 0, "--golden", str(path))
    assert result["correct"] is False
    assert result["failed"] == golden["catalog"]["classify/Z3"]["counts"]["data"]
    assert result["attempted"] > result["failed"]


@pytest.mark.parametrize("workload", ["catalog", "braided", "requests"])
def test_counts_repeat_across_seeds(workload):
    first = cached(workload, 1, 1)["metrics"]
    second = cached(workload, 2, 1)["metrics"]
    for name in COUNT_METRICS:
        assert first[name]["value"] == second[name]["value"], name
    assert any(first[name]["value"] for name in COUNT_METRICS)
