"""Micro-benchmarks for writing the CLI's reports, outside tier-1.

The file name does not match ``test_*.py``, so the default test run skips
it.  Run it with

    PYTHONPATH=src python -m pytest tests/bench_jsonio.py --benchmark-only

``canonical_dumps`` is timed on the ``classify`` documents of Z2xZ2 (226
data, 16 distinct) and D4, built once, and on the ``lambda --group D4 --n 4``
document, the size of one single request.  ``tensor_to_json`` is timed on the
first 16-term D4 R-matrix and on its Markov element; each round gets fresh
copies of the coefficients, so the minimal-order cache of a scalar does not
hide ``reduced()``.  ``classify`` is timed end to end on Z2xZ2 and D4 through
``cli.main``, with and without ``--triangular``: enumeration, verification,
the entry build and the rewrite of ``--out``; once more on Z2xZ2 with
``--out /dev/null``, which times all of that but the file.  The triangular
report is a view of the full catalog, so every datum is still built, and
only the triangular structures are verified.  ``lambda`` (D4 at n = 3, Z4 at n = 4) and ``adams``
(D4, u = 2, n = 3) are timed end to end the same way: parsing, the test
characters, the twisted operations on them and the report.  ``lambda`` on
D4 (u = 2, n = 3) is timed once more with the group read from a group
JSON file: each request loads a new group object, so its tables and test
representations are built and checked on every round.  So are
``verify --rmatrix`` on the last triangular D4 R-matrix, ``koszul-twist`` on
its datum and ``exterior --n 2`` on the last triangular Z2xZ2 datum (on D4
the regular rep fails the Newton match, exit 1): each reads its input file,
and the group's conjugation rows, characters and standard reps are built
on the first round only.
"""

import json
import os
from pathlib import Path

import pytest

from qtriang import jsonio
from qtriang.acceptance import qt_catalog
from qtriang.cli import _cmd_classify, _cmd_lambda, build_parser, main
from qtriang.groups import bundled_group
from qtriang.hopf import GATensor


@pytest.mark.parametrize("name", ["Z2xZ2", "D4"])
def test_canonical_dumps_classify(benchmark, name):
    doc, ok = _cmd_classify(build_parser().parse_args(["classify", "--group", name]))
    assert ok
    text = benchmark(jsonio.canonical_dumps, doc)
    assert text.startswith("{\n")


def test_canonical_dumps_lambda_d4(benchmark):
    doc, ok = _cmd_lambda(build_parser().parse_args(["lambda", "--group", "D4", "--n", "4"]))
    assert ok
    text = benchmark(jsonio.canonical_dumps, doc)
    assert text.startswith("{\n")


def _fresh_copy(tensor: GATensor) -> GATensor:
    # The same rows in a new tensor, whose coefficient scalars are built anew.
    return GATensor._make(tensor.group, tensor.arity, tensor.order, tensor.den, dict(tensor.rows))


@pytest.mark.parametrize("which", ["rmatrix", "markov"])
def test_tensor_to_json_d4(benchmark, which):
    structure = next(s for s in qt_catalog("D4").structures if len(s.rmatrix.terms) == 16)
    tensor = getattr(structure, which)
    doc = benchmark.pedantic(
        jsonio.tensor_to_json,
        setup=lambda: ((_fresh_copy(tensor),), {}),
        rounds=200,
    )
    assert len(doc["terms"]) == len(tensor.terms)


@pytest.mark.parametrize(
    "name, flags, size",
    [
        ("Z2xZ2", [], 10**6),
        ("Z2xZ2", ["--triangular"], 10**5),
        ("D4", [], 10**5),
        ("D4", ["--triangular"], 10**5),
        ("Z2xZ2", [], None),
    ],
    ids=["Z2xZ2-all", "Z2xZ2-triangular", "D4-all", "D4-triangular", "Z2xZ2-all-devnull"],
)
def test_classify_and_emit(benchmark, tmp_path, name, flags, size):
    # Each round rewrites one file in tmp_path; with no size the report goes
    # to /dev/null, so the rewrite's cost reads as the difference.
    out = tmp_path / "classify.json" if size else Path(os.devnull)
    status = benchmark(main, ["classify", "--group", name, *flags, "--out", str(out)])
    assert status == 0
    assert size is None or out.stat().st_size > size


@pytest.mark.parametrize(
    "argv",
    [
        ["lambda", "--group", "D4", "--n", "3"],
        ["lambda", "--group", "Z4", "--n", "4"],
        ["adams", "--group", "D4", "--u", "2", "--n", "3"],
    ],
    ids=["lambda-D4-n3", "lambda-Z4-n4", "adams-D4-u2-n3"],
)
def test_character_report_and_emit(benchmark, tmp_path, argv):
    out = tmp_path / "report.json"
    assert benchmark(main, [*argv, "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["results"]) == 5


def test_lambda_on_a_group_file(benchmark, tmp_path):
    path = tmp_path / "d4.json"
    path.write_text(json.dumps(jsonio.group_to_json(bundled_group("D4"))))
    out = tmp_path / "report.json"
    argv = ["lambda", "--group", str(path), "--u", "2", "--n", "3", "--out", str(out)]
    assert benchmark(main, argv) == 0
    assert len(json.loads(out.read_text())["results"]) == 5


@pytest.mark.parametrize(
    "name, argv",
    [
        ("D4", ["verify", "--rmatrix", "rmatrix.json"]),
        ("D4", ["koszul-twist", "--datum", "datum.json"]),
        ("Z2xZ2", ["exterior", "--datum", "datum.json", "--n", "2"]),
    ],
    ids=["verify-rmatrix-D4", "koszul-twist-D4", "exterior-Z2xZ2-n2"],
)
def test_datum_command_and_emit(benchmark, tmp_path, monkeypatch, name, argv):
    triangular = qt_catalog(name).triangular
    datum = triangular.data[-1]
    (tmp_path / "datum.json").write_text(json.dumps(jsonio.datum_to_json(datum)))
    rmatrix = jsonio.tensor_to_json(triangular.structures[-1].rmatrix)
    (tmp_path / "rmatrix.json").write_text(json.dumps(rmatrix))
    monkeypatch.chdir(tmp_path)
    assert benchmark(main, [*argv, "--out", "report.json"]) == 0
