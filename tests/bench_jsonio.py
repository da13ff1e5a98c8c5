"""Micro-benchmarks for writing the ``classify`` report, outside tier-1.

The file name does not match ``test_*.py``, so the default test run skips
it.  Run it with

    PYTHONPATH=src python -m pytest tests/bench_jsonio.py --benchmark-only

``canonical_dumps`` is timed on the ``classify`` documents of Z2xZ2 (226
data, 16 distinct) and D4, built once; ``classify`` is timed end to end on
Z2xZ2 through ``cli.main``, with and without ``--triangular``: enumeration,
verification, the entry build and the write to ``--out``.  The triangular
report (28 data, 8 distinct) is a view of the full catalog, so every datum
is still built, and only the triangular structures are verified.
"""

import pytest

from qtriang import jsonio
from qtriang.cli import _cmd_classify, build_parser, main


@pytest.mark.parametrize("name", ["Z2xZ2", "D4"])
def test_canonical_dumps_classify(benchmark, name):
    doc, ok = _cmd_classify(build_parser().parse_args(["classify", "--group", name]))
    assert ok
    text = benchmark(jsonio.canonical_dumps, doc)
    assert text.startswith("{\n")


@pytest.mark.parametrize(
    "flags, size", [([], 10**6), (["--triangular"], 10**5)], ids=["all", "triangular"]
)
def test_classify_and_emit_z2xz2(benchmark, tmp_path, flags, size):
    out = tmp_path / "classify.json"
    status = benchmark(main, ["classify", "--group", "Z2xZ2", *flags, "--out", str(out)])
    assert status == 0
    assert out.stat().st_size > size
