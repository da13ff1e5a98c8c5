import contextlib
import io
import json
import os
import sys

import pytest

# A qtriang package in a PYTHONPATH entry (``PYTHONPATH=<checkout>/src``) is the
# one under test, so a bench run can time another checkout; otherwise this
# checkout's ``src`` goes first, ahead of any installed qtriang.
if not any(
    os.path.isdir(os.path.join(entry, "qtriang"))
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if entry
):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture(scope="session")
def selftest(tmp_path_factory):
    """One in-process ``qtriang selftest`` run: its exit status and JSON report."""
    from qtriang.cli import main

    out = tmp_path_factory.mktemp("selftest") / "self.json"
    with contextlib.redirect_stderr(io.StringIO()):
        status = main(["selftest", "--out", str(out)])
    return status, json.loads(out.read_text())
