import contextlib
import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture(scope="session")
def selftest(tmp_path_factory):
    """One in-process ``qtriang selftest`` run: its exit status and JSON report."""
    from qtriang.cli import main

    out = tmp_path_factory.mktemp("selftest") / "self.json"
    with contextlib.redirect_stderr(io.StringIO()):
        status = main(["selftest", "--out", str(out)])
    return status, json.loads(out.read_text())
