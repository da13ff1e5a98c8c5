"""Everything of qtriang that the benchmark calls still exists and still works.

``perfbench/tracer.py`` wraps qtriang entry points by (module, attribute)
for ``perfbench/run.py --trace 1``, and ``perfbench/workloads.py`` builds
the timed items from qtriang calls.  A deleted or renamed entry point would
only fail in a benchmark run, so these tests load both files by path:
every traced name must resolve the way the tracer resolves it, and every
workload item must run once and give its golden record.
"""

import importlib
import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
TRACER_PATH = os.path.join(PERFBENCH, "tracer.py")
WORKLOADS_PATH = os.path.join(PERFBENCH, "workloads.py")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("perfbench_tracer", TRACER_PATH)


def _resolves(module_name: str, attr: str) -> bool:
    module = importlib.import_module(module_name)
    if "." in attr:
        # The tracer replaces the method in the class's own namespace.
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name, None)
        return cls is not None and callable(vars(cls).get(method))
    return callable(getattr(module, attr, None))


def test_every_traced_name_resolves_in_qtriang():
    tracer = _load_tracer()
    targets = [(module, attr) for _, module, attr, _ in tracer.SPANS]
    targets += [(module, attr) for _, module, attr in tracer.COUNTS]
    targets += [("qtriang.cyclotomic", f"CycScalar.{attr}") for attr in tracer.MUL_METHODS]
    assert len(targets) > 40
    assert all(module.startswith("qtriang.") for module, _ in targets)
    missing = [target for target in targets if not _resolves(*target)]
    assert missing == []


@pytest.mark.parametrize("workload", ["catalog", "braided", "requests"])
def test_every_workload_item_matches_its_golden_record(workload, tmp_path):
    # One untimed pass, checked the way perfbench/run.py checks a timed one:
    # a golden entry's known_defect is popped before the comparison.
    workloads = _load("perfbench_workloads", WORKLOADS_PATH)
    inputs = workloads.load_json(workloads.INPUTS_PATH)
    golden = workloads.load_json(workloads.GOLDEN_PATH)[workload]
    items = workloads.build_items(workload, inputs, str(tmp_path))
    assert items and len(items) == len(golden)
    mismatched = []
    for item in items:
        try:
            out, exc = item.run(), None
        except Exception as raised:
            out, exc = None, raised
        expected = dict(golden[item.id])
        expected.pop("known_defect", None)
        if workloads.record_of(item, out, exc) != expected:
            mismatched.append(item.id)
    assert mismatched == []
