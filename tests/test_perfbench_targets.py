"""Every qtriang name the benchmark's tracer patches still exists.

``perfbench/tracer.py`` wraps qtriang entry points by (module, attribute)
for ``perfbench/run.py --trace 1``.  A deleted or renamed entry point would
only fail there, so this test loads the tracer by path and resolves each
name the way the tracer does.
"""

import importlib
import importlib.util
import os

TRACER_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
