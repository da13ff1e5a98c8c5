"""Layer tracing installed from outside the program.

``Tracer.install`` replaces layer entry points of qtriang with wrappers and
``uninstall`` puts every original back, so an untraced run executes the
program unmodified.  Span wrappers record (name, parent, start, end) in
memory and accumulate calls and self time: a span's duration minus the part
its child spans cover.  Scalar methods get counters only, because a timer
per ``CycScalar`` call added about a third to a catalog pass; scalar time
stays in the self time of the calling layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter


def _term_pairs(counts, args, result):
    left, right = args[0], args[1]
    pairs = len(left.terms) * len(right.terms) if hasattr(right, "terms") else len(left.terms)
    counts["hopf.mul.term_pairs"] += pairs


def _madds(counts, args, result):
    # Multiply-adds implied by operand sparsity: for each entry (k, j) of B,
    # the nonzeros of A's column k.
    a, b = args[0], args[1]
    a_cols = a.cols
    counts["linalg.matmul.madds"] += sum(
        len(a_cols.get(k, ())) for col in b.cols.values() for k in col
    )


def _catalog_sizes(counts, args, result):
    counts["classify.data"] += len(result.data)
    counts["classify.distinct"] += len(result.dedup)


# (span name, module, attribute, hook run after the call with the arguments
# and result; its cost is excluded from every span's self time)
SPANS = (
    ("hopf.mul", "qtriang.hopf", "GATensor.__mul__", _term_pairs),
    ("hopf.inverse", "qtriang.hopf", "GATensor.inverse", None),
    ("linalg.solve", "qtriang.linalg", "solve", None),
    ("linalg.rref", "qtriang.linalg", "rref", None),
    ("linalg.matmul", "qtriang.linalg", "Matrix.__matmul__", _madds),
    ("rmatrix.build_r", "qtriang.rmatrix", "build_r", None),
    ("rmatrix.verify_qt", "qtriang.rmatrix", "verify_qt", None),
    ("rmatrix.markov", "qtriang.rmatrix", "markov_element", None),
    ("rmatrix.koszul_twist", "qtriang.rmatrix", "koszul_twist", None),
    ("classify.enumerate", "qtriang.classify", "enumerate_qt", _catalog_sizes),
    ("charring.braided_build", "qtriang.charring", "BraidedAction.__init__", None),
    ("charring.braided_validate", "qtriang.charring", "BraidedAction.validate", None),
    ("charring.exterior", "qtriang.charring", "exterior_power_char", None),
    ("charring.cyclic", "qtriang.charring", "cyclic_operation_char", None),
    ("charring.class_fn", "qtriang.charring", "adams_twisted", None),
    ("charring.class_fn", "qtriang.charring", "lambda_from_adams", None),
    ("jsonio.parse", "qtriang.jsonio", "tensor_from_json", None),
    ("jsonio.parse", "qtriang.jsonio", "datum_from_json", None),
    ("jsonio.parse", "qtriang.jsonio", "group_from_json", None),
    ("jsonio.parse", "qtriang.jsonio", "class_function_from_json", None),
    ("jsonio.parse", "qtriang.jsonio", "matrix_rep_from_json", None),
    ("jsonio.emit", "qtriang.jsonio", "tensor_to_json", None),
    ("jsonio.emit", "qtriang.jsonio", "datum_to_json", None),
    ("jsonio.emit", "qtriang.jsonio", "group_to_json", None),
    ("jsonio.emit", "qtriang.jsonio", "class_function_to_json", None),
    ("jsonio.emit", "qtriang.jsonio", "matrix_to_json", None),
    ("jsonio.emit", "qtriang.jsonio", "matrix_rep_to_json", None),
    ("jsonio.emit", "qtriang.jsonio", "report_to_json", None),
    ("jsonio.emit", "qtriang.jsonio", "canonical_dumps", None),
    ("cli.main", "qtriang.cli", "main", None),
    ("groups", "qtriang.groups", "FiniteGroup.__init__", None),
    ("groups", "qtriang.groups", "bundled_group", None),
    ("groups", "qtriang.groups", "subgroup_structure", None),
    ("groups", "qtriang.groups", "abelian_normal_subgroups", None),
    ("groups", "qtriang.groups", "normal_inclusions", None),
    ("groups", "qtriang.groups", "enumerate_biforms", None),
    ("groups", "qtriang.groups", "same_module_structure", None),
)

# (counter name, module, attribute); add.calls covers subtraction as well.
COUNTS = (
    ("cyclotomic.add.calls", "qtriang.cyclotomic", "CycScalar.__add__"),
    ("cyclotomic.add.calls", "qtriang.cyclotomic", "CycScalar.__radd__"),
    ("cyclotomic.add.calls", "qtriang.cyclotomic", "CycScalar.__sub__"),
    ("cyclotomic.embed.calls", "qtriang.cyclotomic", "CycScalar.embed"),
    ("cyclotomic.reduced.calls", "qtriang.cyclotomic", "CycScalar.reduced"),
    ("cyclotomic.inverse.calls", "qtriang.cyclotomic", "CycScalar.inverse"),
    ("jsonio.scalar_to_json.calls", "qtriang.jsonio", "scalar_to_json"),
)
MUL_METHODS = ("__mul__", "__rmul__")

HOOK_COUNTS = (
    "hopf.mul.term_pairs",
    "linalg.matmul.madds",
    "classify.data",
    "classify.distinct",
    "cyclotomic.mul.calls",
    "cyclotomic.mul.mixed",
)


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = dict.fromkeys(HOOK_COUNTS, 0)
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # -- installing wrappers ---------------------------------------------------

    def install(self) -> None:
        for name, module, attr, hook in SPANS:
            self.calls.setdefault(name, 0)
            self.self_s.setdefault(name, 0.0)
            self._patch(module, attr, lambda fn, n=name, h=hook: self._span(n, fn, h))
        for name, module, attr in COUNTS:
            self.counts.setdefault(name, 0)
            self._patch(module, attr, lambda fn, n=name: self._counter(n, fn))
        for attr in MUL_METHODS:
            self._patch("qtriang.cyclotomic", f"CycScalar.{attr}", self._mul_counter)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, make_wrapper(original))
            self._restore.append((cls, method, original))
            return
        # A module-level function may also be bound by name in other qtriang
        # modules (``from .rmatrix import markov_element``): rebind every copy.
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qtriang" and not mod_name.startswith("qtriang."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def _span(self, name: str, fn, hook):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [len(self.span_start), 0.0]
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            stack.append(frame)
            start = perf_counter()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, frame, start, perf_counter())
                raise
            end = perf_counter()
            if hook is not None:
                hook(self.counts, args, result)
            self._close(name, frame, start, end)
            return result

        return wrapper

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        self.span_end[frame[0]] = end
        self.calls[name] += 1
        self.self_s[name] += end - start - frame[1]
        if stack:
            # The parent's covered time runs to now, so the hook's cost and
            # this bookkeeping stay out of the parent's self time too.
            stack[-1][1] += perf_counter() - start

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _mul_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, b):
            if self.active:
                counts["cyclotomic.mul.calls"] += 1
                if getattr(b, "order", 1) != a.order:
                    counts["cyclotomic.mul.mixed"] += 1
            return fn(a, b)

        return wrapper

    # -- results -----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every span's calls and self time, every counter, and the ratios."""
        out: dict[str, float] = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        muls = self.counts["cyclotomic.mul.calls"]
        out["cyclotomic.mixed_ratio"] = self.counts["cyclotomic.mul.mixed"] / muls if muls else 0.0
        # Distinct elements per verify_qt call: 1 once each distinct element
        # is verified only once.
        verified = self.calls["rmatrix.verify_qt"]
        distinct = self.counts["classify.distinct"]
        out["classify.distinct_ratio"] = distinct / verified if distinct else 0.0
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write every span (times in seconds from the first span) and totals."""
        origin = self.span_start[0] if self.span_start else 0.0
        doc = {
            "meta": meta,
            "names": self.names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": [
                [n, p, s - origin, e - origin]
                for n, p, s, e in zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end
                )
            ],
            "metrics": self.layer_metrics(),
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)
