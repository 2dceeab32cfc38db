"""Span recorders wrapped around the program's public functions, from outside the program.

A span is (name, start, end, parent index).  Spans stay in memory and are
summed per name when a pass ends.  Wrapping replaces a module attribute, so it
catches every caller that looks the name up in that module at call time; the
originals are restored when the `traced` block exits.  A target that no longer
exists stops the run with `MissingTarget`, so a rename in the program cannot
silently turn a layer's numbers into zeros.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter


class MissingTarget(RuntimeError):
    pass


# Layer of the handle that `resolve_method` returns, for the methods the workloads use.
METHOD_LAYER = {"ass": "exact", "as-numeric": "paths", "ss-brute": "oracles"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            slot = len(self.spans)
            self.spans.append(None)
            self._stack.append(slot)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[slot] = (name, start, perf_counter(), parent)
                self._stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return recorded

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def totals(self) -> dict[str, tuple[float, int, float]]:
        """Per span name: (total seconds, calls, self seconds excluding direct child spans)."""
        total: Counter = Counter()
        calls: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for k, (name, start, end, _) in enumerate(self.spans):
            own[name] += (end - start) - child[k]
        return {name: (total[name], calls[name], own[name]) for name in total}


def _count_monomials(tracer: Tracer, f):
    tracer.counts["models.monomials"] += len(f.multilinear.terms)


def _count_bytes(tracer: Tracer, text: str):
    tracer.counts["reports.render_bytes"] += len(text.encode())


def _resolve_hook(tracer: Tracer):
    def wrap_resolver(resolve):
        @functools.wraps(resolve)
        def resolve_recorded(method_id, *args, **kwargs):
            handle = resolve(method_id, *args, **kwargs)
            layer = METHOD_LAYER[method_id]
            return tracer.wrap(f"{layer}.attribute", handle, _count_unconverged if layer == "paths" else None)

        return resolve_recorded

    return wrap_resolver


def _count_unconverged(tracer: Tracer, result):
    tracer.counts["paths.unconverged"] += not result.converged


# (module, attribute, span name, result hook).  Names the CLI imported into its
# own namespace are wrapped there; names `run_report` calls are wrapped in
# `attrib.reports`; the DP is wrapped where `attribute_ass` looks it up.
TARGETS = [
    ("attrib.cli", "main", "cli.main", None),
    ("attrib.cli", "parse_model", "models.parse", None),
    ("attrib.cli", "parse_dag", "models.parse", None),
    ("attrib.cli", "parse_snapshots", "models.parse", None),
    ("attrib.cli", "run_report", "reports.run_report", None),
    ("attrib.cli", "render_machine", "reports.render", _count_bytes),
    ("attrib.reports", "compile_dag", "models.compile", None),
    ("attrib.reports", "compile_model", "models.compile", _count_monomials),
    ("attrib.reports", "resolve_method", None, None),
    ("attrib.exact", "attribute_monomial", "exact.monomial", None),
]


@contextlib.contextmanager
def traced(tracer: Tracer, targets=TARGETS):
    """Install span wrappers on every target for the duration of the block."""
    originals = []
    try:
        for module_name, attr, span, hook in targets:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise MissingTarget(f"{module_name}.{attr} no longer exists; the benchmark's span map needs updating")
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            wrapped = _resolve_hook(tracer)(fn) if attr == "resolve_method" else tracer.wrap(span, fn, hook)
            setattr(module, attr, wrapped)
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers for one traced pass."""
    totals = tracer.totals()

    def seconds(*names):
        return sum(totals.get(n, (0.0, 0, 0.0))[0] for n in names)

    def calls(*names):
        return sum(totals.get(n, (0.0, 0, 0.0))[1] for n in names)

    def own(name):
        return totals.get(name, (0.0, 0, 0.0))[2]

    return {
        "cli.main_s": seconds("cli.main"),
        "cli.self_s": own("cli.main"),
        "models.parse_s": seconds("models.parse"),
        "models.compile_s": seconds("models.compile"),
        "models.compile_calls": calls("models.compile"),
        "models.monomials": tracer.counts["models.monomials"],
        "reports.run_report_s": seconds("reports.run_report"),
        "reports.run_report_self_s": own("reports.run_report"),
        "reports.render_s": seconds("reports.render"),
        "reports.render_bytes": tracer.counts["reports.render_bytes"],
        "exact.attribute_s": seconds("exact.attribute"),
        "exact.calls": calls("exact.attribute"),
        "exact.monomial_s": seconds("exact.monomial"),
        "exact.monomial_calls": calls("exact.monomial"),
        "paths.attribute_s": seconds("paths.attribute"),
        "paths.calls": calls("paths.attribute"),
        "paths.unconverged": tracer.counts["paths.unconverged"],
        "oracles.attribute_s": seconds("oracles.attribute"),
        "oracles.calls": calls("oracles.attribute"),
    }
