"""Span tracing for the benchmark's traced runs.

The tracer wraps the public functions at each module boundary of the
package from outside it, so the program itself is unchanged. Each call
records a span (name, start, end, parent, step id) in memory; replay steps
are marked when ``run_scenario`` builds a ``TraceRow``. After the run,
:func:`layer_metrics` derives counts, inclusive and self times from the
spans.

Names bound by ``from x import y`` are rebound too: every attribute of every
``evident`` module that is the original function object gets the wrapper.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import sys
import time
from array import array
from bisect import bisect_right
from collections import Counter

# module -> public functions and methods wrapped in it; a target missing
# from the package is skipped and reported, so the tracer outlives renames
TARGETS = {
    "frames": ("translate_logical", "Frame.singleton", "Frame.proposition"),
    "masses": (
        "simple_support",
        "vacuous",
        "mass_new",
        "bayesian_from_probabilities",
        "MassFunction.interval",
        "MassFunction.belief",
        "MassFunction.plausibility",
    ),
    "combine": ("combine", "combine_all", "discount", "conflict_mass"),
    "_kernels": ("combine_products", "belief_sum", "plausibility_sum"),
    "decide": ("decide", "support_pro_con"),
    "scenario": ("load_scenario", "run_scenario", "emit_trace"),
    "routing": (
        "load_query",
        "load_sources",
        "answerability",
        "poll",
        "decompose",
        "make_view",
    ),
    "cli": ("main",),
}

RUN = "scenario.run_scenario"
IMPORT = "cli.import"


class Tracer:
    """Spans and counters of one process, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.step = array("i")
        self.marks = array("d")  # when each replay step's row was built
        self.counts: Counter = Counter()
        self.focals: list[int] = []  # focal count of every combine_all result
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._runs = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(len(self.marks) if self._runs else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span timed by the caller."""
        self.name.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)
        self.step.append(-1)

    def wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        is_run = name == RUN
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            if is_run:
                tracer._runs += 1
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
                if is_run:
                    tracer._runs -= 1
            if after is not None:
                after(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def mark_step(self) -> None:
        self.marks.append(time.perf_counter())

    # -- exchange with child processes -----------------------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": list(
                zip(self.name, self.start, self.end, self.parent, self.step)
            ),
            "marks": list(self.marks),
            "counts": dict(self.counts),
            "focals": self.focals,
            "missing": self.missing,
        }

    def merge(self, dump: dict) -> None:
        """Append a child's spans; its step ids continue after ours."""
        base = len(self.start)
        step_base = len(self.marks)
        for name_id, start, end, parent, step in dump["spans"]:
            self.name.append(self._name_id(dump["names"][name_id]))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.step.append(step + step_base if step >= 0 else -1)
        # perf_counter is the system monotonic clock, so a child's marks sort
        # in with ours as long as the processes ran one after another
        self.marks = array("d", sorted([*self.marks, *dump["marks"]]))
        self.counts.update(dump["counts"])
        self.focals.extend(dump["focals"])
        for m in dump["missing"]:
            if m not in self.missing:
                self.missing.append(m)

    def write_csv(self, path) -> None:
        """Write the spans as gzipped CSV, times in ns from the first span."""
        t0 = min(self.start, default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span,name,start_ns,end_ns,parent,step\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i},{self.names[self.name[i]]},"
                    f"{round((self.start[i] - t0) * 1e9)},{round((self.end[i] - t0) * 1e9)},"
                    f"{self.parent[i]},{self.step[i]}\n"
                )


def _count_pairs(tracer: Tracer, args) -> None:
    tracer.counts["pairs"] += len(args[0]) * len(args[2])


def _count_reports(tracer: Tracer, args) -> None:
    tracer.counts["reports"] += len(args[0].reports)


def _record_focals(tracer: Tracer, report) -> None:
    tracer.focals.append(len(report.result))


_BEFORE = {"_kernels.combine_products": _count_pairs, RUN: _count_reports}
_AFTER = {"combine.combine_all": _record_focals}


def install(tracer: Tracer) -> None:
    """Wrap every target in the ``evident`` package."""
    layers = {}
    for layer in TARGETS:
        try:
            # import_module returns the module even where the package has a
            # function of the same name (evident.combine)
            layers[layer] = importlib.import_module(f"evident.{layer}")
        except ImportError:
            layers[layer] = None
    modules = [
        m
        for key, m in list(sys.modules.items())
        if m is not None and (key == "evident" or key.startswith("evident."))
    ]
    for layer, targets in TARGETS.items():
        module = layers[layer]
        for dotted in targets:
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                tracer.missing.append(f"{layer}.{dotted}")
                continue
            wrapped = tracer.wrap(f"{layer}.{attr}", original)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
    row = getattr(sys.modules.get("evident.scenario"), "TraceRow", None)
    if row is None:
        tracer.missing.append("scenario.TraceRow")
        return
    build = row.__init__

    def marked(self, *args, **kwargs):
        build(self, *args, **kwargs)
        tracer.mark_step()

    row.__init__ = marked


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer counts and times from the spans, per operation.

    Times are milliseconds. ``_ms`` is inclusive (the call and everything it
    called); ``_self_ms`` excludes time in traced callees.
    """
    dur = array("d", (end - start for start, end in zip(tracer.start, tracer.end)))
    self_time = array("d", dur)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            self_time[p] -= dur[i]
    calls: Counter = Counter()
    incl: Counter = Counter()
    excl: Counter = Counter()
    in_run: Counter = Counter()
    steps: list[float] = []
    for i, name_id in enumerate(tracer.name):
        name = tracer.names[name_id]
        calls[name] += 1
        incl[name] += dur[i]
        excl[name] += self_time[i]
        if tracer.step[i] >= 0:
            in_run[name] += 1
        if name == RUN:
            lo = bisect_right(tracer.marks, tracer.start[i])
            hi = bisect_right(tracer.marks, tracer.end[i])
            prev = tracer.start[i]
            for mark in tracer.marks[lo:hi]:
                steps.append(mark - prev)
                prev = mark
    per = 1.0 / max(ops, 1)
    ms = 1000.0 * per

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    focals = tracer.focals
    metrics = {
        "scenario.load_ms": incl["scenario.load_scenario"] * ms,
        "scenario.emit_ms": incl["scenario.emit_trace"] * ms,
        "scenario.run_self_ms": excl[RUN] * ms,
        "scenario.step_ms_p50": 1000.0 * _percentile(steps, 50),
        "scenario.step_ms_p95": 1000.0 * _percentile(steps, 95),
        "scenario.steps": len(steps) * per,
        "combine.combine_calls": calls["combine.combine"] * per,
        "combine.combine_self_ms": excl["combine.combine"] * ms,
        "combine.calls_per_step": ratio(in_run["combine.combine"], len(steps)),
        "combine.calls_per_new_report": ratio(
            in_run["combine.combine"], tracer.counts["reports"]
        ),
        "combine.pairs": tracer.counts["pairs"] * per,
        "combine.discount_calls": calls["combine.discount"] * per,
        "combine.discount_ms": incl["combine.discount"] * ms,
        "_kernels.combine_products_calls": calls["_kernels.combine_products"] * per,
        "_kernels.combine_products_ms": incl["_kernels.combine_products"] * ms,
        "_kernels.belief_sum_ms": incl["_kernels.belief_sum"] * ms,
        "_kernels.plausibility_sum_ms": incl["_kernels.plausibility_sum"] * ms,
        "masses.simple_support_calls": calls["masses.simple_support"] * per,
        "masses.simple_support_ms": incl["masses.simple_support"] * ms,
        "masses.interval_calls": calls["masses.interval"] * per,
        "masses.interval_ms": incl["masses.interval"] * ms,
        "masses.fused_focals_mean": statistics.fmean(focals) if focals else 0.0,
        "masses.fused_focals_max": float(max(focals, default=0)),
        "frames.singleton_calls": calls["frames.singleton"] * per,
        "decide.decide_calls": calls["decide.decide"] * per,
        "decide.decide_self_ms": excl["decide.decide"] * ms,
        "routing.poll_calls": calls["routing.poll"] * per,
        "routing.poll_ms": incl["routing.poll"] * ms,
        "routing.decompose_calls": calls["routing.decompose"] * per,
        "routing.decompose_ms": incl["routing.decompose"] * ms,
        "cli.main_calls": calls["cli.main"] * per,
        "cli.import_ms": incl[IMPORT] * ms,
        "cli.main_ms": incl["cli.main"] * ms,
    }
    for layer in TARGETS:
        own = sum(t for name, t in excl.items() if name.split(".", 1)[0] == layer)
        metrics[f"{layer}.layer_self_ms"] = own * ms
    return metrics
