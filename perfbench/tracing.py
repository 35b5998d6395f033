"""Spans around rlnoc's layers, recorded from outside the program.

``Tracer.install`` replaces the public entry points as ``rlnoc.cli``,
``rlnoc.bench`` and ``rlnoc.files`` see them, plus two ``Flowset`` methods,
with shims that record a span: name, start, end, parent span and the id of
the CLI call it belongs to.  Spans stay in compact arrays in memory and are
folded into per-name call counts and self times when a round ends.  A span's
self time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable

LAYERS = ("cli", "files", "bench", "model", "analysis", "sim")

# Entry points wrapped wherever the calling modules name them; every
# ``load_*`` and ``write_*`` function is wrapped too.
ENTRY_POINTS = frozenset({
    "schedulability_sweep", "improvement_report", "generate_flowset",
    "quick_verdict", "analyze", "run", "generate_rlrec",
})
CALLERS = ("rlnoc.cli", "rlnoc.bench", "rlnoc.files")

# (name, unit, exact): the per-layer metrics, in BENCHMARK.json order.  An
# exact metric repeats run to run on the same inputs; the traced run checks
# that it does.  Ratios over zero calls read 0.
PER_LAYER = (
    ("model.flowset_build.calls", "count", True),
    ("model.flowset_build.self_s", "s", False),
    ("model.interference_sets.calls", "count", True),
    ("model.interference_sets.self_s", "s", False),
    ("model.generate_rlrec.self_s", "s", False),
    ("analysis.quick_verdict.calls", "count", True),
    ("analysis.quick_verdict.self_s", "s", False),
    ("analysis.quick_verdict.schedulable_ratio", "ratio", True),
    ("analysis.analyze.calls", "count", True),
    ("analysis.analyze.self_s", "s", False),
    ("analysis.analyze.passes_mean", "passes", True),
    ("analysis.analyze.final_pass_steps", "count", True),
    ("analysis.analyze.diverged_flows", "count", True),
    ("bench.schedulability_sweep.self_s", "s", False),
    ("bench.generate_flowset.self_s", "s", False),
    ("bench.verdict_shortcut_ratio", "ratio", True),
    ("bench.improvement_report.self_s", "s", False),
    ("sim.run.calls", "count", True),
    ("sim.run.self_s", "s", False),
    ("sim.run.cycles_per_s", "1/s", False),
    ("sim.run.flit_hops", "count", True),
    ("sim.run.deflections", "count", True),
    ("sim.run.packets", "count", True),
    ("sim.prop_over_base_flit_hops", "ratio", True),
    ("sim.bound_violations", "count", True),
    ("sim.retention_drops", "count", True),
    ("sim.tightness_max", "ratio", True),
    ("files.write_trace_csv.self_s", "s", False),
    ("files.write_trace_csv.bytes", "bytes", True),
    ("files.load_flowset.self_s", "s", False),
    ("files.write_improvement_csv.self_s", "s", False),
    ("files.write_sweep_csv.self_s", "s", False),
    ("cli.main.self_s", "s", False),
    ("files.self_s", "s", False),
    ("bench.self_s", "s", False),
    ("model.self_s", "s", False),
    ("analysis.self_s", "s", False),
    ("sim.self_s", "s", False),
    ("trace.spans", "count", True),
    ("trace.wall_s", "s", False),
    ("trace.untraced_wall_s", "s", False),
    ("trace.overhead_s", "s", False),
    ("trace.unattributed_s", "s", False),
)


def _after_analyze(counts: Counter, args: tuple, kwargs: dict,
                   report: Any) -> None:
    counts["analyze.passes"] += report.passes
    counts["analyze.steps"] += sum(fa.iterations for fa in report.flows)
    counts["analyze.diverged"] += sum(fa.bound is None for fa in report.flows)


def _after_quick_verdict(counts: Counter, args: tuple, kwargs: dict,
                         verdict: bool) -> None:
    counts["quick_verdict.schedulable"] += bool(verdict)


def _after_sweep(counts: Counter, args: tuple, kwargs: dict,
                 points: Any) -> None:
    config = args[0]
    flowsets = len(list(config.points())) * config.flowsets_per_point
    counts["sweep.verdicts"] += flowsets * len(config.maxloops) * 2


def _after_run(counts: Counter, args: tuple, kwargs: dict,
               trace: Any) -> None:
    counts["run.flit_hops"] += trace.flit_hops
    counts[f"run.flit_hops.{args[1].value}"] += trace.flit_hops
    counts["run.deflections"] += sum(r.deflections for r in trace.records)
    counts["run.packets"] += len(trace.records)
    counts["run.bound_violations"] += trace.bound_violations
    counts["run.retention_drops"] += trace.retention_violations
    counts["run.cycles"] += trace.horizon
    bounds = kwargs.get("bounds") or {}
    for fid, latency in trace.max_latency.items():
        if bounds.get(fid):
            ratio = latency / bounds[fid]
            counts["run.tightness_max"] = max(counts["run.tightness_max"],
                                              ratio)


def _after_write_trace(counts: Counter, args: tuple, kwargs: dict,
                       result: Any) -> None:
    counts["write_trace_csv.bytes"] += os.path.getsize(args[0])


AFTER: dict[str, Callable[..., None]] = {
    "analysis.analyze": _after_analyze,
    "analysis.quick_verdict": _after_quick_verdict,
    "bench.schedulability_sweep": _after_sweep,
    "sim.run": _after_run,
    "files.write_trace_csv": _after_write_trace,
}


class Tracer:
    """Records spans of one traced round."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        after = AFTER.get(name)
        # Counting a result is tracing overhead, not work of any layer: it
        # gets a span of its own, a sibling of the span it reads.
        hook_nid = self._name_id("trace.hook")
        stack, start, end = self._stack, self.start, self.end
        name_id, parent, call = self.name_id, self.parent, self.call
        clock = time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = len(start)
            up = stack[-1]
            name_id.append(nid)
            parent.append(up)
            # A root span opens a CLI call; its index is the call's id.
            call.append(idx if up < 0 else call[up])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                hook = len(start)
                name_id.append(hook_nid)
                parent.append(up)
                call.append(call[idx])
                end.append(0.0)
                start.append(clock())
                after(counts, args, kwargs, result)
                end[hook] = clock()
            return result

        return shim

    def _patch(self, owner: object, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self) -> None:
        for caller in CALLERS:
            module = sys.modules[caller]
            for attr, fn in list(vars(module).items()):
                owner = getattr(fn, "__module__", "") or ""
                if (callable(fn) and not isinstance(fn, type)
                        and owner.startswith("rlnoc.")
                        and (attr in ENTRY_POINTS
                             or attr.startswith(("load_", "write_")))):
                    self._patch(module, attr,
                                f"{owner.split('.')[1]}.{attr}")
        flowset = sys.modules["rlnoc.model"].Flowset
        self._patch(flowset, "__init__", "model.flowset_build")
        self._patch(flowset, "interference_sets", "model.interference_sets")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def fold(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self seconds per span name."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        names, name_id = self.names, self.name_id
        for i in range(n):
            name = names[name_id[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        return calls, self_s


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_metrics(tracer: Tracer, calls: Counter, self_s: dict[str, float],
                  wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round whose calls took ``wall_s``."""
    c = tracer.counts
    m: dict[str, float] = {
        "model.flowset_build.calls": calls["model.flowset_build"],
        "model.flowset_build.self_s": self_s["model.flowset_build"],
        "model.interference_sets.calls": calls["model.interference_sets"],
        "model.interference_sets.self_s": self_s["model.interference_sets"],
        "model.generate_rlrec.self_s": self_s["model.generate_rlrec"],
        "analysis.quick_verdict.calls": calls["analysis.quick_verdict"],
        "analysis.quick_verdict.self_s": self_s["analysis.quick_verdict"],
        "analysis.quick_verdict.schedulable_ratio": _ratio(
            c["quick_verdict.schedulable"], calls["analysis.quick_verdict"]),
        "analysis.analyze.calls": calls["analysis.analyze"],
        "analysis.analyze.self_s": self_s["analysis.analyze"],
        "analysis.analyze.passes_mean": _ratio(
            c["analyze.passes"], calls["analysis.analyze"]),
        "analysis.analyze.final_pass_steps": c["analyze.steps"],
        "analysis.analyze.diverged_flows": c["analyze.diverged"],
        "bench.schedulability_sweep.self_s":
            self_s["bench.schedulability_sweep"],
        "bench.generate_flowset.self_s": self_s["bench.generate_flowset"],
        "bench.verdict_shortcut_ratio": _ratio(
            c["sweep.verdicts"] - calls["analysis.quick_verdict"],
            c["sweep.verdicts"]),
        "bench.improvement_report.self_s": self_s["bench.improvement_report"],
        "sim.run.calls": calls["sim.run"],
        "sim.run.self_s": self_s["sim.run"],
        "sim.run.cycles_per_s": _ratio(c["run.cycles"], self_s["sim.run"]),
        "sim.run.flit_hops": c["run.flit_hops"],
        "sim.run.deflections": c["run.deflections"],
        "sim.run.packets": c["run.packets"],
        "sim.prop_over_base_flit_hops": _ratio(
            c["run.flit_hops.proposed"], c["run.flit_hops.baseline"]),
        "sim.bound_violations": c["run.bound_violations"],
        "sim.retention_drops": c["run.retention_drops"],
        "sim.tightness_max": c["run.tightness_max"],
        "files.write_trace_csv.self_s": self_s["files.write_trace_csv"],
        "files.write_trace_csv.bytes": c["write_trace_csv.bytes"],
        "files.load_flowset.self_s": self_s["files.load_flowset"],
        "files.write_improvement_csv.self_s":
            self_s["files.write_improvement_csv"],
        "files.write_sweep_csv.self_s": self_s["files.write_sweep_csv"],
        "cli.main.self_s": self_s["cli.main"],
        "trace.spans": len(tracer.start),
        "trace.wall_s": wall_s,
    }
    layer_sum = 0.0
    for layer in LAYERS:
        total = sum(s for name, s in self_s.items()
                    if name.split(".")[0] == layer)
        layer_sum += total
        if layer != "cli":
            m[f"{layer}.self_s"] = total
    m["trace.unattributed_s"] = wall_s - layer_sum
    return m


def combine(rounds: list[dict[str, float]],
            untraced_walls: list[float]) -> tuple[dict[str, float], list[str]]:
    """Medians over traced rounds, and the exact metrics that did not repeat."""
    exact = {name for name, _, is_exact in PER_LAYER if is_exact}
    first = rounds[0]
    mismatched = sorted(name for name in exact
                        if any(r[name] != first[name] for r in rounds[1:]))
    out = {name: first[name] if name in exact
           else statistics.median(r[name] for r in rounds)
           for name in first}
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return {name: out[name] for name, _, _ in PER_LAYER}, mismatched


def span_table(calls: Counter, self_s: dict[str, float]) -> list[str]:
    """One line per span name, busiest first: calls and self seconds."""
    return [f"  {name:34s} calls={calls[name]:>9d} self_s={self_s[name]:.4f}"
            for name in sorted(calls, key=lambda n: -self_s[n])]
