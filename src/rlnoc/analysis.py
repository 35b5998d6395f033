"""Worst-case latency bounds for flows on deflection-based ring networks.

A packet's bound decomposes into the no-load latency, a ring-crossing term
for its own worst-case deflection loops, the wait before injection (idle
time at the head of the injection queue plus queuing behind packets that
share the injection link), and post-injection buffering along the path.

Two protocol variants differ only in the head-of-queue idle bound: under
full-packet deflection every loop of a ring peer drags its whole packet past
the injection switch; under header-only deflection, peers that cross the
switch only when deflected contribute just their header per loop.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping

from .model import Flowset

HARD_CAP = 1 << 20

# Outer-iteration safety stop; termination is guaranteed well before this
# because finite bounds are capped and the diverged set only grows.
MAX_PASSES = 4096

JitterMap = Mapping[int, "int | None"]


class ProtocolMode(Enum):
    BASELINE = "baseline"
    PROPOSED = "proposed"


@dataclass(frozen=True)
class FlowAnalysis:
    """Per-flow result. ``bound`` is None when the computation diverged."""

    flow_id: int
    no_load: int
    pre_idle: int | None
    pre_queue: int | None
    post_injection: int
    bound: int | None
    deadline: int
    jitter_used: tuple[tuple[int, int | None], ...]
    schedulable: bool
    converged: bool
    iterations: int


@dataclass(frozen=True)
class AnalysisReport:
    mode: ProtocolMode
    flows: tuple[FlowAnalysis, ...]
    schedulable: bool
    passes: int
    wall_time: float


def divergence_cap(flowset: Flowset, flow_id: int, hard_cap: int = HARD_CAP) -> int:
    """Busy-period size beyond which iteration gives up.

    Anything past the deadline already means unschedulable, so the cap only
    needs to sit above it; it scales with the peers' total deflection count
    so slowly-converging but finite instances are not cut off early.
    """
    flow = flowset.flow(flow_id)
    peers = flowset.interference_sets(flow_id).ring_peers
    loops = sum(flowset.flow(j).maxloop for j in peers)
    return min(hard_cap, max(flow.deadline, flow.period) * (1 + loops))


def _interference_terms(
    flowset: Flowset, flow_id: int, mode: ProtocolMode, jmap: JitterMap
) -> list[tuple[int, int, int]] | None:
    """(weight, period, window offset) per interferer, or None on unknown jitter.

    The idle bound is 1 + sum over terms of weight * ceil((I + offset) / period).
    Upstream peers cross the injection switch once per packet plus once per
    loop; the rest cross it only while looping, paying full length under
    full-packet deflection but only the header under header-only deflection.
    """
    sets = flowset.interference_sets(flow_id)
    header = flowset.header_len
    terms: list[tuple[int, int, int]] = []
    for fid in sets.upstream:
        g = flowset.flow(fid)
        jk = jmap.get(fid, 0)
        if jk is None:
            return None
        terms.append(((1 + g.maxloop) * g.length, g.period, g.jitter + jk))
    for fid in sets.deflected_only:
        g = flowset.flow(fid)
        if g.maxloop == 0:
            continue
        jk = jmap.get(fid, 0)
        if jk is None:
            return None
        charge = g.length if mode is ProtocolMode.BASELINE else header
        terms.append((g.maxloop * charge, g.period, g.jitter + jk))
    return terms


def _idle_fixpoint(
    terms: list[tuple[int, int, int]], cap: int
) -> tuple[int | None, int]:
    """Ascending iteration from 1; returns (least fixed point or None, steps)."""
    value = 1
    steps = 0
    while True:
        steps += 1
        nxt = 1 + sum(w * ((value + off + t - 1) // t) for w, t, off in terms)
        if nxt == value:
            return value, steps
        if nxt > cap:
            return None, steps
        value = nxt


def pre_injection_idle(
    flowset: Flowset,
    flow_id: int,
    mode: ProtocolMode,
    interference_jitter: JitterMap | None = None,
    hard_cap: int = HARD_CAP,
) -> int | None:
    """Worst-case wait at the head of the injection queue, or None if diverged."""
    terms = _interference_terms(flowset, flow_id, mode, interference_jitter or {})
    if terms is None:
        return None
    value, _ = _idle_fixpoint(terms, divergence_cap(flowset, flow_id, hard_cap))
    return value


def pre_injection_queue(
    flowset: Flowset, flow_id: int, idle_map: Mapping[int, int | None]
) -> int | None:
    """Wait behind injection-link sharers: their packets plus their idle waits."""
    total = 0
    for fid in flowset.interference_sets(flow_id).injection_sharers:
        idle = idle_map[fid]
        if idle is None:
            return None
        total += flowset.flow(fid).length + idle
    return total


def post_injection(flowset: Flowset, flow_id: int) -> int:
    """Worst-case buffering after injection, plus the flow's own loops.

    Every downstream switch can hold the packet for a full buffer drain, and
    each deflection adds one lap of the ring at one buffer delay per link.
    """
    flow = flowset.flow(flow_id)
    ring_len = len(flowset.ring_of(flow_id))
    buf = flowset.buffer_of(flow_id)
    downstream = len(flowset.path_of(flow_id)) - 1
    return downstream * buf + flow.maxloop * ring_len * buf


def _assemble(
    flowset: Flowset,
    flow_id: int,
    jmap: JitterMap,
    idle_map: Mapping[int, int | None],
    iterations: int,
) -> FlowAnalysis:
    flow = flowset.flow(flow_id)
    no_load = len(flowset.path_of(flow_id)) + flow.length
    idle = idle_map[flow_id]
    queue = pre_injection_queue(flowset, flow_id, idle_map)
    post = post_injection(flowset, flow_id)
    if idle is None or queue is None:
        bound = None
    else:
        bound = (
            no_load + len(flowset.ring_of(flow_id)) * flow.maxloop + idle + queue + post
        )
    peers = flowset.interference_sets(flow_id).ring_peers
    return FlowAnalysis(
        flow_id=flow_id,
        no_load=no_load,
        pre_idle=idle,
        pre_queue=queue,
        post_injection=post,
        bound=bound,
        deadline=flow.deadline,
        jitter_used=tuple((fid, jmap.get(fid, 0)) for fid in peers),
        schedulable=bound is not None and bound <= flow.deadline,
        converged=bound is not None,
        iterations=iterations,
    )


def response_time(
    flowset: Flowset,
    flow_id: int,
    mode: ProtocolMode,
    interference_jitter: JitterMap | None = None,
    hard_cap: int = HARD_CAP,
) -> FlowAnalysis:
    """Single-pass bound for one flow under a fixed interference-jitter map.

    Sharers' idle waits are computed against the same jitter snapshot, so the
    result is independent of evaluation order.
    """
    jmap = dict(interference_jitter or {})
    own_sets = flowset.interference_sets(flow_id)
    idle_map: dict[int, int | None] = {}
    iterations = 0
    for fid in (flow_id, *own_sets.injection_sharers):
        terms = _interference_terms(flowset, fid, mode, jmap)
        if terms is None:
            idle_map[fid] = None
            continue
        value, steps = _idle_fixpoint(terms, divergence_cap(flowset, fid, hard_cap))
        idle_map[fid] = value
        if fid == flow_id:
            iterations = steps
    return _assemble(flowset, flow_id, jmap, idle_map, iterations)


def _pass(
    flowset: Flowset, mode: ProtocolMode, jmap: JitterMap, hard_cap: int
) -> tuple[dict[int, int | None], dict[int, int]]:
    """One whole-set evaluation: idle fixpoints for every flow, then bounds."""
    idle_map: dict[int, int | None] = {}
    iteration_map: dict[int, int] = {}
    for f in flowset:
        terms = _interference_terms(flowset, f.flow_id, mode, jmap)
        if terms is None:
            idle_map[f.flow_id] = None
            iteration_map[f.flow_id] = 0
            continue
        cap = divergence_cap(flowset, f.flow_id, hard_cap)
        idle_map[f.flow_id], iteration_map[f.flow_id] = _idle_fixpoint(terms, cap)
    return idle_map, iteration_map


def _bounds_from(
    flowset: Flowset, idle_map: Mapping[int, int | None]
) -> dict[int, int | None]:
    bounds: dict[int, int | None] = {}
    for f in flowset:
        idle = idle_map[f.flow_id]
        queue = pre_injection_queue(flowset, f.flow_id, idle_map)
        if idle is None or queue is None:
            bounds[f.flow_id] = None
            continue
        no_load = len(flowset.path_of(f.flow_id)) + f.length
        bounds[f.flow_id] = (
            no_load
            + len(flowset.ring_of(f.flow_id)) * f.maxloop
            + idle
            + queue
            + post_injection(flowset, f.flow_id)
        )
    return bounds


def _next_jitter(
    flowset: Flowset, bounds: Mapping[int, int | None]
) -> dict[int, int | None]:
    jmap: dict[int, int | None] = {}
    for f in flowset:
        b = bounds[f.flow_id]
        if b is None:
            jmap[f.flow_id] = None
        else:
            no_load = len(flowset.path_of(f.flow_id)) + f.length
            jmap[f.flow_id] = max(b - no_load, 0)
    return jmap


def analyze(
    flowset: Flowset, mode: ProtocolMode, hard_cap: int = HARD_CAP
) -> AnalysisReport:
    """Whole-set bounds with interference jitter resolved by fixed point.

    Interference jitter of each flow is its bound minus its no-load latency
    from the previous pass, starting at zero; passes repeat until every bound
    is unchanged.  Diverged flows keep a None bound, which forces every flow
    depending on them to None as well, and never recover (passes are
    monotone), so the loop terminates.

    Bounds only rise from pass to pass, so if ``MAX_PASSES`` runs out before
    the fixed point, the last pass's bounds may be too low: every flow is
    then reported with ``converged=False`` and ``schedulable=False``.
    """
    start = time.perf_counter()
    jmap: dict[int, int | None] = {f.flow_id: 0 for f in flowset}
    prev_bounds: dict[int, int | None] | None = None
    passes = 0
    while True:
        passes += 1
        idle_map, iteration_map = _pass(flowset, mode, jmap, hard_cap)
        bounds = _bounds_from(flowset, idle_map)
        converged = bounds == prev_bounds
        if converged or passes >= MAX_PASSES:
            break
        prev_bounds = bounds
        jmap = _next_jitter(flowset, bounds)
    flows = tuple(
        _assemble(flowset, f.flow_id, jmap, idle_map, iteration_map[f.flow_id])
        for f in flowset
    )
    if not converged:
        flows = tuple(
            replace(fa, schedulable=False, converged=False) for fa in flows
        )
    return AnalysisReport(
        mode=mode,
        flows=flows,
        schedulable=all(fa.schedulable for fa in flows),
        passes=passes,
        wall_time=time.perf_counter() - start,
    )


def quick_verdict(
    flowset: Flowset, mode: ProtocolMode, hard_cap: int = HARD_CAP
) -> bool:
    """Schedulability verdict only, with early exits.

    Sound because bounds rise monotonically across passes: one flow over its
    deadline in any pass stays over it at the fixed point.  A constant-time
    floor (idle wait of 1, one packet plus one idle cycle per sharer) screens
    flows before any iteration.
    """
    for f in flowset:
        floor = (
            len(flowset.path_of(f.flow_id))
            + f.length
            + len(flowset.ring_of(f.flow_id)) * f.maxloop
            + 1
            + post_injection(flowset, f.flow_id)
        )
        for fid in flowset.interference_sets(f.flow_id).injection_sharers:
            floor += flowset.flow(fid).length + 1
        if floor > f.deadline:
            return False
    jmap: dict[int, int | None] = {f.flow_id: 0 for f in flowset}
    prev_bounds: dict[int, int | None] | None = None
    passes = 0
    while passes < MAX_PASSES:
        passes += 1
        idle_map, _ = _pass(flowset, mode, jmap, hard_cap)
        bounds = _bounds_from(flowset, idle_map)
        for f in flowset:
            b = bounds[f.flow_id]
            if b is None or b > f.deadline:
                return False
        if bounds == prev_bounds:
            return True
        prev_bounds = bounds
        jmap = _next_jitter(flowset, bounds)
    return False
