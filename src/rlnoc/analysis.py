"""Worst-case latency bounds for flows on deflection-based ring networks.

A packet's bound decomposes into the no-load latency, a ring-crossing term
for its own worst-case deflection loops, the wait before injection (idle
time at the head of the injection queue plus queuing behind packets that
share the injection link), and post-injection buffering along the path.

Two protocol variants differ only in the head-of-queue idle bound: under
full-packet deflection every loop of a ring peer drags its whole packet past
the injection switch; under header-only deflection, peers that cross the
switch only when deflected contribute just their one header flit per loop.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Mapping

from .model import Flowset, no_load_latency

HARD_CAP = 1 << 20

# Outer-iteration safety stop; termination is guaranteed well before this
# because finite bounds are capped and the diverged set only grows.
MAX_PASSES = 4096

JitterMap = Mapping[int, "int | None"]

# (interferer, weight, period, release jitter): the interferer holds the
# flow's injection switch for ``weight`` cycles per release in the window.
Term = tuple[int, int, int, int]


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


def divergence_cap(flowset: Flowset, flow_id: int) -> int:
    """Busy-period size beyond which iteration gives up.

    Anything past the deadline already means unschedulable, so the cap only
    needs to sit above it (the period, as a deadline never exceeds it); it
    scales with the peers' total deflection count so slowly-converging but
    finite instances are not cut off early.
    """
    peers = flowset.interference_sets(flow_id).ring_peers
    loops = sum(flowset.maxloops[j] for j in peers)
    return min(HARD_CAP, flowset.flow(flow_id).period * (1 + loops))


def _terms(flowset: Flowset, flow_id: int, mode: ProtocolMode) -> list[Term]:
    """Interference terms of the flow's head-of-queue idle bound.

    The idle bound is 1 + sum over terms of
    weight * ceil((I + release jitter + interference jitter) / period).
    Upstream peers cross the injection switch once per packet plus once per
    loop; the rest cross it only while looping, paying full length under
    full-packet deflection but one header flit under header-only deflection.
    """
    sets = flowset.interference_sets(flow_id)
    loops = flowset.maxloops
    terms: list[Term] = []
    for fid in sets.upstream:
        g = flowset.flow(fid)
        terms.append((fid, (1 + loops[fid]) * g.length, g.period, g.jitter))
    for fid in sets.deflected_only:
        if loops[fid] == 0:
            continue
        g = flowset.flow(fid)
        charge = g.length if mode is ProtocolMode.BASELINE else 1
        terms.append((fid, loops[fid] * charge, g.period, g.jitter))
    return terms


def _idle(terms: list[Term], jmap: JitterMap, cap: int) -> tuple[int | None, int]:
    """Least fixed point of the idle bound by ascending iteration from 1.

    Returns (fixed point, steps taken), with None for the fixed point when
    it passes ``cap`` or an interferer's jitter is unknown (then 0 steps).
    """
    window: list[tuple[int, int, int]] = []
    for fid, weight, period, jitter in terms:
        jk = jmap.get(fid, 0)
        if jk is None:
            return None, 0
        window.append((weight, period, jitter + jk + period - 1))
    value = 1
    steps = 0
    while True:
        steps += 1
        nxt = 1 + sum(w * ((value + off) // t) for w, t, off in window)
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
) -> int | None:
    """Worst-case wait at the head of the injection queue, or None if diverged."""
    terms = _terms(flowset, flow_id, mode)
    cap = divergence_cap(flowset, flow_id)
    return _idle(terms, interference_jitter or {}, cap)[0]


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
    ring_len = len(flowset.ring_of(flow_id))
    buf = flowset.buffer_of(flow_id)
    downstream = len(flowset.path_of(flow_id)) - 1
    return downstream * buf + flowset.maxloops[flow_id] * ring_len * buf


def _fixed(flowset: Flowset, flow_id: int) -> int:
    """The part of the bound no interferer affects.

    No-load latency, one ring crossing per own deflection, and
    post-injection buffering; the bound adds the idle and queue waits.
    """
    loops = len(flowset.ring_of(flow_id)) * flowset.maxloops[flow_id]
    return no_load_latency(flowset, flow_id) + loops + post_injection(flowset, flow_id)


@dataclass(frozen=True)
class _Pass:
    """One whole-set evaluation under one interference-jitter map."""

    jitter: dict[int, int | None]
    idle: dict[int, int | None]
    steps: dict[int, int]
    queue: dict[int, int | None]
    bounds: dict[int, int | None]
    converged: bool


def _passes(flowset: Flowset, mode: ProtocolMode) -> Iterator[_Pass]:
    """Outer passes resolving interference jitter, one state per pass.

    Interference jitter of each flow is its bound minus its no-load latency
    from the previous pass, starting at zero; passes repeat until every bound
    is unchanged, or ``MAX_PASSES`` have run.  Diverged flows keep a None
    bound, which forces every flow depending on them to None as well, and
    never recover (passes are monotone), so the fixed point is reached.
    """
    flows = [
        (f.flow_id, _terms(flowset, f.flow_id, mode), divergence_cap(flowset, f.flow_id))
        for f in flowset
    ]
    fixed = {f.flow_id: _fixed(flowset, f.flow_id) for f in flowset}
    no_load = {f.flow_id: no_load_latency(flowset, f.flow_id) for f in flowset}
    jmap: dict[int, int | None] = {fid: 0 for fid in fixed}
    prev: dict[int, int | None] | None = None
    for _ in range(MAX_PASSES):
        idle: dict[int, int | None] = {}
        steps: dict[int, int] = {}
        for fid, terms, cap in flows:
            idle[fid], steps[fid] = _idle(terms, jmap, cap)
        queue: dict[int, int | None] = {}
        bounds: dict[int, int | None] = {}
        for fid, base in fixed.items():
            queue[fid] = wait = pre_injection_queue(flowset, fid, idle)
            own = idle[fid]
            bounds[fid] = None if own is None or wait is None else base + own + wait
        converged = bounds == prev
        yield _Pass(jmap, idle, steps, queue, bounds, converged)
        if converged:
            return
        prev = bounds
        # A bound is at least no-load latency plus one idle cycle, so the
        # jitter it hands on is positive.
        jmap = {
            fid: None if b is None else b - no_load[fid]
            for fid, b in bounds.items()
        }


def _row(flowset: Flowset, flow_id: int, state: _Pass) -> FlowAnalysis:
    """The flow's result as the pass ``state`` left it."""
    flow = flowset.flow(flow_id)
    bound = state.bounds[flow_id]
    peers = flowset.interference_sets(flow_id).ring_peers
    return FlowAnalysis(
        flow_id=flow_id,
        no_load=no_load_latency(flowset, flow_id),
        pre_idle=state.idle[flow_id],
        pre_queue=state.queue[flow_id],
        post_injection=post_injection(flowset, flow_id),
        bound=bound,
        deadline=flow.deadline,
        jitter_used=tuple((fid, state.jitter[fid]) for fid in peers),
        schedulable=bound is not None and bound <= flow.deadline,
        converged=bound is not None,
        iterations=state.steps[flow_id],
    )


def response_time(flowset: Flowset, flow_id: int, mode: ProtocolMode) -> FlowAnalysis:
    """Single-pass bound for one flow, every interferer's jitter taken as zero.

    This is the first outer pass of ``analyze``: sharers' idle waits are
    computed against the same jitter snapshot, so the result is independent
    of evaluation order.
    """
    return _row(flowset, flow_id, next(_passes(flowset, mode)))


def analyze(flowset: Flowset, mode: ProtocolMode) -> AnalysisReport:
    """Whole-set bounds with interference jitter resolved by fixed point.

    Bounds only rise from pass to pass, so if ``MAX_PASSES`` runs out before
    the fixed point, the last pass's bounds may be too low: every flow is
    then reported with ``converged=False`` and ``schedulable=False``.
    """
    start = time.perf_counter()
    passes = 0
    for last in _passes(flowset, mode):
        passes += 1
    flows = tuple(_row(flowset, f.flow_id, last) for f in flowset)
    if not last.converged:
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


def quick_verdict(flowset: Flowset, mode: ProtocolMode) -> bool:
    """Schedulability verdict only, with early exits.

    Sound because bounds rise monotonically across passes: one flow over its
    deadline in any pass stays over it at the fixed point.  A constant-time
    floor (idle wait of 1, one packet plus one idle cycle per sharer) screens
    flows before any iteration.
    """
    for f in flowset:
        floor = _fixed(flowset, f.flow_id) + 1
        for fid in flowset.interference_sets(f.flow_id).injection_sharers:
            floor += flowset.flow(fid).length + 1
        if floor > f.deadline:
            return False
    for state in _passes(flowset, mode):
        for f in flowset:
            b = state.bounds[f.flow_id]
            if b is None or b > f.deadline:
                return False
        if state.converged:
            return True
    return False
