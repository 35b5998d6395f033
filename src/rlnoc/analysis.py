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
from typing import Iterator, Mapping, NamedTuple, Sequence

from .model import Flowset, no_load_latency

HARD_CAP = 1 << 20

# Outer-iteration safety stop; termination is guaranteed well before this
# because finite bounds are capped and the diverged set only grows.
MAX_PASSES = 4096

JitterMap = Mapping[int, "int | None"]

# (interferer position, weight, period, release jitter + period - 1): the
# interferer holds the flow's injection switch for ``weight`` cycles per
# release in the window.
Term = tuple[int, int, int, int]
# A flow's idle-bound terms and its divergence cap.
Window = tuple[list[Term], int]


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


class _Row(NamedTuple):
    """The inputs of one flow's bound that no interferer's jitter changes."""

    no_load: int
    post: int
    fixed: int  # no-load latency + own loops' ring crossings + post-injection
    sharers: list[int]  # positions of the flows sharing its injection link
    sharer_length: int  # their packet lengths, summed


class _Table:
    """Every flow's bound inputs for one call, by position in ``flowset.flows``.

    Interferers and injection sharers are named by position too, so the
    outer passes run over lists.  A flow's row and window are built on first
    use and never again in the call: ``analyze`` builds them all, while
    ``quick_verdict`` builds only what its screens reach.  ``idle`` and
    ``steps`` hold pass 1's idle wait (every interference jitter 0) of each
    flow whose window has been built.
    """

    def __init__(self, flowset: Flowset, mode: ProtocolMode) -> None:
        self.flowset = flowset
        self.mode = mode
        self.at = {f.flow_id: pos for pos, f in enumerate(flowset.flows)}
        n = len(flowset.flows)
        self.rows: list[_Row | None] = [None] * n
        self.windows: list[Window | None] = [None] * n
        self.idle: list[int | None] = [None] * n
        self.steps = [0] * n
        self.zero = [0] * n

    def row(self, pos: int) -> _Row:
        """The interference-free inputs of the flow at ``pos``.

        Post-injection buffering: every downstream switch can hold the packet
        for a full buffer drain, and each own deflection adds one lap of the
        ring at one buffer delay per link.  The fixed part of the bound adds
        the no-load latency and one ring crossing per own deflection; the
        bound adds the idle and queue waits to it.
        """
        row = self.rows[pos]
        if row is None:
            fs = self.flowset
            fid = fs.flows[pos].flow_id
            lap = len(fs.ring_of(fid))
            buf = fs.buffer_of(fid)
            loops = fs.maxloops[fid]
            post = (len(fs.path_of(fid)) - 1) * buf + loops * lap * buf
            no_load = no_load_latency(fs, fid)
            sharers = [self.at[g] for g in fs.injection_sharers(fid)]
            length = 0
            for p in sharers:
                length += fs.flows[p].length
            row = self.rows[pos] = _Row(
                no_load, post, no_load + loops * lap + post, sharers, length
            )
        return row

    def window(self, pos: int) -> Window:
        """The idle-bound terms and divergence cap of the flow at ``pos``.

        The idle bound is 1 + sum over terms of
        weight * ceil((I + release jitter + interference jitter) / period).
        Upstream peers cross the injection switch once per packet plus once
        per loop; the rest cross it only while looping, paying full length
        under full-packet deflection but one header flit under header-only
        deflection.

        The cap is the busy-period size beyond which iteration gives up.
        Anything past the deadline already means unschedulable, so the cap
        only needs to sit above it (the period, as a deadline never exceeds
        it); it scales with the peers' total deflection count so
        slowly-converging but finite instances are not cut off early.
        """
        window = self.windows[pos]
        if window is None:
            fs, at = self.flowset, self.at
            flows, loops = fs.flows, fs.maxloops
            sets = fs.interference_sets(flows[pos].flow_id)
            terms: list[Term] = []
            peer_loops = 0
            for g in sets.upstream:
                k = loops[g]
                p = at[g]
                f = flows[p]
                peer_loops += k
                terms.append((p, (1 + k) * f.length, f.period,
                              f.jitter + f.period - 1))
            full = self.mode is ProtocolMode.BASELINE
            for g in sets.deflected_only:
                k = loops[g]
                if k:
                    p = at[g]
                    f = flows[p]
                    peer_loops += k
                    terms.append((p, k * (f.length if full else 1), f.period,
                                  f.jitter + f.period - 1))
            cap = min(HARD_CAP, flows[pos].period * (1 + peer_loops))
            window = self.windows[pos] = terms, cap
        return window

    def first_idle(self, pos: int) -> int | None:
        """Pass 1's idle wait of the flow at ``pos``, building its window."""
        if self.windows[pos] is None:
            self.idle[pos], self.steps[pos] = _idle(self.window(pos), self.zero)
        return self.idle[pos]


def _table_at(
    flowset: Flowset, flow_id: int, mode: ProtocolMode = ProtocolMode.BASELINE
) -> tuple[_Table, int]:
    """A table for ``flowset`` and the position of ``flow_id`` in it.

    Only windows depend on the mode, so readers of a row or a divergence
    cap may leave it at its default.
    """
    table = _Table(flowset, mode)
    return table, table.at[flow_id]


def _idle(window: Window, jitter: list[int | None]) -> tuple[int | None, int]:
    """Least fixed point of the idle bound by ascending iteration from 1.

    ``jitter`` holds each flow's interference jitter by position.  Returns
    (fixed point, steps taken), with None for the fixed point when it passes
    the cap or an interferer's jitter is unknown (then 0 steps).
    """
    terms, cap = window
    live: list[tuple[int, int, int]] = []
    for pos, weight, period, offset in terms:
        jk = jitter[pos]
        if jk is None:
            return None, 0
        live.append((weight, period, offset + jk))
    value = 1
    steps = 0
    while True:
        steps += 1
        # A loop, not sum() over a generator: windows hold a few terms.
        nxt = 1
        for weight, period, offset in live:
            nxt += weight * ((value + offset) // period)
        if nxt == value:
            return value, steps
        if nxt > cap:
            return None, steps
        value = nxt


def _queue(
    row: _Row, idle: Sequence[int | None] | Mapping[int, int | None]
) -> int | None:
    """Wait behind injection-link sharers: their packets plus their idle waits.

    ``idle`` holds the sharers' idle waits by position.
    """
    total = row.sharer_length
    for pos in row.sharers:
        wait = idle[pos]
        if wait is None:
            return None
        total += wait
    return total


def _bound(fixed: int, idle: int | None, queue: int | None) -> int | None:
    """The bound: the interference-free part plus the idle and queue waits."""
    return None if idle is None or queue is None else fixed + idle + queue


def divergence_cap(flowset: Flowset, flow_id: int) -> int:
    """Busy-period size beyond which iteration gives up (``_Table.window``)."""
    table, pos = _table_at(flowset, flow_id)
    return table.window(pos)[1]


def pre_injection_idle(
    flowset: Flowset,
    flow_id: int,
    mode: ProtocolMode,
    interference_jitter: JitterMap | None = None,
) -> int | None:
    """Worst-case wait at the head of the injection queue, or None if diverged."""
    table, pos = _table_at(flowset, flow_id, mode)
    jmap = interference_jitter or {}
    jitter = [jmap.get(f.flow_id, 0) for f in flowset.flows]
    return _idle(table.window(pos), jitter)[0]


def pre_injection_queue(
    flowset: Flowset, flow_id: int, idle_map: Mapping[int, int | None]
) -> int | None:
    """Wait behind injection-link sharers: their packets plus their idle waits."""
    table, pos = _table_at(flowset, flow_id)
    row = table.row(pos)
    flows = flowset.flows
    return _queue(row, {p: idle_map[flows[p].flow_id] for p in row.sharers})


def post_injection(flowset: Flowset, flow_id: int) -> int:
    """Worst-case buffering after injection, plus the flow's own loops."""
    table, pos = _table_at(flowset, flow_id)
    return table.row(pos).post


@dataclass(frozen=True)
class _Pass:
    """One whole-set evaluation under one interference-jitter list.

    Every list is indexed by position in ``flowset.flows``.
    """

    jitter: list[int | None]
    idle: list[int | None]
    steps: list[int]
    queue: list[int | None]
    bounds: list[int | None]
    converged: bool


def _passes(table: _Table) -> Iterator[_Pass]:
    """Outer passes resolving interference jitter, one state per pass.

    Interference jitter of each flow is its bound minus its no-load latency
    from the previous pass, starting at zero; passes repeat until every bound
    is unchanged, or ``MAX_PASSES`` have run.  Diverged flows keep a None
    bound, which forces every flow depending on them to None as well, and
    never recover (passes are monotone), so the fixed point is reached.
    Whatever ``table`` already holds is not built again.
    """
    positions = range(len(table.at))
    rows = [table.row(pos) for pos in positions]
    for pos in positions:
        table.first_idle(pos)
    windows = table.windows
    jitter, idle, steps = table.zero, table.idle, table.steps
    prev: list[int | None] | None = None
    for number in range(MAX_PASSES):
        if number:
            idle, steps = [], []
            for window in windows:
                wait, taken = _idle(window, jitter)
                idle.append(wait)
                steps.append(taken)
        queue = [_queue(row, idle) for row in rows]
        bounds = [
            _bound(row.fixed, wait, q) for row, wait, q in zip(rows, idle, queue)
        ]
        converged = bounds == prev
        yield _Pass(jitter, idle, steps, queue, bounds, converged)
        if converged:
            return
        prev = bounds
        # A bound is at least no-load latency plus one idle cycle, so the
        # jitter it hands on is positive.
        jitter = [
            None if b is None else b - row.no_load for b, row in zip(bounds, rows)
        ]


def _row(table: _Table, pos: int, state: _Pass) -> FlowAnalysis:
    """The result of the flow at ``pos`` as the pass ``state`` left it."""
    flow = table.flowset.flows[pos]
    row = table.rows[pos]
    bound = state.bounds[pos]
    # Positional, in field order: keywords cost more than the rest of the row.
    return FlowAnalysis(
        flow.flow_id, row.no_load, state.idle[pos], state.queue[pos], row.post,
        bound, flow.deadline, bound is not None and bound <= flow.deadline,
        bound is not None, state.steps[pos],
    )


def response_time(flowset: Flowset, flow_id: int, mode: ProtocolMode) -> FlowAnalysis:
    """Single-pass bound for one flow, every interferer's jitter taken as zero.

    This is the first outer pass of ``analyze``: sharers' idle waits are
    computed against the same jitter snapshot, so the result is independent
    of evaluation order.
    """
    table, pos = _table_at(flowset, flow_id, mode)
    return _row(table, pos, next(_passes(table)))


def analyze(flowset: Flowset, mode: ProtocolMode) -> AnalysisReport:
    """Whole-set bounds with interference jitter resolved by fixed point.

    Bounds only rise from pass to pass, so if ``MAX_PASSES`` runs out before
    the fixed point, the last pass's bounds may be too low: every flow is
    then reported with ``converged=False`` and ``schedulable=False``.
    """
    start = time.perf_counter()
    table = _Table(flowset, mode)
    passes = 0
    for last in _passes(table):
        passes += 1
    flows = tuple(_row(table, pos, last) for pos in range(len(table.at)))
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
    every flow from its row alone; then pass 1's bounds are computed flow by
    flow, least floor slack first, up to the first miss.  Every jitter is 0
    in pass 1, so each idle wait depends on its own flow alone and is
    computed once: these are the bounds of pass 1 of ``_passes``, and their
    order cannot change the verdict.  Both screens fill one table, which
    ``_passes`` then completes, so no row or window is built twice.
    """
    table = _Table(flowset, mode)
    flows = flowset.flows
    slack: list[int] = []
    for pos, f in enumerate(flows):
        row = table.row(pos)
        floor = row.fixed + 1 + row.sharer_length + len(row.sharers)
        if floor > f.deadline:
            return False
        slack.append(f.deadline - floor)
    for pos in sorted(range(len(flows)), key=slack.__getitem__):  # ties keep flow order
        row = table.rows[pos]
        for p in row.sharers:
            table.first_idle(p)
        b = _bound(row.fixed, table.first_idle(pos), _queue(row, table.idle))
        if b is None or b > flows[pos].deadline:
            return False
    for state in _passes(table):
        for f, b in zip(flows, state.bounds):
            if b is None or b > f.deadline:
                return False
        if state.converged:
            return True
    return False
