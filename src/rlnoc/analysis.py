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

import weakref
from enum import Enum
from typing import Iterator, NamedTuple

from .model import Flowset, no_load_latency

HARD_CAP = 1 << 20

# Outer-iteration safety stop; termination is guaranteed well before this
# because finite bounds are capped and the diverged set only grows.
MAX_PASSES = 4096

# (interferer position, weight, period, release jitter + period - 1): the
# interferer holds the flow's injection switch for ``weight`` cycles per
# release in the window.
Term = tuple[int, int, int, int]
# A flow's idle-bound terms and its divergence cap.
Window = tuple[list[Term], int]
class ProtocolMode(Enum):
    BASELINE = "baseline"
    PROPOSED = "proposed"


class FlowAnalysis(NamedTuple):
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


class AnalysisReport(NamedTuple):
    mode: ProtocolMode
    flows: tuple[FlowAnalysis, ...]
    schedulable: bool
    passes: int


class _Row(NamedTuple):
    """The inputs of one flow's bound that no interferer's jitter changes."""

    no_load: int
    post: int
    fixed: int  # no-load latency + own loops' ring crossings + post-injection
    sharers: list[int]  # positions of the flows sharing its injection link
    sharer_length: int  # their packet lengths, summed


class _Windows(NamedTuple):
    """A flow's idle-bound terms and divergence cap under each protocol."""

    full: Window  # full-packet deflection
    header: Window  # header-only deflection


class _Climbs(NamedTuple):
    """One protocol's pass-1 climbs, by position: each flow's idle wait with
    every interference jitter 0, and its step count (0: not climbed yet)."""

    full: bool  # full-packet deflection
    idle: list[int | None]
    steps: list[int]

    def pick(self, windows: _Windows) -> Window:
        """This protocol's window of the two."""
        return windows.full if self.full else windows.header


def _fixed(no_load: int, hops: int, lap: int, buf: int,
           loops: int) -> tuple[int, int]:
    """A flow's post-injection buffering and the fixed part of its bound.

    Post-injection buffering: each of the ``hops`` switches after the source
    can hold the packet for a full buffer drain of ``buf`` cycles, and each
    of its ``loops`` own deflections adds one lap of ``lap`` links at one
    buffer delay per link.  The fixed part adds the no-load latency and one
    ring crossing per own deflection; the bound adds the idle and queue
    waits to it.
    """
    post = (hops + loops * lap) * buf
    return post, no_load + loops * lap + post


class _Table:
    """Every flow's bound inputs, by position in ``flowset.flows``.

    One table serves every call on one flowset object, in both protocols
    (``_table``).  A flowset fixes its flows and their budgets, since
    ``with_maxloop`` returns a new object, so nothing here goes stale.
    Interferers and injection sharers are named by position too, so the
    outer passes run over lists.  A flow's row holds no protocol; its
    windows hold both, and each protocol keeps its own pass-1 climbs in
    ``modes``.  Each entry is built on first use: ``analyze`` builds them
    all, while ``quick_verdict`` builds only what its screens reach, and
    keeps its visiting order in ``order``.

    The table holds no reference to its flowset, which is passed to each
    builder, so the flowset's death frees it.  ``HARD_CAP`` is read when a
    flow's windows are built, ``MAX_PASSES`` on every call.
    """

    def __init__(self, flowset: Flowset) -> None:
        self.at = {f.flow_id: pos for pos, f in enumerate(flowset.flows)}
        n = len(flowset.flows)
        self.rows: list[_Row | None] = [None] * n
        self.both: list[_Windows | None] = [None] * n
        self.modes = {mode: _Climbs(mode is ProtocolMode.BASELINE, [None] * n, [0] * n)
                      for mode in ProtocolMode}
        self.zero = [0] * n
        self.order: list[int] | None = None

    def row(self, fs: Flowset, pos: int) -> _Row:
        """The interference-free inputs of the flow at ``pos``."""
        row = self.rows[pos]
        if row is None:
            at, flows = self.at, fs.flows
            fid = flows[pos].flow_id
            ring, _, hops = fs.placement(fid)
            no_load = no_load_latency(fs, fid)
            post, fixed = _fixed(no_load, hops, len(fs.topology.rings[ring]),
                                 fs.ring_buffers[ring], fs.maxloops[fid])
            sharers: list[int] = []
            length = 0
            # Core k attaches to switch k.
            for g in fs.injected_at(flows[pos].src):
                if g != fid:
                    p = at[g]
                    sharers.append(p)
                    length += flows[p].length
            row = self.rows[pos] = _Row(no_load, post, fixed, sharers, length)
        return row

    def visits(self, fs: Flowset) -> list[int] | None:
        """Positions in ``quick_verdict``'s visiting order, least floor
        slack first and ties in flow order, or None if a flow's floor
        passes its deadline.

        A flow's floor is its bound with every idle wait at its least
        value, 1: its fixed part, one idle cycle, and one packet plus one
        idle cycle for each flow sharing its injection link.  That is the
        fixed part plus the injection load of its source switch (length + 1
        summed over every flow injected there) less its own length.  The
        floor needs no row, so none is built here; the order is kept.
        """
        order = self.order
        if order is None:
            flows = fs.flows
            placement, buffers, loops = fs.placement, fs.ring_buffers, fs.maxloops
            laps = [len(ring) for ring in fs.topology.rings]
            load: dict[int, int] = {}  # core k attaches to switch k
            for f in flows:
                src = f.src
                load[src] = load.get(src, 0) + f.length + 1
            slack: list[int] = []
            for f in flows:
                fid = f.flow_id
                ring, _, hops = placement(fid)
                fixed = _fixed(no_load_latency(fs, fid), hops,
                               laps[ring], buffers[ring], loops[fid])[1]
                floor = fixed + load[f.src] - f.length
                if floor > f.deadline:
                    return None
                slack.append(f.deadline - floor)
            order = self.order = sorted(range(len(flows)), key=slack.__getitem__)
        return order

    def windows(self, fs: Flowset, pos: int) -> _Windows:
        """The idle-bound terms and divergence cap of the flow at ``pos``.

        The idle bound is 1 + sum over terms of
        weight * ceil((I + release jitter + interference jitter) / period).
        Upstream peers cross the injection switch once per packet plus once
        per loop, (1 + budget) * length in both protocols; the rest cross it
        only while looping, paying their full length per loop under
        full-packet deflection but one header flit under header-only
        deflection.  One pass over the ring peers builds both windows.

        The cap is the busy-period size beyond which iteration gives up.
        Anything past the deadline already means unschedulable, so the cap
        only needs to sit above it (the period, as a deadline never exceeds
        it); it scales with the peers' total deflection count so
        slowly-converging but finite instances are not cut off early.
        """
        both = self.both[pos]
        if both is None:
            at, flows, loops = self.at, fs.flows, fs.maxloops
            upstream, deflected = fs.split_ring_peers(flows[pos].flow_id)
            full: list[Term] = []
            header: list[Term] = []
            peer_loops = 0
            for g in upstream:
                k = loops[g]
                p = at[g]
                f = flows[p]
                peer_loops += k
                term = (p, (1 + k) * f.length, f.period, f.jitter + f.period - 1)
                full.append(term)
                header.append(term)
            for g in deflected:
                k = loops[g]
                if k:
                    p = at[g]
                    f = flows[p]
                    peer_loops += k
                    offset = f.jitter + f.period - 1
                    full.append((p, k * f.length, f.period, offset))
                    header.append((p, k, f.period, offset))
            cap = min(HARD_CAP, flows[pos].period * (1 + peer_loops))
            both = self.both[pos] = _Windows((full, cap), (header, cap))
        return both

    def first_idle(self, fs: Flowset, pos: int, climbs: _Climbs) -> int | None:
        """Pass 1's idle wait of the flow at ``pos``, climbing it once."""
        if not climbs.steps[pos]:
            climbs.idle[pos], climbs.steps[pos] = _idle(
                climbs.pick(self.windows(fs, pos)), self.zero)
        return climbs.idle[pos]


_TABLES: weakref.WeakKeyDictionary[Flowset, _Table] = weakref.WeakKeyDictionary()


def _table(flowset: Flowset) -> _Table:
    """The table of ``flowset``, built on the first call that needs it."""
    table = _TABLES.get(flowset)
    if table is None:
        table = _TABLES[flowset] = _Table(flowset)
    return table


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


def _same_climb(
    terms: list[Term], wait: int, before: list[int | None],
    after: list[int | None],
) -> bool:
    """Whether the climb under jitter ``after`` repeats the one under ``before``.

    ``wait`` is the fixed point that the climb from 1 reached under
    ``before``, and no jitter in ``after`` is below its value in ``before``,
    as jitter only rises from pass to pass.  Each term's ceiling grows with
    the busy-period size and with the jitter, so on [1, wait] it lies
    between its value at 1 under ``before`` and its value at ``wait`` under
    ``after``.  When those two are equal for every term, the idle function
    under ``after`` equals the one under ``before`` on [1, wait].  The climb
    from 1 stays inside [1, wait] until it stops at ``wait``, so under
    ``after`` it visits the same values: the same fixed point in the same
    number of steps.
    """
    for pos, _, period, offset in terms:
        jk = after[pos]
        if (jk is None or (1 + offset + before[pos]) // period
                != (wait + offset + jk) // period):
            return False
    return True


def _queue(row: _Row, idle: list[int | None]) -> int | None:
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


class _Pass(NamedTuple):
    """One whole-set evaluation under one interference-jitter list.

    Every list is indexed by position in ``flowset.flows``.
    """

    jitter: list[int | None]
    idle: list[int | None]
    steps: list[int]
    queue: list[int | None]
    bounds: list[int | None]
    converged: bool


def _passes(flowset: Flowset, mode: ProtocolMode) -> Iterator[_Pass]:
    """Outer passes resolving interference jitter, one state per pass.

    Interference jitter of each flow is its bound minus its no-load latency
    from the previous pass, starting at zero; passes repeat until every bound
    is unchanged, or ``MAX_PASSES`` have run.  Diverged flows keep a None
    bound, which forces every flow depending on them to None as well, and
    never recover (passes are monotone), so the fixed point is reached.
    Whatever the flowset's table already holds is not built again.

    From pass 2 on, a flow keeps the previous pass's idle wait and step
    count when ``_same_climb`` shows that climbing again would repeat them;
    otherwise it climbs from 1.  Both give the same (wait, steps).
    """
    table = _table(flowset)
    climbs = table.modes[mode]
    rows = table.rows
    if None in rows:
        for pos in range(len(rows)):
            table.row(flowset, pos)
    if 0 in climbs.steps:
        for pos in range(len(rows)):
            table.first_idle(flowset, pos, climbs)
    windows = [climbs.pick(both) for both in table.both]
    jitter, idle, steps = table.zero, climbs.idle, climbs.steps
    prev: list[int | None] | None = None
    for number in range(MAX_PASSES):
        if number:
            last_idle, last_steps = idle, steps
            idle, steps = [], []
            for window, wait, taken in zip(windows, last_idle, last_steps):
                if wait is None or not _same_climb(window[0], wait, before, jitter):
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
        before = jitter
        # A bound is at least no-load latency plus one idle cycle, so the
        # jitter it hands on is positive.
        jitter = [
            None if b is None else b - row.no_load for b, row in zip(bounds, rows)
        ]


def analyze(flowset: Flowset, mode: ProtocolMode) -> AnalysisReport:
    """Whole-set bounds with interference jitter resolved by fixed point.

    Bounds only rise from pass to pass, so if ``MAX_PASSES`` runs out before
    the fixed point, the last pass's bounds may be too low: every flow is
    then reported with ``converged=False`` and ``schedulable=False``.
    """
    passes = 0
    for last in _passes(flowset, mode):
        passes += 1
    final = last.converged
    flows = tuple(
        FlowAnalysis(f.flow_id, row.no_load, wait, queue, row.post, bound,
                     f.deadline, final and bound is not None and bound <= f.deadline,
                     final and bound is not None, steps)
        for f, row, wait, queue, bound, steps in zip(
            flowset.flows, _table(flowset).rows, last.idle, last.queue,
            last.bounds, last.steps)
    )
    return AnalysisReport(
        mode=mode,
        flows=flows,
        schedulable=all(fa.schedulable for fa in flows),
        passes=passes,
    )


def terms(
    flowset: Flowset, mode: ProtocolMode
) -> list[tuple[int, str, int | None, int]]:
    """Every flow's bound at ``analyze``'s last pass, split into parts.

    Rows are (flow id, term, other flow id or None, cycles), in flow order,
    and a flow's rows sum to its bound exactly: ``no_load``; ``loops``, the
    ring crossings of its own deflections; ``post``, post-injection
    buffering; ``idle``, the constant 1 (no other flow) and each
    interferer's share of the idle wait, its weight times its ceiling at
    the wait; ``queue``, each injection sharer's length plus its idle wait.
    A flow without a bound has no rows.  If ``MAX_PASSES`` runs out, the
    parts sum to the unconverged bound that ``analyze`` reports.
    """
    for last in _passes(flowset, mode):
        pass
    table = _table(flowset)
    flows, jitter, idle = flowset.flows, last.jitter, last.idle
    rows: list[tuple[int, str, int | None, int]] = []
    for f, row, both, wait, bound in zip(flows, table.rows, table.both, idle,
                                         last.bounds):
        if bound is None:
            continue
        fid = f.flow_id
        rows += [(fid, "no_load", None, row.no_load),
                 (fid, "loops", None, row.fixed - row.no_load - row.post),
                 (fid, "post", None, row.post), (fid, "idle", None, 1)]
        rows += [(fid, "idle", flows[p].flow_id,
                  weight * ((wait + offset + jitter[p]) // period))
                 for p, weight, period, offset in table.modes[mode].pick(both)[0]]
        rows += [(fid, "queue", flows[p].flow_id, flows[p].length + idle[p])
                 for p in row.sharers]
    return rows


def quick_verdict(flowset: Flowset, mode: ProtocolMode) -> bool:
    """Schedulability verdict only, with early exits.

    Sound because bounds rise monotonically across passes: one flow over its
    deadline in any pass stays over it at the fixed point.  A floor screens
    every flow without building its row (``_Table.visits``); then pass 1's
    bounds are computed flow by flow, least floor slack first, up to the
    first miss, building a row only for each flow visited.  Every jitter is
    0 in pass 1, so each idle wait depends on its own flow alone and is
    computed once: these are the bounds of pass 1 of ``_passes``, and their
    order cannot change the verdict.  The screen fills the flowset's table,
    which ``_passes`` then completes, so no row or window is built twice.
    """
    table = _table(flowset)
    order = table.visits(flowset)
    if order is None:
        return False
    flows = flowset.flows
    climbs = table.modes[mode]
    for pos in order:
        row = table.row(flowset, pos)
        for p in row.sharers:
            table.first_idle(flowset, p, climbs)
        b = _bound(row.fixed, table.first_idle(flowset, pos, climbs),
                   _queue(row, climbs.idle))
        if b is None or b > flows[pos].deadline:
            return False
    for state in _passes(flowset, mode):
        for f, b in zip(flows, state.bounds):
            if b is None or b > f.deadline:
                return False
        if state.converged:
            return True
    return False
