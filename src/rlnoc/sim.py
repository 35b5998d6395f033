"""Cycle-accurate simulation of deflection-based ring networks.

One flit crosses one link per cycle.  A flit emitted onto a link during
cycle t is processed by the receiving switch at t+1: ejected when it heads
a packet at its destination and the shared ejection link is granted,
absorbed when the switch is discarding that packet's payload, and otherwise
forwarded, through the ring packet buffer whenever the output port is held
by an injection or the buffer is draining.

Packets are (flow_id, seq) pairs; a flit is the tuple (flow_id, seq, idx)
with idx < header_len marking header flits.  Deflection behavior is the only
difference between the two protocol modes: full-packet deflection lets the
whole packet loop the ring, header-only deflection loops just the header,
absorbs the payload at the destination, and streams the retained payload
copy behind the returning header at the origin switch.  The retained stream
claims only the ring output port, never the core's injection link.

Every in-order flit range the switches take is one record, ``_Run``: an
ejection, a payload discard, a dropped header, an injection and a
re-injection alike.  Retention and arming are derived, not stored: the origin
still holds a deflected packet's payload exactly when no newer packet of its
flow has been released, and a flagged header leaving its origin switch was
armed there, since a header whose payload was evicted is dropped on arrival.

Ejection arbitration is Oldest-First on injection timestamps, realized with
reservations: a deflected packet leaves a pending entry at its destination,
and younger headers defer to it even when the link is idle.  Ties break by
ring id, then flow id.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from .analysis import ProtocolMode
from .model import Flow, Flowset, ModelError, maxloop_oldest_first

Flit = tuple[int, int, int]  # (flow_id, seq, idx)


class SimInvariantError(RuntimeError):
    """Internal consistency violation; indicates a simulator bug."""


class PacketRecord:
    """Lifecycle of one packet. ``eject_end`` stays None if undelivered."""

    __slots__ = (
        "flow_id",
        "seq",
        "release",
        "inject_start",
        "eject_end",
        "deflections",
        "dropped",
        "violated",
    )

    def __init__(self, flow_id: int, seq: int, release: int) -> None:
        self.flow_id = flow_id
        self.seq = seq
        self.release = release
        self.inject_start: int | None = None
        self.eject_end: int | None = None
        self.deflections = 0
        self.dropped = False
        self.violated = False

    @property
    def delivered(self) -> bool:
        return self.eject_end is not None

    @property
    def latency(self) -> int | None:
        if self.eject_end is None:
            return None
        return self.eject_end - self.release + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketRecord(flow={self.flow_id}, seq={self.seq}, "
            f"release={self.release}, latency={self.latency}, "
            f"deflections={self.deflections})"
        )


@dataclass(frozen=True)
class SimTrace:
    mode: ProtocolMode
    horizon: int
    seed: str
    records: tuple[PacketRecord, ...]
    max_latency: Mapping[int, int]
    max_deflections: Mapping[int, int]
    flit_hops: int
    retention_violations: int
    bound_violations: int

    def per_flow(self) -> dict[int, tuple[int, int, int]]:
        """(packets, delivered, bound violations) per flow, by flow id."""
        tally: dict[int, list[int]] = {}
        for r in self.records:
            row = tally.setdefault(r.flow_id, [0, 0, 0])
            row[0] += 1
            row[1] += r.delivered
            row[2] += r.violated
        return {fid: tuple(tally[fid]) for fid in sorted(tally)}


class ReleasePattern:
    """Generates non-decreasing release times per flow, below the horizon."""

    def release_times(self, flow: Flow, horizon: int, seed: str) -> list[int]:
        raise NotImplementedError

    def _rng(self, flow: Flow, seed: str) -> random.Random:
        return random.Random(f"{seed}:{type(self).__name__}:{flow.flow_id}")


class Synchronous(ReleasePattern):
    """Every flow bursts at 0, later releases pulled in by the full jitter.

    Release n is max(0, n*T - J): the critical-instant shape where the first
    packet is maximally delayed and all following ones arrive as early as
    their jitter allows.
    """

    def release_times(self, flow: Flow, horizon: int, seed: str) -> list[int]:
        out, n = [], 0
        while True:
            t = max(0, n * flow.period - flow.jitter)
            if t >= horizon:
                return out
            out.append(t)
            n += 1


class Periodic(ReleasePattern):
    """Every flow releases at each multiple of its period, from 0."""

    def release_times(self, flow: Flow, horizon: int, seed: str) -> list[int]:
        return list(range(0, horizon, flow.period))


class PeriodicWithJitter(ReleasePattern):
    """Nominal period boundaries, each release delayed by uniform [0, J]."""

    def release_times(self, flow: Flow, horizon: int, seed: str) -> list[int]:
        rng = self._rng(flow, seed)
        out, n, last = [], 0, 0
        while True:
            t = n * flow.period + rng.randint(0, flow.jitter)
            t = max(t, last)  # keep releases ordered even with large jitter
            if t >= horizon:
                return out
            out.append(t)
            last = t
            n += 1


class Sporadic(ReleasePattern):
    """Consecutive releases separated by at least one period."""

    def release_times(self, flow: Flow, horizon: int, seed: str) -> list[int]:
        rng = self._rng(flow, seed)
        out = []
        t = rng.randint(0, flow.period)
        while t < horizon:
            out.append(t)
            t += flow.period + rng.randint(0, flow.period)
        return out


HORIZON_CAP = 2_000_000


def default_horizon(flowset: Flowset) -> int:
    """Twice the largest period per flow, bounded by ``HORIZON_CAP``."""
    if not len(flowset):
        return 1
    return min(HORIZON_CAP, 2 * max(f.period for f in flowset) * len(flowset))


class _Run:
    """Flits ``next_idx..end-1`` of one packet, taken in index order.

    A run absorbed at a switch is an ejection ``(1, L)``, a payload discard
    after a header-only deflection ``(H, L)`` or a dropped header's tail
    ``(1, H)``.  A run claiming an output port is an injection ``(0, L)``,
    each flit crossing the injection link and a ring link (``hops=2``), or
    a re-injection ``(H, L)`` of the retained payload, which first lets the
    ``skip`` header flits still behind the returning header pass through.
    """

    __slots__ = ("flow_id", "seq", "next_idx", "end", "skip", "hops")

    def __init__(
        self, flow_id: int, seq: int, next_idx: int, end: int,
        skip: int = 0, hops: int = 1,
    ) -> None:
        self.flow_id = flow_id
        self.seq = seq
        self.next_idx = next_idx
        self.end = end
        self.skip = skip
        self.hops = hops


class _Simulator:
    def __init__(
        self,
        flowset: Flowset,
        mode: ProtocolMode,
        bounds: Mapping[int, int] | None,
        protocol_check: bool,
    ) -> None:
        self.fs = flowset
        self.mode = mode
        self.bounds = bounds or {}
        self.protocol_check = protocol_check

        top = flowset.topology
        self.ring_switches = {r.ring_id: r.switches for r in top.rings}
        self.ring_caps = dict(flowset.ring_buffers)
        self.flow_ring: dict[int, int] = {}
        self.flow_len: dict[int, int] = {}
        self.src_pos: dict[int, int] = {}
        self.dst_switch: dict[int, int] = {}
        self.header_len = flowset.header_len
        for f in flowset:
            fid = f.flow_id
            ring = top.rings[f.ring]
            self.flow_ring[fid] = f.ring
            self.flow_len[fid] = f.length
            self.src_pos[fid] = ring.position(flowset.src_switch(fid))
            self.dst_switch[fid] = flowset.dst_switch(fid)
            # A deflected packet longer than its ring would catch its own
            # tail (two of its flits on one link).  Deflection requires a
            # competitor: another flow on the ring or at the ejection link.
            can_deflect = (
                maxloop_oldest_first(flowset, fid) > 0
                or flowset.interference_sets(fid).ring_peers
            )
            if can_deflect and f.length > len(ring):
                raise ModelError(
                    f"flow {f.flow_id}: length {f.length} exceeds its ring "
                    f"({len(ring)} switches); a deflected packet would "
                    f"overlap itself"
                )

        # Mutable network state.
        self.buffers: dict[tuple[int, int], list[Flit]] = {}
        # (ring, pos) -> the injection or re-injection holding that output.
        self.claims: dict[tuple[int, int], _Run] = {}
        self.ejecting: dict[int, _Run] = {}  # switch -> packet on its link
        self.discarding: dict[tuple[int, int], _Run] = {}  # absorbed at (ring, pos)
        self.pending: dict[int, dict[tuple[int, int], tuple[int, int, int]]] = {}
        # Header-only deflected packets whose header has not yet passed its
        # origin.  The origin still retains the payload exactly when no newer
        # packet of the flow has been released since.
        self.flagged: set[tuple[int, int]] = set()
        self.last_released: dict[int, int] = {}
        self.queues: dict[int, list[tuple[int, int]]] = {}  # switch -> [(fid, seq)]
        self.inj_busy_until: dict[int, int] = {}
        self.records: dict[tuple[int, int], PacketRecord] = {}

        self.buffered_flits = 0
        self.queued_packets = 0
        self.flit_hops = 0
        self.retention_violations = 0
        self.injected_flits = 0
        self.consumed_flits = 0  # ejected + discarded + dropped

    # -- helpers -----------------------------------------------------------

    def _switch(self, ring: int, pos: int) -> int:
        return self.ring_switches[ring][pos]

    def _key(self, flow_id: int, seq: int) -> tuple[int, int, int]:
        ts = self.records[(flow_id, seq)].inject_start
        return (ts, self.flow_ring[flow_id], flow_id)

    def _buffer_put(self, ring: int, pos: int, flit: Flit) -> None:
        buf = self.buffers.setdefault((ring, pos), [])
        buf.append(flit)
        self.buffered_flits += 1
        if len(buf) > self.ring_caps[ring]:
            raise SimInvariantError(
                f"buffer overflow at switch {self._switch(ring, pos)} ring {ring}"
            )

    def _deflect(self, ring: int, pos: int, flit: Flit) -> None:
        """Header denied ejection; register it and set up mode-specific state."""
        fid, seq, _ = flit
        rec = self.records[(fid, seq)]
        rec.deflections += 1
        switch = self._switch(ring, pos)
        self.pending.setdefault(switch, {})[(fid, seq)] = self._key(fid, seq)
        length = self.flow_len[fid]
        if self.mode is ProtocolMode.PROPOSED and length > self.header_len:
            self.flagged.add((fid, seq))
            # Absorb the payload flits trailing the header as they arrive.
            self.discarding[(ring, pos)] = _Run(fid, seq, self.header_len, length)

    def _drop(self, ring: int, pos: int, flit: Flit) -> None:
        """Retention gone: absorb the whole returning header, clear state."""
        fid, seq, _ = flit
        rec = self.records[(fid, seq)]
        rec.dropped = True
        self.retention_violations += 1
        self.consumed_flits += 1
        if self.header_len > 1:
            self.discarding[(ring, pos)] = _Run(fid, seq, 1, self.header_len)
        self.flagged.discard((fid, seq))
        dst = self.dst_switch[fid]
        pend = self.pending.get(dst)
        if pend:
            pend.pop((fid, seq), None)

    # -- per-cycle phases --------------------------------------------------

    def _arrive(
        self, cycle: int, arrivals: dict[tuple[int, int], Flit]
    ) -> dict[tuple[int, int], Flit]:
        """Consume or classify every arriving flit; returns forward candidates."""
        forward: dict[tuple[int, int], Flit] = {}
        eject_wanting: dict[int, list[tuple[tuple[int, int], Flit]]] = {}
        for (ring, pos), flit in arrivals.items():
            fid, seq, idx = flit
            switch = self._switch(ring, pos)
            ej = self.ejecting.get(switch)
            if ej is not None and ej.flow_id == fid and ej.seq == seq and idx > 0:
                if idx != ej.next_idx:
                    raise SimInvariantError(
                        f"out-of-order ejection flit {flit} at switch {switch}"
                    )
                ej.next_idx += 1
                self.flit_hops += 1
                self.consumed_flits += 1
                if ej.next_idx == ej.end:
                    self.records[(fid, seq)].eject_end = cycle
                    del self.ejecting[switch]
                continue
            dis = self.discarding.get((ring, pos))
            if (
                dis is not None and dis.flow_id == fid and dis.seq == seq
                and idx == dis.next_idx
            ):
                dis.next_idx += 1
                self.consumed_flits += 1
                if dis.next_idx == dis.end:
                    del self.discarding[(ring, pos)]
                continue
            if idx == 0:
                flagged = (fid, seq) in self.flagged
                if flagged and pos == self.src_pos[fid]:
                    if self.last_released[fid] == seq:
                        forward[(ring, pos)] = flit
                    else:
                        self._drop(ring, pos, flit)
                    continue
                if switch == self.dst_switch[fid] and not flagged:
                    eject_wanting.setdefault(switch, []).append(((ring, pos), flit))
                    continue
            forward[(ring, pos)] = flit

        for switch, cands in eject_wanting.items():
            cands.sort(key=lambda c: self._key(c[1][0], c[1][1]))
            granted = self.ejecting.get(switch) is not None
            for (ring, pos), flit in cands:
                fid, seq, _ = flit
                own = self._key(fid, seq)
                pend = self.pending.get(switch, {})
                older = any(
                    key < own for pkt, key in pend.items() if pkt != (fid, seq)
                )
                if not granted and not older:
                    granted = True
                    length = self.flow_len[fid]
                    self.flit_hops += 1
                    self.consumed_flits += 1
                    pend.pop((fid, seq), None)
                    if length == 1:
                        self.records[(fid, seq)].eject_end = cycle
                    else:
                        self.ejecting[switch] = _Run(fid, seq, 1, length)
                else:
                    self._deflect(ring, pos, flit)
                    forward[(ring, pos)] = flit
        return forward

    def _emit(
        self, cycle: int, forward: dict[tuple[int, int], Flit]
    ) -> dict[tuple[int, int], Flit]:
        """Resolve every output port; returns next cycle's arrivals."""
        active: set[tuple[int, int]] = set(forward)
        active.update(self.claims)
        active.update(k for k, buf in self.buffers.items() if buf)
        for switch, queue in self.queues.items():
            if queue:
                fid, _ = queue[0]
                active.add((self.flow_ring[fid], self.src_pos[fid]))

        arrivals: dict[tuple[int, int], Flit] = {}
        for ring, pos in active:
            emitted = self._emit_one(cycle, ring, pos, forward.get((ring, pos)))
            if emitted is not None:
                npos = (pos + 1) % len(self.ring_switches[ring])
                if (ring, npos) in arrivals:
                    raise SimInvariantError(
                        f"two flits on one link: ring {ring} position {npos}"
                    )
                arrivals[(ring, npos)] = emitted
        return arrivals

    def _emit_one(
        self, cycle: int, ring: int, pos: int, incoming: Flit | None
    ) -> Flit | None:
        claim = self.claims.get((ring, pos))
        if claim is not None and claim.skip == 0:
            flit = (claim.flow_id, claim.seq, claim.next_idx)
            claim.next_idx += 1
            self.flit_hops += claim.hops
            self.injected_flits += 1
            if claim.next_idx == claim.end:
                del self.claims[(ring, pos)]
            if incoming is not None:
                self._buffer_put(ring, pos, incoming)
            return flit

        buf = self.buffers.get((ring, pos))
        emitted: Flit
        if buf:
            emitted = buf.pop(0)
            self.buffered_flits -= 1
            self.flit_hops += 1
            if incoming is not None:
                self._buffer_put(ring, pos, incoming)
        elif incoming is not None:
            emitted = incoming
            self.flit_hops += 1
        else:
            if claim is not None:
                raise SimInvariantError(
                    f"re-injection header flit missing at ring {ring} pos {pos}"
                )
            self._try_inject(cycle, ring, pos)
            return None

        if claim is not None:
            expect = (claim.flow_id, claim.seq, claim.next_idx - claim.skip)
            if emitted != expect:
                raise SimInvariantError(
                    f"re-injection header broken: expected {expect}, got {emitted}"
                )
            claim.skip -= 1
            return emitted

        fid, seq, idx = emitted
        # A flagged header reaches its origin's output only when the payload
        # was still retained there; otherwise it was dropped on arrival.
        if idx == 0 and pos == self.src_pos[fid] and (fid, seq) in self.flagged:
            self.flagged.remove((fid, seq))
            # The retained payload streams out right behind this header.
            self.claims[(ring, pos)] = _Run(
                fid, seq, self.header_len, self.flow_len[fid],
                skip=self.header_len - 1,
            )
        return emitted

    def _try_inject(self, cycle: int, ring: int, pos: int) -> None:
        switch = self._switch(ring, pos)
        queue = self.queues.get(switch)
        if not queue:
            return
        fid, seq = queue[0]
        if self.flow_ring[fid] != ring or self.src_pos[fid] != pos:
            return
        if self.buffers.get((ring, pos)):
            return
        if cycle < self.inj_busy_until.get(switch, 0):
            return
        queue.pop(0)
        self.queued_packets -= 1
        length = self.flow_len[fid]
        self.claims[(ring, pos)] = _Run(fid, seq, 0, length, hops=2)
        self.inj_busy_until[switch] = cycle + length
        self.records[(fid, seq)].inject_start = cycle

    def _check_conservation(self, arrivals: dict[tuple[int, int], Flit]) -> None:
        # A flit is injected when it first crosses a link and consumed when
        # ejected, discarded, or dropped.  In between it sits on a link
        # (next cycle's arrivals) or in a ring buffer.
        in_flight = len(arrivals) + self.buffered_flits
        if self.injected_flits != self.consumed_flits + in_flight:
            raise SimInvariantError(
                f"flit conservation broken: {self.injected_flits} injected, "
                f"{self.consumed_flits} consumed, {in_flight} in flight"
            )

    # -- main loop ---------------------------------------------------------

    def run(self, pattern: ReleasePattern, horizon: int, seed: str) -> SimTrace:
        schedule: list[tuple[int, int, int]] = []  # (time, flow_id, seq)
        for f in self.fs:
            for seq, t in enumerate(pattern.release_times(f, horizon, seed)):
                schedule.append((t, f.flow_id, seq))
        schedule.sort()
        ptr = 0

        arrivals: dict[tuple[int, int], Flit] = {}
        cycle = 0
        while cycle < horizon:
            if (
                not arrivals
                and not self.claims
                and not self.ejecting
                and not self.discarding
                and self.buffered_flits == 0
                and self.queued_packets == 0
            ):
                if ptr >= len(schedule):
                    break
                cycle = max(cycle, schedule[ptr][0])
                if cycle >= horizon:
                    break
            while ptr < len(schedule) and schedule[ptr][0] == cycle:
                _, fid, seq = schedule[ptr]
                ptr += 1
                self.records[(fid, seq)] = PacketRecord(fid, seq, cycle)
                src = self.fs.src_switch(fid)
                self.queues.setdefault(src, []).append((fid, seq))
                self.queued_packets += 1
                # Releasing a packet evicts the flow's retained payload.
                self.last_released[fid] = seq
            forward = self._arrive(cycle, arrivals)
            arrivals = self._emit(cycle, forward)
            if self.protocol_check:
                self._check_conservation(arrivals)
            cycle += 1

        return self._trace(horizon, seed)

    def _trace(self, horizon: int, seed: str) -> SimTrace:
        records = sorted(
            self.records.values(), key=lambda r: (r.release, r.flow_id, r.seq)
        )
        max_latency: dict[int, int] = {}
        max_deflections: dict[int, int] = {}
        violations = 0
        for rec in records:
            bound = self.bounds.get(rec.flow_id)
            if rec.delivered:
                max_latency[rec.flow_id] = max(
                    max_latency.get(rec.flow_id, 0), rec.latency
                )
                max_deflections[rec.flow_id] = max(
                    max_deflections.get(rec.flow_id, 0), rec.deflections
                )
                if bound is not None and rec.latency > bound:
                    rec.violated = True
                    violations += 1
            elif bound is not None and rec.release + bound <= horizon:
                rec.violated = True
                violations += 1
        return SimTrace(
            mode=self.mode,
            horizon=horizon,
            seed=seed,
            records=tuple(records),
            max_latency=max_latency,
            max_deflections=max_deflections,
            flit_hops=self.flit_hops,
            retention_violations=self.retention_violations,
            bound_violations=violations,
        )


def run(
    flowset: Flowset,
    mode: ProtocolMode,
    pattern: ReleasePattern | None = None,
    horizon: int | None = None,
    seed: str = "0",
    bounds: Mapping[int, int] | None = None,
    protocol_check: bool = False,
) -> SimTrace:
    """Simulate the flowset and return the packet trace.

    ``bounds`` maps flow ids to latency bounds; delivered packets above their
    bound and packets released at least one bound before the horizon yet not
    delivered are flagged as violations.  ``protocol_check`` enables per-cycle
    flit-conservation assertions.
    """
    if horizon is None:
        horizon = default_horizon(flowset)
    if horizon <= 0:
        raise ModelError("horizon must be positive")
    sim = _Simulator(flowset, mode, bounds, protocol_check)
    return sim.run(pattern or Synchronous(), horizon, seed)
