"""Cycle-accurate simulation of deflection-based ring networks.

One flit crosses one link per cycle.  A flit emitted onto a link during
cycle t is processed by the receiving switch at t+1: ejected when it heads
a packet at its destination and the shared ejection link is granted,
absorbed when the switch is discarding that packet's payload, and otherwise
forwarded, through the ring packet buffer whenever the output port is held
by an injection or the buffer is draining.

A flit is the pair (packet, idx), where the packet is the one ``_Packet``
made at its release, carrying its record and its flow's facts; flit 0 is
the packet's one header flit.  Ring output ports are integers, numbered once
ring by ring (ring base + position), and key every per-port table.

Deflection behavior is the only difference between the two protocol modes:
full-packet deflection lets the whole packet loop the ring, header-only
deflection loops just the header, absorbs the payload at the destination,
and streams the retained payload copy behind the returning header at the
origin switch.  The retained stream claims only the ring output port, never
the core's injection link.

Every in-order flit range the switches take is one record, ``_Run``: an
ejection, a payload discard, an injection and a re-injection alike.
Retention and arming are derived, not stored: the origin still holds a
deflected packet's payload exactly when no newer packet of its flow has been
released, and a flagged header leaving its origin switch was armed there,
since a header whose payload was evicted is dropped on arrival.

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


class _Packet:
    """One released packet as the simulator carries it on every flit.

    It holds the packet's ``PacketRecord``, its flow's length, source port,
    destination switch and ring, its Oldest-First key (injection cycle,
    ring, flow id; set once at injection) and ``flagged``, set while a
    header-only deflected header has not yet passed its origin.
    """

    __slots__ = ("record", "length", "src_port", "dst_switch", "ring", "key",
                 "flagged")

    def __init__(self, record: PacketRecord,
                 facts: tuple[int, int, int, int]) -> None:
        self.record = record
        self.length, self.src_port, self.dst_switch, self.ring = facts
        self.key: tuple[int, int, int] | None = None
        self.flagged = False


Flit = tuple[_Packet, int]  # (packet, idx)


class _Run:
    """Flits ``next_idx..end-1`` of one packet, taken in index order.

    A run absorbed at a switch is an ejection ``(1, L)`` or a payload discard
    after a header-only deflection ``(1, L)``.  A run claiming an output
    port is an injection ``(0, L)``, each flit crossing the injection link
    and a ring link (``hops=2``), or a re-injection ``(1, L)`` of the
    retained payload right behind the returning header.
    """

    __slots__ = ("packet", "next_idx", "end", "hops")

    def __init__(self, packet: _Packet, next_idx: int, end: int,
                 hops: int = 1) -> None:
        self.packet = packet
        self.next_idx = next_idx
        self.end = end
        self.hops = hops


class _Simulator:
    def __init__(self, flowset: Flowset, mode: ProtocolMode,
                 bounds: Mapping[int, int] | None, protocol_check: bool) -> None:
        self.fs = flowset
        self.mode = mode
        self.bounds = bounds or {}
        self.protocol_check = protocol_check

        # Ring output ports, numbered ring by ring: port = ring base + position.
        top = flowset.topology
        self.ring_base: list[int] = []
        self.port_switch: list[int] = []
        self.port_ring: list[int] = []
        self.next_port: list[int] = []
        self.port_cap: list[int] = []
        for ring in top.rings:
            base, n = len(self.port_switch), len(ring)
            self.ring_base.append(base)
            self.port_switch.extend(ring.switches)
            self.port_ring.extend([ring.ring_id] * n)
            self.next_port.extend(base + (i + 1) % n for i in range(n))
            self.port_cap.extend([flowset.ring_buffers[ring.ring_id]] * n)

        # flow id -> (length, source port, destination switch, ring)
        self.flow_facts: dict[int, tuple[int, int, int, int]] = {}
        for f in flowset:
            fid = f.flow_id
            ring = flowset.ring_of(fid)
            src_port = (self.ring_base[ring.ring_id]
                        + ring.position(flowset.src_switch(fid)))
            self.flow_facts[fid] = (
                f.length, src_port, flowset.dst_switch(fid), ring.ring_id
            )
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

        # Mutable network state, keyed by port or switch.  Buffers and
        # queues hold only non-empty entries: an entry is deleted when it
        # empties.
        self.buffers: dict[int, list[Flit]] = {}
        # port -> the injection or re-injection holding that output.
        self.claims: dict[int, _Run] = {}
        self.ejecting: dict[int, _Run] = {}  # switch -> packet on its link
        self.discarding: dict[int, _Run] = {}  # port -> payload absorbed there
        # switch -> deflected packets that hold a reservation on its link
        self.pending: dict[int, set[_Packet]] = {}
        # The origin still retains a deflected packet's payload exactly when
        # it is its flow's last released packet.
        self.last_released: dict[int, _Packet] = {}
        self.queues: dict[int, list[_Packet]] = {}  # switch -> packets
        self.inj_busy_until = [0] * top.n_switches
        self.records: list[PacketRecord] = []  # in release order

        self.flit_hops = 0
        self.retention_violations = 0
        self.injected_flits = 0
        self.consumed_flits = 0  # ejected + discarded + dropped

    # -- helpers -----------------------------------------------------------

    def _deflect(self, port: int, packet: _Packet) -> None:
        """Header denied ejection; register it and set up mode-specific state."""
        packet.record.deflections += 1
        self.pending.setdefault(packet.dst_switch, set()).add(packet)
        if self.mode is ProtocolMode.PROPOSED and packet.length > 1:
            packet.flagged = True
            # Absorb the payload flits trailing the header as they arrive.
            self.discarding[port] = _Run(packet, 1, packet.length)

    def _drop(self, packet: _Packet) -> None:
        """Retention gone: absorb the returning header, clear state."""
        packet.record.dropped = True
        packet.flagged = False
        self.retention_violations += 1
        self.consumed_flits += 1
        pend = self.pending.get(packet.dst_switch)
        if pend:
            pend.discard(packet)

    # -- per-cycle phases --------------------------------------------------

    def _arrive(self, cycle: int, arrivals: dict[int, Flit]) -> dict[int, Flit]:
        """Consume or classify every arriving flit; returns forward candidates."""
        port_switch = self.port_switch
        ejecting, discarding = self.ejecting, self.discarding
        forward: dict[int, Flit] = {}
        eject_wanting: dict[int, list[tuple[int, Flit]]] = {}
        hops = consumed = 0
        for port, flit in arrivals.items():
            packet, idx = flit
            switch = port_switch[port]
            ej = ejecting.get(switch)
            if ej is not None and ej.packet is packet and idx > 0:
                if idx != ej.next_idx:
                    rec = packet.record
                    raise SimInvariantError(
                        f"out-of-order ejection flit {(rec.flow_id, rec.seq, idx)} "
                        f"at switch {switch}"
                    )
                ej.next_idx += 1
                hops += 1
                consumed += 1
                if ej.next_idx == ej.end:
                    packet.record.eject_end = cycle
                    del ejecting[switch]
                continue
            dis = discarding.get(port)
            if dis is not None and dis.packet is packet and idx == dis.next_idx:
                dis.next_idx += 1
                consumed += 1
                if dis.next_idx == dis.end:
                    del discarding[port]
                continue
            if idx == 0:
                if packet.flagged and port == packet.src_port:
                    if self.last_released[packet.record.flow_id] is packet:
                        forward[port] = flit
                    else:
                        self._drop(packet)
                    continue
                if switch == packet.dst_switch and not packet.flagged:
                    eject_wanting.setdefault(switch, []).append((port, flit))
                    continue
            forward[port] = flit

        for switch, cands in eject_wanting.items():
            cands.sort(key=lambda c: c[1][0].key)
            granted = switch in ejecting
            pend = self.pending.setdefault(switch, set())
            for port, flit in cands:
                packet = flit[0]
                own = packet.key
                older = any(p.key < own for p in pend if p is not packet)
                if not granted and not older:
                    granted = True
                    hops += 1
                    consumed += 1
                    pend.discard(packet)
                    if packet.length == 1:
                        packet.record.eject_end = cycle
                    else:
                        ejecting[switch] = _Run(packet, 1, packet.length)
                else:
                    self._deflect(port, packet)
                    forward[port] = flit
        self.flit_hops += hops
        self.consumed_flits += consumed
        return forward

    def _emit(self, cycle: int, forward: dict[int, Flit]) -> dict[int, Flit]:
        """Resolve every active output port once; returns next cycle's arrivals.

        The order of the ports does not matter.  A port reads and writes only
        its own claim, buffer and forward candidate and its successor's
        arrival slot, which no other port feeds.  It pops its switch's
        injection queue only when the head packet belongs to it, and
        ``inj_busy_until`` then blocks a second injection at that switch in
        the same cycle, whichever port is resolved first.
        """
        claims, buffers = self.claims, self.buffers
        next_port, port_cap = self.next_port, self.port_cap
        active = set(forward)
        active.update(claims)
        active.update(buffers)
        for queue in self.queues.values():
            active.add(queue[0].src_port)

        arrivals: dict[int, Flit] = {}
        hops = injected = 0
        for port in active:
            incoming = forward.get(port)
            claim = claims.get(port)
            buf = buffers.get(port)
            if claim is not None:
                flit = (claim.packet, claim.next_idx)
                claim.next_idx += 1
                hops += claim.hops
                injected += 1
                if claim.next_idx == claim.end:
                    del claims[port]
            elif buf is not None:
                flit = buf.pop(0)
                hops += 1
            elif incoming is not None:
                flit, incoming = incoming, None
                hops += 1
            else:
                self._try_inject(cycle, port)
                continue
            if incoming is not None:  # the output is taken: buffer the arrival
                if buf is None:
                    buf = buffers[port] = []
                buf.append(incoming)
                if len(buf) > port_cap[port]:
                    raise SimInvariantError(
                        f"buffer overflow at switch {self.port_switch[port]} "
                        f"ring {self.port_ring[port]}"
                    )
            elif buf is not None and not buf:
                del buffers[port]
            packet, idx = flit
            # A flagged header reaches its origin's output only when the
            # payload was still retained there; otherwise it was dropped on
            # arrival.  The retained payload streams out right behind it.
            if idx == 0 and packet.flagged and port == packet.src_port:
                packet.flagged = False
                claims[port] = _Run(packet, 1, packet.length)
            nxt = next_port[port]
            if nxt in arrivals:
                ring = self.port_ring[nxt]
                raise SimInvariantError(
                    f"two flits on one link: ring {ring} position "
                    f"{nxt - self.ring_base[ring]}"
                )
            arrivals[nxt] = flit
        self.flit_hops += hops
        self.injected_flits += injected
        return arrivals

    def _try_inject(self, cycle: int, port: int) -> None:
        # Called only for a port with nothing to send, so its buffer is empty.
        switch = self.port_switch[port]
        queue = self.queues.get(switch)
        if queue is None or queue[0].src_port != port:
            return
        if cycle < self.inj_busy_until[switch]:
            return
        packet = queue.pop(0)
        if not queue:
            del self.queues[switch]
        packet.key = (cycle, packet.ring, packet.record.flow_id)
        packet.record.inject_start = cycle
        self.claims[port] = _Run(packet, 0, packet.length, hops=2)
        self.inj_busy_until[switch] = cycle + packet.length

    def _check_conservation(self, arrivals: dict[int, Flit]) -> None:
        # A flit is injected when it first crosses a link and consumed when
        # ejected, discarded, or dropped.  In between it sits on a link
        # (next cycle's arrivals) or in a ring buffer.
        in_flight = len(arrivals) + sum(map(len, self.buffers.values()))
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

        arrivals: dict[int, Flit] = {}
        cycle = 0
        while cycle < horizon:
            if not (arrivals or self.claims or self.ejecting or self.discarding
                    or self.buffers or self.queues):
                if ptr >= len(schedule):
                    break
                cycle = max(cycle, schedule[ptr][0])
                if cycle >= horizon:
                    break
            while ptr < len(schedule) and schedule[ptr][0] == cycle:
                _, fid, seq = schedule[ptr]
                ptr += 1
                packet = _Packet(PacketRecord(fid, seq, cycle), self.flow_facts[fid])
                self.records.append(packet.record)
                switch = self.port_switch[packet.src_port]
                self.queues.setdefault(switch, []).append(packet)
                # Releasing a packet evicts the flow's retained payload.
                self.last_released[fid] = packet
            forward = self._arrive(cycle, arrivals)
            arrivals = self._emit(cycle, forward)
            if self.protocol_check:
                self._check_conservation(arrivals)
            cycle += 1

        return self._trace(horizon, seed)

    def _trace(self, horizon: int, seed: str) -> SimTrace:
        # Records were made in schedule order: by release, flow id and seq.
        max_latency: dict[int, int] = {}
        max_deflections: dict[int, int] = {}
        violations = 0
        for rec in self.records:
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
            records=tuple(self.records),
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
