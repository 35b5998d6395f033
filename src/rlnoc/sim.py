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

A busy period depends only on its releases relative to its start, so a
period that a ``Flowset`` object's memo has logged is copied, not simulated
again (see ``_Simulator.run``).
"""
from __future__ import annotations

import random
import weakref
from typing import Callable, Mapping, NamedTuple

from .analysis import ProtocolMode
from .model import Flow, Flowset, ModelError, maxloop_oldest_first, sampler

class SimInvariantError(RuntimeError):
    """Internal consistency violation; indicates a simulator bug."""


class PacketRecord:
    """Lifecycle of one packet, fixed once its busy period ends.
    ``eject_end`` stays None if undelivered."""

    __slots__ = ("flow_id", "seq", "release", "inject_start", "eject_end",
                 "deflections", "dropped")

    def __init__(self, flow_id: int, seq: int, release: int,
                 inject_start: int | None = None, eject_end: int | None = None,
                 deflections: int = 0, dropped: bool = False) -> None:
        self.flow_id = flow_id
        self.seq = seq
        self.release = release
        self.inject_start = inject_start
        self.eject_end = eject_end
        self.deflections = deflections
        self.dropped = dropped

    @property
    def latency(self) -> int | None:
        if self.eject_end is None:
            return None
        return self.eject_end - self.release + 1


class SimTrace(NamedTuple):
    horizon: int
    records: tuple[PacketRecord, ...]
    max_latency: Mapping[int, int]
    max_deflections: Mapping[int, int]
    flit_hops: int
    retention_violations: int
    bound_violations: int
    violated: tuple[int, ...]  # positions in ``records`` over their bound
    tally: Mapping[int, tuple[int, int, int]]  # read through ``per_flow``

    def per_flow(self) -> dict[int, tuple[int, int, int]]:
        """(packets, delivered, bound violations) per flow, by flow id."""
        return dict(self.tally)


# A flow's non-decreasing release times below the horizon: a pure function
# of (flow, horizon, seed), as a run draws each schedule once per flowset.
ReleasePattern = Callable[[Flow, int, str], list[int]]


def synchronous(flow: Flow, horizon: int, seed: str) -> list[int]:
    """Every flow bursts at 0, later releases pulled in by the full jitter.

    Release n is max(0, n*T - J): the critical-instant shape where the first
    packet is maximally delayed and all following ones arrive as early as
    their jitter allows.
    """
    out, n = [], 0
    while True:
        t = max(0, n * flow.period - flow.jitter)
        if t >= horizon:
            return out
        out.append(t)
        n += 1


def periodic(flow: Flow, horizon: int, seed: str) -> list[int]:
    """Every flow releases at each multiple of its period, from 0."""
    return list(range(0, horizon, flow.period))


# A flow's stream is named "seed:Name:flow id"; recorded traces pin the
# draws, taken through ``sampler`` with the bits ``randint`` would take.
def periodic_with_jitter(flow: Flow, horizon: int, seed: str) -> list[int]:
    """Nominal period boundaries, each release delayed by uniform [0, J]."""
    rng = random.Random(f"{seed}:PeriodicWithJitter:{flow.flow_id}")
    below, width = sampler(rng.getrandbits), flow.jitter + 1
    out, n, last = [], 0, 0
    while True:
        t = n * flow.period + below(width)
        t = max(t, last)  # keep releases ordered even with large jitter
        if t >= horizon:
            return out
        out.append(t)
        last = t
        n += 1


def sporadic(flow: Flow, horizon: int, seed: str) -> list[int]:
    """Consecutive releases separated by at least one period."""
    rng = random.Random(f"{seed}:Sporadic:{flow.flow_id}")
    below, width = sampler(rng.getrandbits), flow.period + 1
    out = []
    t = below(width)
    while t < horizon:
        out.append(t)
        t += flow.period + below(width)
    return out


PATTERNS: dict[str, ReleasePattern] = {
    "synchronous": synchronous,
    "periodic": periodic,
    "jitter": periodic_with_jitter,
    "sporadic": sporadic,
}


HORIZON_CAP = 2_000_000


# flowset -> [(pattern, horizon, seed), schedule, memo] of its last run.  A
# memo node maps (flow id, release - start) to the next node, and whether the
# mode is proposed to the period its path spells in that mode (in both if it
# has no deflection): (length, records, hops, drops, checked, schedule, start).
_PERIODS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def default_horizon(flowset: Flowset) -> int:
    """2 x the largest period x the flow count, at most ``HORIZON_CAP``."""
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

    __slots__ = ("record", "length", "src_port", "dst", "ring", "key",
                 "flagged")

    def __init__(self, record: PacketRecord,
                 facts: tuple[int, int, int, int]) -> None:
        self.record = record
        self.length, self.src_port, self.dst, self.ring = facts
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
        # ``run`` reads a taken slot in the next cycle's arrivals as proof
        # that the one port feeding it has sent, so no two ports may share a
        # successor: each ring's shift above is a permutation of its own
        # ports (``TestPortNumbering::test_next_port_walks_each_ring_in_order``).

        # flow id -> (length, source port, destination switch, ring)
        self.flow_facts: dict[int, tuple[int, int, int, int]] = {}
        for f in flowset:
            fid = f.flow_id
            ring, src_pos, _ = flowset.placement(fid)
            self.flow_facts[fid] = (
                f.length, self.ring_base[ring] + src_pos, f.dst, ring
            )
            # A deflected packet longer than its ring would catch its own
            # tail (two of its flits on one link).  Deflection requires a
            # competitor: another flow on the ring or at the ejection link.
            can_deflect = (
                maxloop_oldest_first(flowset, fid) > 0
                or flowset.interference_sets(fid)
            )
            n = len(top.rings[ring])
            if can_deflect and f.length > n:
                raise ModelError(
                    f"flow {f.flow_id}: length {f.length} exceeds its ring "
                    f"({n} switches); a deflected packet would "
                    f"overlap itself"
                )

    def run(self, pattern: ReleasePattern, horizon: int, seed: str) -> SimTrace:
        """Run cycles from 0 until the horizon, or until the network idles
        with nothing left to release.

        Each cycle releases packets into their switch's injection queue,
        consumes or classifies every arriving flit, arbitrates each ejection
        link among the headers that reached it, and then resolves the ring
        output ports by precedence: a port sends its claim (an injection or
        a re-injection), else its buffer's head, else the flit passing
        through, else the head of its switch's injection queue.  An arriving
        flit passes straight through only when its port holds no claim and
        no buffered flit; otherwise it joins the port's buffer.  Every port
        feeds one successor, so a port has sent this cycle exactly when its
        successor's slot in the next cycle's arrivals is taken, and no group
        needs a list of active ports.

        The order of ports within a group cannot change a trace.  A port
        reads and writes only its own claim, buffer and discard run, its
        successor's slot and its switch's injection queue; it starts an
        injection only when it sends nothing else, and ``inj_busy_until``
        then blocks a second injection at that switch in the same cycle.
        Ejections and reservations change only before any port sends, and
        each ejection link is arbitrated after every arrival of the cycle,
        among its headers sorted oldest first.

        A returning flagged header whose payload is still retained always
        leaves its origin through that port's buffer.  It makes its
        re-injection claim in one place: where the buffer group sends it.
        An admission check on re-injection belongs there.

        A busy period runs from a cycle where the loop finds the network
        empty to the next such cycle, or to the horizon.  At that idle point
        nothing carries over but the rest of the schedule: no flit is on a
        link or in a buffer; no claim, queue, ejection or discard is open;
        every ``pending`` set is empty, since a deflected packet leaves it
        when granted or dropped; every ``inj_busy_until`` is past; and
        ``last_released`` is read only for packets in flight.  No step reads
        an absolute cycle: Oldest-First compares injection cycles only
        within a period.  So a period is fixed by its (flow id, release -
        start) list, and without a deflection it runs alike in either mode.
        Each period that ends at an idle point (not at the horizon) is
        logged in ``_PERIODS``; a run copies, shifted, each one whose list
        the coming releases spell, when the next release comes at or after
        its end and it was checked or this run is not.  ``protocol_check``
        raises on a reservation left at an idle point.
        """
        memo = _PERIODS.setdefault(self.fs, [None, None, {}])
        if memo[0] != (pattern, horizon, seed):
            schedule: list[tuple] = []  # (time, flow_id, seq)
            for f in self.fs:
                for seq, t in enumerate(pattern(f, horizon, seed)):
                    schedule.append((t, f.flow_id, seq))
            schedule.sort()
            schedule.append((horizon, None, None))  # never released
            memo[:2] = (pattern, horizon, seed), schedule
        _, schedule, trie = memo
        ptr = 0
        check = self.protocol_check

        port_switch, next_port = self.port_switch, self.next_port
        port_cap, flow_facts = self.port_cap, self.flow_facts
        proposed = self.mode is ProtocolMode.PROPOSED
        # Mutable network state, keyed by port or switch.  Buffers and
        # queues hold only non-empty entries: an entry is deleted when it
        # empties.
        buffers: dict[int, list[Flit]] = {}
        # port -> the injection or re-injection holding that output.
        claims: dict[int, _Run] = {}
        ejecting: dict[int, _Run] = {}  # switch -> packet on its link
        discarding: dict[int, _Run] = {}  # port -> payload absorbed there
        # switch -> deflected packets that hold a reservation on its link
        pending: dict[int, set[_Packet]] = {}
        # The origin still retains a deflected packet's payload exactly when
        # it is its flow's last released packet.
        last_released: dict[int, _Packet] = {}
        queues: dict[int, list[_Packet]] = {}  # switch -> packets
        inj_busy_until = [0] * self.fs.topology.n_switches
        records: list[PacketRecord] = []  # in release order
        hops = drops = injected = 0
        consumed = 0  # ejected + discarded + dropped

        held: list[tuple[int, Flit]] = []  # (port, flit) joining a buffer
        arrivals: dict[int, Flit] = {}
        cycle = 0
        start = -1  # first cycle of the busy period, -1 before the first
        while cycle < horizon:
            if not (arrivals or claims or ejecting or discarding or buffers
                    or queues):
                if check and any(pending.values()):
                    raise SimInvariantError("reservation left on idle network")
                if start >= 0:
                    done = records[first:]
                    node = trie
                    for rec in done:
                        node = node.setdefault(
                            (rec.flow_id, rec.release - start), {})
                    entry = (cycle - start, done, hops - hops0,
                             drops - drops0, check, schedule, start)
                    for m in (proposed,) if deflected else (False, True):
                        node[m] = entry
                cycle = max(cycle, schedule[ptr][0])
                while cycle < horizon:
                    # Walk the memo along the releases from here; no key
                    # holds the sentinel's flow id None.
                    node, k = trie, ptr
                    while node := node.get(
                            (schedule[k][1], schedule[k][0] - cycle)):
                        k += 1
                        hit = node.get(proposed)
                        if (hit and (hit[4] or not check)
                                and schedule[k][0] >= cycle + hit[0]):
                            break
                    else:
                        break
                    length, done, dhops, ddrops, _, logged, at = hit
                    if logged is schedule and at == cycle:
                        records.extend(done)
                    else:
                        shift = cycle - at
                        for rec, (_, _, seq) in zip(done, schedule[ptr:k]):
                            end = rec.eject_end  # None only if dropped
                            records.append(PacketRecord(
                                rec.flow_id, seq, rec.release + shift,
                                rec.inject_start + shift,
                                None if end is None else end + shift,
                                rec.deflections, rec.dropped))
                    hops += dhops
                    drops += ddrops
                    ptr = k
                    cycle = max(cycle + length, schedule[ptr][0])
                if cycle >= horizon:
                    break
                start, first, deflected = cycle, len(records), False
                hops0, drops0 = hops, drops
            while schedule[ptr][0] == cycle:
                _, fid, seq = schedule[ptr]
                ptr += 1
                packet = _Packet(PacketRecord(fid, seq, cycle), flow_facts[fid])
                records.append(packet.record)
                queues.setdefault(port_switch[packet.src_port], []).append(packet)
                # Releasing a packet evicts the flow's retained payload.
                last_released[fid] = packet

            sent: dict[int, Flit] = {}  # next cycle's arrivals
            wanting: dict[int, list] | None = None  # switch -> headers
            for port, flit in arrivals.items():
                packet, idx = flit
                if idx:
                    ej = ejecting and ejecting.get(port_switch[port])
                    if ej and ej.packet is packet:
                        if idx != ej.next_idx:
                            rec = packet.record
                            raise SimInvariantError(
                                f"out-of-order ejection flit "
                                f"{(rec.flow_id, rec.seq, idx)} "
                                f"at switch {port_switch[port]}"
                            )
                        ej.next_idx += 1
                        hops += 1
                        consumed += 1
                        if ej.next_idx == ej.end:
                            packet.record.eject_end = cycle
                            del ejecting[port_switch[port]]
                        continue
                    dis = discarding and discarding.get(port)
                    if dis and dis.packet is packet and idx == dis.next_idx:
                        dis.next_idx += 1
                        consumed += 1
                        if dis.next_idx == dis.end:
                            del discarding[port]
                        continue
                elif not packet.flagged:
                    switch = port_switch[port]
                    if switch == packet.dst:
                        if wanting is None:
                            wanting = {}
                        wanting.setdefault(switch, []).append(
                            (packet.key, port, flit))
                        continue
                elif port == packet.src_port:
                    if last_released[packet.record.flow_id] is packet:
                        held.append((port, flit))
                    else:  # retention gone: absorb the returning header
                        packet.record.dropped = True
                        packet.flagged = False
                        drops += 1
                        consumed += 1
                        pend = pending.get(packet.dst)
                        if pend:
                            pend.discard(packet)
                    continue
                if port in claims or port in buffers:
                    held.append((port, flit))
                else:
                    sent[next_port[port]] = flit
                    hops += 1

            if wanting is not None:  # Oldest-First ejection arbitration
                for switch, cands in wanting.items():
                    cands.sort()
                    granted = switch in ejecting
                    pend = pending.setdefault(switch, set())
                    for own, port, flit in cands:
                        packet = flit[0]
                        if not granted and not any(
                                p.key < own for p in pend if p is not packet):
                            granted = True
                            hops += 1
                            consumed += 1
                            pend.discard(packet)
                            if packet.length == 1:
                                packet.record.eject_end = cycle
                            else:
                                ejecting[switch] = _Run(packet, 1, packet.length)
                            continue
                        packet.record.deflections += 1
                        deflected = True
                        pend.add(packet)
                        if proposed and packet.length > 1:
                            packet.flagged = True
                            # Absorb the payload trailing the header.
                            discarding[port] = _Run(packet, 1, packet.length)
                        held.append((port, flit))

            if held:
                for port, flit in held:
                    buf = buffers.setdefault(port, [])
                    buf.append(flit)
                    # A port without a claim sends its buffer's head below.
                    if len(buf) > port_cap[port] and port in claims:
                        raise SimInvariantError(
                            f"buffer overflow at switch {port_switch[port]} "
                            f"ring {self.port_ring[port]}"
                        )
                held.clear()

            for port, claim in list(claims.items()) if claims else ():
                sent[next_port[port]] = (claim.packet, claim.next_idx)
                claim.next_idx += 1
                hops += claim.hops
                injected += 1
                if claim.next_idx == claim.end:
                    del claims[port]

            for port, buf in list(buffers.items()) if buffers else ():
                nxt = next_port[port]
                if nxt in sent:  # the port's claim holds the link
                    continue
                flit = buf.pop(0)
                if not buf:
                    del buffers[port]
                sent[nxt] = flit
                hops += 1
                packet = flit[0]
                # A flagged header reaches its origin's output only when the
                # payload was still retained there; otherwise it was dropped
                # on arrival.  The retained payload streams out behind it.
                if not flit[1] and packet.flagged and port == packet.src_port:
                    packet.flagged = False
                    claims[port] = _Run(packet, 1, packet.length)

            for switch, queue in list(queues.items()) if queues else ():
                if cycle < inj_busy_until[switch]:
                    continue
                packet = queue[0]
                port = packet.src_port
                if next_port[port] in sent:  # the port sends something else
                    continue
                del queue[0]
                if not queue:
                    del queues[switch]
                packet.key = (cycle, packet.ring, packet.record.flow_id)
                packet.record.inject_start = cycle
                claims[port] = _Run(packet, 0, packet.length, hops=2)
                inj_busy_until[switch] = cycle + packet.length

            arrivals = sent
            if check:
                # A flit is injected when it first crosses a link and
                # consumed when ejected, discarded, or dropped.  In between
                # it sits on a link (next cycle's arrivals) or in a buffer.
                in_flight = len(arrivals) + sum(map(len, buffers.values()))
                if injected != consumed + in_flight:
                    raise SimInvariantError(
                        f"flit conservation broken: {injected} injected, "
                        f"{consumed} consumed, {in_flight} in flight"
                    )
            cycle += 1
        return self._trace(records, horizon, hops, drops)

    def _trace(self, records: list[PacketRecord], horizon: int,
               flit_hops: int, drops: int) -> SimTrace:
        # Records were made in schedule order: by release, flow id and seq.
        bounds = self.bounds
        max_latency: dict[int, int] = {}
        max_deflections: dict[int, int] = {}
        violated: list[int] = []
        tally: dict[int, list[int]] = {}  # packets, delivered, violations
        for i, rec in enumerate(records):
            fid, end = rec.flow_id, rec.eject_end
            bound = bounds.get(fid)
            row = tally.setdefault(fid, [0, 0, 0])
            row[0] += 1
            if end is None:
                late = bound is not None and rec.release + bound <= horizon
            else:
                row[1] += 1
                latency = end - rec.release + 1
                if latency > max_latency.get(fid, 0):
                    max_latency[fid] = latency
                if rec.deflections > max_deflections.get(fid, -1):
                    max_deflections[fid] = rec.deflections
                late = bound is not None and latency > bound
            if late:
                row[2] += 1
                violated.append(i)
        return SimTrace(
            horizon=horizon,
            records=tuple(records),
            max_latency=max_latency,
            max_deflections=max_deflections,
            flit_hops=flit_hops,
            retention_violations=drops,
            bound_violations=len(violated),
            violated=tuple(violated),
            tally={fid: tuple(tally[fid]) for fid in sorted(tally)},
        )


def run(
    flowset: Flowset,
    mode: ProtocolMode,
    pattern: ReleasePattern = synchronous,
    horizon: int | None = None,
    seed: str = "0",
    bounds: Mapping[int, int] | None = None,
    protocol_check: bool = False,
) -> SimTrace:
    """Simulate the flowset and return the packet trace.

    ``bounds`` maps flow ids to latency bounds; delivered packets above their
    bound and packets released at least one bound before the horizon yet not
    delivered are violations, listed in ``SimTrace.violated``.
    ``protocol_check`` enables per-cycle flit-conservation assertions.
    """
    if horizon is None:
        horizon = default_horizon(flowset)
    if horizon <= 0:
        raise ModelError("horizon must be positive")
    sim = _Simulator(flowset, mode, bounds, protocol_check)
    return sim.run(pattern, horizon, seed)
