"""Topology and traffic model for routerless ring networks.

A network is a rows x cols grid of switches, one core per switch (core k
attaches to switch k), connected by statically placed unidirectional rings.
Packets never leave the ring they were injected on.  Each switch has a single
ejection link and a single injection link, both shared by every ring passing
through that switch.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

CoreId = int
SwitchId = int
RingId = int


class ModelError(ValueError):
    """A topology, ring, or flow violates a structural constraint."""


@dataclass(frozen=True)
class Ring:
    """An ordered, cyclic, unidirectional sequence of distinct switches.

    ``switches[i]`` forwards to ``switches[(i + 1) % len(switches)]``.
    ``buffer_size`` is the per-switch packet buffer capacity in flits; it is
    a provisioning default that flowset finalization overrides with the
    largest packet assigned to the ring.
    """

    ring_id: RingId
    switches: tuple[SwitchId, ...]
    buffer_size: int = 1

    def __post_init__(self) -> None:
        if len(self.switches) < 2:
            raise ModelError(f"ring {self.ring_id}: needs at least 2 switches")
        if len(set(self.switches)) != len(self.switches):
            raise ModelError(f"ring {self.ring_id}: switches must be distinct")
        if self.buffer_size < 1:
            raise ModelError(f"ring {self.ring_id}: buffer_size must be >= 1")
        object.__setattr__(self, "_switch_set", frozenset(self.switches))
        object.__setattr__(
            self, "_index", {s: i for i, s in enumerate(self.switches)}
        )

    def __len__(self) -> int:
        return len(self.switches)

    def __contains__(self, switch: SwitchId) -> bool:
        return switch in self._switch_set  # type: ignore[attr-defined]

    def position(self, switch: SwitchId) -> int:
        try:
            return self._index[switch]  # type: ignore[attr-defined]
        except KeyError:
            raise ModelError(
                f"switch {switch} is not on ring {self.ring_id}"
            ) from None

    def path(self, src: SwitchId, dst: SwitchId) -> tuple[SwitchId, ...]:
        """Switches traversed from src to dst, inclusive of both endpoints."""
        i, j = self.position(src), self.position(dst)
        n = len(self.switches)
        hops = (j - i) % n
        return tuple(self.switches[(i + k) % n] for k in range(hops + 1))


@dataclass(frozen=True)
class NetworkTopology:
    """A switch grid plus its ring placement.

    ``rings_through(s)`` is the set of rings sharing switch s's single
    ejection link and its single injection link: every ring passing s.
    """

    rows: int
    cols: int
    rings: tuple[Ring, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ModelError("grid dimensions must be positive")
        n = self.rows * self.cols
        for i, ring in enumerate(self.rings):
            if ring.ring_id != i:
                raise ModelError(f"ring at index {i} has ring_id {ring.ring_id}")
            for s in ring.switches:
                if not 0 <= s < n:
                    raise ModelError(
                        f"ring {i}: switch {s} outside {self.rows}x{self.cols} grid"
                    )
        sharing: dict[SwitchId, frozenset[RingId]] = {}
        for s in range(n):
            sharing[s] = frozenset(r.ring_id for r in self.rings if s in r)
        object.__setattr__(self, "_sharing", sharing)

    @property
    def n_switches(self) -> int:
        return self.rows * self.cols

    def switch_of_core(self, core: CoreId) -> SwitchId:
        if not 0 <= core < self.n_switches:
            raise ModelError(f"core {core} outside grid")
        return core

    def rings_through(self, switch: SwitchId) -> frozenset[RingId]:
        return self._sharing[switch]  # type: ignore[attr-defined]

    def is_fully_connected(self) -> bool:
        """True when every ordered pair of distinct switches shares a ring."""
        n = self.n_switches
        covered = [[False] * n for _ in range(n)]
        for ring in self.rings:
            for a in ring.switches:
                row = covered[a]
                for b in ring.switches:
                    row[b] = True
        return all(
            covered[a][b] for a in range(n) for b in range(n) if a != b
        )


def _perimeter(r0: int, c0: int, r1: int, c1: int, cols: int) -> tuple[SwitchId, ...]:
    # Clockwise walk of the rectangle boundary; needs r1 > r0 and c1 > c0.
    cells: list[SwitchId] = []
    cells.extend(r0 * cols + c for c in range(c0, c1 + 1))
    cells.extend(r * cols + c1 for r in range(r0 + 1, r1 + 1))
    cells.extend(r1 * cols + c for c in range(c1 - 1, c0 - 1, -1))
    cells.extend(r * cols + c0 for r in range(r1 - 1, r0, -1))
    return tuple(cells)


def generate_rlrec(rows: int, cols: int, buffer_size: int = 1) -> NetworkTopology:
    """Generate the recursive-layering ring placement for a square grid.

    Layers are the nested square frames of the grid, processed from the
    outermost inward.  A frame of side n contributes its boundary ring in
    both orientations plus, for each inset i in 1..n-2, three rectangular
    rings anchored on the frame: one spanning from the top edge down to
    inset i, one from the bottom edge up to inset i, and one from the left
    edge across to inset i.  Orientation alternates with emission order so
    both rotation senses stay balanced.  Every pair of switches ends up
    sharing at least one ring: boundary pairs share the frame boundary, and
    a boundary switch reaches any inner switch through the top or bottom
    band whose full-width edge crosses the inner switch's row.

    The standalone 2x2 grid is the one exception: its boundary loop already
    visits all four switches, so a single ring is placed.
    """
    if rows != cols:
        raise ModelError(f"grid must be square, got {rows}x{cols}")
    if rows < 2:
        raise ModelError(f"grid must be at least 2x2, got {rows}x{cols}")
    if rows == 2:
        ring = Ring(
            ring_id=0, switches=_perimeter(0, 0, 1, 1, cols), buffer_size=buffer_size
        )
        return NetworkTopology(rows=2, cols=2, rings=(ring,))
    rects: list[tuple[int, int, int, int]] = []
    n = rows
    offset = 0
    while n >= 2:
        lo, hi = offset, offset + n - 1
        rects.append((lo, lo, hi, hi))
        rects.append((lo, lo, hi, hi))
        for i in range(1, n - 1):
            rects.append((lo, lo, lo + i, hi))  # top band
            rects.append((lo + i, lo, hi, hi))  # bottom band
            rects.append((lo, lo, hi, lo + i))  # left band
        n -= 2
        offset += 1
    rings = []
    for idx, (r0, c0, r1, c1) in enumerate(rects):
        walk = _perimeter(r0, c0, r1, c1, cols)
        if idx % 2:
            walk = walk[::-1]
        rings.append(Ring(ring_id=idx, switches=walk, buffer_size=buffer_size))
    return NetworkTopology(rows=rows, cols=cols, rings=tuple(rings))


@dataclass(frozen=True)
class Flow:
    """A periodic packet flow between two cores.

    Times are in cycles.  ``length`` is the packet size in flits, one flit
    crossing one link per cycle.  ``ring`` and ``maxloop`` may be left None
    and are then filled in at flowset build time: the ring by shortest-path
    assignment, maxloop by counting ejection-link competitors under
    Oldest-First arbitration.
    """

    flow_id: int
    period: int
    deadline: int
    length: int
    jitter: int
    src: CoreId
    dst: CoreId
    ring: RingId | None = None
    maxloop: int | None = None

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ModelError(f"flow {self.flow_id}: period must be >= 1")
        if not 1 <= self.deadline <= self.period:
            raise ModelError(
                f"flow {self.flow_id}: deadline must be in [1, period]"
            )
        if self.length < 1:
            raise ModelError(f"flow {self.flow_id}: length must be >= 1")
        if self.jitter < 0:
            raise ModelError(f"flow {self.flow_id}: jitter must be >= 0")
        if self.src == self.dst:
            raise ModelError(f"flow {self.flow_id}: src and dst must differ")
        if self.maxloop is not None and self.maxloop < 0:
            raise ModelError(f"flow {self.flow_id}: maxloop must be >= 0")


@dataclass(frozen=True)
class InterferenceSets:
    """Flow ids that can delay a given flow, by mechanism.

    ring_peers: flows sharing the ring (the whole interference domain).
    injection_sharers: flows injected at the same switch, any ring; they
        compete for the switch's single injection link.
    upstream: ring peers whose source-to-destination path crosses the
        flow's source switch; their packets pass it even when never
        deflected.
    deflected_only: the remaining ring peers; they cross the flow's source
        switch only while looping after a deflection.
    """

    ring_peers: tuple[int, ...]
    injection_sharers: tuple[int, ...]
    upstream: tuple[int, ...]
    deflected_only: tuple[int, ...]


class Flowset:
    """An immutable set of flows finalized against a topology.

    Construction assigns rings, recomputes per-ring buffer sizes as the
    largest packet on each ring, derives missing maxloop values, and builds
    an index of the flows in one pass: each flow's switches and their
    positions on its ring, flows bucketed by source switch and by ring, and
    the Oldest-First competitor count of each flow.  Interference sets are
    read from the buckets on first use and cached.  None of this depends on
    maxloop, so the copies made by ``with_maxloop`` share all of it.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        flows: Sequence[Flow],
        header_len: int = 1,
    ) -> None:
        if header_len < 1:
            raise ModelError("header_len must be >= 1")
        self.topology = topology
        self.header_len = header_len
        seen: set[int] = set()
        for f in flows:
            if f.flow_id in seen:
                raise ModelError(f"duplicate flow id {f.flow_id}")
            seen.add(f.flow_id)
            if f.length < header_len:
                raise ModelError(
                    f"flow {f.flow_id}: length {f.length} below header_len {header_len}"
                )

        buffers = {r.ring_id: r.buffer_size for r in topology.rings}
        # flow id -> (source switch, destination switch, their ring positions)
        self._place: dict[int, tuple[SwitchId, SwitchId, int, int]] = {}
        self._paths: dict[int, tuple[SwitchId, ...]] = {}
        self._by_src: dict[SwitchId, list[int]] = {}
        self._by_ring: dict[RingId, list[int]] = {}
        at_dst: dict[SwitchId, int] = {}
        at_ring_dst: dict[tuple[RingId, SwitchId], int] = {}
        rings: list[RingId] = []
        for f in flows:
            src = topology.switch_of_core(f.src)
            dst = topology.switch_of_core(f.dst)
            ring_id = f.ring
            if ring_id is None:
                ring_id = self._shortest_ring(f, src, dst)
            ring = topology.rings[ring_id]
            if src not in ring or dst not in ring:
                raise ModelError(
                    f"flow {f.flow_id}: ring {ring_id} does not contain "
                    f"switches {src} and {dst}"
                )
            self._place[f.flow_id] = (src, dst, ring.position(src), ring.position(dst))
            self._paths[f.flow_id] = ring.path(src, dst)
            self._by_src.setdefault(src, []).append(f.flow_id)
            self._by_ring.setdefault(ring_id, []).append(f.flow_id)
            at_dst[dst] = at_dst.get(dst, 0) + 1
            at_ring_dst[ring_id, dst] = at_ring_dst.get((ring_id, dst), 0) + 1
            buffers[ring_id] = max(buffers[ring_id], f.length)
            rings.append(ring_id)
        self.ring_buffers: dict[RingId, int] = buffers

        # Ejection-link competitors: flows at the same destination switch
        # that arrive on another ring.
        self._competitors: dict[int, int] = {}
        assigned = []
        for f, ring_id in zip(flows, rings):
            dst = self._place[f.flow_id][1]
            count = at_dst[dst] - at_ring_dst[ring_id, dst]
            self._competitors[f.flow_id] = count
            if f.ring is None or f.maxloop is None:
                f = replace(
                    f, ring=ring_id, maxloop=count if f.maxloop is None else f.maxloop
                )
            assigned.append(f)
        self._set_flows(assigned)
        self._interference: dict[int, InterferenceSets] = {}

    def _shortest_ring(self, flow: Flow, src: SwitchId, dst: SwitchId) -> RingId:
        # Fewest hops from src to dst; the lower ring id wins a tie.
        top = self.topology
        shared = (top.rings[r] for r in top.rings_through(src) & top.rings_through(dst))
        candidates = [
            ((ring.position(dst) - ring.position(src)) % len(ring), ring.ring_id)
            for ring in shared
        ]
        if not candidates:
            raise ModelError(
                f"flow {flow.flow_id}: no ring connects cores {flow.src} "
                f"and {flow.dst}"
            )
        return min(candidates)[1]

    def _set_flows(self, flows: Iterable[Flow]) -> None:
        self.flows: tuple[Flow, ...] = tuple(flows)
        self._by_id = {f.flow_id: f for f in self.flows}

    def __iter__(self):
        return iter(self.flows)

    def __len__(self) -> int:
        return len(self.flows)

    def flow(self, flow_id: int) -> Flow:
        return self._by_id[flow_id]

    def ring_of(self, flow: Flow | int) -> Ring:
        if isinstance(flow, int):
            flow = self._by_id[flow]
        return self.topology.rings[flow.ring]

    def path_of(self, flow_id: int) -> tuple[SwitchId, ...]:
        return self._paths[flow_id]

    def buffer_of(self, flow: Flow | int) -> int:
        if isinstance(flow, int):
            flow = self._by_id[flow]
        return self.ring_buffers[flow.ring]

    def src_switch(self, flow_id: int) -> SwitchId:
        return self._place[flow_id][0]

    def dst_switch(self, flow_id: int) -> SwitchId:
        return self._place[flow_id][1]

    def with_maxloop(self, maxloop: int) -> "Flowset":
        """Copy of this flowset with one maxloop value for every flow.

        The copy shares this flowset's index, buffers, paths and
        interference sets; only its flows differ.
        """
        budgeted = copy.copy(self)
        budgeted._set_flows(replace(f, maxloop=maxloop) for f in self.flows)
        return budgeted

    def interference_sets(self, flow_id: int) -> InterferenceSets:
        cached = self._interference.get(flow_id)
        if cached is not None:
            return cached
        src, _, p, _ = self._place[flow_id]
        ring = self._by_id[flow_id].ring
        n = len(self.topology.rings[ring])
        peers, upstream, deflected = [], [], []
        for g in self._by_ring[ring]:
            if g == flow_id:
                continue
            peers.append(g)
            # g's path covers ring positions i, i + 1, ..., j (mod n).
            _, _, i, j = self._place[g]
            if (p - i) % n <= (j - i) % n:
                upstream.append(g)
            else:
                deflected.append(g)
        sets = InterferenceSets(
            ring_peers=tuple(peers),
            injection_sharers=tuple(g for g in self._by_src[src] if g != flow_id),
            upstream=tuple(upstream),
            deflected_only=tuple(deflected),
        )
        self._interference[flow_id] = sets
        return sets


def no_load_latency(flowset: Flowset, flow_id: int) -> int:
    """Cycles to deliver one packet on an otherwise idle network.

    The header crosses the injection link, the ring links along the path,
    and the ejection link: len(path) + 1 link crossings.  The remaining
    length - 1 flits follow in consecutive cycles.
    """
    flow = flowset.flow(flow_id)
    return len(flowset.path_of(flow_id)) + 1 + flow.length - 1


def maxloop_oldest_first(flowset: Flowset, flow_id: int) -> int:
    """Worst-case deflections under Oldest-First ejection arbitration.

    Counts the flows that compete for the destination switch's shared
    ejection link from a different ring.  Each competitor can hold at most
    one in-flight packet older than the packet under analysis, and only
    older packets are granted the link ahead of it, so its packets loop at
    most once per competitor.  The count is taken from the flowset's index
    and holds even where the flow's maxloop was set explicitly.
    """
    return flowset._competitors[flow_id]
