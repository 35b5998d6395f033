"""Topology and traffic model for routerless ring networks.

A network is a rows x cols grid of switches, one core per switch (core k
attaches to switch k), connected by statically placed unidirectional rings.
Packets never leave the ring they were injected on.  Each switch has a single
ejection link and a single injection link, both shared by every ring passing
through that switch.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

CoreId = int
SwitchId = int
RingId = int


class Route(NamedTuple):
    """How a packet gets from one switch to another: the ring, the source
    switch's position on it, and the ring links crossed.  The path is the
    hops + 1 switches ``ring.switches[(src_pos + k) % len(ring)]`` for k in
    0..hops.  A flow's route is its placement."""

    ring: RingId
    src_pos: int
    hops: int


class ModelError(ValueError):
    """A topology, ring, or flow violates a structural constraint."""


@dataclass(frozen=True)
class Ring:
    """An ordered, cyclic, unidirectional sequence of distinct switches.

    ``switches[i]`` forwards to ``switches[(i + 1) % len(switches)]``.
    """

    ring_id: RingId
    switches: tuple[SwitchId, ...]

    def __post_init__(self) -> None:
        if len(self.switches) < 2:
            raise ModelError(f"ring {self.ring_id}: needs at least 2 switches")
        if len(set(self.switches)) != len(self.switches):
            raise ModelError(f"ring {self.ring_id}: switches must be distinct")

    def __len__(self) -> int:
        return len(self.switches)


class NetworkTopology:
    """A switch grid plus its ring placement."""

    def __init__(self, rows: int, cols: int, rings: tuple[Ring, ...]) -> None:
        if rows < 1 or cols < 1:
            raise ModelError("grid dimensions must be positive")
        n = rows * cols
        # switch -> (ring, position) of every ring through it, in ring id order
        through: dict[SwitchId, list[tuple[RingId, int]]] = {s: [] for s in range(n)}
        for i, ring in enumerate(rings):
            if ring.ring_id != i:
                raise ModelError(f"ring at index {i} has ring_id {ring.ring_id}")
            for pos, s in enumerate(ring.switches):
                if not 0 <= s < n:
                    raise ModelError(
                        f"ring {i}: switch {s} outside {rows}x{cols} grid"
                    )
                through[s].append((i, pos))
        self.rows = rows
        self.cols = cols
        self.rings = rings
        self._through = through
        self._routes: dict[SwitchId, dict[SwitchId, Route]] = {}

    @property
    def n_switches(self) -> int:
        return self.rows * self.cols

    def route(self, src: SwitchId, dst: SwitchId) -> Route | None:
        """The route on the ring with fewest hops from src to dst, lower ring
        id first, or None if no ring passes both.

        The table holds one dict per source, filled on its first lookup:
        each ring through the source is walked once, in ring id order, and
        only a strictly shorter route replaces the one kept for a
        destination.  ``src`` itself is 0 hops away on the lowest ring
        through it.  Every flowset built on this topology shares the table.
        """
        routes = self._routes.get(src)
        if routes is None:
            routes = self._routes[src] = {}
            for ring, i in self._through[src]:
                switches = self.rings[ring].switches
                for hops, switch in enumerate(switches[i:] + switches[:i]):
                    best = routes.get(switch)
                    if best is None or hops < best.hops:
                        routes[switch] = Route(ring, i, hops)
        return routes.get(dst)


def _perimeter(r0: int, c0: int, r1: int, c1: int, cols: int) -> tuple[SwitchId, ...]:
    # Clockwise walk of the rectangle boundary; needs r1 > r0 and c1 > c0.
    cells: list[SwitchId] = []
    cells.extend(r0 * cols + c for c in range(c0, c1 + 1))
    cells.extend(r * cols + c1 for r in range(r0 + 1, r1 + 1))
    cells.extend(r1 * cols + c for c in range(c1 - 1, c0 - 1, -1))
    cells.extend(r * cols + c0 for r in range(r1 - 1, r0, -1))
    return tuple(cells)


def generate_rlrec(rows: int, cols: int) -> NetworkTopology:
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
        ring = Ring(ring_id=0, switches=_perimeter(0, 0, 1, 1, cols))
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
        rings.append(Ring(ring_id=idx, switches=walk))
    return NetworkTopology(rows=rows, cols=cols, rings=tuple(rings))


class _FlowFields(NamedTuple):
    flow_id: int
    period: int
    deadline: int
    length: int
    jitter: int
    src: CoreId
    dst: CoreId
    maxloop: int | None = None


class Flow(_FlowFields):
    """A periodic packet flow between two cores, as its input gives it.

    Times are in cycles.  ``length`` is the packet size in flits, one flit
    crossing one link per cycle.  ``maxloop`` is the deflection budget the
    input fixes, or None to leave it to the Oldest-First count of
    ejection-link competitors.  The flow's ring and its effective budget
    are derived by the ``Flowset`` it joins, which never rewrites it.

    An immutable named tuple that checks its fields on every way of making
    one: the constructor, ``_make`` and so ``_replace``, and unpickling.
    """

    __slots__ = ()

    def __new__(cls, flow_id: int, period: int, deadline: int, length: int,
                jitter: int, src: CoreId, dst: CoreId,
                maxloop: int | None = None) -> "Flow":
        if period < 1:
            raise ModelError(f"flow {flow_id}: period must be >= 1")
        if not 1 <= deadline <= period:
            raise ModelError(f"flow {flow_id}: deadline must be in [1, period]")
        if length < 1:
            raise ModelError(f"flow {flow_id}: length must be >= 1")
        if jitter < 0:
            raise ModelError(f"flow {flow_id}: jitter must be >= 0")
        if src == dst:
            raise ModelError(f"flow {flow_id}: src and dst must differ")
        if maxloop is not None and maxloop < 0:
            raise ModelError(f"flow {flow_id}: maxloop must be >= 0")
        return tuple.__new__(
            cls, (flow_id, period, deadline, length, jitter, src, dst, maxloop))

    @classmethod
    def _make(cls, iterable) -> "Flow":  # type: ignore[override]
        return cls(*iterable)


class Flowset:
    """An immutable set of flows finalized against a topology.

    ``flows`` holds the given ``Flow`` objects unchanged; everything derived
    from them lives here.  Construction builds an index of the flows in one
    pass: each flow's route (its ring, its source position on it and its
    hop count, read from the topology's route table), flows bucketed by
    source switch and by ring, per-ring buffer sizes (the largest packet on
    each ring), and the Oldest-First competitor count of each flow.  The
    first flow in flow order with a duplicate id, a core outside the grid or
    no ring joining its cores is rejected.  ``maxloops`` maps each flow id to
    its effective deflection budget: the flow's own ``maxloop`` when the
    input fixes one, its competitor count otherwise.  Per flow, readers get
    ``placement`` (the route), ``injected_at`` (the source bucket),
    ``split_ring_peers`` and ``interference_sets`` (the ring bucket),
    ``maxloops`` and ``ring_buffers``.  None of this but ``maxloops``
    depends on the budget, so the copies made by ``with_maxloop`` share all
    of it.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        flows: Sequence[Flow],
    ) -> None:
        self.topology = topology
        self.flows: tuple[Flow, ...] = tuple(flows)
        rows, cols = topology.rows, topology.cols
        n_switches = rows * cols
        route = topology.route
        by_id: dict[int, Flow] = {}
        place: dict[int, Route] = {}
        by_src: dict[SwitchId, list[int]] = {}
        by_ring: dict[RingId, list[int]] = {}
        buffers = dict.fromkeys(range(len(topology.rings)), 1)
        keys: list[tuple[RingId, SwitchId]] = []  # (ring, destination) by flow
        at_dst: dict[SwitchId, int] = {}
        at_ring_dst: dict[tuple[RingId, SwitchId], int] = {}
        for f in self.flows:
            fid, src, dst = f.flow_id, f.src, f.dst
            if fid in by_id:
                raise ModelError(f"duplicate flow id {fid}")
            by_id[fid] = f
            # Core k attaches to switch k.
            if not (0 <= src < n_switches and 0 <= dst < n_switches):
                field, core = (("dst", dst) if 0 <= src < n_switches
                               else ("src", src))
                raise ModelError(f"flow {fid}: {field} core {core} "
                                 f"outside {rows}x{cols} grid")
            placed = route(src, dst)
            if placed is None:
                raise ModelError(f"flow {fid}: no ring connects cores "
                                 f"{src} and {dst}")
            place[fid] = placed
            ring = placed[0]
            by_src.setdefault(src, []).append(fid)
            by_ring.setdefault(ring, []).append(fid)
            if f.length > buffers[ring]:
                buffers[ring] = f.length
            key = (ring, dst)
            keys.append(key)
            at_dst[dst] = at_dst.get(dst, 0) + 1
            at_ring_dst[key] = at_ring_dst.get(key, 0) + 1
        self._by_id = by_id
        self._place = place
        self._by_src = by_src
        self._by_ring = by_ring
        self.ring_buffers: dict[RingId, int] = buffers

        # Ejection-link competitors: flows at the same destination switch
        # that arrive on another ring.
        competitors: dict[int, int] = {}
        maxloops: dict[int, int] = {}
        for f, key in zip(self.flows, keys):
            count = competitors[f.flow_id] = at_dst[key[1]] - at_ring_dst[key]
            maxloops[f.flow_id] = count if f.maxloop is None else f.maxloop
        self._competitors = competitors
        self.maxloops = maxloops

    def __iter__(self):
        return iter(self.flows)

    def __len__(self) -> int:
        return len(self.flows)

    def placement(self, flow_id: int) -> Route:
        """The flow's route: its ring, the ring position of its source
        switch, and its hop count."""
        return self._place[flow_id]

    def injected_at(self, switch: SwitchId) -> Sequence[int]:
        """Ids of every flow injected at ``switch``, in flow order (empty if
        none is).  Read only: the flowset and its copies share it."""
        return self._by_src.get(switch, ())

    def with_maxloop(self, maxloop: int) -> "Flowset":
        """Copy of this flowset with one maxloop value for every flow.

        The copy shares this flowset's flows, index, buffers and routes;
        only its ``maxloops`` differ.
        """
        if maxloop < 0:
            raise ModelError("maxloop must be >= 0")
        budgeted = copy.copy(self)
        budgeted.maxloops = dict.fromkeys(self.maxloops, maxloop)
        return budgeted

    def split_ring_peers(self, flow_id: int) -> tuple[list[int], list[int]]:
        """The flow's ring peers as (upstream, deflected-only) ids, in the
        order they joined the ring.

        Upstream peers' source-to-destination paths cross the flow's source
        switch, so their packets pass it even when never deflected; the
        others cross it only while looping after a deflection.
        """
        place = self._place
        ring, p, _ = place[flow_id]
        n = len(self.topology.rings[ring])
        upstream: list[int] = []
        deflected: list[int] = []
        for g in self._by_ring[ring]:
            if g == flow_id:
                continue
            # g's path covers ring positions i, i + 1, ..., i + hops (mod n).
            _, i, hops = place[g]
            if (p - i) % n <= hops:
                upstream.append(g)
            else:
                deflected.append(g)
        return upstream, deflected

    def interference_sets(self, flow_id: int) -> tuple[int, ...]:
        """Ids of the flows sharing the flow's ring, in the order they
        joined it: its whole interference domain."""
        ring = self._place[flow_id].ring
        return tuple(g for g in self._by_ring[ring] if g != flow_id)


def no_load_latency(flowset: Flowset, flow_id: int) -> int:
    """Cycles to deliver one packet on an otherwise idle network.

    The header crosses the injection link, the hops ring links along the
    path, and the ejection link: hops + 2 link crossings.  The remaining
    length - 1 flits follow in consecutive cycles.
    """
    return flowset._place[flow_id].hops + 1 + flowset._by_id[flow_id].length


def maxloop_oldest_first(flowset: Flowset, flow_id: int) -> int:
    """Worst-case deflections under Oldest-First ejection arbitration.

    Counts the flows that compete for the destination switch's shared
    ejection link from a different ring.  Each competitor can hold at most
    one in-flight packet older than the packet under analysis, and only
    older packets are granted the link ahead of it, so its packets loop at
    most once per competitor.  The count is taken from the flowset's index
    and holds even where the input fixed the flow's maxloop.
    """
    return flowset._competitors[flow_id]


def sampler(getrandbits: Callable[[int], int]) -> Callable[[int], int]:
    """``below(n)``, a uniform draw from range(n) for n >= 1.  It runs the
    rejection loop of ``Random.randrange(n)`` on Python 3.10-3.13
    (n.bit_length() bits until the value is below n), so it takes the same
    bits and value, and ``randint(lo, hi)`` is ``lo + below(hi - lo + 1)``."""
    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below
