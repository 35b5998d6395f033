"""Topology, path, and interference-set behavior.

Expected values for the fixed scenarios were worked out by hand or by the
brute-force helpers defined alongside the tests, then frozen here.
"""
from __future__ import annotations

import copy
import pickle
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_flow, perimeter_ring8, single_flow_ring8
from rlnoc.model import (
    Flow,
    Flowset,
    ModelError,
    NetworkTopology,
    Ring,
    generate_rlrec,
    maxloop_oldest_first,
    no_load_latency,
)


def _walk(ring: Ring, src: int, dst: int) -> tuple[int, ...]:
    # Independent oracle: step around the cyclic order one switch at a time.
    seq = [src]
    i = ring.switches.index(src)
    while seq[-1] != dst:
        i = (i + 1) % len(ring.switches)
        seq.append(ring.switches[i])
    return tuple(seq)


def _path(top: NetworkTopology, route) -> tuple[int, ...]:
    # The switches a route passes, derived from its ring, source position
    # and hop count.
    ring, src_pos, hops = route
    switches = top.rings[ring].switches
    return tuple(switches[(src_pos + k) % len(switches)] for k in range(hops + 1))


def _pairs_covered(top: NetworkTopology) -> bool:
    # Independent oracle: enumerate every ordered switch pair.
    for a in range(top.n_switches):
        for b in range(top.n_switches):
            if a == b:
                continue
            if not any(a in r.switches and b in r.switches for r in top.rings):
                return False
    return True


class TestRingGeneration:
    def test_ring_counts_on_reference_grids(self):
        assert len(generate_rlrec(2, 2).rings) == 1  # single loop covers all
        assert len(generate_rlrec(4, 4).rings) == 10
        assert len(generate_rlrec(6, 6).rings) == 24

    def test_rejects_non_square_and_degenerate_grids(self):
        with pytest.raises(ModelError):
            generate_rlrec(4, 5)
        with pytest.raises(ModelError):
            generate_rlrec(1, 4)
        with pytest.raises(ModelError):
            generate_rlrec(1, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_all_pairs_share_a_ring(self, n):
        top = generate_rlrec(n, n)
        assert _pairs_covered(top)

    def test_rings_are_valid_rectangle_walks(self):
        top = generate_rlrec(6, 6)
        for ring in top.rings:
            assert len(set(ring.switches)) == len(ring.switches)
            rows = [s // 6 for s in ring.switches]
            cols = [s % 6 for s in ring.switches]
            # Each boundary walk visits the full perimeter of its rectangle.
            height = max(rows) - min(rows) + 1
            width = max(cols) - min(cols) + 1
            assert len(ring.switches) == 2 * (height + width) - 4
            # Consecutive switches are grid neighbors, wrap included.
            for a, b in zip(ring.switches, ring.switches[1:] + ring.switches[:1]):
                dr = abs(a // 6 - b // 6)
                dc = abs(a % 6 - b % 6)
                assert dr + dc == 1

    def test_both_orientations_present(self):
        top = generate_rlrec(4, 4)
        outer = [r for r in top.rings if set(r.switches) == set(top.rings[0].switches)]
        assert len(outer) == 2
        assert outer[0].switches == tuple(reversed(outer[1].switches))


class TestPath:
    def test_four_switch_arc_on_perimeter_ring(self):
        fs = single_flow_ring8()
        # src core 1 sits second on the ring, dst core 7 sits fourth.
        assert fs.placement(0) == (0, 1, 3)
        assert _path(fs.topology, fs.placement(0)) == (1, 2, 3, 7)

    def test_adjacent_switches(self):
        top = perimeter_ring8()
        fs = Flowset(top, [make_flow(0, 1, 2)])
        assert fs.placement(0) == (0, 1, 1)
        assert _path(top, fs.placement(0)) == (1, 2)

    def test_wraparound_matches_step_oracle(self):
        top = perimeter_ring8()
        ring = top.rings[0]
        fs = Flowset(top, [make_flow(0, 6, 0)])  # crosses the cyclic seam
        walk = _walk(ring, 6, 0)
        assert fs.placement(0) == (0, ring.switches.index(6), len(walk) - 1)
        assert _path(top, fs.placement(0)) == walk

    @given(
        src=st.integers(0, 7),
        dst=st.integers(0, 7),
    )
    def test_path_agrees_with_step_oracle_everywhere(self, src, dst):
        top = perimeter_ring8()
        ring = top.rings[0]
        walk = (src,) if src == dst else _walk(ring, src, dst)
        route = top.route(src, dst)
        assert route == (0, ring.switches.index(src), len(walk) - 1)
        assert _path(top, route) == walk


class TestNoLoadLatency:
    def test_eight_flit_packet_over_four_switches(self):
        fs = single_flow_ring8(length=8)
        assert no_load_latency(fs, 0) == 12

    def test_single_flit_adjacent(self):
        fs = Flowset(perimeter_ring8(), [make_flow(0, 1, 2, length=1)])
        assert no_load_latency(fs, 0) == 3

    def test_single_flit_over_four_switches(self):
        fs = single_flow_ring8(length=1)
        assert no_load_latency(fs, 0) == 5

    @given(
        src=st.integers(0, 7),
        dst=st.integers(0, 7),
        length=st.integers(1, 64),
    )
    def test_always_at_least_length_plus_two(self, src, dst, length):
        if src == dst:
            return
        fs = Flowset(perimeter_ring8(), [make_flow(0, src, dst, length=length)])
        c = no_load_latency(fs, 0)
        assert c >= length + 2
        assert c == len(_path(fs.topology, fs.placement(0))) + 1 + length - 1


class TestInterferenceSets:
    def test_single_flow_has_empty_sets(self):
        fs = single_flow_ring8()
        assert fs.interference_sets(0) == ()
        assert list(fs.injected_at(1)) == [0]
        assert fs.split_ring_peers(0) == ([], [])

    def test_peer_crossing_source_switch_is_upstream(self):
        top = perimeter_ring8()
        # flow 0: 1 -> 7 (path 1,2,3,7); flow 1: 0 -> 3 passes switch 1.
        fs = Flowset(top, [make_flow(0, 1, 7), make_flow(1, 0, 3)])
        assert fs.interference_sets(0) == (1,)
        assert fs.split_ring_peers(0) == ([1], [])

    def test_peer_avoiding_source_switch_is_deflected_only(self):
        top = perimeter_ring8()
        # flow 1: 2 -> 3 never crosses switch 1 on its direct path.
        fs = Flowset(top, [make_flow(0, 1, 7), make_flow(1, 2, 3)])
        assert fs.interference_sets(0) == (1,)
        assert fs.split_ring_peers(0) == ([], [1])

    def test_same_source_switch_shares_injection_link(self):
        top = perimeter_ring8()
        fs = Flowset(top, [make_flow(0, 1, 7), make_flow(1, 1, 3)])
        assert list(fs.injected_at(1)) == [0, 1]
        assert list(fs.injected_at(7)) == []

    def test_upstream_and_deflected_partition_ring_peers(self):
        top = generate_rlrec(4, 4)
        flows = [
            make_flow(0, 0, 5),
            make_flow(1, 1, 6),
            make_flow(2, 4, 2),
            make_flow(3, 0, 15),
            make_flow(4, 12, 3),
            make_flow(5, 5, 0),
        ]
        fs = Flowset(top, flows)
        for f in fs:
            up, de = map(set, fs.split_ring_peers(f.flow_id))
            assert up | de == set(fs.interference_sets(f.flow_id))
            assert up & de == set()


class TestMaxloopOldestFirst:
    def test_unique_destination_has_no_competitors(self):
        fs = single_flow_ring8()
        assert maxloop_oldest_first(fs, 0) == 0

    def test_two_competitors_on_other_rings(self):
        # Three rings meeting at switch 5 of a 3x3 grid; three flows eject there.
        rings = (
            Ring(0, (4, 5, 8, 7)),
            Ring(1, (1, 2, 5, 4)),
            Ring(2, (5, 2, 1, 0, 3, 4)),
        )
        top = NetworkTopology(rows=3, cols=3, rings=rings)
        fs = Flowset(
            top,
            [
                make_flow(0, 4, 5),
                make_flow(1, 1, 5),
                make_flow(2, 0, 5),
            ],
        )
        assert maxloop_oldest_first(fs, 0) == 2
        assert maxloop_oldest_first(fs, 1) == 2
        assert maxloop_oldest_first(fs, 2) == 2

    def test_same_ring_flows_do_not_compete(self):
        top = perimeter_ring8()
        fs = Flowset(top, [make_flow(0, 1, 7), make_flow(1, 2, 7)])
        assert maxloop_oldest_first(fs, 0) == 0
        assert maxloop_oldest_first(fs, 1) == 0

    def test_derived_maxloop_fills_missing_values(self):
        rings = (
            Ring(0, (4, 5, 8, 7)),
            Ring(1, (1, 2, 5, 4)),
        )
        top = NetworkTopology(rows=3, cols=3, rings=rings)
        fs = Flowset(top, [make_flow(0, 4, 5), make_flow(1, 1, 5)])
        assert fs.maxloops[0] == 1
        assert fs.maxloops[1] == 1


class TestFlow:
    """``Flow`` is an immutable named tuple that checks its fields on every
    way of making one."""

    GOOD = Flow(3, 1000, 900, 8, 10, 1, 2, 1)
    # One bad field each, with the message naming it.
    BAD = [
        ({"period": 0}, "flow 3: period must be >= 1"),
        ({"deadline": 0}, r"flow 3: deadline must be in \[1, period\]"),
        ({"deadline": 1001}, r"flow 3: deadline must be in \[1, period\]"),
        ({"length": 0}, "flow 3: length must be >= 1"),
        ({"jitter": -1}, "flow 3: jitter must be >= 0"),
        ({"dst": 1}, "flow 3: src and dst must differ"),
        ({"maxloop": -1}, "flow 3: maxloop must be >= 0"),
    ]

    def test_fields_and_default(self):
        assert Flow._fields == ("flow_id", "period", "deadline", "length",
                                "jitter", "src", "dst", "maxloop")
        assert Flow(0, 10, 10, 1, 0, 0, 1).maxloop is None
        assert isinstance(self.GOOD, tuple)

    @pytest.mark.parametrize("path", ["new", "keywords", "_replace", "_make",
                                      "pickle", "copy"])
    @pytest.mark.parametrize("change,message", BAD)
    def test_every_construction_path_validates(self, path, change, message):
        values = self.GOOD._asdict()
        values.update(change)
        # A tuple laid out as a Flow without passing its checks.
        unchecked = tuple.__new__(Flow, values.values())
        build = {
            "new": lambda: Flow(*values.values()),
            "keywords": lambda: Flow(**values),
            "_replace": lambda: self.GOOD._replace(**change),
            "_make": lambda: Flow._make(values.values()),
            "pickle": lambda: pickle.loads(pickle.dumps(unchecked)),
            "copy": lambda: copy.copy(unchecked),
        }[path]
        with pytest.raises(ModelError, match=f"^{message}$"):
            build()

    def test_valid_round_trips(self):
        f = self.GOOD
        assert pickle.loads(pickle.dumps(f)) == f
        assert type(pickle.loads(pickle.dumps(f))) is Flow
        assert Flow._make(f) == f
        assert type(f._replace(maxloop=None)) is Flow

    def test_immutable_and_hashable(self):
        f = self.GOOD
        with pytest.raises(AttributeError):
            f.period = 5  # type: ignore[misc]
        with pytest.raises(AttributeError):
            f.extra = 5  # type: ignore[attr-defined]
        twin = Flow(3, 1000, 900, 8, 10, 1, 2, 1)
        assert twin == f and twin is not f and hash(twin) == hash(f)
        assert len({f, twin, f._replace(maxloop=2)}) == 2


class TestFlowsetBuild:
    def test_ring_assignment_minimizes_path_length(self):
        # Ring 1 reaches the destination in 2 switches, ring 0 needs 3.
        rings = (
            Ring(0, (0, 1, 4, 3)),
            Ring(1, (0, 3, 4, 1)),
        )
        top = NetworkTopology(rows=2, cols=3, rings=rings)
        fs = Flowset(top, [make_flow(0, 0, 3)])
        assert fs.placement(0).ring == 1

    def test_ring_assignment_tie_breaks_on_lower_id(self):
        rings = (
            Ring(0, (0, 1, 4, 3)),
            Ring(1, (0, 1, 4, 3)),
        )
        top = NetworkTopology(rows=2, cols=3, rings=rings)
        fs = Flowset(top, [make_flow(0, 0, 1)])
        assert fs.placement(0).ring == 0

    @pytest.mark.parametrize("n", range(2, 10))
    def test_route_table_matches_brute_force(self, n):
        top = generate_rlrec(n, n)
        pairs = [(s, d) for s in range(n * n) for d in range(n * n) if s != d]
        fs = Flowset(top, [make_flow(i, s, d) for i, (s, d) in enumerate(pairs)])
        for i, (s, d) in enumerate(pairs):
            walks = {r.ring_id: _walk(r, s, d)
                     for r in top.rings if s in r.switches and d in r.switches}
            ring = min(walks, key=lambda r: (len(walks[r]), r))
            switches = top.rings[ring].switches
            assert fs.placement(i).ring == ring
            assert _path(top, fs.placement(i)) == walks[ring]
            assert top.route(s, d) == (
                ring, switches.index(s), len(walks[ring]) - 1
            )

    @pytest.mark.parametrize("n", range(2, 10))
    def test_route_table_ignores_lookup_order(self, n):
        pairs = [(s, d) for s in range(n * n) for d in range(n * n)]
        shuffled = pairs[:]
        random.Random(f"route-order:{n}").shuffle(shuffled)
        for order in (shuffled, pairs[::-1]):
            top = generate_rlrec(n, n)
            routes = {pair: top.route(*pair) for pair in order}
            for (s, d), route in routes.items():
                walks = {r.ring_id: _walk(r, s, d)
                         for r in top.rings if s in r.switches and d in r.switches}
                ring = min(walks, key=lambda r: (len(walks[r]), r))
                switches = top.rings[ring].switches
                assert route == (
                    ring, switches.index(s), len(walks[ring]) - 1
                ), (s, d)
                assert _path(top, route) == walks[ring], (s, d)

    def test_route_to_self_and_unconnected_pair_after_fill(self):
        top = NetworkTopology(rows=2, cols=4, rings=(
            Ring(0, (0, 1, 2, 3)), Ring(1, (3, 2, 1, 0)), Ring(2, (4, 5, 6, 7)),
        ))
        # The first lookup from switch 1 fills its whole source.
        assert top.route(1, 3) == (0, 1, 2)
        assert _path(top, top.route(1, 3)) == (1, 2, 3)
        assert top.route(1, 0) == (1, 2, 1)
        assert _path(top, top.route(1, 0)) == (1, 0)
        assert top.route(1, 1) == (0, 1, 0)
        assert _path(top, top.route(1, 1)) == (1,)
        assert top.route(1, 6) is None
        assert top.route(6, 1) is None
        assert top.route(6, 6) == (2, 2, 0)
        assert _path(top, top.route(6, 6)) == (6,)

    def test_unconnected_pair_names_the_flow(self):
        top = NetworkTopology(rows=2, cols=4, rings=(
            Ring(0, (0, 1, 2, 3)), Ring(1, (4, 5, 6, 7)),
        ))
        assert top.route(1, 6) is None
        with pytest.raises(ModelError, match="flow 7: no ring connects cores 1 and 6"):
            Flowset(top, [make_flow(3, 0, 2), make_flow(7, 1, 6)])

    def test_buffer_tracks_largest_packet_per_ring(self):
        top = perimeter_ring8()
        fs = Flowset(top, [make_flow(0, 1, 7, length=8), make_flow(1, 2, 3, length=5)])
        assert fs.ring_buffers == {0: 8}

    def test_unconnected_endpoints_rejected(self):
        rings = (Ring(0, (0, 1)),)
        top = NetworkTopology(rows=1, cols=3, rings=rings)
        with pytest.raises(ModelError, match="no ring connects"):
            Flowset(top, [make_flow(0, 0, 2)])

    def test_duplicate_flow_ids_rejected(self):
        top = perimeter_ring8()
        with pytest.raises(ModelError, match="duplicate"):
            Flowset(top, [make_flow(0, 1, 2), make_flow(0, 2, 3)])

    def test_flow_validation(self):
        with pytest.raises(ModelError):
            make_flow(0, 1, 1)  # src == dst
        with pytest.raises(ModelError):
            make_flow(0, 1, 2, period=100, deadline=200)  # deadline > period
        with pytest.raises(ModelError):
            Flow(flow_id=0, period=0, deadline=0, length=1, jitter=0, src=0, dst=1)

    def test_flows_are_kept_as_given(self):
        top = perimeter_ring8()
        flows = [make_flow(0, 1, 7), make_flow(1, 2, 3, maxloop=2)]
        fs = Flowset(top, flows)
        assert fs.flows == tuple(flows)
        assert fs.with_maxloop(1).flows is fs.flows

    def test_with_maxloop_overrides_every_flow(self):
        top = perimeter_ring8()
        fs = Flowset(top, [make_flow(0, 1, 7), make_flow(1, 2, 3)])
        fs2 = fs.with_maxloop(3)
        assert fs2.maxloops == {0: 3, 1: 3}
        assert [fs2.placement(f.flow_id) for f in fs2] == [
            fs.placement(f.flow_id) for f in fs
        ]


@settings(max_examples=50)
@given(data=st.data())
def test_path_endpoints_and_length_on_generated_grids(data):
    n = data.draw(st.integers(2, 5))
    top = generate_rlrec(n, n)
    ring = data.draw(st.sampled_from(top.rings))
    src = data.draw(st.sampled_from(ring.switches))
    dst = data.draw(st.sampled_from([s for s in ring.switches if s != src]))
    route = top.route(src, dst)
    p = _path(top, route)
    assert p[0] == src and p[-1] == dst
    assert 2 <= len(p) <= len(top.rings[route.ring])
    assert p == _walk(top.rings[route.ring], src, dst)
    assert len(p) <= len(_walk(ring, src, dst))


def _reference_index(top: NetworkTopology, flows: list[Flow]):
    """Ring choice, Oldest-First counts, paths, interference sets, their
    (upstream, deflected-only) split and the flows injected at each flow's
    source, each by a direct scan over every ring or every pair of flows."""
    rings = {}
    for f in flows:
        ring = best_len = None
        for r in top.rings:
            if f.src in r.switches and f.dst in r.switches:
                plen = len(_walk(r, f.src, f.dst))
                if ring is None or plen < best_len:
                    ring, best_len = r.ring_id, plen
        rings[f.flow_id] = ring
    competitors = {
        f.flow_id: sum(
            1
            for g in flows
            if g.flow_id != f.flow_id
            and g.dst == f.dst
            and rings[g.flow_id] != rings[f.flow_id]
        )
        for f in flows
    }
    paths = {
        f.flow_id: _walk(top.rings[rings[f.flow_id]], f.src, f.dst) for f in flows
    }
    sets, split, at_src = {}, {}, {}
    for f in flows:
        peers, same_src, upstream, deflected = [], [], [], []
        for g in flows:
            if g.src == f.src:
                same_src.append(g.flow_id)
            if g.flow_id == f.flow_id:
                continue
            if rings[g.flow_id] == rings[f.flow_id]:
                peers.append(g.flow_id)
                if f.src in paths[g.flow_id]:
                    upstream.append(g.flow_id)
                else:
                    deflected.append(g.flow_id)
        sets[f.flow_id] = tuple(peers)
        split[f.flow_id] = (upstream, deflected)
        at_src[f.flow_id] = tuple(same_src)
    return rings, competitors, paths, sets, split, at_src


@st.composite
def indexed_flowsets(draw):
    """Flows on a generated grid, with repeated (src, dst) pairs and some
    explicit maxloops, ids in shuffled order."""
    n = draw(st.integers(2, 7))
    top = generate_rlrec(n, n)
    cores = st.integers(0, n * n - 1)
    pairs = draw(
        st.lists(
            st.tuples(cores, cores).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=8,
        )
    )
    count = draw(st.integers(0, 30))
    ids = draw(st.permutations(range(count)))
    flows = []
    for fid in ids:
        src, dst = draw(st.sampled_from(pairs))
        maxloop = draw(st.one_of(st.none(), st.integers(0, 3)))
        flows.append(
            make_flow(fid, src, dst, length=draw(st.integers(1, 96)),
                      maxloop=maxloop)
        )
    return top, flows


class TestFlowsetIndex:
    @settings(max_examples=150, deadline=None)
    @given(indexed_flowsets())
    def test_index_matches_pairwise_scans(self, case):
        top, flows = case
        fs = Flowset(top, flows)
        rings, competitors, paths, sets, split, at_src = _reference_index(top, flows)
        assert fs.flows == tuple(flows)
        for f in fs:
            ring = rings[f.flow_id]
            switches = top.rings[ring].switches
            assert fs.placement(f.flow_id) == (
                ring, switches.index(f.src), len(paths[f.flow_id]) - 1
            )
            assert _path(top, fs.placement(f.flow_id)) == paths[f.flow_id]
            expected = f.maxloop
            if expected is None:
                expected = competitors[f.flow_id]
            assert fs.maxloops[f.flow_id] == expected
            assert maxloop_oldest_first(fs, f.flow_id) == competitors[f.flow_id]
            assert fs.interference_sets(f.flow_id) == sets[f.flow_id]
            assert fs.split_ring_peers(f.flow_id) == split[f.flow_id]
            assert tuple(fs.injected_at(f.src)) == at_src[f.flow_id]

    @settings(max_examples=60, deadline=None)
    @given(indexed_flowsets(), st.integers(0, 3))
    def test_budget_copy_equals_fresh_build(self, case, k):
        top, flows = case
        fs = Flowset(top, flows)
        copy = fs.with_maxloop(k)
        fresh = Flowset(top, [f._replace(maxloop=k) for f in fs.flows])
        assert copy.flows is fs.flows
        assert copy.maxloops == fresh.maxloops
        assert copy.ring_buffers == fresh.ring_buffers
        for f in fresh:
            fid = f.flow_id
            assert copy.placement(fid) == fresh.placement(fid)
            assert copy.interference_sets(fid) == fresh.interference_sets(fid)
            assert maxloop_oldest_first(copy, fid) == maxloop_oldest_first(fresh, fid)
        # The source flowset keeps its own maxloops.
        assert fs.maxloops == Flowset(top, flows).maxloops

    @settings(max_examples=40, deadline=None)
    @given(indexed_flowsets(), st.data())
    def test_out_of_grid_core_rejected(self, case, data):
        top, flows = case
        outside = top.n_switches + data.draw(st.integers(0, 5))
        inside = data.draw(st.integers(0, top.n_switches - 1))
        bad = data.draw(
            st.sampled_from([(outside, inside), (inside, outside)])
        )
        at = data.draw(st.integers(0, len(flows)))
        field = "src" if bad[0] == outside else "dst"
        message = (f"flow {len(flows)}: {field} core {outside} outside "
                   f"{top.rows}x{top.cols} grid")
        flows = flows[:at] + [make_flow(len(flows), *bad)] + flows[at:]
        with pytest.raises(ModelError, match=f"^{message}$"):
            Flowset(top, flows)

    def test_first_bad_flow_in_flow_order_is_reported(self):
        # Two rings that share no switch: cores 0-3 never reach cores 4-7.
        top = NetworkTopology(rows=2, cols=4, rings=(
            Ring(0, (0, 1, 2, 3)), Ring(1, (4, 5, 6, 7)),
        ))
        defects = [
            (make_flow(0, 1, 3), "duplicate flow id 0"),
            (make_flow(5, 9, 0), "flow 5: src core 9 outside 2x4 grid"),
            (make_flow(6, 1, -1), "flow 6: dst core -1 outside 2x4 grid"),
            (make_flow(7, 1, 6), "flow 7: no ring connects cores 1 and 6"),
        ]
        for order in permutations(defects):
            flows = [make_flow(0, 0, 2)] + [flow for flow, _ in order]
            with pytest.raises(ModelError, match=f"^{order[0][1]}$"):
                Flowset(top, flows)
