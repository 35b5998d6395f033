"""Topology, path, and interference-set behavior.

Expected values for the fixed scenarios were worked out by hand or by the
brute-force helpers defined alongside the tests, then frozen here.
"""
from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_flow, perimeter_ring8, single_flow_ring8
from rlnoc.model import (
    Flow,
    Flowset,
    InterferenceSets,
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


def _pairs_covered(top: NetworkTopology) -> bool:
    # Independent oracle: enumerate every ordered switch pair.
    for a in range(top.n_switches):
        for b in range(top.n_switches):
            if a == b:
                continue
            if not any(a in r and b in r for r in top.rings):
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

    def test_sharing_maps_list_rings_through_each_switch(self):
        top = generate_rlrec(4, 4)
        for s in range(16):
            expected = frozenset(r.ring_id for r in top.rings if s in r)
            assert top.rings_through(s) == expected


class TestPath:
    def test_four_switch_arc_on_perimeter_ring(self):
        fs = single_flow_ring8()
        # src core 1 sits second on the ring, dst core 7 sits fourth.
        assert fs.path_of(0) == (1, 2, 3, 7)
        assert len(fs.path_of(0)) == 4

    def test_adjacent_switches(self):
        top = perimeter_ring8()
        fs = Flowset(top, [make_flow(0, 1, 2)])
        assert fs.path_of(0) == (1, 2)

    def test_wraparound_matches_step_oracle(self):
        top = perimeter_ring8()
        ring = top.rings[0]
        fs = Flowset(top, [make_flow(0, 6, 0)])  # crosses the cyclic seam
        assert fs.path_of(0) == _walk(ring, 6, 0)

    @given(
        src=st.integers(0, 7),
        dst=st.integers(0, 7),
    )
    def test_path_agrees_with_step_oracle_everywhere(self, src, dst):
        ring = perimeter_ring8().rings[0]
        if src == dst:
            assert ring.path(src, dst) == (src,)
        else:
            assert ring.path(src, dst) == _walk(ring, src, dst)


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
        assert c == len(fs.path_of(0)) + 1 + length - 1


class TestInterferenceSets:
    def test_single_flow_has_empty_sets(self):
        fs = single_flow_ring8()
        sets = fs.interference_sets(0)
        assert sets.ring_peers == ()
        assert sets.injection_sharers == ()
        assert sets.upstream == ()
        assert sets.deflected_only == ()

    def test_peer_crossing_source_switch_is_upstream(self):
        top = perimeter_ring8()
        # flow 0: 1 -> 7 (path 1,2,3,7); flow 1: 0 -> 3 passes switch 1.
        fs = Flowset(top, [make_flow(0, 1, 7), make_flow(1, 0, 3)])
        sets = fs.interference_sets(0)
        assert sets.ring_peers == (1,)
        assert sets.upstream == (1,)
        assert sets.deflected_only == ()

    def test_peer_avoiding_source_switch_is_deflected_only(self):
        top = perimeter_ring8()
        # flow 1: 2 -> 3 never crosses switch 1 on its direct path.
        fs = Flowset(top, [make_flow(0, 1, 7), make_flow(1, 2, 3)])
        sets = fs.interference_sets(0)
        assert sets.ring_peers == (1,)
        assert sets.upstream == ()
        assert sets.deflected_only == (1,)

    def test_same_source_switch_shares_injection_link(self):
        top = perimeter_ring8()
        fs = Flowset(top, [make_flow(0, 1, 7), make_flow(1, 1, 3)])
        assert fs.interference_sets(0).injection_sharers == (1,)
        assert fs.interference_sets(1).injection_sharers == (0,)

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
            sets = fs.interference_sets(f.flow_id)
            up, de = set(sets.upstream), set(sets.deflected_only)
            assert up | de == set(sets.ring_peers)
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


class TestFlowsetBuild:
    def test_ring_assignment_minimizes_path_length(self):
        # Ring 1 reaches the destination in 2 switches, ring 0 needs 3.
        rings = (
            Ring(0, (0, 1, 4, 3)),
            Ring(1, (0, 3, 4, 1)),
        )
        top = NetworkTopology(rows=2, cols=3, rings=rings)
        fs = Flowset(top, [make_flow(0, 0, 3)])
        assert fs.ring_of(0).ring_id == 1

    def test_ring_assignment_tie_breaks_on_lower_id(self):
        rings = (
            Ring(0, (0, 1, 4, 3)),
            Ring(1, (0, 1, 4, 3)),
        )
        top = NetworkTopology(rows=2, cols=3, rings=rings)
        fs = Flowset(top, [make_flow(0, 0, 1)])
        assert fs.ring_of(0).ring_id == 0

    def test_buffer_tracks_largest_packet_per_ring(self):
        top = perimeter_ring8()
        fs = Flowset(top, [make_flow(0, 1, 7, length=8), make_flow(1, 2, 3, length=5)])
        assert fs.ring_buffers[0] == 8
        assert fs.buffer_of(0) == 8

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
        assert [fs2.ring_of(f.flow_id) for f in fs2] == [
            fs.ring_of(f.flow_id) for f in fs
        ]


@settings(max_examples=50)
@given(data=st.data())
def test_path_endpoints_and_length_on_generated_grids(data):
    n = data.draw(st.integers(2, 5))
    top = generate_rlrec(n, n)
    ring = data.draw(st.sampled_from(top.rings))
    src = data.draw(st.sampled_from(ring.switches))
    dst = data.draw(st.sampled_from([s for s in ring.switches if s != src]))
    p = ring.path(src, dst)
    assert p[0] == src and p[-1] == dst
    assert 2 <= len(p) <= len(ring)
    assert p == _walk(ring, src, dst)


def _reference_index(top: NetworkTopology, flows: list[Flow]):
    """Ring choice, Oldest-First counts, paths and interference sets, each
    by a direct scan over every ring or every pair of flows."""
    rings = {}
    for f in flows:
        ring = best_len = None
        for r in top.rings:
            if f.src in r and f.dst in r:
                plen = len(r.path(f.src, f.dst))
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
        f.flow_id: top.rings[rings[f.flow_id]].path(f.src, f.dst) for f in flows
    }
    sets = {}
    for f in flows:
        peers, sharers, upstream, deflected = [], [], [], []
        for g in flows:
            if g.flow_id == f.flow_id:
                continue
            if g.src == f.src:
                sharers.append(g.flow_id)
            if rings[g.flow_id] == rings[f.flow_id]:
                peers.append(g.flow_id)
                if f.src in paths[g.flow_id]:
                    upstream.append(g.flow_id)
                else:
                    deflected.append(g.flow_id)
        sets[f.flow_id] = InterferenceSets(
            tuple(peers), tuple(sharers), tuple(upstream), tuple(deflected)
        )
    return rings, competitors, paths, sets


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
        rings, competitors, paths, sets = _reference_index(top, flows)
        assert fs.flows == tuple(flows)
        for f in fs:
            assert fs.ring_of(f.flow_id).ring_id == rings[f.flow_id]
            expected = f.maxloop
            if expected is None:
                expected = competitors[f.flow_id]
            assert fs.maxloops[f.flow_id] == expected
            assert maxloop_oldest_first(fs, f.flow_id) == competitors[f.flow_id]
            assert fs.src_switch(f.flow_id) == f.src
            assert fs.dst_switch(f.flow_id) == f.dst
            assert fs.path_of(f.flow_id) == paths[f.flow_id]
            assert fs.interference_sets(f.flow_id) == sets[f.flow_id]

    @settings(max_examples=60, deadline=None)
    @given(indexed_flowsets(), st.integers(0, 3))
    def test_budget_copy_equals_fresh_build(self, case, k):
        top, flows = case
        fs = Flowset(top, flows)
        copy = fs.with_maxloop(k)
        fresh = Flowset(top, [replace(f, maxloop=k) for f in fs.flows])
        assert copy.flows is fs.flows
        assert copy.maxloops == fresh.maxloops
        assert copy.ring_buffers == fresh.ring_buffers
        for f in fresh:
            fid = f.flow_id
            assert copy.ring_of(fid) == fresh.ring_of(fid)
            assert copy.path_of(fid) == fresh.path_of(fid)
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
        flows = flows[:at] + [make_flow(len(flows), *bad)] + flows[at:]
        with pytest.raises(ModelError, match="outside grid"):
            Flowset(top, flows)
