"""Cycle-accurate simulator: frozen hand-traced scenarios and properties.

Every fixed number below (latencies, injection cycles, hop counts, violation
counts) was walked through by hand on the ring diagrams before the simulator
ran, then frozen.  Scenario tests run with protocol_check=True so per-cycle
flit conservation is asserted throughout.
"""
from __future__ import annotations

import random

import pytest

import rlnoc.cli as cli
import rlnoc.sim as sim
from conftest import make_flow, multi_ring_2x4, perimeter_ring8, single_flow_ring8
from rlnoc.analysis import ProtocolMode, analyze
from rlnoc.files import load_flowset
from rlnoc.model import (
    Flow,
    Flowset,
    ModelError,
    NetworkTopology,
    Ring,
    generate_rlrec,
    maxloop_oldest_first,
)
from rlnoc.sim import (
    SimInvariantError,
    _Simulator,
    default_horizon,
    periodic,
    periodic_with_jitter,
    run,
    sporadic,
    synchronous,
)

BASE = ProtocolMode.BASELINE
PROP = ProtocolMode.PROPOSED


def _explicit(times: dict[int, list[int]]):
    """Fixed release lists keyed by flow id; flows not listed never release."""

    def pattern(flow, horizon, seed):
        return [t for t in times.get(flow.flow_id, []) if t < horizon]

    return pattern


def _summary(trace):
    return [
        (r.flow_id, r.seq, r.release, r.inject_start, r.eject_end, r.deflections,
         r.dropped)
        for r in trace.records
    ]


def _latencies(trace):
    return {(r.flow_id, r.seq): r.latency for r in trace.records}


def _both(flowset, pattern, horizon, **kw):
    """Both modes, each simulated on its own flowset object.

    A second run of one object replays the first's busy periods without a
    deflection, so comparing the modes needs two objects.
    """
    base = run(flowset, BASE, pattern=pattern, horizon=horizon,
               protocol_check=True, **kw)
    prop = run(Flowset(flowset.topology, flowset.flows), PROP,
               pattern=pattern, horizon=horizon, protocol_check=True, **kw)
    return base, prop


class TestNoLoad:
    def test_single_flow_latency_is_no_load_latency(self):
        fs = single_flow_ring8(length=8)
        trace = run(fs, BASE, pattern=periodic, horizon=3000,
                    protocol_check=True)
        # path (1,2,3,7) -> C = 4 + 8 = 12, every packet, no deflections
        assert len(trace.records) == 3
        assert all(r.latency == 12 for r in trace.records)
        assert all(r.deflections == 0 for r in trace.records)
        assert trace.max_latency == {0: 12}
        # per packet: 8 injections (2 hops each) + 2 forwards + ejection
        assert trace.flit_hops == 3 * (8 * 2 + 8 * 2 + 8)

    def test_modes_identical_without_contention(self):
        fs = single_flow_ring8(length=8)
        base, prop = _both(fs, periodic, 3000)
        assert _summary(base) == _summary(prop)
        assert base.flit_hops == prop.flit_hops

    def test_offset_releases_after_idle_gap(self):
        # fast-forward over dead cycles must not disturb timing
        fs = single_flow_ring8(length=8)
        trace = run(fs, BASE, pattern=_explicit({0: [100_000, 200_000, 300_000]}),
                    horizon=400_000, protocol_check=True)
        assert [r.release for r in trace.records] == [100_000, 200_000, 300_000]
        assert all(r.latency == 12 for r in trace.records)

    def test_empty_flowset_empty_trace(self):
        fs = Flowset(perimeter_ring8(), [])
        trace = run(fs, BASE, horizon=100)
        assert trace.records == ()
        assert trace.max_latency == {}
        assert trace.flit_hops == 0


class TestOldestFirst:
    """Two packets reach one ejection link on the same cycle."""

    def _pair(self):
        top = multi_ring_2x4()
        flows = [
            make_flow(0, 3, 6, length=2),  # ring 0, arrives dst at cycle 3
            make_flow(1, 2, 6, length=2),  # ring 1, same arrival when sent at 1
        ]
        return Flowset(top, flows)

    def test_older_injection_wins_younger_deflects_once(self):
        fs = self._pair()
        pattern = _explicit({0: [0], 1: [1]})
        base, prop = _both(fs, pattern, 64)
        for trace in (base, prop):
            lat = _latencies(trace)
            assert lat[(0, 0)] == 5  # C = 3 + 2, untouched
            assert lat[(1, 0)] == 8  # C = 4 plus one 4-switch loop
            defl = {r.flow_id: r.deflections for r in trace.records}
            assert defl == {0: 0, 1: 1}
            assert trace.retention_violations == 0

    def test_deflected_packet_ejects_at_same_cycle_in_both_modes(self):
        fs = self._pair()
        base, prop = _both(fs, _explicit({0: [0], 1: [1]}), 64)
        assert _summary(base) == _summary(prop)

    def test_header_only_deflection_reduces_hops(self):
        fs = self._pair()
        base, prop = _both(fs, _explicit({0: [0], 1: [1]}), 64)
        assert base.flit_hops == 22
        # payload flit skips the loop: saves (L-1)*(r-(|path|-1)) = 1*3 hops
        assert prop.flit_hops == 19

    def test_tie_on_timestamp_breaks_by_lower_ring_id(self):
        top = multi_ring_2x4()
        flows = [
            make_flow(0, 6, 5, length=2),  # ring 0 (tie with ring 1 on |path|)
            make_flow(1, 1, 5, length=2),  # ring 2, length == ring length
        ]
        fs = Flowset(top, flows)
        assert fs.placement(0).ring == 0 and fs.placement(1).ring == 2
        base, prop = _both(fs, _explicit({0: [0], 1: [0]}), 64)
        for trace in (base, prop):
            lat = _latencies(trace)
            assert lat[(0, 0)] == 4  # wins the tie
            assert lat[(1, 0)] == 6  # one loop of the 2-switch ring
        assert _summary(base) == _summary(prop)

    def test_reservation_holds_link_for_looping_packet(self):
        # third flow arrives while the deflected one loops: the free link is
        # still denied to it because an older reservation is pending
        top = multi_ring_2x4()
        flows = [
            make_flow(0, 3, 6, length=2),
            make_flow(1, 2, 6, length=2),
            make_flow(2, 7, 6, length=2),
        ]
        fs = Flowset(top, flows)
        pattern = _explicit({0: [0], 1: [1], 2: [3]})
        base, prop = _both(fs, pattern, 64)
        for trace in (base, prop):
            by_flow = {r.flow_id: r for r in trace.records}
            # release 3, but an incoming flit blocks the injection one cycle
            assert by_flow[2].inject_start == 4
            lat = _latencies(trace)
            assert lat[(0, 0)] == 5
            assert lat[(1, 0)] == 8
            assert lat[(2, 0)] == 13  # denied at 6 despite idle link
            defl = {r.flow_id: r.deflections for r in trace.records}
            assert defl == {0: 0, 1: 1, 2: 1}
        assert _summary(base) == _summary(prop)
        assert base.flit_hops == 44
        assert prop.flit_hops == 34  # saves 3 on ring 1 and 7 on ring 0

    def test_observed_deflections_within_derived_maxloop(self):
        top = multi_ring_2x4()
        flows = [
            make_flow(0, 3, 6, length=2),
            make_flow(1, 2, 6, length=2),
            make_flow(2, 7, 6, length=2),
        ]
        fs = Flowset(top, flows)
        trace = run(fs, BASE, pattern=_explicit({0: [0], 1: [1], 2: [3]}),
                    horizon=64, protocol_check=True)
        for rec in trace.records:
            assert rec.deflections <= maxloop_oldest_first(fs, rec.flow_id)


class TestInjectionQueue:
    """Same-source flows share the injection link; buffer outranks injection."""

    def _flowset(self):
        top = perimeter_ring8()
        flows = [
            make_flow(0, 1, 7, length=8),
            make_flow(1, 1, 6, length=4),
            make_flow(2, 0, 4, length=4),
        ]
        return Flowset(top, flows)

    def test_stream_buffer_then_injection_order(self):
        fs = self._flowset()
        pattern = _explicit({0: [0], 1: [0], 2: [0]})
        base, prop = _both(fs, pattern, 128)
        for trace in (base, prop):
            by_flow = {r.flow_id: r for r in trace.records}
            assert by_flow[0].inject_start == 0
            assert by_flow[2].inject_start == 0  # different switch, no clash
            # flow 1 waits for flow 0's stream, then for flow 2's buffered
            # packet to drain (buffer has priority over injection)
            assert by_flow[1].inject_start == 13
            lat = _latencies(trace)
            assert lat[(0, 0)] == 12  # head of queue, undisturbed
            assert lat[(2, 0)] == 19  # C=12 plus 7 cycles buffered at switch 1
            assert lat[(1, 0)] == 22
            assert all(r.deflections == 0 for r in trace.records)
        assert _summary(base) == _summary(prop)
        assert base.flit_hops == prop.flit_hops


class TestHeaderOnlyPacket:
    def test_single_flit_packets_behave_identically(self):
        # L == H == 1: there is no payload to discard, modes coincide
        top = multi_ring_2x4()
        flows = [make_flow(0, 3, 6, length=1), make_flow(1, 2, 6, length=1)]
        fs = Flowset(top, flows)
        base, prop = _both(fs, _explicit({0: [0], 1: [1]}), 64)
        assert _summary(base) == _summary(prop)
        assert base.flit_hops == prop.flit_hops == 11
        lat = _latencies(base)
        assert lat[(0, 0)] == 4
        assert lat[(1, 0)] == 7


class TestRetentionViolation:
    """Backlogged releases evict retained payloads; drops are recorded."""

    def _flowset(self):
        top = multi_ring_2x4()
        flows = [
            make_flow(0, 3, 6, length=8),            # long ejection on ring 0
            make_flow(1, 2, 6, length=2, period=4),  # saturated, ring 1
        ]
        return Flowset(top, flows)

    def _pattern(self):
        return _explicit({0: [0], 1: list(range(1, 40, 4))})

    def test_analysis_flags_the_input_unschedulable(self):
        assert not analyze(self._flowset(), BASE).schedulable

    def test_proposed_drops_headers_whose_payload_was_evicted(self):
        trace = run(self._flowset(), PROP, pattern=self._pattern(), horizon=64,
                    protocol_check=True)
        assert trace.retention_violations == 2
        dropped = {(r.flow_id, r.seq) for r in trace.records if r.dropped}
        assert dropped == {(1, 0), (1, 1)}
        # once the blocking ejection ends, later packets go through clean
        lat = _latencies(trace)
        for seq in range(2, 10):
            assert lat[(1, seq)] == 4
        assert lat[(0, 0)] == 11

    def test_queued_release_evicts_retained_payload(self):
        # Flow 1's first packet is deflected at switch 6 (flow 0 is older)
        # and its header loops ring 1 back to switch 2 at cycle 5.  Flow 2
        # holds switch 2's injection link over cycles 3-10, so flow 1's next
        # packet, released at 4, is still queued when that header returns.
        # The release alone evicted the retained payload: the header drops.
        top = multi_ring_2x4()
        flows = [
            make_flow(0, 3, 6, length=8),
            make_flow(1, 2, 6, length=2),
            make_flow(2, 2, 3, length=8),
        ]
        fs = Flowset(top, flows)
        pattern = _explicit({0: [0], 1: [1, 4], 2: [2]})
        trace = run(fs, PROP, pattern=pattern, horizon=64, protocol_check=True)
        by_pkt = {(r.flow_id, r.seq): r for r in trace.records}
        assert by_pkt[(2, 0)].inject_start == 3
        assert by_pkt[(1, 1)].inject_start == 11
        assert trace.retention_violations == 1
        assert {pkt for pkt, r in by_pkt.items() if r.dropped} == {(1, 0)}
        assert by_pkt[(1, 0)].deflections == 1
        assert by_pkt[(1, 0)].eject_end is None

    def test_baseline_never_consults_retention(self):
        trace = run(self._flowset(), BASE, pattern=self._pattern(), horizon=128,
                    protocol_check=True)
        assert trace.retention_violations == 0
        assert not any(r.dropped for r in trace.records)
        assert sum(r.deflections for r in trace.records) >= 2


class TestReInjectionBuffer:
    """Known defect, frozen until the protocol or the bounds change.

    Ring buffers hold as many flits as the longest packet on the ring (4
    here).  At switch 3 the buffer already holds another flow's packet and a
    header when a retained payload streams out behind its returning header,
    which pushes a fifth flit in.  The analysis accepts this flowset under
    the proposed protocol, and baseline mode runs it clean.
    """

    @pytest.mark.xfail(strict=True, raises=SimInvariantError,
                       reason="buffer overflow at switch 3 ring 0")
    def test_schedulable_flowset_overflows_under_re_injection(self, tmp_path):
        path = tmp_path / "fs.json"
        assert cli.main([
            "gen-flowset", "--grid", "4", "--flows", "30", "--packet-range",
            "2-4", "--seed", "13", "--out", str(path),
        ]) == 0
        fs = load_flowset(str(path))
        assert analyze(fs, PROP).schedulable
        run(fs, BASE, pattern=synchronous, horizon=20_000,
            protocol_check=True)
        run(fs, PROP, pattern=synchronous, horizon=20_000)


def _randint_periodic_with_jitter(flow, horizon, seed):
    """The jitter pattern as drawn through ``randint``: the oracle."""
    rng = random.Random(f"{seed}:PeriodicWithJitter:{flow.flow_id}")
    out, n, last = [], 0, 0
    while True:
        t = n * flow.period + rng.randint(0, flow.jitter)
        t = max(t, last)
        if t >= horizon:
            return out
        out.append(t)
        last = t
        n += 1


def _randint_sporadic(flow, horizon, seed):
    """The sporadic pattern as drawn through ``randint``: the oracle."""
    rng = random.Random(f"{seed}:Sporadic:{flow.flow_id}")
    out = []
    t = rng.randint(0, flow.period)
    while t < horizon:
        out.append(t)
        t += flow.period + rng.randint(0, flow.period)
    return out


def _offsets(offsets: dict[int, int]):
    """Release 0 of flow i at ``offsets[i]``, release n at offset + nT - J."""

    def pattern(flow, horizon, seed):
        first = offsets[flow.flow_id]
        times = [first] + [first + n * flow.period - flow.jitter
                           for n in range(1, horizon // flow.period + 2)]
        return [t for t in times if t < horizon]

    return pattern


class TestOldestFirstBudget:
    """Known defect, frozen until the deflection budget changes.

    Four flows to core 2 on the 3x3 grid, T = D = 72 each, with derived
    budgets {0: 1, 1: 3, 2: 1, 3: 1}.  The analysis accepts the flowset in
    both modes, yet flow 2's first packet is deflected twice in both modes
    (latency 23, bound 51): the Oldest-First count is not a bound.
    """

    def _flowset(self):
        spec = [(3, 0, 3), (2, 0, 4), (3, 24, 1), (2, 0, 0)]  # (L, J, src)
        return Flowset(generate_rlrec(3, 3), [
            Flow(fid, 72, 72, length, jitter, src, 2)
            for fid, (length, jitter, src) in enumerate(spec)
        ])

    def test_analysis_accepts_the_flowset(self):
        fs = self._flowset()
        assert analyze(fs, BASE).schedulable
        assert analyze(fs, PROP).schedulable

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP direction 2: flow 2 is deflected "
                              "twice on a budget of 1")
    def test_no_packet_deflected_beyond_its_budget(self):
        over = []
        for mode in (BASE, PROP):
            fs = self._flowset()
            trace = run(fs, mode, pattern=_offsets({0: 0, 1: 0, 2: 4, 3: 4}),
                        horizon=288, protocol_check=True)
            over += [(mode, r.flow_id, r.seq, r.deflections)
                     for r in trace.records
                     if r.deflections > fs.maxloops[r.flow_id]]
        assert over == []


class TestBoundFlagging:
    def test_delivered_over_bound_flagged(self):
        fs = single_flow_ring8(length=8)
        pattern = _explicit({0: [0]})
        ok = run(fs, BASE, pattern=pattern, horizon=30, bounds={0: 12})
        late = run(fs, BASE, pattern=pattern, horizon=30, bounds={0: 11})
        assert ok.bound_violations == 0
        assert late.bound_violations == 1
        assert ok.violated == () and late.violated == (0,)

    def test_undelivered_within_measurable_window_flagged(self):
        fs = single_flow_ring8(length=8)
        pattern = _explicit({0: [0]})
        cut = run(fs, BASE, pattern=pattern, horizon=10, bounds={0: 9})
        assert cut.records[0].eject_end is None
        assert cut.bound_violations == 1
        # bound larger than the window: lateness cannot be concluded
        open_ = run(fs, BASE, pattern=pattern, horizon=10, bounds={0: 12})
        assert open_.bound_violations == 0


class TestPreconditions:
    def test_packet_longer_than_ring_with_competitor_rejected(self):
        top = multi_ring_2x4()
        # The perimeter ring plus (1, 5), the only short ring both ways.
        pair = NetworkTopology(
            rows=2, cols=4, rings=(top.rings[0], Ring(1, (1, 5)))
        )
        cases = [
            # Ejection competitor: destination 5 shared from another ring.
            (top, [
                make_flow(0, 6, 5, length=2),
                make_flow(1, 1, 5, length=3),  # ring 2 has only 2 switches
            ]),
            # Ring peer with a different destination, no shared ejection.
            (pair, [
                make_flow(0, 1, 5, length=3),
                make_flow(1, 5, 1, length=2),
            ]),
        ]
        for topology, flows in cases:
            fs = Flowset(topology, flows)
            with pytest.raises(ModelError, match="exceeds its ring"):
                run(fs, BASE, horizon=100)

    def test_packet_longer_than_ring_without_competitor_runs(self):
        top = multi_ring_2x4()
        fs = Flowset(top, [make_flow(0, 1, 5, length=5)])
        trace = run(fs, BASE, pattern=_explicit({0: [0]}), horizon=64,
                    protocol_check=True)
        assert _latencies(trace)[(0, 0)] == 7  # C = 2 + 5, never deflected

    def test_nonpositive_horizon_rejected(self):
        fs = single_flow_ring8()
        with pytest.raises(ModelError):
            run(fs, BASE, horizon=0)


class TestReleasePatterns:
    def test_synchronous_pulls_releases_in_by_jitter(self):
        flow = make_flow(0, 1, 7, period=10, jitter=25)
        times = synchronous(flow, 30, "s")
        assert times == [0, 0, 0, 5, 15, 25]

    def test_periodic_offset(self):
        # Releases start at 0, the synchronous critical instant's origin.
        flow = make_flow(0, 1, 7, period=10)
        assert periodic(flow, 30, "s") == [0, 10, 20]

    def test_periodic_with_jitter_windows(self):
        flow = make_flow(0, 1, 7, period=10, jitter=50)
        times = periodic_with_jitter(flow, 400, "seed-a")
        assert times == periodic_with_jitter(flow, 400, "seed-a")
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))
        for n, t in enumerate(times):
            assert n * 10 <= t <= n * 10 + 50

    def test_sporadic_min_gap_is_period(self):
        flow = make_flow(0, 1, 7, period=10)
        times = sporadic(flow, 500, "seed-b")
        assert times == sporadic(flow, 500, "seed-b")
        assert all(t2 - t1 >= 10 for t1, t2 in zip(times, times[1:]))
        assert 0 <= times[0] <= 10

    @pytest.mark.parametrize("period", [1, 2, 3, 7, 10, 64, 100, 1000])
    def test_draws_match_randint_oracle(self, period):
        # 53 (flow, pattern) cases x 25 seeds: 1,325 draws, with J = 0,
        # J >= T and T = 1 among them.
        for jitter in sorted({0, 1, period - 1, period, period + 1,
                              2 * period + 3}):
            flow = make_flow(0, 1, 7, period=period, jitter=jitter)
            for seed in range(25):
                assert periodic_with_jitter(flow, 600, str(seed)) == \
                    _randint_periodic_with_jitter(flow, 600, str(seed))
        for seed in range(25):
            flow = make_flow(3, 1, 7, period=period)
            assert sporadic(flow, 600, f"s{seed}") == \
                _randint_sporadic(flow, 600, f"s{seed}")

    def test_two_runs_draw_the_schedule_once(self):
        top = multi_ring_2x4()
        fs = Flowset(top, [make_flow(0, 3, 6, length=2, period=20, jitter=9),
                           make_flow(1, 2, 6, length=2, period=30, jitter=4)])
        drawn = []

        def pattern(flow, horizon, seed):
            drawn.append(flow.flow_id)
            return periodic_with_jitter(flow, horizon, seed)

        first = run(fs, BASE, pattern=pattern, horizon=500, seed="s")
        second = run(fs, PROP, pattern=pattern, horizon=500, seed="s")
        assert sorted(drawn) == [0, 1]
        assert [(r.flow_id, r.seq, r.release) for r in first.records] == \
            [(r.flow_id, r.seq, r.release) for r in second.records]
        # Another seed or horizon is another schedule.
        run(fs, BASE, pattern=pattern, horizon=500, seed="t")
        run(fs, BASE, pattern=pattern, horizon=400, seed="t")
        assert sorted(drawn) == [0, 0, 0, 1, 1, 1]

    def test_default_horizon(self):
        top = perimeter_ring8()
        fs = Flowset(top, [make_flow(0, 1, 7, period=500),
                           make_flow(1, 0, 4, period=300)])
        assert default_horizon(fs) == 2 * 500 * 2
        big = Flowset(top, [make_flow(0, 1, 7, period=600_000),
                            make_flow(1, 0, 4, period=600_000)])
        assert default_horizon(big) == 2_000_000
        assert default_horizon(Flowset(top, [])) == 1


class TestPortNumbering:
    @pytest.mark.parametrize("grid", range(2, 10))
    def test_next_port_walks_each_ring_in_order(self, grid):
        top = generate_rlrec(grid, grid)
        rng = random.Random(f"{grid}:ports")
        flows = []
        for fid in range(2 * grid):
            src, dst = rng.sample(range(grid * grid), 2)
            flows.append(make_flow(fid, src, dst, length=rng.randint(1, 4)))
        fs = Flowset(top, flows)
        sim = _Simulator(fs, BASE, None, False)
        assert len(sim.next_port) == sum(len(r) for r in top.rings)
        for ring in top.rings:
            base = sim.ring_base[ring.ring_id]
            port = base
            for switch in ring.switches:
                assert sim.port_switch[port] == switch
                assert sim.port_ring[port] == ring.ring_id
                assert sim.port_cap[port] == fs.ring_buffers[ring.ring_id]
                port = sim.next_port[port]
            assert port == base


def _random_schedulable(seed: int):
    """Random small flowset on the 4x4 grid that the analysis accepts.

    Kept within the regime the deflection-count argument covers: distinct
    (ring, destination-switch) pairs, packets no longer than their ring,
    zero jitter.  Returns None when the draw is invalid or unschedulable.
    """
    rng = random.Random(f"{seed}:sim-corpus")
    top = generate_rlrec(4, 4)
    n = rng.randint(2, 4)
    flows = []
    pairs = rng.sample([(s, d) for s in range(16) for d in range(16) if s != d],
                       n)
    for fid, (src, dst) in enumerate(pairs):
        flows.append(make_flow(fid, src, dst, period=rng.randint(300, 3000),
                               length=rng.randint(2, 8)))
    try:
        fs = Flowset(top, flows)
    except ModelError:
        return None
    seen = set()
    for f in fs:
        ring = fs.placement(f.flow_id).ring
        key = (ring, f.dst)
        if key in seen or f.length > len(top.rings[ring]):
            return None
        seen.add(key)
    report = analyze(fs, BASE)
    if not report.schedulable:
        return None
    return fs, report


class TestBoundConsistency:
    """Simulated latencies stay within analytic bounds on schedulable inputs."""

    def test_random_schedulable_flowsets_respect_bounds(self):
        checked = 0
        seed = 0
        while checked < 10 and seed < 200:
            drawn = _random_schedulable(seed)
            seed += 1
            if drawn is None:
                continue
            fs, base_report = drawn
            checked += 1
            prop_report = analyze(fs, PROP)
            for mode, report in ((BASE, base_report), (PROP, prop_report)):
                bounds = {fa.flow_id: fa.bound for fa in report.flows}
                trace = run(fs, mode, pattern=synchronous,
                            bounds=bounds, protocol_check=True)
                assert trace.bound_violations == 0, (seed - 1, mode)
                assert trace.retention_violations == 0
                for rec in trace.records:
                    assert rec.deflections <= maxloop_oldest_first(
                        fs, rec.flow_id
                    )
        assert checked == 10


def _replay_draw(seed: int):
    """An overloaded hotspot flowset: 2x2 to 4x4, 3-12 flows of 1-4 flits
    to 1-3 shared destinations, periods 6-80, jitter 0 or T/3."""
    rng = random.Random(f"{seed}:replay-corpus")
    grid = rng.randint(2, 4)
    cores = range(grid * grid)
    hot = rng.sample(cores, rng.randint(1, 3))
    flows = []
    for fid in range(rng.randint(3, 12)):
        dst = rng.choice(hot)
        src = rng.choice([c for c in cores if c != dst])
        period = rng.randint(6, 80)
        flows.append(Flow(fid, period, period, rng.randint(1, 4),
                          rng.choice((0, period // 3)), src, dst))
    return generate_rlrec(grid, grid), flows


def _run_or_error(fs, mode, pattern, horizon=400, check=True):
    """The trace of one run, or the message of its invariant error."""
    bounds = {f.flow_id: f.period // (2 if mode is PROP else 1) for f in fs}
    try:
        return run(fs, mode, pattern=pattern, horizon=horizon, seed="r",
                   bounds=bounds, protocol_check=check)
    except SimInvariantError as err:
        return str(err)


def _fields(out):
    """Every field of a trace that a run computes, or the error message."""
    if isinstance(out, str):
        return out
    return (
        [(r.flow_id, r.seq, r.release, r.inject_start, r.eject_end,
          r.deflections, r.dropped) for r in out.records],
        out.flit_hops, out.retention_violations, out.bound_violations,
        out.violated, out.per_flow(), dict(out.max_latency),
        dict(out.max_deflections),
    )


class _Forgetful(dict):
    """A memo root that finds nothing, though periods are logged in it."""

    def get(self, key, default=None):
        return None


class _NoMemo:
    """Stands in for ``sim._PERIODS``: every run draws its schedule anew and
    finds no logged period, so it simulates every busy period."""

    def setdefault(self, flowset, default):
        return [None, None, _Forgetful()]


def _never_replayed(monkeypatch, fs, mode, pattern, horizon, check):
    """``_run_or_error`` with no memo: every busy period is simulated."""
    with monkeypatch.context() as m:
        m.setattr(sim, "_PERIODS", _NoMemo())
        return _run_or_error(fs, mode, pattern, horizon, check)


def _shared(a, b):
    """Record objects that two traces hold both."""
    return {id(r) for r in a.records} & {id(r) for r in b.records}


class _Made:
    """Notes each record the simulator makes at a release (not by replay),
    with the number, mode and ``protocol_check`` of the run that made it."""

    def __init__(self, monkeypatch):
        self.kept = []  # every record noted, so that no id is reused
        self.by_id = {}  # id(record) -> (run, mode, check)
        self.now = (0, None, None)  # (run, mode, check) of the current run
        made = self

        class Packet(sim._Packet):
            __slots__ = ()

            def __init__(self, record, facts):
                super().__init__(record, facts)
                made.kept.append(record)
                made.by_id[id(record)] = made.now

        monkeypatch.setattr(sim, "_Packet", Packet)


class TestBusyPeriodReplay:
    """Each busy period is simulated once per flowset object and replayed
    where its relative releases recur; every run must equal a run that
    never replays."""

    PATTERNS = (synchronous, periodic, periodic_with_jitter, sporadic)
    HORIZONS = (250, 400)

    def test_replayed_runs_match_fresh_runs(self, monkeypatch):
        made = _Made(monkeypatch)
        seen = dict.fromkeys(("cross-mode", "deflected", "shifted", "cut",
                              "dropped", "overflow"), 0)
        runs = 0
        for seed in range(12):
            top, flows = _replay_draw(seed)
            rng = random.Random(f"{seed}:shift")
            jitter = {f.flow_id: periodic_with_jitter(f, 400, "r")
                      for f in flows}
            shifted = []
            for _ in range(2):
                s = rng.randint(1, 500)
                shifted.append(_explicit(
                    {fid: [t + s for t in ts] for fid, ts in jitter.items()}))
            # One object across every pattern, horizon, check and order:
            # a period is replayed wherever its relative releases recur.
            shared = Flowset(top, flows)
            for pattern in self.PATTERNS + tuple(shifted):
                for horizon in self.HORIZONS:
                    made.now = 0, None, None
                    fresh = {(mode, check): _fields(_never_replayed(
                        monkeypatch, shared, mode, pattern, horizon, check))
                        for check in (False, True) for mode in (BASE, PROP)}
                    for check in (False, True):
                        for order in ((BASE, PROP), (PROP, BASE)):
                            for mode in order:
                                runs += 1
                                made.now = runs, mode, check
                                out = _run_or_error(shared, mode, pattern,
                                                    horizon, check)
                                assert _fields(out) == fresh[mode, check], (
                                    seed, pattern, horizon, check, mode)
                                self._tally(seen, made, out, runs, mode,
                                            check)
        assert all(seen.values()), seen

    def test_checked_run_replays_no_unchecked_period(self, monkeypatch):
        top, flows = _replay_draw(0)
        fs = Flowset(top, flows)
        pattern = periodic_with_jitter
        unchecked = _run_or_error(fs, BASE, pattern, check=False)
        checked = _run_or_error(fs, PROP, pattern)
        assert not _shared(unchecked, checked)
        assert _fields(checked) == _fields(_never_replayed(
            monkeypatch, fs, PROP, pattern, 400, True))
        # An unchecked run may take what a checked run simulated.
        again = _run_or_error(fs, BASE, pattern, check=False)
        assert _shared(checked, again)
        assert _fields(again) == _fields(unchecked)

    @staticmethod
    def _tally(seen, made, out, run_no, mode, check):
        """Count what the run reached; check the rules that its shared
        record objects show."""
        if isinstance(out, str):
            seen["overflow"] += out.startswith("buffer overflow")
            return
        seen["dropped"] += out.retention_violations > 0
        seen["cut"] += any(r.eject_end is None and not r.dropped
                           for r in out.records)
        for rec in out.records:
            by_run, by, checked = made.by_id.get(id(rec), (0, None, None))
            if by_run == run_no:
                continue  # simulated by this run
            seen["deflected"] += rec.deflections > 0
            if by is None:  # a shifted copy of a logged period
                seen["shifted"] += 1
                continue
            # The record object itself: the same schedule at the same start.
            assert checked or not check, (
                "a checked run replayed an unchecked period")
            assert by == mode or not rec.deflections, (
                "a deflected period crossed modes")
            seen["cross-mode"] += by != mode
