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
from conftest import make_flow, multi_ring_2x4, perimeter_ring8, single_flow_ring8
from rlnoc.analysis import ProtocolMode, analyze
from rlnoc.files import load_flowset
from rlnoc.model import Flowset, ModelError, generate_rlrec, maxloop_oldest_first
from rlnoc.sim import (
    Periodic,
    PeriodicWithJitter,
    ReleasePattern,
    SimInvariantError,
    Sporadic,
    Synchronous,
    default_horizon,
    run,
)

BASE = ProtocolMode.BASELINE
PROP = ProtocolMode.PROPOSED


class _Explicit(ReleasePattern):
    """Fixed release lists keyed by flow id; flows not listed never release."""

    def __init__(self, times: dict[int, list[int]]) -> None:
        self.times = times

    def release_times(self, flow, horizon, seed):
        return [t for t in self.times.get(flow.flow_id, []) if t < horizon]


def _summary(trace):
    return [
        (r.flow_id, r.seq, r.release, r.inject_start, r.eject_end, r.deflections,
         r.dropped)
        for r in trace.records
    ]


def _latencies(trace):
    return {(r.flow_id, r.seq): r.latency for r in trace.records}


def _both(flowset, pattern, horizon, **kw):
    base = run(flowset, BASE, pattern=pattern, horizon=horizon,
               protocol_check=True, **kw)
    prop = run(flowset, PROP, pattern=pattern, horizon=horizon,
               protocol_check=True, **kw)
    return base, prop


class TestNoLoad:
    def test_single_flow_latency_is_no_load_latency(self):
        fs = single_flow_ring8(length=8)
        trace = run(fs, BASE, pattern=Periodic(), horizon=3000,
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
        base, prop = _both(fs, Periodic(), 3000)
        assert _summary(base) == _summary(prop)
        assert base.flit_hops == prop.flit_hops

    def test_offset_releases_after_idle_gap(self):
        # fast-forward over dead cycles must not disturb timing
        fs = single_flow_ring8(length=8)
        trace = run(fs, BASE, pattern=_Explicit({0: [100_000, 200_000, 300_000]}),
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
        pattern = _Explicit({0: [0], 1: [1]})
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
        base, prop = _both(fs, _Explicit({0: [0], 1: [1]}), 64)
        assert _summary(base) == _summary(prop)

    def test_header_only_deflection_reduces_hops(self):
        fs = self._pair()
        base, prop = _both(fs, _Explicit({0: [0], 1: [1]}), 64)
        assert base.flit_hops == 22
        # payload flit skips the loop: saves (L-H)*(r-(|path|-1)) = 1*3 hops
        assert prop.flit_hops == 19

    def test_tie_on_timestamp_breaks_by_lower_ring_id(self):
        top = multi_ring_2x4()
        flows = [
            make_flow(0, 6, 5, length=2),  # ring 0 (tie with ring 1 on |path|)
            make_flow(1, 1, 5, length=2),  # ring 2, length == ring length
        ]
        fs = Flowset(top, flows)
        assert fs.flow(0).ring == 0 and fs.flow(1).ring == 2
        base, prop = _both(fs, _Explicit({0: [0], 1: [0]}), 64)
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
        pattern = _Explicit({0: [0], 1: [1], 2: [3]})
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
        trace = run(fs, BASE, pattern=_Explicit({0: [0], 1: [1], 2: [3]}),
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
        pattern = _Explicit({0: [0], 1: [0], 2: [0]})
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
        base, prop = _both(fs, _Explicit({0: [0], 1: [1]}), 64)
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
        return _Explicit({0: [0], 1: list(range(1, 40, 4))})

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
        pattern = _Explicit({0: [0], 1: [1, 4], 2: [2]})
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
        run(fs, BASE, pattern=Synchronous(), horizon=20_000,
            protocol_check=True)
        run(fs, PROP, pattern=Synchronous(), horizon=20_000)


class TestBoundFlagging:
    def test_delivered_over_bound_flagged(self):
        fs = single_flow_ring8(length=8)
        pattern = _Explicit({0: [0]})
        ok = run(fs, BASE, pattern=pattern, horizon=30, bounds={0: 12})
        late = run(fs, BASE, pattern=pattern, horizon=30, bounds={0: 11})
        assert ok.bound_violations == 0
        assert late.bound_violations == 1
        assert late.records[0].violated

    def test_undelivered_within_measurable_window_flagged(self):
        fs = single_flow_ring8(length=8)
        pattern = _Explicit({0: [0]})
        cut = run(fs, BASE, pattern=pattern, horizon=10, bounds={0: 9})
        assert cut.records[0].eject_end is None
        assert cut.bound_violations == 1
        # bound larger than the window: lateness cannot be concluded
        open_ = run(fs, BASE, pattern=pattern, horizon=10, bounds={0: 12})
        assert open_.bound_violations == 0


class TestPreconditions:
    def test_packet_longer_than_ring_with_competitor_rejected(self):
        top = multi_ring_2x4()
        cases = [
            # Ejection competitor: destination 5 shared from another ring.
            [
                make_flow(0, 6, 5, length=2),
                make_flow(1, 1, 5, length=3),  # ring 2 has only 2 switches
            ],
            # Ring peer with a different destination, no shared ejection.
            [
                make_flow(0, 1, 5, length=3, ring=2),
                make_flow(1, 5, 1, length=2, ring=2),
            ],
        ]
        for flows in cases:
            fs = Flowset(top, flows)
            with pytest.raises(ModelError, match="exceeds its ring"):
                run(fs, BASE, horizon=100)

    def test_packet_longer_than_ring_without_competitor_runs(self):
        top = multi_ring_2x4()
        fs = Flowset(top, [make_flow(0, 1, 5, length=5, ring=2)])
        trace = run(fs, BASE, pattern=_Explicit({0: [0]}), horizon=64,
                    protocol_check=True)
        assert _latencies(trace)[(0, 0)] == 7  # C = 2 + 5, never deflected

    def test_nonpositive_horizon_rejected(self):
        fs = single_flow_ring8()
        with pytest.raises(ModelError):
            run(fs, BASE, horizon=0)


class TestReleasePatterns:
    def test_synchronous_pulls_releases_in_by_jitter(self):
        flow = make_flow(0, 1, 7, period=10, jitter=25)
        times = Synchronous().release_times(flow, 30, "s")
        assert times == [0, 0, 0, 5, 15, 25]

    def test_periodic_offset(self):
        # Releases start at 0, the synchronous critical instant's origin.
        flow = make_flow(0, 1, 7, period=10)
        assert Periodic().release_times(flow, 30, "s") == [0, 10, 20]

    def test_periodic_with_jitter_windows(self):
        flow = make_flow(0, 1, 7, period=10, jitter=50)
        pat = PeriodicWithJitter()
        times = pat.release_times(flow, 400, "seed-a")
        assert times == pat.release_times(flow, 400, "seed-a")
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))
        for n, t in enumerate(times):
            assert n * 10 <= t <= n * 10 + 50

    def test_sporadic_min_gap_is_period(self):
        flow = make_flow(0, 1, 7, period=10)
        times = Sporadic().release_times(flow, 500, "seed-b")
        assert times == Sporadic().release_times(flow, 500, "seed-b")
        assert all(t2 - t1 >= 10 for t1, t2 in zip(times, times[1:]))
        assert 0 <= times[0] <= 10

    def test_default_horizon(self):
        top = perimeter_ring8()
        fs = Flowset(top, [make_flow(0, 1, 7, period=500),
                           make_flow(1, 0, 4, period=300)])
        assert default_horizon(fs) == 2 * 500 * 2
        big = Flowset(top, [make_flow(0, 1, 7, period=600_000),
                            make_flow(1, 0, 4, period=600_000)])
        assert default_horizon(big) == 2_000_000
        assert default_horizon(Flowset(top, [])) == 1


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
        key = (f.ring, fs.dst_switch(f.flow_id))
        if key in seen or f.length > len(fs.ring_of(f)):
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
                trace = run(fs, mode, pattern=Synchronous(),
                            bounds=bounds, protocol_check=True)
                assert trace.bound_violations == 0, (seed - 1, mode)
                assert trace.retention_violations == 0
                for rec in trace.records:
                    assert rec.deflections <= maxloop_oldest_first(
                        fs, rec.flow_id
                    )
        assert checked == 10
