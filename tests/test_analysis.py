"""Latency-bound analysis: frozen hand-checked values and cross-checks.

The fixed expected numbers below were computed by hand from the interference
terms before the module existed, then frozen.  The brute-force `_scan_idle`
oracle re-transcribes the busy-period equation independently (summing over
ring peers with a per-peer deflection charge, instead of the implementation's
precompiled weight list) and finds the fixed point by linear scan.
"""
from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import rlnoc.analysis
from conftest import make_flow, multi_ring_2x4, perimeter_ring8, single_flow_ring8
from rlnoc.analysis import (
    HARD_CAP,
    AnalysisReport,
    ProtocolMode,
    analyze,
    divergence_cap,
    post_injection,
    pre_injection_idle,
    pre_injection_queue,
    quick_verdict,
    response_time,
)
from rlnoc.bench import SweepConfig, generate_flowset
from rlnoc.model import Flowset, NetworkTopology, Ring, generate_rlrec

BASE = ProtocolMode.BASELINE
PROP = ProtocolMode.PROPOSED


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def _scan_idle(fs, fid, mode, jmap=None, hard_cap=HARD_CAP):
    """Least fixed point of the head-of-queue busy period, by linear scan."""
    sets = fs.interference_sets(fid)
    jmap = jmap or {}

    def rhs(value: int) -> int:
        total = 1
        for j in sets.upstream:
            g = fs.flow(j)
            total += _ceil(value + g.jitter + jmap.get(j, 0), g.period) * g.length
        for j in sets.ring_peers:
            g = fs.flow(j)
            if mode is BASE or j in sets.upstream:
                charge = g.length
            else:
                charge = fs.header_len
            total += g.maxloop * _ceil(value + g.jitter + jmap.get(j, 0), g.period) * charge
        return total

    cap = divergence_cap(fs, fid, hard_cap)
    for value in range(1, cap + 1):
        if rhs(value) == value:
            return value
    return None


def _uplink_pair() -> Flowset:
    # Flow 0: core 1 -> 7.  Flow 1 crosses switch 1 on its way 0 -> 2.
    top = perimeter_ring8()
    flows = [
        make_flow(0, 1, 7, length=8),
        make_flow(1, 0, 2, length=4, maxloop=0),
    ]
    return Flowset(top, flows)


def _deflecting_pair() -> Flowset:
    # Flow 0: core 1 -> 7.  Flow 1 (2 -> 3) never crosses switch 1 unless
    # deflected; maxloop=1 allows one loop around the ring.
    top = perimeter_ring8()
    flows = [
        make_flow(0, 1, 7, length=8),
        make_flow(1, 2, 3, length=8, maxloop=1),
    ]
    return Flowset(top, flows)


class TestPreInjectionIdle:
    def test_no_interferers(self):
        fs = single_flow_ring8()
        assert pre_injection_idle(fs, 0, BASE) == 1
        assert pre_injection_idle(fs, 0, PROP) == 1

    def test_single_upstream_interferer(self):
        fs = _uplink_pair()
        # 1 + ceil(5/1000) * 4 = 5 at the fixed point, both modes.
        assert pre_injection_idle(fs, 0, BASE) == 5
        assert pre_injection_idle(fs, 0, PROP) == 5

    def test_deflecting_interferer_split_by_mode(self):
        fs = _deflecting_pair()
        # One deflection charge: the full 8-flit packet vs its 1-flit header.
        assert pre_injection_idle(fs, 0, BASE) == 9
        assert pre_injection_idle(fs, 0, PROP) == 2

    def test_matches_scan_oracle_on_fixed_pairs(self):
        for fs in (_uplink_pair(), _deflecting_pair()):
            for mode in (BASE, PROP):
                for f in fs:
                    assert pre_injection_idle(fs, f.flow_id, mode) == _scan_idle(
                        fs, f.flow_id, mode
                    )

    def test_interference_jitter_widens_the_window(self):
        fs = _uplink_pair()
        # Pushing flow 1's interference jitter past its period doubles the
        # number of packet arrivals inside the busy window.
        assert pre_injection_idle(fs, 0, BASE, {1: 996}) == 9

    def test_divergence_returns_none(self):
        top = perimeter_ring8()
        flows = [
            make_flow(0, 1, 7, length=8),
            make_flow(1, 0, 2, length=8, period=4, deadline=4, maxloop=0),
        ]
        fs = Flowset(top, flows)
        assert pre_injection_idle(fs, 0, BASE) is None

    def test_none_jitter_propagates(self):
        fs = _uplink_pair()
        assert pre_injection_idle(fs, 0, BASE, {1: None}) is None


class TestPreInjectionQueue:
    def test_no_sharers(self):
        fs = single_flow_ring8()
        assert pre_injection_queue(fs, 0, {}) == 0

    def test_one_sharer(self):
        top = multi_ring_2x4()
        fs = Flowset(top, [make_flow(0, 1, 7, length=8), make_flow(1, 1, 5, length=8)])
        assert fs.flow(1).ring == 2
        assert pre_injection_idle(fs, 1, BASE) == 1
        assert pre_injection_queue(fs, 0, {1: 1}) == 9

    def test_two_sharers(self):
        top = multi_ring_2x4()
        flows = [
            make_flow(0, 1, 7, length=8),  # ring 0, alone there
            make_flow(1, 1, 5, length=8),  # ring 2, alone there -> idle 1
            make_flow(2, 1, 6, length=4),  # ring 1
            make_flow(3, 5, 2, length=4),  # ring 1, crosses switch 1 -> idle(2)=5
        ]
        fs = Flowset(top, flows)
        assert fs.flow(2).ring == 1 and fs.flow(3).ring == 1
        idle = {j: pre_injection_idle(fs, j, BASE) for j in (1, 2)}
        assert idle == {1: 1, 2: 5}
        assert pre_injection_queue(fs, 0, idle) == 18

    def test_none_idle_propagates(self):
        top = multi_ring_2x4()
        fs = Flowset(top, [make_flow(0, 1, 7, length=8), make_flow(1, 1, 5, length=8)])
        assert pre_injection_queue(fs, 0, {1: None}) is None


class TestPostInjection:
    def test_buffer_term_only(self):
        fs = single_flow_ring8(length=8, maxloop=0)
        # 3 downstream switches, 8-flit buffers.
        assert post_injection(fs, 0) == 24

    def test_deflection_term(self):
        fs = single_flow_ring8(length=8, maxloop=1)
        # 24 + one loop around the 8-link ring at 8 flits per buffer.
        assert post_injection(fs, 0) == 88

    def test_minimal_case(self):
        top = perimeter_ring8()
        fs = Flowset(top, [make_flow(0, 1, 2, length=1, maxloop=0)])
        assert post_injection(fs, 0) == 1


class TestResponseTime:
    def test_isolated_flow(self):
        fs = single_flow_ring8(length=8, maxloop=0)
        fa = response_time(fs, 0, BASE)
        assert fa.no_load == 12
        assert fa.pre_idle == 1
        assert fa.pre_queue == 0
        assert fa.post_injection == 24
        assert fa.bound == 37
        assert fa.converged and fa.schedulable

    def test_isolated_flow_with_one_loop(self):
        fs = single_flow_ring8(length=8, maxloop=1)
        fa = response_time(fs, 0, BASE)
        assert fa.bound == 12 + 8 + 1 + 88
        assert fa.bound == 109

    def test_bound_identity_and_floor(self):
        fs = _deflecting_pair()
        for mode in (BASE, PROP):
            for f in fs:
                fa = response_time(fs, f.flow_id, mode)
                ring = fs.ring_of(f.flow_id)
                assert fa.bound == (
                    fa.no_load
                    + len(ring) * f.maxloop
                    + fa.pre_idle
                    + fa.pre_queue
                    + fa.post_injection
                )
                assert fa.bound >= fa.no_load

    def test_deflection_makes_proposed_strictly_cheaper(self):
        fs = _deflecting_pair()
        base = response_time(fs, 0, BASE)
        prop = response_time(fs, 0, PROP)
        assert base.bound == 12 + 0 + 9 + 0 + 24
        assert prop.bound == 12 + 0 + 2 + 0 + 24
        assert prop.bound < base.bound

    def test_divergence_marks_flow_unschedulable(self):
        top = perimeter_ring8()
        flows = [
            make_flow(0, 1, 7, length=8),
            make_flow(1, 0, 2, length=8, period=4, deadline=4, maxloop=0),
        ]
        fs = Flowset(top, flows)
        fa = response_time(fs, 0, BASE)
        assert fa.bound is None
        assert not fa.converged and not fa.schedulable


def _random_flowset(rng: random.Random, n_flows: int = 8, maxloop=None) -> Flowset:
    top = generate_rlrec(4, 4)
    flows = []
    for i in range(n_flows):
        src = rng.randrange(16)
        dst = rng.randrange(16)
        while dst == src:
            dst = rng.randrange(16)
        period = rng.randint(50, 5000)
        flows.append(
            make_flow(
                i,
                src,
                dst,
                period=period,
                length=rng.randint(1, 16),
                jitter=rng.randint(0, period // 2),
                maxloop=maxloop if maxloop is not None else rng.randint(0, 3),
            )
        )
    return Flowset(top, flows)


def _bounds(report: AnalysisReport) -> dict[int, int | None]:
    return {fa.flow_id: fa.bound for fa in report.flows}


class TestAnalyze:
    def test_disjoint_rings_converge_in_two_passes(self):
        top = NetworkTopology(
            rows=2,
            cols=4,
            rings=(Ring(0, (0, 1, 2, 3)), Ring(1, (4, 5, 6, 7))),
        )
        fs = Flowset(top, [make_flow(0, 0, 2), make_flow(1, 4, 6)])
        report = analyze(fs, BASE)
        assert report.passes == 2
        assert report.schedulable
        for fa in report.flows:
            assert fa.pre_idle == 1 and fa.pre_queue == 0

    def test_empty_flowset_is_schedulable(self):
        fs = Flowset(generate_rlrec(4, 4), [])
        report = analyze(fs, BASE)
        assert report.schedulable and report.flows == ()

    def test_verdict_is_conjunction(self):
        rng = random.Random("verdict")
        for trial in range(20):
            fs = _random_flowset(rng, n_flows=rng.randint(2, 10))
            report = analyze(fs, BASE)
            assert report.schedulable == all(fa.schedulable for fa in report.flows)

    def test_interference_jitter_feedback_raises_bounds(self):
        fs = _deflecting_pair()
        report = analyze(fs, BASE)
        first_pass = {
            fa.flow_id: response_time(fs, fa.flow_id, BASE).bound for fa in report.flows
        }
        for fa in report.flows:
            assert fa.bound >= first_pass[fa.flow_id]

    def test_maxloop_zero_reports_are_identical(self):
        rng = random.Random("overlap")
        for trial in range(25):
            fs = _random_flowset(rng, n_flows=rng.randint(2, 12), maxloop=0)
            base = analyze(fs, BASE)
            prop = analyze(fs, PROP)
            assert base.flows == prop.flows
            assert base.schedulable == prop.schedulable

    def test_dominance_on_random_flowsets(self):
        rng = random.Random("dominance")
        for trial in range(40):
            fs = _random_flowset(rng, n_flows=rng.randint(2, 12))
            base = _bounds(analyze(fs, BASE))
            prop = _bounds(analyze(fs, PROP))
            for fid, b in base.items():
                p = prop[fid]
                if b is None:
                    continue  # baseline diverged; anything dominates
                assert p is not None and p <= b

    def test_header_equal_to_length_degenerates_to_baseline(self):
        rng = random.Random("degenerate")
        top = generate_rlrec(4, 4)
        for trial in range(10):
            flows = []
            for i in range(8):
                src, dst = rng.sample(range(16), 2)
                period = rng.randint(100, 3000)
                flows.append(
                    make_flow(i, src, dst, period=period, length=4,
                              jitter=rng.randint(0, 50), maxloop=rng.randint(0, 3))
                )
            fs = Flowset(top, flows, header_len=4)
            assert analyze(fs, BASE).flows == analyze(fs, PROP).flows

    def test_adding_a_flow_never_lowers_existing_bounds(self):
        rng = random.Random("monotone")
        for trial in range(15):
            fs = _random_flowset(rng, n_flows=6)
            src, dst = rng.sample(range(16), 2)
            extra = make_flow(99, src, dst, period=rng.randint(50, 2000),
                              length=rng.randint(1, 16), maxloop=rng.randint(0, 3))
            bigger = Flowset(fs.topology, list(fs.flows) + [extra])
            for mode in (BASE, PROP):
                before = _bounds(analyze(fs, mode))
                after = _bounds(analyze(bigger, mode))
                for fid, old in before.items():
                    new = after[fid]
                    assert old is None or (new is None or new >= old)
                    if old is None:
                        assert new is None

    def test_divergence_propagates_to_dependents(self):
        top = multi_ring_2x4()
        flows = [
            make_flow(0, 1, 7, length=8),
            make_flow(1, 0, 2, length=8, period=4, deadline=4, maxloop=0),
            make_flow(2, 1, 5, length=8),  # ring 2: shares only the injection link
        ]
        fs = Flowset(top, flows)
        report = analyze(fs, BASE)
        by_id = {fa.flow_id: fa for fa in report.flows}
        assert by_id[0].bound is None and not by_id[0].converged
        # Flow 2 queues behind flow 0 at switch 1, so its bound is unknown too.
        assert by_id[2].bound is None and not by_id[2].converged
        assert not report.schedulable

    def test_pass_cap_reports_no_bound_as_converged(self, monkeypatch):
        # Four passes reach the fixed point; one pass leaves bounds below it.
        fs = generate_flowset(
            SweepConfig(), generate_rlrec(4, 4), 20, (16, 48), random.Random(5)
        ).with_maxloop(1)
        full = analyze(fs, BASE)
        assert full.passes == 4
        assert all(fa.converged for fa in full.flows)
        monkeypatch.setattr(rlnoc.analysis, "MAX_PASSES", 1)
        capped = analyze(fs, BASE)
        assert capped.passes == 1
        assert any(c.bound < f.bound for c, f in zip(capped.flows, full.flows))
        assert not capped.schedulable
        for fa in capped.flows:
            assert not fa.converged and not fa.schedulable
        assert quick_verdict(fs, BASE) is False

    def test_quick_verdict_agrees_with_full_analysis(self):
        rng = random.Random("quick")
        for trial in range(30):
            fs = _random_flowset(rng, n_flows=rng.randint(2, 14))
            for mode in (BASE, PROP):
                assert quick_verdict(fs, mode) == analyze(fs, mode).schedulable


@st.composite
def micro_instances(draw):
    """1-3 flows with tiny parameters on the 8-switch perimeter ring."""
    n = draw(st.integers(min_value=1, max_value=3))
    flows = []
    for i in range(n):
        src = draw(st.integers(min_value=0, max_value=7))
        dst = draw(st.integers(min_value=0, max_value=7))
        if dst == src:
            dst = (src + 1) % 8
        period = draw(st.integers(min_value=1, max_value=30))
        flows.append(
            make_flow(
                i,
                src,
                dst,
                period=period,
                deadline=period,
                length=draw(st.integers(min_value=1, max_value=4)),
                jitter=draw(st.integers(min_value=0, max_value=10)),
                maxloop=draw(st.integers(min_value=0, max_value=2)),
            )
        )
    return Flowset(perimeter_ring8(), flows)


class TestFixedPointOracle:
    @settings(max_examples=150, deadline=None)
    @given(micro_instances(), st.sampled_from([BASE, PROP]))
    def test_iteration_matches_linear_scan(self, fs, mode):
        for f in fs:
            assert pre_injection_idle(fs, f.flow_id, mode) == _scan_idle(
                fs, f.flow_id, mode
            )

    @settings(max_examples=60, deadline=None)
    @given(micro_instances())
    def test_scan_agrees_under_nonzero_interference_jitter(self, fs):
        jmap = {f.flow_id: 3 * f.flow_id for f in fs}
        for f in fs:
            for mode in (BASE, PROP):
                got = pre_injection_idle(fs, f.flow_id, mode, jmap)
                assert got == _scan_idle(fs, f.flow_id, mode, jmap)


class TestDivergenceCap:
    def test_cap_scales_with_peer_deflections(self):
        fs = _deflecting_pair()
        # Flow 0: period 1000, one ring peer with maxloop=1.
        assert divergence_cap(fs, 0, HARD_CAP) == 2000
        # Flow 1: peer flow 0 has maxloop 0.
        assert divergence_cap(fs, 1, HARD_CAP) == 1000

    def test_hard_cap_wins_when_smaller(self):
        fs = _deflecting_pair()
        assert divergence_cap(fs, 0, 500) == 500
