"""Latency-bound analysis: frozen hand-checked values and cross-checks.

The fixed expected numbers below were computed by hand from the interference
terms before the module existed, then frozen; they are read from ``terms``,
which splits each bound into its parts.  Pass-1 values come from the first
state of ``_passes``, and waits under an explicit jitter or idle map from
``_idle`` and ``_queue``.  The brute-force `_scan_idle` oracle re-transcribes
the busy-period equation independently (summing over ring peers with a
per-peer deflection charge, instead of the implementation's precompiled
weight list) and finds the fixed point by linear scan.
"""
from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import rlnoc.analysis
from conftest import make_flow, multi_ring_2x4, perimeter_ring8, single_flow_ring8
from rlnoc.analysis import (
    AnalysisReport,
    ProtocolMode,
    _idle,
    _passes,
    _queue,
    _table,
    analyze,
    quick_verdict,
    terms,
)
from rlnoc.bench import SweepConfig, generate_flowset
from rlnoc.files import load_traffic, sample_traffic_path
from rlnoc.model import Flowset, NetworkTopology, Ring, generate_rlrec, no_load_latency

BASE = ProtocolMode.BASELINE
PROP = ProtocolMode.PROPOSED


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def _window(fs, fid, mode):
    """The idle-bound terms and divergence cap of ``fid`` under ``mode``."""
    table = _table(fs)
    return table.modes[mode].pick(table.windows(fs, table.at[fid]))


def _idle_wait(fs, fid, mode, jmap=None):
    """The idle wait of ``fid`` under the interference jitter ``jmap`` (flow
    id -> jitter, 0 where missing), or None if it diverges."""
    jmap = jmap or {}
    return _idle(_window(fs, fid, mode), [jmap.get(f.flow_id, 0) for f in fs])[0]


def _first_idle(fs, mode):
    """Pass 1's idle waits (every interference jitter 0), by flow id."""
    return dict(zip((f.flow_id for f in fs), next(_passes(fs, mode)).idle))


def _parts(fs, mode):
    """Flow id -> {(term, other flow id or None): cycles}, from ``terms``."""
    parts = {}
    for fid, term, other, cycles in terms(fs, mode):
        parts.setdefault(fid, {})[term, other] = cycles
    return parts


def _of(parts, term):
    """One flow's ``term`` rows: other flow id or None -> cycles."""
    return {other: c for (t, other), c in parts.items() if t == term}


def _scan_idle(fs, fid, mode, jmap=None):
    """Least fixed point of the head-of-queue busy period, by linear scan."""
    peers = fs.interference_sets(fid)
    upstream, _ = fs.split_ring_peers(fid)
    jmap = jmap or {}
    by_id = {f.flow_id: f for f in fs}

    def rhs(value: int) -> int:
        total = 1
        for j in upstream:
            g = by_id[j]
            total += _ceil(value + g.jitter + jmap.get(j, 0), g.period) * g.length
        for j in peers:
            g = by_id[j]
            charge = g.length if mode is BASE or j in upstream else 1
            total += fs.maxloops[j] * _ceil(value + g.jitter + jmap.get(j, 0), g.period) * charge
        return total

    cap = _window(fs, fid, mode)[1]
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
        assert _of(_parts(fs, BASE)[0], "idle") == {None: 1}
        assert _of(_parts(fs, PROP)[0], "idle") == {None: 1}

    def test_single_upstream_interferer(self):
        fs = _uplink_pair()
        # 1 + ceil(5/1000) * 4 = 5 at the fixed point, both modes.
        assert _of(_parts(fs, BASE)[0], "idle") == {None: 1, 1: 4}
        assert _of(_parts(fs, PROP)[0], "idle") == {None: 1, 1: 4}

    def test_deflecting_interferer_split_by_mode(self):
        fs = _deflecting_pair()
        # One deflection charge: the full 8-flit packet vs its 1-flit header.
        assert _of(_parts(fs, BASE)[0], "idle") == {None: 1, 1: 8}
        assert _of(_parts(fs, PROP)[0], "idle") == {None: 1, 1: 1}

    def test_matches_scan_oracle_on_fixed_pairs(self):
        for fs in (_uplink_pair(), _deflecting_pair()):
            for mode in (BASE, PROP):
                first = _first_idle(fs, mode)
                for f in fs:
                    assert first[f.flow_id] == _scan_idle(fs, f.flow_id, mode)

    def test_interference_jitter_widens_the_window(self):
        fs = _uplink_pair()
        # Pushing flow 1's interference jitter past its period doubles the
        # number of packet arrivals inside the busy window.
        assert _idle_wait(fs, 0, BASE, {1: 996}) == 9

    def test_divergence_returns_none(self):
        top = perimeter_ring8()
        flows = [
            make_flow(0, 1, 7, length=8),
            make_flow(1, 0, 2, length=8, period=4, deadline=4, maxloop=0),
        ]
        fs = Flowset(top, flows)
        assert _first_idle(fs, BASE)[0] is None
        assert 0 not in _parts(fs, BASE)

    def test_none_jitter_propagates(self):
        fs = _uplink_pair()
        assert _idle_wait(fs, 0, BASE, {1: None}) is None


class TestPreInjectionQueue:
    def test_no_sharers(self):
        fs = single_flow_ring8()
        assert _of(_parts(fs, BASE)[0], "queue") == {}
        assert analyze(fs, BASE).flows[0].pre_queue == 0

    def test_one_sharer(self):
        top = multi_ring_2x4()
        fs = Flowset(top, [make_flow(0, 1, 7, length=8), make_flow(1, 1, 5, length=8)])
        assert fs.placement(1).ring == 2
        parts = _parts(fs, BASE)
        assert _of(parts[1], "idle") == {None: 1}
        # Flow 1's 8 flits plus its idle wait of 1.
        assert _of(parts[0], "queue") == {1: 9}

    def test_two_sharers(self):
        top = multi_ring_2x4()
        flows = [
            make_flow(0, 1, 7, length=8),  # ring 0, alone there
            make_flow(1, 1, 5, length=8),  # ring 2, alone there -> idle 1
            make_flow(2, 1, 6, length=4),  # ring 1
            make_flow(3, 5, 2, length=4),  # ring 1, crosses switch 1 -> idle(2)=5
        ]
        fs = Flowset(top, flows)
        assert fs.placement(2).ring == 1 and fs.placement(3).ring == 1
        first = _first_idle(fs, BASE)
        assert (first[1], first[2]) == (1, 5)
        parts = _parts(fs, BASE)
        assert sum(_of(parts[1], "idle").values()) == 1
        assert sum(_of(parts[2], "idle").values()) == 5
        assert _of(parts[0], "queue") == {1: 8 + 1, 2: 4 + 5}
        assert sum(_of(parts[0], "queue").values()) == 18

    def test_none_idle_propagates(self):
        top = multi_ring_2x4()
        fs = Flowset(top, [make_flow(0, 1, 7, length=8), make_flow(1, 1, 5, length=8)])
        assert _queue(_table(fs).row(fs, 0), [1, None]) is None


class TestPostInjection:
    def test_buffer_term_only(self):
        fs = single_flow_ring8(length=8, maxloop=0)
        # 3 downstream switches, 8-flit buffers.
        assert _parts(fs, BASE)[0]["post", None] == 24

    def test_deflection_term(self):
        fs = single_flow_ring8(length=8, maxloop=1)
        # 24 + one loop around the 8-link ring at 8 flits per buffer.
        assert _parts(fs, BASE)[0]["post", None] == 88

    def test_minimal_case(self):
        top = perimeter_ring8()
        fs = Flowset(top, [make_flow(0, 1, 2, length=1, maxloop=0)])
        assert _parts(fs, BASE)[0]["post", None] == 1


class TestResponseTime:
    def test_isolated_flow(self):
        fs = single_flow_ring8(length=8, maxloop=0)
        fa = analyze(fs, BASE).flows[0]
        assert fa.no_load == 12
        assert fa.pre_idle == 1
        assert fa.pre_queue == 0
        assert fa.post_injection == 24
        assert fa.bound == 37
        assert fa.converged and fa.schedulable

    def test_isolated_flow_with_one_loop(self):
        fs = single_flow_ring8(length=8, maxloop=1)
        fa = analyze(fs, BASE).flows[0]
        assert fa.bound == 12 + 8 + 1 + 88
        assert fa.bound == 109
        assert _parts(fs, BASE)[0] == {
            ("no_load", None): 12, ("loops", None): 8, ("post", None): 88,
            ("idle", None): 1,
        }

    def test_bound_identity_and_floor(self):
        fs = _deflecting_pair()
        for mode in (BASE, PROP):
            parts = _parts(fs, mode)
            for fa in analyze(fs, mode).flows:
                ring = fs.topology.rings[fs.placement(fa.flow_id).ring]
                loops = len(ring) * fs.maxloops[fa.flow_id]
                assert fa.bound == (
                    fa.no_load
                    + loops
                    + fa.pre_idle
                    + fa.pre_queue
                    + fa.post_injection
                )
                assert fa.bound >= fa.no_load
                own = parts[fa.flow_id]
                assert own["loops", None] == loops
                assert sum(own.values()) == fa.bound

    def test_deflection_makes_proposed_strictly_cheaper(self):
        fs = _deflecting_pair()
        base = analyze(fs, BASE).flows[0]
        prop = analyze(fs, PROP).flows[0]
        assert base.bound == 12 + 0 + 9 + 0 + 24
        assert prop.bound == 12 + 0 + 2 + 0 + 24
        assert prop.bound < base.bound
        # The whole gap is flow 1's idle share: 8 flits against 1 header.
        gap = {key: c - _parts(fs, PROP)[0][key]
               for key, c in _parts(fs, BASE)[0].items()}
        assert {key: c for key, c in gap.items() if c} == {("idle", 1): 7}

    def test_divergence_marks_flow_unschedulable(self):
        top = perimeter_ring8()
        flows = [
            make_flow(0, 1, 7, length=8),
            make_flow(1, 0, 2, length=8, period=4, deadline=4, maxloop=0),
        ]
        fs = Flowset(top, flows)
        fa = analyze(fs, BASE).flows[0]
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


def _sweep_sized_draws():
    """Seeded sweep flowsets: 20-120 flows on 4x4 and 5x5, budgets 0-3.

    The shipped configuration, then one with 1 us periods, whose load can
    push a switch's idle wait past its divergence cap.
    """
    tops = {g: generate_rlrec(g, g) for g in (4, 5)}
    for label, cfg, count in (
        ("shipped", SweepConfig(), 25),
        ("short", SweepConfig(period_us=(1, 1)), 30),
    ):
        for i in range(count):
            rng = random.Random(f"{label}:{i}")
            grid = rng.choice((4, 5))
            n_flows = rng.randint(20, 120)
            prange = rng.choice(cfg.packet_ranges)
            fs = generate_flowset(cfg, tops[grid], n_flows, prange, rng)
            yield fs.with_maxloop(rng.randint(0, 3))


def _floor(fs: Flowset, fid: int) -> int:
    """The bound with every idle wait at its least value, 1.  The injection
    sharers are found by a scan of every flow's source core, and the
    post-injection term is a full buffer drain per hop and per lap."""
    ring_id, _, hops = fs.placement(fid)
    lap = len(fs.topology.rings[ring_id])
    own = no_load_latency(fs, fid) + lap * fs.maxloops[fid]
    post = (hops + lap * fs.maxloops[fid]) * fs.ring_buffers[ring_id]
    by_id = {f.flow_id: f for f in fs}
    src = by_id[fid].src
    sharers = [g.flow_id for g in fs if g.src == src and g.flow_id != fid]
    return (own + post + 1
            + sum(by_id[g].length + 1 for g in sharers))


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
        first_pass = dict(zip((f.flow_id for f in fs),
                              next(_passes(fs, BASE)).bounds))
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
                    make_flow(i, src, dst, period=period, length=1,
                              jitter=rng.randint(0, 50), maxloop=rng.randint(0, 3))
                )
            fs = Flowset(top, flows)
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

    def test_quick_verdict_agrees_with_full_analysis(self, monkeypatch):
        rng = random.Random("quick")
        for trial in range(30):
            fs = _random_flowset(rng, n_flows=rng.randint(2, 14))
            for mode in (BASE, PROP):
                assert quick_verdict(fs, mode) == analyze(fs, mode).schedulable
        seen = set()
        for fs in _sweep_sized_draws():
            for mode in (BASE, PROP):
                full = analyze(fs, mode)
                assert quick_verdict(fs, mode) == full.schedulable
                with monkeypatch.context() as m:
                    m.setattr(rlnoc.analysis, "MAX_PASSES", 1)
                    first = analyze(fs, mode).flows
                if any(_floor(fs, f.flow_id) > f.deadline for f in fs):
                    seen.add("floor")
                    continue
                if any(fa.pre_idle is not None and fa.pre_queue is None for fa in first):
                    seen.add("sharer diverged")
                if full.schedulable:
                    seen.add("accept")
                elif any(fa.bound is None or fa.bound > fa.deadline for fa in first):
                    seen.add("pass 1")
                else:
                    seen.add("later pass")
        assert seen == {"floor", "pass 1", "later pass", "accept", "sharer diverged"}


def _renumbered(fs: Flowset, ids) -> Flowset:
    """``fs``'s flows in the same order under new ids, each keeping its budget."""
    return Flowset(fs.topology, [
        f._replace(flow_id=i, maxloop=fs.maxloops[f.flow_id])
        for f, i in zip(fs.flows, ids)
    ])


class TestPositionIsNotId:
    """The analysis names flows by position; ids must not leak into it.

    Each flowset is compared with itself renumbered 0..n-1 in the same
    order, once under sparse shuffled ids and once under the reversed ids
    n-1..0, where an id read as a position lands on another real flow.
    """

    FIELDS = ("bound", "pre_idle", "pre_queue", "iterations", "converged",
              "schedulable", "no_load", "post_injection")

    @staticmethod
    def _id_sets(rng: random.Random, n: int):
        return rng.sample(range(10 * n), n), list(range(n - 1, -1, -1))

    def test_analyze_and_quick_verdict(self):
        rng = random.Random("ids")
        cases = [_random_flowset(rng, n_flows=rng.randint(2, 14))
                 for _ in range(20)]
        cases += itertools.islice(_sweep_sized_draws(), 12)
        verdicts = set()
        for fs in cases:
            dense = _renumbered(fs, range(len(fs)))
            for ids in self._id_sets(rng, len(fs)):
                moved = _renumbered(fs, ids)
                for mode in (BASE, PROP):
                    want, got = analyze(dense, mode), analyze(moved, mode)
                    assert [fa.flow_id for fa in got.flows] == ids
                    assert got.passes == want.passes
                    for w, g in zip(want.flows, got.flows):
                        for field in self.FIELDS:
                            assert getattr(g, field) == getattr(w, field), field
                    verdict = quick_verdict(moved, mode)
                    assert verdict == quick_verdict(dense, mode) == want.schedulable
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_terms_windows_and_first_pass(self):
        rng = random.Random("ids-one")
        for _ in range(10):
            fs = _random_flowset(rng, n_flows=rng.randint(2, 10))
            dense = _renumbered(fs, range(len(fs)))
            for ids in self._id_sets(rng, len(fs)):
                moved = _renumbered(fs, ids)
                jitter = {i: rng.randint(0, 500) for i in ids}
                by_pos = {p: jitter[i] for p, i in enumerate(ids)}
                for pos, i in enumerate(ids):
                    assert (_idle_wait(moved, i, BASE, jitter)
                            == _idle_wait(dense, pos, BASE, by_pos))
                    for mode in (BASE, PROP):
                        assert _window(moved, i, mode) == _window(dense, pos, mode)
                for mode in (BASE, PROP):
                    # Pass 1 (idle, queue and bound of every flow) by position.
                    assert next(_passes(moved, mode)) == next(_passes(dense, mode))
                    # No-load, post-injection and sharers of every flow.
                    assert _table(moved).rows == _table(dense).rows
                    # Every part of every bound, with each flow under its id.
                    assert terms(moved, mode) == [
                        (ids[fid], term, None if other is None else ids[other], c)
                        for fid, term, other, c in terms(dense, mode)
                    ]


def _placements():
    """Flowsets of the placement study: the shipped traffic on 4x4, 6x6 and
    9x9 at the first seed-0 mappings of ``improvement_report``."""
    traffic = load_traffic(sample_traffic_path())
    endpoints = sorted({f.src for f in traffic} | {f.dst for f in traffic})
    for grid in (4, 6, 9):
        top = generate_rlrec(grid, grid)
        for mapping_id in range(3):
            rng = random.Random(f"0:mapping:{mapping_id}")
            cores = dict(zip(endpoints, rng.sample(range(grid * grid), len(endpoints))))
            yield Flowset(top, [
                f._replace(src=cores[f.src], dst=cores[f.dst])
                for f in traffic
            ])


def _check_terms(fs: Flowset, mode: ProtocolMode) -> tuple[int, int]:
    """Assert that every bound of ``analyze`` is the sum of its flow's
    ``terms`` rows and that a flow without a bound has none; returns the
    (bounded, unbounded) flow counts."""
    sums: dict[int, int] = {}
    order = []
    for fid, term, other, cycles in terms(fs, mode):
        if fid not in sums:
            order.append(fid)
        sums[fid] = sums.get(fid, 0) + cycles
        assert term in ("no_load", "loops", "post", "idle", "queue")
        if term == "queue":
            assert other is not None
        elif term != "idle":
            assert other is None
        assert cycles >= 0
    flows = analyze(fs, mode).flows
    assert sums == {fa.flow_id: fa.bound for fa in flows if fa.bound is not None}
    assert order == [fa.flow_id for fa in flows if fa.bound is not None]
    bounded = len(sums)
    return bounded, len(flows) - bounded


class TestTerms:
    """``terms`` splits every bound ``analyze`` reports into parts that sum
    to it exactly, in flow order; a flow without a bound has no rows."""

    def test_parts_sum_to_bounds_on_the_dominance_corpus(self):
        from test_acceptance import _dominance_corpus
        bounded = 0
        for fs, _ in _dominance_corpus():
            for mode in (BASE, PROP):
                bounded += _check_terms(fs, mode)[0]
        assert bounded == 20_160

    def test_flows_without_a_bound_have_no_rows(self):
        counts = [0, 0]
        for fs in _sweep_sized_draws():
            for mode in (BASE, PROP):
                for i, n in enumerate(_check_terms(fs, mode)):
                    counts[i] += n
        assert min(counts) > 1000

    def test_parts_sum_to_bounds_on_placements(self):
        bounded = 0
        for fs in _placements():
            for mode in (BASE, PROP):
                bounded += _check_terms(fs, mode)[0]
        assert bounded == 3 * 3 * 2 * 39

    def test_parts_sum_to_unconverged_bounds_at_the_pass_cap(self, monkeypatch):
        fs = generate_flowset(
            SweepConfig(), generate_rlrec(4, 4), 20, (16, 48), random.Random(5)
        ).with_maxloop(1)
        monkeypatch.setattr(rlnoc.analysis, "MAX_PASSES", 1)
        for mode in (BASE, PROP):
            assert not any(fa.converged for fa in analyze(fs, mode).flows)
            assert _check_terms(fs, mode) == (len(fs), 0)


class TestConfirmingPass:
    """From pass 2 on, ``_passes`` keeps a flow's last climb when no
    ceiling of its window moves; what it keeps must be the cold climb."""

    def test_kept_climbs_equal_cold_climbs(self, monkeypatch):
        real = rlnoc.analysis._same_climb
        kept: list[bool] = []

        def spy(*args):
            kept.append(real(*args))
            return kept[-1]

        monkeypatch.setattr(rlnoc.analysis, "_same_climb", spy)
        short = [fs for fs in _sweep_sized_draws()
                 if {f.period for f in fs} == {1000}]
        assert len(short) == 30
        seen = set()
        for label, cases in (("placement", list(_placements())),
                             ("short periods", short)):
            kept.clear()
            moved = False
            for fs in cases:
                for mode in (BASE, PROP):
                    table = rlnoc.analysis._table(fs)
                    climbs = table.modes[mode]
                    last = None
                    for state in rlnoc.analysis._passes(fs, mode):
                        for pos, both in enumerate(table.both):
                            cold = rlnoc.analysis._idle(climbs.pick(both), state.jitter)
                            assert (state.idle[pos], state.steps[pos]) == cold
                            if last is not None and last.idle[pos] is not None:
                                moved |= cold[0] != last.idle[pos]
                        last = state
            seen |= {(label, k) for k in kept}
            if label == "short periods":
                assert moved
        # The placement study keeps every climb; short periods move ceilings.
        assert ("placement", True) in seen and ("placement", False) not in seen
        assert ("short periods", False) in seen


class TestFloorScreen:
    """``quick_verdict`` screens by floors computed from the source switches'
    injection loads, then builds a row only for each flow that pass 1
    visits, least floor slack first."""

    @staticmethod
    def _bases():
        """Every fourth point of the seed-0 sweep, drawn as the sweep draws
        its first flowset: 20-280 flows on 4x4 to 6x6."""
        cfg = SweepConfig(seed="0")
        tops = {g: generate_rlrec(g, g) for g in cfg.grids}
        for grid, (lo, hi), n in itertools.islice(cfg.points(), 0, None, 4):
            rng = random.Random(f"0:flowset:{grid}:{lo}-{hi}:{n}:0")
            yield generate_flowset(cfg, tops[grid], n, (lo, hi), rng)

    @staticmethod
    def _decide(fs: Flowset, ref: Flowset, mode: ProtocolMode,
                seen: set[tuple[ProtocolMode, str]]) -> bool:
        """``quick_verdict(fs, mode)``, checked against oracles on ``ref``,
        another copy of ``fs`` at the same budget; ``seen`` gets how it
        decided."""
        flows = ref.flows
        floors = [_floor(ref, f.flow_id) for f in flows]
        order = sorted(range(len(flows)),
                       key=lambda p: flows[p].deadline - floors[p])
        first = next(rlnoc.analysis._passes(ref, mode)).bounds
        misses = [i for i, p in enumerate(order)
                  if first[p] is None or first[p] > flows[p].deadline]
        table = rlnoc.analysis._table(fs)
        fresh = all(row is None for row in table.rows)
        verdict = quick_verdict(fs, mode)
        assert verdict == analyze(ref, mode).schedulable
        built = {p for p, row in enumerate(table.rows) if row is not None}
        if any(floor > f.deadline for floor, f in zip(floors, flows)):
            assert not verdict and not built
            how = "floor"
        else:
            # The least slack first, ties in flow order.
            assert table.visits(fs) == order
            if misses:
                assert not verdict
                if fresh:
                    assert built == set(order[:misses[0] + 1])
                how = "pass 1"
            else:
                assert built == set(range(len(flows)))
                how = "accept" if verdict else "later pass"
        seen.add((mode, how))
        return verdict

    def test_rows_only_for_visited_flows_along_the_budget_chain(self):
        seen: set[tuple[ProtocolMode, str]] = set()
        for base in self._bases():
            # The calls _evaluate_point makes, in its order.
            alive = {PROP: True, BASE: True}
            for k in range(4):
                if not any(alive.values()):
                    break
                fs, ref = base.with_maxloop(k), base.with_maxloop(k)
                prop_ok = alive[PROP] and self._decide(fs, ref, PROP, seen)
                if k == 0:
                    base_ok = prop_ok
                else:
                    base_ok = (alive[BASE] and prop_ok
                               and self._decide(fs, ref, BASE, seen))
                alive = {PROP: prop_ok, BASE: base_ok}
        assert seen >= {(PROP, "floor"), (PROP, "pass 1"), (PROP, "accept"),
                        (BASE, "accept")}


    def test_floor_is_the_oracle_floor_to_the_cycle(self):
        # A deadline at the floor passes the screen, and that flow, with no
        # slack, is visited first; one cycle less rejects it with no row.
        base = next(self._bases())
        for pos in range(0, len(base), 7):
            floor = _floor(base.with_maxloop(2), base.flows[pos].flow_id)
            for deadline, visited in ((floor, True), (floor - 1, False)):
                flows = list(base.flows)
                flows[pos] = flows[pos]._replace(deadline=deadline)
                fs = Flowset(base.topology, flows).with_maxloop(2)
                quick_verdict(fs, PROP)
                rows = rlnoc.analysis._table(fs).rows
                assert (rows[pos] is not None) == visited
                assert any(row is not None for row in rows) == visited


class TestSharedTable:
    """One table per flowset serves both modes and every entry point; no
    mode, call order or budget may see another's entries."""

    @staticmethod
    def _fresh(fs: Flowset) -> Flowset:
        return Flowset(fs.topology, [
            f._replace(maxloop=fs.maxloops[f.flow_id]) for f in fs.flows
        ])

    @staticmethod
    def _same(got: AnalysisReport, want: AnalysisReport) -> None:
        assert (got.mode, got.flows, got.schedulable, got.passes) == (
            want.mode, want.flows, want.schedulable, want.passes)

    def test_no_leak_between_modes_orders_or_budgets(self):
        cases = list(itertools.islice(_sweep_sized_draws(), 0, None, 3))
        cases += [_deflecting_pair(), _uplink_pair()]
        differ = 0
        for fs in cases:
            want = {mode: analyze(self._fresh(fs), mode) for mode in (BASE, PROP)}
            differ += want[BASE].flows != want[PROP].flows
            for order in ((PROP, BASE), (BASE, PROP)):
                shared = self._fresh(fs)
                for mode in order:
                    self._same(analyze(shared, mode), want[mode])
            for first, then in ((BASE, BASE), (PROP, PROP), (BASE, PROP), (PROP, BASE)):
                shared = self._fresh(fs)
                verdict = quick_verdict(shared, first)
                assert verdict == want[first].schedulable
                self._same(analyze(shared, then), want[then])
            source = self._fresh(fs)
            for mode in (BASE, PROP):
                analyze(source, mode)
            for k in (0, 2):
                budgeted = source.with_maxloop(k)
                for mode in (PROP, BASE):
                    self._same(analyze(budgeted, mode),
                               analyze(self._fresh(budgeted), mode))
        assert differ


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
        first = _first_idle(fs, mode)
        for f in fs:
            assert first[f.flow_id] == _scan_idle(fs, f.flow_id, mode)

    @settings(max_examples=60, deadline=None)
    @given(micro_instances())
    def test_scan_agrees_under_nonzero_interference_jitter(self, fs):
        jmap = {f.flow_id: 3 * f.flow_id for f in fs}
        for f in fs:
            for mode in (BASE, PROP):
                got = _idle_wait(fs, f.flow_id, mode, jmap)
                assert got == _scan_idle(fs, f.flow_id, mode, jmap)


class TestDivergenceCap:
    def test_cap_scales_with_peer_deflections(self):
        fs = _deflecting_pair()
        for mode in (BASE, PROP):
            # Flow 0: period 1000, one ring peer with maxloop=1.
            assert _window(fs, 0, mode)[1] == 2000
            # Flow 1: peer flow 0 has maxloop 0.
            assert _window(fs, 1, mode)[1] == 1000

    def test_hard_cap_wins_when_smaller(self, monkeypatch):
        fs = _deflecting_pair()
        monkeypatch.setattr(rlnoc.analysis, "HARD_CAP", 500)
        assert _window(fs, 0, BASE)[1] == 500
