"""Eight go/no-go checks on the finished artifact, one test per criterion.

Each test prints a single PASS line with the achieved numbers (visible with
``pytest -s``); any failed assertion fails the suite.  The random draws are
seeded, so every run checks the same instances.
"""
import random
import time

from rlnoc.analysis import ProtocolMode, _passes, _table, analyze, terms
from rlnoc.bench import SweepConfig, generate_flowset, improvement_report, schedulability_sweep
from rlnoc.files import load_traffic, sample_traffic_path
from rlnoc.model import Flow, Flowset, ModelError, generate_rlrec
from rlnoc.sim import run, synchronous

from conftest import make_flow, multi_ring_2x4, perimeter_ring8, single_flow_ring8

BASE = ProtocolMode.BASELINE
PROP = ProtocolMode.PROPOSED


def _ok(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}", flush=True)


def _dominance_corpus():
    """1,008 (flowset, budget) instances over grids 4x4/5x5/6x6."""
    cfg = SweepConfig()
    for grid in (4, 5, 6):
        top = generate_rlrec(grid, grid)
        for i in range(84):
            prange = cfg.packet_ranges[i % 2]
            n = (4, 8, 12, 16)[i % 4]
            rng = random.Random(f"dom:{grid}:{i}")
            base_fs = generate_flowset(cfg, top, n, prange, rng)
            for budget in range(4):
                yield base_fs.with_maxloop(budget), budget


def test_1_analytic_dominance():
    started = time.perf_counter()
    combos = strict = 0
    for fs, budget in _dominance_corpus():
        combos += 1
        rb = analyze(fs, BASE)
        rp = analyze(fs, PROP)
        by_id = {f.flow_id: f for f in fs}
        for fb, fp in zip(rb.flows, rp.flows):
            if fb.bound is None:
                continue
            assert fp.bound is not None, (fb.flow_id, budget)
            assert fp.bound <= fb.bound, (fb.flow_id, budget)
            _, deflected = fs.split_ring_peers(fb.flow_id)
            wide_deflector = any(by_id[j].length > 1 for j in deflected)
            if budget >= 1 and wide_deflector:
                assert fp.bound < fb.bound, (fb.flow_id, budget)
                strict += 1
    elapsed = time.perf_counter() - started
    assert combos >= 1000
    assert elapsed < 120.0
    _ok(1, f"proposed bound <= baseline on {combos} flowsets "
           f"({strict} strict) in {elapsed:.1f}s")


def test_2_zero_budget_equivalence():
    cfg = SweepConfig()
    checked = 0
    for i in range(100):
        grid = (4, 5, 6)[i % 3]
        rng = random.Random(f"zero-budget:{i}")
        fs = generate_flowset(
            cfg, generate_rlrec(grid, grid), 4 + i % 9,
            cfg.packet_ranges[i % 2], rng,
        ).with_maxloop(0)
        rb = analyze(fs, BASE)
        rp = analyze(fs, PROP)
        assert rb.flows == rp.flows, i
        assert rb.schedulable == rp.schedulable
        assert rb.passes == rp.passes
        checked += 1
    _ok(2, f"budget-0 reports identical on {checked} flowsets")


def _scan_fixed_point(fs, fid, mode):
    """Smallest I with rhs(I) == I, found by trying every value in order."""
    peers = fs.interference_sets(fid)
    upstream, _ = fs.split_ring_peers(fid)
    by_id = {f.flow_id: f for f in fs}

    def rhs(value):
        total = 1
        for j in upstream:
            g = by_id[j]
            total += -(-(value + g.jitter) // g.period) * g.length
        for j in peers:
            g = by_id[j]
            charge = g.length if mode is BASE or j in upstream else 1
            total += fs.maxloops[j] * -(-(value + g.jitter) // g.period) * charge
        return total

    table = _table(fs)
    cap = table.windows(fs, table.at[fid]).full[1]  # both protocols hold it
    for value in range(1, cap + 1):
        if rhs(value) == value:
            return value
    return None


def _flow_terms(fs, mode, fid=0):
    """term -> cycles of one flow's bound (``terms``), interferers summed."""
    parts = {}
    for f, term, _, cycles in terms(fs, mode):
        if f == fid:
            parts[term] = parts.get(term, 0) + cycles
    return parts


def test_3_hand_oracles_and_exhaustive_scan():
    # Worked single-switch cases, frozen by hand on the 8-switch ring, read
    # at the fixed point and in pass 1 (every interference jitter 0).
    solo = single_flow_ring8()
    uplink = Flowset(perimeter_ring8(), [
        make_flow(0, 1, 7, length=8),
        make_flow(1, 0, 2, length=4, maxloop=0),
    ])
    deflecting = Flowset(perimeter_ring8(), [
        make_flow(0, 1, 7, length=8),
        make_flow(1, 2, 3, length=8, maxloop=1),
    ])
    looped = single_flow_ring8(maxloop=1)
    for fs, mode, idle in ((solo, BASE, 1), (solo, PROP, 1),
                           (uplink, BASE, 5), (uplink, PROP, 5),
                           (deflecting, BASE, 9), (deflecting, PROP, 2)):
        assert _flow_terms(fs, mode)["idle"] == idle
        assert next(_passes(fs, mode)).idle[0] == idle

    for fs, post, bound in ((solo, 24, 37), (looped, 88, 109)):
        parts = _flow_terms(fs, BASE)
        assert parts["post"] == post
        assert sum(parts.values()) == bound
        assert analyze(fs, BASE).flows[0].bound == bound
        assert next(_passes(fs, BASE)).bounds[0] == bound

    # Queue composition on the same fixtures: no injection sharer.
    assert "queue" not in _flow_terms(solo, BASE)
    assert next(_passes(solo, BASE)).queue[0] == 0

    # Iterated fixed point vs. trying every candidate, tiny instances.
    scanned = 0
    for seed in range(120):
        rng = random.Random(f"micro:{seed}")
        top = perimeter_ring8() if seed % 2 else multi_ring_2x4()
        n = rng.randint(2, 3)
        flows = []
        for fid in range(n):
            src, dst = rng.sample(range(8), 2)
            flows.append(make_flow(
                fid, src, dst,
                period=rng.randint(3, 40),
                length=rng.randint(1, 4),
                jitter=rng.randint(0, 5),
                maxloop=rng.randint(0, 2),
            ))
        try:
            fs = Flowset(top, flows)
        except ModelError:
            continue
        for mode in (BASE, PROP):
            first = next(_passes(fs, mode)).idle
            for f, idle in zip(fs, first):
                assert idle == _scan_fixed_point(fs, f.flow_id, mode), (
                    seed, f.flow_id)
                scanned += 1
    assert scanned >= 200
    _ok(3, f"hand values exact; iteration == scan on {scanned} flow/mode cases")


def _schedulable_corpus(grid: int, count: int):
    """Analysis-schedulable flowsets the simulator's guarantees cover:

    distinct (ring, destination switch) pairs, packets no longer than their
    ring, zero release jitter.
    """
    n_cores = grid * grid
    all_pairs = [
        (s, d) for s in range(n_cores) for d in range(n_cores) if s != d
    ]
    top = generate_rlrec(grid, grid)
    seed = 0
    produced = 0
    while produced < count:
        rng = random.Random(f"accept-corpus:{grid}:{seed}")
        seed += 1
        assert seed < 50 * count, "rejection rate blew up"
        n = rng.randint(2, min(8, n_cores // 2))
        flows = []
        for fid, (src, dst) in enumerate(rng.sample(all_pairs, n)):
            period = rng.randint(10, 100) * 1000
            flows.append(Flow(
                flow_id=fid, period=period, deadline=period,
                length=rng.randint(2, 8), jitter=0, src=src, dst=dst,
            ))
        try:
            fs = Flowset(top, flows)
        except ModelError:
            continue
        rings = {f.flow_id: fs.placement(f.flow_id).ring for f in fs}
        keys = {(rings[f.flow_id], f.dst) for f in fs}
        if len(keys) < len(fs):
            continue
        if any(f.length > len(top.rings[rings[f.flow_id]]) for f in fs):
            continue
        report = analyze(fs, BASE)
        if not report.schedulable:
            continue
        produced += 1
        yield fs, report


def test_4_simulation_within_bounds():
    packets = 0
    for grid in (4, 5, 6):
        for fs, base_report in _schedulable_corpus(grid, 100):
            for mode, report in (
                (BASE, base_report), (PROP, analyze(fs, PROP))
            ):
                assert report.schedulable
                bounds = {fa.flow_id: fa.bound for fa in report.flows}
                trace = run(fs, mode, pattern=synchronous, bounds=bounds)
                assert trace.bound_violations == 0, (grid, mode)
                assert trace.retention_violations == 0
                packets += len(trace.records)
    _ok(4, f"300 schedulable flowsets simulated in both modes, "
           f"{packets} packets, no bound exceeded")


def test_5_sweep_shape():
    started = time.perf_counter()
    points = schedulability_sweep(SweepConfig())
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0

    by_key = {
        (p.grid, p.packet_range, p.n_flows, p.maxloop, p.mode): p
        for p in points
    }
    for p in points:
        if p.mode is PROP:
            twin = by_key[(p.grid, p.packet_range, p.n_flows, p.maxloop, BASE)]
            assert p.schedulable_count >= twin.schedulable_count

    gaps = [
        p.ratio - by_key[(4, (16, 48), p.n_flows, 1, BASE)].ratio
        for p in points
        if (p.grid, p.packet_range, p.maxloop, p.mode) == (4, (16, 48), 1, PROP)
    ]
    max_gap_pp = max(gaps) * 100
    assert max_gap_pp >= 10.0

    heaviest = [p for p in points if p.n_flows == 280]
    assert heaviest and all(p.schedulable_count == 0 for p in heaviest)
    _ok(5, f"sweep in {elapsed:.0f}s; proposed >= baseline at all "
           f"{len(points)} rows; peak gap {max_gap_pp:.0f}pp "
           f"(budget 1, 16-48 flits, 4x4); all ratios 0 at 280 flows")


def test_6_topology_contract():
    assert len(generate_rlrec(4, 4).rings) == 10
    assert len(generate_rlrec(6, 6).rings) == 24
    for grid in range(2, 10):
        top = generate_rlrec(grid, grid)
        n = grid * grid
        for a in range(n):
            for b in range(n):
                if a != b:
                    assert any(
                        a in ring.switches and b in ring.switches
                        for ring in top.rings
                    ), (grid, a, b)
    _ok(6, "10 rings on 4x4, 24 on 6x6; every core pair shares a ring "
           "on all grids 2x2-9x9")


def test_7_placement_improvement():
    reference = {
        4: (93.07, 6.60), 5: (89.45, 3.33), 6: (89.26, 3.20),
        7: (89.33, 2.64), 8: (83.36, 2.16), 9: (80.66, 0.92),
    }
    traffic = load_traffic(sample_traffic_path())
    assert len(traffic) == 39
    means = []
    lines = []
    for grid in range(4, 10):
        rep = improvement_report(
            traffic, generate_rlrec(grid, grid), n_mappings=100, seed="0"
        )
        assert all(r.improvement_pct is not None for r in rep.rows)
        assert rep.max_improvement_pct >= 10.0, grid
        means.append(rep.mean_improvement_pct)
        ref_max, ref_mean = reference[grid]
        lines.append(
            f"{grid}x{grid} max {rep.max_improvement_pct:.2f}% "
            f"(ref {ref_max}) mean {rep.mean_improvement_pct:.2f}% "
            f"(ref {ref_mean})"
        )
    assert all(a > b for a, b in zip(means, means[1:])), means
    _ok(7, "pooled means fall with grid size: " + "; ".join(lines))


def _explicit(times):
    def pattern(flow, horizon, seed):
        return [t for t in times.get(flow.flow_id, []) if t < horizon]

    return pattern


def _twin(fs: Flowset) -> Flowset:
    """A second flowset object with the same flows, so that a run on it
    replays no busy period that a run on the first object logged."""
    return Flowset(fs.topology, fs.flows)


def test_8_traffic_reduction():
    # Forced contention, 2-flit packets: one deflection with L > H.
    top = multi_ring_2x4()
    fs = Flowset(top, [
        make_flow(0, 3, 6, length=2), make_flow(1, 2, 6, length=2),
    ])
    pattern = _explicit({0: [0], 1: [1]})
    base = run(fs, BASE, pattern=pattern, horizon=64, protocol_check=True)
    prop = run(_twin(fs), PROP, pattern=pattern, horizon=64,
               protocol_check=True)
    assert max(r.deflections for r in prop.records) >= 1
    assert prop.flit_hops < base.flit_hops

    # Same contention with single-flit packets: deflection but L == H.
    fs1 = Flowset(top, [
        make_flow(0, 3, 6, length=1), make_flow(1, 2, 6, length=1),
    ])
    base = run(fs1, BASE, pattern=pattern, horizon=64, protocol_check=True)
    prop = run(_twin(fs1), PROP, pattern=pattern, horizon=64,
               protocol_check=True)
    assert max(r.deflections for r in prop.records) >= 1
    assert prop.flit_hops == base.flit_hops

    # No contention at all.
    solo = single_flow_ring8()
    base = run(solo, BASE, horizon=200, protocol_check=True)
    prop = run(_twin(solo), PROP, horizon=200, protocol_check=True)
    assert prop.flit_hops == base.flit_hops

    # Random schedulable corpora: saving iff some wide packet deflected.
    savings = equalities = 0
    for fs, _ in _schedulable_corpus(4, 40):
        base = run(fs, BASE, pattern=synchronous, horizon=50_000)
        prop = run(_twin(fs), PROP, pattern=synchronous, horizon=50_000)
        by_id = {f.flow_id: f for f in fs}
        wide_deflected = any(
            r.deflections > 0 and by_id[r.flow_id].length > 1
            for r in prop.records
        )
        if wide_deflected:
            assert prop.flit_hops < base.flit_hops
            savings += 1
        else:
            assert prop.flit_hops == base.flit_hops
            equalities += 1
    assert savings >= 1 and equalities >= 1
    _ok(8, f"fewer proposed-mode flit-hops exactly when a wide packet "
           f"deflects ({savings} saving, {equalities} equal corpora)")
