"""Sweep machinery against brute-force verdicts.

The sweep takes three shortcuts (proposed-first, ascending budget, shared
budget-0 verdict); ``test_counts_match_brute_force`` recomputes every count
with full ``analyze`` runs and no shortcuts, so any bias they introduced
would show up as a count mismatch.
"""
import concurrent.futures
import random
from dataclasses import replace

import pytest

import rlnoc.analysis
import rlnoc.bench
from rlnoc.analysis import ProtocolMode, analyze
from rlnoc.bench import (
    ImprovementReport,
    SweepConfig,
    generate_flowset,
    improvement_report,
    schedulability_sweep,
)
from rlnoc.model import (Flow, ModelError, NetworkTopology, generate_rlrec,
                         sampler)

TINY = SweepConfig(
    grids=(4,),
    flows_start=6,
    flows_end=12,
    flows_step=6,
    flowsets_per_point=8,
    packet_ranges=((32, 96),),
    maxloops=(0, 1, 2),
    seed="bench-test",
)


class TestConfig:
    def test_defaults_valid(self):
        cfg = SweepConfig()
        assert cfg.flow_counts() == tuple(range(20, 281, 20))
        assert len(list(cfg.points())) == 3 * 2 * 14

    def test_from_dict_normalizes_lists(self):
        cfg = SweepConfig.from_dict({
            "grids": [4], "packet_ranges": [[16, 48]], "maxloops": [0, 1],
            "flows_start": 5, "flows_end": 5, "flowsets_per_point": 2,
        })
        assert cfg.grids == (4,)
        assert cfg.packet_ranges == ((16, 48),)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match=r"'flow_count'"):
            SweepConfig.from_dict({"flow_count": 5})

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError, match=r"period_us"):
            SweepConfig(period_us=(5, 2))
        with pytest.raises(ValueError, match=r"deadline_fraction"):
            SweepConfig(deadline_fraction=0.0)
        with pytest.raises(ValueError, match=r"maxloops"):
            SweepConfig(maxloops=())


class TestGeneration:
    def test_fields_within_configured_ranges(self):
        cfg = SweepConfig()
        top = generate_rlrec(4, 4)
        rng = random.Random("gen")
        fs = generate_flowset(cfg, top, 50, (16, 48), rng)
        assert len(fs) == 50
        for f in fs:
            assert 1000 <= f.period <= 100_000
            assert f.period % 1000 == 0
            assert f.deadline == f.period
            assert 16 <= f.length <= 48
            assert 0 <= f.jitter <= f.period // 2
            assert f.src != f.dst
            ring = fs.topology.rings[fs.placement(f.flow_id).ring]
            assert f.src in ring.switches
            assert f.dst in ring.switches

    def test_empty_flowset_is_trivially_schedulable(self):
        cfg = SweepConfig()
        fs = generate_flowset(cfg, generate_rlrec(4, 4), 0, (16, 48),
                              random.Random("x"))
        assert analyze(fs, ProtocolMode.BASELINE).schedulable

    def test_same_seed_same_flowset(self):
        cfg = SweepConfig()
        top = generate_rlrec(4, 4)
        a = generate_flowset(cfg, top, 10, (16, 48), random.Random("s"))
        b = generate_flowset(cfg, top, 10, (16, 48), random.Random("s"))
        assert a.flows == b.flows


def _randint_flowset(cfg, topology, n_flows, prange, rng):
    """The flows ``generate_flowset`` must draw, drawn by ``randint`` and
    ``randrange`` in the order it documents."""
    flows = []
    for i in range(n_flows):
        period = rng.randint(*cfg.period_us) * cfg.cycles_per_us
        jitter = rng.randint(int(period * cfg.jitter_fraction[0]),
                             int(period * cfg.jitter_fraction[1]))
        src = rng.randrange(topology.n_switches)
        dst = rng.randrange(topology.n_switches - 1)
        dst += dst >= src
        flows.append(Flow(i, period, max(1, int(period * cfg.deadline_fraction)),
                          rng.randint(*prange), jitter, src, dst))
    return flows


class TestSampler:
    """``generate_flowset`` draws through ``model.sampler``, a rejection
    sampler on ``getrandbits``; it must take the bits ``randrange`` takes."""

    SHIPPED = SweepConfig()
    WIDTHS = sorted(
        {1, 2, 3}
        | {w for k in range(1, 12) for w in (2 ** k, 2 ** k + 1)}
        | {hi - lo + 1 for lo, hi in (SHIPPED.period_us, *SHIPPED.packet_ranges)}
        | {g * g - d for g in SHIPPED.grids for d in (0, 1)}
    )

    @pytest.mark.parametrize("seed", ["0", "7", "sampler", 12345])
    def test_draws_and_state_match_randrange(self, seed):
        mine, ref = random.Random(seed), random.Random(seed)
        below = sampler(mine.getrandbits)
        for _ in range(5):
            for n in self.WIDTHS:
                assert below(n) == ref.randrange(n), n
                assert mine.getstate() == ref.getstate()

    def test_offset_draws_match_randint(self):
        mine, ref = random.Random("int"), random.Random("int")
        below = sampler(mine.getrandbits)
        for lo, hi in ((1, 100), (16, 48), (32, 96), (0, 0), (500, 50_000)):
            for _ in range(50):
                assert lo + below(hi - lo + 1) == ref.randint(lo, hi)
                assert mine.getstate() == ref.getstate()

    @pytest.mark.parametrize("cfg", [
        SweepConfig(),
        SweepConfig(period_us=(1, 1), jitter_fraction=(0.25, 0.75),
                    deadline_fraction=0.5, cycles_per_us=333),
    ])
    def test_flowsets_match_randint_draws(self, cfg):
        for grid in cfg.grids:
            top = generate_rlrec(grid, grid)
            for prange in cfg.packet_ranges:
                name = f"{grid}:{prange}"
                mine, ref = random.Random(name), random.Random(name)
                fs = generate_flowset(cfg, top, 120, prange, mine)
                assert list(fs.flows) == _randint_flowset(cfg, top, 120, prange, ref)
                assert mine.getstate() == ref.getstate()

    def test_empty_widths_rejected_not_looped(self):
        # A width of 0 would never end the rejection loop.
        cfg = SweepConfig()
        with pytest.raises(ValueError, match="48-16 flits"):
            generate_flowset(cfg, generate_rlrec(4, 4), 1, (48, 16),
                             random.Random(0))
        lone = NetworkTopology(rows=1, cols=1, rings=())
        with pytest.raises(ValueError, match="between 1 cores"):
            generate_flowset(cfg, lone, 1, (16, 48), random.Random(0))
        assert len(generate_flowset(cfg, lone, 0, (16, 48), random.Random(0))) == 0


@pytest.fixture(scope="module")
def result():
    return schedulability_sweep(TINY)


class TestSweep:
    def test_deterministic(self, result):
        assert schedulability_sweep(TINY) == result

    def test_row_order_and_shape(self, result):
        assert len(result) == 2 * 3 * 2  # points x maxloops x modes
        expected = [
            (g, p, n, k, m)
            for g, p, n in TINY.points()
            for k in TINY.maxloops
            for m in (ProtocolMode.BASELINE, ProtocolMode.PROPOSED)
        ]
        got = [
            (r.grid, r.packet_range, r.n_flows, r.maxloop, r.mode)
            for r in result
        ]
        assert got == expected

    def test_budget_zero_modes_agree(self, result):
        zero = [r for r in result if r.maxloop == 0]
        by_mode = {}
        for r in zero:
            by_mode.setdefault((r.grid, r.packet_range, r.n_flows), {})[
                r.mode
            ] = r.schedulable_count
        for counts in by_mode.values():
            assert counts[ProtocolMode.BASELINE] == counts[
                ProtocolMode.PROPOSED
            ]

    def test_proposed_dominates_everywhere(self, result):
        pairs = {}
        for r in result:
            key = (r.grid, r.packet_range, r.n_flows, r.maxloop)
            pairs.setdefault(key, {})[r.mode] = r.schedulable_count
        for counts in pairs.values():
            assert counts[ProtocolMode.PROPOSED] >= counts[
                ProtocolMode.BASELINE
            ]

    def test_ratio_falls_as_budget_grows(self, result):
        series = {}
        for r in result:
            key = (r.grid, r.packet_range, r.n_flows, r.mode)
            series.setdefault(key, []).append((r.maxloop, r.ratio))
        for points in series.values():
            points.sort()
            ratios = [ratio for _, ratio in points]
            assert ratios == sorted(ratios, reverse=True)

    def test_counts_match_brute_force(self, result):
        cfg = TINY
        top = generate_rlrec(4, 4)
        expected = {}
        for grid, prange, n_flows in cfg.points():
            for i in range(cfg.flowsets_per_point):
                rng = random.Random(
                    f"{cfg.seed}:flowset:{grid}:{prange[0]}-{prange[1]}"
                    f":{n_flows}:{i}"
                )
                base = generate_flowset(cfg, top, n_flows, prange, rng)
                for k in cfg.maxloops:
                    fs = base.with_maxloop(k)
                    for mode in ProtocolMode:
                        key = (grid, prange, n_flows, k, mode)
                        ok = analyze(fs, mode).schedulable
                        expected[key] = expected.get(key, 0) + ok
        for r in result:
            key = (r.grid, r.packet_range, r.n_flows, r.maxloop, r.mode)
            assert r.schedulable_count == expected[key], key

    def test_parallel_merge_matches_serial(self, result):
        assert schedulability_sweep(TINY, jobs=2) == result

    def test_jobs_capped_at_point_count(self, result, monkeypatch):
        sizes = []

        class InlinePool:
            """Records its size and maps in this process: starts nothing."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        assert schedulability_sweep(TINY, jobs=10**6) == result
        n_points = len(list(TINY.points()))
        assert sizes == [n_points]
        # A single point runs serially, whatever the job count.
        one = replace(TINY, flows_end=TINY.flows_start)
        assert schedulability_sweep(one, jobs=8) == result[:len(result) // n_points]
        assert sizes == [n_points]

    def test_topology_built_once_per_grid_per_call(self, monkeypatch):
        cfg = replace(TINY, grids=(4, 5), flowsets_per_point=1)
        built = []

        def counting(rows, cols):
            built.append(rows)
            return generate_rlrec(rows, cols)

        monkeypatch.setattr(rlnoc.bench, "generate_rlrec", counting)
        for _ in range(2):
            built.clear()
            schedulability_sweep(cfg)
            assert len(built) == len(cfg.grids)


def _uniform_traffic(n_pairs, length=32, maxloop=None):
    flows = []
    for i in range(n_pairs):
        flows.append(Flow(
            flow_id=i, period=100_000, deadline=100_000, length=length,
            jitter=0, src=2 * i, dst=2 * i + 1, maxloop=maxloop,
        ))
    return flows


class TestImprovement:
    def test_deterministic(self):
        traffic = _uniform_traffic(4)
        top = generate_rlrec(4, 4)
        a = improvement_report(traffic, top, n_mappings=5, seed="s")
        b = improvement_report(traffic, top, n_mappings=5, seed="s")
        assert a == b

    def test_percentages_bounded(self):
        traffic = _uniform_traffic(5, length=64)
        rep = improvement_report(traffic, generate_rlrec(4, 4), n_mappings=10)
        for row in rep.rows:
            assert row.improvement_pct is not None
            assert 0.0 <= row.improvement_pct < 100.0
        assert rep.max_improvement_pct < 100.0

    def test_budget_zero_traffic_gains_nothing(self):
        traffic = _uniform_traffic(4, maxloop=0)
        rep = improvement_report(traffic, generate_rlrec(4, 4), n_mappings=5)
        assert rep.max_improvement_pct == 0.0
        assert rep.mean_improvement_pct == 0.0
        for row in rep.rows:
            assert row.r_base == row.r_prop

    def test_pooled_mean_averages_mapping_means(self):
        traffic = _uniform_traffic(5, length=64)
        rep = improvement_report(traffic, generate_rlrec(4, 4), n_mappings=7)
        by_mapping = {}
        for row in rep.rows:
            by_mapping.setdefault(row.mapping_id, []).append(
                row.improvement_pct
            )
        means = [sum(v) / len(v) for v in by_mapping.values()]
        assert rep.mean_improvement_pct == pytest.approx(
            sum(means) / len(means)
        )

    def test_unmappable_traffic_rejected(self):
        traffic = _uniform_traffic(3)  # endpoints 0..5
        with pytest.raises(ModelError, match=r"endpoints"):
            improvement_report(traffic, generate_rlrec(2, 2), n_mappings=1)

    def test_shipped_traffic_loads_and_maps(self):
        from rlnoc.files import load_traffic, sample_traffic_path

        traffic = load_traffic(sample_traffic_path())
        assert len(traffic) == 39
        assert len({f.flow_id for f in traffic}) == 39
        rep = improvement_report(traffic, generate_rlrec(4, 4), n_mappings=3)
        assert isinstance(rep, ImprovementReport)
        assert rep.max_improvement_pct > 0.0

    def test_pass_cap_yields_no_improvement(self, monkeypatch):
        # One pass stops short of the fixed point: every bound it leaves
        # may be too low, so none may count as an improvement.
        from rlnoc.files import load_traffic, sample_traffic_path

        traffic = load_traffic(sample_traffic_path())
        top = generate_rlrec(4, 4)
        full = improvement_report(traffic, top, n_mappings=2)
        assert all(r.improvement_pct is not None for r in full.rows)
        monkeypatch.setattr(rlnoc.analysis, "MAX_PASSES", 1)
        capped = improvement_report(traffic, top, n_mappings=2)
        assert [(r.mapping_id, r.flow_id) for r in capped.rows] == [
            (r.mapping_id, r.flow_id) for r in full.rows]
        for r in capped.rows:
            assert r.r_base is None and r.r_prop is None
            assert r.improvement_pct is None
        assert capped.max_improvement_pct == 0.0
        assert capped.mean_improvement_pct == 0.0
