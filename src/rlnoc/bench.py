"""Schedulability sweeps and placement-improvement studies.

The sweep draws random flowsets at increasing flow counts and reports, per
grid size, packet-length range, assumed deflection budget, and protocol, the
fraction found schedulable.  Each flowset is shared across every budget and
both protocols so the curves differ only in what they measure.  Seeding is
by name (``seed:flowset:grid:range:count:index``), which keeps results
independent of evaluation order and stable under parallel execution.

The improvement study takes an application's flows over abstract endpoints,
draws random placements onto cores, and compares worst-case bounds between
the two protocols for each placement.
"""
from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from statistics import fmean
from typing import Iterator, Sequence

from .analysis import ProtocolMode, analyze, quick_verdict
from .model import Flow, Flowset, ModelError, NetworkTopology, generate_rlrec

_MODES = (ProtocolMode.BASELINE, ProtocolMode.PROPOSED)


@dataclass(frozen=True)
class SweepConfig:
    grids: tuple[int, ...] = (4, 5, 6)
    flows_start: int = 20
    flows_end: int = 280
    flows_step: int = 20
    flowsets_per_point: int = 100
    packet_ranges: tuple[tuple[int, int], ...] = ((16, 48), (32, 96))
    period_us: tuple[int, int] = (1, 100)
    jitter_fraction: tuple[float, float] = (0.0, 0.5)
    cycles_per_us: int = 1000
    maxloops: tuple[int, ...] = (0, 1, 2, 3)
    deadline_fraction: float = 1.0
    seed: str = "0"

    def __post_init__(self) -> None:
        def bad(field: str, why: str) -> ValueError:
            return ValueError(f"config field {field!r} {why}")

        def integral(value: object) -> bool:
            if isinstance(value, tuple):
                return all(integral(v) for v in value)
            return type(value) is int  # a bool is not a count

        # A field whose default holds only integers takes only integers.
        for f in fields(self):
            if integral(f.default) and not integral(getattr(self, f.name)):
                raise bad(f.name, "must hold only integers")
        if not self.grids or any(g < 2 for g in self.grids):
            raise bad("grids", "must list grid sizes >= 2")
        if self.flows_start < 1 or self.flows_end < self.flows_start:
            raise bad("flows_start/flows_end", "must satisfy 1 <= start <= end")
        if self.flows_step < 1:
            raise bad("flows_step", "must be >= 1")
        if self.flowsets_per_point < 1:
            raise bad("flowsets_per_point", "must be >= 1")
        for lo, hi in self.packet_ranges:
            if not 1 <= lo <= hi:
                raise bad("packet_ranges", f"has invalid range {lo}-{hi}")
        lo, hi = self.period_us
        if not 1 <= lo <= hi:
            raise bad("period_us", f"has invalid range {lo}-{hi}")
        jlo, jhi = self.jitter_fraction
        if not 0.0 <= jlo <= jhi:
            raise bad("jitter_fraction", f"has invalid range {jlo}-{jhi}")
        if self.cycles_per_us < 1:
            raise bad("cycles_per_us", "must be >= 1")
        if not self.maxloops or any(k < 0 for k in self.maxloops):
            raise bad("maxloops", "must list budgets >= 0")
        if not 0.0 < self.deadline_fraction <= 1.0:
            raise bad("deadline_fraction", "must be in (0, 1]")

    @classmethod
    def from_dict(cls, doc: object) -> "SweepConfig":
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for key, value in doc.items():
            if key not in known:
                raise ValueError(f"unknown config field {key!r}")
            if isinstance(value, list):
                value = tuple(
                    tuple(v) if isinstance(v, list) else v for v in value
                )
            kwargs[key] = value
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"invalid config: {exc}") from exc

    def flow_counts(self) -> tuple[int, ...]:
        return tuple(
            range(self.flows_start, self.flows_end + 1, self.flows_step)
        )

    def points(self) -> Iterator[tuple[int, tuple[int, int], int]]:
        """(grid, packet_range, n_flows) triples in output order."""
        for grid in self.grids:
            for prange in self.packet_ranges:
                for n_flows in self.flow_counts():
                    yield grid, prange, n_flows


@dataclass(frozen=True)
class SweepPoint:
    grid: int
    packet_range: tuple[int, int]
    n_flows: int
    maxloop: int
    mode: ProtocolMode
    schedulable_count: int
    total: int

    @property
    def ratio(self) -> float:
        return self.schedulable_count / self.total if self.total else 0.0


def generate_flowset(
    config: SweepConfig,
    topology: NetworkTopology,
    n_flows: int,
    packet_range: tuple[int, int],
    rng: random.Random,
) -> Flowset:
    """Random flowset: uniform period, length, jitter, and endpoint pair.

    Endpoint pairs are drawn uniformly over ordered distinct core pairs,
    independently per flow, so pairs repeat once the flow count passes the
    number of available pairs.
    """
    n_cores = topology.n_switches
    lo, hi = packet_range
    flows = []
    for i in range(n_flows):
        period = rng.randint(*config.period_us) * config.cycles_per_us
        jlo, jhi = config.jitter_fraction
        jitter = rng.randint(int(period * jlo), int(period * jhi))
        src = rng.randrange(n_cores)
        dst = rng.randrange(n_cores - 1)
        if dst >= src:
            dst += 1
        flows.append(
            Flow(
                flow_id=i,
                period=period,
                deadline=max(1, int(period * config.deadline_fraction)),
                length=rng.randint(lo, hi),
                jitter=jitter,
                src=src,
                dst=dst,
            )
        )
    return Flowset(topology, flows)


def _evaluate_point(
    config: SweepConfig, grid: int, prange: tuple[int, int], n_flows: int
) -> list[SweepPoint]:
    """All (maxloop, mode) counts for one sweep point.

    Verdict short-cuts, all exact: the proposed bound never exceeds the
    baseline bound, so a flowset unschedulable under the proposed protocol
    needs no baseline run; bounds grow with the deflection budget, so a
    flowset unschedulable at one budget stays so at larger ones; at budget 0
    the protocols produce identical bounds.
    """
    topology = generate_rlrec(grid, grid)
    budgets = tuple(sorted(config.maxloops))
    counts = {(k, mode): 0 for k in budgets for mode in _MODES}
    for i in range(config.flowsets_per_point):
        rng = random.Random(
            f"{config.seed}:flowset:{grid}:{prange[0]}-{prange[1]}"
            f":{n_flows}:{i}"
        )
        base = generate_flowset(config, topology, n_flows, prange, rng)
        alive = {mode: True for mode in _MODES}
        for k in budgets:
            if not any(alive.values()):
                break
            fs = base.with_maxloop(k)
            prop_ok = alive[ProtocolMode.PROPOSED] and quick_verdict(
                fs, ProtocolMode.PROPOSED
            )
            if k == 0:
                base_ok = prop_ok
            else:
                base_ok = (
                    alive[ProtocolMode.BASELINE]
                    and prop_ok
                    and quick_verdict(fs, ProtocolMode.BASELINE)
                )
            counts[(k, ProtocolMode.PROPOSED)] += prop_ok
            counts[(k, ProtocolMode.BASELINE)] += base_ok
            alive = {
                ProtocolMode.PROPOSED: prop_ok,
                ProtocolMode.BASELINE: base_ok,
            }
    total = config.flowsets_per_point
    return [
        SweepPoint(grid, prange, n_flows, k, mode, counts[(k, mode)], total)
        for k in budgets
        for mode in _MODES
    ]


def _point_task(
    args: tuple[SweepConfig, int, tuple[int, int], int]
) -> list[SweepPoint]:
    return _evaluate_point(*args)


def schedulability_sweep(
    config: SweepConfig, jobs: int = 1
) -> list[SweepPoint]:
    """Evaluate every configured point; rows come back in ``points`` order."""
    tasks = [(config, g, p, n) for g, p, n in config.points()]
    if jobs <= 1:
        results = [_point_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_point_task, tasks))
    return [point for chunk in results for point in chunk]


@dataclass(frozen=True)
class ImprovementRow:
    mapping_id: int
    flow_id: int
    r_base: int | None
    r_prop: int | None
    improvement_pct: float | None


@dataclass(frozen=True)
class ImprovementReport:
    rows: tuple[ImprovementRow, ...]
    n_mappings: int
    seed: str
    max_improvement_pct: float
    mean_improvement_pct: float


def improvement_report(
    traffic: Sequence[Flow],
    topology: NetworkTopology,
    n_mappings: int = 100,
    seed: str = "0",
) -> ImprovementReport:
    """Bound improvement of the proposed protocol over random placements.

    Per placement the abstract endpoints are mapped onto distinct cores and
    both protocols analyzed on the resulting flowset.  The pooled mean
    averages per-placement flow means so heavy placements cannot swamp light
    ones.  Flows whose bound diverged in either protocol are reported with
    an empty improvement and excluded from the statistics.
    """
    endpoints = sorted(
        {f.src for f in traffic} | {f.dst for f in traffic}
    )
    n_cores = topology.n_switches
    if len(endpoints) > n_cores:
        raise ModelError(
            f"traffic uses {len(endpoints)} endpoints but the grid has "
            f"only {n_cores} cores"
        )
    rows: list[ImprovementRow] = []
    mapping_means: list[float] = []
    best = 0.0
    for mapping_id in range(n_mappings):
        rng = random.Random(f"{seed}:mapping:{mapping_id}")
        cores = rng.sample(range(n_cores), len(endpoints))
        placement = dict(zip(endpoints, cores))
        remapped = [
            replace(f, src=placement[f.src], dst=placement[f.dst])
            for f in traffic
        ]
        flowset = Flowset(topology, remapped)
        base = analyze(flowset, ProtocolMode.BASELINE)
        prop = analyze(flowset, ProtocolMode.PROPOSED)
        gains: list[float] = []
        for fb, fp in zip(base.flows, prop.flows):
            if fb.bound is None or fp.bound is None:
                pct = None
            else:
                pct = (fb.bound - fp.bound) / fb.bound * 100.0
                gains.append(pct)
                best = max(best, pct)
            rows.append(
                ImprovementRow(mapping_id, fb.flow_id, fb.bound, fp.bound, pct)
            )
        if gains:
            mapping_means.append(fmean(gains))
    return ImprovementReport(
        rows=tuple(rows),
        n_mappings=n_mappings,
        seed=seed,
        max_improvement_pct=best,
        mean_improvement_pct=fmean(mapping_means) if mapping_means else 0.0,
    )
