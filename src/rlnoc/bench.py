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

import math
import random
from dataclasses import dataclass, fields
from typing import Iterator, NamedTuple, Sequence, get_args, get_origin, get_type_hints

from .analysis import ProtocolMode, analyze, quick_verdict
from .model import Flow, Flowset, ModelError, NetworkTopology, generate_rlrec, sampler

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

        def fits(value: object, hint: object) -> bool:
            args = get_args(hint)
            if get_origin(hint) is tuple:
                if args[-1] is Ellipsis and isinstance(value, tuple):
                    args = args[:1] * len(value)
                return (isinstance(value, tuple) and len(value) == len(args)
                        and all(map(fits, value, args)))
            # A bool is not a number.
            return type(value) in ((int, float) if hint is float else (hint,))

        # The seed only names draws, so any value will do.
        for f in fields(self):
            if f.name != "seed" and not fits(getattr(self, f.name), _HINTS[f.name]):
                raise bad(f.name, f"must be of type {f.type}")
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
        # A repeat would count its flowsets once more in every row it shares.
        for name in ("grids", "packet_ranges", "maxloops"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise bad(name, "must not repeat an entry")

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


_HINTS = get_type_hints(SweepConfig)  # resolved once, not per config


class SweepPoint(NamedTuple):
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
    number of available pairs.  Every value is drawn through
    ``model.sampler``, with the same bits from ``rng`` as ``rng.randint``
    and ``rng.randrange`` would take.
    """
    n_cores = topology.n_switches
    lo, hi = packet_range
    plo, phi = config.period_us
    jlo, jhi = config.jitter_fraction
    cycles, share = config.cycles_per_us, config.deadline_fraction
    # Every width drawn below is at least 1: the config orders its ranges,
    # and these are checked here.
    if n_flows and (hi < lo or n_cores < 2):
        raise ValueError(f"cannot draw flows of {lo}-{hi} flits "
                         f"between {n_cores} cores")
    below = sampler(rng.getrandbits)
    periods, lengths = phi - plo + 1, hi - lo + 1
    flows = []
    for i in range(n_flows):
        period = (plo + below(periods)) * cycles
        jitter = int(period * jlo)
        jitter += below(int(period * jhi) - jitter + 1)
        src = below(n_cores)
        dst = below(n_cores - 1)
        if dst >= src:
            dst += 1
        # Flow(flow_id, period, deadline, length, jitter, src, dst); the
        # length is drawn last.
        flows.append(Flow(i, period, max(1, int(period * share)),
                          lo + below(lengths), jitter, src, dst))
    return Flowset(topology, flows)


def _evaluate_point(
    config: SweepConfig, topology: NetworkTopology, prange: tuple[int, int],
    n_flows: int,
) -> list[SweepPoint]:
    """All (maxloop, mode) counts for one sweep point.

    Verdict short-cuts, all exact: the proposed bound never exceeds the
    baseline bound, so a flowset unschedulable under the proposed protocol
    needs no baseline run; bounds grow with the deflection budget, so a
    flowset unschedulable at one budget stays so at larger ones; at budget 0
    the protocols produce identical bounds.
    """
    grid = topology.rows
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


def schedulability_sweep(
    config: SweepConfig, jobs: int = 1
) -> list[SweepPoint]:
    """Evaluate every configured point; rows come back in ``points`` order.

    Each grid's topology, with its route table, is built once per call.
    ``jobs`` is capped at the number of points, as a pool may fork all its
    workers at once; one job or one point runs in this process.
    """
    topologies = {g: generate_rlrec(g, g) for g in config.grids}
    tasks = [(config, topologies[g], p, n) for g, p, n in config.points()]
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        results = [_evaluate_point(*t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_evaluate_point, *zip(*tasks)))
    return [point for chunk in results for point in chunk]


class ImprovementRow(NamedTuple):
    mapping_id: int
    flow_id: int
    r_base: int | None
    r_prop: int | None
    improvement_pct: float | None


class ImprovementReport(NamedTuple):
    rows: tuple[ImprovementRow, ...]
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
    ones.  A flow whose bound diverged or did not converge in either
    protocol is reported with an empty improvement and kept out of the
    statistics; a bound that did not converge may lie below the fixed
    point, so it is reported empty too.
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
        # A direct build costs about half of ``Flow._replace``.
        remapped = [
            Flow(f.flow_id, f.period, f.deadline, f.length, f.jitter,
                 placement[f.src], placement[f.dst], f.maxloop)
            for f in traffic
        ]
        flowset = Flowset(topology, remapped)
        base = analyze(flowset, ProtocolMode.BASELINE)
        prop = analyze(flowset, ProtocolMode.PROPOSED)
        gains: list[float] = []
        for fb, fp in zip(base.flows, prop.flows):
            r_base = fb.bound if fb.converged else None
            r_prop = fp.bound if fp.converged else None
            if r_base is None or r_prop is None:
                pct = None
            else:
                pct = (r_base - r_prop) / r_base * 100.0
                gains.append(pct)
                best = max(best, pct)
            rows.append(
                ImprovementRow(mapping_id, fb.flow_id, r_base, r_prop, pct)
            )
        if gains:
            mapping_means.append(math.fsum(gains) / len(gains))
    return ImprovementReport(
        rows=tuple(rows),
        max_improvement_pct=best,
        mean_improvement_pct=(math.fsum(mapping_means) / len(mapping_means)
                              if mapping_means else 0.0),
    )
