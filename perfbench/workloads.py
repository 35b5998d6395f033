"""Inputs, CLI calls and output checks of the three benchmark workloads.

A workload is a fixed list of ``rlnoc`` command lines (one *round*), made
from the benchmark seed.  The program sees only the generated inputs.  Every
output file is checked after each call: by SHA-256 digest, and on its first
appearance in a run also by invariants that hold for any seed.
"""
from __future__ import annotations

import csv
import functools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("sweep", "placement", "sim_hotspot")

# Per workload: the name of its throughput and the unit of work it counts.
THROUGHPUT = {
    "sweep": ("flowsets_per_s", "flowsets decided"),
    "placement": ("mappings_per_s", "placements analysed in both protocols"),
    "sim_hotspot": ("flit_hops_per_s", "simulated flit-hops"),
}

# Full size is what the benchmark measures.  Its calls last well under a
# second, so that a run times each call many times and the median of those
# times sees past the slow spells of a shared host.  Smoke size exercises
# the same paths in a few seconds for perfbench/test_smoke.py.
SIZES = {
    "full": {
        "sweep": {"flowsets_per_point": 1},
        "placement": {"grids": (4, 5, 6, 7, 8, 9), "mappings": 100},
        "sim_hotspot": {"mix": ((4, 24), (5, 36), (6, 48)), "horizon": 25_000},
    },
    "smoke": {
        "sweep": {"flowsets_per_point": 1, "grids": [4], "flows_end": 60},
        "placement": {"grids": (4, 5), "mappings": 5},
        "sim_hotspot": {"mix": ((4, 24), (5, 36)), "horizon": 5_000},
    },
}

HOTSPOT_SEEDS_PER_SIZE = 2


@dataclass(frozen=True)
class Call:
    """One CLI call: its argv, its output directory and the files it writes."""

    label: str
    argv: tuple[str, ...]
    out_dir: str
    outputs: tuple[str, ...]
    check: Callable[[str], list[str]]
    work: int | None  # None: counted from the simulator's returned traces


def build(workload: str, size: str, seed: int, root: str,
          cli) -> list[Call]:
    """Write the workload's inputs under ``root``; return its round of calls."""
    spec = SIZES[size][workload]
    return {
        "sweep": _sweep,
        "placement": _placement,
        "sim_hotspot": _sim_hotspot,
    }[workload](spec, str(seed), root, cli)


def _sweep(spec: dict, seed: str, root: str, cli) -> list[Call]:
    """One call per grid and packet range of the shipped configuration.

    Flowsets are seeded by name, so together the calls decide the same
    flowsets as one call over every grid and range would.
    """
    shipped = cli.SweepConfig.from_dict(dict(spec, seed=seed))
    calls = []
    for grid in shipped.grids:
        for lo, hi in shipped.packet_ranges:
            label = f"sweep-{grid}x{grid}-{lo}-{hi}"
            doc = dict(spec, seed=seed, grids=[grid], packet_ranges=[[lo, hi]])
            path = os.path.join(root, f"{label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
            config = cli.SweepConfig.from_dict(doc)
            out = os.path.join(root, label)
            calls.append(Call(
                label=label,
                argv=("sweep", "--config", path, "--jobs", "1",
                      "--out-dir", out),
                out_dir=out,
                outputs=("sweep.csv",),
                check=functools.partial(check_sweep, config=config),
                work=len(list(config.points())) * config.flowsets_per_point,
            ))
    return calls


def _placement(spec: dict, seed: str, root: str, cli) -> list[Call]:
    n_flows = len(cli.load_traffic(cli.sample_traffic_path()))
    mappings = spec["mappings"]
    calls = []
    for grid in spec["grids"]:
        out = os.path.join(root, f"improve-{grid}x{grid}")
        calls.append(Call(
            label=f"improve-{grid}x{grid}",
            argv=("improve", "--grid", str(grid), "--mappings", str(mappings),
                  "--seed", seed, "--out-dir", out),
            out_dir=out,
            outputs=("improvement.csv",),
            check=functools.partial(check_improvement, mappings=mappings,
                                    n_flows=n_flows),
            work=mappings,
        ))
    return calls


def hotspot_flowset(grid: int, n_flows: int, rng: random.Random,
                    rings: list[list[int]]) -> dict:
    """Flowset document whose destinations are all among ``grid`` hot cores.

    Many-to-few traffic contends for few ejection links, so packets get
    deflected and header-only retention and re-injection run.  Packets of
    2-4 flits fit every ring of the generated layout (the smallest has four
    switches), which keeps each flowset inside the simulator's envelope.
    """
    cores = grid * grid
    hot = rng.sample(range(cores), grid)
    flows = []
    for i in range(n_flows):
        dst = rng.choice(hot)
        src = rng.randrange(cores - 1)
        if src >= dst:
            src += 1
        period = rng.randint(100, 1500)
        flows.append({
            "id": i, "T": period, "D": period, "L": rng.randint(2, 4),
            "J": rng.randint(0, period // 2), "src": src, "dst": dst,
            "maxloop": None,
        })
    return {"rows": grid, "cols": grid, "rings": rings, "flows": flows}


def _sim_hotspot(spec: dict, seed: str, root: str, cli) -> list[Call]:
    calls = []
    for grid, n_flows in spec["mix"]:
        rings = [list(r.switches) for r in cli.generate_rlrec(grid, grid).rings]
        for k in range(HOTSPOT_SEEDS_PER_SIZE):
            rng = random.Random(f"{seed}:hotspot:{grid}x{grid}:{n_flows}:{k}")
            label = f"simulate-{grid}x{grid}-{n_flows}-{k}"
            path = os.path.join(root, f"{label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(hotspot_flowset(grid, n_flows, rng, rings), fh)
            out = os.path.join(root, label)
            calls.append(Call(
                label=label,
                argv=("simulate", path, "--mode", "both", "--pattern",
                      "jitter", "--horizon", str(spec["horizon"]),
                      "--seed", seed, "--out-dir", out),
                out_dir=out,
                outputs=tuple(f"{kind}_{mode}.csv"
                              for kind in ("trace", "summary")
                              for mode in ("baseline", "proposed")),
                check=check_simulation,
                work=None,
            ))
    return calls


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(out_dir: str, config) -> list[str]:
    """Counts in range, proposed never behind baseline, budgets monotone."""
    path = os.path.join(out_dir, "sweep.csv")
    rows = _rows(path)
    problems = []
    expected = len(list(config.points())) * len(config.maxloops) * 2
    if len(rows) != expected:
        problems.append(f"{path}: {len(rows)} rows, expected {expected}")
    count: dict[tuple, int] = {}
    for r in rows:
        n, total = int(r["schedulable_count"]), int(r["total"])
        if total != config.flowsets_per_point or not 0 <= n <= total:
            problems.append(f"{path}: bad counts {n}/{total}")
        if r["ratio"] != f"{n / total:.4f}":
            problems.append(f"{path}: ratio {r['ratio']} for {n}/{total}")
        point = (r["grid"], r["packet_range"], r["n_flows"])
        count[(point, int(r["maxloop"]), r["mode"])] = n
    budgets = sorted(config.maxloops)
    for (point, k, mode), n in count.items():
        if mode == "proposed" and n < count.get((point, k, "baseline"), 0):
            problems.append(f"{path}: baseline ahead at {point} maxloop={k}")
        if k == 0 and n != count.get((point, k, "proposed")):
            problems.append(f"{path}: protocols differ at {point} maxloop=0")
        later = [b for b in budgets if b > k]
        if later and count.get((point, later[0], mode), 0) > n:
            problems.append(f"{path}: count rises with budget at {point}")
    return problems


def check_improvement(out_dir: str, mappings: int, n_flows: int) -> list[str]:
    """One row per flow per mapping; proposed bound never above baseline."""
    path = os.path.join(out_dir, "improvement.csv")
    rows = _rows(path)
    problems = []
    if len(rows) != mappings * n_flows:
        problems.append(
            f"{path}: {len(rows)} rows, expected {mappings * n_flows}")
    for r in rows:
        if not r["R_base"] or not r["R_prop"]:
            if r["improvement_pct"]:
                problems.append(f"{path}: improvement without both bounds")
            continue
        base, prop = int(r["R_base"]), int(r["R_prop"])
        if prop > base:
            problems.append(f"{path}: R_prop {prop} > R_base {base}")
        if r["improvement_pct"] != f"{(base - prop) / base * 100.0:.2f}":
            problems.append(f"{path}: improvement_pct {r['improvement_pct']}")
    return problems


def check_simulation(out_dir: str) -> list[str]:
    """No bound violations; traces and summaries agree; delivered <= released."""
    problems = []
    for mode in ("baseline", "proposed"):
        trace = _rows(os.path.join(out_dir, f"trace_{mode}.csv"))
        summary = _rows(os.path.join(out_dir, f"summary_{mode}.csv"))
        released: dict[str, int] = {}
        delivered: dict[str, int] = {}
        for r in trace:
            fid = r["flow_id"]
            released[fid] = released.get(fid, 0) + 1
            if r["violated_bound"] != "false":
                problems.append(f"{out_dir} {mode}: flow {fid} packet "
                                f"{r['packet_seq']} exceeded its bound")
            if r["eject_end"]:
                delivered[fid] = delivered.get(fid, 0) + 1
                latency = int(r["eject_end"]) - int(r["release"]) + 1
                if (int(r["inject_start"]) < int(r["release"])
                        or int(r["latency"]) != latency):
                    problems.append(f"{out_dir} {mode}: flow {fid} packet "
                                    f"{r['packet_seq']} has bad times")
        for s in summary:
            fid = s["flow_id"]
            if (int(s["packets"]) != released.get(fid, 0)
                    or int(s["delivered"]) != delivered.get(fid, 0)
                    or int(s["delivered"]) > int(s["packets"])
                    or s["bound_violations"] != "0"):
                problems.append(f"{out_dir} {mode}: summary of flow {fid} "
                                f"disagrees with its trace")
        if len(summary) != len(released):
            problems.append(f"{out_dir} {mode}: summary misses flows")
    return problems
