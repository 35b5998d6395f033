"""Alternating parent/change pairs of the benchmark, summarised as JSON.

Each pair runs ``perfbench/run.py`` once in each of two checkouts, one run
at a time, with ``PYTHONDONTWRITEBYTECODE=1`` so that every run compiles
``src/`` anew, as a fresh checkout does.  The side that goes first
alternates from pair to pair, so a slow spell of the host does not always
fall on the same side.  Example, from the root of the change's checkout:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload sim_hotspot --seed 0 --seconds 35 --pairs 10 \\
        --out BENCH_29.json

Repeat ``--workload`` and ``--seed`` to run every combination; the output
holds every run, each side's median and quartiles per metric, and the
number of pairs in which the change was better.  Which way is better is
read from ``BENCHMARK.json`` in the change's checkout.  An existing output
file is extended: a (workload, seed) entry is replaced, others are kept.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(checkout: str, workload: str, seed: int, seconds: float
             ) -> dict:
    """The JSON result line of one ``perfbench/run.py --trace 0`` run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, the parent's IQR, the
    gap between the medians, change/parent per pair and the pairs won."""
    out = {}
    for name, way in better.items():
        side = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                for s in SIDES}
        won = sum((c > p) if way == "higher" else (c < p)
                  for p, c in zip(side["parent"], side["change"]))
        q1, q3 = quartiles(side["parent"])
        entry = {"better": way}
        for s in SIDES:
            entry[f"{s}_median"] = statistics.median(side[s])
            entry[f"{s}_q1_q3"] = list(quartiles(side[s]))
        entry.update(
            parent_iqr=q3 - q1,
            median_gap=entry["change_median"] - entry["parent_median"],
            median_ratio=entry["change_median"] / entry["parent_median"],
            pair_ratios=[round(c / p, 4) for p, c in
                         zip(side["parent"], side["change"])],
            change_better_pairs=f"{won}/{len(pairs)}",
            values=side,
        )
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", action="append", type=int)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")

    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    doc: dict = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["host"] = (f"nproc={os.cpu_count()} "
                   f"python={platform.python_version()} "
                   f"machine={platform.machine()}")
    doc["quartiles"] = "statistics.quantiles(n=4, method='inclusive')"
    runs = doc.setdefault("runs", {})
    for workload in args.workload:
        for seed in args.seed or [0]:
            key = f"{workload}_seed{seed}"
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    checkout = getattr(args, side)
                    pair[side] = run_once(checkout, workload, seed,
                                          args.seconds)
                    value = pair[side]["metrics"]["throughput_per_s"]["value"]
                    print(f"{key} pair {i + 1} {side}: {value:.6g}/s",
                          flush=True)
                pairs.append(pair)
            runs[key] = {
                "command": (f"perfbench/run.py --workload {workload} --seed "
                            f"{seed} --seconds {args.seconds:g} --trace 0"),
                "pairs": pairs,
                "summary": summarise(pairs, better),
            }
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
