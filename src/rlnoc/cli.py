"""Command-line front end.

Exit codes: 0 on success, 1 when a simulation exceeded an analysis bound,
2 for unusable inputs (malformed files, impossible topologies) and for
files or directories that cannot be read or written, 3 when the simulator
broke one of its own invariants (such as a ring buffer overflow).  All output
artifacts are deterministic functions of the inputs and seeds; runs that
take a seed drop a ``run_meta.json`` next to their outputs recording it.
"""
from __future__ import annotations

import argparse
import os
import random
import sys

from .analysis import ProtocolMode, analyze, terms
from .bench import (
    SweepConfig,
    generate_flowset,
    improvement_report,
    schedulability_sweep,
)
from .files import (
    FileFormatError,
    load_flowset,
    load_sweep_config,
    load_traffic,
    sample_traffic_path,
    save_flowset,
    write_improvement_csv,
    write_report_csv,
    write_run_meta,
    write_sweep_csv,
    write_terms_csv,
    write_trace_csv,
    write_trace_summary_csv,
)
from .model import Flowset, ModelError, generate_rlrec
from .sim import PATTERNS, SimInvariantError, run


def _modes(arg: str) -> tuple[ProtocolMode, ...]:
    if arg == "both":
        return (ProtocolMode.BASELINE, ProtocolMode.PROPOSED)
    return (ProtocolMode(arg),)


def _packet_range(arg: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in arg.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO-HI, got {arg!r}"
        ) from None
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"invalid packet range {arg!r}")
    return lo, hi


def _count(arg: str, least: int = 1) -> int:
    try:
        value = int(arg)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {arg!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _budget(arg: str) -> int:
    return _count(arg, 0)


def _out_dir(args: argparse.Namespace) -> str:
    out = args.out_dir or os.environ.get("RLNOC_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_gen_topology(args: argparse.Namespace) -> int:
    top = generate_rlrec(args.rows, args.cols)
    save_flowset(args.out, Flowset(top, []))
    print(
        f"{args.rows}x{args.cols}: {len(top.rings)} rings -> {args.out}"
    )
    return 0


def _cmd_gen_flowset(args: argparse.Namespace) -> int:
    lo, hi = args.packet_range
    config = SweepConfig(seed=args.seed)
    rng = random.Random(
        f"{args.seed}:gen-flowset:{args.grid}:{lo}-{hi}:{args.flows}"
    )
    fs = generate_flowset(
        config, generate_rlrec(args.grid, args.grid), args.flows,
        args.packet_range, rng,
    )
    if args.maxloop is not None:
        fs = fs.with_maxloop(args.maxloop)
    save_flowset(args.out, fs)
    out_parent = os.path.dirname(args.out) or "."
    write_run_meta(
        out_parent, command="gen-flowset", seed=args.seed, grid=args.grid,
        flows=args.flows, packet_range=f"{lo}-{hi}", maxloop=args.maxloop,
    )
    print(f"{args.flows} flows on {args.grid}x{args.grid} -> {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    fs = load_flowset(args.flowset)
    out = _out_dir(args)
    reports = [analyze(fs, mode) for mode in _modes(args.mode)]
    path = os.path.join(out, "report.csv")
    write_report_csv(path, reports)
    write_terms_csv(os.path.join(out, "terms.csv"),
                    [(r.mode, terms(fs, r.mode)) for r in reports])
    for report in reports:
        for fa in report.flows:
            if fa.bound is None:
                bound = "diverged"
            elif not fa.converged:
                bound = "not-converged"
            else:
                bound = fa.bound
            verdict = "ok" if fa.schedulable else "MISS"
            print(
                f"flow {fa.flow_id} {report.mode.value}: C={fa.no_load} "
                f"R={bound} D={fa.deadline} {verdict}"
            )
        print(
            f"{report.mode.value}: "
            f"{'schedulable' if report.schedulable else 'unschedulable'} "
            f"({report.passes} passes)"
        )
    print(f"wrote {path} and terms.csv")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    fs = load_flowset(args.flowset)
    out = _out_dir(args)
    violations = 0
    for mode in _modes(args.mode):
        report = analyze(fs, mode)
        bounds = {fa.flow_id: fa.bound for fa in report.flows if fa.converged}
        trace = run(
            fs, mode, pattern=PATTERNS[args.pattern], horizon=args.horizon,
            seed=args.seed, bounds=bounds,
            protocol_check=args.protocol_check,
        )
        write_trace_csv(os.path.join(out, f"trace_{mode.value}.csv"), trace)
        tally = trace.per_flow()
        write_trace_summary_csv(
            os.path.join(out, f"summary_{mode.value}.csv"), trace, tally
        )
        for fid, (packets, delivered, violated) in tally.items():
            bound = bounds.get(fid, "-")
            worst = trace.max_latency.get(fid, "-")
            status = "ok" if violated == 0 else f"{violated} VIOLATIONS"
            print(
                f"flow {fid} {mode.value}: packets={packets} "
                f"delivered={delivered} max_latency={worst} "
                f"bound={bound} {status}"
            )
        # A flow is checked when it released a packet and has a converged bound.
        checked = sum(fid in bounds for fid in tally)
        print(f"{mode.value}: {checked}/{len(fs)} flows checked against a "
              f"converged bound")
        violations += trace.bound_violations
    write_run_meta(
        out, command="simulate", seed=args.seed, flowset=args.flowset,
        mode=args.mode, pattern=args.pattern, horizon=args.horizon,
    )
    return 1 if violations else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = (
        load_sweep_config(args.config) if args.config else SweepConfig()
    )
    out = _out_dir(args)
    points = schedulability_sweep(config, jobs=args.jobs)
    path = os.path.join(out, "sweep.csv")
    write_sweep_csv(path, points)
    for p in points:
        print(
            f"{p.grid}x{p.grid} L={p.packet_range[0]}-{p.packet_range[1]} "
            f"n={p.n_flows} maxloop={p.maxloop} {p.mode.value}: "
            f"{p.schedulable_count}/{p.total}"
        )
    write_run_meta(out, command="sweep", seed=config.seed, config=args.config)
    print(f"wrote {path}")
    return 0


def _cmd_improve(args: argparse.Namespace) -> int:
    traffic = load_traffic(args.traffic)
    out = _out_dir(args)
    report = improvement_report(
        traffic, generate_rlrec(args.grid, args.grid),
        n_mappings=args.mappings, seed=args.seed,
    )
    path = os.path.join(out, "improvement.csv")
    write_improvement_csv(path, report.rows)
    write_run_meta(
        out, command="improve", seed=args.seed, traffic=args.traffic,
        grid=args.grid, mappings=args.mappings,
    )
    print(
        f"{args.grid}x{args.grid}, {args.mappings} mappings: "
        f"max improvement {report.max_improvement_pct:.2f}%, "
        f"mean {report.mean_improvement_pct:.2f}%"
    )
    print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlnoc",
        description="Latency bounds and simulation for routerless ring NoCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-topology", help="write a ring layout")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_topology)

    p = sub.add_parser("gen-flowset", help="write a random flowset")
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--flows", type=_count, required=True)
    p.add_argument("--packet-range", type=_packet_range, default=(16, 48))
    p.add_argument("--maxloop", type=_budget, default=None)
    p.add_argument("--seed", default="0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_flowset)

    p = sub.add_parser("analyze", help="worst-case latency bounds")
    p.add_argument("flowset")
    p.add_argument("--mode", choices=("baseline", "proposed", "both"),
                   default="both")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="cycle-accurate run against bounds")
    p.add_argument("flowset")
    p.add_argument("--mode", choices=("baseline", "proposed", "both"),
                   default="both")
    p.add_argument("--horizon", type=_count, default=None)
    p.add_argument("--seed", default="0")
    p.add_argument("--pattern", choices=sorted(PATTERNS),
                   default="synchronous")
    p.add_argument("--protocol-check", action="store_true")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="schedulability-ratio study")
    p.add_argument("--config", default=None)
    p.add_argument("--jobs", type=_count, default=1)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("improve", help="placement improvement study")
    p.add_argument("--traffic", default=sample_traffic_path())
    p.add_argument("--grid", type=int, default=4)
    p.add_argument("--mappings", type=_count, default=100)
    p.add_argument("--seed", default="0")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_improve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        reason = exc.strerror or str(exc)
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{reason}", file=sys.stderr)
        return 2
    except SimInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
