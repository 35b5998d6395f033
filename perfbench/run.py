"""Benchmark of rlnoc: one workload, run through ``rlnoc.cli.main``.

Run from the root of an rlnoc checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

The program is imported from ``src/`` of the current directory.  Each CLI
call runs in this process, one after another (a closed loop with one
client), with its standard output captured.  A round is the workload's
fixed list of calls; rounds repeat until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics: the workload's throughput from
each call's median time over the rounds, set-up time and peak memory.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics of
``tracing.PER_LAYER``.  Every output file is checked (see ``workloads``).
The last line of standard output is one JSON object with the result.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import tracing
import workloads

DEFAULT_SEED = 0
SETUP_REPS = 5
WORK_DIR = ".perfbench_work"
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def import_program(src: str):
    """Import ``rlnoc.cli`` from ``src``, executing every rlnoc module anew."""
    for name in [n for n in sys.modules
                 if n == "rlnoc" or n.startswith("rlnoc.")]:
        del sys.modules[name]
    cli = importlib.import_module("rlnoc.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"rlnoc came from {cli.__file__}, not from {src}")
    return cli


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Runs rounds of one workload's calls and checks every output.

    With ``reference`` given, each output must have the recorded digest;
    otherwise it must repeat the digest it had in the first round.  Outputs
    are also checked against the workload's invariants the first time they
    appear.
    """

    def __init__(self, cli, calls: list[workloads.Call],
                 reference: dict[str, str] | None) -> None:
        self.calls = calls
        self.reference = reference
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.flit_hops = 0
        # The flit-hop count of a simulation is not in its output files; a
        # pass-through keeps it from the trace that cli.run returns.
        run = cli.run

        @functools.wraps(run)
        def counting_run(*args, **kwargs):
            trace = run(*args, **kwargs)
            self.flit_hops += trace.flit_hops
            return trace

        cli.run = counting_run

    def round(self, main) -> list[tuple[str, float, int]]:
        """Run every call once; return (label, seconds, work) per call."""
        done = []
        for call in self.calls:
            hops = self.flit_hops
            stdout, stderr = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = main(list(call.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a call that raises is a failed one
                code = repr(exc)
            seconds = time.perf_counter() - start
            work = call.work if call.work is not None else self.flit_hops - hops
            done.append((call.label, seconds, work))
            self.attempted += 1
            if code != 0:
                problems = [f"exit {code}: {stderr.getvalue().strip()[-500:]}"]
            else:
                problems = self._check(call)
            if problems:
                self.failed += 1
                for problem in problems[:10]:
                    print(f"FAIL {call.label}: {problem}", file=sys.stderr)
        return done

    def _check(self, call: workloads.Call) -> list[str]:
        problems = []
        first = False
        for name in call.outputs:
            key = f"{call.label}/{name}"
            path = os.path.join(call.out_dir, name)
            if not os.path.isfile(path):
                problems.append(f"{name} was not written")
                continue
            digest = _digest(path)
            first = first or key not in self.digests
            seen = self.digests.setdefault(key, digest)
            expected = seen if self.reference is None else self.reference.get(key)
            if digest != expected:
                problems.append(f"{name}: sha256 {digest[:16]}, expected "
                                f"{(expected or 'a recorded digest')[:16]}")
        if first and not problems:
            problems = call.check(call.out_dir)
        return problems


def untraced(runner: Runner, main, seconds: float
             ) -> tuple[dict[str, list[float]], dict[str, int]]:
    """Seconds of each call per label, and its work, for ``seconds``."""
    times: dict[str, list[float]] = {}
    work: dict[str, int] = {}
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        for label, spent, done in runner.round(main):
            times.setdefault(label, []).append(spent)
            work[label] = done
    return times, work


def traced(runner: Runner, main, seconds: float
           ) -> tuple[dict[str, float], list[str]]:
    """Untraced and traced rounds in turn, at least two of each."""
    walls: list[float] = []
    rounds: list[dict[str, float]] = []
    table: list[str] = []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        walls.append(sum(t for _, t, _ in runner.round(main)))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall = sum(t for _, t, _ in
                       runner.round(tracer.wrap("cli.main", main)))
        finally:
            tracer.uninstall()
        calls, self_s = tracer.fold()
        rounds.append(tracing.round_metrics(tracer, calls, self_s, wall))
        table = tracing.span_table(calls, self_s)
    print("spans of the last traced round:")
    print("\n".join(table))
    return tracing.combine(rounds, walls)


def machine() -> str:
    return (f"nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} "
            f"machine={platform.machine()}")


def run(args: argparse.Namespace, src: str, work_dir: str) -> int:
    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        cli = import_program(src)
        calls = workloads.build(args.workload, args.size, args.seed,
                                work_dir, cli)
        setups.append(time.perf_counter() - start)
    with open(REFERENCE, encoding="utf-8") as fh:
        references = json.load(fh)
    reference = references[args.size].get(args.workload, {})
    if args.record:
        runner = Runner(cli, calls, None)
        runner.round(cli.main)
        if runner.failed:
            return 1
        references[args.size][args.workload] = dict(sorted(runner.digests.items()))
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(references, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"recorded {len(runner.digests)} digests")
        return 0

    runner = Runner(cli, calls,
                    reference if args.seed == DEFAULT_SEED else None)
    print(f"machine: {machine()}")
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"{len(calls)} calls per round")
    correct = True
    if args.trace:
        values, mismatched = traced(runner, cli.main, args.seconds)
        for name in mismatched:
            print(f"FAIL exact count {name} differs between traced rounds",
                  file=sys.stderr)
        correct = not mismatched
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        for name, value in values.items():
            print(f"  {name} = {value:.6g} {units[name]}")
    else:
        times, work = untraced(runner, cli.main, args.seconds)
        name, what = workloads.THROUGHPUT[args.workload]
        for label, spent in times.items():
            print(f"{label}: work {work[label]}, seconds "
                  + " ".join(f"{t:.4f}" for t in spent))
        # Each call's median time over the rounds: calls last well under a
        # second, so a slow spell of a shared host moves few of a call's
        # samples.
        throughput = sum(work.values()) / sum(
            statistics.median(spent) for spent in times.values())
        values = {
            "throughput_per_s": throughput,
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"throughput_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"{name} ({what} per host second) = {throughput:.6g} 1/s, "
              f"setup_s = {values['setup_s']:.6g} s, "
              f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB, "
              f"fail_ratio = {runner.failed}/{runner.attempted}")
    print(json.dumps({
        "correct": correct and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        default="full")
    parser.add_argument("--record", action="store_true",
                        help="store the digests of one round at the "
                             "default seed as the reference, then exit")
    args = parser.parse_args(argv)
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record needs --seed {DEFAULT_SEED}")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rlnoc", "cli.py")):
        print("error: src/rlnoc/cli.py not found; run from the root of an "
              "rlnoc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work_root = os.path.join(root, WORK_DIR)
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        return run(args, src, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)


if __name__ == "__main__":
    raise SystemExit(main())
