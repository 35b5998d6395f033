"""Smoke test of the benchmark at reduced size.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs for a moment at smoke size, untraced and traced.  The
test checks that every metric of BENCHMARK.json is printed with its unit,
that the outputs pass their digest checks, that a wrong reference digest is
caught, that the traced runs emit spans for every layer, and that the
benchmark refuses to run outside a checkout.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(cwd: str, workload: str, trace: int) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0.2",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout, proc.stderr


def result(stdout: str) -> dict:
    doc = json.loads(stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    out = {}
    for workload in workloads.WORKLOADS:
        code, stdout, stderr = bench(ROOT, workload, 1)
        assert code == 0, stderr
        out[workload] = result(stdout)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload: str) -> None:
    code, stdout, stderr = bench(ROOT, workload, 0)
    assert code == 0, stderr
    doc = result(stdout)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    name, _ = workloads.THROUGHPUT[workload]
    assert f"{name} (" in stdout and "fail_ratio = 0/" in stdout


def test_traced_runs_print_every_per_layer_metric(traced: dict) -> None:
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units == {name: unit for name, unit, _ in tracing.PER_LAYER}
    for doc in traced.values():
        assert doc["correct"] and doc["failed"] == 0
        assert {n: m["unit"] for n, m in doc["metrics"].items()} == units


def test_traced_runs_cover_every_layer(traced: dict) -> None:
    covered = set()
    for doc in traced.values():
        m = {name: v["value"] for name, v in doc["metrics"].items()}
        if m["cli.main.self_s"] > 0:
            covered.add("cli")
        covered |= {layer for layer in tracing.LAYERS
                    if m.get(f"{layer}.self_s", 0) > 0}
        # Spans nest inside the calls: what no layer claims is the loop
        # between calls, which tracing may not inflate beyond its overhead.
        slack = max(abs(m["trace.overhead_s"]), 0.01 * m["trace.wall_s"])
        assert 0 <= m["trace.unattributed_s"] <= slack
    assert covered == set(tracing.LAYERS)
    sweep = {n: v["value"] for n, v in traced["sweep"]["metrics"].items()}
    assert sweep["analysis.quick_verdict.calls"] > 0
    sim = {n: v["value"] for n, v in traced["sim_hotspot"]["metrics"].items()}
    assert sim["sim.run.flit_hops"] > 0 and sim["sim.bound_violations"] == 0


def test_wrong_reference_digest_is_a_failure(tmp_path) -> None:
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    ref_path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    key = next(iter(ref["smoke"]["placement"]))
    ref["smoke"]["placement"][key] = "0" * 64
    ref_path.write_text(json.dumps(ref))
    code, stdout, stderr = bench(str(tmp_path), "placement", 0)
    assert code == 0, stderr
    doc = result(stdout)
    assert not doc["correct"] and doc["failed"] >= 1
    assert "sha256" in stderr


def test_refuses_to_run_outside_a_checkout(tmp_path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, stdout, _ = bench(str(tmp_path), "sweep", 0)
    assert code != 0 and '"correct"' not in stdout
