"""Byte-identity guard: small seeded runs must reproduce frozen artifacts.

The SHA-256 digests below were recorded from the same commands before the
flowset index was rewritten (the 4x4/100 case before the analysis passes
were merged into one driver, the simulation case before the simulator's
state was rebuilt around one flit-range record).  A change that alters any of these bytes
changes a result, not just its speed.
"""
import hashlib
import json

import rlnoc.cli as cli

SWEEP_CONFIG = {
    "grids": [4],
    "flows_start": 20,
    "flows_end": 100,
    "flowsets_per_point": 3,
}

GOLDEN = {
    "sweep.csv": "e06051faa9fec530ed3c5b609ea4a0947c98826331eec01f048699b39afcb7e4",
    "improvement.csv": "4dc2771a4bc716606549128b9b104810a5bda97fd514e6aedbd559dc7158dcd7",
    "fs.json": "df008fa2e3ca5f622652938cc62ab1b6e232e3334e1e7f5e2a1f9bc36de322aa",
    "report.csv": "23c664879d94e46635cd32eb5f4cad66520572f7f79c61032e54e073ed8ca26d",
    # 4x4, 100 flows, maxloop 2: every baseline flow diverges and 14
    # proposed flows miss their deadlines, over 12 outer passes.
    "fs_4x4_100.json": "07ce82598cadb0c8ee93c9eb2d6566a7e79216545dbcb5429163ae7f3cf1163b",
    "report_4x4_100.csv": "e226ef667ff0920e9bedfbeb39c63e13e4c2c999af3145297c33ee6d718886d5",
    # 4x4, 40 flows of 2-4 flits, synchronous releases: 16 baseline and 19
    # proposed deflections, every one of them re-injected.
    "fs_sim.json": "8b99e091a53ebd144da1c7f4a1a939f2b764d9cccd6e338e3510d39283aac5d4",
    "trace_baseline.csv": "bacfab0b4e032d20b6bc5a5d255881afa557e7b6cd6837127daeae42a388e577",
    "trace_proposed.csv": "a229b6b9708bafef089b150c5dd650455afb610e1899fae5e0e132711c34dd39",
    "summary_baseline.csv": "65e8ef62a9bb92ca292d6562cd52e3f474f750bf9d1f45d1fc982ba53ffc5525",
    "summary_proposed.csv": "353e9b2652510154cfadb153683166302ddb99685d3865868f0d36e748a99112",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sweep_csv_bytes(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(SWEEP_CONFIG))
    rc = cli.main([
        "sweep", "--config", str(config), "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    assert _sha256(tmp_path / "sweep.csv") == GOLDEN["sweep.csv"]


def test_improvement_csv_bytes(tmp_path):
    rc = cli.main([
        "improve", "--grid", "4", "--mappings", "10",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    assert _sha256(tmp_path / "improvement.csv") == GOLDEN["improvement.csv"]


def _gen_and_analyze(tmp_path, grid, flows, maxloop):
    flowset = tmp_path / "fs.json"
    rc = cli.main([
        "gen-flowset", "--grid", grid, "--flows", flows, "--packet-range",
        "16-48", "--seed", "7", "--maxloop", maxloop, "--out", str(flowset),
    ])
    assert rc == 0
    rc = cli.main([
        "analyze", str(flowset), "--mode", "both", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    return _sha256(flowset), _sha256(tmp_path / "report.csv")


def test_flowset_and_report_csv_bytes(tmp_path):
    assert _gen_and_analyze(tmp_path, "5", "40", "1") == (
        GOLDEN["fs.json"], GOLDEN["report.csv"],
    )


def test_diverged_and_missed_report_csv_bytes(tmp_path):
    assert _gen_and_analyze(tmp_path, "4", "100", "2") == (
        GOLDEN["fs_4x4_100.json"], GOLDEN["report_4x4_100.csv"],
    )


def test_simulation_trace_and_summary_bytes(tmp_path):
    flowset = tmp_path / "fs.json"
    rc = cli.main([
        "gen-flowset", "--grid", "4", "--flows", "40", "--packet-range",
        "2-4", "--seed", "0", "--out", str(flowset),
    ])
    assert rc == 0
    assert _sha256(flowset) == GOLDEN["fs_sim.json"]
    rc = cli.main([
        "simulate", str(flowset), "--mode", "both", "--pattern",
        "synchronous", "--horizon", "20000", "--seed", "0",
        "--protocol-check", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    for name in ("trace_baseline.csv", "trace_proposed.csv",
                 "summary_baseline.csv", "summary_proposed.csv"):
        assert _sha256(tmp_path / name) == GOLDEN[name], name
