"""Byte-identity guard: small seeded runs must reproduce frozen artifacts.

The SHA-256 digests below were recorded from the same commands before the
flowset index was rewritten.  A change that alters any of these bytes
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


def test_flowset_and_report_csv_bytes(tmp_path):
    flowset = tmp_path / "fs.json"
    rc = cli.main([
        "gen-flowset", "--grid", "5", "--flows", "40", "--packet-range",
        "16-48", "--seed", "7", "--maxloop", "1", "--out", str(flowset),
    ])
    assert rc == 0
    assert _sha256(flowset) == GOLDEN["fs.json"]
    rc = cli.main([
        "analyze", str(flowset), "--mode", "both", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    assert _sha256(tmp_path / "report.csv") == GOLDEN["report.csv"]
