"""Byte-identity guard: small seeded runs must reproduce frozen artifacts.

The SHA-256 digests below were recorded from the same commands before the
flowset index was rewritten (the 4x4/100 case before the analysis passes
were merged into one driver).  A change that alters any of these bytes
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
