"""Byte-identity guard: small seeded runs must reproduce frozen artifacts.

The SHA-256 digests below were recorded from the same commands before the
flowset index was rewritten (the 4x4/100 case before the analysis passes
were merged into one driver, the simulation case before the simulator's
state was rebuilt around one flit-range record, the mixed-budget case before
flows stopped carrying their derived ring and budget, the jittered hotspot
case before the simulator numbered its ports and let each flit carry its
packet, the 9x9 improvement case before the analysis built each flow's
bound inputs into one position-indexed table, the drops stress case before
the simulator's per-cycle phases became one loop).  The two ``terms.csv``
digests were recorded when ``rlnoc analyze`` began to write that file, and
their tests check that its rows sum to the bounds in ``report.csv``.  A change that
alters any of these bytes changes a result, not just its speed.
"""
import csv
import hashlib
import io
import json
import random

import pytest

import rlnoc.cli as cli
from rlnoc import sim
from rlnoc.analysis import ProtocolMode
from rlnoc.files import write_trace_csv
from rlnoc.model import Flow, Flowset, generate_rlrec

SWEEP_CONFIG = {
    "grids": [4],
    "flows_start": 20,
    "flows_end": 100,
    "flowsets_per_point": 3,
}

GOLDEN = {
    "sweep.csv": "e06051faa9fec530ed3c5b609ea4a0947c98826331eec01f048699b39afcb7e4",
    "improvement.csv": "4dc2771a4bc716606549128b9b104810a5bda97fd514e6aedbd559dc7158dcd7",
    # 9x9, 10 mappings of the shipped traffic: the largest grid the
    # placement study covers.
    "improvement_9x9.csv": "8c9844116421eedf4d76564b0fed0236dd15734ea5b6129c8d38850e74aeebdd",
    "fs.json": "df008fa2e3ca5f622652938cc62ab1b6e232e3334e1e7f5e2a1f9bc36de322aa",
    "report.csv": "23c664879d94e46635cd32eb5f4cad66520572f7f79c61032e54e073ed8ca26d",
    "terms.csv": "50fe8fbb0f55df4b944de86a10705ece1f39288da657142c9579c106703b8c62",
    # 4x4, 100 flows, maxloop 2: every baseline flow diverges and 14
    # proposed flows miss their deadlines, over 12 outer passes.
    "fs_4x4_100.json": "07ce82598cadb0c8ee93c9eb2d6566a7e79216545dbcb5429163ae7f3cf1163b",
    "report_4x4_100.csv": "e226ef667ff0920e9bedfbeb39c63e13e4c2c999af3145297c33ee6d718886d5",
    # Its diverged baseline flows have no rows: proposed rows only.
    "terms_4x4_100.csv": "33593a2e6ffa1706fe4c21e623f0f793889747f3cbf698ad06dc57be2bb82120",
    # 4x4, 40 flows of 2-4 flits, synchronous releases: 16 baseline and 19
    # proposed deflections, every one of them re-injected.
    "fs_sim.json": "8b99e091a53ebd144da1c7f4a1a939f2b764d9cccd6e338e3510d39283aac5d4",
    "trace_baseline.csv": "bacfab0b4e032d20b6bc5a5d255881afa557e7b6cd6837127daeae42a388e577",
    "trace_proposed.csv": "a229b6b9708bafef089b150c5dd650455afb610e1899fae5e0e132711c34dd39",
    "summary_baseline.csv": "65e8ef62a9bb92ca292d6562cd52e3f474f750bf9d1f45d1fc982ba53ffc5525",
    "summary_proposed.csv": "353e9b2652510154cfadb153683166302ddb99685d3865868f0d36e748a99112",
    # Hand-written 4x4 flowset whose file fixes some budgets and leaves the
    # rest to the Oldest-First count (MIXED_FLOWS below).
    "report_mixed.csv": "57b4078511d52ff9434dae0eb31c5289c1e391512b7197ea98d8d767f50a40e5",
    # 4x4, 24 flows into 3 hot cores, jittered releases (_hotspot_document).
    "fs_hotspot.json": "6812de12b251ae8962ee3e4681865eaa77d1656ba453c0ef04055275e4029874",
    "trace_hotspot_baseline.csv": "fb55fee314e34d7bdd5b7d11d82c2a1009300e056878b7bc15a60f92f933e5a5",
    "trace_hotspot_proposed.csv": "5b0c56785708ba7f2ce2cb836a26a12a1a02a981d6471892d637a8b43e0240f7",
    "summary_hotspot_baseline.csv": "8bbfe68e7fe0eab278d26b8db2ea52536908b5b8388db2e04ee78c70d9a3c1ad",
    "summary_hotspot_proposed.csv": "8bbfe68e7fe0eab278d26b8db2ea52536908b5b8388db2e04ee78c70d9a3c1ad",
}

# (id, T, D, L, J, src, dst, maxloop).  Flows 1 and 3 fix a budget below
# their competitor count (2) and flow 5 one above it; flows 1 and 5 are ring
# peers of flows 9 and 6, so their budgets reach other flows' bounds too.
MIXED_FLOWS = (
    (0, 400, 400, 6, 20, 0, 5, None),
    (1, 500, 450, 4, 0, 3, 5, 1),
    (2, 300, 300, 8, 50, 12, 5, None),
    (3, 600, 600, 5, 10, 15, 10, 0),
    (4, 450, 400, 3, 0, 1, 10, None),
    (5, 800, 700, 7, 100, 6, 10, 3),
    (6, 350, 350, 4, 30, 9, 6, None),
    (7, 900, 900, 6, 0, 14, 6, 1),
    (8, 700, 650, 5, 40, 0, 11, None),
    (9, 250, 250, 2, 0, 7, 5, None),
)


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


def _improve(tmp_path, grid):
    rc = cli.main([
        "improve", "--grid", grid, "--mappings", "10",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    return _sha256(tmp_path / "improvement.csv")


def test_improvement_csv_bytes(tmp_path):
    assert _improve(tmp_path, "4") == GOLDEN["improvement.csv"]


def test_improvement_9x9_csv_bytes(tmp_path):
    assert _improve(tmp_path, "9") == GOLDEN["improvement_9x9.csv"]


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
    # Each flow's terms.csv rows sum to its report.csv bound; a flow
    # without one has no rows.
    sums: dict[tuple[str, str], int] = {}
    with open(tmp_path / "terms.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = row["flow_id"], row["mode"]
            sums[key] = sums.get(key, 0) + int(row["cycles"])
    with open(tmp_path / "report.csv", newline="") as fh:
        assert sums == {(row["flow_id"], row["mode"]): int(row["R"])
                        for row in csv.DictReader(fh) if row["R"]}
    return (_sha256(flowset), _sha256(tmp_path / "report.csv"),
            _sha256(tmp_path / "terms.csv"))


def test_flowset_and_report_csv_bytes(tmp_path):
    assert _gen_and_analyze(tmp_path, "5", "40", "1") == (
        GOLDEN["fs.json"], GOLDEN["report.csv"], GOLDEN["terms.csv"],
    )


def test_diverged_and_missed_report_csv_bytes(tmp_path):
    assert _gen_and_analyze(tmp_path, "4", "100", "2") == (
        GOLDEN["fs_4x4_100.json"], GOLDEN["report_4x4_100.csv"],
        GOLDEN["terms_4x4_100.csv"],
    )


def test_mixed_budget_flowset_report_csv_bytes(tmp_path):
    flowset = tmp_path / "fs.json"
    flowset.write_text(json.dumps({
        "rows": 4, "cols": 4,
        "flows": [
            {"id": i, "T": t, "D": d, "L": length, "J": j, "src": src,
             "dst": dst, "maxloop": maxloop}
            for i, t, d, length, j, src, dst, maxloop in MIXED_FLOWS
        ],
    }))
    rc = cli.main([
        "analyze", str(flowset), "--mode", "both", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    assert _sha256(tmp_path / "report.csv") == GOLDEN["report_mixed.csv"]


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


def _hotspot_document() -> dict:
    """4x4 flowset of 24 flows of 2-4 flits, all destined to 3 hot cores."""
    rng = random.Random("jitter-0")
    hot = rng.sample(range(16), 3)
    flows = []
    for i in range(24):
        dst = rng.choice(hot)
        src = rng.choice([c for c in range(16) if c != dst])
        period = rng.randint(60, 400)
        flows.append({
            "id": i, "T": period, "D": period, "L": rng.randint(2, 4),
            "J": rng.randint(0, period // 2), "src": src, "dst": dst,
            "maxloop": None,
        })
    return {"rows": 4, "cols": 4, "flows": flows}


def test_jittered_hotspot_simulation_bytes(tmp_path):
    """Many-to-few traffic under jittered releases deflects in both modes.

    Horizon 6000: 632 packets per mode, 16 baseline and 16 proposed
    deflections, 11,169 and 10,978 flit-hops; 6 of the 24 flows have a
    converged bound in each mode.
    """
    flowset = tmp_path / "fs.json"
    flowset.write_text(json.dumps(_hotspot_document()))
    assert _sha256(flowset) == GOLDEN["fs_hotspot.json"]
    rc = cli.main([
        "simulate", str(flowset), "--mode", "both", "--pattern", "jitter",
        "--horizon", "6000", "--seed", "0", "--protocol-check",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    for kind in ("trace", "summary"):
        for mode in ("baseline", "proposed"):
            name = f"{kind}_{mode}.csv"
            assert (_sha256(tmp_path / name)
                    == GOLDEN[f"{kind}_hotspot_{mode}.csv"]), name


# (mode, pattern) -> (flit-hops, retention drops, trace.csv SHA-256) for
# _drops_flowset at horizon 3000, seed "0".
STRESS = {
    ("baseline", "periodic"): (78412, 0, "de9321556fdfa90b55cecba2f08031a09814cc50c7a885e144c021eacdfc3849"),
    ("baseline", "sporadic"): (9771, 0, "e45932a85a48e41dbd6e392d0d255ae24cdde3449f9ece269b4ca0bcf21804b9"),
    ("baseline", "jitter"): (76032, 0, "b7651e66d143cb73102792932abe5ad1c1f8251347f26795f2902767db6597ef"),
    ("baseline", "synchronous"): (74985, 0, "55f6f16659c9fc0173c35bd57f2ef68cec4433deb48ad257050efc53defdcc68"),
    ("proposed", "periodic"): (24930, 15, "12ccbf633d976991a200a6ae1effb96665944fef939b0c58ee09953a67790bee"),
    ("proposed", "sporadic"): (9022, 0, "3a127f3d91f2fc01080ee34fb201f85384379aff69cf52135d45fb3db986c719"),
    ("proposed", "jitter"): (31290, 42, "483ba5bbeafc20a6f126ce98f80b8b6e7c58d7727c1a5c260b59c045ac23f551"),
    ("proposed", "synchronous"): (23294, 8, "0ebe14d95caf8528e86429a34065e37eaa4e1eeb39cb482ebd038d2182c7fbf7"),
}


def _drops_flowset() -> Flowset:
    """4x4 flowset of 16 short-period flows of 2-4 flits into 2 hot cores."""
    rng = random.Random("drops-0")
    hot = rng.sample(range(16), 2)
    flows = []
    for i in range(16):
        dst = rng.choice(hot)
        src = rng.choice([c for c in range(16) if c != dst])
        period = rng.randint(20, 80)
        flows.append(Flow(i, period, period, rng.randint(2, 4),
                          rng.randint(0, period // 2), src, dst))
    return Flowset(generate_rlrec(4, 4), flows)


@pytest.mark.parametrize("mode", ["baseline", "proposed"])
@pytest.mark.parametrize("pattern", ["periodic", "sporadic", "jitter",
                                     "synchronous"])
def test_drops_stress_simulation(mode, pattern):
    """Overloaded hot cores: buffers fill up to 4 flits, baseline ejection
    arbitrates among several headers more than 1,200 times, and proposed
    mode drops returning headers whose payload was evicted."""
    trace = sim.run(_drops_flowset(), ProtocolMode(mode),
                    sim.PATTERNS[pattern], horizon=3000, seed="0",
                    protocol_check=True)
    out = io.StringIO(newline="")
    write_trace_csv(out, trace)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (trace.flit_hops, trace.retention_violations, digest) == STRESS[
        (mode, pattern)]
