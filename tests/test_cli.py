"""End-to-end command behavior: exit codes, artifacts, determinism."""
import dataclasses
import json
import random

import pytest

import rlnoc.analysis
import rlnoc.cli as cli
from rlnoc.bench import SweepConfig, generate_flowset
from rlnoc.files import load_flowset, save_flowset
from rlnoc.model import Flowset, generate_rlrec

from conftest import make_flow


@pytest.fixture
def small_flowset(tmp_path):
    fs = Flowset(generate_rlrec(2, 2), [
        make_flow(0, 0, 3, length=4),
        make_flow(1, 1, 2, length=2),
    ])
    path = tmp_path / "fs.json"
    save_flowset(str(path), fs)
    return str(path)


class TestGenCommands:
    def test_gen_topology_round_trips(self, tmp_path, capsys):
        out = tmp_path / "top.json"
        rc = cli.main([
            "gen-topology", "--rows", "4", "--cols", "4",
            "--out", str(out),
        ])
        assert rc == 0
        assert "10 rings" in capsys.readouterr().out
        assert len(load_flowset(str(out)).topology.rings) == 10

    def test_gen_topology_rejects_non_square(self, tmp_path, capsys):
        rc = cli.main([
            "gen-topology", "--rows", "2", "--cols", "4",
            "--out", str(tmp_path / "t.json"),
        ])
        assert rc == 2
        assert "square" in capsys.readouterr().err

    def test_gen_flowset_matches_library_draw(self, tmp_path):
        out = tmp_path / "fs.json"
        rc = cli.main([
            "gen-flowset", "--grid", "4", "--flows", "6",
            "--packet-range", "16-48", "--seed", "s7", "--out", str(out),
        ])
        assert rc == 0
        loaded = load_flowset(str(out))
        rng = random.Random("s7:gen-flowset:4:16-48:6")
        expected = generate_flowset(
            SweepConfig(seed="s7"), generate_rlrec(4, 4), 6, (16, 48), rng
        )
        assert loaded.flows == expected.flows

    def test_gen_flowset_is_bit_identical(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            cli.main([
                "gen-flowset", "--grid", "4", "--flows", "5",
                "--seed", "x", "--out", str(out),
            ])
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_gen_flowset_maxloop_override(self, tmp_path):
        out = tmp_path / "fs.json"
        cli.main([
            "gen-flowset", "--grid", "4", "--flows", "5",
            "--maxloop", "2", "--out", str(out),
        ])
        assert all(f.maxloop == 2 for f in load_flowset(str(out)))

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "fs.json"
        rc = cli.main([
            "gen-flowset", "--grid", "4", "--flows", "3", "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {out}: No such file or directory\n"
        )

    def test_run_meta_written(self, tmp_path):
        cli.main([
            "gen-flowset", "--grid", "4", "--flows", "3",
            "--seed", "q", "--out", str(tmp_path / "fs.json"),
        ])
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["seed"] == "q"
        assert meta["command"] == "gen-flowset"


class TestAnalyzeCommand:
    def test_report_and_summary_lines(self, small_flowset, tmp_path, capsys):
        rc = cli.main([
            "analyze", small_flowset, "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("flow 0") == 2  # both modes
        assert "baseline: schedulable" in out
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2

    def test_single_mode(self, small_flowset, tmp_path):
        cli.main([
            "analyze", small_flowset, "--mode", "proposed",
            "--out-dir", str(tmp_path),
        ])
        rows = (tmp_path / "report.csv").read_text().strip().splitlines()[1:]
        assert all(r.split(",")[1] == "proposed" for r in rows)

    def test_malformed_file_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 4, "cols": 4, "flows": [{"id": 0}]}')
        rc = cli.main(["analyze", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'T'" in err and "missing" in err


    def test_out_dir_below_a_file_exit_two(self, small_flowset, capsys):
        out = f"{small_flowset}/x"
        rc = cli.main(["analyze", small_flowset, "--out-dir", out])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {out}: Not a directory\n"

    def test_pass_cap_prints_no_bound(
        self, small_flowset, tmp_path, monkeypatch, capsys
    ):
        # One pass can never confirm a fixed point, so no bound is final.
        monkeypatch.setattr(rlnoc.analysis, "MAX_PASSES", 1)
        rc = cli.main(["analyze", small_flowset, "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("flow ")
        ]
        assert len(lines) == 4
        assert all("R=not-converged" in line for line in lines)
        rc = cli.main([
            "simulate", small_flowset, "--horizon", "3000",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("flow ")
        ]
        assert len(lines) == 4
        assert all("bound=- ok" in line for line in lines)


class TestSimulateCommand:
    def test_clean_run_exit_zero(self, small_flowset, tmp_path, capsys):
        rc = cli.main([
            "simulate", small_flowset, "--horizon", "5000",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flow 0 baseline:" in out and "flow 0 proposed:" in out
        for mode in ("baseline", "proposed"):
            assert (tmp_path / f"trace_{mode}.csv").exists()
            assert (tmp_path / f"summary_{mode}.csv").exists()

    def test_bound_violation_flags_and_exit_one(
        self, small_flowset, tmp_path, monkeypatch, capsys
    ):
        real = cli.analyze

        def tightened(fs, mode):
            rep = real(fs, mode)
            flows = tuple(
                dataclasses.replace(fa, bound=1) for fa in rep.flows
            )
            return dataclasses.replace(rep, flows=flows)

        monkeypatch.setattr(cli, "analyze", tightened)
        rc = cli.main([
            "simulate", small_flowset, "--mode", "baseline",
            "--horizon", "3000", "--out-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "VIOLATIONS" in capsys.readouterr().out
        rows = (
            (tmp_path / "trace_baseline.csv")
            .read_text().strip().splitlines()[1:]
        )
        assert all(r.endswith(",true") for r in rows if r)

    def test_deterministic_traces(self, small_flowset, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            d = tmp_path / sub
            cli.main([
                "simulate", small_flowset, "--pattern", "sporadic",
                "--seed", "77", "--horizon", "4000", "--out-dir", str(d),
            ])
            outs.append((d / "trace_baseline.csv").read_bytes())
        assert outs[0] == outs[1]


class TestSweepCommand:
    def test_row_count_and_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grids": [4], "flows_start": 4, "flows_end": 8, "flows_step": 4,
            "flowsets_per_point": 3, "packet_ranges": [[16, 32]],
            "maxloops": [0, 1], "seed": "sw",
        }))
        first = tmp_path / "o1"
        second = tmp_path / "o2"
        for out in (first, second):
            rc = cli.main([
                "sweep", "--config", str(cfg), "--out-dir", str(out),
            ])
            assert rc == 0
        rows1 = (first / "sweep.csv").read_text()
        assert rows1 == (second / "sweep.csv").read_text()
        lines = rows1.strip().splitlines()
        assert lines[0] == ("grid,packet_range,n_flows,maxloop,mode,"
                            "schedulable_count,total,ratio")
        assert len(lines) == 1 + 2 * 2 * 2  # points x maxloops x modes
        assert "4x4 L=16-32 n=4 maxloop=0 baseline:" in capsys.readouterr().out

    def test_bad_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"grid_sizes": [4]}')
        rc = cli.main(["sweep", "--config", str(cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "grid_sizes" in capsys.readouterr().err


class TestImproveCommand:
    def test_shipped_traffic_default(self, tmp_path, capsys):
        rc = cli.main([
            "improve", "--grid", "4", "--mappings", "3",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max improvement" in out
        lines = (
            (tmp_path / "improvement.csv").read_text().strip().splitlines()
        )
        assert lines[0] == "mapping_id,flow_id,R_base,R_prop,improvement_pct"
        assert len(lines) == 1 + 3 * 39

    def test_unmappable_traffic_exit_two(self, tmp_path, capsys):
        rc = cli.main([
            "improve", "--grid", "2", "--mappings", "1",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert "endpoints" in capsys.readouterr().err


class TestOutDir:
    def test_env_var_default(self, small_flowset, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("RLNOC_OUT_DIR", str(target))
        cli.main(["analyze", small_flowset])
        assert (target / "report.csv").exists()

    def test_flag_overrides_env(self, small_flowset, tmp_path, monkeypatch):
        monkeypatch.setenv("RLNOC_OUT_DIR", str(tmp_path / "ignored"))
        explicit = tmp_path / "explicit"
        cli.main(["analyze", small_flowset, "--out-dir", str(explicit)])
        assert (explicit / "report.csv").exists()
        assert not (tmp_path / "ignored").exists()
