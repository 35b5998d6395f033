"""End-to-end command behavior: exit codes, artifacts, determinism."""
import csv
import json
import os
import random
import subprocess
import sys

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
        # The file fixes every budget the generator left to derivation.
        assert [f._replace(maxloop=None) for f in loaded] == list(
            expected.flows
        )
        assert loaded.maxloops == expected.maxloops

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
        assert set(load_flowset(str(out)).maxloops.values()) == {2}

    def test_gen_flowset_negative_maxloop_exit_two(self, tmp_path, capsys):
        out = tmp_path / "fs.json"
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "gen-flowset", "--grid", "4", "--flows", "5",
                "--maxloop", "-1", "--out", str(out),
            ])
        assert exc.value.code == 2
        assert ("argument --maxloop: must be at least 0, got -1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_gen_flowset_flow_count_below_one_exit_two(self, tmp_path, capsys):
        out = tmp_path / "fs.json"
        for flows in ("-2", "0"):
            with pytest.raises(SystemExit) as exc:
                cli.main([
                    "gen-flowset", "--grid", "4", "--flows", flows,
                    "--out", str(out),
                ])
            assert exc.value.code == 2
            assert "argument --flows: must be at least 1" in capsys.readouterr().err
        assert not out.exists()

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

    def test_terms_csv_sums_to_report_bounds(self, small_flowset, tmp_path):
        rc = cli.main(["analyze", small_flowset, "--out-dir", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "report.csv", newline="") as fh:
            report = list(csv.DictReader(fh))
        with open(tmp_path / "terms.csv", newline="") as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == ["flow_id", "mode", "term", "from_flow", "cycles"]
        sums: dict[tuple[str, str], int] = {}
        for fid, mode, term, other, cycles in lines[1:]:
            # Only an interferer's or a sharer's share names another flow.
            if other:
                assert term in ("idle", "queue")
            elif term == "queue":
                raise AssertionError("a queue share names no sharer")
            sums[fid, mode] = sums.get((fid, mode), 0) + int(cycles)
        # Rows come grouped by mode, baseline first, as in report.csv.
        modes = [row[1] for row in lines[1:]]
        assert modes == sorted(modes) and set(modes) == {"baseline", "proposed"}
        assert sums == {(r["flow_id"], r["mode"]): int(r["R"]) for r in report}

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


    def test_non_square_grid_without_rings_names_cols(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 3,\n "cols": 4,\n "flows": []}\n')
        rc = cli.main(["analyze", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: field 'cols' is invalid: grid must be square, "
            f"got 3x4 (line 2)\n"
        )
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("switch", ["1.5", "true", "2.0"])
    def test_non_integer_switch_id_exit_two(self, tmp_path, capsys, switch):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 2, "cols": 2,\n'
                       f' "rings": [[0, {switch}, 3, 2]], "flows": []}}\n')
        rc = cli.main(["analyze", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: field 'rings' must be a list of integer "
            f"switch-id lists (line 2)\n"
        )
        assert not (tmp_path / "report.csv").exists()

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
                fa._replace(bound=1) for fa in rep.flows
            )
            return rep._replace(flows=flows)

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

    def test_checked_share_line_per_mode(
        self, small_flowset, tmp_path, monkeypatch, capsys
    ):
        rc = cli.main([
            "simulate", small_flowset, "--horizon", "3000",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        for mode in ("baseline", "proposed"):
            assert f"{mode}: 2/2 flows checked against a converged bound" in out
        summary = (tmp_path / "summary_baseline.csv").read_bytes()

        real = cli.analyze

        def flow_one_unconverged(fs, mode):
            rep = real(fs, mode)
            flows = tuple(
                fa._replace(converged=fa.flow_id != 1)
                for fa in rep.flows
            )
            return rep._replace(flows=flows)

        monkeypatch.setattr(cli, "analyze", flow_one_unconverged)
        rc = cli.main([
            "simulate", small_flowset, "--mode", "baseline", "--horizon",
            "3000", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert "baseline: 1/2 flows checked against a converged bound" in out
        assert "flow 1 baseline:" in out[1] and "bound=-" in out[1]
        # The console line adds nothing to the summary CSV.
        assert (tmp_path / "summary_baseline.csv").read_bytes() == summary

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

    def test_simulator_invariant_exits_three(self, tmp_path, capsys):
        # Header-only re-injection overflows a ring buffer on this flowset
        # (see TestReInjectionBuffer in test_sim.py).
        path = str(tmp_path / "fs.json")
        assert cli.main([
            "gen-flowset", "--grid", "4", "--flows", "30", "--packet-range",
            "2-4", "--seed", "13", "--out", path,
        ]) == 0
        capsys.readouterr()
        rc = cli.main([
            "simulate", path, "--mode", "proposed", "--pattern",
            "synchronous", "--horizon", "20000", "--out-dir", str(tmp_path),
        ])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: buffer overflow at switch 3 ring 0\n")

    def test_horizon_below_one_exit_two(self, tmp_path, capsys):
        # The flag is checked before the flowset is read: none exists here.
        missing = str(tmp_path / "missing.json")
        for horizon in ("0", "-5"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["simulate", missing, "--horizon", horizon,
                          "--out-dir", str(tmp_path)])
            assert exc.value.code == 2
            assert (f"argument --horizon: must be at least 1, got {horizon}"
                    in capsys.readouterr().err)
        assert not list(tmp_path.glob("trace_*.csv"))


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

    @pytest.mark.parametrize("field,value", [
        ("grids", [4.5]),
        ("flowsets_per_point", 1.5),
        ("maxloops", [True]),
        ("packet_ranges", [[16.0, 32]]),
    ])
    def test_non_integer_config_field(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": [4], "flows_start": 4,
                                   "flows_end": 4, field: value}))
        rc = cli.main(["sweep", "--config", str(cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert repr(field) in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("field,value", [
        ("deadline_fraction", "x"),
        ("period_us", [1]),
        ("packet_ranges", [[1]]),
        ("jitter_fraction", [True, True]),
    ])
    def test_malformed_float_or_range_field(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": [4], "flows_start": 4,
                                   "flows_end": 4, field: value}))
        rc = cli.main(["sweep", "--config", str(cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert f"config field {field!r}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("field,value", [
        ("grids", [4, 4]),
        ("packet_ranges", [[16, 48], [32, 96], [16, 48]]),
        ("maxloops", [1, 1]),
    ])
    def test_repeated_entry_exit_two(self, tmp_path, capsys, field, value):
        # A repeat would count its flowsets twice in each row it shares.
        doc = {"grids": [4], "flows_start": 20, "flows_end": 20,
               "flowsets_per_point": 3, "packet_ranges": [[16, 48]],
               "maxloops": [1]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(doc, **{field: value})))
        rc = cli.main(["sweep", "--config", str(cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: config field {field!r} must not repeat an entry\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_job_count_below_one_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": [4], "flows_start": 4,
                                   "flows_end": 4}))
        for jobs in ("-4", "0"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["sweep", "--config", str(cfg), "--jobs", jobs,
                          "--out-dir", str(tmp_path)])
            assert exc.value.code == 2
            assert ("argument --jobs: must be at least 1"
                    in capsys.readouterr().err)
        assert not (tmp_path / "sweep.csv").exists()


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

    def test_mapping_count_below_one_exit_two(self, tmp_path, capsys):
        for mappings in ("-3", "0"):
            with pytest.raises(SystemExit) as exc:
                cli.main([
                    "improve", "--mappings", mappings,
                    "--out-dir", str(tmp_path),
                ])
            assert exc.value.code == 2
            assert ("argument --mappings: must be at least 1"
                    in capsys.readouterr().err)
        assert not (tmp_path / "improvement.csv").exists()

    def test_unmappable_traffic_exit_two(self, tmp_path, capsys):
        rc = cli.main([
            "improve", "--grid", "2", "--mappings", "1",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert "endpoints" in capsys.readouterr().err


_DUPLICATE_FLOWS = (
    '"flows": [\n'
    ' {"id": 0, "T": 100, "D": 100, "L": 2, "J": 0, "src": 0, "dst": 3},\n'
    ' {"id": 0, "T": 100, "D": 100, "L": 2, "J": 0, "src": 1, "dst": 2}\n'
    ']}\n'
)


@pytest.mark.parametrize("command, document", [
    (["analyze"], '{"rows": 2, "cols": 2,\n'),
    (["simulate"], '{"rows": 2, "cols": 2,\n'),
    (["improve", "--grid", "2", "--mappings", "1", "--traffic"], "{\n"),
])
def test_repeated_flow_id_names_file_field_and_line(
        tmp_path, capsys, command, document):
    bad = tmp_path / "dup.json"
    bad.write_text(document + _DUPLICATE_FLOWS)
    rc = cli.main(command + [str(bad), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: field 'id' repeats flow id 0 (line 4)\n"
    )
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".csv"]


def test_field_line_is_found_in_its_own_flow(tmp_path, capsys):
    # Flow 0 has no maxloop, so flow 1's is the file's first "maxloop".
    bad = tmp_path / "ml.json"
    bad.write_text(
        '{"rows": 2, "cols": 2,\n"flows": [\n'
        ' {"id": 0, "T": 100, "D": 100, "L": 2, "J": 0, "src": 0, "dst": 3},\n'
        ' {"id": 1, "T": 100, "D": 100, "L": 2, "J": 0, "src": 1, "dst": 2,\n'
        '  "maxloop": -1}\n]}\n')
    rc = cli.main(["analyze", str(bad), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: field 'maxloop' must be >= 0, got -1 (line 5)\n"
    )


def test_repeated_id_line_skips_keys_outside_the_flows(tmp_path, capsys):
    bad = tmp_path / "meta.json"
    bad.write_text('{"meta": {"id": 7},\n' + _DUPLICATE_FLOWS)
    rc = cli.main(["improve", "--grid", "2", "--mappings", "1", "--traffic",
                   str(bad), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: field 'id' repeats flow id 0 (line 4)\n"
    )


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


class TestModuleEntry:
    """``python -m rlnoc`` runs the same front end as the ``rlnoc`` script."""

    @staticmethod
    def _run(tmp_path, *args):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "rlnoc", *args],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)

    def test_help_exits_zero(self, tmp_path):
        done = self._run(tmp_path, "--help")
        assert done.returncode == 0
        assert "analyze" in done.stdout

    def test_missing_flowset_exits_two(self, tmp_path):
        done = self._run(tmp_path, "analyze", "missing.json")
        assert done.returncode == 2
        assert done.stderr.startswith("error: missing.json: ")
        assert not (tmp_path / "report.csv").exists()

    def test_import_loads_neither_pool_nor_statistics(self, tmp_path):
        # Each command's start-up pays for what importing the front end
        # loads: the pool is imported only to run one, and means use fsum.
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        probe = ("import sys, rlnoc.cli; print([m for m in "
                 "('concurrent.futures', 'statistics') if m in sys.modules])")
        done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
