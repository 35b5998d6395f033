"""Loader diagnostics and writer formats.

Malformed-input tests assert both the field name and the line number so the
CLI can point users at the broken spot; writer tests pin the exact column
headers other tooling greps for.
"""
import io
import json

import pytest

from rlnoc.analysis import ProtocolMode, analyze
from rlnoc.files import (
    FileFormatError,
    load_flowset,
    load_traffic,
    save_flowset,
    write_report_csv,
    write_run_meta,
    write_trace_csv,
    write_trace_summary_csv,
)
from rlnoc.model import Flowset, generate_rlrec
from rlnoc.sim import run

from conftest import make_flow


def _sample_doc():
    return {
        "rows": 4,
        "cols": 4,
        "flows": [
            {"id": 0, "T": 1000, "D": 1000, "L": 8, "J": 0, "src": 0, "dst": 3},
            {"id": 1, "T": 2000, "D": 1500, "L": 4, "J": 50, "src": 5, "dst": 6,
             "maxloop": 2},
        ],
    }


def _write(tmp_path, doc, name="fs.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


class TestLoadFlowset:
    def test_round_trip_preserves_analysis(self, tmp_path):
        top = generate_rlrec(4, 4)
        flows = [
            make_flow(0, 0, 3, length=8),
            make_flow(1, 5, 6, length=4, period=2000, jitter=50),
        ]
        original = Flowset(top, flows)
        path = str(tmp_path / "fs.json")
        save_flowset(path, original)
        loaded = load_flowset(path)

        top, back = original.topology, loaded.topology
        assert (back.rows, back.cols, back.rings) == (top.rows, top.cols, top.rings)
        # maxloop was derived on first finalization, then written concretely
        assert [f._replace(maxloop=None) for f in loaded] == list(original.flows)
        assert loaded.maxloops == original.maxloops
        for mode in ProtocolMode:
            a = analyze(original, mode)
            b = analyze(loaded, mode)
            assert [f.bound for f in a.flows] == [f.bound for f in b.flows]

    def test_rings_omitted_regenerates_layout(self, tmp_path):
        doc = _sample_doc()
        loaded = load_flowset(_write(tmp_path, doc))
        top, want = loaded.topology, generate_rlrec(4, 4)
        assert (top.rows, top.cols, top.rings) == (want.rows, want.cols, want.rings)

    def test_explicit_rings_respected(self, tmp_path):
        doc = {"rows": 2, "cols": 2, "rings": [[0, 1, 3, 2]], "flows": []}
        loaded = load_flowset(_write(tmp_path, doc))
        assert len(loaded.topology.rings) == 1
        assert loaded.topology.rings[0].switches == (0, 1, 3, 2)

    def test_missing_flows_key_means_empty(self, tmp_path):
        loaded = load_flowset(_write(tmp_path, {"rows": 2, "cols": 2}))
        assert len(loaded) == 0

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "rows": 4,\n  "cols": 4,\n  "flows": [,]\n}\n')
        with pytest.raises(FileFormatError, match=r"line 4"):
            load_flowset(str(path))

    def test_missing_field_named(self, tmp_path):
        doc = _sample_doc()
        del doc["flows"][0]["T"]
        with pytest.raises(FileFormatError, match=r"'T' is missing"):
            load_flowset(_write(tmp_path, doc))

    def test_wrong_type_names_field_and_line(self, tmp_path):
        doc = _sample_doc()
        doc["flows"][1]["L"] = "eight"
        path = _write(tmp_path, doc)
        text = open(path).read()
        line = next(
            i for i, ln in enumerate(text.splitlines(), start=1)
            if '"L": "eight"' in ln
        )
        with pytest.raises(FileFormatError, match=rf"'L'.*line {line}"):
            load_flowset(path)

    def test_second_flow_uses_second_occurrence(self, tmp_path):
        doc = _sample_doc()
        doc["flows"][1]["J"] = -3
        path = _write(tmp_path, doc)
        lines = open(path).read().splitlines()
        second_j = [i for i, ln in enumerate(lines, start=1) if '"J"' in ln][1]
        with pytest.raises(FileFormatError, match=rf"'J'.*line {second_j}"):
            load_flowset(path)

    def test_field_line_is_the_key_json_keeps_in_its_own_flow(self, tmp_path):
        # A nested "L" and the first of two "L" keys are not the value read.
        path = tmp_path / "keys.json"
        path.write_text(
            '{"rows": 4, "cols": 4, "flows": [\n'
            ' {"id": 0, "T": 100, "D": 100, "L": 2, "J": 0, "src": 0, "dst": 3},\n'
            ' {"id": 1, "note": {"L": 0},\n'
            '  "T": 100, "D": 100, "L": 2,\n'
            '  "L": 0, "J": 0, "src": 1, "dst": 2}\n'
            ']}\n')
        with pytest.raises(FileFormatError, match=r"'L' must be >= 1, got 0 \(line 5\)"):
            load_flowset(str(path))

    def test_semantic_error_names_flow(self, tmp_path):
        doc = _sample_doc()
        doc["flows"][0]["dst"] = doc["flows"][0]["src"]
        with pytest.raises(FileFormatError, match=r"flows\[0\].*src"):
            load_flowset(_write(tmp_path, doc))

    def test_bool_is_not_an_integer(self, tmp_path):
        doc = _sample_doc()
        doc["rows"] = True
        with pytest.raises(FileFormatError, match=r"'rows' must be an integer"):
            load_flowset(_write(tmp_path, doc))

    def test_unroutable_flow_surfaces_as_format_error(self, tmp_path):
        doc = {"rows": 2, "cols": 2, "rings": [[0, 1]], "flows": [
            {"id": 0, "T": 100, "D": 100, "L": 2, "J": 0, "src": 0, "dst": 3},
        ]}
        with pytest.raises(FileFormatError, match=r"no ring"):
            load_flowset(_write(tmp_path, doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            load_flowset(str(tmp_path / "nope.json"))


class TestLoadTraffic:
    def test_endpoints_pass_through(self, tmp_path):
        doc = {"flows": [
            {"id": 0, "T": 100, "D": 100, "L": 4, "J": 0, "src": 9, "dst": 2},
        ]}
        flows = load_traffic(_write(tmp_path, doc))
        assert flows[0].src == 9
        assert flows[0].maxloop is None

    def test_empty_traffic_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match=r"'flows'"):
            load_traffic(_write(tmp_path, {"flows": []}))


def _two_flow_set():
    top = generate_rlrec(2, 2)
    return Flowset(top, [
        make_flow(0, 0, 3, length=4),
        make_flow(1, 1, 2, length=2),
    ])


class TestWriters:
    def test_report_csv_shape(self):
        fs = _two_flow_set()
        reports = [analyze(fs, m) for m in ProtocolMode]
        buf = io.StringIO()
        write_report_csv(buf, reports)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ("flow_id,mode,C,ipre_idle,ipre_queue,ipos,R,D,"
                            "schedulable,iterations,converged")
        assert len(lines) == 1 + 2 * len(fs)
        assert lines[1].split(",")[1] == "baseline"
        assert lines[1].split(",")[8] in {"true", "false"}

    def test_trace_csv_shape(self):
        fs = _two_flow_set()
        trace = run(fs, ProtocolMode.BASELINE, horizon=3000)
        buf = io.StringIO()
        write_trace_csv(buf, trace)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ("flow_id,packet_seq,release,inject_start,"
                            "eject_end,deflections,latency,violated_bound")
        assert len(lines) == 1 + len(trace.records)

    def test_trace_summary_counts(self):
        fs = _two_flow_set()
        trace = run(fs, ProtocolMode.BASELINE, horizon=3000)
        buf = io.StringIO()
        write_trace_summary_csv(buf, trace, trace.per_flow())
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ("flow_id,packets,delivered,max_latency,"
                            "max_deflections,bound_violations")
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["0", "1"]
        assert all(r[5] == "0" for r in rows)

    def test_none_becomes_empty_cell(self):
        fs = _two_flow_set()
        # horizon too short for anything to finish: eject_end stays None
        trace = run(fs, ProtocolMode.BASELINE, horizon=2)
        buf = io.StringIO()
        write_trace_csv(buf, trace)
        row = buf.getvalue().strip().splitlines()[1].split(",")
        assert row[4] == "" and row[6] == ""

    def test_run_meta_round_trips(self, tmp_path):
        path = write_run_meta(str(tmp_path), seed="42", command="simulate")
        with open(path) as fh:
            doc = json.load(fh)
        assert doc == {"seed": "42", "command": "simulate"}
