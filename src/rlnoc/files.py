"""JSON and CSV interchange for flowsets, traces, and sweep outputs.

The flowset document is ``{rows, cols, rings?, flows}``; when ``rings`` is
omitted the concentric-layer generator recreates them from the grid size.
Flows carry ``{id, T, D, L, J, src, dst, maxloop?}``; ring assignment is
re-derived on load, and an omitted ``maxloop`` falls back to the ejection
competition count.  Loaders point at the offending field and line when a
file does not parse.
"""
from __future__ import annotations

import csv
import json
import os
import re
from importlib import resources
from typing import IO, Any, Iterable, Mapping, Sequence

from .analysis import AnalysisReport
from .bench import SweepConfig
from .model import Flow, Flowset, ModelError, NetworkTopology, Ring, generate_rlrec
from .sim import SimTrace

REPORT_COLUMNS = (
    "flow_id", "mode", "C", "ipre_idle", "ipre_queue", "ipos", "R", "D",
    "schedulable", "iterations", "converged",
)
TRACE_COLUMNS = (
    "flow_id", "packet_seq", "release", "inject_start", "eject_end",
    "deflections", "latency", "violated_bound",
)
TRACE_SUMMARY_COLUMNS = (
    "flow_id", "packets", "delivered", "max_latency", "max_deflections",
    "bound_violations",
)
SWEEP_COLUMNS = (
    "grid", "packet_range", "n_flows", "maxloop", "mode",
    "schedulable_count", "total", "ratio",
)
IMPROVEMENT_COLUMNS = ("mapping_id", "flow_id", "R_base", "R_prop",
                       "improvement_pct")


class FileFormatError(ValueError):
    """A data file failed to parse; the message names the field and line."""


def _line_of(text: str, key: str, occurrence: int = 1) -> int | None:
    """1-based line of the n-th ``"key":`` occurrence, if present."""
    hits = list(re.finditer(rf'"{re.escape(key)}"\s*:', text))
    if len(hits) < occurrence:
        return None
    return text.count("\n", 0, hits[occurrence - 1].start()) + 1


def _fail(path: str, field: str, problem: str, line: int | None) -> None:
    where = f" (line {line})" if line is not None else ""
    raise FileFormatError(f"{path}: field {field!r} {problem}{where}")


def _get_int(obj: Mapping[str, Any], field: str, path: str, text: str,
             occurrence: int = 1, minimum: int | None = None) -> int:
    if field not in obj:
        _fail(path, field, "is missing", None)
    value = obj[field]
    # bool is an int subtype; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, field, f"must be an integer, got {value!r}",
              _line_of(text, field, occurrence))
    if minimum is not None and value < minimum:
        _fail(path, field, f"must be >= {minimum}, got {value}",
              _line_of(text, field, occurrence))
    return value


def _load_json(path: str) -> tuple[Any, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror}") from exc
    try:
        return json.loads(text), text
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}"
        ) from exc


def _parse_flow(entry: Any, index: int, path: str, text: str) -> Flow:
    label = f"flows[{index}]"
    if not isinstance(entry, dict):
        _fail(path, label, "must be an object", None)
    occurrence = index + 1
    fid = _get_int(entry, "id", path, text, occurrence, minimum=0)
    kwargs = dict(
        flow_id=fid,
        period=_get_int(entry, "T", path, text, occurrence, minimum=1),
        deadline=_get_int(entry, "D", path, text, occurrence, minimum=1),
        length=_get_int(entry, "L", path, text, occurrence, minimum=1),
        jitter=_get_int(entry, "J", path, text, occurrence, minimum=0),
        src=_get_int(entry, "src", path, text, occurrence, minimum=0),
        dst=_get_int(entry, "dst", path, text, occurrence, minimum=0),
        ring=None,
        maxloop=None,
    )
    if entry.get("maxloop") is not None:
        kwargs["maxloop"] = _get_int(entry, "maxloop", path, text,
                                     occurrence, minimum=0)
    try:
        return Flow(**kwargs)
    except ModelError as exc:
        _fail(path, label, f"is invalid: {exc}",
              _line_of(text, "id", occurrence))
    raise AssertionError("unreachable")


def _parse_topology(doc: Mapping[str, Any], path: str,
                    text: str) -> NetworkTopology:
    rows = _get_int(doc, "rows", path, text, minimum=2)
    cols = _get_int(doc, "cols", path, text, minimum=2)
    if "rings" not in doc or doc["rings"] is None:
        return generate_rlrec(rows, cols)
    raw = doc["rings"]
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        _fail(path, "rings", "must be a list of switch-id lists",
              _line_of(text, "rings"))
    try:
        rings = tuple(
            Ring(ring_id=i, switches=tuple(sw)) for i, sw in enumerate(raw)
        )
        return NetworkTopology(rows=rows, cols=cols, rings=rings)
    except (ModelError, TypeError) as exc:
        _fail(path, "rings", f"is invalid: {exc}", _line_of(text, "rings"))
    raise AssertionError("unreachable")


def load_flowset(path: str, header_len: int = 1) -> Flowset:
    doc, text = _load_json(path)
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    topology = _parse_topology(doc, path, text)
    raw_flows = doc.get("flows", [])
    if not isinstance(raw_flows, list):
        _fail(path, "flows", "must be a list", _line_of(text, "flows"))
    flows = [_parse_flow(e, i, path, text) for i, e in enumerate(raw_flows)]
    try:
        return Flowset(topology, flows, header_len=header_len)
    except ModelError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def save_flowset(path: str, flowset: Flowset) -> None:
    top = flowset.topology
    doc: dict[str, Any] = {
        "rows": top.rows,
        "cols": top.cols,
        "rings": [list(r.switches) for r in top.rings],
        "flows": [
            {
                "id": f.flow_id, "T": f.period, "D": f.deadline, "L": f.length,
                "J": f.jitter, "src": f.src, "dst": f.dst, "maxloop": f.maxloop,
            }
            for f in flowset
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def sample_traffic_path() -> str:
    """Location of the application traffic shipped with the package."""
    return str(resources.files("rlnoc").joinpath("data", "sample_traffic.json"))


def load_traffic(path: str) -> tuple[Flow, ...]:
    """Flows whose src/dst are abstract endpoints awaiting a core mapping."""
    doc, text = _load_json(path)
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    raw_flows = doc.get("flows")
    if not isinstance(raw_flows, list) or not raw_flows:
        _fail(path, "flows", "must be a non-empty list", _line_of(text, "flows"))
    return tuple(_parse_flow(e, i, path, text) for i, e in enumerate(raw_flows))


def load_sweep_config(path: str) -> SweepConfig:
    doc, _ = _load_json(path)
    try:
        return SweepConfig.from_dict(doc)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_csv(target: str | IO[str], header: Sequence[str],
               rows: Iterable[Sequence[Any]]) -> None:
    def emit(fh: IO[str]) -> None:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])

    if isinstance(target, str):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
    else:
        emit(target)


def write_report_csv(target: str | IO[str],
                     reports: Sequence[AnalysisReport]) -> None:
    rows = []
    for report in reports:
        for fa in report.flows:
            rows.append((
                fa.flow_id, report.mode.value, fa.no_load, fa.pre_idle,
                fa.pre_queue, fa.post_injection, fa.bound, fa.deadline,
                fa.schedulable, fa.iterations, fa.converged,
            ))
    _write_csv(target, REPORT_COLUMNS, rows)


def write_trace_csv(target: str | IO[str], trace: SimTrace) -> None:
    rows = [
        (r.flow_id, r.seq, r.release, r.inject_start, r.eject_end,
         r.deflections, r.latency, r.violated)
        for r in trace.records
    ]
    _write_csv(target, TRACE_COLUMNS, rows)


def write_trace_summary_csv(target: str | IO[str], trace: SimTrace) -> None:
    rows = [
        (fid, packets, delivered, trace.max_latency.get(fid),
         trace.max_deflections.get(fid), violations)
        for fid, (packets, delivered, violations) in trace.per_flow().items()
    ]
    _write_csv(target, TRACE_SUMMARY_COLUMNS, rows)


def write_sweep_csv(target: str | IO[str], points: Iterable[Any]) -> None:
    rows = [
        (p.grid, f"{p.packet_range[0]}-{p.packet_range[1]}", p.n_flows,
         p.maxloop, p.mode.value, p.schedulable_count, p.total,
         f"{p.ratio:.4f}")
        for p in points
    ]
    _write_csv(target, SWEEP_COLUMNS, rows)


def write_improvement_csv(target: str | IO[str],
                          rows: Iterable[Any]) -> None:
    formatted = [
        (r.mapping_id, r.flow_id, r.r_base, r.r_prop,
         None if r.improvement_pct is None else f"{r.improvement_pct:.2f}")
        for r in rows
    ]
    _write_csv(target, IMPROVEMENT_COLUMNS, formatted)


def write_run_meta(out_dir: str, **fields: Any) -> str:
    """Drop a run_meta.json sidecar recording the seed and invocation."""
    path = os.path.join(out_dir, "run_meta.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fields, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
