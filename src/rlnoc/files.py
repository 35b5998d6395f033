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
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, Sequence

from .analysis import AnalysisReport, ProtocolMode
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
TERMS_COLUMNS = ("flow_id", "mode", "term", "from_flow", "cycles")


class FileFormatError(ValueError):
    """A data file failed to parse; the message names the field and line."""


_SPACE = re.compile(r"[ \t\n\r]*")
_DECODE = json.JSONDecoder().raw_decode


def _members(text: str, start: int) -> Iterator[tuple[str | int, int, int]]:
    """(key or index, position, value position) of each member of the JSON
    object or array that opens at ``text[start]``; an object member's
    position is its key's.  ``text`` is valid JSON."""
    close = {"{": "}", "[": "]"}.get(text[start])
    if close is None:
        return
    i = _SPACE.match(text, start + 1).end()
    index = 0
    while text[i] != close:
        if close == "}":
            name, j = _DECODE(text, i)
            value = _SPACE.match(text, _SPACE.match(text, j).end() + 1).end()
            yield name, i, value
        else:
            value = i
            yield index, i, value
            index += 1
        i = _SPACE.match(text, _DECODE(text, value)[1]).end()
        if text[i] == ",":
            i = _SPACE.match(text, i + 1).end()


def _line_of(text: str, *where: str | int) -> int | None:
    """1-based line of the member that ``where`` names, walking down from the
    top-level value by object key (the last of a repeated key, the one
    ``json.loads`` keeps) or array index; None if there is no such member."""
    at = value = _SPACE.match(text).end()
    for name in where:
        found = None
        for member, pos, inner in _members(text, value):
            if member == name:
                found = pos, inner
        if found is None:
            return None
        at, value = found
    return text.count("\n", 0, at) + 1


def _fail(path: str, field: str, problem: str, line: int | None) -> None:
    where = f" (line {line})" if line is not None else ""
    raise FileFormatError(f"{path}: field {field!r} {problem}{where}")


def _get_int(obj: Mapping[str, Any], field: str, path: str, text: str,
             where: tuple[str | int, ...] = (), *, minimum: int) -> int:
    """``obj[field]`` as an int; ``where`` locates ``obj`` in the file."""
    if field not in obj:
        _fail(path, field, "is missing", None)
    value = obj[field]
    # bool is an int subtype; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, field, f"must be an integer, got {value!r}",
              _line_of(text, *where, field))
    if value < minimum:
        _fail(path, field, f"must be >= {minimum}, got {value}",
              _line_of(text, *where, field))
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
    where = ("flows", index)
    fid = _get_int(entry, "id", path, text, where, minimum=0)
    kwargs = dict(
        flow_id=fid,
        period=_get_int(entry, "T", path, text, where, minimum=1),
        deadline=_get_int(entry, "D", path, text, where, minimum=1),
        length=_get_int(entry, "L", path, text, where, minimum=1),
        jitter=_get_int(entry, "J", path, text, where, minimum=0),
        src=_get_int(entry, "src", path, text, where, minimum=0),
        dst=_get_int(entry, "dst", path, text, where, minimum=0),
    )
    if entry.get("maxloop") is not None:
        kwargs["maxloop"] = _get_int(entry, "maxloop", path, text, where,
                                     minimum=0)
    try:
        return Flow(**kwargs)
    except ModelError as exc:
        _fail(path, label, f"is invalid: {exc}", _line_of(text, *where, "id"))
    raise AssertionError("unreachable")


def _parse_flows(raw: list, path: str, text: str) -> list[Flow]:
    """The file's flows in order; an ``id`` seen before is named at the line
    of its repeat."""
    flows: dict[int, Flow] = {}
    for i, entry in enumerate(raw):
        flow = _parse_flow(entry, i, path, text)
        if flow.flow_id in flows:
            _fail(path, "id", f"repeats flow id {flow.flow_id}",
                  _line_of(text, "flows", i, "id"))
        flows[flow.flow_id] = flow
    return list(flows.values())


def _parse_topology(doc: Mapping[str, Any], path: str,
                    text: str) -> NetworkTopology:
    rows = _get_int(doc, "rows", path, text, minimum=2)
    cols = _get_int(doc, "cols", path, text, minimum=2)
    raw = doc.get("rings")
    # A switch id is an int; bool, an int subtype, is not one.
    if raw is not None and (not isinstance(raw, list) or not all(
            isinstance(r, list) and all(type(s) is int for s in r) for r in raw)):
        _fail(path, "rings", "must be a list of integer switch-id lists",
              _line_of(text, "rings"))
    try:
        if raw is None:
            return generate_rlrec(rows, cols)
        rings = tuple(
            Ring(ring_id=i, switches=tuple(sw)) for i, sw in enumerate(raw)
        )
        return NetworkTopology(rows=rows, cols=cols, rings=rings)
    except ModelError as exc:
        # Without rings, the generator rejects the grid's shape.
        field = "cols" if raw is None else "rings"
        _fail(path, field, f"is invalid: {exc}", _line_of(text, field))
    raise AssertionError("unreachable")


def load_flowset(path: str) -> Flowset:
    doc, text = _load_json(path)
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    topology = _parse_topology(doc, path, text)
    raw_flows = doc.get("flows", [])
    if not isinstance(raw_flows, list):
        _fail(path, "flows", "must be a list", _line_of(text, "flows"))
    flows = _parse_flows(raw_flows, path, text)
    try:
        return Flowset(topology, flows)
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
                "J": f.jitter, "src": f.src, "dst": f.dst,
                "maxloop": flowset.maxloops[f.flow_id],
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
    return tuple(_parse_flows(raw_flows, path, text))


def load_sweep_config(path: str) -> SweepConfig:
    doc, _ = _load_json(path)
    try:
        return SweepConfig.from_dict(doc)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


_BOOL = ("false", "true")  # a bool column's text, indexed by the bool


def _write(target: str | IO[str], emit: Callable[[IO[str]], Any]) -> None:
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
    else:
        emit(target)


def _write_csv(target: str | IO[str], header: Sequence[str],
               rows: Iterable[Sequence[Any]]) -> None:
    """Write the rows as given; the csv module writes None as an empty
    field, and callers spell their bool columns with ``_BOOL``."""
    def emit(fh: IO[str]) -> None:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    _write(target, emit)


def write_report_csv(target: str | IO[str],
                     reports: Sequence[AnalysisReport]) -> None:
    rows = []
    for report in reports:
        for fa in report.flows:
            rows.append((
                fa.flow_id, report.mode.value, fa.no_load, fa.pre_idle,
                fa.pre_queue, fa.post_injection, fa.bound, fa.deadline,
                _BOOL[fa.schedulable], fa.iterations, _BOOL[fa.converged],
            ))
    _write_csv(target, REPORT_COLUMNS, rows)


def write_terms_csv(target: str | IO[str],
                    parts: Iterable[tuple[ProtocolMode, list[tuple]]]) -> None:
    """Each mode's ``analysis.terms`` rows, one mode after another."""
    rows = [(fid, mode.value, term, other, cycles)
            for mode, part in parts for fid, term, other, cycles in part]
    _write_csv(target, TERMS_COLUMNS, rows)


def write_trace_csv(target: str | IO[str], trace: SimTrace) -> None:
    """Formats what ``_write_csv`` would: no int, empty or bool is quoted."""
    flags = [_BOOL[False]] * len(trace.records)
    for i in trace.violated:
        flags[i] = _BOOL[True]
    lines = [",".join(TRACE_COLUMNS)]
    for r, flag in zip(trace.records, flags):
        end = r.eject_end
        if end is None:
            at = "" if r.inject_start is None else r.inject_start
            lines.append(f"{r.flow_id},{r.seq},{r.release},{at},,"
                         f"{r.deflections},,{flag}")
        else:
            lines.append(f"{r.flow_id},{r.seq},{r.release},{r.inject_start},"
                         f"{end},{r.deflections},{end - r.release + 1},{flag}")
    _write(target, lambda fh: fh.write("\r\n".join(lines) + "\r\n"))


def write_trace_summary_csv(
    target: str | IO[str], trace: SimTrace,
    tally: Mapping[int, tuple[int, int, int]],
) -> None:
    """One row per flow; ``tally`` is ``trace.per_flow()``."""
    rows = [
        (fid, packets, delivered, trace.max_latency.get(fid),
         trace.max_deflections.get(fid), violations)
        for fid, (packets, delivered, violations) in tally.items()
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
