"""Routerless ring NoC latency bounds, simulation, and benchmarks."""

from .analysis import AnalysisReport, FlowAnalysis, ProtocolMode, analyze, quick_verdict
from .model import (
    Flow,
    Flowset,
    ModelError,
    NetworkTopology,
    Ring,
    generate_rlrec,
    maxloop_oldest_first,
    no_load_latency,
)
from .sim import ReleasePattern, SimTrace, run

__all__ = [
    "AnalysisReport",
    "Flow",
    "FlowAnalysis",
    "Flowset",
    "ModelError",
    "NetworkTopology",
    "ProtocolMode",
    "ReleasePattern",
    "Ring",
    "SimTrace",
    "analyze",
    "generate_rlrec",
    "maxloop_oldest_first",
    "no_load_latency",
    "quick_verdict",
    "run",
]
