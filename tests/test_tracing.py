"""The benchmark's span tracer still finds what it wraps.

``perfbench/tracing.py`` patches rlnoc's entry points by name from outside
the program, so renaming one of them breaks a traced benchmark run
(``--trace 1``) without failing any other test here.  This test loads the
tracer from its file, unedited, installs it on the imported program and
checks that every name it wraps is found, that a wrapped call still returns
its result, and that uninstalling puts every original back.
"""
from __future__ import annotations

import importlib.util
import os
import sys

import rlnoc.bench
import rlnoc.cli  # noqa: F401  (the tracer patches the loaded modules)
from rlnoc.analysis import ProtocolMode, quick_verdict
from rlnoc.model import Flowset, generate_rlrec

from conftest import make_flow

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patchable():
    """(owner, attribute) of everything the tracer may patch, with its
    current value."""
    found = {}
    for caller in ("rlnoc.cli", "rlnoc.bench", "rlnoc.files"):
        module = sys.modules[caller]
        for attr, value in vars(module).items():
            found[module, attr] = value
    for attr in ("__init__", "interference_sets"):
        found[Flowset, attr] = vars(Flowset)[attr]
    return found


def test_tracer_wraps_every_entry_point_and_uninstalls():
    tracing = _load_tracing()
    before = _patchable()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {key for key, value in _patchable().items()
                   if value is not before[key]}
        names = {attr for _, attr in patched}
        assert tracing.ENTRY_POINTS <= names
        assert {(Flowset, "__init__"), (Flowset, "interference_sets")} <= patched
        for owner, attr in patched:
            assert getattr(owner, attr).__wrapped__ is before[owner, attr]

        fs = Flowset(generate_rlrec(4, 4), [
            make_flow(0, 0, 5, length=8), make_flow(1, 1, 6, length=4),
        ])
        verdict = rlnoc.bench.quick_verdict(fs, ProtocolMode.PROPOSED)
        calls, _ = tracer.fold()
        assert calls["model.flowset_build"] == 1
        assert calls["analysis.quick_verdict"] == 1
        assert tracer.counts["quick_verdict.schedulable"] == verdict
    finally:
        tracer.uninstall()
    assert _patchable() == before
    assert verdict == quick_verdict(fs, ProtocolMode.PROPOSED)
