"""The traced benchmark's patch points resolve in dsex."""

import importlib.util

from conftest import ROOT


def _load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_and_unpatches():
    # perfbench/worker.py wraps dsex's layer functions by the names their
    # callers look up, so a rename that breaks `perfbench/run.py --trace 1`
    # fails here
    spans, worker = _load("spans"), _load("worker")
    tracer = spans.Tracer()
    try:
        worker.install(tracer)
        patched = list(tracer._undo)
    finally:
        tracer.unpatch()
    assert patched
    assert all(owner.__dict__[name] is original for owner, name, original in patched)
