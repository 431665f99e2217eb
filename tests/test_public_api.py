"""The package namespace and the entry points that the benchmark wraps."""

import importlib.util
import sys
from pathlib import Path

import biherm
from biherm import certificate, deformation

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_all_names_resolve():
    assert biherm.__all__
    for name in biherm.__all__:
        assert getattr(biherm, name) is not None, name


def test_benchmark_tracer_wraps_every_entry_point(monkeypatch):
    # perfbench/spans.py patches functions and methods by attribute name; a
    # rename or a move of any of them makes install() raise
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # for its dataclasses
    spec.loader.exec_module(spans)
    originals = dict(vars(certificate))
    tracer = spans.Tracer()
    tracer.install(certificate, deformation)
    try:
        assert certificate.run_certificate is not originals["run_certificate"]
    finally:
        tracer.uninstall()
    assert certificate.run_certificate is originals["run_certificate"]
    assert certificate.integrate_flow is originals["integrate_flow"]
