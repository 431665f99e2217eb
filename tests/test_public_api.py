"""The package namespace, its imports and the entry points that the
benchmark wraps."""

import ast
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import biherm
from biherm import certificate, deformation
from biherm.hopf_groups import ContractionParams, HopfGroupData

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
PACKAGE = Path(biherm.__file__).resolve().parent


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads and,
    in a package ``__init__``, does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


def test_unused_import_detector():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["b", "os"]
    assert _unused_imports("from a import b\n__all__ = ['b']\n") == []


def test_every_module_level_import_is_used():
    unused = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if (names := _unused_imports(path.read_text(encoding="utf-8")))}
    assert not unused


def _unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes without a leading underscore that
    no module reads (by name or as an attribute) and no ``__all__`` lists."""
    defined, read, exported = set(), set(), set()
    for source in sources.values():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.add(node.name)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__"
                          for t in node.targets)):
                exported.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(defined - read - exported)


def test_unreferenced_name_detector():
    sources = {"a.py": "def used(): pass\ndef dead(): pass\nclass _P: pass\n",
               "b.py": "from a import used\nused()\n"
                       "def listed(): pass\n__all__ = ['listed']\n"}
    assert _unreferenced_public_names(sources) == ["dead"]


def test_every_public_name_has_a_caller_in_the_library():
    # code that only the tests call lives in tests/support.py
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced_public_names(sources) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def _unread_dataclass_fields(sources: dict[str, str]) -> list[str]:
    """``Class.field`` for each dataclass field that no module reads, either
    as an attribute or through a string constant (``getattr`` names,
    ``asdict`` keys)."""
    fields, read = set(), set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields.update((node.name, stmt.target.id) for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign)
                              and isinstance(stmt.target, ast.Name))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in read)


def test_unread_dataclass_field_detector():
    sources = {"a.py": "@dataclass(frozen=True)\nclass P:\n    x: int\n"
                       "    y: int = 0\n    z: int = 0\n    w: int = 0\n"
                       "def f(p):\n    p.w = 1\n    return p.x + getattr(p, 'y')\n"}
    assert _unread_dataclass_fields(sources) == ["P.w", "P.z"]


def test_every_dataclass_field_has_a_reader():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_dataclass_fields(sources) == []


def test_all_names_resolve():
    assert biherm.__all__
    for name in biherm.__all__:
        assert getattr(biherm, name) is not None, name


@pytest.fixture
def spans(monkeypatch):
    """perfbench/spans.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_every_entry_point(spans):
    # perfbench/spans.py patches functions and methods by attribute name; a
    # rename or a move of any of them makes install() raise
    originals = dict(vars(certificate))
    tracer = spans.Tracer()
    tracer.install(certificate, deformation)
    try:
        assert certificate.run_certificate is not originals["run_certificate"]
    finally:
        tracer.uninstall()
    assert certificate.run_certificate is originals["run_certificate"]
    assert certificate.integrate_flow is originals["integrate_flow"]


def test_traced_certificate_counts_every_flow_point(spans, monkeypatch):
    # the tracer reads the points of a flow from its third positional
    # argument; each flow span must count the batch the integrator ran, the
    # FD layers must show as their spans, and tracing must not change the
    # report
    batches = []
    flow_states = deformation._flow_states

    def recording(spec, t_values, x, *args):
        batches.append(math.prod(np.atleast_2d(x).shape[:-1]))
        return flow_states(spec, t_values, x, *args)

    monkeypatch.setattr(deformation, "_flow_states", recording)
    for with_differential in (False, True):
        cfg = certificate.CertificateConfig(
            data=HopfGroupData(ContractionParams(0.5, 0.6)), n=2,
            with_differential=with_differential)
        plain = certificate.run_certificate(cfg).to_json()
        batches.clear()
        tracer = spans.Tracer()
        tracer.install(certificate, deformation)
        try:
            traced = certificate.run_certificate(cfg).to_json()
        finally:
            tracer.uninstall()
        taken = tracer.take()
        flows = sorted((s for s in taken
                        if spans.LAYER_OF.get(s.name) == "flow"),
                       key=lambda s: s.start)
        assert len(batches) > 1
        assert [s.points for s in flows] == batches
        names = {s.name for s in taken}
        for fd_span in ("lee_forms", "check_differential_identities"):
            assert (fd_span in names) == with_differential, fd_span
        assert traced == plain
