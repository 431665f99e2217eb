"""Per-layer timing taken from outside the library.

``Tracer.install`` replaces the public functions that ``run_certificate``
calls with wrappers that record one span per call (name, start, end,
parent span, thread id, points handled).  The wrappers are set on the
attributes of ``biherm.certificate`` and ``biherm.deformation`` (and on
three methods of classes reached through them), so the library itself is
not edited and an untraced run executes none of this code.  Spans stay in
memory until ``spans_jsonl`` writes them out once, at the end of a run.

``layer_metrics`` turns the spans of one pass into per-layer self times: a
span's duration minus the part of it that its direct child spans cover.
With a thread pool the child spans of one ``chunked_map`` overlap, so the
self times then add up to busy time summed across threads, which can exceed
the wall time of the pass.
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from dataclasses import asdict, dataclass

# Layer of each wrapped function.  "other" is the self time of
# run_certificate: the code between its calls into the layers.
LAYER_OF = {
    "run_certificate": "other",
    "classify": "hopf_groups",
    "group_closure": "hopf_groups",
    "flow_spec_for": "potentials",
    "fundamental_annulus_sample": "potentials",
    "verify_rescaling": "potentials",
    "verify_h_invariance": "potentials",
    "select_deformation_time": "sweep",
    "deformation_wedge_residuals": "pointwise",
    "check_pointwise_algebra": "pointwise",
    "lee_forms": "fd1",
    "check_differential_identities": "fd2",
    "check_gamma_equivariance": "equivariance",
    "integrate_flow": "flow",
    "integrate_flow_chain": "flow",
    "chunked_map": "chunked_map",
    "chunk": "chunked_map",
    "residual_stats": "reporting",
    "to_json": "reporting",
}

# Helpers belong to their own layer only when run_certificate calls them
# directly (base assembly, the potential at the flowed points).  Called from
# inside a stage (the sweep, an FD layer, equivariance), their time is that
# stage's time.
HELPER_LAYER = {
    "quotient_triple": "assembly",
    "assemble_from_triple": "assembly",
    "potential": "potentials",
}

# Layers that keep their own label wherever they run.
CROSS_CUTTING = {"flow", "chunked_map", "reporting"}

LAYERS = ("hopf_groups", "potentials", "sweep", "assembly", "pointwise",
          "fd1", "fd2", "equivariance", "other", "flow", "chunked_map",
          "reporting")

# Stages of the ROADMAP's per-stage table, reported inclusive of the flow and
# chunked_map time spent inside them.
STAGES = ("potentials", "sweep", "assembly", "fd1", "fd2", "equivariance")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    points: int = 0


def _points_arg(args, kwargs) -> int:
    """Point count of the ``x`` argument of integrate_flow(_chain)."""
    x = kwargs["x"] if "x" in kwargs else args[2]
    return math.prod(x.shape[:-1])


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args=(), kwargs=None, points=0, parent=None):
        """Run fn(*args, **kwargs) inside a span; ``parent`` overrides the
        calling thread's current span (for work handed to a pool)."""
        kwargs = kwargs or {}
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, name, start, end, parent, threading.get_ident(),
                        points)
            with self._lock:
                self.spans.append(span)

    def take(self) -> list[Span]:
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    # -- wrappers ---------------------------------------------------------------

    def _plain(self, name, orig):
        def wrapper(*args, **kwargs):
            return self.call(name, orig, args, kwargs)
        return wrapper

    def _flow(self, name, orig):
        def wrapper(*args, **kwargs):
            return self.call(name, orig, args, kwargs,
                             points=_points_arg(args, kwargs))
        return wrapper

    def _chunked_map(self, orig):
        def body(fn, x, *args, **kwargs):
            owner = self.current()

            def chunk(part):
                return self.call("chunk", fn, (part,), parent=owner)

            return orig(chunk, x, *args, **kwargs)

        def wrapper(fn, x, *args, **kwargs):
            return self.call("chunked_map", body, (fn, x) + args, kwargs)
        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, certificate, deformation) -> None:
        """Wrap the layer entry points reached from ``run_certificate``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for attr in ("run_certificate", "classify", "group_closure",
                     "flow_spec_for", "fundamental_annulus_sample",
                     "verify_rescaling", "verify_h_invariance",
                     "select_deformation_time", "quotient_triple",
                     "assemble_from_triple", "deformation_wedge_residuals",
                     "check_pointwise_algebra",
                     "check_differential_identities",
                     "check_gamma_equivariance", "residual_stats"):
            self._patch(certificate, attr,
                        self._plain(attr, getattr(certificate, attr)))
        self._patch(certificate, "integrate_flow",
                    self._flow("integrate_flow", certificate.integrate_flow))
        self._patch(deformation, "integrate_flow",
                    self._flow("integrate_flow", deformation.integrate_flow))
        self._patch(deformation, "integrate_flow_chain",
                    self._flow("integrate_flow_chain",
                               deformation.integrate_flow_chain))
        self._patch(certificate, "chunked_map",
                    self._chunked_map(certificate.chunked_map))
        for cls, attr in ((certificate.StructureField, "lee_forms"),
                          (certificate.PotentialField, "potential"),
                          (certificate.CertificateReport, "to_json")):
            self._patch(cls, attr, self._plain(attr, cls.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _layer(span: Span, by_id: dict[int, Span]) -> str:
    if span.name not in HELPER_LAYER:
        return LAYER_OF[span.name]
    up = by_id.get(span.parent)
    while up is not None and (up.name in HELPER_LAYER
                              or LAYER_OF[up.name] in CROSS_CUTTING):
        up = by_id.get(up.parent)
    if up is None or up.name == "run_certificate":
        return HELPER_LAYER[span.name]
    return LAYER_OF[up.name]


def _stage(span: Span, by_id: dict[int, Span]) -> str:
    """Layer of the nearest span, this one or above, outside the
    cross-cutting layers.  The flow that run_certificate integrates itself
    is the base assembly."""
    up = span
    while up is not None and LAYER_OF.get(up.name) in CROSS_CUTTING:
        up = by_id.get(up.parent)
    if up is None:
        return "reporting"
    if up.name == "run_certificate" and LAYER_OF[span.name] == "flow":
        return "assembly"
    return _layer(up, by_id)


def _under(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    up = by_id.get(span.parent)
    while up is not None:
        if up.name == name:
            return True
        up = by_id.get(up.parent)
    return False


def layer_metrics(spans: list[Span], kept_samples: int) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    self_s = dict.fromkeys(LAYERS, 0.0)
    stage_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        kids = [(c.start, c.end) for c in children.get(s.id, ())]
        own = (s.end - s.start) - _covered(s.start, s.end, kids)
        self_s[_layer(s, by_id)] += own
        stage_s[_stage(s, by_id)] += own

    flows = [s for s in spans if LAYER_OF.get(s.name) == "flow"]
    flow_points = sum(s.points for s in flows)
    certify_points = sum(s.points for s in flows
                         if not _under(s, "select_deformation_time", by_id))
    out = {f"{layer}.s": value for layer, value in self_s.items()}
    out.update({f"{stage}.incl_s": stage_s[stage] for stage in STAGES})
    out["flow.calls"] = float(len(flows))
    out["flow.us_per_point"] = (1e6 * self_s["flow"] / flow_points
                                if flow_points else 0.0)
    out["flow.points_per_sample"] = (certify_points / kept_samples
                                     if kept_samples else 0.0)
    out["chunked_map.chunks"] = float(sum(1 for s in spans if s.name == "chunk"))
    out["layers_total.s"] = sum(self_s.values())
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def spans_jsonl(passes: list[list[Span]]) -> str:
    lines = []
    for index, spans in enumerate(passes):
        for s in spans:
            lines.append(json.dumps({"pass": index, **asdict(s)}))
    return "\n".join(lines) + "\n"
