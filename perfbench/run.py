"""Benchmark of ``run_certificate`` on criterion-4 group documents.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify-fd --seed 7 --seconds 40 --trace 0

Each pass certifies the workload's cases (generated group documents, samples
drawn from ``--seed``) one after another; passes repeat until ``--seconds``
have been measured.  ``--trace 0`` reports the end-to-end metrics of untraced
passes; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see spans.py).  Every certificate goes through the
correctness gate; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Results, the environment and the
spans are written to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402  (the benchmark's own module, next to this file)

SETUP_PROBES = 7

# Criterion-4 cases (tests/test_acceptance.py GROUPS) as group documents.
EPS3 = {"re": -0.5, "im": math.sqrt(3.0) / 2.0}
EPS3_INV = {"re": -0.5, "im": -math.sqrt(3.0) / 2.0}
CASE_DOCUMENTS = {
    "a": {"alpha": {"re": 0.3, "im": 0.4}, "beta": {"re": 0.3, "im": -0.4},
          "lambda": 0.0, "m": 1,
          "H": [[0, 1, -1, 0],
                [{"re": 0.0, "im": 1.0}, 0, 0, {"re": 0.0, "im": -1.0}]]},
    "b": {"alpha": 0.5, "beta": 0.6, "lambda": 0.0, "m": 1,
          "H": [[EPS3, 0, 0, EPS3_INV]]},
    "c": {"alpha": 0.6, "beta": 0.6, "lambda": 0.1, "m": 1,
          "H": [[-1.0, 0, 0, -1.0]]},
}

# Solver settings frozen here so that a change of library defaults changes
# the program, not the workload.
ODE_TOL = 1e-10
FD_STEP = 1e-3
T_GRID = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)

# Copy of the seed's DEFAULT_TOLERANCES: the tier ratios are measured against
# these, so that tightening a tier later does not read as a regression.
FROZEN_TIERS = {
    "potential_rescaling": 1e-10, "potential_h_invariance": 1e-10,
    "flow_preserves_f": 1e-8, "flow_preserves_phi": 1e-7,
    "deformed_psi_volume": 1e-7, "deformed_phi_orthogonality": 1e-7,
    "anticommutator": 1e-9, "exchange_f_plus": 1e-9, "exchange_f_minus": 1e-9,
    "volume_phi": 1e-9, "volume_psi_plus": 1e-9, "volume_psi_minus": 1e-9,
    "wedge_orthogonality_plus": 1e-9, "wedge_orthogonality_minus": 1e-9,
    "wedge_angle": 1e-9, "invariant_part_psi_minus": 1e-9,
    "selfdual_phi": 1e-9, "selfdual_psi_plus": 1e-9,
    "selfdual_psi_minus": 1e-9, "selfdual_f_plus": 1e-9,
    "selfdual_f_minus": 1e-9, "j_minus_square": 1e-9,
    "j_minus_orthogonality": 1e-9, "angle_bound": 1.0,
    "quotient_leibniz_phi": 1e-6, "quotient_leibniz_psi_plus": 1e-6,
    "quotient_leibniz_psi_minus": 1e-6, "canonical_factor": 1e-4,
    "type_one_two_part": 1e-5, "nijenhuis_j_minus": 1e-5,
    "lee_scalar": 1e-3, "lee_sum_selfdual": 1e-4, "lee_sum_closed": 1e-4,
    "equivariance_metric": 1e-7, "equivariance_j_minus": 1e-7,
}
NOT_RESIDUALS = {"angle_bound"}  # a bound on |p|, not a residual


@dataclass(frozen=True)
class Workload:
    cases: str
    n: int
    differential: bool


# Why each workload exists, and why there is no multi-thread workload:
# perfbench/README.md.
WORKLOADS = {
    "certify-fd": Workload("abc", 16, True),
    "certify-wide": Workload("abc", 300, False),
}

END_TO_END_UNITS = {
    "wall_s": "s", "samples_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "pass_frac": "ratio", "mean_tier_ratio": "ratio",
}
PER_LAYER_UNITS = {
    **{f"{layer}.s": "s" for layer in spans.LAYERS},
    **{f"{stage}.incl_s": "s" for stage in spans.STAGES},
    "flow.calls": "count", "flow.us_per_point": "us",
    "flow.points_per_sample": "points/sample", "chunked_map.chunks": "count",
    "trace_overhead_s": "s", "accounted_frac": "ratio", "fail_frac": "ratio",
    "worst_tier_ratio": "ratio",
}


def import_library():
    """biherm from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        from biherm import certificate, deformation
        from biherm.hopf_groups import group_data_from_json
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import biherm from {SRC}: {exc}")
    if Path(certificate.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: biherm imported from {certificate.__file__}, "
                         f"not from {SRC}")
    return certificate, deformation, group_data_from_json


def documents_for(workload: Workload) -> list[dict]:
    return [CASE_DOCUMENTS[c] for c in workload.cases]


def probe_setup(documents: list[dict]) -> float:
    """Set-up time of one fresh process (setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
         json.dumps(documents)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def make_configs(certificate, data, workload: Workload, seed: int,
                 n: int) -> list:
    return [certificate.CertificateConfig(
        data=d, n=n, seed=seed, ode_tol=ODE_TOL, fd_step=FD_STEP,
        t_grid=T_GRID, threads=1,
        with_differential=workload.differential) for d in data]


def run_pass(certificate, configs) -> list[tuple[str | None, str | None]]:
    """Certify each config once; returns (report text, error) per config."""
    out = []
    for cfg in configs:
        try:
            out.append((certificate.run_certificate(cfg).to_json(), None))
        except Exception as exc:  # a raising certificate counts as failed
            out.append((None, f"{type(exc).__name__}: {exc}"))
    return out


def certificate_problems(text: str | None, error: str | None) -> list[str]:
    """The fail_frac rule: raised, refused, a failing family, a family whose
    count is not n - excluded or is 0, or a non-finite residual."""
    if error is not None:
        return [f"raised {error}"]
    doc = json.loads(text)
    problems = []
    if "refusal" in doc:
        problems.append(f"refused: {doc['refusal']}")
    if not doc["identities"]:
        problems.append("no identity family evaluated")
    kept = doc["n"] - doc["excluded_samples"]
    for name, fam in doc["identities"].items():
        if not fam["pass"]:
            problems.append(f"{name}: max {fam['max']:.3e} fails its tier")
        if fam["count"] != kept or fam["count"] == 0:
            problems.append(f"{name}: count {fam['count']} != kept {kept}")
        if not all(math.isfinite(fam[k]) for k in ("max", "mean", "q95")):
            problems.append(f"{name}: non-finite residual")
    if not doc["pass"] and not problems:
        problems.append("report does not pass")
    return problems


def tier_ratio(texts: list[str], stat: str) -> float:
    """Largest, over residual families and cases, of the family's ``stat``
    ("max" or "mean") divided by its frozen tier."""
    worst = 0.0
    for text in texts:
        doc = json.loads(text)
        for name, fam in doc["identities"].items():
            if name not in NOT_RESIDUALS:
                tier = FROZEN_TIERS.get(name, doc["tolerances"][name])
                worst = max(worst, fam[stat] / tier)
    return worst


def kept_samples(texts: list[str | None]) -> int:
    total = 0
    for text in texts:
        if text is not None:
            doc = json.loads(text)
            total += doc["n"] - doc["excluded_samples"]
    return total


def git_commit() -> str:
    """HEAD of this checkout; "unknown" when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args, workload: Workload, n: int) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "threads": 1,
        "numpy": numpy.__version__, "python": platform.python_version(),
        "git_commit": git_commit(),
        "n_per_case": {case: n for case in workload.cases},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", type=int, default=None,
                        help="samples per case instead of the workload's n "
                             "(for the self-tests)")
    args = parser.parse_args(argv)

    certificate, deformation, group_data_from_json = import_library()
    workload = WORKLOADS[args.workload]
    n = workload.n if args.samples is None else args.samples
    documents = documents_for(workload)
    probe_setup(documents)  # compiles bytecode; not measured
    setup_times = [probe_setup(documents)]

    data = [group_data_from_json(doc) for doc in documents]
    timed = make_configs(certificate, data, workload, args.seed, n)
    warm_up = make_configs(certificate, data[:1], workload, args.seed, 2)
    run_pass(certificate, warm_up)  # not measured

    tracer = spans.Tracer()
    results = []  # (traced, wall, [(text, error)], spans)
    measured = 0.0
    while (measured < args.seconds or not results
           or (args.trace and len(results) < 2)):
        traced = bool(args.trace) and len(results) % 2 == 1
        if traced:
            tracer.install(certificate, deformation)
        try:
            start = time.perf_counter()
            certs = run_pass(certificate, timed)
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        results.append((traced, wall, certs, tracer.take()))
        measured += wall
        # spread the set-up probes over the run, so that one slow phase of
        # the host does not set them all
        setup_times.append(probe_setup(documents))
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(probe_setup(documents))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # correctness gate: every certificate on its own, and every report of a
    # case byte-identical across passes, traced or not
    reference = [text for text, _ in results[0][2]]
    attempted = failed = 0
    problems = []
    for index, (_, _, certs, _) in enumerate(results):
        for case, ref, (text, error) in zip(workload.cases, reference, certs):
            found = certificate_problems(text, error)
            if text is not None and text != ref:
                found.append("report bytes differ from the first pass")
            attempted += 1
            if found:
                failed += 1
                problems.append(f"pass {index} case {case}: {'; '.join(found)}")
    fail_frac = failed / attempted

    kept = kept_samples(reference)
    texts = [t for t in reference if t is not None]
    untraced_walls = [wall for traced, wall, _, _ in results if not traced]
    wall_s = statistics.median(untraced_walls)
    if args.trace:
        per_pass = [spans.layer_metrics(s, kept)
                    for traced, _, _, s in results if traced]
        traced_walls = [wall for traced, wall, _, _ in results if traced]
        metrics = spans.median_metrics(per_pass)
        metrics["accounted_frac"] = statistics.median(
            p["layers_total.s"] / w for p, w in zip(per_pass, traced_walls))
        metrics["trace_overhead_s"] = statistics.median(traced_walls) - wall_s
        metrics["fail_frac"] = fail_frac
        metrics["worst_tier_ratio"] = tier_ratio(texts, "max")
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": wall_s,
            "samples_per_s": statistics.median(kept / w for w in untraced_walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": 1.0 - fail_frac,
            "mean_tier_ratio": tier_ratio(texts, "mean"),
        }
        units = END_TO_END_UNITS

    env = environment(args, workload, n)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "result": result, "problems": problems,
              "pass_walls_s": [[traced, wall] for traced, wall, _, _ in results]}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        stem.with_suffix(".spans.jsonl").write_text(spans.spans_jsonl(
            [s for traced, _, _, s in results if traced]))

    print("environment: " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print(f"GATE FAILED {problem}")
    print(f"{args.workload}: {len(untraced_walls)} untraced pass(es), "
          f"{attempted} certificates, {failed} failed")
    if "fail_frac" not in result["metrics"]:
        print(f"  {'fail_frac':24s} {fail_frac:14.6g} ratio")
    for name, entry in result["metrics"].items():
        print(f"  {name:24s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
