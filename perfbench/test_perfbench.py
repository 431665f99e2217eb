"""Self-tests of the benchmark at tiny n.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_N = {"certify-fd": 2, "certify-wide": 4}


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, seed: int = 7) -> dict:
    """Last stdout line of one benchmark run at tiny n, parsed."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--samples", str(TINY_N[workload])],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


def test_layers_account_for_traced_wall_time():
    for workload in run.WORKLOADS:
        metrics = bench(workload, 1)["metrics"]
        assert 0.99 < metrics["accounted_frac"]["value"] <= 1.0 + 1e-9


def test_fd_layers_read_zero_without_differential_families():
    metrics = bench("certify-wide", 1)["metrics"]
    for name in ("fd1.s", "fd2.s", "fd1.incl_s", "fd2.incl_s"):
        assert metrics[name]["value"] == 0.0
    assert bench("certify-fd", 1)["metrics"]["fd2.s"]["value"] > 0.0


def test_points_per_sample_repeats_exactly():
    first = bench("certify-fd", 1)["metrics"]
    second = bench("certify-fd", 1, seed=8)["metrics"]
    for name in ("flow.points_per_sample", "flow.calls", "chunked_map.chunks"):
        assert first[name]["value"] == second[name]["value"]
    # base 1 + FD centre 1 + 16 + outer 16 + inner 256 + equivariance
    # (1 + generators: 3, 2, 2 for cases a, b, c)
    assert first["flow.points_per_sample"]["value"] == pytest.approx(880 / 3, abs=0)


def _reports(seed: int) -> list[str]:
    certificate, _, group_data_from_json = run.import_library()
    workload = run.WORKLOADS["certify-wide"]
    data = [group_data_from_json(doc) for doc in run.documents_for(workload)]
    configs = run.make_configs(certificate, data, workload, seed, 3)
    return [text for text, _ in run.run_pass(certificate, configs)]


def test_seed_changes_the_samples():
    first, again, other = _reports(1), _reports(1), _reports(2)
    assert first == again

    def identities(texts):
        return [json.loads(t)["identities"] for t in texts]

    assert all(a != b for a, b in zip(identities(first), identities(other)))


def test_gate_flags_each_defect():
    text = _reports(1)[0]
    assert run.certificate_problems(text, None) == []
    assert run.certificate_problems(None, "StepSizeUnderflow: x")

    def broken(edit):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)

    def fail_family(d):
        d["identities"]["anticommutator"]["pass"] = False

    def short_count(d):
        d["identities"]["anticommutator"]["count"] -= 1

    def no_samples(d):
        d["n"] = d["excluded_samples"] = 0
        for fam in d["identities"].values():
            fam["count"] = 0

    def not_finite(d):
        d["identities"]["anticommutator"]["max"] = float("inf")

    def refused(d):
        d["refusal"] = "not of real type"

    for edit in (fail_family, short_count, no_samples, not_finite, refused):
        assert run.certificate_problems(broken(edit), None), edit.__name__


def test_self_time_subtracts_the_union_of_children():
    tree = [
        spans.Span(0, "run_certificate", 0.0, 10.0, None, 1),
        spans.Span(1, "check_differential_identities", 1.0, 9.0, 0, 1),
        spans.Span(2, "lee_forms", 1.0, 4.0, 1, 1),
        spans.Span(3, "chunked_map", 5.0, 9.0, 1, 1),
        spans.Span(4, "chunk", 5.0, 8.0, 3, 1),
        spans.Span(5, "chunk", 5.0, 9.0, 3, 2),
        spans.Span(6, "integrate_flow", 5.0, 7.0, 4, 1, points=4),
        spans.Span(7, "quotient_triple", 7.0, 8.0, 4, 1),
    ]
    m = spans.layer_metrics(tree, kept_samples=2)
    assert m["other.s"] == 2.0
    assert m["fd1.s"] == 3.0
    assert m["fd2.s"] == 1.0 + 1.0  # the helper inside the pool is fd2 time
    assert m["chunked_map.s"] == 4.0  # the second thread's chunk
    assert m["flow.s"] == 2.0 and m["flow.points_per_sample"] == 2.0
    # busy time: 10 s of wall plus the 3 s in which both threads worked
    assert m["layers_total.s"] == 13.0
