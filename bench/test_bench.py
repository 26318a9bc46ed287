"""Smoke tests for the benchmark itself.

Run from the repository root with ``python3 -m pytest bench -q``.  Each
workload runs briefly and must pass its own output checks; the traced runs
must report every per-layer metric, nonzero on the workload it is predicted
to move (see the prediction table in bench/README.md).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

PREDICTED = {
    "groups.elem_ops": "orbit-grow",
    "groups.automorphisms_s": "orbit-wide",
    "groups.span_s": "orbit-wide",
    "action.letter_calls": "orbit-grow",
    "action.letter_s": "orbit-grow",
    "action.letter_us_per_call": "orbit-grow",
    "action.max_input_len": "orbit-grow",
    "vectors.canonical_class_calls": "orbit-wide",
    "vectors.canonical_class_self_s": "orbit-wide",
    "vectors.generates_s": "orbit-wide",
    "vectors.normalize_calls": "orbit-wide",
    "orbit.bfs_self_s": "orbit-grow",
    "orbit.vertices": "orbit-grow",
    "orbit.cap_hits": "orbit-grow",
    "orbit.new_vertex_ratio": "orbit-grow",
    "orbit.veech_rounds": "cli-cache",
    "orbit.veech_useful_ratio": "cli-cache",
    "finite_index.decide_calls": "cli-cache",
    "finite_index.decide_s": "cli-cache",
    "topology.ends_report_s": "cli-cache",
    "degree2.census_self_s": "census",
    "degree2.bit_moves": "census",
    "degree2.orbit_of_calls": "census",
    "cli.main_self_s": "cli-cache",
    "cli.cache_hit_ratio": "cli-cache",
    "cli.cache_bytes_written": "cli-cache",
    "trace_overhead_ratio": "orbit-grow",
}
# The orbit metrics are predicted to move on both orbit workloads.
BOTH_ORBITS = ("orbit.bfs_self_s", "orbit.vertices", "orbit.cap_hits", "orbit.new_vertex_ratio")


def bench(workload, trace, seed=1, cwd=None):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: bench(w, 1)[1] for w in WORKLOADS}


def value(result, metric):
    return result["metrics"][metric]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_its_checks(workload):
    record, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["seed"] == 1 and record["inputs_digest"]
    assert record["meta"]["python"] and record["meta"]["nproc"]


def test_traced_runs_pass_and_report_every_layer_metric(traced):
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names == set(PREDICTED)
    for result in traced.values():
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names


@pytest.mark.parametrize("metric", sorted(PREDICTED))
def test_layer_metric_is_nonzero_where_predicted_to_move(traced, metric):
    assert value(traced[PREDICTED[metric]], metric) > 0
    if metric in BOTH_ORBITS:
        assert value(traced["orbit-wide"], metric) > 0


def test_census_touches_no_group_elements(traced):
    assert value(traced["census"], "groups.elem_ops") == 0
    assert value(traced["census"], "action.letter_calls") == 0
    assert value(traced["census"], "vectors.canonical_class_calls") == 0


def test_named_counts_repeat_exactly(traced):
    # The seed changes the inputs but not the work, so the counts that later
    # changes may cite repeat across seeds as well as across runs.
    again = bench("orbit-grow", 1, seed=2)[1]
    for metric in ("groups.elem_ops", "action.letter_calls"):
        assert value(again, metric) == value(traced["orbit-grow"], metric)
    again = bench("census", 1, seed=2)[1]
    assert value(again, "degree2.bit_moves") == value(traced["census"], "degree2.bit_moves")


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
