"""Self-checks of the benchmark: BENCHMARK.json agrees with run.py, and
the traced run produces every per-layer metric, nonzero where the work
happens, with counts that repeat exactly across two traced runs.

Run from the repository root (about three minutes, most of it the traced
runs):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import COUNTS, layer_metrics, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SEED = 1

# metric -> workloads on which it must be nonzero (README.md's per-layer table)
NONZERO_ON = {
    "graph.load_edges_s": ("rmat-pipeline", "sweep-epsilon"),
    "graph.edges_parsed": ("rmat-pipeline", "sweep-epsilon"),
    "graph.load_features_s": ("rmat-pipeline", "sweep-epsilon"),
    "graph.load_labels_s": ("rmat-pipeline", "sweep-epsilon"),
    "graph.augment_s": ("rmat-pipeline", "sweep-epsilon"),
    "filters.exact_s": ("rmat-pipeline", "sweep-epsilon"),
    "filters.exact_calls": ("rmat-pipeline", "sweep-epsilon"),
    "filters.spmm_count": ("rmat-pipeline", "sweep-epsilon"),
    "filters.exact_gflop_computed": ("rmat-pipeline", "sweep-epsilon"),
    "filters.useful_ratio": ("rmat-pipeline", "sweep-epsilon"),
    "filters.randomwalk_s": ("rw-filter",),
    "filters.walks": ("rw-filter",),
    "filters.cache_save_s": ("rmat-pipeline",),
    "filters.cache_bytes": ("rmat-pipeline",),
    "nn.forward_s": ("csbm-cotrain",),
    "nn.forward_calls": ("csbm-cotrain",),
    "nn.backward_s": ("csbm-cotrain",),
    "nn.backward_calls": ("csbm-cotrain",),
    "nn.adamw_s": ("csbm-cotrain",),
    "nn.adamw_steps": ("csbm-cotrain",),
    "nn.kl_s": ("csbm-cotrain",),
    "nn.matmul_gflop_computed": ("csbm-cotrain",),
    "clustering.kmeans_s": ("csbm-cotrain",),
    "clustering.soft_assign_s": ("csbm-cotrain",),
    "clustering.target_refresh_s": ("csbm-cotrain",),
    "clustering.target_refreshes": ("csbm-cotrain",),
    "training.pretrain_s": ("csbm-cotrain",),
    "training.cotrain_s": ("csbm-cotrain",),
    "training.self_s": ("csbm-cotrain",),
    "metrics.evaluate_s": ("rmat-pipeline",),
    "metrics.accuracy": ("csbm-cotrain",),
    "metrics.nmi": ("csbm-cotrain",),
    "pipeline.write_s": ("rmat-pipeline", "sweep-epsilon"),
    "pipeline.self_s": ("rmat-pipeline", "sweep-epsilon"),
    "pipeline.artifact_bytes": ("rmat-pipeline", "sweep-epsilon"),
    "pipeline.sweep_runs": ("sweep-epsilon",),
    "trace.overhead_s": (),     # reported only; its sign is noise
}


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_sum_spans_and_divide_distinct_inputs():
    trace = {"spans": [["pipeline.sweep", 0.0, 10.0, -1],
                       ["pipeline.run", 1.0, 5.0, 0], ["filters.exact", 2.0, 3.0, 1],
                       ["pipeline.run", 5.0, 9.0, 0], ["filters.exact", 6.0, 8.0, 3]],
             "counters": {"filters.calls": 2, "filters.distinct_inputs": 1}}
    times, counts = layer_metrics(trace)
    assert times["filters.exact_s"] == 3.0
    assert times["pipeline.self_s"] == 2.0 + 3.0 + 2.0
    assert counts["filters.useful_ratio"] == 0.5
    assert set(counts) == set(COUNTS) | {"filters.useful_ratio"}


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert set(NONZERO_ON) == set(run.PER_LAYER)


def _traced_run(workload: str) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == set(run.PER_LAYER)
    return {name: m["value"] for name, m in line["metrics"].items()}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_metrics(workload):
    first, second = _traced_run(workload), _traced_run(workload)
    for name, workloads in NONZERO_ON.items():
        if workload in workloads:
            assert first[name] > 0, name
    counts = [n for n, (unit, _b) in run.PER_LAYER.items() if unit != "s"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    if workload == "rw-filter":
        assert first["filters.exact_calls"] == 0
    else:
        assert first["filters.randomwalk_s"] == 0 and first["filters.walks"] == 0
    expected_ratio = {"sweep-epsilon": 0.2}.get(workload, 1.0)
    assert first["filters.useful_ratio"] == pytest.approx(expected_ratio)
