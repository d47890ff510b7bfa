#!/usr/bin/env python3
"""rwsl benchmark: file-to-artifact workloads driven through rwsl's public
entry points.

Usage (from the root of an rwsl checkout):

    python3 perfbench/run.py --workload csbm-cotrain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process drives a closed loop: each operation runs in a fresh child
process with a fresh, empty output directory, and the next starts when the
previous one has been checked. Inputs are generated from ``--seed`` once,
cached under ``perfbench/.cache`` and excluded from every metric. With
``--trace 0`` the end-to-end metrics are reported as medians over the
operations; with ``--trace 1`` untraced and traced operations alternate and
the per-layer metrics come from the traced ones. The last line of standard
output is one JSON object; the full record (environment, input hashes and
generator parameters, every sample) goes to ``perfbench/.results``. The
exit status is nonzero when any output check failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchenv import pin_threads

THREAD_ENV = pin_threads()    # before numpy is imported anywhere

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OP_TIMEOUT_S = 170
SETUP_OPS = 3           # successful operations per run that also time set-up

# name -> (unit, better); BENCHMARK.json lists the same names
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "filter_mae": ("1", "lower"),
}
TIME_UNIT, COUNT_UNIT = ("s", "lower"), ("count", "lower")
PER_LAYER = {
    "graph.load_edges_s": TIME_UNIT,
    "graph.edges_parsed": COUNT_UNIT,
    "graph.load_features_s": TIME_UNIT,
    "graph.load_labels_s": TIME_UNIT,
    "graph.augment_s": TIME_UNIT,
    "filters.exact_s": TIME_UNIT,
    "filters.exact_calls": COUNT_UNIT,
    "filters.spmm_count": COUNT_UNIT,
    "filters.exact_gflop_computed": ("GFLOP", "lower"),
    "filters.useful_ratio": ("ratio", "higher"),
    "filters.randomwalk_s": TIME_UNIT,
    "filters.walks": COUNT_UNIT,
    "filters.cache_save_s": TIME_UNIT,
    "filters.cache_bytes": ("bytes", "lower"),
    "nn.forward_s": TIME_UNIT,
    "nn.forward_calls": COUNT_UNIT,
    "nn.backward_s": TIME_UNIT,
    "nn.backward_calls": COUNT_UNIT,
    "nn.adamw_s": TIME_UNIT,
    "nn.adamw_steps": COUNT_UNIT,
    "nn.kl_s": TIME_UNIT,
    "nn.matmul_gflop_computed": ("GFLOP", "lower"),
    "clustering.kmeans_s": TIME_UNIT,
    "clustering.soft_assign_s": TIME_UNIT,
    "clustering.target_refresh_s": TIME_UNIT,
    "clustering.target_refreshes": COUNT_UNIT,
    "training.pretrain_s": TIME_UNIT,
    "training.cotrain_s": TIME_UNIT,
    "training.self_s": TIME_UNIT,
    "metrics.evaluate_s": TIME_UNIT,
    "metrics.accuracy": ("ratio", "higher"),
    "metrics.nmi": ("ratio", "higher"),
    "pipeline.write_s": TIME_UNIT,
    "pipeline.self_s": TIME_UNIT,
    "pipeline.artifact_bytes": ("bytes", "lower"),
    "pipeline.sweep_runs": COUNT_UNIT,
    "trace.overhead_s": TIME_UNIT,
}


def _require_checkout() -> None:
    missing = [p for p in ("src/rwsl/__init__.py", "scripts/validate_sweep_csv.py")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"error: {ROOT} is not an rwsl checkout (missing {', '.join(missing)})")


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"threads": THREAD_ENV, "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _run_op(w, inputs: Path, op_dir: Path, traced: bool, setup: bool,
            reference) -> dict:
    """Run and check one operation in a child process; with ``setup`` the
    child also times loading the inputs after the operation."""
    from checks import check

    shutil.rmtree(op_dir, ignore_errors=True)
    out = op_dir / "out"
    out.mkdir(parents=True)
    spec = {"root": str(ROOT), "workload": w.name, "inputs": str(inputs),
            "out": str(out), "result": str(op_dir / "result.json"), "trace": traced,
            "setup": setup}
    sample = {"traced": traced, "problems": []}
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "op.py"), json.dumps(spec)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sample["problems"].append(f"operation exceeded {OP_TIMEOUT_S} s")
        return sample
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        sample["problems"].append(f"operation exited {proc.returncode}: {tail[0]}")
        return sample
    sample.update(json.loads((op_dir / "result.json").read_text()))
    problems, measured, fingerprint = check(w, out, reference)
    sample["problems"] += problems
    sample.update(measured, fingerprint=fingerprint)
    shutil.rmtree(op_dir, ignore_errors=True)
    return sample


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def _layer_metrics(ok: list) -> tuple[dict, list]:
    """Per-layer metrics from the traced samples, plus consistency problems."""
    from tracer import layer_metrics

    traced = [s for s in ok if s["traced"]]
    plain = [s for s in ok if not s["traced"]]
    if not traced or not plain:
        return {}, ["trace run needs at least one traced and one untraced operation"]
    per_op = [layer_metrics(s["trace"]) for s in traced]
    problems = [f"traced operation {i}: counts differ from the first traced operation"
                for i, (_t, counts) in enumerate(per_op) if counts != per_op[0][1]]
    values = {name: statistics.median(t[name] for t, _c in per_op) for name in per_op[0][0]}
    values.update(per_op[0][1])
    values["metrics.accuracy"] = traced[0].get("accuracy", 0.0)
    values["metrics.nmi"] = traced[0].get("nmi", 0.0)
    values["pipeline.artifact_bytes"] = traced[0]["artifact_bytes"]
    values["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    return values, problems


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    """Generate or load the inputs, run the closed loop, and summarize."""
    import numpy as np

    from inputs import prepare

    inputs, inputs_desc = prepare(w, seed, BENCH / ".cache")
    reference = np.load(inputs / "reference.npy")
    work = BENCH / ".runs" / w.name
    min_ops = 4 if trace else 3
    samples, cycles = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = trace and len(samples) % 2 == 1
        setup = not trace and sum(s.get("setup_s") is not None
                                  for s in samples) < SETUP_OPS
        samples.append(_run_op(w, inputs, work / f"op{len(samples)}", traced, setup,
                               reference))
        cycles.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(samples) >= min_ops and elapsed + statistics.median(cycles) > seconds:
            break
    shutil.rmtree(work, ignore_errors=True)

    ok = [s for s in samples if not s["problems"]]
    fingerprints = {s["fingerprint"] for s in ok}
    problems = [f"op {i}: {p}" for i, s in enumerate(samples) for p in s["problems"]]
    if len(fingerprints) > 1:
        problems.append("outputs differ between operations on the same inputs "
                        "(metrics.json / sweep CSV / filtered values)")
    metrics = {}
    if ok and trace:
        metrics, trace_problems = _layer_metrics(ok)
        problems += trace_problems
    elif ok:
        metrics = {"wall_s": _median(ok, "wall_s"),
                   "setup_s": _median([s for s in ok if s["setup_s"] is not None],
                                      "setup_s"),
                   # The same operation's peak moves with where glibc places its
                   # heap, which differs from process to process (305-342 MB on
                   # one csbm-cotrain input); the smallest peak is what the
                   # operation needs, and it repeats across runs.
                   "peak_rss_mb": min(s["peak_rss_mb"] for s in ok),
                   "filter_mae": _median(ok, "filter_mae")}
    failed = len(samples) - len(ok)
    if problems and not failed:
        failed = 1          # a cross-operation inconsistency fails the run
    return {"workload": w.name, "seed": seed, "trace": trace, "seconds": seconds,
            "inputs": inputs_desc, "environment": _environment(),
            "attempted": len(samples), "failed": failed, "problems": problems,
            "metrics": metrics,
            "samples": [{k: v for k, v in s.items() if k != "trace"} for s in samples]}


def _print_summary(summary: dict) -> None:
    units = PER_LAYER if summary["trace"] else END_TO_END
    ok = [s for s in summary["samples"] if not s["problems"]]
    traced = sum(s["traced"] for s in ok)
    print(f"== {summary['workload']}  seed={summary['seed']}  trace={int(summary['trace'])}"
          f"  operations={summary['attempted']}  failed={summary['failed']}"
          f"  error_rate={summary['failed'] / summary['attempted']:.3f}"
          f"  threads={THREAD_ENV['OMP_NUM_THREADS']}")
    for name, value in summary["metrics"].items():
        if summary["trace"]:
            basis = f"{traced} traced operations"
        elif name == "setup_s":
            basis = f"median of {min(len(ok), SETUP_OPS)}"
        else:
            basis = f"{'smallest' if name == 'peak_rss_mb' else 'median'} of {len(ok)}"
        print(f"  {name:32s} {value:14.6g} {units[name][0]:6s} ({basis})")
    quality = [s for s in summary["samples"] if "accuracy" in s]
    if quality and not summary["trace"]:
        print(f"  {'accuracy / nmi (ungated)':32s} {quality[0]['accuracy']:.4f} / "
              f"{quality[0]['nmi']:.4f}")
    for problem in summary["problems"]:
        print(f"  FAIL {problem}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_checkout()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "scripts"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = BENCH / ".results"
    results.mkdir(exist_ok=True)
    summaries = []
    for name in names:
        summary = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(summary, indent=2) + "\n")
        _print_summary(summary)
        summaries.append(summary)

    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(names) > 1
    line = {
        "correct": all(not s["problems"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {(f"{s['workload']}/{k}" if prefix else k): {"value": v, "unit": units[k][0]}
                    for s in summaries for k, v in s["metrics"].items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
