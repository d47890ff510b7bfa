"""Output checks for one benchmark operation.

Each check returns a list of problems (empty when the output is correct)
and the measurements read from the artifacts. An operation with any
problem counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from validate_sweep_csv import validate

from inputs import sha256_file
from workloads import EPSILON_VALUES, Workload

# Largest accepted filter_mae. The random-walk estimator reads about 0.022
# at 1000 walks per node on unit-Gaussian features; the exact filter's
# 16-hop truncation error reads about 0.008-0.011.
MAE_TOLERANCE = 0.05
PIPELINE_ARTIFACTS = ("metrics.json", "metrics.csv", "loss.csv", "assignments.txt",
                      "checkpoint.npz", "filtered.npz", "manifest.json")


def _check_run_dir(out: Path, n: int, k: int) -> list:
    """One pipeline run's artifact set, assignments and manifest hashes."""
    missing = [name for name in PIPELINE_ARTIFACTS if not (out / name).is_file()]
    if missing:
        return [f"{out.name}: missing artifacts {missing}"]
    problems = []
    assignments = np.loadtxt(out / "assignments.txt", dtype=np.int64, ndmin=1)
    if assignments.shape != (n,):
        problems.append(f"{out.name}: {assignments.shape[0]} assignments, expected {n}")
    elif assignments.min() < 0 or assignments.max() >= k:
        problems.append(f"{out.name}: assignment outside [0, {k})")
    recorded = json.loads((out / "manifest.json").read_text())["artifacts"]
    for name in PIPELINE_ARTIFACTS[:-1]:
        if recorded.get(name) != sha256_file(out / name):
            problems.append(f"{out.name}: manifest hash of {name} does not match the file")
    return problems


def filter_mae(filtered_npz: Path, reference: np.ndarray) -> float:
    """Mean absolute error of the stored filtered features; raises
    ValueError when the shape is wrong."""
    with np.load(filtered_npz) as blob:
        values = blob["values"]
    if values.shape != reference.shape:
        raise ValueError(f"filtered shape {values.shape} != {reference.shape}")
    return float(np.mean(np.abs(values - reference)))


def check(w: Workload, out: Path, reference: np.ndarray):
    """Return (problems, measurements, fingerprint).

    ``fingerprint`` digests the outputs that must be byte-identical across
    operations on the same inputs (metrics.json and the sweep CSV; for the
    filter, the filtered values).
    """
    problems, measured = [], {}
    if w.operation == "cli-filter":
        run_dirs, fingerprint_files = [], []
    elif w.operation == "sweep":
        run_dirs = [out / f"epsilon_{v}" for v in EPSILON_VALUES]
        csv = out / "sweep_epsilon.csv"
        if not csv.is_file():
            return ["sweep CSV missing"], measured, None
        problems += [f"sweep CSV: {p}" for p in validate(csv)]
        fingerprint_files = [csv]
    else:
        run_dirs = [out]
        fingerprint_files = []
    for run_dir in run_dirs:
        problems += _check_run_dir(run_dir, w.n_nodes, w.k)
    if problems:
        return problems, measured, None

    filtered = (run_dirs[0] if run_dirs else out) / "filtered.npz"
    try:
        measured["filter_mae"] = filter_mae(filtered, reference)
    except (OSError, KeyError, ValueError) as exc:
        return [f"filtered features: {exc}"], measured, None
    if not measured["filter_mae"] <= MAE_TOLERANCE:
        problems.append(f"filter_mae {measured['filter_mae']:.4g} above "
                        f"tolerance {MAE_TOLERANCE}")

    h = hashlib.sha256()
    if run_dirs:
        means = [json.loads((d / "metrics.json").read_text())["mean"] for d in run_dirs]
        measured["accuracy"] = float(np.mean([m["accuracy"] for m in means]))
        measured["nmi"] = float(np.mean([m["nmi"] for m in means]))
        if w.accuracy_floor is not None and measured["accuracy"] < w.accuracy_floor:
            problems.append(f"accuracy {measured['accuracy']:.4f} below floor "
                            f"{w.accuracy_floor}")
        for path in fingerprint_files + [d / "metrics.json" for d in run_dirs]:
            h.update(path.read_bytes())
    else:
        with np.load(filtered) as blob:
            h.update(np.ascontiguousarray(blob["values"]).tobytes())
    measured["artifact_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return problems, measured, h.hexdigest()
