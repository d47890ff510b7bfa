"""Seeded input generation with an on-disk cache.

Every input is written in the canonical text formats with rwsl's own
``save_*`` writers, together with the exact filter reference the
``filter_mae`` metric is measured against. A cache entry is keyed by the
workload name, the seed and a digest of the generator parameters, and is
published by renaming a finished temporary directory, so a half-written
entry is never read. Generation is never timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
from rwsl.filters import FilterConfig, filter_exact
from rwsl.graph import (augment_self_loops, from_edge_array, rmat_generate,
                        save_edge_list, save_features, save_labels)

from workloads import FILTER_REFERENCE_HOPS, Workload

INPUT_FILES = ("edges.txt", "features.txt", "labels.txt", "reference.npy")


def contextual_sbm(n_nodes: int, n_features: int, n_classes: int, avg_degree: int,
                   intra_ratio: float, mean_scale: float, rng: np.random.Generator):
    """Contextual stochastic block model (Deshpande et al., 2018).

    Labels are uniform over the classes. Every node draws ``avg_degree // 2``
    partners, a member of its own class with odds ``intra_ratio`` : 1 against
    a member of another class, so no node is isolated. Features are the
    node's class mean (Gaussian, scaled by ``mean_scale``) plus unit
    Gaussian noise. Returns (graph, features, labels).
    """
    labels = rng.integers(0, n_classes, n_nodes)
    src = np.repeat(np.arange(n_nodes), avg_degree // 2)
    intra = rng.random(len(src)) < intra_ratio / (intra_ratio + 1.0)
    other = (labels[src] + rng.integers(1, n_classes, len(src))) % n_classes
    target = np.where(intra, labels[src], other)
    members = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=n_classes)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    dst = members[starts[target] + (rng.random(len(src)) * counts[target]).astype(np.int64)]
    g = from_edge_array(n_nodes, src, dst)
    means = rng.normal(size=(n_classes, n_features)) * mean_scale
    x = means[labels] + rng.normal(size=(n_nodes, n_features))
    return g, x, labels


def _generate(w: Workload, seed: int):
    rng = np.random.default_rng([seed, 1])
    p = w.gen
    if w.graph == "csbm":
        return contextual_sbm(p["n_nodes"], p["n_features"], p["n_classes"],
                              p["avg_degree"], p["intra_ratio"], p["mean_scale"], rng)
    g = rmat_generate(p["n_nodes"], p["edge_factor"], seed)
    x = rng.normal(size=(p["n_nodes"], p["n_features"]))
    labels = rng.integers(0, p["n_classes"], p["n_nodes"]) if w.has_labels else None
    return g, x, labels


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def reference_config(w: Workload) -> FilterConfig:
    """The workload's filter settings with the long-hop truncation."""
    settings = {key: w.config[key] for key in ("alpha", "rrz") if key in w.config}
    return FilterConfig(hops=FILTER_REFERENCE_HOPS, **settings)


def generator_params(w: Workload, seed: int) -> dict:
    ref = reference_config(w)
    return {"workload": w.name, "seed": seed, "graph": w.graph, **w.gen,
            "labels": w.has_labels,
            "reference": {"alpha": ref.alpha, "rrz": ref.rrz, "hops": ref.hops}}


def prepare(w: Workload, seed: int, cache_root: Path) -> tuple[Path, dict]:
    """Return (directory, description) of the cached inputs, generating them
    on a miss. The description holds the generator parameters and the
    sha256 of every file."""
    params = generator_params(w, seed)
    digest = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:12]
    final = cache_root / w.name / f"seed{seed}-{digest}"
    manifest = final / "inputs.json"
    if manifest.exists():
        return final, json.loads(manifest.read_text())

    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    g, x, labels = _generate(w, seed)
    save_edge_list(g, tmp / "edges.txt")
    save_features(x, tmp / "features.txt")
    if labels is not None:
        save_labels(labels, tmp / "labels.txt")
    np.save(tmp / "reference.npy",
            filter_exact(augment_self_loops(g), x, reference_config(w)))
    desc = {"params": params, "n_edges": int(g.n_edges),
            "sha256": {name: sha256_file(tmp / name) for name in INPUT_FILES
                       if (tmp / name).exists()}}
    (tmp / "inputs.json").write_text(json.dumps(desc, indent=2) + "\n")
    try:
        os.replace(tmp, final)
    except OSError:          # another process published the same entry first
        shutil.rmtree(tmp, ignore_errors=True)
    return final, json.loads(manifest.read_text())
