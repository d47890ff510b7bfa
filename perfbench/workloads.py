"""The four benchmark workloads: what each one generates and which public
rwsl entry point one operation calls.

Sizes are chosen so that one operation takes a few seconds on a 2-core
machine with one BLAS thread, which lets a 20-second run take the median
of several operations. Every operation reads its inputs from files on disk
and writes its artifacts into a fresh, empty directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

EPSILON_VALUES = (0.0, 0.2, 0.5, 0.8, 1.0)   # the README's sweep values
FILTER_REFERENCE_HOPS = 200                  # "long-hop" exact reference


@dataclass(frozen=True)
class Workload:
    """One workload.

    ``graph`` names the generator ("csbm" or "rmat") and ``gen`` holds its
    parameters. ``operation`` is "pipeline" (``run_pipeline``), "sweep"
    (``sweep_epsilon``) or "cli-filter" (``rwsl.cli.main(["filter", ...])``).
    ``config`` holds flat run-config keys as ``resolve_run_config`` takes
    them. ``accuracy_floor`` is an output check; ``None`` skips it.
    """

    name: str
    why: str
    graph: str
    gen: dict
    operation: str
    config: dict = field(default_factory=dict)
    has_labels: bool = True
    accuracy_floor: float | None = None

    @property
    def n_nodes(self) -> int:
        return self.gen["n_nodes"]

    @property
    def k(self) -> int:
        return self.gen["n_classes"]


# Minimal co-train for the R-MAT workloads: one epoch of a small network,
# no pretraining, so loaders, filter, evaluation and writes dominate.
# Random features have no cluster structure, so Lloyd iterations run until
# the cap; the cap of 20 (as in rwsl's own BENCH_TRAIN_CONFIG) keeps their
# number, and with it the time, the same for every seed (uncapped, k-means
# took 0.2 s on one seed and 1.1 s on another).
_MINIMAL_TRAIN = {"architecture": "64-16", "n_epochs": 1, "pretrain_n_epochs": 0,
                  "learning_rate": 1e-3, "kmeans_max_iters": 20, "seed": 0}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="csbm-cotrain",
            why="Contextual SBM with planted labels and the paper architecture: "
                "nn/training/clustering do nearly all the work; accuracy has a "
                "floor, so a speed-up that costs quality shows.",
            graph="csbm",
            # Mean scale 0.2 keeps accuracy mid-range (about 0.75-0.99 over
            # seeds); 0.25 mostly saturates near 0.99.
            gen={"n_nodes": 1000, "n_features": 300, "n_classes": 6,
                 "avg_degree": 6, "intra_ratio": 4.0, "mean_scale": 0.2},
            operation="pipeline",
            config={"architecture": "512-2048-32", "pretrain_n_epochs": 1,
                    "n_epochs": 2, "learning_rate": 1e-3, "pretrain_lr": 1e-3,
                    "seed": 0},
            accuracy_floor=0.5,
        ),
        Workload(
            name="rmat-pipeline",
            why="Power-law R-MAT graph with a minimal co-train: loaders, the exact "
                "filter, evaluation and artifact writes dominate; an nn change "
                "should not move it.",
            graph="rmat",
            gen={"n_nodes": 20000, "edge_factor": 10.0, "n_features": 64,
                 "n_classes": 8},
            operation="pipeline",
            config=dict(_MINIMAL_TRAIN),
        ),
        Workload(
            name="rw-filter",
            why="rwsl filter with the random-walk estimator (rrz 0.5, r_max 1e-3): "
                "the only caller of filter_randomwalk, judged by time and by its "
                "error against a long-hop exact reference.",
            graph="rmat",
            gen={"n_nodes": 1000, "edge_factor": 10.0, "n_features": 32},
            operation="cli-filter",
            config={"filter_method": "randomwalk", "rrz": 0.5, "r_max": 1e-3,
                    "seed": 0},
            has_labels=False,
        ),
        Workload(
            name="sweep-epsilon",
            why="sweep_epsilon over five blend weights on one R-MAT graph: the only "
                "workload whose operations share work (identical filter inputs).",
            graph="rmat",
            gen={"n_nodes": 8000, "edge_factor": 10.0, "n_features": 64,
                 "n_classes": 8},
            operation="sweep",
            config=dict(_MINIMAL_TRAIN),
        ),
    )
}
