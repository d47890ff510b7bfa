"""Scalable attributed-graph clustering: teleport-weighted feature filtering
plus a self-supervised co-trained autoencoder, with a six-metric evaluation
suite and a linear-scaling benchmark."""

from .clustering import hard_assign, kmeans, soft_assign, target_distribution
from .filters import FilterConfig, filter_exact, filter_randomwalk, ppr_weights
from .graph import (CsrGraph, augment_self_loops, disjoint_cliques,
                    load_edge_list, rmat_generate)
from .metrics import MetricReport, evaluate_all
from .pipeline import (RunConfig, bench_scalability, run_pipeline, sweep_alpha,
                       sweep_epsilon)
from .spectral import (SpectralReport, ppr_eigen_response, spectral_report,
                       verify_claim1, verify_claim2)
from .training import TrainConfig, TrainResult, pretrain_autoencoder, train_rwsl

__version__ = "0.1.0"

__all__ = [
    "CsrGraph", "FilterConfig", "MetricReport", "RunConfig",
    "SpectralReport", "TrainConfig", "TrainResult", "augment_self_loops",
    "bench_scalability", "disjoint_cliques", "evaluate_all", "filter_exact",
    "filter_randomwalk", "hard_assign", "kmeans", "load_edge_list",
    "ppr_eigen_response", "ppr_weights", "pretrain_autoencoder",
    "rmat_generate", "run_pipeline", "soft_assign",
    "spectral_report", "sweep_alpha", "sweep_epsilon", "target_distribution",
    "train_rwsl", "verify_claim1", "verify_claim2", "__version__",
]
