import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rwsl.graph import disjoint_cliques, save_edge_list, save_features, save_labels

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def traced_peak():
    """Returns a function that runs ``fn(*args, **kwargs)`` and gives the peak
    bytes tracemalloc saw allocated during the call, above what was live at
    its start."""
    def run(fn, *args, **kwargs):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
    return run


@pytest.fixture
def two_cliques():
    """Two disjoint 5-cliques with one-hot clique-indicator features."""
    g = disjoint_cliques(2, 5)
    x = np.repeat(np.eye(2), 5, axis=0)
    labels = np.repeat(np.array([0, 1]), 5)
    return g, x, labels


@pytest.fixture
def two_cliques_dataset(two_cliques, tmp_path):
    """The clique fixture written out in the canonical file formats."""
    g, x, labels = two_cliques
    save_edge_list(g, tmp_path / "edges.txt")
    save_features(x, tmp_path / "features.txt")
    save_labels(labels, tmp_path / "labels.txt")
    return {
        "edges": str(tmp_path / "edges.txt"),
        "n_nodes": g.n_nodes,
        "features": str(tmp_path / "features.txt"),
        "labels": str(tmp_path / "labels.txt"),
        "k": 2,
        "out": str(tmp_path / "out"),
    }


FIXTURE_TRAIN_KEYS = {
    "architecture": "32-8",
    "learning_rate": 0.01,
    "pretrain_lr": 0.01,
    "n_epochs": 150,
    "pretrain_n_epochs": 100,
    "batch_size": 10,
    "dropout_rate": 0.0,
    "epsilon": 0.2,
    "seed": 0,
}


@pytest.fixture
def fixture_run_values(two_cliques_dataset):
    """Flat config dict for a converging run on the clique fixture."""
    return {**two_cliques_dataset, **FIXTURE_TRAIN_KEYS}
