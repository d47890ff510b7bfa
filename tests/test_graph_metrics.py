"""Graph metrics (modularity, conductance) against the former per-edge
row-index label views; these need no sklearn, unlike test_metrics."""

import numpy as np
import pytest

from rwsl.graph import as_labels, disjoint_cliques, from_edge_array, rmat_generate
from rwsl.metrics import _edge_label_views, conductance, modularity


def edge_label_views_reference(g, assignment):
    """The former ``_edge_label_views`` (labels gathered through a per-edge
    row index), kept as its oracle."""
    if g.self_loops_added:
        raise ValueError("graph metrics use the un-augmented graph")
    assignment = as_labels(assignment)
    if len(assignment) != g.n_nodes:
        raise ValueError("assignment length != n_nodes")
    if g.n_edges == 0:
        raise ValueError("graph has no edges")
    rows = np.repeat(np.arange(g.n_nodes, dtype=np.int64), g.degrees)
    return assignment, assignment[rows], assignment[g.col_indices]


GRAPHS = {
    "rmat": lambda: rmat_generate(2000, 8, seed=3),
    "cliques": lambda: disjoint_cliques(3, 7),
    "isolated-nodes": lambda: from_edge_array(8, np.array([0, 1, 2, 0]), np.array([1, 2, 3, 3])),
    "duplicate-reversed": lambda: from_edge_array(
        6, np.array([0, 1, 1, 4, 5, 2, 2]), np.array([1, 0, 1, 5, 4, 3, 3])),
}


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("k", [1, 2, 5])
def test_label_views_match_reference(graph, k):
    g = GRAPHS[graph]()
    labels = np.random.default_rng(k).integers(0, k, g.n_nodes)
    got, want = _edge_label_views(g, labels), edge_label_views_reference(g, labels)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.isfinite(modularity(g, labels)) and np.isfinite(conductance(g, labels))


def test_label_views_peak(traced_peak):
    g = rmat_generate(5000, 30, seed=0)
    labels = np.random.default_rng(0).integers(0, 8, g.n_nodes)
    views = _edge_label_views(g, labels)
    result = views[1].nbytes + views[2].nbytes
    peak = traced_peak(_edge_label_views, g, labels)
    # the two label views only; the per-edge row index added 1.0x
    assert peak - result < 0.25 * g.col_indices.nbytes
