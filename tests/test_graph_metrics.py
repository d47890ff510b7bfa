"""Graph metrics (modularity, conductance) against the former per-edge
row-index label views; these need no sklearn, unlike test_metrics."""

import numpy as np
import pytest

from rwsl import metrics
from rwsl.graph import as_labels, disjoint_cliques, from_edge_array, rmat_generate
from rwsl.metrics import _edge_label_views, conductance, evaluate_all, modularity


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


def modularity_reference(g, assignment):
    """The former ``modularity``, which built its own label views."""
    assignment, c_src, c_dst = _edge_label_views(g, assignment)
    k = assignment.max() + 1
    m = g.n_edges
    internal = np.bincount(c_src[c_src == c_dst], minlength=k) / 2.0
    vol = np.bincount(assignment, weights=g.degrees.astype(np.float64), minlength=k)
    return float(np.sum(internal / m - (vol / (2.0 * m)) ** 2))


def conductance_reference(g, assignment):
    """The former ``conductance``, which built its own label views."""
    assignment, c_src, c_dst = _edge_label_views(g, assignment)
    k = assignment.max() + 1
    cross = c_src != c_dst
    cut = np.bincount(c_src[cross], minlength=k).astype(np.float64)
    vol = np.bincount(assignment, weights=g.degrees.astype(np.float64), minlength=k)
    total_vol = 2.0 * g.n_edges
    sizes = np.bincount(assignment, minlength=k)
    scores = []
    for c in range(k):
        if sizes[c] == 0:
            continue
        denom = min(vol[c], total_vol - vol[c])
        scores.append(0.0 if cut[c] == 0.0 or denom == 0.0 else cut[c] / denom)
    return float(np.mean(scores))


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


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("k", [1, 2, 5])
def test_evaluate_all_builds_label_views_once(graph, k, monkeypatch):
    g = GRAPHS[graph]()
    rng = np.random.default_rng(k)
    labels = rng.integers(0, k, g.n_nodes)
    labels[labels == 1] = 0  # at k = 5, an empty cluster below the largest label
    truth = rng.integers(0, 3, g.n_nodes)
    want_q, want_c = modularity_reference(g, labels), conductance_reference(g, labels)
    assert np.float64(modularity(g, labels)).view(np.int64) == np.float64(want_q).view(np.int64)
    assert np.float64(conductance(g, labels)).view(np.int64) == np.float64(want_c).view(np.int64)
    calls = []
    views = metrics._edge_label_views
    monkeypatch.setattr(metrics, "_edge_label_views",
                        lambda *args: calls.append(1) or views(*args))
    report = evaluate_all(g, labels, truth)
    assert len(calls) == 1
    assert np.float64(report.modularity).view(np.int64) == np.float64(want_q).view(np.int64)
    assert np.float64(report.conductance).view(np.int64) == np.float64(want_c).view(np.int64)
