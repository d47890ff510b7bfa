"""Clustering evaluation: optimal-matching accuracy, NMI, ARI, macro-F1,
modularity and conductance.

Label metrics compare a predicted clustering against ground-truth classes;
matching-based ones (accuracy, macro-F1) first align cluster ids to class
ids by maximum-weight assignment on the confusion matrix. Graph metrics
(modularity, conductance) need only the topology (without self-loops) and
the predicted assignment, and run in one vectorized pass over edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graph import CsrGraph, as_labels


@dataclass(frozen=True)
class MetricReport:
    """The six evaluation scores; field order is the serialization order."""

    accuracy: float
    nmi: float
    ari: float
    macro_f1: float
    modularity: float
    conductance: float

    FIELDS = ("accuracy", "nmi", "ari", "macro_f1", "modularity", "conductance")

    def __post_init__(self):
        for name in ("accuracy", "nmi", "macro_f1", "conductance"):
            val = getattr(self, name)
            if not -1e-9 <= val <= 1 + 1e-9:
                raise ValueError(f"{name}={val} outside [0, 1]")
        if not -1 - 1e-9 <= self.ari <= 1 + 1e-9:
            raise ValueError(f"ari={self.ari} outside [-1, 1]")
        if not -0.5 - 1e-9 <= self.modularity <= 1 + 1e-9:
            raise ValueError(f"modularity={self.modularity} outside [-0.5, 1]")

    def as_dict(self) -> dict:
        return {name: float(getattr(self, name)) for name in self.FIELDS}


def _check_lengths(pred: np.ndarray, truth: np.ndarray):
    pred = as_labels(pred)
    truth = as_labels(truth)
    if len(pred) != len(truth):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(truth)}")
    if len(pred) == 0:
        raise ValueError("empty labelings")
    return pred, truth


def _contingency(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    table = np.zeros((pred.max() + 1, truth.max() + 1), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    return table


def _optimal_mapping(pred: np.ndarray, truth: np.ndarray):
    """Injective cluster->class mapping maximizing matched count.

    The confusion matrix is zero-padded to square so extra clusters map to
    fictitious classes. Ties in the matched count are broken toward the
    higher per-pair F1 sum, which makes the downstream macro-F1 value
    independent of how the input happens to be labeled. Returns
    (mapping array over pred ids, matched count).
    """
    table = _contingency(pred, truth)
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    sums = padded.sum(axis=1)[:, None] + padded.sum(axis=0)[None, :]
    pair_f1 = np.divide(2.0 * padded, sums, out=np.zeros_like(padded, dtype=np.float64),
                        where=sums > 0)
    # secondary term stays < 1 in total, so the matched count still dominates
    score = padded + pair_f1 / (2.0 * size + 2.0)
    rows, cols = linear_sum_assignment(-score)
    mapping = np.empty(size, dtype=np.int64)
    mapping[rows] = cols
    return mapping, int(padded[rows, cols].sum())


def accuracy(pred, truth) -> float:
    """Fraction matched under the best injective cluster-to-class mapping."""
    pred, truth = _check_lengths(pred, truth)
    _, matched = _optimal_mapping(pred, truth)
    return matched / len(pred)


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def _identical_partitions(table: np.ndarray) -> bool:
    rows_ok = np.all((table > 0).sum(axis=1) <= 1)
    cols_ok = np.all((table > 0).sum(axis=0) <= 1)
    return bool(rows_ok and cols_ok)


def nmi(pred, truth) -> float:
    """Mutual information normalized by the arithmetic mean of entropies.

    Identical partitions (up to relabeling) score 1; a zero-entropy side
    against a non-identical partition scores 0.
    """
    pred, truth = _check_lengths(pred, truth)
    table = _contingency(pred, truth)
    if _identical_partitions(table):
        return 1.0
    n = len(pred)
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    h_pred = _entropy(a, n)
    h_truth = _entropy(b, n)
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    nz = table > 0
    nij = table[nz].astype(np.float64)
    outer = (a[:, None] * b[None, :])[nz].astype(np.float64)
    mi = float((nij / n * (np.log(nij * n) - np.log(outer))).sum())
    return float(np.clip(mi / (0.5 * (h_pred + h_truth)), 0.0, 1.0))


def _pairs(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    return x * (x - 1) // 2


def ari(pred, truth) -> float:
    """Adjusted Rand index via pair counting."""
    pred, truth = _check_lengths(pred, truth)
    n = len(pred)
    if n < 2:
        raise ValueError("ARI needs at least 2 samples")
    table = _contingency(pred, truth)
    index = int(_pairs(table).sum())
    sum_a = int(_pairs(table.sum(axis=1)).sum())
    sum_b = int(_pairs(table.sum(axis=0)).sum())
    pairs_n = int(_pairs(n))
    # scale by 2 * pairs_n so numerator and denominator stay integers
    numerator = 2 * pairs_n * index - 2 * sum_a * sum_b
    denominator = pairs_n * (sum_a + sum_b) - 2 * sum_a * sum_b
    if denominator == 0:
        return 1.0 if _identical_partitions(table) else 0.0
    return numerator / denominator


def macro_f1(pred, truth) -> float:
    """Macro-averaged F1 after aligning clusters to classes.

    Clusters are relabeled by the accuracy operation's optimal mapping;
    classes with zero precision and recall contribute an F1 of 0.
    """
    pred, truth = _check_lengths(pred, truth)
    mapping, _ = _optimal_mapping(pred, truth)
    relabeled = mapping[pred]
    k_truth = truth.max() + 1
    scores = []
    for c in range(k_truth):
        tp = np.count_nonzero((relabeled == c) & (truth == c))
        n_pred = np.count_nonzero(relabeled == c)
        n_true = np.count_nonzero(truth == c)
        if tp == 0:
            scores.append(0.0)
            continue
        precision = tp / n_pred
        recall = tp / n_true
        scores.append(2.0 * precision * recall / (precision + recall))
    return float(np.mean(scores))


def _edge_label_views(g: CsrGraph, assignment: np.ndarray):
    """The checked assignment and, per stored entry (u, v), the labels of u
    and of v; u's label is repeated along its row, so no per-edge row index
    is built."""
    if g.self_loops_added:
        raise ValueError("graph metrics use the un-augmented graph")
    assignment = as_labels(assignment)
    if len(assignment) != g.n_nodes:
        raise ValueError("assignment length != n_nodes")
    if g.n_edges == 0:
        raise ValueError("graph has no edges")
    return assignment, np.repeat(assignment, g.degrees), assignment[g.col_indices]


def _cluster_edge_counts(g: CsrGraph, assignment: np.ndarray):
    """The checked assignment and, per cluster, the stored entries (u, v)
    from it whose v shares its label (internal) and whose v does not (cut).

    The two edge label views are built once here, for modularity and
    conductance alike; the cut counts are all of a cluster's entries minus
    its internal ones.
    """
    assignment, c_src, c_dst = _edge_label_views(g, assignment)
    k = assignment.max() + 1
    same = c_src == c_dst
    del c_dst
    internal = np.bincount(c_src[same], minlength=k)
    cut = np.bincount(c_src, minlength=k) - internal
    return assignment, internal, cut


def _modularity(g: CsrGraph, assignment: np.ndarray, internal: np.ndarray) -> float:
    m = g.n_edges
    vol = np.bincount(assignment, weights=g.degrees.astype(np.float64),
                      minlength=len(internal))
    return float(np.sum(internal / 2.0 / m - (vol / (2.0 * m)) ** 2))


def _conductance(g: CsrGraph, assignment: np.ndarray, cut: np.ndarray) -> float:
    k = len(cut)
    cut = cut.astype(np.float64)
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


def modularity(g: CsrGraph, assignment) -> float:
    """Newman modularity Q = sum_c [ in_c / m - (vol_c / 2m)^2 ]."""
    assignment, internal, _ = _cluster_edge_counts(g, assignment)
    return _modularity(g, assignment, internal)


def conductance(g: CsrGraph, assignment) -> float:
    """Mean over non-empty clusters of cut(S) / min(vol(S), vol(V \\ S)).

    A cluster with zero volume (or an empty cut) contributes 0.
    """
    assignment, _, cut = _cluster_edge_counts(g, assignment)
    return _conductance(g, assignment, cut)


def evaluate_all(g: CsrGraph, pred, truth) -> MetricReport:
    """All six metrics for a predicted assignment against ground truth; the
    graph metrics share one pass over the edges."""
    assignment, internal, cut = _cluster_edge_counts(g, pred)
    return MetricReport(
        accuracy=accuracy(pred, truth),
        nmi=nmi(pred, truth),
        ari=ari(pred, truth),
        macro_f1=macro_f1(pred, truth),
        modularity=_modularity(g, assignment, internal),
        conductance=_conductance(g, assignment, cut),
    )
