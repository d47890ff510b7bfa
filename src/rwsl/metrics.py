"""Clustering evaluation: optimal-matching accuracy, NMI, ARI, macro-F1,
modularity and conductance.

Label metrics compare a predicted clustering against ground-truth classes;
matching-based ones (accuracy, macro-F1) first align cluster ids to class
ids by maximum-weight assignment on the confusion matrix, solved in-package
(``_assignment``) so that importing rwsl never loads ``scipy.optimize``.
Graph metrics (modularity, conductance) need only the topology (without
self-loops) and the predicted assignment, and run in one vectorized pass
over edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    k_pred, k_truth = pred.max() + 1, truth.max() + 1
    counts = np.bincount(pred * k_truth + truth, minlength=k_pred * k_truth)
    return counts.reshape(k_pred, k_truth)


def _assignment(cost: np.ndarray) -> np.ndarray:
    """Column for each row of a square cost matrix, minimizing the total cost.

    Shortest augmenting paths with row and column potentials (Crouse 2016,
    the method of ``scipy.optimize.linear_sum_assignment``): one path search
    per row, each step vectorized over the columns not yet on the path;
    O(k^3). Ties resolve as in scipy, so both return the same assignment:
    the unvisited columns are scanned from a list that starts in reverse
    order and drops each visited column by moving the last one into its
    place, and among equally short paths the last free column scanned wins,
    else the first column scanned.
    """
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n)
    col4row = np.full(n, -1, dtype=np.intp)
    row4col = np.full(n, -1, dtype=np.intp)
    path = np.full(n, -1, dtype=np.intp)
    for cur in range(n):
        shortest = np.full(n, np.inf)
        remaining = np.arange(n - 1, -1, -1)
        left = n
        rows, cols = [], []  # rows and columns the path search reached
        min_val, i, sink = 0.0, cur, -1
        while sink < 0:
            rem = remaining[:left]
            reach = min_val + cost[i, rem] - u[i] - v[rem]
            better = reach < shortest[rem]
            closer = rem[better]
            path[closer] = i
            shortest[closer] = reach[better]
            dist = shortest[rem]
            min_val = dist.min()
            ties = np.flatnonzero(dist == min_val)
            free = ties[row4col[rem[ties]] < 0]
            at = free[-1] if len(free) else ties[0]
            j = rem[at]
            cols.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
                rows.append(i)
            left -= 1
            remaining[at] = remaining[left]
        # move the potentials so every edge on the new path has zero reduced cost
        u[cur] += min_val
        rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
        u[rows] += min_val - shortest[col4row[rows]]
        v[cols] -= min_val - shortest[cols]
        # flip the alternating path back from the sink to the current row
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _optimal_mapping(table: np.ndarray):
    """Injective cluster->class mapping maximizing the matched count of a
    contingency table (clusters x classes).

    The table is zero-padded to square so extra clusters map to
    fictitious classes. Ties in the matched count are broken toward the
    higher per-pair F1 sum, which makes the downstream macro-F1 value
    independent of how the input happens to be labeled. Returns
    (mapping array over pred ids, matched count).
    """
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    sums = padded.sum(axis=1)[:, None] + padded.sum(axis=0)[None, :]
    pair_f1 = np.divide(2.0 * padded, sums, out=np.zeros_like(padded, dtype=np.float64),
                        where=sums > 0)
    # secondary term stays < 1 in total, so the matched count still dominates
    score = padded + pair_f1 / (2.0 * size + 2.0)
    mapping = _assignment(-score)
    return mapping, int(padded[np.arange(size), mapping].sum())


def accuracy(pred, truth) -> float:
    """Fraction matched under the best injective cluster-to-class mapping."""
    pred, truth = _check_lengths(pred, truth)
    _, matched = _optimal_mapping(_contingency(pred, truth))
    return matched / len(pred)


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def _identical_partitions(table: np.ndarray) -> bool:
    rows_ok = np.all((table > 0).sum(axis=1) <= 1)
    cols_ok = np.all((table > 0).sum(axis=0) <= 1)
    return bool(rows_ok and cols_ok)


def _nmi(table: np.ndarray, n: int) -> float:
    if _identical_partitions(table):
        return 1.0
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


def nmi(pred, truth) -> float:
    """Mutual information normalized by the arithmetic mean of entropies.

    Identical partitions (up to relabeling) score 1; a zero-entropy side
    against a non-identical partition scores 0.
    """
    pred, truth = _check_lengths(pred, truth)
    return _nmi(_contingency(pred, truth), len(pred))


def _pairs(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    return x * (x - 1) // 2


def _ari(table: np.ndarray, n: int) -> float:
    if n < 2:
        raise ValueError("ARI needs at least 2 samples")
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


def ari(pred, truth) -> float:
    """Adjusted Rand index via pair counting."""
    pred, truth = _check_lengths(pred, truth)
    return _ari(_contingency(pred, truth), len(pred))


def _macro_f1(table: np.ndarray, mapping: np.ndarray) -> float:
    """Mean over classes of the F1 of the cluster mapped to each class,
    read off the contingency table; a class with no true positive scores 0."""
    k_pred, k_truth = table.shape
    padded = np.zeros((len(mapping), k_truth), dtype=np.int64)
    padded[:k_pred] = table
    cluster = np.argsort(mapping)[:k_truth]  # the cluster matched to each class
    tp = padded[cluster, np.arange(k_truth)]
    n_pred = padded.sum(axis=1)[cluster]
    n_true = table.sum(axis=0)
    hit = tp > 0
    precision = tp[hit] / n_pred[hit]
    recall = tp[hit] / n_true[hit]
    scores = np.zeros(k_truth)
    scores[hit] = 2.0 * precision * recall / (precision + recall)
    return float(np.mean(scores))


def macro_f1(pred, truth) -> float:
    """Macro-averaged F1 after aligning clusters to classes.

    Clusters are relabeled by the accuracy operation's optimal mapping;
    classes with zero precision and recall contribute an F1 of 0.
    """
    pred, truth = _check_lengths(pred, truth)
    table = _contingency(pred, truth)
    mapping, _ = _optimal_mapping(table)
    return _macro_f1(table, mapping)


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
    label metrics share one contingency table and one matching, the graph
    metrics one pass over the edges."""
    assignment, internal, cut = _cluster_edge_counts(g, pred)
    pred, truth = _check_lengths(pred, truth)
    table = _contingency(pred, truth)
    mapping, matched = _optimal_mapping(table)
    return MetricReport(
        accuracy=matched / len(pred),
        nmi=_nmi(table, len(pred)),
        ari=_ari(table, len(pred)),
        macro_f1=_macro_f1(table, mapping),
        modularity=_modularity(g, assignment, internal),
        conductance=_conductance(g, assignment, cut),
    )
