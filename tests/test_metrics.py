import importlib.util
import os
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rwsl
from rwsl.graph import disjoint_cliques, from_edge_array
from rwsl.metrics import (MetricReport, _assignment, _contingency, _optimal_mapping,
                          accuracy, ari, conductance, evaluate_all, macro_f1,
                          modularity, nmi)

needs_sklearn = pytest.mark.skipif(importlib.util.find_spec("sklearn") is None,
                                   reason="sklearn cross-checks")


def accuracy_oracle(pred, truth):
    """Exhaustive search over all injective cluster-to-class mappings."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    ids = sorted(set(pred.tolist()) | set(truth.tolist()))
    best = 0
    for perm in permutations(ids):
        relabel = {c: perm[i] for i, c in enumerate(ids)}
        best = max(best, sum(relabel[p] == t for p, t in zip(pred, truth)))
    return best / len(pred)


def labelings(n, k):
    return product(range(k), repeat=n)


class TestAccuracy:
    def test_identical(self):
        y = [0, 1, 2, 1, 0]
        assert accuracy(y, y) == 1.0

    def test_permuted_relabel(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = (truth + 1) % 3
        assert accuracy(pred, truth) == 1.0

    def test_hand_case(self):
        assert accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75

    def test_matches_oracle_exhaustive_n4(self):
        for pred in labelings(4, 3):
            for truth in labelings(4, 2):
                assert accuracy(pred, truth) == pytest.approx(
                    accuracy_oracle(pred, truth))

    def test_matches_oracle_random_n8(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            pred = rng.integers(0, 3, size=8)
            truth = rng.integers(0, 3, size=8)
            assert accuracy(pred, truth) == pytest.approx(accuracy_oracle(pred, truth))

    def test_constant_pred_gets_majority(self):
        truth = np.array([0, 0, 0, 1, 2])
        assert accuracy(np.zeros(5, dtype=int), truth) == pytest.approx(3 / 5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0])


def scipy_accuracy_macro_f1(pred, truth):
    """Accuracy and macro-F1 with the matching solved by scipy's
    ``linear_sum_assignment`` on the same tie-broken score, and the per-class
    F1 counted over the relabeled nodes."""
    from scipy.optimize import linear_sum_assignment
    pred, truth = np.asarray(pred), np.asarray(truth)
    table = np.zeros((pred.max() + 1, truth.max() + 1), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    sums = padded.sum(axis=1)[:, None] + padded.sum(axis=0)[None, :]
    pair_f1 = np.divide(2.0 * padded, sums, out=np.zeros((size, size)), where=sums > 0)
    rows, cols = linear_sum_assignment(-(padded + pair_f1 / (2.0 * size + 2.0)))
    relabeled = cols[pred]
    scores = []
    for c in range(truth.max() + 1):
        tp = np.count_nonzero((relabeled == c) & (truth == c))
        if tp == 0:
            scores.append(0.0)
            continue
        precision = tp / np.count_nonzero(relabeled == c)
        recall = tp / np.count_nonzero(truth == c)
        scores.append(2.0 * precision * recall / (precision + recall))
    return padded[rows, cols].sum() / len(pred), float(np.mean(scores))


class TestAssignment:
    """The in-package solver against scipy's ``linear_sum_assignment``."""

    @staticmethod
    def check(cost):
        from scipy.optimize import linear_sum_assignment
        cols = _assignment(cost)
        k = len(cost)
        assert np.array_equal(np.sort(cols), np.arange(k))
        rows, want = linear_sum_assignment(cost)
        got_total = cost[np.arange(k), cols].sum()
        assert abs(got_total - cost[rows, want].sum()) <= 1e-9 * max(1.0, abs(got_total))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_random_float(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            self.check(rng.normal(size=(k, k)))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_tied_small_integers(self, k):
        rng = np.random.default_rng(100 + k)
        for high in (1, 2, 3):
            for _ in range(10):
                self.check(rng.integers(0, high, size=(k, k)).astype(np.float64))

    def test_paper_label_count(self):
        rng = np.random.default_rng(172)
        self.check(rng.random((172, 172)))
        self.check(-rng.integers(0, 50, size=(172, 172)).astype(np.float64))

    @pytest.mark.parametrize("k_pred,k_truth", [(1, 5), (5, 1), (3, 7), (9, 4), (12, 12)])
    def test_rectangular_label_sets(self, k_pred, k_truth):
        rng = np.random.default_rng(k_pred * 13 + k_truth)
        for _ in range(10):
            pred = rng.integers(0, k_pred, size=200)
            truth = rng.integers(0, k_truth, size=200)
            mapping, matched = _optimal_mapping(_contingency(pred, truth))
            size = max(pred.max(), truth.max()) + 1
            assert np.array_equal(np.sort(mapping), np.arange(size))
            want, _ = scipy_accuracy_macro_f1(pred, truth)
            assert matched / len(pred) == want


class TestScipyBackedValues:
    @given(st.integers(0, 10_000), st.integers(1, 9), st.integers(1, 9))
    @settings(max_examples=60)
    def test_accuracy_and_macro_f1(self, seed, k_pred, k_truth):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, k_pred, size=40)
        truth = rng.integers(0, k_truth, size=40)
        want_acc, want_f1 = scipy_accuracy_macro_f1(pred, truth)
        assert accuracy(pred, truth) == want_acc
        assert macro_f1(pred, truth) == want_f1

    def test_import_leaves_scipy_optimize_out(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(rwsl.__file__).parents[1]), env.get("PYTHONPATH", "")])
        code = ("import sys, rwsl, rwsl.cli, rwsl.pipeline; "
                "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestNmi:
    def test_identical(self):
        assert nmi([0, 1, 1, 2], [0, 1, 1, 2]) == 1.0
        assert nmi([2, 0, 0, 1], [0, 1, 1, 2]) == 1.0  # relabeled

    def test_constant_vs_balanced(self):
        assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_independent(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_both_constant(self):
        assert nmi([0, 0], [1, 1]) == 1.0

    @needs_sklearn
    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_matches_sklearn(self, seed):
        from sklearn.metrics import normalized_mutual_info_score
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 4, size=30)
        truth = rng.integers(0, 3, size=30)
        want = normalized_mutual_info_score(truth, pred)
        assert nmi(pred, truth) == pytest.approx(want, abs=1e-9)


class TestAri:
    def test_identical(self):
        assert ari([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_independent_four_points(self):
        assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5

    def test_null_mean_near_zero(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 4, size=200)
        vals = [ari(rng.permutation(truth), truth) for _ in range(100)]
        assert abs(np.mean(vals)) < 0.02

    def test_too_small(self):
        with pytest.raises(ValueError):
            ari([0], [0])

    @needs_sklearn
    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_matches_sklearn(self, seed):
        from sklearn.metrics import adjusted_rand_score
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 3, size=25)
        truth = rng.integers(0, 4, size=25)
        want = adjusted_rand_score(truth, pred)
        assert ari(pred, truth) == pytest.approx(want, abs=1e-9)


class TestMacroF1:
    def test_identical(self):
        assert macro_f1([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0

    def test_hand_case(self):
        # optimal matching is identity; per-class F1 = {2/3, 4/5}
        assert macro_f1([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(11 / 15)

    def test_missing_class(self):
        # pred collapses everything into one cluster; class 1 is unmatched
        pred = [0, 0, 0, 0]
        truth = [0, 0, 1, 1]
        # matched cluster covers class 0: precision 1/2, recall 1 -> f1 = 2/3
        assert macro_f1(pred, truth) == pytest.approx(0.5 * (2 / 3))

    def test_relabel_invariance(self):
        truth = np.array([0, 1, 1, 2, 2, 2])
        pred = np.array([2, 0, 0, 1, 1, 0])
        assert macro_f1(pred, truth) == pytest.approx(macro_f1((pred + 1) % 3, truth))


def two_triangles():
    return disjoint_cliques(2, 3)


class TestModularity:
    def test_single_cluster_zero(self):
        g = two_triangles()
        assert modularity(g, np.zeros(6, dtype=int)) == pytest.approx(0.0)

    def test_two_triangles_half(self):
        g = two_triangles()
        assert modularity(g, np.repeat([0, 1], 3)) == pytest.approx(0.5)

    def test_matches_pairwise_bruteforce(self):
        g = two_triangles()
        labels = np.array([0, 1, 0, 1, 1, 0])
        n, m = g.n_nodes, g.n_edges
        adj = np.zeros((n, n))
        rows = np.repeat(np.arange(n), g.degrees)
        adj[rows, g.col_indices] = 1.0
        deg = g.degrees
        q = sum((adj[i, j] - deg[i] * deg[j] / (2 * m)) * (labels[i] == labels[j])
                for i in range(n) for j in range(n)) / (2 * m)
        assert modularity(g, labels) == pytest.approx(q)

    def test_singletons_formula(self):
        g = from_edge_array(4, np.array([0, 1, 2]), np.array([1, 2, 3]))  # path
        labels = np.arange(4)
        deg = g.degrees.astype(float)
        want = -np.sum(deg**2) / (2 * g.n_edges) ** 2
        assert modularity(g, labels) == pytest.approx(want)
        assert modularity(g, labels) <= 0.0

    def test_rejects_augmented(self):
        from rwsl.graph import augment_self_loops
        with pytest.raises(ValueError):
            modularity(augment_self_loops(two_triangles()), np.zeros(6, dtype=int))

    def test_empty_graph_rejected(self):
        g = from_edge_array(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            modularity(g, np.zeros(3, dtype=int))


class TestConductance:
    def test_whole_graph_zero(self):
        assert conductance(two_triangles(), np.zeros(6, dtype=int)) == 0.0

    def test_disjoint_split_zero(self):
        assert conductance(two_triangles(), np.repeat([0, 1], 3)) == 0.0

    def test_four_cycle_half(self):
        g = from_edge_array(4, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0]))
        assert conductance(g, np.array([0, 0, 1, 1])) == pytest.approx(0.5)

    def test_zero_volume_cluster(self):
        # node 4 is isolated and alone in its cluster: contributes 0
        g = from_edge_array(5, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0]))
        labels = np.array([0, 0, 1, 1, 2])
        assert conductance(g, labels) == pytest.approx((0.5 + 0.5 + 0.0) / 3)


class TestInvariances:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_relabel_invariance(self, seed):
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, 3, size=20)
        pred = rng.integers(0, 3, size=20)
        perm = rng.permutation(3)
        relabeled = perm[pred]
        assert accuracy(relabeled, truth) == pytest.approx(accuracy(pred, truth))
        assert nmi(relabeled, truth) == pytest.approx(nmi(pred, truth))
        assert ari(relabeled, truth) == pytest.approx(ari(pred, truth))
        assert macro_f1(relabeled, truth) == pytest.approx(macro_f1(pred, truth))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_symmetric_metrics_swap(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, size=15)
        b = rng.integers(0, 4, size=15)
        assert nmi(a, b) == pytest.approx(nmi(b, a))
        assert ari(a, b) == pytest.approx(ari(b, a))


class TestRuntime:
    def test_graph_metrics_single_pass_over_edges(self):
        # one vectorized pass: a 200k-edge graph must score in well under a second
        import time
        from rwsl.graph import rmat_generate
        g = rmat_generate(20_000, 10, seed=0)
        labels = np.random.default_rng(0).integers(0, 8, size=20_000)
        start = time.perf_counter()
        modularity(g, labels)
        conductance(g, labels)
        assert time.perf_counter() - start < 1.0


class TestReport:
    def test_field_order_and_serialization(self, two_cliques):
        g, _, labels = two_cliques
        report = evaluate_all(g, labels, labels)
        assert list(report.as_dict()) == ["accuracy", "nmi", "ari", "macro_f1",
                                          "modularity", "conductance"]
        assert report.accuracy == 1.0 and report.conductance == 0.0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            MetricReport(accuracy=1.5, nmi=0, ari=0, macro_f1=0,
                         modularity=0, conductance=0)
