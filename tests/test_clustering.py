from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwsl.clustering import (hard_assign, kmeans, kmeans_objective, soft_assign,
                             soft_assign_kl_grad, target_distribution)
from rwsl.nn import kl_divergence, row_softmax


def brute_force_best_objective(points, k):
    """Exhaustive search over all assignments of points to <= k clusters."""
    n = len(points)
    best = np.inf
    for assign in product(range(k), repeat=n):
        assign = np.array(assign)
        total = 0.0
        for c in range(k):
            members = points[assign == c]
            if len(members):
                total += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, total)
    return best


class TestKmeans:
    def test_single_cluster_is_mean(self):
        pts = np.random.default_rng(0).random((10, 3))
        centroids, assign = kmeans(pts, 1, seed=0)
        assert np.allclose(centroids[0], pts.mean(axis=0))
        assert np.all(assign == 0)

    def test_well_separated_clouds(self):
        rng = np.random.default_rng(1)
        pts = np.concatenate([rng.normal(0, 0.2, (15, 2)), rng.normal(10, 0.2, (15, 2))])
        _, assign = kmeans(pts, 2, seed=3)
        assert len(set(assign[:15])) == 1
        assert len(set(assign[15:])) == 1
        assert assign[0] != assign[-1]

    def test_close_to_bruteforce_optimum(self):
        rng = np.random.default_rng(2)
        pts = rng.random((9, 2))
        best = brute_force_best_objective(pts, 3)
        centroids, assign = kmeans(pts, 3, seed=0)
        assert kmeans_objective(pts, centroids, assign) <= 1.05 * best

    def test_objective_non_increasing_over_iterations(self):
        rng = np.random.default_rng(3)
        pts = rng.random((40, 2))
        objs = []
        for iters in range(1, 10):
            c, a = kmeans(pts, 4, seed=5, max_iters=iters)
            objs.append(kmeans_objective(pts, c, a))
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_deterministic(self):
        pts = np.random.default_rng(4).random((25, 3))
        c1, a1 = kmeans(pts, 3, seed=11)
        c2, a2 = kmeans(pts, 3, seed=11)
        assert np.array_equal(c1, c2) and np.array_equal(a1, a2)

    def test_duplicate_points_no_empty_cluster(self):
        pts = np.array([[0.0], [0.0], [0.0], [0.0], [10.0], [10.0]])
        _, assign = kmeans(pts, 3, seed=0)
        assert np.all(np.bincount(assign, minlength=3) >= 1)

    def test_k_exceeds_points(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 2)), 3, seed=0)


class TestSoftAssign:
    def test_single_cluster(self):
        p = soft_assign(np.random.default_rng(0).random((5, 2)), np.zeros((1, 2)))
        assert np.allclose(p, 1.0)

    def test_equidistant_symmetry(self):
        p = soft_assign(np.zeros((1, 1)), np.array([[1.0], [-1.0]]))
        assert np.allclose(p, 0.5)

    def test_hand_value(self):
        p = soft_assign(np.zeros((1, 1)), np.array([[0.0], [1.0]]), v=1.0)
        assert np.allclose(p, [[2 / 3, 1 / 3]])

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        p = soft_assign(rng.standard_normal((6, 3)) * 10,
                        rng.standard_normal((4, 3)) * 10,
                        v=float(rng.uniform(0.2, 5)))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(p >= 0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((5, 3))
        mu = rng.standard_normal((2, 3))
        shift = rng.standard_normal(3)
        assert np.allclose(soft_assign(z, mu), soft_assign(z + shift, mu + shift))

    def test_argmax_invariant_to_common_scale(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal((8, 2))
        mu = rng.standard_normal((3, 2))
        a = np.argmax(soft_assign(z, mu), axis=1)
        b = np.argmax(soft_assign(3.7 * z, 3.7 * mu), axis=1)
        assert np.array_equal(a, b)

    def test_bad_v(self):
        with pytest.raises(ValueError):
            soft_assign(np.zeros((2, 2)), np.zeros((2, 2)), v=0.0)


class TestTargetDistribution:
    def test_uniform_fixed(self):
        p = np.full((4, 3), 1 / 3)
        assert np.allclose(target_distribution(p), p)

    def test_one_hot_fixed_point(self):
        p = np.eye(3)[[0, 1, 2, 0]]
        t = target_distribution(p)
        assert np.allclose(t, p)
        assert np.allclose(target_distribution(t), t)

    def test_hand_value(self):
        t = target_distribution(np.array([[0.8, 0.2], [0.4, 0.6]]))
        f = [1.2, 0.8]
        want = (0.64 / f[0]) / (0.64 / f[0] + 0.04 / f[1])
        assert t[0, 0] == pytest.approx(want)
        assert t[0, 0] == pytest.approx(0.9143, abs=5e-5)

    def test_sharpening_on_equal_frequencies(self):
        p = np.array([[0.6, 0.4], [0.4, 0.6]])
        t = target_distribution(p)
        assert t[0, 0] >= p[0, 0]
        assert t[1, 1] >= p[1, 1]

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_row_stochastic_preserved(self, seed):
        rng = np.random.default_rng(seed)
        p = row_softmax(rng.standard_normal((5, 4)) * 2)
        t = target_distribution(p)
        assert np.allclose(t.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(t >= 0)

    def test_dead_cluster_column(self):
        p = np.array([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0]])
        t = target_distribution(p)
        assert np.all(t[:, 2] == 0.0)
        assert np.allclose(t.sum(axis=1), 1.0)

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            target_distribution(np.array([[0.5, 0.6]]))


class TestHardAssign:
    def test_identity_like(self):
        p = np.eye(4)
        assert np.array_equal(hard_assign(p), np.arange(4))

    def test_tie_breaks_low(self):
        assert hard_assign(np.array([[0.5, 0.5]]))[0] == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_matches_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        p = row_softmax(rng.standard_normal((7, 5)))
        got = hard_assign(p)
        for i in range(7):
            best, arg = -1.0, 0
            for j in range(5):
                if p[i, j] > best:
                    best, arg = p[i, j], j
            assert got[i] == arg


class TestSoftAssignGrad:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((4, 3))
        mu = rng.standard_normal((2, 3))
        t = row_softmax(rng.standard_normal((4, 2)))
        v = 1.7
        g = soft_assign_kl_grad(t, soft_assign(z, mu, v), z, mu, v)
        h = 1e-6
        for i in range(4):
            for j in range(3):
                z[i, j] += h
                lp = kl_divergence(t, soft_assign(z, mu, v))[0]
                z[i, j] -= 2 * h
                lm = kl_divergence(t, soft_assign(z, mu, v))[0]
                z[i, j] += h
                fd = (lp - lm) / (2 * h)
                assert abs(fd - g[i, j]) < 1e-5
