import math
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from rwsl.errors import CacheMismatchError
from rwsl.filters import (FILTER_BLOCK, WALK_CHUNK, FilterConfig, _propagation_matrix,
                          _walk_filter, filter_exact, filter_randomwalk,
                          filtered_cache_header, load_filtered_cache, ppr_weights,
                          save_filtered_cache)
from rwsl.graph import augment_self_loops, disjoint_cliques, from_edge_array, rmat_generate
from rwsl.spectral import dense_propagation_matrix


def path3():
    return augment_self_loops(from_edge_array(3, np.array([0, 1]), np.array([1, 2])))


def lone_node():
    empty = np.array([], dtype=np.int64)
    return augment_self_loops(from_edge_array(1, empty, empty))


def dense_filter_oracle(g_aug, x, alpha, hops):
    """Independent dense matrix-power evaluation of the truncated filter."""
    t = dense_propagation_matrix(g_aug)
    out = np.zeros_like(x)
    power = np.eye(g_aug.n_nodes)
    for l, w in enumerate(ppr_weights(alpha, hops)):
        if l > 0:
            power = power @ t
        out += w * (power @ x)
    return out


def unblocked_filter_exact(g_aug, x, cfg):
    """The all-columns-at-once Horner recurrence, kept as the blocked
    ``filter_exact``'s bit-exact oracle."""
    w = ppr_weights(cfg.alpha, cfg.hops)
    op = _propagation_matrix(g_aug, cfg.rrz)
    acc = w[-1] * x
    for l in range(cfg.hops - 1, -1, -1):
        acc = op @ acc
        acc += w[l] * x
    return acc


def walk_budget(n_walks):
    """The ``r_max`` whose walk budget ceil(1 / r_max) is exactly ``n_walks``."""
    r_max = 1.0 / n_walks
    assert math.ceil(1.0 / r_max) == n_walks
    return r_max


def reference_walk_filter(g, x, alpha, rrz, n_walks, seed):
    """The fancy-index step and the scipy (row, col) -> CSR endpoint fold,
    kept as the bit-exact oracle of ``_walk_filter``."""
    n = g.n_nodes
    deg = g.degrees.astype(np.float64)
    deg_pow = deg ** rrz
    x_scaled = x / deg_pow[:, None]
    offs, cols = g.row_offsets, g.col_indices
    parts = -(-n_walks // WALK_CHUNK)
    base, extra = divmod(n_walks, parts)
    part_sizes = [base + 1] * extra + [base] * (parts - extra)
    nodes_per_chunk = max(1, WALK_CHUNK // n_walks)
    out = np.zeros_like(x)
    chunk = 0
    for lo in range(0, n, nodes_per_chunk):
        hi = min(lo + nodes_per_chunk, n)
        for size in part_sizes:
            rng = np.random.default_rng([seed, chunk])
            chunk += 1
            lengths = rng.geometric(alpha, size=(hi - lo) * size) - 1
            order = np.argsort(lengths.astype(np.min_scalar_type(lengths.max())),
                               kind="stable")
            starts = np.cumsum(np.bincount(lengths))[:-1]
            src = order // size
            pos = src + lo
            for first in starts:
                active = pos[first:]
                picks = (rng.random(len(active)) * deg[active]).astype(np.int64)
                pos[first:] = cols[offs[active] + picks]
            walk_mix = sp.csr_matrix((np.ones(len(pos)), (src, pos)), shape=(hi - lo, n))
            walk_mix.data /= n_walks
            out[lo:hi] += walk_mix @ x_scaled
    return deg_pow[:, None] * out


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestWeights:
    def test_hand_values(self):
        assert np.allclose(ppr_weights(0.5, 2), [0.5, 0.25, 0.125])
        assert np.allclose(ppr_weights(0.1, 0), [0.1])

    def test_partial_sum(self):
        for alpha in (0.05, 0.1, 0.5, 0.9):
            w = ppr_weights(alpha, 37)
            assert w.sum() == pytest.approx(1 - (1 - alpha) ** 38, abs=1e-14)

    def test_long_sum_close_to_one(self):
        for alpha in (0.05, 0.1, 0.3, 0.9):
            total = ppr_weights(alpha, 1000).sum()
            assert 1 - 1e-9 < total <= 1.0 + 1e-15

    @given(st.floats(0.01, 0.99))
    def test_strictly_decreasing(self, alpha):
        w = ppr_weights(alpha, 50)
        assert np.all(np.diff(w) < 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            ppr_weights(0.0, 3)
        with pytest.raises(ValueError):
            ppr_weights(1.0, 3)


class TestConfig:
    def test_walk_budget_from_r_max(self):
        # budget ceil(1 / r_max) = 1000, of which the walks draw r = 0.9^17
        assert FilterConfig(r_max=1e-3).effective_n_walks == 167
        assert FilterConfig(alpha=0.5, hops=2, r_max=1e-3).effective_n_walks == 125
        assert FilterConfig(alpha=0.5, hops=0, r_max=0.3).effective_n_walks == 2
        assert FilterConfig(alpha=0.9, hops=20, r_max=1e-3).effective_n_walks == 1

    def test_validation(self):
        for bad in (dict(alpha=0.0), dict(alpha=1.0), dict(hops=-1),
                    dict(rrz=1.5), dict(r_max=0.0),
                    dict(filter_method="bogus")):
            with pytest.raises(ValueError):
                FilterConfig(**bad)


class TestPropagateStep:
    """One propagation pass is the sparse operator applied to the features."""

    def test_lone_node_identity(self):
        g = lone_node()
        x = np.array([[3.0, -2.0]])
        for rrz in (0.0, 0.4, 0.5, 1.0):
            assert np.allclose(_propagation_matrix(g, rrz) @ x, x)

    def test_symmetric_case_matches_dense(self):
        g = path3()
        x = np.eye(3)
        dense = dense_propagation_matrix(g)
        assert np.allclose(_propagation_matrix(g, 0.5) @ x, dense @ x, atol=1e-15)

    def test_row_stochastic_at_rrz_zero(self):
        g = path3()
        y = _propagation_matrix(g, 0.0) @ np.eye(3)
        assert np.allclose(y.sum(axis=1), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _propagation_matrix(path3(), 0.5) @ np.ones((2, 2))

    def test_requires_augmented(self):
        g = from_edge_array(3, np.array([0, 1]), np.array([1, 2]))
        with pytest.raises(ValueError):
            _propagation_matrix(g, 0.5) @ np.eye(3)


def propagation_matrix_reference(g, rrz):
    """The former ``_propagation_matrix`` (both factors gathered through a
    per-edge row index), kept as its bit-exact oracle."""
    deg = g.degrees.astype(np.float64)
    rows = np.repeat(np.arange(g.n_nodes, dtype=np.int64), g.degrees)
    data = deg[rows] ** (rrz - 1.0) * deg[g.col_indices] ** (-rrz)
    return sp.csr_matrix((data, g.col_indices, g.row_offsets), shape=(g.n_nodes, g.n_nodes))


OPERATOR_GRAPHS = {
    "rmat": lambda: rmat_generate(2000, 8, seed=3),
    "cliques": lambda: disjoint_cliques(3, 7),
    "isolated-nodes": lambda: from_edge_array(8, np.array([0, 1, 2, 0]), np.array([1, 2, 3, 3])),
    "self-loops-only": lambda: from_edge_array(5, np.arange(5), np.arange(5)),
    "duplicate-reversed": lambda: from_edge_array(
        6, np.array([0, 1, 1, 4, 5, 2, 2]), np.array([1, 0, 1, 5, 4, 3, 3])),
}


class TestPropagationMatrix:
    @pytest.mark.parametrize("graph", sorted(OPERATOR_GRAPHS))
    def test_matches_reference_bits(self, graph):
        g = augment_self_loops(OPERATOR_GRAPHS[graph]())
        for rrz in (0.0, 0.25, 0.4, 0.5, 0.75, 1.0):
            got, want = _propagation_matrix(g, rrz), propagation_matrix_reference(g, rrz)
            assert np.array_equal(bits(got.data), bits(want.data))
            for name in ("indices", "indptr"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_build_peak(self, traced_peak):
        g = augment_self_loops(rmat_generate(5000, 30, seed=0))
        op = _propagation_matrix(g, 0.4)
        result = op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
        peak = traced_peak(_propagation_matrix, g, 0.4)
        # beyond the operator, the gathered column factors (0.5x: they are
        # freed before scipy narrows the indices); the per-entry form held a
        # row index and several float arrays besides (2.5x)
        assert peak - result < op.data.nbytes


class TestFilterExact:
    def test_zero_hops_scales_by_alpha(self):
        g = path3()
        x = np.random.default_rng(0).random((3, 4))
        out = filter_exact(g, x, FilterConfig(alpha=0.3, hops=0))
        assert np.allclose(out, 0.3 * x)

    def test_lone_node_geometric_sum(self):
        out = filter_exact(lone_node(), np.array([[2.0]]),
                           FilterConfig(alpha=0.5, hops=3, rrz=0.5))
        assert out[0, 0] == pytest.approx(0.9375 * 2.0, abs=1e-15)

    def test_matches_dense_oracle_on_path(self):
        g = path3()
        x = np.random.default_rng(1).random((3, 5))
        got = filter_exact(g, x, FilterConfig(alpha=0.1, hops=16, rrz=0.5))
        want = dense_filter_oracle(g, x, 0.1, 16)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        g = augment_self_loops(rmat_generate(n, 3, seed=seed))
        x = rng.standard_normal((n, 4))
        alpha = float(rng.uniform(0.05, 0.9))
        hops = int(rng.integers(0, 12))
        # the dense oracle only covers the symmetric normalization
        got = filter_exact(g, x, FilterConfig(alpha=alpha, hops=hops, rrz=0.5))
        want = dense_filter_oracle(g, x, alpha, hops)
        denom = max(np.linalg.norm(want), 1e-12)
        assert np.linalg.norm(got - want) / denom < 1e-10

    def test_general_rrz_against_explicit_accumulation(self):
        g = path3()
        x = np.random.default_rng(2).random((3, 2))
        cfg = FilterConfig(alpha=0.2, hops=6, rrz=0.4)
        op = _propagation_matrix(g, 0.4)
        acc = np.zeros_like(x)
        cur = x.copy()
        for l, w in enumerate(ppr_weights(0.2, 6)):
            if l > 0:
                cur = op @ cur
            acc += w * cur
        assert np.allclose(filter_exact(g, x, cfg), acc, atol=1e-14)


    @pytest.mark.parametrize("n_features", [1, 15, 16, 17, 33, 64])
    def test_blocked_matches_unblocked_bits(self, n_features):
        assert FILTER_BLOCK == 16
        g = augment_self_loops(rmat_generate(300, 5, seed=n_features))
        x = np.random.default_rng(n_features).standard_normal((300, n_features))
        for cfg in (FilterConfig(), FilterConfig(alpha=0.3, hops=5, rrz=0.0),
                    FilterConfig(hops=0, rrz=1.0)):
            assert np.array_equal(bits(filter_exact(g, x, cfg)),
                                  bits(unblocked_filter_exact(g, x, cfg)))

    def test_working_set_is_one_block(self, traced_peak):
        g = augment_self_loops(rmat_generate(2000, 5, seed=1))
        x = np.random.default_rng(0).standard_normal((2000, 64))
        op = _propagation_matrix(g, FilterConfig().rrz)
        op_bytes = op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
        peak = traced_peak(filter_exact, g, x, FilterConfig())
        # the output plus four n x FILTER_BLOCK buffers reads 2.0x; propagating
        # all columns at once holds three n x F arrays besides x (3.0x)
        assert peak < 2.5 * x.nbytes + op_bytes


ORACLE_GRAPHS = {
    "rmat": lambda: augment_self_loops(rmat_generate(16, 4, seed=5)),
    "self-loops-only": lambda: augment_self_loops(
        from_edge_array(5, np.array([], dtype=np.int64), np.array([], dtype=np.int64))),
    "isolated-nodes": lambda: augment_self_loops(
        from_edge_array(8, np.array([0, 1, 2, 0]), np.array([1, 2, 3, 3]))),
}


class TestFilterRandomwalk:
    # the walk kernel ``_walk_filter`` is the whole-walk estimator; its
    # chunking is checked around one and two chunks per node

    @pytest.mark.parametrize("graph", sorted(ORACLE_GRAPHS))
    @pytest.mark.parametrize("n_walks", [1, 7, 1000, WALK_CHUNK - 1, WALK_CHUNK,
                                         WALK_CHUNK + 1, 2 * WALK_CHUNK - 1, 2 * WALK_CHUNK,
                                         2 * WALK_CHUNK + 1, 100_000])
    def test_matches_reference_bits(self, graph, n_walks):
        g = ORACLE_GRAPHS[graph]()
        x = np.random.default_rng(n_walks).standard_normal((g.n_nodes, 3))
        for rrz in (0.0, 0.5, 1.0):
            for seed in (0, 1):
                got = _walk_filter(g, x, 0.2, rrz, n_walks, seed)
                want = reference_walk_filter(g, x, 0.2, rrz, n_walks, seed)
                assert np.array_equal(bits(got), bits(want)), (rrz, seed)

    def test_self_loops_only_spanning_chunks(self):
        # whole nodes per chunk: each row averages n_walks copies of itself
        n_walks = WALK_CHUNK // 2 - 1
        empty = np.array([], dtype=np.int64)
        g = augment_self_loops(from_edge_array(7, empty, empty))
        x = np.random.default_rng(9).standard_normal((7, 3))
        assert np.array_equal(_walk_filter(g, x, 0.3, 0.4, n_walks, 1), x)
        # one node's walks split over three chunks
        np.testing.assert_allclose(_walk_filter(g, x, 0.3, 0.4, 2 * WALK_CHUNK + 1, 1), x,
                                   rtol=1e-14, atol=0)

    def test_deterministic_across_chunks(self):
        g = augment_self_loops(rmat_generate(300, 4, seed=3))
        x = np.random.default_rng(10).random((300, 2))
        assert g.n_nodes * 1000 > 3 * WALK_CHUNK
        a = _walk_filter(g, x, 0.2, 0.5, 1000, 11)
        b = _walk_filter(g, x, 0.2, 0.5, 1000, 11)
        c = _walk_filter(g, x, 0.2, 0.5, 1000, 12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_lone_node_exact(self):
        out = filter_randomwalk(lone_node(), np.array([[4.0, 1.0]]),
                                FilterConfig(alpha=0.3, rrz=0.5, r_max=walk_budget(5)), seed=0)
        assert np.allclose(out, [[4.0, 1.0]])

    def test_zero_hops_split_matches_formula(self):
        # hops = 0: alpha * x plus T times (1 - alpha) times the whole-walk
        # estimate from ceil(1000 * (1 - alpha)) = 500 walks
        g = augment_self_loops(rmat_generate(40, 4, seed=2))
        x = np.random.default_rng(12).standard_normal((40, 3))
        cfg = FilterConfig(alpha=0.5, hops=0, rrz=0.4, r_max=walk_budget(1000))
        assert cfg.effective_n_walks == 500
        y = _walk_filter(g, x, 0.5, 0.4, 500, 7)
        op = _propagation_matrix(g, cfg.rrz)
        want = 0.5 * x + op @ (0.5 * y)
        assert np.array_equal(bits(filter_randomwalk(g, x, cfg, 7)), bits(want))

    def test_two_hops_horner_order(self):
        # r = 0.5^3: 125 walks; acc = r * y, then acc = T acc + w_l x for l = 2, 1, 0
        g = augment_self_loops(rmat_generate(40, 4, seed=3))
        x = np.random.default_rng(13).standard_normal((40, 3))
        cfg = FilterConfig(alpha=0.5, hops=2, rrz=0.4, r_max=walk_budget(1000))
        assert cfg.effective_n_walks == 125
        y = _walk_filter(g, x, 0.5, 0.4, 125, 8)
        op = _propagation_matrix(g, cfg.rrz)
        want = op @ (op @ (op @ (0.125 * y) + 0.125 * x) + 0.25 * x) + 0.5 * x
        assert np.array_equal(bits(filter_randomwalk(g, x, cfg, 8)), bits(want))

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_block_width_does_not_change_bits(self, block, monkeypatch):
        import rwsl.filters as filters
        g = augment_self_loops(rmat_generate(200, 5, seed=4))
        x = np.random.default_rng(16).standard_normal((200, 33))
        cfg = FilterConfig(alpha=0.2, hops=4, rrz=0.5, r_max=walk_budget(300))
        want = filter_randomwalk(g, x, cfg, 3)
        monkeypatch.setattr(filters, "FILTER_BLOCK", block)
        assert np.array_equal(bits(filter_randomwalk(g, x, cfg, 3)), bits(want))

    def test_error_at_budget_1000(self):
        # regression guard: seeds 0-19 read 2.5e-4 to 7.8e-4 (3.4e-4 at seed
        # 0); walks with L + 1 forced moves and an exact prefix read 0.009
        g = augment_self_loops(rmat_generate(1000, 10, seed=1))
        x = np.random.default_rng(17).standard_normal((1000, 8))
        ref = filter_exact(g, x, FilterConfig(alpha=0.1, hops=200, rrz=0.5))
        est = filter_randomwalk(g, x, FilterConfig(alpha=0.1, rrz=0.5, r_max=walk_budget(1000)),
                               0)
        assert np.abs(est - ref).mean() < 1e-3

    def test_any_rrz_matches_exact(self):
        # MAE reads 0.002-0.004 at this budget; scaling by the wrong rrz
        # (0.5) is off by 0.019-0.105
        g = augment_self_loops(rmat_generate(100, 5, seed=7))
        x = np.random.default_rng(8).random((100, 4))
        for rrz in (0.0, 0.4, 1.0):
            est = filter_randomwalk(g, x, FilterConfig(alpha=0.2, rrz=rrz,
                                                       r_max=walk_budget(10_000)), seed=0)
            ref = filter_exact(g, x, FilterConfig(alpha=0.2, hops=100, rrz=rrz))
            assert np.abs(est - ref).mean() < 0.008, rrz

    def test_deterministic_per_seed(self):
        g = path3()
        x = np.random.default_rng(3).random((3, 2))
        cfg = FilterConfig(alpha=0.2, rrz=0.5, r_max=walk_budget(500))
        a = filter_randomwalk(g, x, cfg, seed=11)
        b = filter_randomwalk(g, x, cfg, seed=11)
        c = filter_randomwalk(g, x, cfg, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_close_to_exact_on_path(self):
        g = path3()
        x = np.random.default_rng(4).random((3, 3))
        est = filter_randomwalk(g, x, FilterConfig(alpha=0.2, rrz=0.5,
                                                   r_max=walk_budget(20000)), seed=5)
        ref = filter_exact(g, x, FilterConfig(alpha=0.2, hops=100, rrz=0.5))
        assert np.abs(est - ref).max() < 0.02

    def test_seed_mean_converges_toward_exact(self):
        # unbiasedness proxy: averaging over seeds shrinks the error
        g = path3()
        x = np.random.default_rng(6).random((3, 2))
        cfg = FilterConfig(alpha=0.2, rrz=0.5, r_max=walk_budget(300))
        ref = filter_exact(g, x, FilterConfig(alpha=0.2, hops=100, rrz=0.5))
        estimates = [filter_randomwalk(g, x, cfg, seed=s) for s in range(32)]
        err_one = np.abs(estimates[0] - ref).mean()
        err_avg = np.abs(np.mean(estimates, axis=0) - ref).mean()
        assert err_avg < err_one

    def test_seed_mean_converges_to_long_hop_exact(self):
        # a short exact prefix leaves most of the mass to the walks, so an
        # off-by-one in the hop count or the tail weight shows as bias
        g = augment_self_loops(rmat_generate(60, 4, seed=11))
        x = np.random.default_rng(14).random((60, 3))
        ref = filter_exact(g, x, FilterConfig(alpha=0.2, hops=200, rrz=0.5))
        cfg = FilterConfig(alpha=0.2, hops=1, rrz=0.5, r_max=walk_budget(400))
        estimates = [filter_randomwalk(g, x, cfg, seed=s) for s in range(64)]
        err_one = np.mean([np.abs(e - ref).mean() for e in estimates])
        err_avg = np.abs(np.mean(estimates, axis=0) - ref).mean()
        assert err_avg < 0.25 * err_one, (err_avg, err_one)

    def test_split_beats_whole_walks_at_same_budget(self):
        g = augment_self_loops(rmat_generate(100, 5, seed=7))
        x = np.random.default_rng(15).random((100, 4))
        ref = filter_exact(g, x, FilterConfig(alpha=0.2, hops=200, rrz=0.5))
        cfg = FilterConfig(alpha=0.2, rrz=0.5, r_max=walk_budget(2000))
        for seed in range(5):
            split = np.abs(filter_randomwalk(g, x, cfg, seed) - ref).mean()
            whole = np.abs(_walk_filter(g, x, 0.2, 0.5, 2000, seed) - ref).mean()
            assert split < whole, (seed, split, whole)

    def test_draws_effective_n_walks(self, monkeypatch):
        # budget 1000 at r_max 1e-3; the walks carry r = 0.9^17 of it
        import rwsl.filters as filters
        drawn = []
        real = filters._walk_filter

        def counting(g, x, alpha, rrz, n_walks, seed):
            drawn.append(n_walks)
            return real(g, x, alpha, rrz, n_walks, seed)

        monkeypatch.setattr(filters, "_walk_filter", counting)
        g = augment_self_loops(rmat_generate(50, 4, seed=1))
        cfg = FilterConfig(alpha=0.1, hops=16, rrz=0.5, r_max=1e-3)
        filter_randomwalk(g, np.ones((50, 2)), cfg, 0)
        assert drawn == [cfg.effective_n_walks] == [167]


class TestCache:
    def test_randomwalk_seed_pinned(self, tmp_path):
        g, x, cfg = path3(), np.eye(3), FilterConfig(r_max=0.02, filter_method="randomwalk")
        values = np.random.default_rng(0).random((3, 2))
        save_filtered_cache(tmp_path / "c.npz", values, filtered_cache_header(g, cfg, x, seed=0))
        assert np.array_equal(load_filtered_cache(tmp_path / "c.npz",
                                                  filtered_cache_header(g, cfg, x, seed=0)),
                              values)
        with pytest.raises(CacheMismatchError, match="seed"):
            load_filtered_cache(tmp_path / "c.npz", filtered_cache_header(g, cfg, x, seed=1))
        with pytest.raises(ValueError, match="seed"):
            filtered_cache_header(g, cfg, x)

    @pytest.mark.parametrize("cfg", [FilterConfig(),
                                     FilterConfig(r_max=0.02, filter_method="randomwalk")],
                             ids=["exact", "randomwalk"])
    def test_previous_version_rejected(self, tmp_path, cfg):
        # version-4 exact caches hold forward-sum bits and name the method
        # "method"; version-4 random-walk caches carry that older key too
        g, x = path3(), np.eye(3)
        header = filtered_cache_header(g, cfg, x, seed=0)
        assert header["version"] == 5
        save_filtered_cache(tmp_path / "c.npz", np.ones((3, 2)), {**header, "version": 4})
        with pytest.raises(CacheMismatchError, match="version"):
            load_filtered_cache(tmp_path / "c.npz", header)

    def test_exact_header_has_no_seed(self):
        g, x = path3(), np.eye(3)
        header = filtered_cache_header(g, FilterConfig(), x)
        assert list(header) == ["version", *(f.name for f in fields(FilterConfig)),
                                "graph_hash", "features_sha256"]
        assert filtered_cache_header(g, FilterConfig(), x, seed=3) == header

    # a value other than the default for every FilterConfig field
    OTHER_VALUES = {"alpha": 0.2, "hops": 3, "rrz": 0.5, "r_max": 1e-3,
                    "filter_method": "randomwalk"}

    @pytest.mark.parametrize("name", [f.name for f in fields(FilterConfig)])
    def test_every_field_pinned(self, tmp_path, name):
        g, x = path3(), np.eye(3)
        cfg = FilterConfig()
        save_filtered_cache(tmp_path / "c.npz", np.ones((3, 2)),
                            filtered_cache_header(g, cfg, x, seed=0))
        stale = replace(cfg, **{name: self.OTHER_VALUES[name]})
        with pytest.raises(CacheMismatchError, match=name):
            load_filtered_cache(tmp_path / "c.npz", filtered_cache_header(g, stale, x, seed=0))

    def test_key_only_stored_rejected(self, tmp_path):
        # a version-5 cache written while FilterConfig still had n_walks
        # holds "n_walks": null, a key today's header lacks
        g, x = path3(), np.eye(3)
        header = filtered_cache_header(g, FilterConfig(), x)
        save_filtered_cache(tmp_path / "c.npz", np.ones((3, 2)), {**header, "n_walks": None})
        with pytest.raises(CacheMismatchError, match="n_walks"):
            load_filtered_cache(tmp_path / "c.npz", header)

    def test_round_trip(self, tmp_path):
        g = path3()
        cfg = FilterConfig()
        x = np.eye(3)
        values = np.random.default_rng(0).random((3, 2))
        header = filtered_cache_header(g, cfg, x)
        save_filtered_cache(tmp_path / "c.npz", values, header)
        loaded = load_filtered_cache(tmp_path / "c.npz", header)
        assert np.array_equal(loaded, values)

    def test_stale_config_rejected(self, tmp_path):
        g = path3()
        x = np.eye(3)
        save_filtered_cache(tmp_path / "c.npz", np.zeros((3, 2)),
                            filtered_cache_header(g, FilterConfig(alpha=0.1), x))
        for stale in (FilterConfig(alpha=0.2),
                      FilterConfig(alpha=0.1, filter_method="randomwalk")):
            with pytest.raises(CacheMismatchError):
                load_filtered_cache(tmp_path / "c.npz",
                                    filtered_cache_header(g, stale, x, seed=0))

    def test_stale_features_and_walks_rejected(self, tmp_path):
        g = path3()
        x = np.eye(3)
        save_filtered_cache(tmp_path / "c.npz", np.zeros((3, 2)),
                            filtered_cache_header(g, FilterConfig(), x))
        assert load_filtered_cache(tmp_path / "c.npz",
                                   filtered_cache_header(g, FilterConfig(), x.copy())
                                   ).shape == (3, 2)
        with pytest.raises(CacheMismatchError):
            load_filtered_cache(tmp_path / "c.npz",
                                filtered_cache_header(g, FilterConfig(), 2 * x))
        with pytest.raises(CacheMismatchError):
            load_filtered_cache(tmp_path / "c.npz",
                                filtered_cache_header(g, FilterConfig(r_max=0.2), x))

    def test_stale_graph_rejected(self, tmp_path):
        g = path3()
        other = augment_self_loops(from_edge_array(3, np.array([0]), np.array([2])))
        x = np.eye(3)
        save_filtered_cache(tmp_path / "c.npz", np.zeros((3, 2)),
                            filtered_cache_header(g, FilterConfig(), x))
        with pytest.raises(CacheMismatchError):
            load_filtered_cache(tmp_path / "c.npz",
                                filtered_cache_header(other, FilterConfig(), x))

    def test_precomputed_header(self, tmp_path):
        g, x = path3(), np.eye(3)
        header = filtered_cache_header(g, FilterConfig(), x)
        save_filtered_cache(tmp_path / "c.npz", np.ones((3, 2)), header)
        assert np.array_equal(load_filtered_cache(tmp_path / "c.npz", header), np.ones((3, 2)))
        stale = filtered_cache_header(g, FilterConfig(), 2 * x)
        with pytest.raises(CacheMismatchError, match="features_sha256"):
            load_filtered_cache(tmp_path / "c.npz", stale)
