import numpy as np
import pytest
from hypothesis import given, strategies as st

from rwsl.errors import ClaimCheckError, DenseEigenLimitError
from rwsl.filters import ppr_weights
from rwsl.graph import augment_self_loops, from_edge_array, rmat_generate
from rwsl.spectral import (dense_propagation_matrix, ppr_eigen_response,
                           spectral_report, verify_claim1, verify_claim2)

from test_filters import dense_filter_oracle


class TestEigenResponse:
    def test_constant_eigenvector_preserved(self):
        f, lap = ppr_eigen_response(0.0, 0.3)
        assert f == pytest.approx(1.0)
        assert lap == pytest.approx(0.0)

    def test_unit_eigenvalue(self):
        f, _ = ppr_eigen_response(1.0, 0.37)
        assert f == pytest.approx(0.37)

    def test_hand_value(self):
        f, lap = ppr_eigen_response(0.5, 0.1)
        assert f == pytest.approx(0.1 / (1 - 0.9 * 0.5))
        assert f == pytest.approx(0.18181818181818, abs=1e-12)
        assert lap == pytest.approx(1 - f)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            ppr_eigen_response(2.0, 0.1)
        with pytest.raises(ValueError):
            ppr_eigen_response(-0.1, 0.1)
        with pytest.raises(ValueError):
            ppr_eigen_response(0.5, 0.0)

    @given(st.floats(0.01, 0.99))
    def test_low_pass_shape(self, alpha):
        # filter response strictly decreasing over the Laplacian spectrum
        lams = np.linspace(0.0, 1.99, 200)
        f, _ = ppr_eigen_response(lams, alpha)
        assert np.all(np.diff(f) < 0)


class TestClaim1:
    def test_small_vs_large_alpha(self):
        l0 = verify_claim1(0.1, 0.5, 100)
        w1, w2 = ppr_weights(0.1, 100), ppr_weights(0.5, 100)
        assert np.all(w1[l0 + 1:] > w2[l0 + 1:])
        assert w1[l0] <= w2[l0]

    def test_close_alphas(self):
        assert verify_claim1(0.49, 0.51, 1000) >= 0

    def test_hop_zero_never_dominates(self):
        for a1, a2 in ((0.1, 0.2), (0.3, 0.9)):
            assert ppr_weights(a1, 0)[0] < ppr_weights(a2, 0)[0]

    def test_no_crossover_within_budget(self):
        # crossover of (0.05, 0.1) sits around hop 13
        with pytest.raises(ClaimCheckError):
            verify_claim1(0.05, 0.1, 5)

    def test_ordering_precondition(self):
        with pytest.raises(ValueError):
            verify_claim1(0.5, 0.1, 10)


class TestClaim2:
    def test_grid_passes(self):
        alphas = np.round(np.arange(0.05, 0.951, 0.05), 10)
        lambdas = np.round(np.arange(0.01, 1.991, 0.02), 10)
        assert verify_claim2(alphas, lambdas)

    def test_unit_lambda_closed_form(self):
        # response Laplacian at lambda=1 is exactly 1 - alpha
        for alpha in (0.1, 0.5, 0.9):
            _, lap = ppr_eigen_response(1.0, alpha)
            assert lap == pytest.approx(1 - alpha)

    def test_boundary_lambda_rejected(self):
        with pytest.raises(ValueError):
            verify_claim2([0.1, 0.2], [0.0, 1.0])
        with pytest.raises(ValueError):
            verify_claim2([0.2, 0.1], [0.5])


class TestSpectralReport:
    def test_lone_node(self):
        empty = np.array([], dtype=np.int64)
        g = augment_self_loops(from_edge_array(1, empty, empty))
        rep = spectral_report(g, alpha=0.2, hops=8)
        assert np.allclose(rep.eigenvalues_gcn, [1.0])
        assert rep.max_abs_gap <= (1 - 0.2) ** 9 + 1e-12

    def test_two_node_edge(self):
        g = augment_self_loops(from_edge_array(2, np.array([0]), np.array([1])))
        rep = spectral_report(g, alpha=0.3, hops=60)
        assert np.allclose(np.sort(rep.eigenvalues_gcn), [0.0, 1.0], atol=1e-12)
        assert rep.max_abs_gap <= (1 - 0.3) ** 61 + 1e-10

    def test_gap_within_tail_bound(self):
        g = augment_self_loops(rmat_generate(40, 3, seed=0))
        alpha, hops = 0.1, 100
        rep = spectral_report(g, alpha, hops)
        assert rep.max_abs_gap <= (1 - alpha) ** (hops + 1) + 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_direct_matches_dense_power_loop(self, seed):
        # S from the production filter against S from dense matrix powers
        n = (40, 120, 250)[seed]
        g = augment_self_loops(rmat_generate(n, 4, seed=seed))
        alpha, hops = (0.1, 0.3, 0.05)[seed], (100, 30, 60)[seed]
        s = dense_filter_oracle(g, np.eye(n), alpha, hops)
        want = np.linalg.eigvalsh(0.5 * (s + s.T))
        got = spectral_report(g, alpha, hops).eigenvalues_ppr_direct
        assert np.abs(got - want).max() < 1e-12

    def test_spectrum_range(self):
        for seed in range(3):
            g = augment_self_loops(rmat_generate(30, 2, seed=seed))
            eig = np.linalg.eigvalsh(dense_propagation_matrix(g))
            assert eig.max() == pytest.approx(1.0, abs=1e-10)
            assert eig.min() > -1.0

    def test_size_gate(self, monkeypatch):
        import rwsl.spectral
        monkeypatch.setattr(rwsl.spectral, "DENSE_EIGEN_LIMIT", 2)
        g = augment_self_loops(from_edge_array(3, np.array([0]), np.array([1])))
        with pytest.raises(DenseEigenLimitError):
            spectral_report(g, 0.1, 4)
