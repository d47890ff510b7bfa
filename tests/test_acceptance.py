"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The desk-scale reproduction test (criterion 9) needs the citation-network
dataset on disk and skips with instructions when it is absent.
"""

import os
import time
from contextlib import contextmanager
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

from rwsl.clustering import kmeans, soft_assign, target_distribution
from rwsl.filters import (FilterConfig, filter_exact, filter_randomwalk,
                          ppr_weights)
from rwsl.graph import (augment_self_loops, disjoint_cliques, from_edge_array,
                        load_edge_list, load_features, load_labels,
                        rmat_generate)
from rwsl.metrics import accuracy, ari, evaluate_all, modularity, nmi
from rwsl.nn import init_mlp, kl_divergence, mlp_backward, mlp_forward, mse_loss
from rwsl.pipeline import (bench_scalability, resolve_run_config, run_pipeline,
                           sweep_epsilon)
from rwsl.spectral import verify_claim1, verify_claim2
from rwsl.training import TrainConfig, pretrain_autoencoder, train_rwsl

from test_filters import walk_budget
from test_nn import finite_diff_param_grads, max_rel_err


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def dense_step_oracle(g_aug, rrz):
    """Independent dense construction of the one-hop propagation operator."""
    n = g_aug.n_nodes
    adj = np.zeros((n, n))
    rows = np.repeat(np.arange(n), g_aug.degrees)
    adj[rows, g_aug.col_indices] = 1.0
    deg = g_aug.degrees.astype(np.float64)
    return (deg[:, None] ** (rrz - 1.0)) * adj * (deg[None, :] ** (-rrz))


def dense_filter_oracle(g_aug, x, alpha, hops, rrz):
    op = dense_step_oracle(g_aug, rrz)
    acc = np.zeros_like(x)
    power = np.eye(g_aug.n_nodes)
    for l, w in enumerate(ppr_weights(alpha, hops)):
        if l > 0:
            power = power @ op
        acc += w * (power @ x)
    return acc


def test_criterion_01_filter_oracle_equivalence():
    with criterion(1, "filter matches dense matrix-power oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for trial in range(10):
            n = int(rng.integers(20, 501))
            g = augment_self_loops(rmat_generate(n, float(rng.uniform(2, 6)), seed=trial))
            x = rng.standard_normal((n, int(rng.integers(1, 17))))
            alpha = float(rng.uniform(0.05, 0.95))
            hops = int(rng.integers(0, 21))
            rrz = float(rng.uniform(0.0, 1.0))
            got = filter_exact(g, x, FilterConfig(alpha=alpha, hops=hops, rrz=rrz))
            want = dense_filter_oracle(g, x, alpha, hops, rrz)
            rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)
            assert rel < 1e-10, f"trial {trial}: relative error {rel}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_randomwalk_estimator():
    with criterion(2, "random-walk estimator error and convergence rate"):
        path = augment_self_loops(from_edge_array(3, np.array([0, 1]), np.array([1, 2])))
        rmat = augment_self_loops(rmat_generate(100, 5, seed=7))
        rng = np.random.default_rng(202)
        for g in (path, rmat):
            x = rng.random((g.n_nodes, 4))
            exact = filter_exact(g, x, FilterConfig(alpha=0.2, hops=100, rrz=0.5))
            est = filter_randomwalk(g, x, FilterConfig(alpha=0.2, rrz=0.5,
                                                       r_max=walk_budget(100_000)), seed=0)
            mae = float(np.abs(est - exact).mean())
            assert mae <= 0.02, f"n={g.n_nodes}: MAE {mae}"

        # quadrupling the walk budget should halve the error
        x = rng.random((rmat.n_nodes, 4))
        exact = filter_exact(rmat, x, FilterConfig(alpha=0.2, hops=100, rrz=0.5))
        mae_base, mae_quad = [], []
        for seed in range(100):
            for budget, bucket in ((4_000, mae_base), (16_000, mae_quad)):
                est = filter_randomwalk(rmat, x, FilterConfig(alpha=0.2, rrz=0.5,
                                                              r_max=walk_budget(budget)),
                                        seed=seed)
                bucket.append(np.abs(est - exact).mean())
        ratio = float(np.mean(mae_base) / np.mean(mae_quad))
        assert 1.6 <= ratio <= 2.5, f"error ratio {ratio}"


def test_criterion_03_spectral_closed_form():
    with criterion(3, "accumulated filter spectrum matches closed form"):
        from rwsl.spectral import spectral_report
        alpha, hops = 0.1, 100
        bound = (1 - alpha) ** (hops + 1) + 1e-8
        graphs = [
            augment_self_loops(from_edge_array(2, np.array([0]), np.array([1]))),
            augment_self_loops(disjoint_cliques(3, 20)),
            augment_self_loops(rmat_generate(150, 4, seed=1)),
            augment_self_loops(rmat_generate(300, 3, seed=2)),
        ]
        for g in graphs:
            assert g.n_nodes <= 500
            rep = spectral_report(g, alpha, hops)
            assert rep.max_abs_gap <= bound, f"n={g.n_nodes}: gap {rep.max_abs_gap}"


def test_criterion_04_claims():
    with criterion(4, "hop-weight crossover and eigenvalue ordering claims"):
        start = time.perf_counter()
        alphas = [0.05, 0.1, 0.3, 0.5, 0.7, 0.9]
        for a1, a2 in ((x, y) for x in alphas for y in alphas if x < y):
            l0 = verify_claim1(a1, a2, l_max=5000)
            assert 0 <= l0 < 5000
        grid_alphas = np.round(np.arange(0.05, 0.951, 0.01), 10)
        grid_lambdas = np.round(np.arange(0.01, 1.991, 0.01), 10)
        assert verify_claim2(grid_alphas, grid_lambdas)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def _relu_kink_margin(model, x):
    """Smallest |pre-activation| over hidden layers; finite differences are
    only valid when this clears the probe step."""
    margin = np.inf
    a = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        s = a @ w + b
        if i == len(model.weights) - 1:
            break
        margin = min(margin, float(np.abs(s).min()))
        a = np.maximum(s, 0.0)
    return margin


def test_criterion_05_gradient_correctness():
    with criterion(5, "backprop matches central finite differences"):
        rng = np.random.default_rng(505)
        trials = 0
        while trials < 100:
            depth = int(rng.integers(1, 4))
            dims = tuple(int(rng.integers(1, 11)) for _ in range(depth + 1))
            model = init_mlp(dims, rng)
            x = rng.standard_normal((int(rng.integers(1, 7)), dims[0]))
            target = rng.standard_normal((x.shape[0], dims[-1]))
            if _relu_kink_margin(model, x) < 1e-3:
                continue  # derivative undefined at the kink; resample
            trials += 1

            def loss_fn():
                out, _, _ = mlp_forward(model, x)
                return mse_loss(target, out)[0]

            out, _, cache = mlp_forward(model, x)
            _, d_out = mse_loss(target, out)
            grads = mlp_backward(model, cache, d_out)
            numeric = finite_diff_param_grads(loss_fn, model.parameters())
            err = max_rel_err(grads.d_weights + grads.d_biases, numeric)
            assert err < 1e-4, f"trial {trials} dims {dims}: rel err {err}"


def test_criterion_06_distribution_invariants():
    with criterion(6, "soft assignment / target distribution invariants"):
        rng = np.random.default_rng(606)
        for trial in range(1000):
            n, k, dim = int(rng.integers(1, 20)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
            z = rng.standard_normal((n, dim)) * float(rng.uniform(0.1, 20))
            centroids = rng.standard_normal((k, dim)) * float(rng.uniform(0.1, 20))
            p = soft_assign(z, centroids, v=float(rng.uniform(0.2, 4)))
            assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-6)
            t = target_distribution(p)
            assert np.all(np.abs(t.sum(axis=1) - 1.0) <= 1e-6)
            loss, _ = kl_divergence(t, p)
            assert loss >= 0.0


def accuracy_oracle(pred, truth):
    ids = sorted(set(np.asarray(pred).tolist()) | set(np.asarray(truth).tolist()))
    best = 0
    for perm in permutations(ids):
        relabel = {c: perm[i] for i, c in enumerate(ids)}
        best = max(best, sum(relabel[p] == t for p, t in zip(pred, truth)))
    return best / len(pred)


def test_criterion_07_metric_oracles():
    with criterion(7, "metric oracles (matching, modularity, pair counting)"):
        for pred in product(range(3), repeat=4):
            for truth in product(range(3), repeat=4):
                assert accuracy(pred, truth) == pytest.approx(accuracy_oracle(pred, truth))
        rng = np.random.default_rng(707)
        for _ in range(200):
            pred = rng.integers(0, 3, size=8)
            truth = rng.integers(0, 3, size=8)
            assert accuracy(pred, truth) == pytest.approx(accuracy_oracle(pred, truth))

        triangles = disjoint_cliques(2, 3)
        assert modularity(triangles, np.repeat([0, 1], 3)) == 0.5
        assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5


FIXTURE_CFG = dict(architecture="32-8", learning_rate=0.01, pretrain_lr=0.01,
                   n_epochs=150, pretrain_n_epochs=100, batch_size=10,
                   dropout_rate=0.0, epsilon=0.2, seed=0)


def test_criterion_08_separable_fixture(two_cliques_dataset):
    with criterion(8, "two-clique fixture reaches a perfect clustering"):
        start = time.perf_counter()
        cfg = resolve_run_config({**two_cliques_dataset, **FIXTURE_CFG, "repeat": 5})
        outcome = run_pipeline(cfg)
        assert outcome.seeds == [0, 1, 2, 3, 4]
        for row in outcome.summary["per_seed"]:
            assert row["accuracy"] == 1.0, row
            assert row["conductance"] == 0.0, row
            assert row["nmi"] == 1.0, row
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


CORA_HELP = (
    "citation-network dataset not found: set RWSL_CORA_DIR (or create "
    "tests/data/cora/) containing edges.txt (one 'u v' pair per line, "
    "2708 nodes), features.txt (2708 x 1433 dense matrix) and labels.txt "
    "(one integer in [0,7) per line); offline environment cannot fetch it"
)


def _cora_dir():
    candidates = []
    if os.environ.get("RWSL_CORA_DIR"):
        candidates.append(Path(os.environ["RWSL_CORA_DIR"]))
    candidates.append(Path(__file__).parent / "data" / "cora")
    for cand in candidates:
        if all((cand / f).exists() for f in ("edges.txt", "features.txt", "labels.txt")):
            return cand
    return None


def test_criterion_09_cora_reproduction_band():
    cora = _cora_dir()
    if cora is None:
        pytest.skip(CORA_HELP)
    with criterion(9, "citation-network reproduction band"):
        g = load_edge_list(cora / "edges.txt", 2708)
        x_raw = load_features(cora / "features.txt")
        labels = load_labels(cora / "labels.txt")
        g_aug = augment_self_loops(g)
        x_filtered = filter_exact(g_aug, x_raw, FilterConfig(alpha=0.1, hops=16, rrz=0.4))

        accs, nmis, km_accs = [], [], []
        for seed in range(5):
            cfg = TrainConfig(architecture=(512, 2048, 32), learning_rate=1e-4,
                              pretrain_lr=1e-4, n_epochs=100, pretrain_n_epochs=30,
                              batch_size=256, beta=0.01, gamma=0.1, v=1.0,
                              update_p=1, dropout_rate=0.01, weight_decay=0.01,
                              seed=seed)
            encoder, decoder = pretrain_autoencoder(x_filtered, cfg)
            (result,) = train_rwsl(x_filtered, x_filtered, 7, cfg, encoder, decoder)
            report = evaluate_all(g, result.assignments, labels)
            accs.append(report.accuracy)
            nmis.append(report.nmi)
            _, km_assign = kmeans(x_raw, 7, seed=seed)
            km_accs.append(accuracy(km_assign, labels))

        med_acc, med_nmi = float(np.median(accs)), float(np.median(nmis))
        med_km = float(np.median(km_accs))
        print(f"\nmedian accuracy={med_acc:.4f} nmi={med_nmi:.4f} "
              f"raw-kmeans accuracy={med_km:.4f}")
        assert med_acc >= 0.55
        assert med_nmi >= 0.40
        assert med_acc - med_km >= 0.15


def linear_fit_r2(x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - float((resid**2).sum()) / ss_tot


def test_criterion_10_scaling_shape():
    with criterion(10, "training time linear in nodes, memory sublinear"):
        sizes = [10_000, 30_000, 100_000]
        rows = bench_scalability(sizes, edge_factor=20, feat_dim=100, epochs=5,
                                 repeats=3, seed=0)
        assert all(r["status"] == "ok" for r in rows)
        ns = [r["n_nodes"] for r in rows]
        train_times = [r["train_s"] for r in rows]
        peaks = [r["train_peak_mb"] for r in rows]
        r2 = linear_fit_r2(ns, train_times)
        mem_slope = float(np.polyfit(np.log(ns), np.log(peaks), 1)[0])
        print(f"\ntrain_s={train_times} R2={r2:.4f} peaks_mb={peaks} "
              f"mem log-log slope={mem_slope:.3f}")
        assert r2 >= 0.95, f"R^2 {r2}"
        assert mem_slope < 1.0, f"memory slope {mem_slope}"


def test_criterion_11_epsilon_sweep_harness(two_cliques_dataset):
    with criterion(11, "blend-weight sweep produces the full CSV"):
        values = [0.0, 0.2, 0.5, 0.8, 1.0]
        cfg = resolve_run_config({**two_cliques_dataset, **FIXTURE_CFG,
                                  "n_epochs": 60, "pretrain_n_epochs": 50,
                                  "repeat": 10})
        result = sweep_epsilon(cfg, values)
        lines = result.csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(values) * 6
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 4 and all(c != "" for c in cells)
            assert np.isfinite(float(cells[2])) and np.isfinite(float(cells[3]))
        assert {line.split(",")[0] for line in lines[1:]} == {str(v) for v in values}
        for summary in result.summaries:
            assert summary["repeat"] == 10
