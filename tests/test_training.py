import ctypes
import json
import resource
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rwsl.clustering import soft_assign, soft_assign_kl_grad
from rwsl.errors import DivergenceError
from rwsl.filters import FilterConfig, filter_exact
from rwsl.graph import augment_self_loops
from rwsl import training
from rwsl.nn import (AdamWState, init_mlp, kl_divergence, mlp_forward, mse_loss,
                     row_softmax)
from rwsl.pipeline import loss_history_to_csv
from rwsl.training import (TrainConfig, load_checkpoint, pretrain_autoencoder,
                           save_checkpoint, train_rwsl)

FAST = TrainConfig(architecture=(16, 4), learning_rate=1e-2, pretrain_lr=1e-2,
                   n_epochs=25, pretrain_n_epochs=25, batch_size=8,
                   dropout_rate=0.0, seed=0)


@pytest.fixture
def clique_inputs(two_cliques):
    g, x, _ = two_cliques
    return filter_exact(augment_self_loops(g), x, FilterConfig()), x


def cotrain(x_filtered, ae_x, n_clusters, cfg):
    """train_rwsl's one result on the pair pretrain_autoencoder fits on ``ae_x``."""
    (result,) = train_rwsl(x_filtered, ae_x, n_clusters, cfg, *pretrain_autoencoder(ae_x, cfg))
    return result


def inline_masks(model, rows, p, rng):
    """Keep-masks drawn as a forward that held ``rng`` drew them: one
    ``rng.random`` per hidden layer, in layer order; None without dropout."""
    return [rng.random((rows, w)) >= p for w in model.layer_dims[1:-1]] if p else None


def reconstruction_loss(encoder, decoder, x):
    z, _, _ = mlp_forward(encoder, x)
    xr, _, _ = mlp_forward(decoder, z)
    return mse_loss(x, xr)[0]


class TestConfig:
    def test_validation(self):
        for bad in (dict(architecture=()), dict(learning_rate=0.0),
                    dict(n_epochs=-1), dict(batch_size=0), dict(beta=-0.1),
                    dict(epsilon=1.5), dict(v=0.0), dict(update_p=0),
                    dict(dropout_rate=1.0), dict(weight_decay=-1.0),
                    dict(ae_input="other")):
            with pytest.raises(ValueError):
                TrainConfig(**bad)

    def test_architecture_coerced_to_ints(self):
        cfg = TrainConfig(architecture=[32.0, 8])
        assert cfg.architecture == (32, 8)


class TestPretrain:
    def test_zero_epochs_returns_untrained(self):
        x = np.random.default_rng(0).random((12, 5))
        cfg = replace(FAST, pretrain_n_epochs=0)
        enc, dec = pretrain_autoencoder(x, cfg)
        enc2, dec2 = pretrain_autoencoder(x, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(enc.weights, enc2.weights))
        assert enc.layer_dims == (5, 16, 4)
        assert dec.layer_dims == (4, 16, 5)

    def test_constant_rows_loss_to_zero(self):
        x = np.tile(np.array([0.3, 0.8, 0.1]), (16, 1))
        cfg = replace(FAST, architecture=(8, 2), pretrain_n_epochs=400, batch_size=16)
        enc, dec = pretrain_autoencoder(x, cfg)
        assert reconstruction_loss(enc, dec, x) < 1e-3

    def test_final_loss_below_initial(self):
        x = np.random.default_rng(1).random((20, 6))
        cfg = replace(FAST, architecture=(16, 3))
        init_enc, init_dec = pretrain_autoencoder(x, replace(cfg, pretrain_n_epochs=0))
        enc, dec = pretrain_autoencoder(x, replace(cfg, pretrain_n_epochs=60))
        assert (reconstruction_loss(enc, dec, x)
                < reconstruction_loss(init_enc, init_dec, x))

    def test_dropout_matches_inline_oracle(self, monkeypatch):
        # each step's encoder masks, then its decoder masks, in the order the
        # forwards drew them inline
        def inline_step(encoder, decoder, opts, xb, cfg, rng):
            p = cfg.dropout_rate
            z, _, ecache = mlp_forward(encoder, xb, p, inline_masks(encoder, len(xb), p, rng))
            xr, _, dcache = mlp_forward(decoder, z, p, inline_masks(decoder, len(xb), p, rng))
            _, d_xr = mse_loss(xb, xr)
            lr, wd = cfg.pretrain_lr, cfg.weight_decay
            d_z = training._backward_update(decoder, dcache, d_xr, opts[1], lr, wd)
            training._backward_update(encoder, ecache, d_z, opts[0], lr, wd)

        x = np.random.default_rng(3).random((20, 6))
        cfg = replace(FAST, architecture=(16, 8, 3), dropout_rate=0.3, pretrain_n_epochs=2)
        got = pretrain_autoencoder(x, cfg)
        monkeypatch.setattr(training, "_pretrain_step", inline_step)
        want = pretrain_autoencoder(x, cfg)
        for a, b in zip(got, want):
            assert all(np.array_equal(u, w) for u, w in zip(a.parameters(), b.parameters()))
        # the masks take part: without dropout the weights differ
        undropped = pretrain_autoencoder(x, replace(cfg, dropout_rate=0.0))
        assert not np.array_equal(got[0].weights[0], undropped[0].weights[0])

    def test_divergence_raises(self):
        # lr * weight_decay > 2 makes the decoupled decay factor explosive
        x = np.random.default_rng(2).random((10, 4)) * 100
        cfg = replace(FAST, architecture=(8, 2), pretrain_lr=10.0, weight_decay=10.0,
                      pretrain_n_epochs=500, batch_size=10)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError):
                pretrain_autoencoder(x, cfg)


class TestTrainRwsl:
    def test_loss_composition(self, clique_inputs):
        xf, x = clique_inputs
        cfg = replace(FAST, beta=0.37, gamma=0.91, batch_size=10)
        res = cotrain(xf, xf, 2, cfg)
        h = res.loss_history
        recomposed = h[:, 1] + 0.37 * h[:, 2] + 0.91 * h[:, 3]
        assert np.max(np.abs(recomposed - h[:, 4])) < 1e-12

    def test_deterministic_history(self, clique_inputs):
        xf, x = clique_inputs
        r1 = cotrain(xf, xf, 2, FAST)
        r2 = cotrain(xf, xf, 2, FAST)
        assert np.array_equal(r1.loss_history, r2.loss_history)
        assert np.array_equal(r1.assignments, r2.assignments)

    def test_distributions_are_row_stochastic(self, clique_inputs):
        xf, x = clique_inputs
        res = cotrain(xf, xf, 2, FAST)
        for mat in (res.p_h, res.p_z):
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal(res.assignments, np.argmax(res.p_h, axis=1))

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_blend_boundaries_complete(self, clique_inputs, eps):
        xf, x = clique_inputs
        res = cotrain(xf, xf, 2, replace(FAST, epsilon=eps))
        assert np.allclose(res.p_h.sum(axis=1), 1.0, atol=1e-9)
        assert np.isfinite(res.loss_history).all()

    def test_raw_input_variant_differs(self, clique_inputs):
        xf, x = clique_inputs
        res_f = cotrain(xf, xf, 2, FAST)
        res_r = cotrain(xf, x, 2, FAST)
        assert not np.array_equal(res_f.loss_history, res_r.loss_history)

    def test_ae_input_shape_checked(self, clique_inputs):
        xf, x = clique_inputs
        with pytest.raises(ValueError, match="identical shape"):
            cotrain(xf, x[:, :1], 2, FAST)

    def test_update_period_cadence(self, clique_inputs):
        xf, x = clique_inputs
        res = cotrain(xf, xf, 2, replace(FAST, update_p=7))
        assert np.isfinite(res.loss_history).all()

    def test_kmeans_sample_cap(self, clique_inputs):
        xf, x = clique_inputs
        res = cotrain(xf, xf, 2, replace(FAST, kmeans_sample_cap=6))
        assert np.allclose(res.p_h.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("epsilons", [(), (0.5, 1.5), (-0.1,)])
    def test_epsilons_validated(self, clique_inputs, epsilons):
        xf, _ = clique_inputs
        with pytest.raises(ValueError, match="epsilons"):
            train_rwsl(xf, xf, 2, FAST, *pretrain_autoencoder(xf, FAST), epsilons=epsilons)

    def test_k_validation(self, clique_inputs):
        xf, x = clique_inputs
        with pytest.raises(ValueError):
            cotrain(xf, xf, 1, FAST)

    def test_cotrain_divergence_raises(self, clique_inputs):
        xf, x = clique_inputs
        cfg = replace(FAST, learning_rate=10.0, weight_decay=10.0,
                      n_epochs=300, batch_size=10)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError):
                cotrain(xf, xf, 2, cfg)

    def test_passed_pair_trained_in_place(self, clique_inputs):
        xf, _ = clique_inputs
        enc, dec = pretrain_autoencoder(xf, FAST)
        enc0 = enc.copy()
        (res,) = train_rwsl(xf, xf, 2, FAST, enc, dec)
        assert res.encoder is enc and res.decoder is dec
        assert not np.array_equal(enc.weights[0], enc0.weights[0])
        narrow = pretrain_autoencoder(xf, replace(FAST, architecture=(8, 4)))
        with pytest.raises(ValueError, match="pretrained encoder dims"):
            train_rwsl(xf, xf, 2, FAST, *narrow)


class TestCheckpoint:
    def test_round_trip(self, clique_inputs, tmp_path):
        xf, x = clique_inputs
        res = cotrain(xf, xf, 2, FAST)
        save_checkpoint(tmp_path / "ck.npz",
                        {"encoder": res.encoder, "decoder": res.decoder, "dnn": res.dnn},
                        {"k": 2}, {"centroids": res.centroids})
        models, arrays, meta = load_checkpoint(tmp_path / "ck.npz")
        assert meta == {"k": 2}
        assert models["encoder"].layer_dims == res.encoder.layer_dims
        for a, b in zip(models["dnn"].weights, res.dnn.weights):
            assert np.array_equal(a, b)
        assert np.array_equal(arrays["centroids"], res.centroids)

    def test_loads_checkpoint_with_optimizer_and_rng_state(self, tmp_path):
        # earlier checkpoints also held the AdamW moments, the step and the RNG state
        rng = np.random.default_rng(0)
        model = init_mlp((3, 4, 2), rng)
        opt = AdamWState.for_params(model.parameters())
        spec = {"version": 1, "models": {"dnn": [3, 4, 2]}, "meta": {"k": 2},
                "optimizer_step": 7, "rng_state": rng.bit_generator.state}
        blob = {"spec": np.array(json.dumps(spec)), "arr_centroids": np.eye(2)}
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            blob[f"dnn_w{i}"] = w
            blob[f"dnn_b{i}"] = b
        for i, (m, v) in enumerate(zip(opt.m, opt.v)):
            blob[f"opt_m{i}"] = m
            blob[f"opt_v{i}"] = v
        np.savez(tmp_path / "old.npz", **blob)
        models, arrays, meta = load_checkpoint(tmp_path / "old.npz")
        assert meta == {"k": 2}
        assert set(arrays) == {"centroids"}
        assert models["dnn"].layer_dims == (3, 4, 2)
        for a, b in zip(models["dnn"].parameters(), model.parameters()):
            assert np.array_equal(a, b)

        save_checkpoint(tmp_path / "new.npz", models, meta, arrays)
        with np.load(tmp_path / "new.npz") as data:
            assert not [k for k in data.files if k.startswith("opt_")]
            new_spec = json.loads(str(data["spec"]))
        assert "optimizer_step" not in new_spec and "rng_state" not in new_spec

    def test_loss_csv(self, tmp_path):
        history = np.array([[0, 1.0, 2.0, 3.0, 4.0], [1, 0.5, 0.25, 0.5, 0.3]])
        loss_history_to_csv(history, tmp_path / "loss.csv")
        lines = (tmp_path / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,L_MSE,L_H,L_Z,L_tot"
        assert lines[1].startswith("0,1,2,3,4")
        assert len(lines) == 3


class TestPassCount:
    @pytest.mark.parametrize("cap", [0, 7])
    @pytest.mark.parametrize("n_epochs,update_p", [(0, 1), (1, 1), (3, 1), (5, 2)])
    def test_forward_calls(self, clique_inputs, monkeypatch, cap, n_epochs, update_p):
        xf, x = clique_inputs
        cfg = replace(FAST, n_epochs=n_epochs, update_p=update_p, batch_size=4,
                      kmeans_sample_cap=cap, pretrain_n_epochs=0)
        enc, dec = pretrain_autoencoder(xf, cfg)
        calls = []
        forward = training.mlp_forward

        def counting_forward(*args, **kwargs):
            calls.append(args[1].shape[0])
            return forward(*args, **kwargs)

        monkeypatch.setattr(training, "mlp_forward", counting_forward)
        train_rwsl(xf, xf, 2, cfg, enc, dec)

        n = len(xf)
        batches = -(-n // cfg.batch_size)
        subsampled = 0 < cap < n
        init_batches = -(-cap // cfg.batch_size) if subsampled else batches
        refreshes = -(-n_epochs // update_p)
        # k-means init; full refresh passes; snapshot, encoder, decoder and DNN
        # per co-train batch; one encoder and one DNN pass per final batch.
        # Without subsampling the first refresh reuses the k-means embeddings.
        want = init_batches + refreshes * batches + 4 * n_epochs * batches + 2 * batches
        if not subsampled and refreshes:
            want -= batches
        assert len(calls) == want


def force_helper(monkeypatch, on: bool):
    """Open (two CPUs) or close (one CPU) the helper-thread gate at any step size."""
    monkeypatch.setattr(training, "HELPER_MIN_STEP_MACS", 0)
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2 if on else 1)
    monkeypatch.setattr(training, "_blas_threads", lambda: 1)


@pytest.fixture
def forward_threads(monkeypatch):
    """Names of the threads that ran train_rwsl's forward passes."""
    names = []
    forward = training.mlp_forward

    def recording_forward(*args, **kwargs):
        names.append(threading.current_thread().name)
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "mlp_forward", recording_forward)
    return names


def no_executor(*args, **kwargs):
    raise AssertionError("a helper thread was started")


BLAS_NAME = (getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
             .get("blas", {}).get("name") or "")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS",
             "OMP_NUM_THREADS")


def serial_step(models, opts, snapshot, centroids, xa_b, xf_b, t_b, cfg, rng):
    """Oracle: the co-train step on one thread, each forward's dropout masks
    drawn inline just before it, the models updated decoder, encoder, then DNN."""
    encoder, decoder, dnn = models
    p, rows = cfg.dropout_rate, len(xa_b)
    _, mix_hidden, _ = mlp_forward(snapshot, xa_b)
    z, _, ecache = mlp_forward(encoder, xa_b, p, inline_masks(encoder, rows, p, rng))
    xr, _, dcache = mlp_forward(decoder, z, p, inline_masks(decoder, rows, p, rng))
    l_mse, d_xr = mse_loss(xa_b, xr)
    logits, _, hcache = mlp_forward(dnn, xf_b, p, inline_masks(dnn, rows, p, rng),
                                    mix_hidden, cfg.epsilon)
    q_z = soft_assign(z, centroids, cfg.v)
    l_z, _ = kl_divergence(t_b, q_z)
    d_z_kl = soft_assign_kl_grad(t_b, q_z, z, centroids, cfg.v)
    l_h, d_logits = kl_divergence(t_b, row_softmax(logits))
    lr, wd = cfg.learning_rate, cfg.weight_decay
    d_z = training._backward_update(decoder, dcache, d_xr, opts[1], lr, wd)
    training._backward_update(encoder, ecache, d_z + cfg.gamma * d_z_kl, opts[0], lr, wd)
    training._backward_update(dnn, hcache, cfg.beta * d_logits, opts[2], lr, wd)
    return l_mse, l_h, l_z, l_mse + cfg.beta * l_h + cfg.gamma * l_z


def one_dnn_step(models, opts, snapshot, centroids, xa_b, xf_b, t_b, cfg, rng, helper):
    """The trainer's step with one DNN at ``cfg.epsilon``; its one loss tuple."""
    (losses,) = training._cotrain_step(models, opts, snapshot, centroids, xa_b, xf_b, t_b,
                                       (cfg.epsilon,), cfg, rng, helper)
    return losses


class TestHelperThread:
    # 96 rows in 3 batches of 32: the batched passes end on a lone helper
    # batch. One step is 35M multiply-adds, above HELPER_MIN_STEP_MACS.
    ARCH = (256, 1024, 8)
    N, D, K = 96, 16, 4
    CFG = TrainConfig(architecture=ARCH, batch_size=32, n_epochs=3, update_p=2,
                      pretrain_n_epochs=1, learning_rate=1e-3, pretrain_lr=1e-3)

    def inputs(self):
        return np.random.default_rng(0).standard_normal((self.N, self.D))

    def run_recorded(self, monkeypatch, cfg):
        """train_rwsl, plus every AdamW state and RNG it made."""
        states, rngs = [], []
        make_rng = np.random.default_rng

        def for_params(params):
            states.append(AdamWState.for_params(params))
            return states[-1]

        def recording_rng(*args, **kwargs):
            rngs.append(make_rng(*args, **kwargs))
            return rngs[-1]

        x = self.inputs()
        with monkeypatch.context() as m:
            m.setattr(training, "AdamWState", SimpleNamespace(for_params=for_params))
            m.setattr(np.random, "default_rng", recording_rng)
            res = cotrain(x, x, self.K, cfg)
        return res, states, rngs

    @pytest.mark.parametrize("cap", [0, 40])
    def test_bit_identical_to_inline(self, monkeypatch, forward_threads, cap):
        cfg = replace(self.CFG, kmeans_sample_cap=cap)
        runs, threads = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # interleave the two threads' Python code finely
        try:
            for on in (False, True):
                force_helper(monkeypatch, on)
                forward_threads.clear()
                runs.append(self.run_recorded(monkeypatch, cfg))
                threads.append(set(forward_threads))
        finally:
            sys.setswitchinterval(interval)
        assert threads[0] == {threading.current_thread().name}
        assert any(name.startswith("rwsl-cotrain") for name in threads[1])

        (inline, inline_states, inline_rngs), (helped, helped_states, helped_rngs) = runs
        for name in ("centroids", "p_h", "p_z", "loss_history", "assignments"):
            assert np.array_equal(getattr(inline, name), getattr(helped, name)), name
        for name in ("encoder", "decoder", "dnn"):
            for a, b in zip(getattr(inline, name).parameters(),
                            getattr(helped, name).parameters()):
                assert np.array_equal(a, b), name
        assert len(inline_states) == len(helped_states) == 5   # pretrain 2, co-train 3
        for a, b in zip(inline_states, helped_states):
            assert a.step == b.step
            assert all(np.array_equal(u, w) for u, w in zip(a.m + a.v, b.m + b.v))
        assert len(inline_rngs) == len(helped_rngs) >= 2
        for a, b in zip(inline_rngs, helped_rngs):
            assert np.array_equal(a.random(4), b.random(4))

    @pytest.mark.parametrize("threaded", [False, True])
    def test_step_matches_serial_oracle(self, threaded):
        cfg = replace(self.CFG, dropout_rate=0.3)
        rng = np.random.default_rng(5)
        xa, xf = rng.standard_normal((2, 40, self.D))
        t = rng.dirichlet(np.ones(self.K), size=40)
        centroids = rng.standard_normal((self.K, self.ARCH[-1]))
        encoder = init_mlp((self.D, *self.ARCH), rng)
        models = (encoder, init_mlp((*self.ARCH[::-1], self.D), rng),
                  init_mlp((self.D, *self.ARCH[:-1], self.K), rng))
        snapshot = encoder.copy()
        runs = []
        for step in (serial_step, one_dnn_step):
            ms = tuple(m.copy() for m in models)
            opts = [AdamWState.for_params(m.parameters()) for m in ms]
            step_rng = np.random.default_rng(7)
            helper = (ThreadPoolExecutor(1) if threaded and step is not serial_step
                      else nullcontext(training._Inline()))
            with helper as h:
                extra = () if step is serial_step else (h,)
                losses = [step(ms, opts, snapshot, centroids, xa[lo:lo + 16], xf[lo:lo + 16],
                               t[lo:lo + 16], cfg, step_rng, *extra) for lo in (0, 16, 32)]
            runs.append((losses, ms, opts, step_rng.random(4)))
        (want, want_ms, want_opts, want_next), (got, got_ms, got_opts, got_next) = runs
        assert got == want
        for a, b in zip(want_ms, got_ms):
            assert all(np.array_equal(u, w) for u, w in zip(a.parameters(), b.parameters()))
        for a, b in zip(want_opts, got_opts):
            assert all(np.array_equal(u, w) for u, w in zip(a.m + a.v, b.m + b.v))
        assert np.array_equal(got_next, want_next)

    def test_divergence_joins_helper(self, clique_inputs, monkeypatch, forward_threads):
        xf, x = clique_inputs
        force_helper(monkeypatch, True)
        cfg = replace(FAST, learning_rate=10.0, weight_decay=10.0,
                      n_epochs=300, batch_size=10)
        before = set(threading.enumerate())
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError):
                cotrain(xf, xf, 2, cfg)
        assert set(threading.enumerate()) == before
        assert any(name.startswith("rwsl-cotrain") for name in forward_threads)

    @pytest.mark.parametrize("helped", [False, True])
    @pytest.mark.parametrize("cap", [0, 40])
    def test_weight_group_matches_single_weight_runs(self, monkeypatch, forward_threads,
                                                     helped, cap):
        force_helper(monkeypatch, helped)
        cfg = replace(self.CFG, dropout_rate=0.1, update_p=2, kmeans_sample_cap=cap)
        weights = (0.0, 0.3, 1.0)
        x = self.inputs()
        group = train_rwsl(x, x, self.K, cfg, *pretrain_autoencoder(x, cfg), epsilons=weights)
        assert helped == any(name.startswith("rwsl-cotrain") for name in forward_threads)
        assert len(group) == len(weights)
        for eps, got in zip(weights, group):
            want = cotrain(x, x, self.K, replace(cfg, epsilon=eps))
            for name in ("assignments", "p_z", "p_h", "loss_history", "centroids"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (eps, name)
            for name in ("encoder", "decoder", "dnn"):
                for a, b in zip(getattr(got, name).parameters(),
                                getattr(want, name).parameters()):
                    assert np.array_equal(a, b), (eps, name)
        assert not np.array_equal(group[0].p_h, group[2].p_h)

    def test_diverging_weight_fails_group_and_joins_helper(self, monkeypatch,
                                                           forward_threads):
        force_helper(monkeypatch, True)
        forward = training.mlp_forward

        def diverging(model, x, dropout=0.0, masks=None, mix=None, mix_eps=0.0):
            out, hidden, cache = forward(model, x, dropout, masks, mix, mix_eps)
            if mix is not None and mix_eps == 0.3:
                out = np.full_like(out, np.nan)
            return out, hidden, cache

        monkeypatch.setattr(training, "mlp_forward", diverging)
        x = self.inputs()
        before = set(threading.enumerate())
        with pytest.raises(DivergenceError):
            train_rwsl(x, x, self.K, self.CFG, *pretrain_autoencoder(x, self.CFG),
                       epsilons=(0.0, 0.3, 1.0))
        assert set(threading.enumerate()) == before
        assert any(name.startswith("rwsl-cotrain") for name in forward_threads)

    @pytest.mark.parametrize("case", ["one_cpu", "blas_unset", "blas_two", "small_step"])
    def test_gate_keeps_inline(self, monkeypatch, forward_threads, case):
        x = self.inputs()
        cfg = self.CFG
        monkeypatch.setattr(training, "_usable_cpus", lambda: 1 if case == "one_cpu" else 2)
        for var in BLAS_VARS:
            if case == "blas_unset":
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, "2" if case == "blas_two" else "1")
        if case in ("one_cpu", "small_step"):
            monkeypatch.setattr(training, "_blas_threads", lambda: 1)
        if case == "small_step":
            # the 64-16 networks of the R-MAT benchmark workloads; 2M
            # multiply-adds per step here, 5M there
            x = np.random.default_rng(0).standard_normal((self.N, 64))
            cfg = replace(cfg, architecture=(64, 16), batch_size=256)
        monkeypatch.setattr(training, "ThreadPoolExecutor", no_executor)
        cotrain(x, x, self.K, cfg)
        assert set(forward_threads) == {threading.current_thread().name}

    @pytest.mark.skipif("openblas" not in BLAS_NAME.lower(), reason="numpy without OpenBLAS")
    @pytest.mark.parametrize("env,want", [
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"GOTO_NUM_THREADS": " 1", "OMP_NUM_THREADS": "2"}, 1),
        ({"MKL_NUM_THREADS": "1"}, 0),
        ({"OPENBLAS_NUM_THREADS": "x"}, 0),
        ({}, 0),
    ])
    def test_blas_threads_read_like_openblas(self, monkeypatch, env, want):
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert training._blas_threads() == want


def parameter_bytes(*models):
    return sum(p.nbytes for m in models for p in m.parameters())


class TestMemory:
    """A step holds the parameters, the frozen snapshot, the AdamW moments,
    at most two models' gradients (one per thread when the helper runs the
    DNN's update) and one batch's activations. On a parameter-dominated
    shape, holding every model's gradients at once, or the previous step's
    next to the current one, shows as a higher peak."""

    ARCH = (256, 1024, 8)
    N, D, K = 64, 16, 4

    def inputs(self):
        return np.random.default_rng(0).standard_normal((self.N, self.D))

    def test_cotrain_peak(self, traced_peak, monkeypatch):
        force_helper(monkeypatch, False)
        self.check_cotrain_peak(traced_peak)

    def test_cotrain_peak_with_helper(self, traced_peak, monkeypatch):
        force_helper(monkeypatch, True)
        self.check_cotrain_peak(traced_peak)

    def check_cotrain_peak(self, traced_peak):
        x = self.inputs()
        cfg = TrainConfig(architecture=self.ARCH, batch_size=32, n_epochs=2,
                          pretrain_n_epochs=0)
        enc, dec = pretrain_autoencoder(x, cfg)
        dnn = init_mlp((self.D, *self.ARCH[:-1], self.K), np.random.default_rng(0))
        peak = traced_peak(train_rwsl, x, x, self.K, cfg, enc, dec)
        # parameters 1 + snapshot 0.33 + moments 2 + one model's gradients
        # reads 3.4x inline, 3.7x with the DNN's update on the helper; all
        # three models' gradients plus the last step's, 5.1x
        assert peak < 4.0 * parameter_bytes(enc, dec, dnn)

    def test_pretrain_peak(self, traced_peak):
        x = self.inputs()
        cfg = TrainConfig(architecture=self.ARCH, batch_size=32, pretrain_n_epochs=2)
        ae_bytes = parameter_bytes(*pretrain_autoencoder(x, replace(cfg, pretrain_n_epochs=0)))
        peak = traced_peak(pretrain_autoencoder, x, cfg)
        # one model's gradients at a time reads 3.9x; both at once plus the
        # last step's, 5.4x
        assert peak < 4.5 * ae_bytes

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="glibc mallopt only")
    def test_freed_step_memory_reused_without_page_faults(self):
        # 3 MiB: large enough for glibc's default to map and unmap it on every
        # allocation, below numpy's huge-page advice threshold (4 MiB)
        training._retain_freed_heap()

        def step():
            return np.ones(3 << 17).sum()

        step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(4):
            step()
        # faulting the array in again costs 768 4-KiB pages per step
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200
