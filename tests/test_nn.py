import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwsl.nn import (ADAMW_BLOCK, AdamWState, MlpModel, adamw_step, init_mlp,
                     kl_divergence, mlp_backward, mlp_forward, mse_loss, relu,
                     row_softmax)


def finite_diff_param_grads(loss_fn, params, h=1e-5):
    """Central finite differences of loss_fn() w.r.t. every parameter entry."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = loss_fn()
            p[idx] = orig - h
            lm = loss_fn()
            p[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


class TestForward:
    def test_zero_weights_give_zero(self):
        model = init_mlp((3, 4, 2), np.random.default_rng(0))
        for w in model.weights:
            w[:] = 0.0
        out, hidden, _ = mlp_forward(model, np.random.default_rng(1).random((5, 3)))
        assert np.all(out == 0.0)
        assert np.all(hidden[0] == 0.0)

    def test_identity_relu_passthrough(self):
        model = MlpModel((3, 3, 3), [np.eye(3), np.eye(3)], [np.zeros(3), np.zeros(3)])
        x = np.abs(np.random.default_rng(2).random((4, 3)))
        out, _, _ = mlp_forward(model, x)
        assert np.allclose(out, x)

    def test_hand_unrolled_reference(self):
        # 2-layer net on a 4x3 input, checked against explicit scalar loops
        rng = np.random.default_rng(7)
        model = init_mlp((3, 2, 2), rng)
        x = np.random.default_rng(8).standard_normal((4, 3))
        out, _, _ = mlp_forward(model, x)
        w1, w2 = model.weights
        b1, b2 = model.biases
        for i in range(4):
            hidden = [max(0.0, sum(x[i, a] * w1[a, j] for a in range(3)) + b1[j])
                      for j in range(2)]
            for k in range(2):
                want = sum(hidden[j] * w2[j, k] for j in range(2)) + b2[k]
                assert out[i, k] == pytest.approx(want, rel=1e-12)

    def test_dim_mismatch(self):
        model = init_mlp((3, 2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp_forward(model, np.ones((2, 4)))

    def test_dropout_inference_identity(self):
        model = init_mlp((3, 8, 2), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((6, 3))
        base, _, _ = mlp_forward(model, x)
        # a rate without masks is inference: no dropout
        out, _, cache = mlp_forward(model, x, dropout=0.5)
        assert np.array_equal(out, base)
        assert all(m is None for m in cache.masks)

    def test_dropout_mask_replay(self):
        model = init_mlp((3, 8, 2), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((6, 3))
        masks = [np.random.default_rng(5).random((6, 8)) >= 0.4]
        out1, _, cache = mlp_forward(model, x, dropout=0.4, masks=masks)
        out2, _, _ = mlp_forward(model, x, dropout=0.4, masks=cache.masks)
        assert np.array_equal(out1, out2)
        h = np.maximum(x @ model.weights[0] + model.biases[0], 0.0)
        want = (h * masks[0] / 0.6) @ model.weights[1] + model.biases[1]
        assert np.allclose(out1, want, rtol=1e-12, atol=1e-12)

    def test_mixing_blend(self):
        model = init_mlp((3, 4, 2), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((5, 3))
        _, hidden, _ = mlp_forward(model, x)
        mix = [np.random.default_rng(2).standard_normal((5, 4))]
        # eps=1 keeps only the injected activations at the blended layer
        out_full_mix, _, _ = mlp_forward(model, x, mix=mix, mix_eps=1.0)
        assert np.allclose(out_full_mix, mix[0] @ model.weights[1] + model.biases[1])
        out_no_mix, _, _ = mlp_forward(model, x, mix=mix, mix_eps=0.0)
        base, _, _ = mlp_forward(model, x)
        assert np.allclose(out_no_mix, base)


class TestBackward:
    def test_zero_output_gradient(self):
        model = init_mlp((3, 4, 2), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((5, 3))
        out, _, cache = mlp_forward(model, x)
        g = mlp_backward(model, cache, np.zeros_like(out))
        assert all(np.all(dw == 0) for dw in g.d_weights)
        assert all(np.all(db == 0) for db in g.d_biases)

    def test_linear_regression_gradient(self):
        # single linear layer, MSE to target: dW = X^T (XW - T) / N
        rng = np.random.default_rng(3)
        model = init_mlp((4, 2), rng)
        model.biases[0][:] = 0.0
        x = rng.standard_normal((6, 4))
        t = rng.standard_normal((6, 2))
        out, _, cache = mlp_forward(model, x)
        loss, d_out = mse_loss(t, out)
        g = mlp_backward(model, cache, d_out)
        want = x.T @ (x @ model.weights[0] - t) / 6
        assert np.allclose(g.d_weights[0], want, atol=1e-12)

    @pytest.mark.parametrize("dims", [(3, 2), (4, 5, 3), (2, 6, 4, 2)])
    def test_finite_difference(self, dims):
        rng = np.random.default_rng(sum(dims))
        model = init_mlp(dims, rng)
        x = rng.standard_normal((5, dims[0]))
        target = rng.standard_normal((5, dims[-1]))

        def loss_fn():
            out, _, _ = mlp_forward(model, x)
            return mse_loss(target, out)[0]

        out, _, cache = mlp_forward(model, x)
        _, d_out = mse_loss(target, out)
        g = mlp_backward(model, cache, d_out)
        numeric = finite_diff_param_grads(loss_fn, model.parameters())
        assert max_rel_err(g.d_weights + g.d_biases, numeric) < 1e-4

    def test_finite_difference_with_dropout_and_mix(self):
        rng = np.random.default_rng(42)
        model = init_mlp((3, 5, 4, 2), rng)
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))
        mix = [rng.standard_normal((4, 5)), rng.standard_normal((4, 4))]
        masks = [rng.random((4, 5)) >= 0.3, rng.random((4, 4)) >= 0.3]

        def loss_fn():
            out, _, _ = mlp_forward(model, x, dropout=0.3, masks=masks, mix=mix, mix_eps=0.4)
            return mse_loss(target, out)[0]

        out, _, cache = mlp_forward(model, x, dropout=0.3, masks=masks, mix=mix, mix_eps=0.4)
        _, d_out = mse_loss(target, out)
        g = mlp_backward(model, cache, d_out)
        numeric = finite_diff_param_grads(loss_fn, model.parameters())
        assert max_rel_err(g.d_weights + g.d_biases, numeric) < 1e-4

    def test_stale_cache_rejected(self):
        m1 = init_mlp((3, 4, 2), np.random.default_rng(0))
        m2 = init_mlp((3, 2), np.random.default_rng(0))
        _, _, cache = mlp_forward(m1, np.ones((2, 3)))
        with pytest.raises(ValueError):
            mlp_backward(m2, cache, np.ones((2, 2)))


class TestAdamW:
    def test_zero_grad_no_decay_is_identity(self):
        p = np.full((2, 2), 5.0)
        st_ = AdamWState.for_params([p])
        adamw_step([p], [np.zeros_like(p)], st_, lr=0.1, weight_decay=0.0)
        assert np.array_equal(p, np.full((2, 2), 5.0))

    def test_decay_only_step(self):
        p = np.full(3, 2.0)
        st_ = AdamWState.for_params([p])
        adamw_step([p], [np.zeros(3)], st_, lr=0.1, weight_decay=0.01)
        assert np.allclose(p, 2.0 * (1 - 0.001), atol=1e-16)

    def test_zero_grad_trajectory_is_geometric(self):
        p = np.full(2, 4.0)
        st_ = AdamWState.for_params([p])
        for _ in range(20):
            adamw_step([p], [np.zeros(2)], st_, lr=0.05, weight_decay=0.1)
        assert np.allclose(p, 4.0 * (1 - 0.05 * 0.1) ** 20, rtol=1e-12)

    def test_constant_gradient_step_approaches_lr(self):
        p = np.zeros(1)
        st_ = AdamWState.for_params([p])
        g = np.full(1, 3.7)
        prev = p.copy()
        step = None
        for _ in range(300):
            prev = p.copy()
            adamw_step([p], [g], st_, lr=0.01, weight_decay=0.0)
            step = abs(p[0] - prev[0])
        assert step == pytest.approx(0.01, rel=1e-3)


class TestLosses:
    def test_mse_identical_zero(self):
        x = np.random.default_rng(0).random((3, 3))
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_mse_hand_value(self):
        loss, grad = mse_loss(np.zeros((2, 3)), np.ones((2, 3)))
        assert loss == pytest.approx(1.5)
        assert np.allclose(grad, 0.5)

    def test_mse_gradient_finite_difference(self):
        rng = np.random.default_rng(1)
        x = rng.random((3, 2))
        y = rng.random((3, 2))
        _, grad = mse_loss(x, y)
        h = 1e-6
        for i in range(3):
            for j in range(2):
                y[i, j] += h
                lp = mse_loss(x, y)[0]
                y[i, j] -= 2 * h
                lm = mse_loss(x, y)[0]
                y[i, j] += h
                fd = (lp - lm) / (2 * h)
                assert abs(fd - grad[i, j]) / max(abs(fd), 1e-9) < 1e-6

    def test_kl_identical_zero(self):
        p = row_softmax(np.random.default_rng(2).standard_normal((4, 3)))
        loss, _ = kl_divergence(p, p.copy())
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_kl_hand_value(self):
        loss, _ = kl_divergence(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))
        assert loss == pytest.approx(np.log(2.0))

    def test_kl_invalid_inputs(self):
        good = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError):
            kl_divergence(np.array([[0.9, 0.3]]), good)
        with pytest.raises(ValueError):
            kl_divergence(good, np.array([[1.2, -0.2]]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_kl_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        t = row_softmax(rng.standard_normal((3, 4)) * 3)
        p = row_softmax(rng.standard_normal((3, 4)) * 3)
        loss, _ = kl_divergence(t, p)
        assert loss >= 0.0

    def test_kl_logit_gradient(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((3, 4))
        t = row_softmax(rng.standard_normal((3, 4)))
        _, d_logits = kl_divergence(t, row_softmax(logits))
        h = 1e-6
        for i in range(3):
            for j in range(4):
                logits[i, j] += h
                lp = kl_divergence(t, row_softmax(logits))[0]
                logits[i, j] -= 2 * h
                lm = kl_divergence(t, row_softmax(logits))[0]
                logits[i, j] += h
                fd = (lp - lm) / (2 * h)
                assert abs(fd - d_logits[i, j]) < 1e-6


class TestInit:
    def test_deterministic_init(self):
        a = init_mlp((3, 5, 2), np.random.default_rng(9))
        b = init_mlp((3, 5, 2), np.random.default_rng(9))
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            init_mlp((4,), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Out-of-place reference formulas: the in-place passes and the blocked AdamW
# must reproduce every bit of these.


def ref_forward(model, x, dropout=0.0, training=False, rng=None, masks=None,
                mix=None, mix_eps=0.0):
    n_layers = len(model.weights)
    use_dropout = training and dropout > 0.0
    a = x
    hidden, inputs, relu_masks, mask_rec, mixed = [], [], [], [], []
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(a)
        s = a @ w + b
        if i == n_layers - 1:
            out = s
            break
        rmask = s > 0.0
        h = np.where(rmask, s, 0.0)
        relu_masks.append(rmask)
        hidden.append(h)
        if mix is not None:
            h = (1.0 - mix_eps) * h + mix_eps * mix[i]
            mixed.append(True)
        else:
            mixed.append(False)
        if use_dropout:
            m = masks[i] if masks is not None else (rng.random(h.shape) >= dropout)
            mask_rec.append(m)
            a = h * (m / (1.0 - dropout))
        else:
            mask_rec.append(None)
            a = h
    cache = dict(inputs=inputs, relu_masks=relu_masks, masks=mask_rec, dropout=dropout,
                 training=use_dropout, mix_eps=mix_eps, mixed=mixed)
    return out, hidden, cache


def ref_backward(model, cache, output_gradient):
    n_layers = len(model.weights)
    d_weights = [None] * n_layers
    d_biases = [None] * n_layers
    g = output_gradient
    for i in range(n_layers - 1, -1, -1):
        d_weights[i] = cache["inputs"][i].T @ g
        d_biases[i] = g.sum(axis=0)
        g = g @ model.weights[i].T
        if i > 0:
            if cache["training"] and cache["masks"][i - 1] is not None:
                g = g * (cache["masks"][i - 1] / (1.0 - cache["dropout"]))
            if cache["mixed"][i - 1]:
                g = g * (1.0 - cache["mix_eps"])
            g = g * cache["relu_masks"][i - 1]
    return d_weights, d_biases, g


def ref_adamw_step(params, grads, state, lr, weight_decay=0.0, beta1=0.9,
                   beta2=0.999, eps=1e-8):
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if weight_decay:
            p *= 1.0 - lr * weight_decay
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(bits(a), bits(b))


SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                    5e-324, -5e-324, 2.2250738585072e-308, -2.2250738585072e-308,
                    1.5, -2.0])


class TestAgainstReference:
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("use_mix", [False, True])
    @pytest.mark.parametrize("replay", [False, True])
    @given(rows=st.integers(1, 5),
           widths=st.lists(st.integers(1, 6), min_size=2, max_size=4),
           mix_eps=st.sampled_from([0.2, 0.35, 0.0, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_forward_backward_bits(self, dropout, use_mix, replay, rows, widths, mix_eps, seed):
        rng = np.random.default_rng(seed)
        model = init_mlp(widths, rng)
        for b in model.biases:
            b[:] = rng.standard_normal(b.shape)
        x = rng.standard_normal((rows, widths[0]))
        mix = ([rng.standard_normal((rows, w)) for w in widths[1:-1]] if use_mix else None)
        eps = mix_eps if use_mix else 0.0
        masks = ([rng.random((rows, w)) >= 0.5 for w in widths[1:-1]] if replay else None)
        training = dropout > 0.0
        # without recorded masks the oracle draws its own inline, layer by layer
        draw = np.random.default_rng(seed + 1)
        drawn = masks or [draw.random((rows, w)) >= dropout for w in widths[1:-1]]
        out, hidden, cache = mlp_forward(model, x, dropout, drawn if training else None,
                                         mix, eps)
        r_out, r_hidden, r_cache = ref_forward(model, x, dropout, training,
                                               np.random.default_rng(seed + 1), masks, mix, eps)
        assert_same_bits([out], [r_out])
        assert_same_bits(hidden, r_hidden)
        assert_same_bits(cache.inputs, r_cache["inputs"])
        for m, r_m in zip(cache.masks, r_cache["masks"]):
            assert (m is None) == (r_m is None)
            if m is not None:
                assert np.array_equal(m, r_m)

        d_out = rng.standard_normal(out.shape)
        grads = mlp_backward(model, cache, d_out)
        r_dw, r_db, r_din = ref_backward(model, r_cache, d_out)
        assert_same_bits(grads.d_weights, r_dw)
        assert_same_bits(grads.d_biases, r_db)
        assert_same_bits([grads.d_input], [r_din])

    @given(shapes=st.lists(st.sampled_from([
               (1,), (7,), (ADAMW_BLOCK - 1,), (ADAMW_BLOCK,), (ADAMW_BLOCK + 1,),
               (3, ADAMW_BLOCK // 3 + 5), (128, 128), (1, 5), (2 * ADAMW_BLOCK + 17,)]),
               min_size=1, max_size=3),
           weight_decay=st.sampled_from([0.0, 0.01]),
           lr=st.sampled_from([1e-3, 0.1]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_adamw_bits_over_steps(self, shapes, weight_decay, lr, seed):
        rng = np.random.default_rng(seed)
        params = [rng.standard_normal(shape) for shape in shapes]
        r_params = [p.copy() for p in params]
        state = AdamWState.for_params(params)
        r_state = AdamWState.for_params(r_params)
        for _ in range(3):
            grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-8, 3)
                     for p in params]
            adamw_step(params, grads, state, lr, weight_decay)
            ref_adamw_step(r_params, grads, r_state, lr, weight_decay)
            assert state.step == r_state.step
            assert_same_bits(params, r_params)
            assert_same_bits(state.m, r_state.m)
            assert_same_bits(state.v, r_state.v)

    def test_adamw_per_model_matches_joint_step(self):
        rng = np.random.default_rng(3)
        groups = [[rng.standard_normal(shape) for shape in shapes]
                  for shapes in (((5, 3), (3,)), ((ADAMW_BLOCK + 1,),), ((4, 7), (7,), (2,)))]
        joint = [p.copy() for group in groups for p in group]
        joint_state = AdamWState.for_params(joint)
        states = [AdamWState.for_params(group) for group in groups]
        for _ in range(3):
            grads = [[rng.standard_normal(p.shape) for p in group] for group in groups]
            for group, group_grads, state in zip(groups, grads, states):
                adamw_step(group, group_grads, state, 1e-3, 0.01)
            adamw_step(joint, [g for group_grads in grads for g in group_grads],
                       joint_state, 1e-3, 0.01)
            assert [s.step for s in states] == [joint_state.step] * len(groups)
            assert_same_bits([p for group in groups for p in group], joint)
            assert_same_bits([m for s in states for m in s.m], joint_state.m)
            assert_same_bits([v for s in states for v in s.v], joint_state.v)

    def test_relu_special_values(self):
        want = np.where(SPECIAL > 0, SPECIAL, 0.0)
        assert_same_bits([relu(SPECIAL)], [want])
        inplace = SPECIAL.copy()
        assert relu(inplace, out=inplace) is inplace
        assert_same_bits([inplace], [want])
        # a larger array takes the vectorized loops, not just the scalar tail
        big = np.tile(SPECIAL, 997)
        assert_same_bits([relu(big)], [np.where(big > 0, big, 0.0)])

    def test_forward_special_values(self):
        # identity layers, so the special values reach the ReLU as pre-activations
        model = MlpModel((1, 1, 1), [np.ones((1, 1)), np.ones((1, 1))],
                         [np.array([-0.0]), np.array([0.0])])
        x = SPECIAL[:, None]
        _, hidden, cache = mlp_forward(model, x)
        _, r_hidden, r_cache = ref_forward(model, x)
        assert_same_bits(hidden, r_hidden)
        g = np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0, 5.0, -5.0, 6.0, -6.0])[:, None]
        grads = mlp_backward(model, cache, g)
        assert_same_bits([grads.d_input], [ref_backward(model, r_cache, g)[2]])


class TestInPlaceSafety:
    def _setup(self):
        rng = np.random.default_rng(11)
        model = init_mlp((4, 6, 5, 3), rng)
        x = rng.standard_normal((7, 4))
        mix = [rng.standard_normal((7, 6)), rng.standard_normal((7, 5))]
        return rng, model, x, mix

    def test_forward_leaves_inputs(self):
        rng, model, x, mix = self._setup()
        x0, mix0 = x.copy(), [m.copy() for m in mix]
        masks = [rng.random((7, 6)) >= 0.4, rng.random((7, 5)) >= 0.4]
        masks0 = [m.copy() for m in masks]
        for kwargs in (dict(), dict(mix=mix, mix_eps=0.3),
                       dict(dropout=0.4, masks=masks),
                       dict(dropout=0.4, masks=masks, mix=mix, mix_eps=0.3)):
            mlp_forward(model, x, **kwargs)
            assert_same_bits([x], [x0])
            assert_same_bits(mix, mix0)
            assert all(np.array_equal(m, m0) for m, m0 in zip(masks, masks0))

    def test_backward_leaves_gradient_and_cache(self):
        rng, model, x, mix = self._setup()
        masks = [rng.random((7, 6)) >= 0.4, rng.random((7, 5)) >= 0.4]
        out, _, cache = mlp_forward(model, x, 0.4, masks, mix, 0.3)
        snapshot = ([a.copy() for a in cache.inputs], [h.copy() for h in cache.hidden],
                    [m.copy() for m in cache.masks])
        d_out = rng.standard_normal(out.shape)
        d_out0 = d_out.copy()
        mlp_backward(model, cache, d_out)
        assert_same_bits([d_out], [d_out0])
        assert_same_bits(cache.inputs, snapshot[0])
        assert_same_bits(cache.hidden, snapshot[1])
        assert all(np.array_equal(m, m0) for m, m0 in zip(cache.masks, snapshot[2]))

    def test_hidden_not_changed_by_later_calls(self):
        rng, model, x, mix = self._setup()
        masks = [rng.random((7, 6)) >= 0.4, rng.random((7, 5)) >= 0.4]
        out, hidden, cache = mlp_forward(model, x, 0.4, masks, mix, 0.3)
        hidden0 = [h.copy() for h in hidden]
        mlp_backward(model, cache, np.ones_like(out))
        masks2 = [rng.random((7, 6)) >= 0.4, rng.random((7, 5)) >= 0.4]
        out2, _, cache2 = mlp_forward(model, x, 0.4, masks2, hidden, 0.5)
        mlp_backward(model, cache2, np.ones_like(out2))
        assert_same_bits(hidden, hidden0)

    def test_adamw_rejects_non_contiguous(self):
        p = np.arange(12.0).reshape(3, 4).T
        state = AdamWState.for_params([np.ones((4, 3))])
        with pytest.raises(ValueError, match="C-contiguous"):
            adamw_step([p], [np.ones((4, 3))], state, lr=0.1)
        assert state.step == 0
        assert np.array_equal(p, np.arange(12.0).reshape(3, 4).T)

    def test_adamw_rejects_gradient_shape(self):
        p = np.ones((2, 3))
        state = AdamWState.for_params([p])
        with pytest.raises(ValueError, match="gradient shape"):
            adamw_step([p], [np.ones(3)], state, lr=0.1)
        assert state.step == 0
