"""Dense feed-forward network machinery: ReLU MLPs with manual backprop,
inverted dropout, decoupled-weight-decay Adam, and the two training losses.

All math is plain float64 numpy. Forward passes take their dropout masks
from the caller and record everything backward needs in a ``ForwardCache``;
gradients are exact (finite-difference tested).

Passes and optimizer steps work in place: a forward adds the bias, applies
the ReLU, the mix and the dropout scaling on the fresh matmul result, a
backward applies its factors to the fresh ``g @ W.T``, and ``adamw_step``
updates each parameter in fixed blocks with two reused scratch buffers.
Each keeps the operation order of the plain out-of-place formulas, so every
value is bit-identical to theirs (the tests keep those formulas as oracles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clustering import check_row_stochastic

# probability floor inside KL logs; avoids log(0) with negligible bias
KL_FLOOR = 1e-12

# elements per block of an AdamW update: one block of a parameter, its
# gradient, both moments and the two scratch buffers (6 x 128 KiB) stay in
# cache across the update's passes
ADAMW_BLOCK = 1 << 14


@dataclass
class MlpModel:
    """Stack of linear layers with ReLU on hidden layers, linear output."""

    layer_dims: tuple
    weights: list
    biases: list

    def parameters(self) -> list:
        return list(self.weights) + list(self.biases)

    def copy(self) -> "MlpModel":
        return MlpModel(self.layer_dims,
                        [w.copy() for w in self.weights],
                        [b.copy() for b in self.biases])


def init_mlp(layer_dims, rng: np.random.Generator) -> MlpModel:
    """Fan-scaled uniform weight init, zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-limit, limit, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return MlpModel(dims, weights, biases)


def relu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """max(x, 0) with NaN mapped to 0.0: the same bits as
    ``np.where(x > 0, x, 0.0)`` (-0.0 gives +0.0), without the mask."""
    return np.fmax(x, 0.0, out=out)


def row_softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class ForwardCache:
    inputs: list            # matmul input per layer (post-dropout)
    hidden: list            # post-ReLU activations per hidden layer (> 0 where s > 0)
    masks: list             # dropout masks per hidden layer (None without dropout)
    dropout: float
    mix_eps: Optional[float]    # None when no hidden layer was mixed


def mlp_forward(model: MlpModel, x: np.ndarray, dropout: float = 0.0,
                masks: Optional[list] = None, mix: Optional[list] = None, mix_eps: float = 0.0):
    """Run the stack; returns (output, hidden activations, cache).

    Hidden activations are the post-ReLU values before mixing/dropout.
    ``mix`` optionally blends constant per-layer arrays into hidden layers:
    h~ = (1 - mix_eps) * h + mix_eps * mix[l]. Dropout applies exactly when
    ``masks`` is given: one boolean keep-mask per hidden layer, drawn by the
    caller (the trainer draws them; gradient checks replay recorded ones),
    with inverted scaling by 1 / (1 - ``dropout``). ``x``, ``masks`` and
    ``mix`` are only read.
    """
    if x.shape[1] != model.layer_dims[0]:
        raise ValueError(f"input dim {x.shape[1]} != layer dim {model.layer_dims[0]}")
    n_layers = len(model.weights)
    if mix is not None and len(mix) != n_layers - 1:
        raise ValueError(f"expected {n_layers - 1} mix arrays, got {len(mix)}")
    a = x
    hidden, inputs = [], []
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(a)
        s = a @ w
        s += b
        if i == n_layers - 1:
            out = s
            break
        h = relu(s, out=s)
        hidden.append(h)
        a = h
        if mix is not None:
            a = np.multiply(h, 1.0 - mix_eps)
            a += np.multiply(mix[i], mix_eps)
        if masks is not None:
            # h * (m / (1 - p)) with a 0/1 mask, without the scaled-mask array
            a = np.multiply(a, masks[i], out=None if a is h else a)
            a *= 1.0 / (1.0 - dropout)
    return out, hidden, ForwardCache(inputs, hidden, masks or [None] * (n_layers - 1), dropout,
                                     None if mix is None else mix_eps)


@dataclass
class Grads:
    d_weights: list
    d_biases: list
    d_input: np.ndarray


def mlp_backward(model: MlpModel, cache: ForwardCache,
                 output_gradient: np.ndarray) -> Grads:
    """Exact gradients of the cached forward pass.

    ``output_gradient`` is the loss gradient w.r.t. the (linear) output.
    Mixed-in arrays are treated as constants, so their branch contributes
    the (1 - mix_eps) factor only. Neither ``output_gradient`` nor the
    cache is written.
    """
    n_layers = len(model.weights)
    if len(cache.inputs) != n_layers:
        raise ValueError("cache does not match model (stale forward state?)")
    d_weights = [None] * n_layers
    d_biases = [None] * n_layers
    g = output_gradient
    for i in range(n_layers - 1, -1, -1):
        d_weights[i] = cache.inputs[i].T @ g
        d_biases[i] = g.sum(axis=0)
        g = g @ model.weights[i].T
        if i > 0:
            # factors in the forward's order, on the fresh product only
            if cache.masks[i - 1] is not None:
                g *= cache.masks[i - 1]
                g *= 1.0 / (1.0 - cache.dropout)
            if cache.mix_eps is not None:
                g *= 1.0 - cache.mix_eps
            g *= cache.hidden[i - 1] > 0.0
    return Grads(d_weights, d_biases, g)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamWState:
    m: list
    v: list
    step: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamWState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adamw_step(params, grads, state: AdamWState, lr: float,
               weight_decay: float = 0.0, beta1: float = 0.9,
               beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One Adam step with decoupled weight decay, updating params in place.

    Decay multiplies each parameter by (1 - lr * weight_decay) separately
    from the moment-normalized gradient step, so zero gradients leave a
    pure geometric decay trajectory. Parameters and moments must be
    C-contiguous (they are updated through flat views); gradients must
    have their parameter's shape.
    """
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if not (p.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise ValueError("adamw_step needs C-contiguous parameters and moments")
        if np.shape(g) != p.shape:
            raise ValueError(f"gradient shape {np.shape(g)} != parameter shape {p.shape}")
    state.step += 1
    t = state.step
    bias1 = 1.0 - beta1 ** t
    bias2 = 1.0 - beta2 ** t
    scratch_a = np.empty(ADAMW_BLOCK)
    scratch_b = np.empty(ADAMW_BLOCK)
    for p, g, m, v in zip(params, grads, state.m, state.v):
        p, g, m, v = p.reshape(-1), np.ravel(g), m.reshape(-1), v.reshape(-1)
        for lo in range(0, p.size, ADAMW_BLOCK):
            hi = min(lo + ADAMW_BLOCK, p.size)
            pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            a, b = scratch_a[:hi - lo], scratch_b[:hi - lo]
            if weight_decay:
                pb *= 1.0 - lr * weight_decay
            mb *= beta1
            mb += np.multiply(gb, 1.0 - beta1, out=a)
            vb *= beta2
            np.multiply(gb, gb, out=a)
            a *= 1.0 - beta2
            vb += a
            # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(mb, bias1, out=a)
            a *= lr
            np.sqrt(np.divide(vb, bias2, out=b), out=b)
            b += eps
            a /= b
            pb -= a


# ---------------------------------------------------------------------------
# losses


def mse_loss(x_in: np.ndarray, x_rec: np.ndarray):
    """Reconstruction loss ||x_in - x_rec||_F^2 / (2N) and its gradient
    (x_rec - x_in) / N w.r.t. the reconstruction. N = number of rows."""
    if x_in.shape != x_rec.shape:
        raise ValueError(f"shape mismatch {x_in.shape} vs {x_rec.shape}")
    n = x_in.shape[0]
    diff = x_rec - x_in
    loss = float(np.sum(diff * diff)) / (2.0 * n)
    return loss, diff / n


def kl_divergence(t: np.ndarray, p: np.ndarray):
    """KL(t || p) summed over rows, plus the gradient w.r.t. p's pre-softmax
    logits (p - t), valid when p is a row-softmax output.

    Both arguments must be row-stochastic within 1e-6; p is floored at
    KL_FLOOR inside the log.
    """
    if t.shape != p.shape:
        raise ValueError(f"shape mismatch {t.shape} vs {p.shape}")
    check_row_stochastic(t, "t")
    check_row_stochastic(p, "p")
    safe_p = np.maximum(p, KL_FLOOR)
    terms = np.where(t > 0.0, t * (np.log(np.maximum(t, KL_FLOOR)) - np.log(safe_p)), 0.0)
    # the true value is nonnegative; drop the summation's epsilon noise
    return max(float(terms.sum()), 0.0), p - t
