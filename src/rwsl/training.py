"""Self-supervised co-training of the autoencoder and the cluster DNN.

``pretrain_autoencoder`` fits a symmetric MLP autoencoder on reconstruction
loss; ``train_rwsl`` then co-trains that pair: per iteration the encoder
activations are snapshotted, the target distribution is refreshed from the
encoder's soft assignments on a fixed cadence, and each mini-batch jointly
updates encoder, decoder and DNN on

    total = reconstruction + beta * KL(target || dnn) + gamma * KL(target || encoder)

where the DNN's hidden layers blend in the snapshot encoder activations
with weight ``epsilon``. Snapshot activations are recomputed per batch
from the frozen iteration-start parameters, so memory stays batch-bounded
while every batch in an iteration sees the same blend values. One
autoencoder can co-train one DNN per blend weight: the DNNs share a step's
masks and snapshot pass, and nothing else reads them.

Each mini-batch runs in its own step function, so nothing of one step is
alive during the next. Every model has its own AdamW state and is updated
right after its own backward pass, after which its gradients and forward
cache are dropped. Each backward reads only its own model's weights and
AdamW is elementwise, so the values are the same as one joint update after
all three backward passes. The memory a step frees stays in the process
for the next step (``_retain_freed_heap``). A step draws all its dropout
masks before its forward passes.

Within a step the autoencoder branch (encoder, decoder) and the DNN branch
(snapshot, every DNN) are independent until the losses and again after
them. When a second CPU would otherwise sit idle (``_helper_pays``), one
helper thread runs the DNN branch's forwards and its backwards and updates
while the calling thread runs the autoencoder's; the k-means-init forward,
the target refresh and the final evaluation send every other batch to it.
The calling thread draws every dropout mask in the serial order, each
matmul keeps its operands and every batch writes its own rows, so all
values are bit-identical to a serial run. A step then holds the parameters, the
frozen snapshot, the AdamW moments, at most two models' gradients (one per
thread) and one batch's activations per model.
"""

from __future__ import annotations

import ctypes
import json
import os
import re
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clustering import (hard_assign, kmeans, soft_assign, soft_assign_kl_grad,
                         target_distribution)
from .errors import DivergenceError
from .graph import as_features, as_labels
from .nn import (AdamWState, MlpModel, adamw_step, init_mlp, kl_divergence,
                 mlp_backward, mlp_forward, mse_loss, row_softmax)


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; defaults follow the citation-network setup.

    ``architecture`` lists encoder layer widths after the input layer, the
    last entry being the embedding width. The co-train DNN mirrors the
    hidden widths and ends in a K-way output. ``ae_input`` selects whether
    the autoencoder consumes filtered or raw attributes (the co-train DNN
    always consumes filtered ones). ``kmeans_sample_cap`` optionally bounds
    the number of embeddings used for centroid initialization (0 = all);
    large-graph benchmarks use it to keep init memory flat.
    """

    architecture: tuple = (512, 2048, 32)
    learning_rate: float = 1e-4
    pretrain_lr: float = 1e-4
    n_epochs: int = 100
    pretrain_n_epochs: int = 30
    batch_size: int = 256
    beta: float = 0.01
    gamma: float = 0.1
    epsilon: float = 0.2
    v: float = 1.0
    update_p: int = 1
    dropout_rate: float = 0.01
    weight_decay: float = 0.01
    seed: int = 0
    ae_input: str = "filtered"
    kmeans_sample_cap: int = 0
    kmeans_max_iters: int = 100

    def __post_init__(self):
        arch = tuple(int(d) for d in self.architecture)
        object.__setattr__(self, "architecture", arch)
        if not arch or any(d < 1 for d in arch):
            raise ValueError("architecture must be a non-empty tuple of widths >= 1")
        if self.learning_rate <= 0 or self.pretrain_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.n_epochs < 0 or self.pretrain_n_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.beta < 0 or self.gamma < 0:
            raise ValueError("loss weights must be >= 0")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.v <= 0:
            raise ValueError("v must be positive")
        if self.update_p < 1:
            raise ValueError("update_p must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.ae_input not in ("filtered", "raw"):
            raise ValueError("ae_input must be 'filtered' or 'raw'")
        if self.kmeans_sample_cap < 0:
            raise ValueError("kmeans_sample_cap must be >= 0")
        if self.kmeans_max_iters < 1:
            raise ValueError("kmeans_max_iters must be >= 1")


def _batch_slices(n: int, batch_size: int):
    for lo in range(0, n, batch_size):
        yield lo, min(lo + batch_size, n)


# Forward multiply-adds of one co-train step below which the helper thread
# costs more than it saves. On a 2-vCPU VM with one BLAS thread (2000 rows,
# batch 256, 2 epochs), steps of 5M-30M multiply-adds ran 3-6% slower with
# it, 47M 7% faster and 439M 29% faster.
HELPER_MIN_STEP_MACS = 1 << 25

# the variables each BLAS takes its thread count from, in the order it reads them
_BLAS_THREAD_VARS = {
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
}


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads per call that numpy's BLAS takes from the environment.

    Reads OpenBLAS's or MKL's variables in that library's order, each as C's
    ``atoi`` does; the first positive value wins. 0 when none is set (the
    BLAS then uses every CPU) or when numpy's BLAS is another library.
    """
    config = getattr(np.__config__, "CONFIG", {})
    name = config.get("Build Dependencies", {}).get("blas", {}).get("name") or ""
    for vendor, names in _BLAS_THREAD_VARS.items():
        if vendor in name.lower():
            for var in names:
                value = re.match(r"\s*\+?(\d+)", os.environ.get(var, ""))
                if value and int(value.group(1)) > 0:
                    return int(value.group(1))
    return 0


def _helper_pays(step_macs: int) -> bool:
    """Whether a helper thread shortens a co-train: a second CPU is free,
    each BLAS call runs on one thread, and a step's dense work is large
    enough to outweigh the hand-offs."""
    return (_usable_cpus() >= 2 and _blas_threads() == 1
            and step_macs >= HELPER_MIN_STEP_MACS)


class _Inline:
    """Executor stand-in that runs each call as it is submitted."""

    @staticmethod
    def submit(fn, *args) -> Future:
        future = Future()
        future.set_result(fn(*args))
        return future


def _macs_per_row(dims) -> int:
    return sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def _each_batch(helper, n: int, batch_size: int, fn) -> None:
    """Call ``fn(lo, hi)`` for every batch, every other one on the helper.

    Two batches run at a time; each must write only its own rows."""
    pending = None
    for i, (lo, hi) in enumerate(_batch_slices(n, batch_size)):
        if i % 2 == 0:
            pending = helper.submit(fn, lo, hi)
        else:
            fn(lo, hi)
            pending.result()
            pending = None
    if pending is not None:
        pending.result()


def _forward_batched(model: MlpModel, x: np.ndarray, batch_size: int,
                     helper) -> np.ndarray:
    out = np.empty((x.shape[0], model.layer_dims[-1]))

    def run(lo, hi):
        out[lo:hi] = mlp_forward(model, x[lo:hi])[0]

    _each_batch(helper, x.shape[0], batch_size, run)
    return out


# glibc mallopt parameters, and the values _retain_freed_heap sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_ARRAY_MAX = 32 << 20      # glibc's own ceiling for its adaptive mmap threshold
_HEAP_TOP_KEEP = 128 << 20


def _retain_freed_heap() -> None:
    """Keep the memory a training step frees for the next step.

    A step frees its whole working set when it returns. By default glibc
    then trims the free heap top back to the OS and the next step faults
    the same pages in again: on a 1000-row, 300-512-2048-32 run that is
    2.7x the page faults and 8% more time than keeping each step's arrays
    alive into the next. Arrays below 32 MiB come from the heap, and up to
    128 MiB of free heap top is kept; the peak is unchanged. Process-wide
    and idempotent; a no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_ARRAY_MAX)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_TOP_KEEP)


def pretrain_autoencoder(x_in: np.ndarray, cfg: TrainConfig):
    """Train a symmetric autoencoder by mini-batch reconstruction.

    The encoder's widths are ``x_in``'s width, then ``cfg.architecture``;
    the decoder mirrors them. With ``pretrain_n_epochs == 0`` the freshly
    initialized, untrained pair is returned. Each step draws its encoder's,
    then its decoder's dropout masks from the RNG that shuffles the batches.
    Deterministic for a given config seed; raises ``DivergenceError`` on
    non-finite loss.
    """
    x_in = as_features(x_in)
    dims = (x_in.shape[1], *cfg.architecture)
    rng = np.random.default_rng([cfg.seed, 1])
    encoder = init_mlp(dims, rng)
    decoder = init_mlp(dims[::-1], rng)
    if cfg.pretrain_n_epochs == 0:
        return encoder, decoder
    opts = [AdamWState.for_params(m.parameters()) for m in (encoder, decoder)]
    _retain_freed_heap()
    n = x_in.shape[0]
    for _ in range(cfg.pretrain_n_epochs):
        order = rng.permutation(n)
        for lo, hi in _batch_slices(n, cfg.batch_size):
            _pretrain_step(encoder, decoder, opts, x_in[order[lo:hi]], cfg, rng)
    return encoder, decoder


def _backward_update(model: MlpModel, cache, output_gradient: np.ndarray,
                     opt: AdamWState, lr: float, weight_decay: float) -> np.ndarray:
    """Backward pass, then the model's AdamW step; only the input gradient
    outlives the call."""
    grads = mlp_backward(model, cache, output_gradient)
    adamw_step(model.parameters(), grads.d_weights + grads.d_biases, opt, lr, weight_decay)
    return grads.d_input


def _dropout_masks(model: MlpModel, rows: int, p: float,
                   rng: np.random.Generator) -> Optional[list]:
    """Keep-masks of a ``rows``-row batch for each hidden layer, in layer order; None at p = 0."""
    if p == 0.0:
        return None
    return [rng.random((rows, width)) >= p for width in model.layer_dims[1:-1]]


def _pretrain_step(encoder: MlpModel, decoder: MlpModel, opts: list,
                   xb: np.ndarray, cfg: TrainConfig, rng: np.random.Generator) -> None:
    p = cfg.dropout_rate
    enc_masks, dec_masks = (_dropout_masks(m, len(xb), p, rng) for m in (encoder, decoder))
    z, _, ecache = mlp_forward(encoder, xb, p, enc_masks)
    xr, _, dcache = mlp_forward(decoder, z, p, dec_masks)
    loss, d_xr = mse_loss(xb, xr)
    if not np.isfinite(loss):
        raise DivergenceError("autoencoder pretraining diverged; lower pretrain_lr")
    lr, wd = cfg.pretrain_lr, cfg.weight_decay
    d_z = _backward_update(decoder, dcache, d_xr, opts[1], lr, wd)
    del xr, dcache, d_xr
    _backward_update(encoder, ecache, d_z, opts[0], lr, wd)


def _cotrain_step(models: tuple, opts: list, snapshot: MlpModel,
                  centroids: np.ndarray, xa_b: np.ndarray, xf_b: np.ndarray,
                  t_b: np.ndarray, epsilons: tuple, cfg: TrainConfig,
                  rng: np.random.Generator, helper) -> list:
    """One co-train mini-batch of the autoencoder and one DNN per blend
    weight (``models``: encoder, decoder, then the DNNs in ``epsilons``
    order); returns (mse, kl_dnn, kl_enc, total) per DNN.

    The DNN branch runs on ``helper``, the autoencoder on the calling
    thread, which alone draws from ``rng`` (encoder, decoder, then DNN
    masks, the order of a serial step; every DNN reads the same masks)."""
    encoder, decoder, *dnns = models
    beta, gamma, v, p = cfg.beta, cfg.gamma, cfg.v, cfg.dropout_rate
    enc_masks, dec_masks, dnn_masks = (_dropout_masks(m, len(xa_b), p, rng) for m in models[:3])

    def dnn_forward():
        # frozen iteration-start activations for blending
        _, mix_hidden, _ = mlp_forward(snapshot, xa_b)
        passes = [mlp_forward(dnn, xf_b, p, dnn_masks, mix_hidden, eps)
                  for dnn, eps in zip(dnns, epsilons)]
        return [logits for logits, _, _ in passes], [cache for _, _, cache in passes]

    dnn_pass = helper.submit(dnn_forward)
    z, _, ecache = mlp_forward(encoder, xa_b, p, enc_masks)
    xr, _, dcache = mlp_forward(decoder, z, p, dec_masks)
    l_mse, d_xr = mse_loss(xa_b, xr)
    all_logits, hcaches = dnn_pass.result()
    del dnn_pass
    if not (np.isfinite(z).all() and all(np.isfinite(lg).all() for lg in all_logits)):
        raise DivergenceError("co-training diverged; lower learning_rate")

    q_z = soft_assign(z, centroids, v)
    l_z, _ = kl_divergence(t_b, q_z)
    d_z_kl = soft_assign_kl_grad(t_b, q_z, z, centroids, v)

    losses, d_logits = [], []
    for logits in all_logits:
        l_h, d_h = kl_divergence(t_b, row_softmax(logits))
        l_tot = l_mse + beta * l_h + gamma * l_z
        if not np.isfinite(l_tot):
            raise DivergenceError("co-training diverged; lower learning_rate")
        losses.append((l_mse, l_h, l_z, l_tot))
        d_logits.append(beta * d_h)

    lr, wd = cfg.learning_rate, cfg.weight_decay

    def dnn_updates():
        # each forward cache is freed once its DNN's update is done
        for dnn, opt, d in zip(dnns, opts[2:], d_logits):
            _backward_update(dnn, hcaches.pop(0), d, opt, lr, wd)

    dnn_update = helper.submit(dnn_updates)
    d_z = _backward_update(decoder, dcache, d_xr, opts[1], lr, wd)
    del xr, dcache, d_xr
    _backward_update(encoder, ecache, d_z + gamma * d_z_kl, opts[0], lr, wd)
    dnn_update.result()
    return losses


@dataclass
class TrainResult:
    """Outputs of the co-train loop."""

    assignments: np.ndarray         # N, hard assignment = row argmax of p_h
    centroids: np.ndarray           # K x embedding width
    p_z: np.ndarray                 # N x K, encoder-side soft assignment
    p_h: np.ndarray                 # N x K, co-train-DNN soft assignment
    loss_history: np.ndarray        # columns: iteration, mse, kl_dnn, kl_enc, total
    encoder: MlpModel
    decoder: MlpModel
    dnn: MlpModel


def train_rwsl(x_filtered: np.ndarray, ae_x: np.ndarray, n_clusters: int,
               cfg: TrainConfig, encoder: MlpModel, decoder: MlpModel, *,
               epsilons=None) -> list:
    """Co-train a pretrained autoencoder with one new cluster DNN per blend
    weight in ``epsilons`` (default ``(cfg.epsilon,)``); one ``TrainResult``
    per weight, in order.

    ``ae_x`` is the autoencoder's input (``x_filtered`` itself or raw
    attributes of its shape) and ``encoder``, ``decoder`` the pair that
    ``pretrain_autoencoder`` fitted on it; both are trained in place.
    Steps: (1) initialize centroids by k-means on the embeddings; (2) per
    iteration snapshot the encoder, refresh the soft assignment and target
    every ``update_p`` iterations; (3) per shuffled mini-batch blend the
    snapshot activations into the DNN hidden layers and take one AdamW step
    per model on the combined loss; (4) finalize with a full-graph
    evaluation pass and a hard argmax assignment.

    The autoencoder, centroids and ``p_z`` are shared by every weight; each
    weight's result is bit-identical to a call with that weight alone. A
    DNN that diverges raises ``DivergenceError`` for all of them.

    Deterministic for a given (inputs, config) pair, and bit-identical
    whether or not it uses a helper thread (``_helper_pays``). The final
    embeddings are consumed batch by batch and never held as an
    N x embedding matrix.
    """
    x_filtered = as_features(x_filtered)
    if n_clusters < 2:
        raise ValueError("n_clusters must be >= 2")
    epsilons = (cfg.epsilon,) if epsilons is None else tuple(epsilons)
    if not epsilons or not all(0.0 <= eps <= 1.0 for eps in epsilons):
        raise ValueError("epsilons must be one or more values in [0, 1]")
    ae_x = x_filtered if ae_x is x_filtered else as_features(ae_x)
    if ae_x.shape != x_filtered.shape:
        raise ValueError("autoencoder and filtered features must have identical shape")
    n, d = ae_x.shape
    enc_dims = (d, *cfg.architecture)
    if encoder.layer_dims != enc_dims:
        raise ValueError(f"pretrained encoder dims {encoder.layer_dims} != {enc_dims}")

    rng = np.random.default_rng([cfg.seed, 2])
    dnn = init_mlp((d, *cfg.architecture[:-1], n_clusters), rng)
    # each weight's DNN starts where a run of its own would
    dnns = [dnn, *(dnn.copy() for _ in epsilons[1:])]

    step_macs = (min(cfg.batch_size, n) * (3 * _macs_per_row(enc_dims)
                                           + len(dnns) * _macs_per_row(dnn.layer_dims)))
    v = cfg.v
    history = np.zeros((len(dnns), cfg.n_epochs, 5))

    # the helper thread, joined on every exit; below the gate each call runs inline
    with (ThreadPoolExecutor(1, thread_name_prefix="rwsl-cotrain")
          if _helper_pays(step_macs) else nullcontext(_Inline())) as helper:
        # centroid init from (optionally subsampled) embeddings; unsampled,
        # they are also the first target refresh's encoder outputs (same
        # batches, and no step is taken in between)
        z_first = None
        if cfg.kmeans_sample_cap and n > cfg.kmeans_sample_cap:
            sample = np.sort(rng.choice(n, size=cfg.kmeans_sample_cap, replace=False))
            emb = _forward_batched(encoder, ae_x[sample], cfg.batch_size, helper)
        else:
            emb = z_first = _forward_batched(encoder, ae_x, cfg.batch_size, helper)
        centroids, _ = kmeans(emb, n_clusters, seed=cfg.seed,
                              max_iters=cfg.kmeans_max_iters)
        del emb

        p_z = np.empty((n, n_clusters))     # each refresh's, then the final pass's
        models = (encoder, decoder, *dnns)
        opts = [AdamWState.for_params(m.parameters()) for m in models]
        _retain_freed_heap()

        def refresh_batch(lo, hi):
            z = mlp_forward(snapshot, ae_x[lo:hi])[0] if z_first is None else z_first[lo:hi]
            p_z[lo:hi] = soft_assign(z, centroids, v)

        for it in range(cfg.n_epochs):
            snapshot = encoder.copy()
            if it % cfg.update_p == 0:
                _each_batch(helper, n, cfg.batch_size, refresh_batch)
                z_first = None
                target = target_distribution(p_z)
            order = rng.permutation(n)
            batch_losses = []
            for lo, hi in _batch_slices(n, cfg.batch_size):
                idx = order[lo:hi]
                batch_losses.append(_cotrain_step(models, opts, snapshot, centroids,
                                                  ae_x[idx], x_filtered[idx], target[idx],
                                                  epsilons, cfg, rng, helper))

            history[:, it, 0] = it
            history[:, it, 1:] = np.mean(batch_losses, axis=0)    # one row per DNN

        def final_batch(lo, hi):
            # no dropout; the encoder's hidden activations are the DNNs' mix
            z, mix_hidden, _ = mlp_forward(encoder, ae_x[lo:hi])
            p_z[lo:hi] = soft_assign(z, centroids, v)
            for net, eps, out in zip(dnns, epsilons, p_h):
                logits, _, _ = mlp_forward(net, x_filtered[lo:hi], mix=mix_hidden, mix_eps=eps)
                out[lo:hi] = row_softmax(logits)

        p_h = [np.empty((n, n_clusters)) for _ in dnns]
        _each_batch(helper, n, cfg.batch_size, final_batch)
    return [TrainResult(assignments=as_labels(hard_assign(probs), n_clusters),
                        centroids=centroids, p_z=p_z, p_h=probs, loss_history=losses,
                        encoder=encoder, decoder=decoder, dnn=net)
            for net, probs, losses in zip(dnns, p_h, history)]


# ---------------------------------------------------------------------------
# checkpointing

_CHECKPOINT_VERSION = 1


def save_checkpoint(path, models: dict, meta: Optional[dict] = None,
                    arrays: Optional[dict] = None) -> None:
    """Versioned binary dump of model parameters, metadata and named arrays."""
    blob = {}
    spec = {"version": _CHECKPOINT_VERSION, "models": {}, "meta": meta or {}}
    for name, model in models.items():
        spec["models"][name] = list(model.layer_dims)
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            blob[f"{name}_w{i}"] = w
            blob[f"{name}_b{i}"] = b
    for name, arr in (arrays or {}).items():
        blob[f"arr_{name}"] = arr
    blob["spec"] = np.array(json.dumps(spec))
    np.savez(path, **blob)


def load_checkpoint(path):
    """Inverse of ``save_checkpoint``; returns (models, arrays, meta).

    Older checkpoints also hold optimizer moments (``opt_*``) and an RNG
    state; nothing resumes from them, so they are ignored.
    """
    with np.load(path, allow_pickle=False) as data:
        spec = json.loads(str(data["spec"]))
        if spec["version"] != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {spec['version']}")
        models = {}
        for name, dims in spec["models"].items():
            n_layers = len(dims) - 1
            models[name] = MlpModel(
                tuple(dims),
                [data[f"{name}_w{i}"] for i in range(n_layers)],
                [data[f"{name}_b{i}"] for i in range(n_layers)],
            )
        arrays = {k[4:]: data[k] for k in data.files if k.startswith("arr_")}
    return models, arrays, spec["meta"]
