"""Personalized-PageRank feature filtering.

The filtered attribute matrix is P = sum_{l=0..L} w_l * T^l * X with
teleport weights w_l = alpha * (1 - alpha)^l and one-hop propagation
T = D^(rrz-1) * A * D^(-rrz) on the self-loop-augmented graph. Every such
polynomial goes through one Horner pass, ``_horner``: acc = T * acc + w_l * X
for l = L .. 0, ``FILTER_BLOCK`` feature columns at a time, so beyond X and
the output its working set is O(n * FILTER_BLOCK) plus the sparse operator.
Two routes use it: the exact truncated filter (``filter_exact``, L sparse
products from acc = w_L * X, O(L*E*F), deterministic) and an unbiased
estimator of the untruncated (L -> infinity) filter (``filter_randomwalk``)
for any rrz in [0, 1]. The estimator is bidirectional, as in GBP and FORA,
walks first: each node draws ceil(budget * r) whole walks, budget =
ceil(1 / r_max) and r = (1 - alpha)^(L + 1) being the mass past hop L, and
the Horner pass over L + 1 hops adds the first L terms and smooths the
walks' tail, so the error is at most O(sqrt(r / budget)). The walks run for
all nodes at once in chunks of at most ``WALK_CHUNK`` walks, each with its
own RNG stream seeded by (seed, chunk index), so memory stays
O(WALK_CHUNK + n * F) and the output is bit-identical across runs for a
given seed. Each step gathers in place into the walk positions, and each
chunk's endpoints are counted by one sort of int64 (walk source, endpoint)
keys, which stay below 2^46 (2^15 rows times n < 2^31 columns).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import CacheMismatchError
from .graph import CsrGraph, as_features, graph_hash

# Walks advanced together by ``filter_randomwalk``; bounds its temporaries.
WALK_CHUNK = 2 ** 15

# Feature columns propagated together by ``_horner``; bounds its temporaries.
FILTER_BLOCK = 16


@dataclass(frozen=True)
class FilterConfig:
    """Hyperparameters of the propagation filter.

    alpha    teleport probability in (0, 1); smaller alpha widens the
             receptive field of the filter.
    hops     depth L of the exact propagation. The exact path truncates
             there and discards the tail mass r = (1 - alpha)^(L + 1); the
             random-walk path computes them exactly and smooths the walks'
             tail through them, so a larger L leaves less to the walks.
    rrz      degree-normalization exponent in [0, 1] splitting D^(rrz-1) A D^(-rrz).
    r_max    estimator accuracy knob: the walk budget per node is
             ceil(1 / r_max). The random-walk path draws the budget's share r
             as whole walks (``effective_n_walks``), at most about sqrt(r)
             times the error of the full budget unsmoothed.
    filter_method  "exact" (``filter_exact``) or "randomwalk" (``filter_randomwalk``).
    """

    alpha: float = 0.1
    hops: int = 16
    rrz: float = 0.4
    r_max: float = 1e-5
    filter_method: str = "exact"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.hops < 0:
            raise ValueError("hops must be >= 0")
        if not 0.0 <= self.rrz <= 1.0:
            raise ValueError("rrz must be in [0, 1]")
        if self.r_max <= 0.0:
            raise ValueError("r_max must be positive")
        if self.filter_method not in ("exact", "randomwalk"):
            raise ValueError("filter_method must be 'exact' or 'randomwalk'")

    @property
    def effective_n_walks(self) -> int:
        """Walks per node that ``filter_randomwalk`` draws, as FORA sizes them:
        max(1, ceil(ceil(1 / r_max) * r)), r = (1 - alpha)^(hops + 1)."""
        residual = (1.0 - self.alpha) ** (self.hops + 1)
        return max(1, math.ceil(math.ceil(1.0 / self.r_max) * residual))


def ppr_weights(alpha: float, hops: int) -> np.ndarray:
    """Teleport weights [w_0 .. w_L], w_l = alpha * (1 - alpha)^l.

    Strictly decreasing; the partial sum is 1 - (1 - alpha)^(L + 1).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return alpha * (1.0 - alpha) ** np.arange(hops + 1, dtype=np.float64)


def _propagation_matrix(g: CsrGraph, rrz: float) -> sp.csr_matrix:
    """Sparse one-hop operator M with M[u, v] = deg_u^(rrz-1) * deg_v^(-rrz).

    rrz = 0.5 gives the symmetric normalized operator D^-1/2 A D^-1/2;
    rrz = 0 gives the row-stochastic random-walk step D^-1 A.

    The row factors are repeated along each row, then multiplied in place
    by the column factors gathered into one scratch array; no per-edge row
    index is built.
    """
    if not g.self_loops_added:
        raise ValueError("propagation requires the self-loop-augmented graph")
    deg = g.degrees.astype(np.float64)
    data = np.repeat(deg ** (rrz - 1.0), g.degrees)
    data *= (deg ** -rrz)[g.col_indices]
    return sp.csr_matrix((data, g.col_indices, g.row_offsets),
                         shape=(g.n_nodes, g.n_nodes))


def _horner(op: sp.csr_matrix, x: np.ndarray, w: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Set acc <- T^len(w) * acc + sum_l w_l * T^l * x in place and return it.

    Horner's rule, acc = T * acc + w_l * x for l = len(w) - 1 .. 0, over
    ``FILTER_BLOCK`` columns at a time, each in contiguous buffers: the
    sparse product sums each column on its own in the same order, so the
    bits do not depend on the block width.
    """
    for lo in range(0, x.shape[1], FILTER_BLOCK):
        block = np.ascontiguousarray(x[:, lo:lo + FILTER_BLOCK])
        part = np.ascontiguousarray(acc[:, lo:lo + FILTER_BLOCK])
        scaled = np.empty_like(block)
        for wl in w[::-1]:
            part = op @ part
            part += np.multiply(wl, block, out=scaled)
        acc[:, lo:lo + FILTER_BLOCK] = part
    return acc


def filter_exact(g: CsrGraph, x: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """Truncated propagation sum: P = sum_{l=0..hops} w_l * T^l * x.

    One Horner pass from acc = w_hops * x: ``hops`` sparse products, cost
    O(hops * E * F), deterministic.
    """
    x = as_features(x)
    if x.shape[0] != g.n_nodes:
        raise ValueError(f"feature rows {x.shape[0]} != n_nodes {g.n_nodes}")
    w = ppr_weights(cfg.alpha, cfg.hops)
    return _horner(_propagation_matrix(g, cfg.rrz), x, w[:-1], w[-1] * x)


def filter_randomwalk(g: CsrGraph, x: np.ndarray, cfg: FilterConfig,
                      seed: int) -> np.ndarray:
    """Estimate of the untruncated filter F(x) = sum_{m>=0} alpha (1 - alpha)^m
    T^m x, for any rrz in [0, 1]: whole walks smoothed by ``cfg.hops`` + 1
    exact hops.

    With L = ``cfg.hops`` and r = (1 - alpha)^(L + 1), F(x) is the head
    sum_{l<=L} w_l T^l x plus the tail r * T^(L+1) * F(x). ``_walk_filter``
    estimates F(x) without bias as y from ``cfg.effective_n_walks`` walks per
    node, and one Horner pass from acc = r * y adds head and tail, which
    averages each node's walk noise over its neighborhood.
    """
    x = as_features(x)
    out = _walk_filter(g, x, cfg.alpha, cfg.rrz, cfg.effective_n_walks, seed)
    out *= (1.0 - cfg.alpha) ** (cfg.hops + 1)
    return _horner(_propagation_matrix(g, cfg.rrz), x, ppr_weights(cfg.alpha, cfg.hops), out)


def _walk_filter(g: CsrGraph, x: np.ndarray, alpha: float, rrz: float, n_walks: int,
                 seed: int) -> np.ndarray:
    """Monte-Carlo estimate of the untruncated filter sum_{l>=0} alpha
    (1 - alpha)^l T^l x from ``n_walks`` walks per node.

    With W = D^-1 A the uniform-neighbor transition matrix, the operator is
    T = D^rrz W D^-rrz, so T^l x = D^rrz W^l D^-rrz x and the geometric
    teleport mixture of T-powers equals the endpoint distribution of walks
    that stop with probability alpha before each move. Per node u the
    estimate averages deg_v^-rrz x_v over the walks' endpoints v and
    rescales by deg_u^rrz.

    All nodes walk together in chunks of at most ``WALK_CHUNK`` walks: a chunk
    holds whole nodes, or one node's walks split into near-equal parts when
    the budget exceeds a chunk. A step gathers the moving walks' degrees and
    row offsets with ``take`` and writes the next positions straight into
    the walk array. Each chunk's endpoints are then folded into a sparse
    (chunk nodes x n) count matrix by sorting the keys src * n + endpoint
    (below 2^46) and counting runs, and dropped, so temporaries stay
    O(WALK_CHUNK + n * F) whatever the budget. Chunk c draws from an RNG
    stream seeded by (seed, c).
    """
    x = as_features(x)
    if x.shape[0] != g.n_nodes:
        raise ValueError(f"feature rows {x.shape[0]} != n_nodes {g.n_nodes}")
    if not g.self_loops_added:
        raise ValueError("random-walk filter requires the augmented graph")
    n = g.n_nodes
    deg = g.degrees.astype(np.float64)
    deg_pow = deg ** rrz
    x_scaled = x / deg_pow[:, None]
    # the walk positions are intp, which ``take(..., out=)`` needs of cols too
    offs, cols = (a.astype(np.intp, copy=False) for a in (g.row_offsets, g.col_indices))
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
            # moves before stopping: P(l) = alpha * (1 - alpha)^l, l >= 0
            lengths = rng.geometric(alpha, size=(hi - lo) * size) - 1
            # stable order by length (a radix sort on the narrowest dtype), so
            # the walks still moving at step s are the tail pos[starts[s]:]
            order = np.argsort(lengths.astype(np.min_scalar_type(lengths.max())),
                               kind="stable")
            starts = np.cumsum(np.bincount(lengths))[:-1]
            src = order // size
            pos = src + lo
            for first in starts:
                active = pos[first:]
                # floor(u * deg) < deg for every double u < 1: a uniform neighbor
                picks = rng.random(len(active))
                picks *= deg.take(active)
                nxt = offs.take(active)
                nxt += picks.astype(np.int64)
                cols.take(nxt, out=active)
            out[lo:hi] += _endpoint_mix(src, pos, hi - lo, n, n_walks) @ x_scaled
    return deg_pow[:, None] * out


def _endpoint_mix(src: np.ndarray, pos: np.ndarray, n_rows: int, n: int,
                  n_walks: int) -> sp.csr_matrix:
    """The (n_rows x n) matrix of endpoint counts / n_walks, in canonical CSR
    form (sorted indices, no duplicates): the arrays scipy builds from the
    (src, pos) pairs, summing duplicates, without its per-row index sort.

    Sorting the keys src * n + pos groups each row's endpoints in column
    order; a run of equal keys is one endpoint and its length the count. The
    keys stay below n_rows * n < 2^46 (n_rows <= WALK_CHUNK, n < 2^31).
    Consumes ``src``.
    """
    keys = src
    keys *= n
    keys += pos
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    run_starts = np.flatnonzero(first)
    counts = np.diff(run_starts, append=len(keys))
    ends = keys[run_starts]
    rows, indices = np.divmod(ends, n)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return sp.csr_matrix((counts / n_walks, indices, indptr), shape=(n_rows, n))


# ---------------------------------------------------------------------------
# filtered-feature cache

# raised when the values of either method change under an unchanged header
_CACHE_VERSION = 5


def _features_sha256(x: np.ndarray) -> str:
    """sha256 of a feature matrix's shape and float64 bytes, hashed in place."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    h = hashlib.sha256(repr(x.shape).encode())
    h.update(memoryview(x).cast("B"))
    return h.hexdigest()


def filtered_cache_header(g: CsrGraph, cfg: FilterConfig, features: np.ndarray, *,
                          seed: Optional[int] = None) -> dict:
    """The header that pins a filtered-feature cache to its inputs: every
    ``FilterConfig`` field, the graph and the unfiltered ``features``, which
    it hashes, so a caller that both loads and saves a cache builds it once.

    A random-walk estimate also depends on its ``seed``, which only that
    method's header records (and requires); an exact header has no seed.
    """
    header = {"version": _CACHE_VERSION, **asdict(cfg), "graph_hash": graph_hash(g),
              "features_sha256": _features_sha256(features)}
    if cfg.filter_method == "randomwalk":
        if seed is None:
            raise ValueError("a random-walk cache header needs the walk seed")
        header["seed"] = int(seed)
    return header


def save_filtered_cache(path, values: np.ndarray, header: dict) -> None:
    """Persist filtered features with the ``filtered_cache_header`` of the
    inputs they were computed from."""
    np.savez(path, values=as_features(values), header=np.array(json.dumps(header)))


def load_filtered_cache(path, header: dict) -> np.ndarray:
    """Load a cache written by ``save_filtered_cache``.

    Raises ``CacheMismatchError`` when the stored header differs from
    ``header``, the ``filtered_cache_header`` of the requested inputs: other
    filter options, graph, unfiltered features or random-walk seed (stale
    cache). A key only one header holds, such as a removed option, differs.
    """
    with np.load(path) as blob:
        stored = json.loads(str(blob["header"]))
        values = blob["values"]
    diffs = {k: (stored.get(k, "<absent>"), header.get(k, "<absent>"))
             for k in sorted(stored.keys() | header.keys())
             if k not in stored or k not in header or stored[k] != header[k]}
    if diffs:
        raise CacheMismatchError(f"stale filtered-feature cache: {diffs}")
    return as_features(values)
