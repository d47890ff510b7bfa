"""K-means initialization and the soft/target cluster distributions.

Soft assignments use a Student-t kernel between embeddings and centroids;
the target distribution sharpens them (squared, frequency-normalized) to
act as the self-supervision signal. All operations are pure functions.
"""

from __future__ import annotations

import numpy as np


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (np.sum(points * points, axis=1)[:, None]
          + np.sum(centroids * centroids, axis=1)[None, :]
          - 2.0 * points @ centroids.T)
    return np.maximum(d2, 0.0)


def kmeans_objective(points, centroids, assignment) -> float:
    """Within-cluster sum of squared distances."""
    return float(np.sum((points - centroids[assignment]) ** 2))


def kmeans(points: np.ndarray, k: int, seed: int, max_iters: int = 100):
    """Lloyd iterations from distance-weighted (k-means++) seeding.

    Deterministic for a given seed. Empty clusters are re-seeded to the
    point farthest from its assigned centroid, which keeps the objective
    non-increasing. Returns (centroids, assignment).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds number of points {n}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = _sq_dists(points, centroids[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, _sq_dists(points, centroids[j:j + 1])[:, 0])

    assignment = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        dist2 = _sq_dists(points, centroids)
        new_assign = np.argmin(dist2, axis=1)
        counts = np.bincount(new_assign, minlength=k)
        if np.any(counts == 0):
            own = dist2[np.arange(n), new_assign]
            taken = np.zeros(n, dtype=bool)
            for empty in np.nonzero(counts == 0)[0]:
                cand = np.where(taken, -np.inf, own)
                far = int(np.argmax(cand))
                centroids[empty] = points[far]
                new_assign[far] = empty
                taken[far] = True
        if np.array_equal(new_assign, assignment):
            break
        assignment = new_assign
        for j in range(k):
            members = points[assignment == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    return centroids, assignment


def soft_assign(z: np.ndarray, centroids: np.ndarray, v: float = 1.0) -> np.ndarray:
    """Student-t kernel similarities, normalized per row.

    p_ij = (1 + ||z_i - mu_j||^2 / v)^(-(v+1)/2), rows scaled to sum to 1.
    """
    if v <= 0:
        raise ValueError("v must be positive")
    if z.shape[1] != centroids.shape[1]:
        raise ValueError(f"dim mismatch {z.shape[1]} vs {centroids.shape[1]}")
    u = (1.0 + _sq_dists(z, centroids) / v) ** (-(v + 1.0) / 2.0)
    mass = u.sum(axis=1, keepdims=True)
    if not np.all(mass > 0.0):
        raise ValueError("kernel mass underflowed: embeddings too far from every centroid")
    return u / mass


def check_row_stochastic(p: np.ndarray, name: str = "p") -> None:
    """Raise ValueError unless ``p`` is nonnegative with rows summing to 1 within 1e-6."""
    if np.any(p < 0.0):
        raise ValueError(f"{name} has negative entries")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError(f"rows of {name} do not sum to 1")


def target_distribution(p: np.ndarray) -> np.ndarray:
    """Sharpened target: t_ij ∝ p_ij^2 / f_j with f_j the soft cluster mass.

    A dead cluster (f_j = 0) necessarily has an all-zero column, so it
    stays zero in the target and the remaining columns renormalize.
    """
    check_row_stochastic(p)
    f = p.sum(axis=0)
    num = (p * p) / np.where(f > 0.0, f, 1.0)
    return num / num.sum(axis=1, keepdims=True)


def hard_assign(p: np.ndarray) -> np.ndarray:
    """Per-row argmax; ties break to the lowest index."""
    check_row_stochastic(p)
    return np.argmax(p, axis=1).astype(np.int64)


def soft_assign_kl_grad(t: np.ndarray, q: np.ndarray, z: np.ndarray,
                        centroids: np.ndarray, v: float = 1.0) -> np.ndarray:
    """Gradient of KL(t || q) w.r.t. the embeddings z, with q = soft_assign(z).

    d/dz_i = ((v+1)/v) * sum_j (1 + ||z_i - mu_j||^2 / v)^(-1)
             * (t_ij - q_ij) * (z_i - mu_j)
    Centroids are treated as constants.
    """
    coef = (t - q) / (1.0 + _sq_dists(z, centroids) / v)
    return ((v + 1.0) / v) * (coef.sum(axis=1)[:, None] * z - coef @ centroids)
