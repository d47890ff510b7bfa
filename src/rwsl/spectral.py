"""Spectral analysis of the teleport-weighted propagation filter.

The symmetric operator T = D^(-1/2) A D^(-1/2) on a self-loop-augmented
graph has eigenvalues in (-1, 1]. The infinite-hop teleport filter maps a
T-eigenvalue t to alpha / (1 - (1 - alpha) * t), and the corresponding
Laplacian eigenvalue is one minus that. ``spectral_report`` cross-checks
this closed form, on the spectrum of a dense T built here, against the
production truncated filter ``filter_exact`` applied to the identity; the
truncation tail is exactly (1 - alpha)^(hops + 1), which bounds the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClaimCheckError, DenseEigenLimitError
from .filters import FilterConfig, filter_exact
from .graph import CsrGraph

# node count above which the dense eigensolver path refuses a graph
DENSE_EIGEN_LIMIT = 3000


@dataclass(frozen=True)
class SpectralReport:
    """Sorted spectra of the one-hop and truncated filters plus the
    closed-form/direct discrepancy."""

    eigenvalues_gcn: np.ndarray          # spectrum of T, ascending
    eigenvalues_ppr_closed: np.ndarray   # closed-form infinite-hop filter
    eigenvalues_ppr_direct: np.ndarray   # eigendecomposition of truncated S
    max_abs_gap: float


def ppr_eigen_response(lambda_sym, alpha: float):
    """Map a symmetric-Laplacian eigenvalue to the infinite-hop filter response.

    Returns (filter eigenvalue, filter-Laplacian eigenvalue):
        f = alpha / (1 - (1 - alpha) * (1 - lambda_sym)),   lap = 1 - f
    The denominator is >= alpha on lambda_sym in [0, 2), so both are
    well-defined there.
    """
    lam = np.asarray(lambda_sym, dtype=np.float64)
    if np.any(lam < 0) or np.any(lam >= 2):
        raise ValueError("lambda_sym must lie in [0, 2)")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    f = alpha / (1.0 - (1.0 - alpha) * (1.0 - lam))
    out = (f, 1.0 - f)
    if np.ndim(lambda_sym) == 0:
        return float(out[0]), float(out[1])
    return out


def verify_claim1(alpha1: float, alpha2: float, l_max: int) -> int:
    """Smallest hop index l0 <= l_max after which the smaller teleport
    probability strictly dominates: w_l(alpha1) > w_l(alpha2) for all
    l in (l0, l_max].

    Raises ``ClaimCheckError`` when no such index exists within l_max.
    """
    if not 0.0 < alpha1 < alpha2 < 1.0:
        raise ValueError("need 0 < alpha1 < alpha2 < 1")
    # compare log-weights: log alpha + l * log(1 - alpha) never underflows,
    # unlike the raw geometric weights at large l
    hops = np.arange(l_max + 1, dtype=np.float64)
    log_w1 = np.log(alpha1) + hops * np.log1p(-alpha1)
    log_w2 = np.log(alpha2) + hops * np.log1p(-alpha2)
    # w_0(alpha1) = alpha1 < alpha2, so hop 0 is always among these
    crossover = int(np.nonzero(log_w1 <= log_w2)[0][-1])
    if crossover >= l_max:
        raise ClaimCheckError(
            f"no crossover within l_max={l_max} for alphas ({alpha1}, {alpha2})")
    return crossover


def verify_claim2(alphas, lambdas) -> bool:
    """Check the strict ordering of filter-Laplacian eigenvalues in alpha.

    True iff for every lambda in the grid and every adjacent pair
    alpha_i < alpha_{i+1}, the Laplacian response of the smaller alpha is
    strictly larger.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if np.any(np.diff(alphas) <= 0):
        raise ValueError("alphas must be sorted strictly ascending")
    if np.any(lambdas <= 0) or np.any(lambdas >= 2):
        raise ValueError("lambdas must lie in the open interval (0, 2)")
    lap = np.stack([ppr_eigen_response(lambdas, a)[1] for a in alphas])
    return bool(np.all(np.diff(lap, axis=0) < 0))


def dense_propagation_matrix(g: CsrGraph) -> np.ndarray:
    """Dense symmetric operator T = D^(-1/2) A D^(-1/2) of an augmented graph."""
    if not g.self_loops_added:
        raise ValueError("requires the self-loop-augmented graph")
    n = g.n_nodes
    a = np.zeros((n, n), dtype=np.float64)
    rows = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    a[rows, g.col_indices] = 1.0
    d_inv_sqrt = 1.0 / np.sqrt(g.degrees.astype(np.float64))
    return d_inv_sqrt[:, None] * a * d_inv_sqrt[None, :]


def spectral_report(g: CsrGraph, alpha: float, hops: int) -> SpectralReport:
    """Compare the closed-form filter spectrum against the truncated filter.

    S = sum_{l<=hops} w_l T^l is ``filter_exact`` (rrz 0.5) of the identity,
    T's spectrum comes from ``dense_propagation_matrix``, a separate build of
    the operator; reports the max gap between the closed form evaluated on
    T's spectrum and S's spectrum. Gated at ``DENSE_EIGEN_LIMIT`` nodes.
    """
    if g.n_nodes > DENSE_EIGEN_LIMIT:
        raise DenseEigenLimitError(
            f"graph has {g.n_nodes} nodes, dense eigensolver limit is {DENSE_EIGEN_LIMIT}")
    eig_t = np.linalg.eigvalsh(dense_propagation_matrix(g))
    s = filter_exact(g, np.eye(g.n_nodes), FilterConfig(alpha=alpha, hops=hops, rrz=0.5))
    eig_s = np.linalg.eigvalsh(0.5 * (s + s.T))
    # round-off can push eig_t marginally past 1; clamp to the valid domain
    lam_sym = np.clip(1.0 - eig_t, 0.0, np.nextafter(2.0, 0.0))
    closed, _ = ppr_eigen_response(lam_sym, alpha)
    closed = np.sort(closed)
    gap = float(np.max(np.abs(closed - eig_s))) if g.n_nodes else 0.0
    return SpectralReport(
        eigenvalues_gcn=eig_t,
        eigenvalues_ppr_closed=closed,
        eigenvalues_ppr_direct=eig_s,
        max_abs_gap=gap,
    )
