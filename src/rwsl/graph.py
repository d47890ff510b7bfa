"""Undirected attributed-graph containers and loaders.

Topology is stored in compressed sparse row form (``CsrGraph``): adjacency
rows are sorted, deduplicated and symmetric. Node features are plain dense
2-D float64 arrays, labels are 1-D int64 arrays; ``as_features`` /
``as_labels`` validate them at module boundaries. Everything is immutable
after construction (array buffers are marked read-only) so instances can be
shared freely across threads.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AlreadyAugmentedError, EdgeListParseError, NodeIdRangeError

# Node ids are packed into a single int64 key (u * n + v) during dedup.
_MAX_NODES = 2**31

# Edges formatted per write by ``save_edge_list``; bounds its line strings.
EDGE_WRITE_BLOCK = 4096


@dataclass(frozen=True)
class CsrGraph:
    """Symmetric CSR adjacency with optional self-loop augmentation."""

    n_nodes: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    self_loops_added: bool = False

    def __post_init__(self):
        self.row_offsets.flags.writeable = False
        self.col_indices.flags.writeable = False

    @property
    def n_edges(self) -> int:
        """Undirected edges excluding self-loops: the stored entries, less one
        loop per node when ``self_loops_added`` is set, halved."""
        return (len(self.col_indices) - self.n_nodes * self.self_loops_added) // 2

    @property
    def degrees(self) -> np.ndarray:
        """Per-node degree; a self-loop contributes 1."""
        return np.diff(self.row_offsets)

    def neighbors(self, u: int) -> np.ndarray:
        return self.col_indices[self.row_offsets[u] : self.row_offsets[u + 1]]

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        offs, cols = self.row_offsets, self.col_indices
        if offs.shape != (self.n_nodes + 1,) or offs[0] != 0:
            raise ValueError("row_offsets must have length n_nodes+1 and start at 0")
        if np.any(np.diff(offs) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if offs[-1] != len(cols):
            raise ValueError("col_indices length inconsistent with row_offsets")
        if len(cols) and (cols.min() < 0 or cols.max() >= self.n_nodes):
            raise ValueError("column index out of range")
        rows = np.repeat(np.arange(self.n_nodes, dtype=np.int64), self.degrees)
        # first row (if any) failing each per-row check; the lower row is
        # reported, and on a tie the sortedness check wins
        unsorted = (rows[1:] == rows[:-1]) & (cols[1:] <= cols[:-1])
        first_unsorted = rows[1:][unsorted][:1]
        has_loop = np.zeros(self.n_nodes, dtype=bool)
        has_loop[rows[cols == rows]] = True
        first_bad_loop = np.flatnonzero(has_loop != self.self_loops_added)[:1]
        if len(first_unsorted) and (not len(first_bad_loop) or first_unsorted[0] <= first_bad_loop[0]):
            raise ValueError(f"row {first_unsorted[0]} not strictly sorted / has duplicates")
        if len(first_bad_loop):
            raise ValueError(f"self-loop state of row {first_bad_loop[0]} inconsistent with flag")
        # symmetry: rows are sorted and unique here, so (u,v) present iff
        # (v,u) present exactly when the sorted reversed keys equal the forward ones
        fwd = rows * self.n_nodes + cols
        rev = np.sort(cols.astype(np.int64) * self.n_nodes + rows)
        if not np.array_equal(fwd, rev):
            raise ValueError("adjacency is not symmetric")


def from_edge_array(n_nodes: int, u: np.ndarray, v: np.ndarray) -> CsrGraph:
    """Symmetrize, deduplicate and sort raw edge pairs; drops self-loops.

    Each kept pair is written as the two int64 keys u * n + v and v * n + u
    into one array, which is sorted in place and compacted only if it holds
    duplicates. Each row's offset is a binary search for its first key, and
    the columns are the keys' remainders, taken in place, so no per-edge row
    array is built: beyond the result the build holds one edge-sized
    scratch array.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n_nodes):
        raise NodeIdRangeError("node id outside [0, n_nodes)")
    if n_nodes >= _MAX_NODES:
        raise ValueError(f"n_nodes must be < {_MAX_NODES}")
    keep = u != v
    u, v = u[keep], v[keep]
    m = len(u)
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n_nodes, out=keys[:m])
    keys[:m] += v
    np.multiply(v, n_nodes, out=keys[m:])
    keys[m:] += u
    del u, v
    # sort + neighbour mask: np.unique on numpy >= 2.3 hashes before it
    # sorts, ~50x slower on a few 100k keys for the same result
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if not first.all():
        keys = keys[first]
    del first
    row_offsets = np.searchsorted(keys, np.arange(n_nodes + 1, dtype=np.int64) * n_nodes)
    np.remainder(keys, n_nodes, out=keys)
    return CsrGraph(
        n_nodes=n_nodes,
        row_offsets=row_offsets.astype(np.int64, copy=False),
        col_indices=keys,
    )


def load_edge_list(path, n_nodes: int) -> CsrGraph:
    """Read whitespace-separated "u v" pairs (0-based ids) into a CsrGraph.

    The result is symmetric and deduplicated, with explicit self-loop lines
    dropped. Isolated nodes are kept. Malformed lines raise
    ``EdgeListParseError`` with the 1-based line number; out-of-range ids
    raise ``NodeIdRangeError``.
    """
    pairs = _edge_pairs_vectorized(path, n_nodes)
    if pairs is None:
        return from_edge_array(n_nodes, *_edge_pairs_by_line(path, n_nodes))
    return from_edge_array(n_nodes, pairs[:, 0], pairs[:, 1])


def _edge_pairs_vectorized(path, n_nodes: int) -> np.ndarray | None:
    """One ``np.loadtxt`` pass; ``None`` unless every line is blank or an
    in-range "u v" pair, so that ``_edge_pairs_by_line`` decides every
    other file (including empty ones) and reports its line numbers."""
    try:
        # warnings as errors: older numpy accepts e.g. "1.0" as an int with
        # a DeprecationWarning, and an empty file only warns. The file is
        # opened here as the per-line parser opens it (np.loadtxt on a path
        # would also decompress by suffix and fetch URLs).
        with warnings.catch_warnings(), open(path) as fh:
            warnings.simplefilter("error")
            pairs = np.loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
    except Exception:
        return None
    if pairs.shape[0] == 0 or pairs.shape[1] != 2 or pairs.min() < 0 or pairs.max() >= n_nodes:
        return None
    return pairs


def _edge_pairs_by_line(path, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference parser, one line at a time; the only path for malformed
    input and for tokens ``int`` accepts but ``np.loadtxt`` does not
    ("1_0", non-ASCII digits, ids beyond int64)."""
    us, vs = [], []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise EdgeListParseError(path, line_no, f"expected 2 tokens, got {len(tokens)}")
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise EdgeListParseError(path, line_no, f"non-integer token in {tokens!r}") from None
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise NodeIdRangeError(f"{path}:{line_no}: node id ({u}, {v}) outside [0, {n_nodes})")
            us.append(u)
            vs.append(v)
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)


def save_edge_list(g: CsrGraph, path) -> None:
    """Write one "u v" line per undirected edge (u < v).

    The lines are formatted and written ``EDGE_WRITE_BLOCK`` edges at a time:
    a write per edge is 3x slower, and one join over every edge holds a
    Python string per edge at once (35 MB more peak RSS at 200k edges).
    """
    if g.self_loops_added:
        raise ValueError("serialize the un-augmented graph")
    rows = np.repeat(np.arange(g.n_nodes, dtype=np.int64), g.degrees)
    keep = rows < g.col_indices
    pairs = np.stack([rows[keep], g.col_indices[keep]], axis=1)
    with open(path, "w") as fh:
        for lo in range(0, len(pairs), EDGE_WRITE_BLOCK):
            block = pairs[lo:lo + EDGE_WRITE_BLOCK].tolist()
            fh.write("".join(f"{u} {v}\n" for u, v in block))


def augment_self_loops(g: CsrGraph) -> CsrGraph:
    """Return a copy of ``g`` with one self-loop per node (degree + 1).

    Node u's loop goes where u would sort into its row, found by a binary
    search run on every row at once, so beyond the result only the
    insertion mask of ``np.insert`` is edge-sized.
    """
    if g.self_loops_added:
        raise AlreadyAugmentedError("graph already has self-loops")
    n = g.n_nodes
    nodes = np.arange(n, dtype=np.int64)
    # lower bound of u in row u: the first position in [lo, lo + width)
    # whose column is >= u; each pass halves every row's open width
    positions = g.row_offsets[:-1].copy()
    width = g.degrees
    while width.any():
        half = width // 2
        mid = positions + half
        below = (g.col_indices.take(mid, mode="clip") < nodes) & (width > 0)
        positions[below] = mid[below] + 1
        width = np.where(below, width - half - 1, half)
    new_cols = np.insert(g.col_indices, positions, nodes)
    new_offsets = g.row_offsets + np.arange(n + 1, dtype=np.int64)
    return CsrGraph(n, new_offsets, new_cols, self_loops_added=True)


def graph_hash(g: CsrGraph) -> str:
    """Stable content hash used by filtered-feature cache headers."""
    h = hashlib.sha256()
    h.update(f"{g.n_nodes}:{g.n_edges}:{int(g.self_loops_added)}".encode())
    h.update(memoryview(np.ascontiguousarray(g.row_offsets)).cast("B"))
    h.update(memoryview(np.ascontiguousarray(g.col_indices)).cast("B"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# synthetic graphs

RMAT_QUADRANTS = (0.45, 0.22, 0.22, 0.11)     # R-MAT's quadrant probabilities a, b, c, d


def rmat_generate(n_nodes: int, edge_factor: float, seed: int) -> CsrGraph:
    """Recursive-matrix random graph with ~edge_factor * n_nodes undirected edges.

    Edges are sampled by the usual quadrant recursion, canonicalized,
    deduplicated, and topped up in batches until the target count (capped by
    the number of possible pairs) is met. Deterministic for a given seed.
    """
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    if edge_factor <= 0:
        raise ValueError("edge_factor must be positive")
    rng = np.random.default_rng(seed)
    n_bits = max(1, int(np.ceil(np.log2(n_nodes))))
    target = int(round(edge_factor * n_nodes))
    target = min(target, n_nodes * (n_nodes - 1) // 2)
    a, b, c, _ = RMAT_QUADRANTS
    seen = np.empty(0, dtype=np.int64)   # unique keys in first-sampled order
    for _ in range(200):
        deficit = target - len(seen)
        if deficit <= 0:
            break
        batch = max(1024, int(1.5 * deficit))
        u = np.zeros(batch, dtype=np.int64)
        v = np.zeros(batch, dtype=np.int64)
        for _level in range(n_bits):
            r = rng.random(batch)
            u = (u << 1) | (r >= a + b)
            v = (v << 1) | ((r >= a) & (r < a + b) | (r >= a + b + c))
        ok = (u < n_nodes) & (v < n_nodes) & (u != v)
        u, v = u[ok], v[ok]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = np.concatenate([seen, lo * n_nodes + hi])
        _, first = np.unique(keys, return_index=True)
        seen = keys[np.sort(first)]
    seen = seen[:target]
    return from_edge_array(n_nodes, seen // n_nodes, seen % n_nodes)


def disjoint_cliques(n_cliques: int, clique_size: int) -> CsrGraph:
    """Union of complete graphs; block k holds nodes [k*size, (k+1)*size)."""
    us, vs = [], []
    for k in range(n_cliques):
        base = k * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                us.append(base + i)
                vs.append(base + j)
    return from_edge_array(n_cliques * clique_size,
                           np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64))


# ---------------------------------------------------------------------------
# features and labels


def as_features(values) -> np.ndarray:
    """Validate/convert a dense node-feature matrix: 2-D, float64, finite."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature matrix contains NaN or Inf")
    return x


def as_labels(values, n_clusters: int | None = None) -> np.ndarray:
    """Validate/convert a label vector: 1-D, int64, in [0, K)."""
    y = np.asarray(values, dtype=np.int64).reshape(-1)
    if len(y) and y.min() < 0:
        raise ValueError("labels must be non-negative")
    if n_clusters is not None and len(y) and y.max() >= n_clusters:
        raise ValueError(f"label {y.max()} >= n_clusters {n_clusters}")
    return y


def load_features(path) -> np.ndarray:
    """Dense matrix, one row per node; whitespace- or comma-separated."""
    path = Path(path)
    delimiter = None
    with open(path) as fh:
        for line in fh:
            if line.strip():
                if "," in line:
                    delimiter = ","
                break
    return as_features(np.loadtxt(path, delimiter=delimiter, ndmin=2))


def save_features(x: np.ndarray, path) -> None:
    np.savetxt(path, as_features(x), fmt="%.17g")


def load_labels(path) -> np.ndarray:
    return as_labels(np.loadtxt(path, dtype=np.int64, ndmin=1))


def save_labels(y: np.ndarray, path) -> None:
    """One integer per line: the bytes of ``np.savetxt(path, y, fmt="%d")``,
    written in one call instead of formatted row by row."""
    with open(path, "w") as fh:
        fh.write("".join(f"{v}\n" for v in as_labels(y).tolist()))
