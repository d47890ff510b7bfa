import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwsl import graph as graph_module
from rwsl.errors import AlreadyAugmentedError, EdgeListParseError, NodeIdRangeError
from rwsl.graph import (CsrGraph, _edge_pairs_by_line,
                        as_features, as_labels, augment_self_loops,
                        disjoint_cliques, from_edge_array, graph_hash,
                        load_edge_list, load_features, load_labels,
                        rmat_generate, save_edge_list, save_features,
                        save_labels)


def write(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadEdgeList:
    def test_three_node_path(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2\n"), 3)
        assert g.n_edges == 2
        assert list(g.degrees) == [1, 2, 1]
        g.validate()

    def test_duplicate_collapse(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 0\n"), 2)
        assert g.n_edges == 1
        g.validate()

    def test_self_loop_lines_dropped(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 0\n0 1\n"), 2)
        assert g.n_edges == 1
        assert not g.self_loops_added

    def test_blank_lines_ok(self, tmp_path):
        g = load_edge_list(write(tmp_path, "\n0 1\n\n1 2\n"), 3)
        assert g.n_edges == 2

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(write(tmp_path, "0 1\n1 2 3\n"), 4)
        assert err.value.line_no == 2

    def test_non_integer_token(self, tmp_path):
        with pytest.raises(EdgeListParseError):
            load_edge_list(write(tmp_path, "0 x\n"), 2)

    def test_out_of_range_id(self, tmp_path):
        with pytest.raises(NodeIdRangeError):
            load_edge_list(write(tmp_path, "0 5\n"), 3)

    def test_isolated_nodes_kept(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n"), 4)
        assert g.n_nodes == 4
        assert list(g.degrees) == [1, 1, 0, 0]


def _load_outcome(load):
    """Graph hash, or the exception type, line number and message."""
    try:
        return graph_hash(load())
    except (EdgeListParseError, NodeIdRangeError) as err:
        return type(err), getattr(err, "line_no", None), str(err)


DIFF_NODES = 12
_valid_line = st.builds(lambda u, v, sep: f"{u}{sep}{v}",
                        st.integers(0, DIFF_NODES - 1), st.integers(0, DIFF_NODES - 1),
                        st.sampled_from([" ", "\t", "  ", " \t ", "\xa0"]))
_odd_line = st.sampled_from([
    "", "   ", "\t", " 0 1 ", "0 1 2", "1", "1.0 2", "2 1e0", "1_0 2", "٣ 1",
    "# 0 1", "0 1 #", "0 #", "x y", "+1 2", "01 2", "-0 3", "-1 0",
    f"{DIFF_NODES} 0", f"0 {DIFF_NODES + 3}", f"{2**63} 1", f"1 {10**30}",
])
_edge_files = st.builds(
    lambda lines, eol, last: eol.join(lines) + (eol if last else ""),
    st.lists(st.one_of(_valid_line, _valid_line, _odd_line), max_size=12),
    st.sampled_from(["\n", "\r\n"]), st.booleans())


class TestLoadEdgeListFastPath:
    """``load_edge_list`` reads with one ``np.loadtxt`` call and leaves every
    file it cannot take whole to the per-line parser."""

    @settings(max_examples=300, deadline=None)
    @given(text=_edge_files)
    def test_matches_line_parser(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "differential_edges.txt"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _load_outcome(lambda: load_edge_list(path, DIFF_NODES))
        want = _load_outcome(lambda: from_edge_array(
            DIFF_NODES, *_edge_pairs_by_line(path, DIFF_NODES)))
        assert got == want

    def test_clean_file_skips_line_parser(self, tmp_path, monkeypatch):
        g = rmat_generate(200, 4, seed=2)
        save_edge_list(g, tmp_path / "e.txt")

        def fail(*args):
            raise AssertionError("per-line parser used on a clean file")

        monkeypatch.setattr(graph_module, "_edge_pairs_by_line", fail)
        assert graph_hash(load_edge_list(tmp_path / "e.txt", 200)) == graph_hash(g)

    @pytest.mark.parametrize("text", ["", "\n\n", "  \n\t\r\n"])
    def test_empty_or_blank_file_gives_empty_graph(self, tmp_path, text):
        path = tmp_path / "e.txt"
        path.write_bytes(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = load_edge_list(path, 3)
        assert caught == []
        assert g.n_edges == 0 and list(g.degrees) == [0, 0, 0]

    @pytest.mark.parametrize("bad_line, error", [("3 4 5", EdgeListParseError),
                                                  ("3 100", NodeIdRangeError)])
    def test_late_bad_line_reports_number(self, tmp_path, bad_line, error):
        lines = [f"{i % 100} {(i * 7 + 1) % 100}" for i in range(50_000)]
        path = write(tmp_path, "\n".join(lines + [bad_line, "0 1"]) + "\n")
        with pytest.raises(error, match=r":50001: "):
            load_edge_list(path, 100)


class TestCsrFromDirected:
    """The CSR build inside ``from_edge_array`` (key sort, dedup, offsets)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_unique_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        m = int(rng.integers(0, 4000))
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        dst[: m // 5] = src[: m // 5]                   # self-loops
        src = np.concatenate([src, src[: m // 3], dst[m // 3: m // 2]])   # duplicates,
        dst = np.concatenate([dst, dst[: m // 3], src[m // 3: m // 2]])   # reversed pairs
        g = from_edge_array(n, src, dst)
        keep = src != dst
        keys = np.unique(np.concatenate([src[keep] * n + dst[keep], dst[keep] * n + src[keep]]))
        row_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=row_offsets[1:])
        assert np.array_equal(g.col_indices, keys % n)
        assert np.array_equal(g.row_offsets, row_offsets)
        assert g.n_edges == len(keys) // 2


def _csr_from_directed_reference(n_nodes, src, dst, self_loops_added=False):
    """The former CSR construction behind ``from_edge_array``, kept as its oracle."""
    if n_nodes >= 2**31:
        raise ValueError(f"n_nodes must be < {2**31}")
    keys = src.astype(np.int64) * n_nodes + dst.astype(np.int64)
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    src = keys // n_nodes
    dst = keys % n_nodes
    row_offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_nodes), out=row_offsets[1:])
    return CsrGraph(n_nodes=n_nodes, row_offsets=row_offsets, col_indices=dst,
                    self_loops_added=self_loops_added)


def from_edge_array_reference(n_nodes, u, v):
    """The former ``from_edge_array`` (concatenated pairs), kept as its oracle."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n_nodes):
        raise NodeIdRangeError("node id outside [0, n_nodes)")
    keep = u != v
    u, v = u[keep], v[keep]
    return _csr_from_directed_reference(n_nodes, np.concatenate([u, v]),
                                        np.concatenate([v, u]))


def augment_self_loops_reference(g):
    """The former ``augment_self_loops`` (``np.add.at`` over a per-edge row
    array), kept as its oracle."""
    n = g.n_nodes
    rows = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    less = g.col_indices < rows
    counts = np.zeros(n, dtype=np.int64)
    np.add.at(counts, rows[less], 1)
    positions = g.row_offsets[:-1] + counts
    new_cols = np.insert(g.col_indices, positions, np.arange(n, dtype=np.int64))
    new_offsets = g.row_offsets + np.arange(n + 1, dtype=np.int64)
    return CsrGraph(n, new_offsets, new_cols, self_loops_added=True)


def _clique_pairs(n_cliques, size):
    i, j = np.triu_indices(size, 1)
    base = np.repeat(np.arange(n_cliques) * size, len(i))
    return n_cliques * size, base + np.tile(i, n_cliques), base + np.tile(j, n_cliques)


def _rmat_pairs():
    g = rmat_generate(3000, 6, seed=4)
    rows = np.repeat(np.arange(g.n_nodes), g.degrees)
    return g.n_nodes, rows, g.col_indices.copy()     # every edge in both directions


def _random_pairs(seed):
    """Duplicate and reversed pairs, self-loops and isolated nodes."""
    rng = np.random.default_rng(seed)
    u, v = rng.integers(0, 400, 3000), rng.integers(0, 400, 3000)
    v[::7] = u[::7]
    return 500, np.concatenate([u, v[:900], u[:50]]), np.concatenate([v, u[:900], v[:50]])


EDGE_ARRAYS = {
    "rmat": _rmat_pairs,
    "cliques": lambda: _clique_pairs(4, 9),
    "isolated-nodes": lambda: (9, np.array([0, 2, 2]), np.array([2, 0, 5])),
    "self-loops-only": lambda: (4, np.array([0, 1, 3, 3]), np.array([0, 1, 3, 3])),
    "no-pairs": lambda: (3, np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
    "no-nodes": lambda: (0, np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
    "random-0": lambda: _random_pairs(0),
    "random-1": lambda: _random_pairs(1),
}


def _same_graph(a, b):
    assert (a.n_nodes, a.n_edges, a.self_loops_added) == (b.n_nodes, b.n_edges,
                                                          b.self_loops_added)
    for name in ("row_offsets", "col_indices"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert graph_hash(a) == graph_hash(b)


class TestBuildMatchesReference:
    @pytest.mark.parametrize("name", sorted(EDGE_ARRAYS))
    def test_from_edge_array(self, name):
        n, u, v = EDGE_ARRAYS[name]()
        _same_graph(from_edge_array(n, u, v), from_edge_array_reference(n, u, v))

    @pytest.mark.parametrize("name", sorted(EDGE_ARRAYS))
    def test_augment_self_loops(self, name):
        g = from_edge_array(*EDGE_ARRAYS[name]())
        _same_graph(augment_self_loops(g), augment_self_loops_reference(g))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12),
           pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40))
    def test_random_pairs(self, n, pairs):
        u = np.array([p[0] % n for p in pairs], dtype=np.int64)
        v = np.array([p[1] % n for p in pairs], dtype=np.int64)
        g = from_edge_array(n, u, v)
        _same_graph(g, from_edge_array_reference(n, u, v))
        _same_graph(augment_self_loops(g), augment_self_loops_reference(g))

    def test_checks_kept(self):
        with pytest.raises(NodeIdRangeError):
            from_edge_array(3, np.array([0]), np.array([3]))
        with pytest.raises(NodeIdRangeError):
            from_edge_array(3, np.array([-1]), np.array([0]))
        with pytest.raises(ValueError, match="n_nodes must be <"):
            from_edge_array(2**31, np.array([0]), np.array([1]))


# a few hundred thousand stored entries: edge-sized arrays dwarf n-sized ones
MEMORY_NODES, MEMORY_PAIRS = 5_000, 150_000


class TestBuildMemory:
    """Each build holds, beyond its result, at most about one edge-sized
    scratch array (8 bytes per stored entry); the former builds held
    several."""

    def test_from_edge_array_peak(self, traced_peak):
        rng = np.random.default_rng(0)
        u = rng.integers(0, MEMORY_NODES, MEMORY_PAIRS)
        v = rng.integers(0, MEMORY_NODES, MEMORY_PAIRS)
        g = from_edge_array(MEMORY_NODES, u, v)
        result = g.col_indices.nbytes + g.row_offsets.nbytes
        peak = traced_peak(from_edge_array, MEMORY_NODES, u, v)
        # the key array is the result; the kept pairs are the one scratch
        # array. Concatenating them, as before, read 4.2x an edge array.
        assert peak - result < 1.5 * g.col_indices.nbytes

    def test_augment_peak(self, traced_peak):
        g = rmat_generate(MEMORY_NODES, MEMORY_PAIRS / MEMORY_NODES, seed=0)
        ga = augment_self_loops(g)
        result = ga.col_indices.nbytes + ga.row_offsets.nbytes
        peak = traced_peak(augment_self_loops, g)
        # np.insert's byte mask and a few n-sized arrays; the per-edge row
        # array, its mask and its gather read 1.3x an edge array
        assert peak - result < 0.5 * g.col_indices.nbytes


def _csr(rows, self_loops_added=False):
    """Hand-built CsrGraph from per-row column lists, unchecked."""
    offsets = np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64)
    cols = np.array([c for r in rows for c in r], dtype=np.int64)
    return CsrGraph(len(rows), offsets, cols, self_loops_added)


def _validate_row_loop(g):
    """Per-row loop and Python edge set: the original ``CsrGraph.validate``."""
    offs, cols = g.row_offsets, g.col_indices
    if offs.shape != (g.n_nodes + 1,) or offs[0] != 0:
        raise ValueError("row_offsets must have length n_nodes+1 and start at 0")
    if np.any(np.diff(offs) < 0):
        raise ValueError("row_offsets must be non-decreasing")
    if offs[-1] != len(cols):
        raise ValueError("col_indices length inconsistent with row_offsets")
    if len(cols) and (cols.min() < 0 or cols.max() >= g.n_nodes):
        raise ValueError("column index out of range")
    for u in range(g.n_nodes):
        row = cols[offs[u] : offs[u + 1]]
        if np.any(np.diff(row) <= 0):
            raise ValueError(f"row {u} not strictly sorted / has duplicates")
        if bool(np.any(row == u)) != g.self_loops_added:
            raise ValueError(f"self-loop state of row {u} inconsistent with flag")
    rows = np.repeat(np.arange(g.n_nodes, dtype=np.int64), g.degrees)
    fwd = set(zip(rows.tolist(), cols.tolist()))
    if any((v, u) not in fwd for u, v in fwd):
        raise ValueError("adjacency is not symmetric")


def _validate_message(validate, g):
    try:
        validate(g)
    except ValueError as err:
        return str(err)
    return None


@st.composite
def _edited_csr(draw):
    """A valid graph (optionally augmented) with up to two row edits."""
    n = draw(st.integers(1, 7))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=15))
    g = from_edge_array(n, np.array([p[0] for p in pairs], dtype=np.int64),
                        np.array([p[1] for p in pairs], dtype=np.int64))
    if draw(st.booleans()):
        g = augment_self_loops(g)
    rows = [list(g.neighbors(u)) for u in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        u = draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["set", "insert", "delete", "swap"]))
        if op == "insert":
            rows[u].insert(draw(st.integers(0, len(rows[u]))), draw(st.integers(0, n - 1)))
        elif rows[u] and op == "delete":
            rows[u].pop(draw(st.integers(0, len(rows[u]) - 1)))
        elif rows[u] and op == "set":
            rows[u][draw(st.integers(0, len(rows[u]) - 1))] = draw(st.integers(0, n - 1))
        elif len(rows[u]) > 1 and op == "swap":
            i = draw(st.integers(0, len(rows[u]) - 2))
            rows[u][i], rows[u][i + 1] = rows[u][i + 1], rows[u][i]
    return _csr(rows, g.self_loops_added)


class TestValidate:
    def test_unsorted_row(self):
        g = _csr([[1], [2, 0], [1]])
        with pytest.raises(ValueError, match=r"^row 1 not strictly sorted / has duplicates$"):
            g.validate()

    def test_duplicate_column(self):
        g = _csr([[1, 1], [0, 0], []])
        with pytest.raises(ValueError, match=r"^row 0 not strictly sorted / has duplicates$"):
            g.validate()

    def test_missing_self_loop(self):
        g = _csr([[1], [0]], self_loops_added=True)
        with pytest.raises(ValueError, match=r"^self-loop state of row 0 inconsistent with flag$"):
            g.validate()

    def test_extra_self_loop(self):
        g = _csr([[1], [0, 1], [2]])
        with pytest.raises(ValueError, match=r"^self-loop state of row 1 inconsistent with flag$"):
            g.validate()

    def test_offsets_disagree_with_columns(self):
        g = CsrGraph(2, np.array([0, 1, 1]), np.array([1, 0]))
        with pytest.raises(ValueError,
                           match=r"^col_indices length inconsistent with row_offsets$"):
            g.validate()

    def test_asymmetric_edge(self):
        g = _csr([[1, 2], [2], [0]])
        with pytest.raises(ValueError, match=r"^adjacency is not symmetric$"):
            g.validate()

    def test_lowest_offending_row_reported(self):
        # row 0 carries a self-loop, row 2 is unsorted: row 0 comes first
        g = _csr([[0, 1], [0, 2], [1, 0]])
        with pytest.raises(ValueError, match=r"^self-loop state of row 0 inconsistent"):
            g.validate()
        # both checks fail on row 0: sortedness is checked first
        g = _csr([[1, 0], [0], [0]])
        with pytest.raises(ValueError, match=r"^row 0 not strictly sorted"):
            g.validate()

    @settings(max_examples=400, deadline=None)
    @given(g=_edited_csr())
    def test_matches_row_loop(self, g):
        assert _validate_message(CsrGraph.validate, g) == _validate_message(_validate_row_loop, g)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        g = from_edge_array(6, np.array([0, 2, 4, 1]), np.array([1, 3, 5, 3]))
        save_edge_list(g, tmp_path / "rt.txt")
        g2 = load_edge_list(tmp_path / "rt.txt", 6)
        assert np.array_equal(g.row_offsets, g2.row_offsets)
        assert np.array_equal(g.col_indices, g2.col_indices)
        assert g.n_edges == g2.n_edges

    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=60))
    def test_random_edges_round_trip(self, pairs):
        u = np.array([p[0] for p in pairs], dtype=np.int64)
        v = np.array([p[1] for p in pairs], dtype=np.int64)
        g = from_edge_array(15, u, v)
        g.validate()
        assert int(g.degrees.sum()) == 2 * g.n_edges

    def test_edge_list_bytes_match_line_loop(self, tmp_path):
        # the former writer: one formatted line per edge; the graph spans
        # several write blocks and ends inside one
        g = rmat_generate(2000, 8, seed=4)
        rows = np.repeat(np.arange(g.n_nodes, dtype=np.int64), g.degrees)
        keep = rows < g.col_indices
        with open(tmp_path / "loop.txt", "w") as fh:
            for u, v in np.stack([rows[keep], g.col_indices[keep]], axis=1):
                fh.write(f"{u} {v}\n")
        save_edge_list(g, tmp_path / "e.txt")
        written = (tmp_path / "e.txt").read_bytes()
        assert written == (tmp_path / "loop.txt").read_bytes()
        assert len(written.splitlines()) == int(keep.sum()) > 3 * graph_module.EDGE_WRITE_BLOCK
        assert int(keep.sum()) % graph_module.EDGE_WRITE_BLOCK

    def test_augmented_not_serializable(self):
        g = augment_self_loops(disjoint_cliques(1, 3))
        with pytest.raises(ValueError):
            save_edge_list(g, "/dev/null")


class TestAugment:
    def test_path_degrees(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2\n"), 3)
        ga = augment_self_loops(g)
        assert list(ga.degrees) == [2, 3, 2]
        assert ga.self_loops_added
        ga.validate()

    def test_isolated_node(self):
        g = from_edge_array(1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        ga = augment_self_loops(g)
        assert list(ga.degrees) == [1]

    def test_degree_sum(self):
        g = disjoint_cliques(2, 4)
        ga = augment_self_loops(g)
        assert int(ga.degrees.sum()) == 2 * g.n_edges + g.n_nodes
        # the loops added are not edges
        assert ga.n_edges == g.n_edges == 12

    def test_double_augment_rejected(self):
        ga = augment_self_loops(disjoint_cliques(1, 3))
        with pytest.raises(AlreadyAugmentedError):
            augment_self_loops(ga)

    @pytest.mark.parametrize("make", [
        lambda: from_edge_array(0, np.array([], np.int64), np.array([], np.int64)),
        lambda: from_edge_array(4, np.array([], np.int64), np.array([], np.int64)),
        lambda: disjoint_cliques(2, 4),
        lambda: augment_self_loops(disjoint_cliques(1, 3)),
        lambda: rmat_generate(500, 4, seed=2),
    ])
    def test_hash_pinned_to_byte_copy_formula(self, make):
        g = make()
        h = hashlib.sha256()
        h.update(f"{g.n_nodes}:{g.n_edges}:{int(g.self_loops_added)}".encode())
        h.update(np.ascontiguousarray(g.row_offsets).tobytes())
        h.update(np.ascontiguousarray(g.col_indices).tobytes())
        assert graph_hash(g) == h.hexdigest()

    def test_hash_changes_with_augmentation(self):
        g = disjoint_cliques(1, 3)
        assert graph_hash(g) != graph_hash(augment_self_loops(g))


class TestRmat:
    def test_edge_count_within_band(self):
        g = rmat_generate(10_000, 20, seed=1)
        target = 20 * 10_000
        assert abs(g.n_edges - target) <= 0.05 * target

    def test_tiny_graph_capped(self):
        g = rmat_generate(2, 1, seed=0)
        assert g.n_edges <= 1

    def test_deterministic(self):
        g1 = rmat_generate(500, 5, seed=9)
        g2 = rmat_generate(500, 5, seed=9)
        assert np.array_equal(g1.col_indices, g2.col_indices)
        assert np.array_equal(g1.row_offsets, g2.row_offsets)

    def test_invariants_hold(self):
        g = rmat_generate(300, 4, seed=3)
        g.validate()

    def test_bad_args(self):
        with pytest.raises(ValueError):
            rmat_generate(1, 5, seed=0)
        with pytest.raises(ValueError):
            rmat_generate(10, 0, seed=0)


class TestCliques:
    def test_structure(self):
        g = disjoint_cliques(2, 5)
        assert g.n_nodes == 10
        assert g.n_edges == 2 * 10  # C(5,2) per block
        assert list(g.degrees) == [4] * 10
        g.validate()


class TestFeaturesAndLabels:
    def test_whitespace_and_csv(self, tmp_path):
        a = load_features(write(tmp_path, "1 2\n3 4\n", "a.txt"))
        b = load_features(write(tmp_path, "1,2\n3,4\n", "b.csv"))
        assert np.array_equal(a, b)

    def test_single_row(self, tmp_path):
        x = load_features(write(tmp_path, "1 2 3\n", "c.txt"))
        assert x.shape == (1, 3)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            as_features(np.array([[1.0, np.nan]]))

    def test_features_round_trip(self, tmp_path):
        x = np.random.default_rng(0).random((4, 3))
        save_features(x, tmp_path / "f.txt")
        assert np.allclose(load_features(tmp_path / "f.txt"), x)

    def test_labels_round_trip(self, tmp_path):
        y = np.array([0, 2, 1, 2])
        save_labels(y, tmp_path / "l.txt")
        assert np.array_equal(load_labels(tmp_path / "l.txt"), y)

    @pytest.mark.parametrize("y", [np.array([], dtype=np.int64), np.array([3]),
                                   np.random.default_rng(0).integers(0, 50, 8000),
                                   np.array([2 ** 40, 2 ** 62 + 5, 0, 7])])
    def test_labels_bytes_match_savetxt(self, y, tmp_path):
        save_labels(y, tmp_path / "l.txt")
        np.savetxt(tmp_path / "ref.txt", y, fmt="%d")
        assert (tmp_path / "l.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    def test_label_bounds(self):
        with pytest.raises(ValueError):
            as_labels([0, 3], n_clusters=3)
        with pytest.raises(ValueError):
            as_labels([-1, 0])
