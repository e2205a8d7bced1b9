import re
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlgl import matrix, models, pushloop
from rlgl.cli import _edges_of
from rlgl.errors import DanglingNodeError, InvalidIndexError, InvalidParamsError, IsolatedNodeError
from rlgl.matrix import DENSE_CAP, MAX_SORT_N, _coalesce_edges, _raw_rows, build_transition

from conftest import SBM80_SEEDS, sbm80_instance


class TestTwoWheels:
    def test_counts(self):
        und, n = models.two_wheels()
        assert n == 12
        assert len(und) == 21

    def test_hub_degrees(self):
        und, _ = models.two_wheels()
        deg = np.zeros(12, dtype=int)
        for a, b in und[:, :2].astype(int):
            deg[a] += 1
            deg[b] += 1
        assert deg[6] == 6  # hexagon hub
        assert deg[11] == 4  # quad hub

    def test_connected(self):
        und, n = models.two_wheels()
        assert models.is_strongly_connected(models.symmetrize(und), n)


class TestMeanField:
    def test_rows_sum_to_one(self):
        mf = models.meanfield_sbm([50, 20, 10], 0.1, 0.01)
        dense = mf.to_dense()
        assert np.abs(dense.sum(axis=1) - 1.0).max() <= 1e-14

    def test_three_block_entries(self):
        # block-1 row denominator 50*0.09 + 80*0.01 = 5.3
        mf = models.meanfield_sbm([50, 20, 10], 0.1, 0.01)
        assert mf.entry[0, 0] == pytest.approx(0.1 / 5.3, abs=1e-16)
        assert mf.entry[0, 1] == pytest.approx(0.01 / 5.3, abs=1e-16)

    def test_two_block_reduction(self):
        # sizes (K n, n) rows match p/(pKn+qn) and q/(qKn+pn)
        K, n, p, q = 3, 4, 0.2, 0.05
        mf = models.meanfield_sbm([K * n, n], p, q)
        assert mf.entry[0, 0] == pytest.approx(p / (p * K * n + q * n), abs=1e-16)
        assert mf.entry[1, 1] == pytest.approx(p / (q * K * n + p * n), abs=1e-16)

    def test_p_equals_q_uniform(self):
        mf = models.meanfield_sbm([3, 2], 0.2, 0.2)
        assert np.allclose(mf.to_dense(), 1.0 / 5.0)

    def test_block_and_expanded_agree(self):
        mf = models.meanfield_sbm([5, 3, 2], 0.3, 0.02)
        P = mf.expand()
        assert np.abs(P.to_dense() - mf.to_dense()).max() <= 1e-15
        x = np.arange(10, dtype=float)
        assert np.abs(mf.mul_left(x) - P.mul_left(x)).max() <= 1e-13

    def test_volume_is_weighted_degree(self):
        mf = models.meanfield_sbm([50, 20, 10], 0.1, 0.01)
        assert mf.out_degree[0] == pytest.approx(0.1 * 50 + 0.01 * 30)
        assert mf.out_degree[-1] == pytest.approx(0.1 * 10 + 0.01 * 70)

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            models.meanfield_sbm([5, 5], 0.05, 0.1)

    def test_csr_push_is_the_expansions(self):
        mf = models.meanfield_sbm([5, 3, 2], 0.3, 0.02)
        push, want = mf.csr_push, mf.expand().csr_push
        assert mf.csr_push is push  # built once
        for got, ref in zip(push, want):
            assert (got is None and ref is None) or np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    def test_no_csr_push_above_the_dense_cap(self, monkeypatch):
        # the engine then takes Python steps; the n^2 expansion is never built
        monkeypatch.setattr(models.MeanFieldMatrix, "expand", lambda self: pytest.fail("expanded"))
        assert models.meanfield_sbm([DENSE_CAP, 1], 0.1, 0.01).csr_push is None


class TestRandomSbm:
    def test_deterministic(self):
        e1, _ = sbm80_instance(SBM80_SEEDS[0])
        e2, _ = sbm80_instance(SBM80_SEEDS[0])
        assert np.array_equal(e1, e2)

    def test_emits_both_directions(self):
        edges, _ = sbm80_instance()
        pairs = {(int(a), int(b)) for a, b in edges[:, :2]}
        assert all((b, a) in pairs for a, b in pairs)

    def test_sbm80_shape_edge_count(self):
        # ~330 arcs expected for the 80-node shape, checked within 25%
        edges, n = sbm80_instance()
        assert n == 80
        assert 330 * 0.75 <= len(edges) <= 330 * 1.25

    def test_complete_graph(self):
        edges, n = models.random_sbm([3, 2], 1.0, 1.0, seed=0)
        assert len(edges) == n * (n - 1)

    def test_edge_counts_within_4_sigma(self):
        sizes, p, q = (30, 30), 0.3, 0.05
        intra = 2 * (30 * 29 // 2)
        inter = 30 * 30
        mean = intra * p + inter * q
        sigma = np.sqrt(intra * p * (1 - p) + inter * q * (1 - q))
        for seed in range(100):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                edges, _ = models.random_sbm(sizes, p, q, seed)
            count = len(edges) / 2
            assert abs(count - mean) <= 4 * sigma, (seed, count)

    def test_isolated_node_raises_after_resample(self):
        with pytest.raises(IsolatedNodeError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                # tiny connection probabilities make isolation near-certain
                models.random_sbm([30, 30], 0.001, 0.001, seed=0)


class TestLargestScc:
    def test_directed_cycle_is_whole_graph(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        P, node_map = models.largest_scc(edges)
        assert node_map.tolist() == [0, 1, 2]
        assert P.nnz == 3

    def test_dag_gives_single_node(self):
        # one node without a self-loop has no row to build
        with pytest.raises(DanglingNodeError):
            models.largest_scc([(0, 1), (1, 2)])
        # smallest original index wins the tie between size-1 components
        P, node_map = models.largest_scc([(0, 1), (1, 2), (0, 0), (1, 1), (2, 2)])
        assert node_map.tolist() == [0]
        assert P.to_dense().tolist() == [[1.0]]

    def test_two_components_picks_larger(self):
        edges = [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)]
        P, node_map = models.largest_scc(edges)
        assert node_map.tolist() == [2, 3, 4]
        assert P.n == 3

    def test_output_strongly_connected_random(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = 30
            m = int(rng.integers(n, 3 * n))
            edges = np.column_stack([rng.integers(n, size=m), rng.integers(n, size=m)])
            try:
                P, _ = models.largest_scc(edges, n)
            except DanglingNodeError:  # a single node without a self-loop
                assert max(map(len, models.strong_components(edges, n))) == 1
                continue
            assert models.is_strongly_connected(P)

    def test_matches_bruteforce_reachability(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = 12
            m = int(rng.integers(n, 4 * n))
            edges = np.column_stack([rng.integers(n, size=m), rng.integers(n, size=m)])
            A = np.zeros((n, n), dtype=bool)
            A[edges[:, 0], edges[:, 1]] = True
            np.fill_diagonal(A, True)
            reach = A.copy()
            for _ in range(n):
                reach = reach | (reach @ A)
            mutual = reach & reach.T
            comp_sizes = [int(mutual[i].sum()) for i in range(n)]
            best = max(comp_sizes)
            _, node_map = models.largest_scc(edges, n)
            assert node_map.size == best


def _mutual_reachability(edges, n):
    """Boolean n x n matrix: i and j reach each other over positive-weight edges."""
    A = np.eye(n, dtype=bool)
    pos = edges[edges[:, 2] > 0][:, :2].astype(int)
    A[pos[:, 0], pos[:, 1]] = True
    reach = A.copy()
    for _ in range(n):
        reach = reach | ((reach.astype(int) @ A.astype(int)) > 0)
    return reach & reach.T


class TestStrongComponents:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bruteforce_with_zero_duplicate_and_loop_edges(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(15):
            n = int(rng.integers(1, 16))
            m = int(rng.integers(n, 4 * n))
            edges = np.column_stack(
                [rng.integers(n, size=m), rng.integers(n, size=m), rng.choice([0.0, 0.5, 1.0, 2.0], size=m)]
            )
            # duplicate arcs, with a zero-weight copy among them, and self-loops
            edges = np.vstack([edges, edges[: m // 3], edges[: m // 4] * [1, 1, 0]])
            loops = rng.integers(n, size=3)
            edges = np.vstack([edges, np.column_stack([loops, loops, np.ones(3)])])
            comps = models.strong_components(edges, n)
            flat = sorted(v for c in comps for v in c)
            assert flat == list(range(n))
            mutual = _mutual_reachability(edges, n)
            for c in comps:
                for v in c:
                    assert set(np.flatnonzero(mutual[v]).tolist()) == set(c)
            assert models.is_strongly_connected(edges, n) == bool(mutual.all())

    @pytest.mark.parametrize("seed", range(8))
    def test_matrix_input_agrees_with_edge_list(self, seed):
        rng = np.random.default_rng(seed)
        checked = 0
        for trial in range(15):
            n = int(rng.integers(1, 16))
            m = int(rng.integers(n, 4 * n))
            edges = np.column_stack(
                [rng.integers(n, size=m), rng.integers(n, size=m), rng.choice([0.0, 0.5, 1.0, 2.0], size=m)]
            )
            edges = np.vstack([edges, edges[: m // 4] * [1, 1, 0]])
            try:
                P = build_transition(edges, n)
            except DanglingNodeError:
                continue  # only matrices without an empty row can be built
            checked += 1
            expected = sorted(sorted(c) for c in models.strong_components(edges, n))
            # any object with CSR indptr/indices will do, not just TransitionMatrix
            view = SimpleNamespace(n=P.n, indptr=P.indptr, indices=P.indices)
            for graph in (P, view):
                assert sorted(sorted(c) for c in models.strong_components(graph)) == expected
                assert models.is_strongly_connected(graph) == models.is_strongly_connected(edges, n)
        assert checked

    def test_zero_weight_edge_does_not_connect(self):
        edges = [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 2, 1.0), (2, 0, 0.0)]
        assert not models.is_strongly_connected(edges, 3)
        assert sorted(sorted(c) for c in models.strong_components(edges, 3)) == [[0, 1], [2]]
        P, node_map = models.largest_scc(edges, 3)
        assert node_map.tolist() == [0, 1]
        assert (P.indptr.tolist(), P.indices.tolist()) == ([0, 1, 2], [1, 0])

    def test_rejects_out_of_range_and_non_finite(self):
        with pytest.raises(InvalidIndexError):
            models.strong_components([(0, 3)], 2)
        with pytest.raises(InvalidParamsError):
            models.is_strongly_connected([(0, 1, np.inf), (1, 0, 1.0)], 2)


@st.composite
def sparse_graphs(draw):
    """An edge list on n nodes with self-loops, duplicate and zero-weight arcs and empty rows."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node, st.sampled_from([0.0, 0.5, 1.0, 2.0])), max_size=3 * n))
    repeats = draw(st.lists(st.sampled_from(arcs), max_size=n)) if arcs else []
    return np.array(arcs + repeats, dtype=float).reshape(-1, 3), n


def _two_pass_lcc(edges, n):
    """The two-pass ``--lcc`` build, kept as the oracle of ``largest_scc``.

    The components come from one coalescing of the edges; the raw edges
    with both ends in the largest component are then relabelled and
    coalesced again by ``build_transition``.
    """
    edges = np.asarray(edges, dtype=float)
    count, labels = models._components(edges, n)
    sizes = np.bincount(labels, minlength=count)
    keep = labels == labels[np.argmax(sizes[labels])]
    mapping = np.full(n, -1, dtype=np.int64)
    mapping[keep] = np.arange(np.count_nonzero(keep))
    ends = edges[:, :2].astype(np.int64)
    mask = keep[ends].all(axis=1)
    sub = edges[mask].copy()
    sub[:, :2] = mapping[ends[mask]]
    return build_transition(sub, int(keep.sum())), np.flatnonzero(keep)


class TestLargestSccOnePass:
    @given(graph=sparse_graphs())
    @example(graph=(np.empty((0, 3)), 1))
    @example(graph=(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [0.0, 1.0, 0.5], [1.0, 2.0, 1.0]]), 3))
    @settings(max_examples=300, deadline=None)
    def test_same_matrix_as_the_two_pass_build(self, graph):
        edges, n = graph
        try:
            want = _two_pass_lcc(edges, n)
        except DanglingNodeError as exc:
            with pytest.raises(DanglingNodeError) as got:
                models.largest_scc(edges, n)
            assert got.value.node == exc.node
            return
        P, node_map = models.largest_scc(edges, n)
        Q, want_map = want
        assert node_map.dtype == want_map.dtype and node_map.tobytes() == want_map.tobytes()
        for a, b in ((P.indptr, Q.indptr), (P.indices, Q.indices), (P.data, Q.data), (P.out_degree, Q.out_degree)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _sparse_random_edges(n, seed):
    """About one out-arc per node: many components, some of them large."""
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.integers(n, size=n + n // 4), rng.integers(n, size=n + n // 4)]).astype(float)


class TestComponentPasses:
    """The compiled ``rlgl_scc`` against the Python Tarjan pass it replaces."""

    @pytest.fixture(autouse=True)
    def _compiled(self, kernel):
        if kernel != "c":
            pytest.skip("no compiler: only the Python pass runs here")
        assert pushloop.load() is not None

    @given(graph=sparse_graphs())
    @example(graph=(np.empty((0, 3)), 1))
    @example(graph=(np.array([[0.0, 0.0, 1.0]]), 1))
    @example(graph=(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 2.0, 1.0], [2.0, 1.0, 1.0]]), 3))
    @settings(max_examples=300, deadline=None)
    def test_compiled_labels_are_the_python_labels(self, graph):
        edges, n = graph
        python = models._tarjan_scc(*_raw_rows(edges, n)[:3])
        count, labels = models._components(edges, n)
        # the same partition, numbered in the same completion order
        assert (count, labels.tolist()) == (python[0], python[1].tolist())
        assert sorted(set(labels.tolist())) == list(range(count))

    @pytest.mark.parametrize("direction", ["ring", "path"])
    def test_million_node_chain_in_one_pass(self, direction):
        # depth n: a recursive pass would overflow its stack
        n = 1_000_000
        nodes = np.arange(n, dtype=np.int64)
        if direction == "ring":
            graph = SimpleNamespace(n=n, indptr=np.arange(n + 1, dtype=np.int64), indices=(nodes + 1) % n)
        else:  # 0 -> 1 -> ... -> n-1: n components, the last node's first
            graph = SimpleNamespace(n=n, indptr=np.minimum(np.arange(n + 1), n - 1), indices=nodes[1:])
        start = time.perf_counter()
        count, labels = models._components(graph)
        elapsed = time.perf_counter() - start
        if direction == "ring":
            assert count == 1 and not labels.any()
        else:
            assert count == n and np.array_equal(labels, n - 1 - nodes)
        assert elapsed < 1.0, f"{elapsed:.2f} s"

    @pytest.mark.parametrize("seed", range(4))
    def test_without_a_compiler_same_results(self, seed, monkeypatch):
        n = 200
        graphs = {
            "sparse": _sparse_random_edges(n, seed),
            "ring": np.vstack([np.column_stack([np.arange(n), (np.arange(n) + 1) % n]), _sparse_random_edges(n, seed)]),
        }

        def results():
            out = []
            for edges in graphs.values():
                P, node_map = models.largest_scc(edges, n)
                out.append((models.strong_components(edges, n), models.is_strongly_connected(edges, n),
                            P.indptr.tobytes(), P.indices.tobytes(), P.data.tobytes(), node_map.tobytes()))
            return out

        compiled = results()
        assert [r[1] for r in compiled] == [False, True]
        monkeypatch.setattr(pushloop, "load", lambda: None)
        assert results() == compiled

    @pytest.mark.parametrize("python", [False, True], ids=["compiled", "python"])
    @pytest.mark.parametrize(
        "indptr,indices",
        [([0, 1, 2], [1, 2]), ([0, 1, 2], [1, -1]), ([0, 2, 1], [1, 0]), ([0, 1], [0]), ([0, 1, 2], [1.0, 0.0])],
        ids=["column-past-n", "negative-column", "falling-indptr", "short-indptr", "float-columns"],
    )
    def test_invalid_csr_view_rejected_on_both_paths(self, python, indptr, indices, monkeypatch):
        if python:
            monkeypatch.setattr(pushloop, "load", lambda: None)
        view = SimpleNamespace(n=2, indptr=np.array(indptr), indices=np.array(indices))
        with pytest.raises(InvalidParamsError):
            models.strong_components(view)


class TestEdgeFileIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.edges"
        und, n = models.two_wheels()
        models.write_edge_file(path, und, comment="test")
        edges, n2 = models.parse_edge_file(path)
        assert n2 == n
        assert np.array_equal(edges[:, :2], und[:, :2])

    def test_one_based_shift(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# comment\n1 2\n2 1 3.5\n")
        edges, n = models.parse_edge_file(path, one_based=True)
        assert n == 2
        assert edges[0].tolist() == [0.0, 1.0, 1.0]
        assert edges[1].tolist() == [1.0, 0.0, 3.5]

    @pytest.mark.parametrize("text,lineno", [("0 1.5\n1 0\n", 1), ("0 1\n1 0 abc\n", 2), ("# c\nx 1\n", 2)])
    def test_malformed_line_is_typed(self, tmp_path, text, lineno):
        path = tmp_path / "g.edges"
        path.write_text(text)
        with pytest.raises(InvalidParamsError, match=f"g.edges:{lineno}:"):
            models.parse_edge_file(path)

    @pytest.mark.parametrize("graph", ["two-wheels", "sbm", "meanfield"])
    def test_writer_matches_per_edge_loop(self, tmp_path, graph):
        if graph == "two-wheels":
            edges = models.two_wheels()[0]  # (m, 2): no weight column
        elif graph == "sbm":
            edges = sbm80_instance()[0]
        else:
            edges = _edges_of(models.meanfield_sbm([5, 3, 2], 0.3, 0.02).expand())  # weights != 1
        path = tmp_path / "g.edges"
        models.write_edge_file(path, edges, comment="test")
        expected = "# test\n"
        for e in edges:  # the per-edge writer, kept as oracle
            src, dst = int(e[0]), int(e[1])
            if len(e) > 2 and float(e[2]) != 1.0:
                expected += f"{src} {dst} {e[2]:.17g}\n"
            else:
                expected += f"{src} {dst}\n"
        assert path.read_bytes() == expected.encode()

    def test_build_from_file(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 0\n")
        edges, n = models.parse_edge_file(path)
        P = build_transition(edges, n)
        assert np.allclose(P.to_dense(), [[0, 1], [1, 0]])


def _parse_per_line(path, one_based=False):
    """The per-line edge-file parser, kept as the oracle of ``parse_edge_file``."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise InvalidParamsError(f"{path}:{lineno}: expected 'src dst [weight]'")
            try:
                src, dst = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise InvalidParamsError(f"{path}:{lineno}: ids must be integers, the weight a number") from None
            if one_based:
                src -= 1
                dst -= 1
            rows.append((src, dst, w))
    if not rows:
        raise InvalidParamsError(f"{path}: no edges")
    edges = np.array(rows, dtype=float)
    n = int(edges[:, :2].max()) + 1
    return edges, n


def _outcome(parse, path, one_based):
    """Edge bytes and n, or the exception's type and message."""
    try:
        edges, n = parse(path, one_based)
    except Exception as exc:
        return type(exc), str(exc)
    return edges.dtype, edges.shape, edges.tobytes(), n


# Tokens and lines of the plain grammar, then those outside it.
_PLAIN_IDS = ["+3", "-2", "007", "9223372036854775807", "-9223372036854775808"]
_PLAIN_WEIGHTS = ["nan", "-nan", "inf", "-inf", "1e400", "1e-400", ".5", "5.", "-0", "2E3", "0.1", "1"]
_PLAIN_LINES = ["", "  \t ", "# comment", "  # indented comment", "#"]
_ODD_IDS = ["1.0", "1e3", "1_0", "12345678901234567890", "x"]
_ODD_WEIGHTS = ["1_0", "abc", "0x10"]
_ODD_LINES = ["7", "0 1 2 3", "3\u00a04", "0 1\x0c", "0 1\x00"]


@st.composite
def edge_files(draw):
    """Edge-file text: a uniform 2- or 3-column LF file, half of them with one flaw.

    The compiled pass claims the clean half, but for ``nan`` and ``inf``
    weights.  Each flaw but the other width (a token or line outside the
    grammar, an inline comment, CRLF or bare CR line ends) sends a file
    to the line loop.
    """
    ncols = draw(st.sampled_from([2, 3]))
    flaw = draw(st.sampled_from([None] * 5 + ["id", "weight", "line", "width", "inline", "ends"]))

    def data_line(k, odd_id=False, odd_weight=False):
        ids = [str(draw(st.integers(0, 40))) if draw(st.integers(0, 3)) else draw(st.sampled_from(_PLAIN_IDS))
               for _ in range(2)]
        if odd_id:
            ids[draw(st.integers(0, 1))] = draw(st.sampled_from(_ODD_IDS))
        weight = repr(draw(st.floats(0, 10))) if draw(st.booleans()) else draw(st.sampled_from(_PLAIN_WEIGHTS))
        tokens = [*ids, draw(st.sampled_from(_ODD_WEIGHTS)) if odd_weight else weight][:k]
        line = "".join(t + draw(st.sampled_from([" ", " ", "\t", "  ", " \t"])) for t in tokens[:-1]) + tokens[-1]
        return draw(st.sampled_from(["", "", " ", "\t"])) + line + draw(st.sampled_from(["", "", " "]))

    lines = [data_line(ncols) for _ in range(draw(st.integers(0, 12)))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_PLAIN_LINES)))
    if flaw not in (None, "ends"):
        extra = {
            "id": lambda: data_line(ncols, odd_id=True),
            "weight": lambda: data_line(3, odd_weight=True),
            "line": lambda: draw(st.sampled_from(_ODD_LINES)),
            "width": lambda: data_line(5 - ncols),
            "inline": lambda: data_line(ncols) + draw(st.sampled_from([" # note", "#", "\t#x"])),
        }[flaw]
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(0, len(lines))), extra())
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) if flaw == "ends" else "\n" for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(line + end for line, end in zip(lines, ends))


def _edge_file_cases(test):
    """``test(self, tmp_path_factory, text, one_based)`` on generated edge files.

    Applied once per class that runs it: hypothesis binds a test to one class.
    """
    test = settings(max_examples=300, deadline=None)(test)
    test = example(text="# head\n0 1 2\n# middle\n1 0 .5\n# tail\n", one_based=True)(test)
    test = example(text="0 1\n1 0 # inline\n", one_based=False)(test)
    return given(text=edge_files(), one_based=st.booleans())(test)


def _matches_per_line_parser(tmp_path_factory, text, one_based):
    path = tmp_path_factory.mktemp("edges") / "g.edges"
    path.write_bytes(text.encode())
    expected = _outcome(_parse_per_line, path, one_based)
    assert _outcome(models.parse_edge_file, path, one_based) == expected


class TestParseEdgeFile:
    @_edge_file_cases
    def test_matches_per_line_parser(self, tmp_path_factory, text, one_based):
        _matches_per_line_parser(tmp_path_factory, text, one_based)

    @pytest.mark.parametrize(
        "text",
        [
            "0 1 # inline\n1 0\n",
            "0 1\n1 0 # inline\n",
            "0 1\r1 0\r",
            "0 1\r\n1 0\r\n",
            "1.0 2\n",
            "1e3 2\n",
            "1_0 2\n",
            "12345678901234567890 1\n",
            "0\u00a01\n",
            "0 1 2 3\n",
            "# comment only\n",
            "",
        ],
    )
    def test_other_files_take_the_line_loop(self, text, tmp_path):
        assert models._parse_compiled(text.encode(), one_based=False) is None
        _parsed_as_the_line_loop_parses(tmp_path / "g.edges", text, False)

    def test_one_based_shift_that_would_wrap_takes_the_line_loop(self, tmp_path):
        text = "-9223372036854775808 1\n"
        assert models._parse_compiled(text.encode(), one_based=True) is None
        _parsed_as_the_line_loop_parses(tmp_path / "g.edges", text, True)

    def test_line_loop_reads_the_bytes_it_is_given(self, tmp_path):
        # no file at the path: the loop decodes the bytes parse_edge_file read
        path = tmp_path / "absent.edges"
        assert models._parse_lines(path, b"0 1\r\n1 0 .5\r\n", False)[0].tolist() == [[0, 1, 1], [1, 0, 0.5]]
        with pytest.raises(InvalidParamsError, match=f"^{re.escape(str(path))}:2: ids must be integers"):
            models._parse_lines(path, b"0 1\r1 \xff\n", False)


class TestParseEdgeFileWithoutCompiler(TestParseEdgeFile):
    """``TestParseEdgeFile`` again with no library: the line loop parses every file."""

    @pytest.fixture(autouse=True, scope="class")
    def _no_library(self):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(pushloop, "load", lambda: None)
            yield

    @_edge_file_cases
    def test_matches_per_line_parser(self, tmp_path_factory, text, one_based):
        _matches_per_line_parser(tmp_path_factory, text, one_based)


def _parsed_as_the_line_loop_parses(path, text, one_based):
    path.write_bytes(text.encode())
    assert _outcome(models.parse_edge_file, path, one_based) == _outcome(_parse_per_line, path, one_based)


class TestCompiledParser:
    """``rlgl_parse_edges`` claims the files of its grammar, with the line loop's bytes, and declines the rest."""

    @pytest.fixture(autouse=True)
    def _compiled(self, kernel):
        if kernel != "c":
            pytest.skip("no compiler: the line loop parses every file")
        assert pushloop.load() is not None

    @pytest.mark.parametrize(
        "text,one_based",
        [
            ("0 1\n1 0", False),  # no LF after the last line
            ("0 1\n1 0 0.5", False),  # nor after a last weight
            ("+1 -2\n007 +0\n-0 3\n", False),
            ("+1 -2\n007 +0\n-0 3\n", True),
            ("9223372036854775807 -9223372036854775808\n", False),
            ("9223372036854775807 -9223372036854775807\n", True),
            ("9007199254740993 16777217\n9007199254740995 1\n", False),  # past 2^53: rounded to even
            ("0 1 4.9e-324\n1 0 1e-400\n1 1 -1e-400\n", False),
            ("0 1 1e400\n1 0 -0\n1 1 -1E+400\n", False),
            ("0 1 5.\n1 0 .5\n1 1 +2.5e-3\n", False),
            ("0 1 0.1000000000000000055511151231257827\n1 0 1e-0000000000000000000005\n", False),
            ("# head\n0 1\n\n1 0 2.5\n  # note\n\t2 0\t0.25 \n0 2  \n", False),  # mixed 2/3 tokens
            ("0 1\n1 0 2\n", True),
        ],
        ids=["no-final-lf", "final-weight", "signed-ids", "signed-ids-one-based", "int64-ends",
             "int64-ends-one-based", "rounded-id", "tiny-weights", "huge-weights", "short-weights",
             "long-weights", "mixed-widths", "mixed-widths-one-based"],
    )
    def test_claims(self, tmp_path, text, one_based):
        parsed = models._parse_compiled(text.encode(), one_based)
        assert parsed is not None
        # the pass reports the largest id it wrote; n is the line loop's
        assert parsed[1] == models._parse_lines(tmp_path / "g.edges", text.encode(), one_based)[1]
        _parsed_as_the_line_loop_parses(tmp_path / "g.edges", text, one_based)

    @pytest.mark.parametrize(
        "text,one_based",
        [
            ("0 1\r\n1 0\r\n", False),
            ("0 1\r1 0\r", False),
            ("0 1\n1 0\x00\n", False),
            ("0 1 nan\n1 0\n", False),
            ("0 1 inf\n1 0\n", False),
            ("1_0 2\n2 1\n", False),
            ("0 1 1_0\n1 0\n", False),
            ("0 1 0x10\n1 0\n", False),
            ("12345678901234567890 1\n", False),
            ("9223372036854775808 1\n", False),
            ("-9223372036854775808 1\n", True),
            ("0 1 # note\n1 0\n", False),
            ("0 1\n1 0 2 3\n", False),
            ("7\n", False),
            ("0\u00a01\n", False),
            ("# caf\u00e9\n0 1\n", False),
            ("0 1\x0c\n", False),
            ("# only a comment\n\n", False),
            ("", False),
        ],
        ids=["crlf", "cr", "nul", "nan", "inf", "underscore-id", "underscore-weight", "hex-weight", "20-digit-id",
             "int64-overflow", "one-based-wrap", "inline-comment", "four-tokens", "one-token", "nbsp",
             "non-ascii-comment", "form-feed", "no-data-line", "empty"],
    )
    def test_declines(self, tmp_path, text, one_based):
        assert models._parse_compiled(text.encode(), one_based) is None
        _parsed_as_the_line_loop_parses(tmp_path / "g.edges", text, one_based)

    def test_comma_decimal_locale_same_bytes(self, tmp_path, request):
        # strtod reads the locale's decimal point: under a comma the pass leaves weights to the line loop
        path = tmp_path / "g.edges"
        path.write_bytes(b"0 1 0.5\n1 0 2.25e-3\n1 1\n")
        expected = _outcome(_parse_per_line, path, False)
        request.getfixturevalue("comma_decimal_locale")
        assert models._parse_compiled(path.read_bytes(), False) is None
        assert models._parse_compiled(b"0 1\n1 0\n", False) is not None  # no weight, no decimal point
        assert _outcome(models.parse_edge_file, path, False) == expected


def _coalesce_by_lexsort(edges, n):
    """The two-key ``np.lexsort`` coalescing, kept as the oracle of ``_coalesce_edges``."""
    edges = np.asarray(edges, dtype=float)
    src = edges[:, 0].astype(np.int64)
    dst = edges[:, 1].astype(np.int64)
    w = edges[:, 2].copy() if edges.shape[1] == 3 else np.ones(len(edges))
    keep = w > 0
    src, dst, w = src[keep], dst[keep], w[keep]
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    if src.size:
        new = np.empty(src.size, dtype=bool)
        new[0] = True
        new[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        group = np.cumsum(new) - 1
        src, dst = src[new], dst[new]
        w = np.bincount(group, weights=w)
    return src, dst, w


def _assert_lexsort_bytes(got, edges, n):
    for a, b in zip(got, _coalesce_by_lexsort(edges, n), strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _coalesces_as_lexsort(edges, n):
    got = _coalesce_edges(edges, n)
    _assert_lexsort_bytes(got, edges, n)
    return got


def _hub_edges(seed, m=100_000, n=2_000):
    """Node 0 with m shuffled out-edges to n targets (so many repeat), then a ring through all n nodes."""
    rng = np.random.default_rng(seed)
    hub = np.column_stack([np.zeros(m), rng.integers(0, n, size=m), rng.choice([0.1, 0.2, 1 / 3, 2.5], size=m)])
    ring = np.column_stack([np.arange(n), (np.arange(n) + 1) % n, np.ones(n)])
    return np.concatenate([hub, ring])[rng.permutation(m + n)], n


class TestCoalesceEdges:
    """``_coalesce_edges`` on the path this host takes: the compiled pass when a compiler builds it."""

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, MAX_SORT_N])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_lexsort_order(self, n, seed):
        rng = np.random.default_rng(seed)
        m = 3000
        # a few distinct ids, so arcs repeat and loops occur, spread up to n - 1
        ids = np.unique(np.concatenate([[0, n - 1], rng.integers(0, n, size=min(n, 20))]))
        src, dst = rng.choice(ids, size=m), rng.choice(ids, size=m)
        w = rng.choice([0.0, 0.1, 0.2, 0.3, 1 / 3, 2.5], size=m)  # sums depend on their order
        edges = np.column_stack([src, dst, w]).astype(float)
        _coalesces_as_lexsort(edges, n)

    def test_too_many_nodes_raise_before_any_array(self):
        _coalesce_edges([(0, 1)], MAX_SORT_N)
        with pytest.raises(InvalidParamsError, match="too many"):
            _coalesce_edges([(0, 1)], MAX_SORT_N + 1)
        with pytest.raises(InvalidParamsError, match="too many"):
            build_transition([(0, 4_000_000_000), (4_000_000_000, 0)], 4_000_000_001)

    def test_hub_row_is_not_quadratic(self):
        edges, n = _hub_edges(seed=0)
        start = time.perf_counter()
        src, dst, w = _coalesces_as_lexsort(edges, n)
        assert time.perf_counter() - start < 1.0
        assert np.count_nonzero(src == 0) == n  # every target of the hub, each once

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_two_columns_count_repeats(self, n):
        rng = np.random.default_rng(n)
        edges = rng.integers(0, n, size=(50, 2)).astype(float)
        src, dst, w = _coalesces_as_lexsort(edges, n)
        assert w.sum() == 50

    def test_fractional_ids_truncate(self):
        # astype(int64) truncates toward zero: -0.5 is node 0 and 2.99 node 2, both inside [0, 3)
        edges = [(-0.5, 2.99, 1.0), (0.0, 2.0, 0.5), (2.5, -0.99, 0.25), (1.75, 1.0, 2.0), (0.9, 2.5, 1.0)]
        src, dst, w = _coalesces_as_lexsort(edges, 3)
        assert src.tolist() == [0, 1, 2] and dst.tolist() == [2, 1, 0] and w.tolist() == [2.5, 2.0, 0.25]

    def test_zero_weights_dropped(self):
        src, dst, w = _coalesces_as_lexsort([(0, 1, 0.0), (1, 0, -0.0), (1, 1, 0.0)], 2)
        assert src.size == dst.size == w.size == 0

    def test_empty_list(self):
        got = _coalesce_edges(np.empty((0, 3)), 4)
        assert [(a.dtype, a.size) for a in got] == [(np.int64, 0), (np.int64, 0), (np.float64, 0)]

    def test_more_nodes_than_edges(self):
        # the compiled pass declines (its counts would outgrow the edges); numpy coalesces
        _coalesces_as_lexsort([(4, 0, 1.0), (0, 9, 2.0), (4, 0, 0.5)], 10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the ids are checked before any cast
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -1, 4, 4.5, 1e300])
    @pytest.mark.parametrize("column", [0, 1])
    def test_bad_ids_raise(self, bad, column):
        edges = np.array([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (1, 3, 1.0)])
        edges[2, column] = bad
        with pytest.raises(InvalidIndexError, match=re.escape("edge endpoint outside [0, 4)")):
            _coalesce_edges(edges, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -5e-324])
    def test_bad_weights_raise(self, bad):
        edges = np.array([(0, 1, 1.0), (1, 0, bad), (1, 1, 1.0)])
        with pytest.raises(InvalidParamsError, match="edge weights must be finite and >= 0"):
            _coalesce_edges(edges, 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the ids are checked before any cast
    def test_bad_weight_wins_over_bad_id(self):
        # the bad id comes first in the list; the weights are checked first
        edges = np.array([(0, np.nan, 1.0), (0, 1, 1.0), (1, 0, -1.0)])
        with pytest.raises(InvalidParamsError, match="edge weights"):
            _coalesce_edges(edges, 2)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "edges,n,node",
        [
            ([(0, 1, 1e308), (0, 2, 1e308), (1, 0, 1.0), (2, 0, 1.0), (1, 2, 1.0)], 3, 0),
            ([(0, 1, 1e308), (0, 1, 1e308), (1, 0, 1.0)], 2, 0),  # merged: an inf weight
            ([(2, 0, 1.5e308), (0, 1, 1.0), (1, 2, 1e308), (2, 1, 1e308), (1, 0, 1e308)], 3, 1),
        ],
        ids=["row", "merged", "first-of-two"],
    )
    def test_row_sum_overflow_raises(self, edges, n, node):
        # such a row once normalized to zeros (or NaN), and a run went on with it
        with pytest.raises(InvalidParamsError, match=f"^node {node}: its edge weights sum past the largest float$"):
            _coalesce_edges(np.array(edges), n)

    def test_row_sum_at_the_largest_float_is_kept(self):
        big = np.finfo(float).max
        edges = np.array([(0, 1, big), (0, 0, 1.0), (1, 0, 1.0)])  # big + 1 rounds to big
        P = build_transition(edges, 2)
        assert P.data.tolist() == [1.0 / big, 1.0, 1.0]


class TestCoalesceEdgesWithoutCompiler(TestCoalesceEdges):
    """``TestCoalesceEdges`` again with no library: numpy coalesces every list."""

    @pytest.fixture(autouse=True, scope="class")
    def _no_library(self):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(pushloop, "load", lambda: None)
            yield


class TestCompiledCoalesce:
    """``rlgl_coalesce`` takes the lists it claims and declines the others."""

    @pytest.fixture(autouse=True)
    def _compiled(self, kernel):
        if kernel != "c":
            pytest.skip("no compiler: numpy coalesces every list")
        assert pushloop.load() is not None

    CLAIMED = pytest.mark.parametrize(
        "edges,n",
        [
            (_hub_edges(seed=1, m=1000, n=50)[0], 50),
            ([(-0.5, 1.5, 1.0), (1, 0, 2.0)], 2),
            ([(0, 1), (1, 0), (0, 1)], 2),
            ([(0, 0, 1.0)], 1),
            ([(0, 1, 0.0), (1, 0, 0.0)], 2),
            ([(2, 1, 0.1), (0, 2, 0.2), (2, 0, 1 / 3), (2, 1, 0.3), (0, 1, 2.5), (2, 2, 0.7)], 4),
        ],
        ids=["hub", "fractional-ids", "two-columns", "one-node", "zero-weights", "row-sums-in-order"],
    )

    @CLAIMED
    def test_claims(self, edges, n):
        edges = np.asarray(edges, dtype=float)
        got = matrix._coalesce_compiled(edges, n)
        assert got is not None
        _assert_lexsort_bytes(got, edges, n)

    @CLAIMED
    def test_rows_are_the_numpy_rows(self, edges, n, monkeypatch):
        # the CSR rows the pass writes, and _csr_rows reads in place of its bincounts
        edges = np.asarray(edges, dtype=float)
        got = matrix._coalesce_compiled(edges, n)
        assert got.rows is not None
        with monkeypatch.context() as m:
            m.setattr(pushloop, "load", lambda: None)
            expected = matrix._coalesce_edges(edges, n)
        assert getattr(expected, "rows", None) is None
        for a, b in zip(matrix._csr_rows(got, n), matrix._csr_rows(expected, n), strict=True):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_declines_more_nodes_than_edges(self):
        assert matrix._coalesce_compiled(np.array([(0.0, 1.0, 1.0)]), 3) is None
        assert matrix._coalesce_compiled(np.array([(0.0, 1.0, 1.0)]), 2) is None
        assert matrix._coalesce_compiled(np.array([(0.0, 1.0, 1.0), (1.0, 0.0, 1.0)]), 2) is not None


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: models.random_sbm([0, 3], 0.5, 0.1, 0), "block sizes must be >= 1"),
        (lambda: models.random_sbm([3, 3], 0.0, 0.1, 0), "p and q must lie in (0, 1]"),
        (lambda: models.MeanFieldMatrix([0, 3], 0.1, 0.01), "block sizes must be >= 1"),
        (lambda: models.MeanFieldMatrix([DENSE_CAP + 1], 0.1, 0.01).to_dense(), f"dense form capped at n={DENSE_CAP}"),
        (lambda: models.MeanFieldMatrix([DENSE_CAP + 1], 0.1, 0.01).expand(), f"expansion capped at n={DENSE_CAP}"),
    ],
    ids=["sbm-empty-block", "sbm-p-zero", "meanfield-empty-block", "meanfield-dense-above-cap",
         "meanfield-expand-above-cap"],
)
def test_typed_errors(call, message):
    with pytest.raises(InvalidParamsError) as exc:
        call()
    assert type(exc.value) is InvalidParamsError and str(exc.value) == message
