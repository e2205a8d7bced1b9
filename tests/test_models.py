import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from rlgl import models
from rlgl.errors import DanglingNodeError, InvalidIndexError, InvalidParamsError, IsolatedNodeError
from rlgl.matrix import build_transition

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
        sub, mapping = models.largest_scc(edges)
        assert sorted(mapping.tolist()) == [0, 1, 2]
        assert len(sub) == 3

    def test_dag_gives_single_node(self):
        sub, mapping = models.largest_scc([(0, 1), (1, 2)])
        assert (mapping >= 0).sum() == 1
        # smallest original index wins the tie between size-1 components
        assert mapping[0] == 0
        assert len(sub) == 0

    def test_two_components_picks_larger(self):
        edges = [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)]
        sub, mapping = models.largest_scc(edges)
        assert (mapping >= 0).sum() == 3
        assert set(np.flatnonzero(mapping >= 0).tolist()) == {2, 3, 4}

    def test_output_strongly_connected_random(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = 30
            m = int(rng.integers(n, 3 * n))
            edges = np.column_stack([rng.integers(n, size=m), rng.integers(n, size=m)])
            sub, mapping = models.largest_scc(edges, n)
            k = int((mapping >= 0).sum())
            if k > 1:
                assert models.is_strongly_connected(sub, k)

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
            _, mapping = models.largest_scc(edges, n)
            assert int((mapping >= 0).sum()) == best


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
        sub, mapping = models.largest_scc(edges, 3)
        assert mapping.tolist() == [0, 1, -1]
        assert sub[:, :2].tolist() == [[0, 1], [1, 0]]

    def test_rejects_out_of_range_and_non_finite(self):
        with pytest.raises(InvalidIndexError):
            models.strong_components([(0, 3)], 2)
        with pytest.raises(InvalidParamsError):
            models.is_strongly_connected([(0, 1, np.inf), (1, 0, 1.0)], 2)


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

    def test_build_from_file(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 0\n")
        edges, n = models.parse_edge_file(path)
        P = build_transition(edges, n)
        assert np.allclose(P.to_dense(), [[0, 1], [1, 0]])
