import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlgl import analysis, engine, models, pushloop, schedules
from rlgl.errors import (
    DanglingNodeError,
    InvalidDampingError,
    InvalidIndexError,
    InvalidM0Error,
    InvalidParamsError,
    NotErgodicError,
)
from rlgl.matrix import (
    DENSE_CAP,
    GaussSeidelRows,
    TransitionMatrix,
    augment_pagerank,
    build_transition,
    check_distribution,
    google_matrix,
    gth_stationary,
    validate_stochastic,
)

from conftest import dense_ergodic_chain, ring_random_chain


class TestBuildTransition:
    def test_two_wheels_rows_sum_to_one(self):
        und, n = models.two_wheels()
        P = build_transition(models.symmetrize(und), n)
        assert P.n == 12
        assert validate_stochastic(P, 1e-12) == []

    def test_single_self_loop(self):
        P = build_transition([(0, 0, 5.0)], 1)
        assert P.to_dense().tolist() == [[1.0]]

    def test_four_state_chain_rows(self, four_state):
        expected = np.array(
            [[0, 0.5, 0.5, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], dtype=float
        )
        assert np.array_equal(four_state.to_dense(), expected)

    def test_duplicate_edges_merge(self):
        P = build_transition([(0, 1, 1.0), (0, 1, 1.0), (0, 0, 2.0), (1, 0, 1.0)], 2)
        assert P.out_degree.tolist() == [2.0, 1.0]
        assert np.allclose(P.to_dense()[0], [0.5, 0.5])

    def test_dangling_raises(self):
        with pytest.raises(DanglingNodeError) as exc:
            build_transition([(0, 1, 1.0)], 2)
        assert exc.value.node == 1

    @pytest.mark.parametrize("edges, node", [([(0, 1), (1, 0)], 2), ([(1, 0), (2, 1)], 0), ([], 0)],
                             ids=["past-the-sources", "first", "no-edges"])
    def test_dangling_found_before_n_sized_arrays(self, edges, node):
        # n = 1e7: an n-sized float array alone is 80 MB
        tracemalloc.start()
        try:
            with pytest.raises(DanglingNodeError) as exc:
                build_transition(edges, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.node == node
        assert peak < 1 << 20

    def test_bad_index(self):
        with pytest.raises(InvalidIndexError):
            build_transition([(0, 5, 1.0)], 2)

    @pytest.mark.parametrize("w", [np.inf, -np.inf, np.nan])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(InvalidParamsError):
            build_transition([(0, 1, w), (1, 0, 1.0)], 2)
        with pytest.raises(InvalidParamsError):
            google_matrix([(0, 1, w), (1, 0, 1.0)], 0.85, n=2)

    @given(st.integers(2, 12), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_edge_lists_are_stochastic(self, n, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(n, 4 * n))
        edges = np.column_stack(
            [rng.integers(n, size=m), rng.integers(n, size=m), rng.uniform(0.1, 2.0, size=m)]
        )
        # guarantee out-edges everywhere
        loops = np.column_stack([np.arange(n), np.arange(n), np.full(n, 0.5)])
        P = build_transition(np.vstack([edges, loops]), n)
        assert validate_stochastic(P, 1e-12) == []
        assert P.data.min() > 0.0


# (indptr, indices) of three CSR rows that no matrix may accept
INVALID_CSR = pytest.mark.parametrize(
    "indptr, indices",
    [
        ([0, 3, 4, 5], [1, 1, 2, 2, 0]),  # scatter_add would write the repeated column once
        ([0, 2, 3, 4], [2, 1, 2, 0]),
        ([0, 1, 2, 3], [1, 2, 3]),
        ([0, 1, 2, 3], [1, 2, -1]),
        ([0, 2, 1, 3], [1, 2, 0]),
        ([1, 2, 3, 3], [1, 2, 0]),
        ([0, 1, 2], [1, 0]),
        ([0, 1, 2, 3], [1.0, 2.0, 0.0]),
    ],
    ids=["repeated column", "falling columns", "column n", "negative column", "falling indptr",
         "indptr from 1", "too few rows", "float columns"],
)


class TestTransitionMatrix:
    # data and out_degree follow the shapes of the rows
    @INVALID_CSR
    def test_rejects_invalid_csr(self, indptr, indices):
        indices = np.array(indices)
        with pytest.raises(InvalidParamsError):
            TransitionMatrix(3, np.array(indptr), indices, np.ones(indices.size), np.ones(3))

    def test_rows_may_restart_and_be_empty(self):
        P = TransitionMatrix(3, np.array([0, 2, 2, 4]), np.array([1, 2, 0, 1]), np.full(4, 0.5), np.ones(3))
        assert P.nnz == 4

    def test_rejects_mismatched_data(self):
        with pytest.raises(InvalidParamsError):
            TransitionMatrix(2, np.array([0, 1, 2]), np.array([1, 0]), np.ones(3), np.ones(2))


@pytest.mark.parametrize(
    "make",
    [
        lambda: dense_ergodic_chain(12, 1),
        lambda: build_transition([(0, 0, 1.0), (0, 1, 3.0), (1, 2, 1.0), (2, 2, 2.0), (2, 0, 1.0)], 3),
        lambda: google_matrix([(0, 0), (0, 1), (1, 2), (2, 0), (2, 3)], 0.85, s=[0.1, 0.2, 0.3, 0.4], n=4),
        lambda: google_matrix([(0, 0), (0, 1), (1, 2), (2, 0), (2, 3)], 0.85, n=4).damped,
        lambda: models.meanfield_sbm([5, 3, 2], 0.1, 0.01),
    ],
    ids=["dense", "self-loops", "google-dangling", "damped", "meanfield"],
)
def test_split_diagonal_is_the_dense_split(make):
    P = make()
    D = P.to_dense()
    diag, off = P.split_diagonal()
    assert np.abs(diag - np.diag(D)).max() <= 1e-16
    assert np.abs(off - (D.sum(axis=1) - np.diag(D))).max() <= 1e-15


class TestValidateStochastic:
    def test_exact_chain_ok(self, four_state):
        assert validate_stochastic(four_state, 1e-12) == []

    def test_detects_bad_row(self, four_state):
        P = four_state
        bad = P.data.copy()
        bad[0] *= 0.999
        broken = type(P)(P.n, P.indptr, P.indices, bad, P.out_degree)
        report = validate_stochastic(broken, 1e-12)
        assert [r for r, _ in report] == [0]

    def test_google_matrix_ok(self):
        edges, n = models.random_sbm([20, 20], 0.2, 0.05, seed=1)
        G = google_matrix(edges, 0.85, n=n)
        assert validate_stochastic(G, 1e-9) == []


class TestGoogleMatrix:
    def test_identity_hand_example(self):
        P = build_transition([(0, 0, 1.0), (1, 1, 1.0)], 2)
        G = google_matrix(P, 0.5)
        assert np.allclose(G.to_dense(), [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)

    def test_dangling_row_becomes_s(self):
        G = google_matrix([(0, 1, 1.0)], 0.85, n=2)
        _, row = G.row(1)
        assert np.allclose(row, G.s, atol=1e-15)

    def test_invalid_damping(self):
        with pytest.raises(InvalidDampingError):
            google_matrix([(0, 1, 1.0), (1, 0, 1.0)], 1.5, n=2)

    def test_dobrushin_at_most_c(self):
        edges, n = models.random_sbm([15, 15], 0.3, 0.05, seed=4)
        for c in (0.5, 0.85):
            G = google_matrix(edges, c, n=n)
            assert analysis.dobrushin(G).value <= c + 1e-12

    def test_dobrushin_bound_with_dangling_rows(self):
        G = google_matrix([(0, 1, 1.0), (2, 0, 1.0)], 0.85, n=3)
        assert np.flatnonzero(G.dangling_mask).tolist() == [1]
        assert analysis.dobrushin(G).value <= 0.85 + 1e-12

    def test_mul_left_matches_dense(self):
        G = google_matrix([(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)], 0.85, n=3)
        x = np.array([0.2, 0.5, 0.3])
        assert np.allclose(G.mul_left(x), x @ G.to_dense(), atol=1e-14)

    def test_repeated_column_rejected_before_a_push(self):
        # built, the push of 1.0 from node 0 left C summing to 0.575 through
        # scatter_add and 0.425 through push_damped, where 1 and 0.85 are due
        with pytest.raises(InvalidParamsError, match="repeats a column"):
            google_matrix(TransitionMatrix(2, np.array([0, 2, 3]), np.array([1, 1, 0]), np.array([0.5, 0.5, 1.0]),
                                           np.ones(2)), 0.85, [0.5, 0.5])

    @pytest.mark.parametrize("build", [google_matrix, augment_pagerank])
    def test_empty_row_of_a_transition_matrix_restarts(self, build):
        # an empty row is dangling whatever the input; given a TransitionMatrix,
        # both builders once left row 1 summing to 1 - c = 0.15
        P = TransitionMatrix(2, np.array([0, 1, 1]), np.array([1]), np.array([1.0]), np.array([1.0, 0.0]))
        M = build(P, 0.85, s=[0.25, 0.75])
        dense = M.to_dense()
        assert np.abs(dense.sum(axis=1) - 1.0).max() <= 1e-15
        assert np.array_equal(dense, build([(0, 1, 1.0)], 0.85, s=[0.25, 0.75], n=2).to_dense())

    def test_hand_built_empty_row_restarts(self):
        # the dangling rows are the empty ones: a push from row 1 keeps its
        # mass, and e1 @ G is the row s
        P = TransitionMatrix(3, np.array([0, 1, 1, 2]), np.array([1, 0]), np.array([1.0, 1.0]), np.ones(3))
        G = google_matrix(P, 0.85, [0.5, 0.0, 0.5])
        assert np.flatnonzero(G.dangling_mask).tolist() == [1]
        C = np.zeros(3)
        assert G.scatter_add(C, [1], [1.0]) is None
        assert C.sum() == 1.0
        for i in range(3):
            assert abs(G.mul_left(np.eye(3)[i]).sum() - 1.0) <= 1e-15
        assert np.array_equal(G.mul_left(np.eye(3)[1]), G.s)

    @pytest.mark.parametrize("build", [google_matrix, augment_pagerank])
    @pytest.mark.parametrize("n", [None, 3])
    def test_restart_part_not_added_twice(self, build, n):
        # given n, a damped matrix was once read as an edge list: numpy TypeError
        G = google_matrix([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)], 0.85, n=3)
        with pytest.raises(InvalidParamsError, match="restart part"):
            build(G, 0.85, n=n)
        with pytest.raises(InvalidParamsError, match="restart part"):
            build(G.damped, 0.85, n=n)

    @pytest.mark.parametrize("build", [google_matrix, augment_pagerank])
    @pytest.mark.parametrize("size", [2, 4])
    def test_restart_length_must_be_n(self, build, size):
        # a short s once built and failed at the first push with a broadcast error
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]
        with pytest.raises(InvalidParamsError, match=f"{size} entries, chain has 3"):
            build(edges, 0.85, s=np.full(size, 1.0 / size), n=3)

    CYCLE = (3, np.array([0, 1, 2, 3]), np.array([1, 2, 0]), np.full(3, 0.85), np.ones(3))

    @pytest.mark.parametrize("s, c, match", [
        (np.full(2, 0.5), 0.85, "2 entries, chain has 3"),  # the compiled loop reads s[j] for j < n
        ([0.5, 0.5, 0.5], 0.85, "sums to"),
        ([1.0, 0.0, 0.0], 1.0, "damping"),
        ([1.0, 0.0, 0.0], 0.0, "damping"),
        (None, 0.85, "restart distribution"),
    ])
    def test_direct_restart_part_checked(self, s, c, match):
        with pytest.raises(InvalidParamsError, match=match):
            TransitionMatrix(*self.CYCLE, s=s, c=c)

    def test_shares_follow_from_s_and_c(self):
        with pytest.raises(TypeError):
            TransitionMatrix(*self.CYCLE, restart_share=0.5)
        G = TransitionMatrix(*self.CYCLE, s=[0.2, 0.3, 0.5], c=0.85)
        assert (G.restart_share, G.dangling_share) == (1.0 - 0.85, 1.0)
        assert (G.damped.restart_share, G.damped.dangling_share) == (0.0, 0.85)
        P = TransitionMatrix(*self.CYCLE[:3], np.ones(3), np.ones(3))
        assert (P.s, P.restart_share, P.dangling_share) == (None, 0.0, 1.0)


class TestDampedRows:
    # nodes 2 and 5 dangling; s zero on nodes 0 and 3
    EDGES = [(0, 1, 1.0), (0, 4, 3.0), (1, 0, 1.0), (3, 2, 1.0), (4, 5, 1.0), (4, 0, 2.0)]
    S = [0.0, 0.1, 0.2, 0.0, 0.3, 0.4]

    def test_rows_are_damped_with_dangling_rows_on_s(self):
        G = google_matrix(self.EDGES, 0.85, s=self.S, n=6)
        D = G.damped
        assert D is G.damped  # built once
        assert D.indices is G.indices and D.data is G.data  # no row stored anew
        assert np.array_equal(D.out_degree, G.out_degree)
        dense = D.to_dense()
        assert np.array_equal(dense[2], 0.85 * G.s)
        assert np.array_equal(dense[4], 0.85 * np.array([2 / 3, 0, 0, 0, 0, 1 / 3]))
        assert np.abs(dense + (1 - 0.85) * G.s - G.to_dense()).max() <= 1e-16
        for i in range(6):
            cols, vals = D.row(i)
            assert np.array_equal(dense[i, cols], vals)
        x = np.arange(1.0, 7.0)
        assert np.abs(D.mul_left(x) - x @ dense).max() <= 1e-14

    def test_only_a_dangling_push_writes_every_entry(self):
        G = google_matrix(self.EDGES, 0.85, s=self.S, n=6)
        C = np.full(6, -1.0)
        # row 4 is 0.85 * (2/3, 1/3) on nodes 0 and 5
        G.damped.scatter_add(C, [4], [1.0])
        assert np.array_equal(np.flatnonzero(C != -1.0), [0, 5])
        before = C.copy()
        G.damped.scatter_add(C, [2], [2.0])  # dangling: c * s on all of C
        assert np.array_equal(C, before + (0.85 * 2.0) * G.s)

    def test_augmented_block_is_the_damped_rows(self):
        G = google_matrix(self.EDGES, 0.85, s=self.S, n=6)
        A = augment_pagerank(self.EDGES, 0.85, s=self.S, n=6)
        assert np.array_equal(A.to_dense()[1:, 1:], G.damped.to_dense())
        # one entry to node 0, then the row's, a dangling one on the support of s
        assert A.out_degree[1:].tolist() == [3, 2, 5, 2, 3, 5]


class _CountingLib:
    """The compiled library, counting its ``rlgl_mul_left`` calls."""

    def __init__(self, lib):
        self.lib, self.calls = lib, 0

    def rlgl_mul_left(self, *args):
        self.calls += 1
        return self.lib.rlgl_mul_left(*args)


def _signed(n, seed=0):
    """A vector with both signs, as a cash vector has."""
    return np.random.default_rng(seed).standard_normal(n)


class TestCompiledProduct:
    """``mul_left`` in C writes the bytes of its numpy fallback."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (ring_random_chain(300, 6, 2), _signed(300)),
            # nodes 2 and 5 dangling, s zero on nodes 0 and 3
            lambda: (google_matrix(TestDampedRows.EDGES, 0.85, s=TestDampedRows.S, n=6), _signed(6)),
            lambda: (google_matrix(TestDampedRows.EDGES, 0.85, n=6).damped, _signed(6)),
            lambda: (TransitionMatrix(3, np.array([0, 2, 2, 4], dtype=np.int32), np.array([1, 2, 0, 1], dtype=np.int32),
                                      np.array([0.25, 0.75, 0.5, 0.5]), np.ones(3)), _signed(3)),
            lambda: (ring_random_chain(50, 3, 1), _signed(100)[::2]),
            lambda: (TransitionMatrix(1, np.array([0, 1]), np.array([0]), np.ones(1), np.ones(1)), np.array([-0.5])),
            lambda: (GaussSeidelRows(build_transition([(0, 0, 1.0), (0, 1, 3.0), (1, 2, 1.0), (2, 2, 2.0),
                                                       (2, 0, 1.0)], 3)), _signed(3)),
            lambda: (GaussSeidelRows(ring_random_chain(200, 5, 4)), _signed(200)),
        ],
        ids=["raw", "google-dangling", "damped", "int32-csr", "strided-x", "n1", "gs-rows", "gs-ring"],
    )
    def test_same_bytes_as_the_numpy_fallback(self, make, kernel, monkeypatch):
        P, x = make()
        if kernel == "c":
            counting = _CountingLib(pushloop.load())
            monkeypatch.setattr(pushloop, "load", lambda: counting)
        compiled = P.mul_left(x)
        if kernel == "c":
            assert counting.calls == 1
        monkeypatch.setattr(pushloop, "load", lambda: None)
        fallback = P.mul_left(x)
        assert compiled.dtype == fallback.dtype == np.float64
        assert compiled.tobytes() == fallback.tobytes()

    def test_arrays_convert_once(self, kernel):
        # the constructor stores the arrays as C reads them; a builder's arrays are kept as they are
        indptr, indices = np.array([0, 2, 2, 4, 5]), np.array([1, 3, 0, 1, 2])
        data, out_degree = np.array([0.25, 0.75, 0.5, 0.5, 1.0]), np.array([2.0, 1.0, 2.0, 1.0])
        s = np.array([0.1, 0.2, 0.3, 0.4])
        twin = TransitionMatrix(4, indptr, indices, 0.85 * data, out_degree, s, 0.85)
        assert all(a is b for a, b in zip((twin.indptr, twin.indices, twin.out_degree, twin.s),
                                          (indptr, indices, out_degree, s)))
        P = TransitionMatrix(4, indptr.astype(np.int32), indices.astype(np.uint16),
                             np.repeat(0.85 * data, 2)[::2], np.repeat(out_degree, 2)[::2],
                             np.repeat(s, 2)[::2], 0.85)
        stored = (P.indptr, P.indices, P.data, P.out_degree, P.s)
        assert [a.dtype for a in stored] == [np.int64, np.int64] + [np.float64] * 3
        assert all(a.flags.c_contiguous for a in stored)
        x = np.array([0.4, -0.1, 0.3, 0.5])
        assert P.mul_left(x).tobytes() == twin.mul_left(x).tobytes()
        for name in ("rr", "theta:1", "maxc", "pc:1"):
            runs = [engine.run(M, schedules.parse_schedule(name), eps=1e-12) for M in (P, twin)]
            assert {r.kernel for r in runs} == {kernel}
            assert runs[0].state.H.tobytes() == runs[1].state.H.tobytes()
            assert runs[0].trace.rows == runs[1].trace.rows

    def test_x_of_another_shape_fails_as_in_numpy(self):
        P = ring_random_chain(20, 3, 1)
        with pytest.raises(ValueError):
            P.mul_left(np.ones(19))


class TestAugmentPagerank:
    def test_rows_sum_to_one(self):
        edges, n = models.random_sbm([10, 10], 0.3, 0.1, seed=3)
        A = augment_pagerank(edges, 0.85, n=n)
        assert A.n == n + 1
        assert validate_stochastic(A, 1e-12) == []

    def test_lower_right_block_is_scaled_exactly(self, four_state):
        c = 0.85
        A = augment_pagerank(four_state, c)
        dense = A.to_dense()
        block = dense[1:, 1:]
        assert np.array_equal(block, c * four_state.to_dense())
        assert np.all(dense[1:, 0] == 1.0 - c)
        assert dense[0, 0] == c

    def test_seed_at_auxiliary_node(self, four_state):
        c = 0.85
        A = augment_pagerank(four_state, c)
        M0 = np.zeros(5)
        M0[0] = 1.0
        st = engine.init(A, M0)
        assert st.C[0] == -(1.0 - c)
        assert np.allclose(st.C[1:], (1.0 - c) * np.full(4, 0.25), atol=1e-15)
        assert np.array_equal(st.H, M0)


class TestGth:
    def test_four_state_exact(self, four_state):
        pi = gth_stationary(four_state)
        assert np.abs(pi - np.array([2, 1, 2, 2]) / 7.0).max() <= 1e-15

    def test_two_state_hand_solve(self):
        pi = gth_stationary(np.array([[0.5, 0.5], [0.3, 0.7]]))
        assert np.allclose(pi, [0.375, 0.625], atol=1e-15)

    def test_two_cycle(self):
        pi = gth_stationary(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(pi, [0.5, 0.5])

    def test_not_ergodic(self):
        with pytest.raises(NotErgodicError):
            gth_stationary(np.array([[1.0, 0.0], [0.5, 0.5]]))

    @pytest.mark.parametrize("n,seed", [(10, 0), (37, 1), (100, 2)])
    def test_stationarity_residual(self, n, seed):
        P = dense_ergodic_chain(n, seed)
        pi = gth_stationary(P)
        assert np.abs(pi @ P.to_dense() - pi).sum() <= 1e-10
        assert abs(pi.sum() - 1.0) <= 1e-12


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(InvalidM0Error):
            check_distribution([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidM0Error):
            check_distribution([0.5, 0.4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidM0Error, match="non-finite"):
            check_distribution([bad, 0.5, 0.5])

    def test_sum_printed_as_a_plain_float(self):
        with pytest.raises(InvalidM0Error, match=r"sums to 1\.5, not 1"):
            check_distribution([0.75, 0.75])

    def test_accepts_probability_vector(self):
        v = check_distribution([0.25, 0.75])
        assert v.dtype == float


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: check_distribution(np.full((2, 2), 0.25)), InvalidM0Error, "distribution must be a 1-d vector"),
        (lambda: ring_random_chain(DENSE_CAP + 1, 0, 0).to_dense(), InvalidParamsError,
         f"dense form capped at n={DENSE_CAP}"),
        (lambda: build_transition(np.ones((2, 4)), 3), InvalidParamsError,
         "edge list must have shape (m, 2) or (m, 3)"),
        (lambda: google_matrix([(0, 1), (1, 0)], 0.85), InvalidParamsError,
         "n is required when passing a raw edge list"),
        (lambda: build_transition([(0, 0)], 0), InvalidParamsError, "n must be >= 1"),
        (lambda: augment_pagerank([(0, 1), (1, 0)], 1.5, n=2), InvalidDampingError,
         "damping must lie in (0,1), got 1.5"),
        (lambda: gth_stationary(np.zeros((DENSE_CAP + 1, 1))), InvalidParamsError,
         f"exact solve capped at n={DENSE_CAP}"),
    ],
    ids=["distribution-not-1d", "dense-form-above-cap", "edge-list-shape", "edge-list-without-n", "n-below-1",
         "damping-outside-0-1", "exact-solve-above-cap"],
)
def test_typed_errors(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_gth_of_one_state_is_one():
    got = gth_stationary(np.ones((1, 1)))
    assert got.dtype == float and got.tolist() == [1.0]
