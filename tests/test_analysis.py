import math

import numpy as np
import pytest

from rlgl import analysis, engine, models, schedules
from rlgl.errors import InvalidParamsError, NotMarkovError
from rlgl.matrix import DENSE_CAP, build_transition, google_matrix

from conftest import dense_ergodic_chain


def brute_dobrushin(D):
    n = D.shape[0]
    best = 1.0
    for i in range(n):
        for j in range(n):
            best = min(best, np.minimum(D[i], D[j]).sum())
    return 1.0 - best


class TestDobrushin:
    def test_identical_rows(self):
        D = np.tile([0.2, 0.3, 0.5], (3, 1))
        assert analysis.dobrushin(D).value == 0.0

    def test_identity(self):
        assert analysis.dobrushin(np.eye(4)).value == 1.0

    def test_google_bound(self):
        edges, n = models.random_sbm([12, 12], 0.3, 0.1, seed=0)
        G = google_matrix(edges, 0.85, n=n)
        assert analysis.dobrushin(G).value <= 0.85 + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce(self, seed):
        P = dense_ergodic_chain(9, seed)
        D = P.to_dense()
        assert analysis.dobrushin(D).value == pytest.approx(brute_dobrushin(D), abs=1e-14)

    def test_range_and_positive_column_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            D = rng.dirichlet(np.full(6, 0.4), size=6)
            d = analysis.dobrushin(D).value
            assert 0.0 <= d <= 1.0
            col_min = D.min(axis=0)
            j = int(np.argmax(col_min))
            if col_min[j] > 0:
                assert d <= 1.0 - col_min[j] + 1e-14

    def test_exact_flag(self):
        assert analysis.dobrushin(np.eye(3)).exact is True

    def test_exact_loop_stops_at_the_first_disjoint_pair(self):
        reads = []

        class Counted(np.ndarray):
            def __getitem__(self, key):
                reads.append(key)
                return np.asarray(self)[key]

        assert analysis.dobrushin(np.eye(6).view(Counted)).value == 1.0
        assert len(reads) == 2  # D[1:] and D[0]: rows 0 and 1 share no column

    def test_sampled_loop_stops_at_the_first_disjoint_pair(self):
        # every two rows of a ring are disjoint: distance 2, coefficient 1
        n = DENSE_CAP + 1
        P = _CountingRows(build_transition(np.array([(i, (i + 1) % n, 1.0) for i in range(n)]), n))
        res = analysis.dobrushin(P)
        assert (res.value, res.exact) == (1.0, False)
        assert P.reads == 2

    def test_sampled_loop_below_one_takes_every_pair(self):
        n = DENSE_CAP + 1
        ring = np.array([(i, (i + 1) % n, 1.0) for i in range(n)])
        P = _CountingRows(google_matrix(ring, 0.85, n=n))
        assert analysis.dobrushin(P, sample_pairs=20).value <= 0.85 + 1e-12
        rng = np.random.default_rng(0)
        assert P.reads == 2 * sum(int(i != j) for i, j in (rng.integers(n, size=2) for _ in range(20)))

    def test_sampled_restart_rows_match_the_dense_rows(self):
        # the stored rows, restart part cancelled, give the dense rows' distances
        n = DENSE_CAP + 1
        rng = np.random.default_rng(3)
        src = np.repeat(np.flatnonzero(np.arange(n) % 5), 3)  # every fifth node dangles
        edges = np.column_stack([src, rng.integers(40, size=src.size), np.ones(src.size)])  # rows overlap
        P = google_matrix(edges, 0.85, s=rng.dirichlet(np.ones(n)), n=n)
        assert P.dangling_mask.sum() == (n + 4) // 5

        def dense(seed, pairs):
            same = np.random.default_rng(seed)  # the pairs dobrushin draws
            ij = [same.integers(n, size=2) for _ in range(pairs)]
            return max([float(np.abs(P.row(i)[1] - P.row(j)[1]).sum()) / 2.0 for i, j in ij if i != j], default=0.0)

        kinds = set()
        for seed in range(300):  # one pair each: stored, dangling and mixed pairs
            assert analysis.dobrushin(P, seed=seed, sample_pairs=1).value == pytest.approx(dense(seed, 1), abs=1e-15)
            kinds.add(tuple(P.dangling_mask[np.random.default_rng(seed).integers(n, size=2)]))
        assert len(kinds) == 4
        res = analysis.dobrushin(P, seed=0, sample_pairs=3000)
        assert res.exact is False
        assert res.value == pytest.approx(dense(0, 3000), abs=1e-15)
        assert res.value <= 0.85 + 1e-12

class _CountingRows:
    """A matrix wrapper that counts its ``row`` reads."""

    def __init__(self, P):
        self.P, self.n, self.reads = P, P.n, 0

    def row(self, i):
        self.reads += 1
        return self.P.row(i)


class TestCyclicMarkovCheck:
    def test_good_cycle(self, four_state):
        chk = analysis.cyclic_markov_check(four_state, [[1], [0], [2], [3]])
        assert (chk.r, chk.eta, chk.j0, chk.m) == (1, 0.5, 0, 4)

    def test_periodic_cycle_not_markov(self, four_state):
        with pytest.raises(NotMarkovError):
            analysis.cyclic_markov_check(four_state, [[0], [1], [3], [2]])

    def test_whole_set_block(self):
        P = dense_ergodic_chain(3, 0)
        chk = analysis.cyclic_markov_check(P, [[0, 1, 2]])
        assert chk.r == 1
        col_min = P.to_dense().min(axis=0)
        assert chk.eta == pytest.approx(col_min.max(), abs=1e-15)

    def test_blocks_must_cover(self, four_state):
        with pytest.raises(InvalidParamsError):
            analysis.cyclic_markov_check(four_state, [[0], [1]])

    def test_bound_holds_on_measured_run(self, four_state):
        chk = analysis.cyclic_markov_check(four_state, [[1], [0], [2], [3]])
        sched = schedules.FixedBlocks([[1], [0], [2], [3]])
        sched.bind(four_state)
        st = engine.init(four_state, np.array([0.1, 0.2, 0.3, 0.4]))
        for _ in range(60):
            assert st.cash_l1 <= chk.cash_bound(st.t) + 1e-14
            engine.step(st, sched.next_nodes(st.C), four_state)


class TestRandomRateBound:
    def test_positive(self):
        for N, r, eta in [(5, 1, 0.5), (10, 2, 0.2), (50, 1, 0.05)]:
            assert analysis.random_rate_bound(N, r, eta) > 0.0

    def test_r_one_uses_eta_directly(self):
        # for r = 1 the coupling slack halving disappears
        a_direct = analysis.random_rate_bound(4, 1, 0.3)
        alpha = abs(math.log(1.0 - 0.3))
        hi = 1.0 / 4.0
        betas = np.linspace(hi / 1e5, hi * (1 - 1e-9), 100_000)
        bj = (1 - 2 * betas) * np.log(4 * (1 - 2 * betas) / 2) + 2 * betas * np.log(4 * betas)
        brute = np.minimum(betas * alpha, bj).max()
        assert a_direct == pytest.approx(brute, abs=1e-6)

    def test_brute_force_grid_oracle(self):
        N, r, eta = 10, 1, 0.3
        a = analysis.random_rate_bound(N, r, eta)
        alpha = abs(math.log(1.0 - eta))
        hi = 1.0 / (N * r)
        betas = np.linspace(hi / 1e6, hi * (1 - 1e-9), 1_000_000)
        bj = (1 - 2 * r * betas) * np.log(N * (1 - 2 * r * betas) / (N - 2)) + (
            2 * r * betas
        ) * np.log(N * r * betas)
        brute = np.minimum(betas * alpha, bj).max()
        assert abs(a - brute) <= 1e-6

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            analysis.random_rate_bound(2, 1, 0.3)
        with pytest.raises(InvalidParamsError):
            analysis.random_rate_bound(10, 1, 1.5)


class TestRateBound:
    def test_covering_cycle_bound(self):
        b = analysis.dobrushin_cycle_bound(0.85, 12)
        assert b.kind == "dobrushin_cyclic"
        assert b.at(12) == pytest.approx(2.0)  # one full cycle from the 2/delta start
        assert b.at(24) < b.at(12)

    def test_cyclic_check_bound(self, four_state):
        chk = analysis.cyclic_markov_check(four_state, [[1], [0], [2], [3]])
        b = chk.rate_bound()
        assert b.rate == pytest.approx(0.75)
        assert b.per_steps == 4

    def test_random_bound_rate(self):
        a = analysis.random_rate_bound(10, 1, 0.3)
        b = analysis.random_schedule_bound(a)
        assert 0.0 < b.rate < 1.0

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidParamsError):
            analysis.RateBound("cyclic_eta", 1.5, 1.0, 1.0)


class TestUniformPositivity:
    def test_positive_chain(self):
        P = dense_ergodic_chain(6, 0)
        eta = 0.5 * float(P.to_dense().min())
        assert analysis.check_uniform_positivity(P, 1, eta)

    def test_periodic_fails(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        # powers alternate, so no eta > 0 works uniformly... and N=2 anyway
        assert not analysis.check_uniform_positivity(D, 1, 0.1)


class TestTwoBlockForms:
    def test_hand_values(self):
        forms = analysis.sbm2_closed_forms(0.1, 0.01, 2)
        assert forms.lambda2 == pytest.approx(0.0198 / 0.0252, abs=1e-12)
        assert forms.factor_b2 == pytest.approx(0.1 / 0.12, abs=1e-12)
        assert forms.cost_ratio_asymptotic == 4.0

    def test_symmetric_blocks(self):
        forms = analysis.sbm2_closed_forms(0.3, 0.1, 1)
        assert forms.factor_b1 == forms.factor_b2 == pytest.approx(0.3 / 0.4)

    def test_invalid(self):
        with pytest.raises(InvalidParamsError):
            analysis.sbm2_closed_forms(0.01, 0.1, 2)

    @pytest.mark.parametrize("block", ["b1", "b2"])
    def test_simulated_factors_match(self, block):
        K, n, p, q = 4, 6, 0.2, 0.02
        mf = models.meanfield_sbm([K * n, n], p, q)
        forms = analysis.sbm2_closed_forms(p, q, K)
        target = forms.factor_b1 if block == "b1" else forms.factor_b2
        nodes = np.arange(0, K * n) if block == "b1" else np.arange(K * n, (K + 1) * n)
        st = engine.init(mf)
        for _ in range(20):
            prev = st.cash_l1
            engine.step(st, nodes, mf)
            assert st.cash_l1 / prev == pytest.approx(target, abs=1e-10)
