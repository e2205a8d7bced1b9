import numpy as np
import pytest

from rlgl import engine, models, schedules, solvers
from rlgl.errors import AllCashZeroError, ConfigError, InvalidParamsError
from rlgl.matrix import build_transition, google_matrix

from conftest import dense_ergodic_chain


def bound(sched, n=4, seed_chain=0):
    P = dense_ergodic_chain(n, seed_chain)
    sched.bind(P)
    sched.restart()
    return sched, P


class TestRoundRobin:
    def test_modular(self):
        sched, _ = bound(schedules.RoundRobin(), n=4)
        seq = [sched.next_nodes(None)[0] for _ in range(6)]
        assert seq == [0, 1, 2, 3, 0, 1]

    def test_single_node(self):
        sched, _ = bound(schedules.RoundRobin(), n=1)
        assert [sched.next_nodes(None)[0] for _ in range(3)] == [0, 0, 0]

    def test_covering_property(self):
        n = 7
        sched, _ = bound(schedules.RoundRobin(), n=n)
        for cycle in range(3):
            seen = set()
            for _ in range(n):
                seen.update(sched.next_nodes(None).tolist())
            assert seen == set(range(n))

    def test_perturb_rotates(self):
        sched, _ = bound(schedules.RoundRobin(), n=4)
        sched.perturb()
        sched.restart()
        assert sched.next_nodes(None)[0] == 1


class TestRandomNode:
    def test_single_node_chain(self):
        sched, _ = bound(schedules.RandomNode(0), n=1)
        assert sched.next_nodes(None)[0] == 0

    def test_seeded_reproducibility(self):
        a, _ = bound(schedules.RandomNode(3), n=9)
        b, _ = bound(schedules.RandomNode(3), n=9)
        sa = [a.next_nodes(None)[0] for _ in range(200)]
        sb = [b.next_nodes(None)[0] for _ in range(200)]
        assert sa == sb

    def test_uniform_frequency(self):
        n = 10
        sched, _ = bound(schedules.RandomNode(7), n=n)
        draws = np.array([sched.next_nodes(None)[0] for _ in range(100_000)])
        freq = np.bincount(draws, minlength=n) / draws.size
        assert np.abs(freq - 0.1).max() <= 0.01

    def test_reseed_changes_stream(self):
        a, _ = bound(schedules.RandomNode(3), n=9)
        sa = [a.next_nodes(None)[0] for _ in range(50)]
        a.reseed()
        a.restart()
        sb = [a.next_nodes(None)[0] for _ in range(50)]
        assert a.seed == 4
        assert sa != sb


class TestMaxCash:
    def test_basic(self):
        sched, _ = bound(schedules.MaxCash(), n=3)
        assert sched.next_nodes(np.array([0.1, -0.5, 0.2]))[0] == 1

    def test_tie_break_lowest_index(self):
        sched, _ = bound(schedules.MaxCash(), n=2)
        assert sched.next_nodes(np.array([0.5, -0.5]))[0] == 0

    def test_all_zero_raises(self):
        sched, _ = bound(schedules.MaxCash(), n=3)
        with pytest.raises(AllCashZeroError):
            sched.next_nodes(np.zeros(3))

    def test_restrict(self):
        sched, _ = bound(schedules.MaxCash(restrict=[1, 2]), n=3)
        assert sched.next_nodes(np.array([9.0, 0.1, -0.2]))[0] == 2

    def test_cyclic_visit_on_two_block_meanfield(self):
        # equal small-block cash after the seed push; ties then push order
        # walk through the small block in index order
        mf = models.meanfield_sbm([8, 4], 0.2, 0.01)
        st = engine.init(mf)
        sched = schedules.MaxCash()
        sched.bind(mf)
        picks = []
        for _ in range(4):
            G = sched.next_nodes(st.C)
            picks.append(int(G[0]))
            engine.step(st, G, mf)
        assert picks == [8, 9, 10, 11]


class TestGreedy:
    def test_single_nonzero_entry(self):
        sched, _ = bound(schedules.Greedy(), n=4)
        C = np.zeros(4)
        C[2] = 0.3
        assert sched.next_nodes(C)[0] == 2

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        P = dense_ergodic_chain(8, 5)
        D = P.to_dense()
        sched = schedules.Greedy()
        sched.bind(P)
        for _ in range(25):
            C = rng.normal(size=8)
            C -= C.mean()
            best = None
            best_l1 = np.inf
            for i in range(8):
                if C[i] == 0:
                    continue
                nxt = C.copy()
                amount = nxt[i]
                nxt[i] = 0.0
                nxt += amount * D[i]
                l1 = np.abs(nxt).sum()
                if l1 < best_l1 - 1e-15:
                    best_l1 = l1
                    best = i
            assert sched.next_nodes(C)[0] == best

    def test_two_block_prefers_small_block(self):
        # after the seed push the small block cancels the most per push
        mf = models.meanfield_sbm([20, 10], 0.1, 0.01)
        st = engine.init(mf)
        sched = schedules.Greedy()
        sched.bind(mf)
        assert sched.next_nodes(st.C)[0] == 20

    def test_all_zero_raises(self):
        sched, _ = bound(schedules.Greedy(), n=3)
        with pytest.raises(AllCashZeroError):
            sched.next_nodes(np.zeros(3))


class TestProportionalCash:
    def test_certain_pick(self):
        sched, _ = bound(schedules.ProportionalCash(0), n=3)
        assert sched.next_nodes(np.array([1.0, 0.0, 0.0]))[0] == 0

    def test_zero_weight_never_selected(self):
        sched, _ = bound(schedules.ProportionalCash(1), n=3)
        C = np.array([0.5, 0.0, -0.5])
        draws = {int(sched.next_nodes(C)[0]) for _ in range(500)}
        assert 1 not in draws

    def test_empirical_frequency(self):
        sched, _ = bound(schedules.ProportionalCash(5), n=2)
        C = np.array([0.5, -0.5])
        draws = np.array([sched.next_nodes(C)[0] for _ in range(10_000)])
        assert abs((draws == 0).mean() - 0.5) <= 0.02

    def test_all_zero_raises(self):
        sched, _ = bound(schedules.ProportionalCash(0), n=2)
        with pytest.raises(AllCashZeroError):
            sched.next_nodes(np.zeros(2))


class TestTheta:
    def test_threshold_arithmetic(self):
        # r=1: threshold is the mean absolute cash
        sched, _ = bound(schedules.Theta(1.0), n=4)
        C = np.array([0.9, 0.1, 0.0, 0.0])
        assert len(sched.next_nodes(C)) == 1  # node 0 passes theta=0.25
        assert len(sched.next_nodes(C)) == 0  # node 1 skipped
        assert len(sched.next_nodes(C)) == 0
        assert len(sched.next_nodes(C)) == 0
        assert sched.theta == pytest.approx(0.25)

    def test_equal_cash_all_pass(self):
        sched, _ = bound(schedules.Theta(1.0), n=4)
        C = np.full(4, 0.3)
        for _ in range(4):
            assert len(sched.next_nodes(C)) == 1

    def test_large_r_approaches_max_filter(self):
        sched, _ = bound(schedules.Theta(8.0), n=4)
        C = np.array([1.0, 1e-3, 1e-3, 1e-3])
        emitted = [len(sched.next_nodes(C)) for _ in range(4)]
        assert emitted == [1, 0, 0, 0]

    def test_skip_costs_scans_only(self):
        P = dense_ergodic_chain(4, 2)
        sched = schedules.Theta(1.0)
        sched.bind(P)
        sched.restart()
        C = np.array([0.9, 0.1, 0.0, 0.0])
        sched.next_nodes(C)
        sched.next_nodes(C)
        assert sched.scan_cost == 4 + 2  # one refresh + two candidate checks

    def test_requires_r_at_least_one(self):
        with pytest.raises(InvalidParamsError):
            schedules.Theta(0.5)

    @pytest.mark.parametrize("period", [0, -3])
    def test_requires_period_at_least_one(self, period):
        with pytest.raises(InvalidParamsError):
            schedules.Theta(1.0, period)
        und, n = models.two_wheels()
        G = google_matrix(models.symmetrize(und), 0.85, n=n)
        with pytest.raises(InvalidParamsError):
            solvers.gso_pagerank(G, schedule="theta", period=period)


class TestFixedBlocks:
    def test_cycles(self):
        sched, _ = bound(schedules.FixedBlocks([[0], [2, 3]]), n=4)
        assert sched.next_nodes(None).tolist() == [0]
        assert sched.next_nodes(None).tolist() == [2, 3]
        assert sched.next_nodes(None).tolist() == [0]

    def test_perturb_rotates_sequence(self):
        sched, _ = bound(schedules.FixedBlocks([[0], [1]]), n=2)
        sched.perturb()
        sched.restart()
        assert sched.next_nodes(None).tolist() == [1]

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidParamsError):
            schedules.FixedBlocks([])

    def test_missing_block_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            schedules.parse_schedule(f"blocks:{tmp_path / 'missing.txt'}")

    def test_load_block_file(self, tmp_path):
        path = tmp_path / "blocks.txt"
        path.write_text("# cycle\n1\n0\n2 3\n")
        sched = schedules.load_block_file(str(path))
        assert [b.tolist() for b in sched.sequence] == [[1], [0], [2, 3]]


class TestParse:
    @pytest.mark.parametrize(
        "text,cls",
        [
            ("rr", schedules.RoundRobin),
            ("all", schedules.AllNodes),
            ("greedy", schedules.Greedy),
            ("maxc", schedules.MaxCash),
            ("rand:5", schedules.RandomNode),
            ("pc:6", schedules.ProportionalCash),
            ("theta:2", schedules.Theta),
            ("theta:1:50", schedules.Theta),
        ],
    )
    def test_kinds(self, text, cls):
        sched = schedules.parse_schedule(text)
        assert isinstance(sched, cls)

    def test_seeds_and_params(self):
        assert schedules.parse_schedule("rand:5").seed == 5
        t = schedules.parse_schedule("theta:2:50")
        assert t.r == 2.0 and t.period == 50

    def test_unknown(self):
        with pytest.raises(InvalidParamsError):
            schedules.parse_schedule("bogus")

    @pytest.mark.parametrize("text", ["rand:1.5", "pc:x", "theta:abc", "theta:1:2.5", "theta:nan"])
    def test_bad_numbers(self, text):
        with pytest.raises(InvalidParamsError):
            schedules.parse_schedule(text)


class TestEngineNoOp:
    def test_zero_cash_nodes_are_free_noops(self):
        P = build_transition([(0, 1, 1.0), (1, 0, 1.0)], 2)
        st = engine.init(P, np.array([1.0, 0.0]))
        cost = st.cum_cost
        engine.step(st, [1], P)  # node 1 holds 1.0... push it first
        engine.step(st, [1], P)  # now zero: a free no-op
        assert st.cum_cost == cost + 1.0
        snapshot = st.C.copy()
        engine.step(st, np.empty(0, dtype=np.int64), P)
        assert np.array_equal(st.C, snapshot)
