import ctypes
import os
import pathlib
import threading
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlgl import engine, models, pushloop, schedules
from rlgl.errors import (
    AllCashZeroError,
    DegenerateHistoryError,
    InvalidIndexError,
    InvalidM0Error,
    InvalidParamsError,
    NoConvergenceError,
    ZeroTotalHistoryError,
)
from rlgl.matrix import GaussSeidelRows, TransitionMatrix, build_transition, google_matrix, gth_stationary

from conftest import dense_ergodic_chain, ring_random_chain, sbm80_instance


class TestInit:
    def test_point_mass_seed(self, four_state):
        st_ = engine.init(four_state, np.array([1.0, 0, 0, 0]))
        assert np.array_equal(st_.C, [-1.0, 0.5, 0.5, 0.0])
        assert np.array_equal(st_.H, [1.0, 0, 0, 0])
        assert st_.t == 1
        assert st_.cum_cost == 2.0  # out-degree of the seeded node

    def test_uniform_seed(self, four_state):
        st_ = engine.init(four_state)
        assert np.allclose(st_.C, [0.0, -0.125, 0.125, 0.0], atol=1e-16)

    def test_stationary_seed_converges_immediately(self, four_state):
        pi = gth_stationary(four_state)
        st_ = engine.init(four_state, pi)
        assert st_.cash_l1 <= 1e-15
        res = engine.run(four_state, schedules.RoundRobin(), pi, eps=1e-10)
        assert res.converged and res.state.t == 1

    def test_invalid_seed(self, four_state):
        with pytest.raises(InvalidM0Error):
            engine.init(four_state, np.array([0.5, 0.2, 0.2, 0.0]))

    def test_cash_start(self, four_state):
        cash = np.array([0.25, 0.0, -0.5, 0.25])
        st_ = engine.init(four_state, cash=cash)
        assert np.array_equal(st_.C, cash) and st_.C is not cash
        assert not st_.H.any()
        assert (st_.t, st_.updates, st_.cum_cost, st_.total_history, st_.cash_l1) == (1, 0, 0.0, 0.0, 1.0)
        assert st_.initial_mass == 1.0  # signed cash: the guard scales with ||cash||_1
        assert engine.init(four_state, cash=np.abs(cash)).initial_mass == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"M0": np.full(4, 0.25), "cash": np.zeros(4)}, {"cash": np.zeros(3)}, {"cash": [np.inf, 0, 0, 0]}],
        ids=["both", "short", "not-finite"],
    )
    def test_invalid_cash_start(self, four_state, kwargs):
        with pytest.raises(InvalidParamsError):
            engine.init(four_state, **kwargs)


class TestStep:
    def test_worked_degenerate_example(self, four_state):
        st_ = engine.init(four_state, np.array([1.0, 0, 0, 0]))
        engine.step(st_, [0], four_state)
        assert np.array_equal(st_.C, np.zeros(4))
        assert np.array_equal(st_.H, np.zeros(4))

    def test_empty_set_advances_time_only(self, four_state):
        st_ = engine.init(four_state)
        before = (st_.C.copy(), st_.H.copy(), st_.cum_cost)
        engine.step(st_, [], four_state)
        assert st_.t == 2
        assert np.array_equal(st_.C, before[0])
        assert np.array_equal(st_.H, before[1])
        assert st_.cum_cost == before[2]

    def test_cost_charges_out_degree(self, four_state):
        st_ = engine.init(four_state)
        base = st_.cum_cost
        engine.step(st_, [1, 2], four_state)  # both hold nonzero cash
        assert st_.cum_cost == base + 2.0

    @staticmethod
    def _snapshot(st_):
        return (st_.C.tobytes(), st_.H.tobytes(), st_.t, st_.cum_cost, st_.total_history,
                st_.cash_l1, st_.updates, st_.max_l1_increase)

    @pytest.mark.parametrize(
        "G",
        [[1, 1], [0, 2, 0], [-1], [3], [0, -1], [0, 3], [0, 1, 1], [2, 2, 2, 2]],
        ids=["repeat", "repeat3", "negative", "too-large", "set-negative", "set-too-large",
             "full-length-repeat", "over-length"],
    )
    def test_invalid_ids_raise_and_leave_state(self, G):
        # 3-cycle with a chord 0->2: before ids were checked, [1, 1] pushed node 1's
        # cash twice (total cash 0.5, total history 2.0 against H.sum() 1.5)
        P = build_transition([(0, 1), (1, 2), (2, 0), (0, 2)], 3)
        st_ = engine.init(P, np.array([1.0, 0.0, 0.0]))
        before = self._snapshot(st_)
        with pytest.raises(InvalidIndexError):
            engine.step(st_, G, P)
        assert self._snapshot(st_) == before

    def test_shuffled_permutation_is_a_full_sweep(self):
        P = ring_random_chain(40, 3, 1)
        a, b = engine.init(P), engine.init(P)
        for _ in range(3):
            engine.step(a, np.arange(40), P)
            engine.step(b, np.random.default_rng(0).permutation(40), P)
        assert a.C.tobytes() == b.C.tobytes()
        assert a.H.tobytes() == b.H.tobytes()
        assert (a.cum_cost, a.updates, a.cash_l1) == (b.cum_cost, b.updates, b.cash_l1)


class TestEstimate:
    def test_point_history(self, four_state):
        st_ = engine.init(four_state, np.array([1.0, 0, 0, 0]))
        assert np.array_equal(engine.estimate(st_), [1.0, 0, 0, 0])

    def test_scale_invariance(self, four_state):
        st_ = engine.init(four_state)
        for h in (0.5, 2.0, 7.0):
            st_.H = np.array([2.0, 1.0, 2.0, 2.0]) * h
            pi = engine.estimate(st_)
            assert np.abs(pi - np.array([2, 1, 2, 2]) / 7.0).max() <= 1e-15

    def test_zero_history_raises(self, four_state):
        st_ = engine.init(four_state, np.array([1.0, 0, 0, 0]))
        engine.step(st_, [0], four_state)
        with pytest.raises(ZeroTotalHistoryError):
            engine.estimate(st_)


class TestGuard:
    def test_fires_on_trivial_solution(self, four_state):
        st_ = engine.init(four_state, np.array([1.0, 0, 0, 0]))
        engine.step(st_, [0], four_state)
        assert engine.guard_total_history(st_, schedules.RoundRobin()) == engine.GUARD_PERTURB
        assert engine.guard_total_history(st_, schedules.RandomNode(0)) == engine.GUARD_RESTART

    def test_healthy_run_continues(self, four_state):
        st_ = engine.init(four_state)
        assert engine.guard_total_history(st_, schedules.RoundRobin()) == engine.GUARD_CONTINUE

    def test_waits_for_the_first_push_of_a_cash_start(self, four_state):
        st_ = engine.init(four_state, cash=np.array([0.0, 0.5, -0.5, 0.0]))
        engine.step(st_, [0], four_state)  # no cash at node 0: nothing moves
        assert st_.total_history == 0.0
        assert engine.guard_total_history(st_, schedules.RoundRobin()) == engine.GUARD_CONTINUE
        engine.step(st_, [1, 2], four_state)
        assert st_.total_history == 0.0  # +0.5 and -0.5 moved
        assert engine.guard_total_history(st_, schedules.RoundRobin()) == engine.GUARD_PERTURB

    def test_nonnegative_cash_start_fires_only_on_a_zero_history(self, four_state):
        # a first push far below GUARD_UNIT * t * ||cash||_1 is no degenerate
        # history: nonnegative cash only adds to it
        st_ = engine.init(four_state, cash=np.array([1e-20, 1.0, 0.0, 0.0]))
        engine.step(st_, [0], four_state)
        assert 0.0 < st_.total_history < engine.GUARD_UNIT * st_.t
        assert engine.guard_total_history(st_, schedules.RoundRobin()) == engine.GUARD_CONTINUE

    def test_rotation_recovers(self, four_state):
        # the degenerate seed works once the round robin starts at node 1
        res = engine.run(
            four_state, schedules.RoundRobin(), np.array([1.0, 0, 0, 0]), eps=1e-12
        )
        assert res.converged
        assert res.restarts == 1
        assert res.guard_events
        pi = gth_stationary(four_state)
        assert np.abs(res.pi_hat - pi).sum() <= 1e-10

    def test_exhausts_retries(self, four_state):
        sched = schedules.FixedBlocks([[0]])  # rotation cannot change it
        with pytest.raises(DegenerateHistoryError) as exc:
            engine.run(four_state, sched, np.array([1.0, 0, 0, 0]), eps=1e-12)
        assert isinstance(exc.value, ZeroTotalHistoryError)
        assert exc.value.result.restarts == 3


class TestRun:
    def test_converges_to_oracle(self, four_state):
        pi = gth_stationary(four_state)
        res = engine.run(four_state, schedules.RoundRobin(), eps=1e-11)
        assert res.converged
        assert np.abs(res.pi_hat - pi).sum() <= 1e-9

    def test_all_nodes_equals_power_iterations(self):
        P = dense_ergodic_chain(50, 9)
        D = P.to_dense()
        M0 = np.full(50, 0.02)
        st_ = engine.init(P, M0)
        x = M0.copy()
        worst = 0.0
        for _ in range(100):
            worst = max(worst, float(np.abs(engine.estimate(st_) - x).max()))
            engine.step(st_, np.arange(50), P)
            x = x @ D
        assert worst <= 1e-12

    def test_nonconvergent_cycle_plateaus(self, four_state):
        # cycle ({1},{2},{4},{3}) stalls at 2 |M0_3 - M0_4|
        sched = schedules.FixedBlocks([[0], [1], [3], [2]])
        M0 = np.array([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(NoConvergenceError) as exc:
            engine.run(four_state, sched, M0, eps=1e-10, max_steps=500)
        state = exc.value.result.state
        assert state.cash_l1 == pytest.approx(0.2, abs=1e-14)

    def test_trace_csv_format(self, four_state, tmp_path):
        res = engine.run(four_state, schedules.RoundRobin(), eps=1e-11)
        path = tmp_path / "trace.csv"
        engine.write_csv(path, res.trace.columns, res.trace.rows)
        # as a table of columns, as rlgl solve writes it: the same bytes
        engine.write_csv(tmp_path / "table.csv", res.trace.columns,
                         arrays=tuple(map(res.trace.column, res.trace.columns)))
        assert (tmp_path / "table.csv").read_bytes() == path.read_bytes()
        lines = path.read_bytes().decode().split("\n")
        assert lines[0] == "step,updates,cum_cost,scan_cost,cash_l1"
        assert lines[1:] == [",".join(f"{v:.17g}" for v in row) for row in res.trace.rows] + [""]

    def test_trace_columns_monotone(self):
        P = dense_ergodic_chain(30, 3)
        res = engine.run(P, schedules.RoundRobin(), eps=1e-10)
        cost = res.trace.column("cum_cost")
        cash = res.trace.column("cash_l1")
        assert np.all(np.diff(cost) >= 0)
        assert np.all(np.diff(cash) <= 1e-14)

    def test_max_steps_raises_with_result(self, four_state):
        with pytest.raises(NoConvergenceError) as exc:
            engine.run(four_state, schedules.FixedBlocks([[3]]), eps=1e-30, max_steps=10)
        assert exc.value.result.state.t == 10

    def test_cash_start_below_eps_stops_without_an_estimate(self, four_state):
        res = engine.run(four_state, schedules.RoundRobin(), cash=np.array([0.1, 0.0, -0.1, 0.0]), eps=1.0)
        assert res.converged and res.pi_hat is None
        assert (res.state.t, res.state.updates) == (1, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"eps": 0.0}, {"eps": -1e-10}, {"eps": np.inf}, {"eps": np.nan}, {"trace_stride": 0}],
        ids=["eps-zero", "eps-negative", "eps-inf", "eps-nan", "stride-zero"],
    )
    def test_invalid_params_rejected(self, four_state, kwargs):
        # eps = inf once stopped at once with the seed as a converged estimate
        with pytest.raises(InvalidParamsError):
            engine.run(four_state, schedules.RoundRobin(), **kwargs)


SCHEDULE_FACTORIES = [
    lambda: schedules.RoundRobin(),
    lambda: schedules.RandomNode(1),
    lambda: schedules.MaxCash(),
    lambda: schedules.ProportionalCash(2),
    lambda: schedules.Theta(1.0),
    lambda: schedules.AllNodes(),
]


class TestInvariants:
    @given(
        n=st.integers(3, 25),
        seed=st.integers(0, 1000),
        which=st.integers(0, len(SCHEDULE_FACTORIES) - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_conservation_and_monotonicity(self, n, seed, which):
        P = dense_ergodic_chain(n, seed)
        sched = SCHEDULE_FACTORIES[which]()
        sched.bind(P)
        sched.restart()
        st_ = engine.init(P)
        for _ in range(3 * n):
            engine.step(st_, sched.next_nodes(st_.C), P)
        assert abs(st_.C.sum()) <= 1e-12
        assert st_.max_l1_increase <= 1e-14
        pi_hat = engine.estimate(st_)
        assert abs(pi_hat.sum() - 1.0) <= 1e-12

    @given(n=st.integers(3, 15), seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_cash_balance_identity(self, n, seed):
        # H + C = H P componentwise along the run (seed cash is zero)
        P = dense_ergodic_chain(n, seed)
        D = P.to_dense()
        sched = schedules.RoundRobin()
        sched.bind(P)
        sched.restart()
        st_ = engine.init(P)
        for _ in range(2 * n):
            engine.step(st_, sched.next_nodes(st_.C), P)
            lhs = st_.H + st_.C
            rhs = st_.H @ D
            assert np.abs(lhs - rhs).max() <= 1e-10

    @given(n=st.integers(3, 15), seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_history_accumulates_moves(self, n, seed):
        P = dense_ergodic_chain(n, seed)
        sched = schedules.RandomNode(seed)
        sched.bind(P)
        sched.restart()
        st_ = engine.init(P)
        moved = st_.H.copy()
        for _ in range(n):
            G = sched.next_nodes(st_.C)
            moved[G] += st_.C[G]
            engine.step(st_, G, P)
        assert np.abs(st_.H - moved).max() <= 1e-15


class TestFractionOracle:
    """Exact-rational replay of the push recursions as an independent check."""

    @staticmethod
    def frac_run(M0, cycle, steps):
        P = [
            [Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        ]
        C = [sum(M0[i] * P[i][j] for i in range(4)) - M0[j] for j in range(4)]
        H = list(M0)
        rows = [(tuple(H), tuple(C))]
        for t in range(1, steps):
            g = cycle[(t - 1) % len(cycle)]
            m = C[g]
            H[g] += m
            C[g] = Fraction(0)
            for j in range(4):
                C[j] += m * P[g][j]
            rows.append((tuple(H), tuple(C)))
        return rows

    def test_engine_matches_oracle(self, four_state):
        M0f = [Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)]
        rows = self.frac_run(M0f, [1, 0, 2, 3], 12)
        st_ = engine.init(four_state, np.array([0.1, 0.2, 0.3, 0.4]))
        for t in range(12):
            eh = np.array([float(v) for v in rows[t][0]])
            ec = np.array([float(v) for v in rows[t][1]])
            assert np.abs(st_.H - eh).max() <= 1e-14
            assert np.abs(st_.C - ec).max() <= 1e-14
            if t < 11:
                engine.step(st_, [[1, 0, 2, 3][t % 4]], four_state)


def reference_step(state, G, P):
    """The push step with an exact O(n) recompute of ||C||_1 on every step.

    The engine keeps ||C||_1 incrementally; this is the step it replaced,
    kept as the reference that every counter, vector and trace row of the
    engine must reproduce bit for bit.
    """
    G = np.asarray(G, dtype=np.int64)
    old_l1 = state.cash_l1
    if G.size == state.n:
        moved = state.C
        movers = int(np.count_nonzero(moved))
        state.H += moved
        state.total_history += float(moved.sum())
        state.C = P.mul_left(moved)
        state.cum_cost += float(P.out_degree[moved != 0].sum())
        state.updates += movers
    elif G.size:
        amounts = state.C[G]
        live = amounts != 0.0
        movers_idx = G[live]
        amounts = amounts[live]
        if movers_idx.size:
            state.H[movers_idx] += amounts
            state.total_history += float(amounts.sum())
            state.C[movers_idx] = 0.0
            P.scatter_add(state.C, movers_idx, amounts)
            state.cum_cost += float(P.out_degree[movers_idx].sum())
            state.updates += int(movers_idx.size)
    state.t += 1
    state.cash_l1 = float(np.abs(state.C).sum())
    state.max_l1_increase = max(state.max_l1_increase, state.cash_l1 - old_l1)
    return state


def _chain(name):
    if name == "two-wheels":
        edges, n = models.two_wheels()
        return build_transition(models.symmetrize(edges), n)
    if name == "sbm80":
        return build_transition(*sbm80_instance())
    if name == "ring1000":
        return ring_random_chain(1000, 10, 3)
    if name == "google":
        edges, n = sbm80_instance()
        return google_matrix(edges, 0.85, n=n)
    if name == "google-dangling":
        return _dangling_google(120, 3, 8)
    if name == "google-hand-built":
        return _hand_built_google(150, 4, 6)
    return models.meanfield_sbm([50, 20, 10], 0.1, 0.01)


def _dangling_google(n, degree, seed):
    """A Google matrix whose graph leaves every fifth node dangling, restarting on a
    non-uniform ``s`` that is zero on every third node."""
    rng = np.random.default_rng(seed)
    src = np.repeat(np.flatnonzero(np.arange(n) % 5 != 4), degree)
    edges = np.column_stack([src, rng.integers(0, n, size=src.size), rng.random(src.size) + 0.1])
    s = rng.random(n)
    s[::3] = 0.0
    return google_matrix(edges, 0.85, s=s / s.sum(), n=n)


def _hand_built_google(n, degree, seed):
    """A damped restart matrix of hand-built CSR rows, not an edge list: the rows
    of a ring-plus-random chain with every seventh row emptied, so dangling."""
    P = ring_random_chain(n, degree, seed)
    lens = np.where(np.arange(n) % 7 != 6, np.diff(P.indptr), 0)
    kept = np.repeat(lens > 0, np.diff(P.indptr))
    rows = TransitionMatrix(n, np.concatenate([[0], np.cumsum(lens)]), P.indices[kept], P.data[kept], np.ones(n))
    return google_matrix(rows, 0.85)


def _schedule(name, n):
    if name == "blocks":
        # overlapping multi-node sets: evens, then a shifted stripe, then odds
        return schedules.FixedBlocks(
            [range(0, n, 2), [(3 * k + 1) % n for k in range(n // 3)], range(1, n, 2)]
        )
    return schedules.parse_schedule(name)


def _run_outcome(P, sched_name, eps):
    """The outcome of one run of the named schedule, as in _replay."""
    return _replay(P, _schedule(sched_name, P.n), eps=eps)[1]


class TestReferenceCrossCheck:
    """The incremental-L1 engine against the exact-recompute reference step."""

    @pytest.mark.parametrize("sched_name", ["rr", "theta:1", "maxc", "pc:1", "blocks", "all"])
    @pytest.mark.parametrize("chain", ["two-wheels", "sbm80", "ring1000", "google", "meanfield"])
    def test_identical_runs(self, chain, sched_name, monkeypatch):
        P = _chain(chain)
        new = _run_outcome(P, sched_name, 1e-10)
        with monkeypatch.context() as m:
            m.setattr(engine, "step", reference_step)
            ref = _run_outcome(P, sched_name, 1e-10)
        assert new == ref

    def test_stops_where_the_exact_sum_crosses(self, monkeypatch):
        # eps placed exactly at, and one ulp above, exact ||C||_1 values met
        # along the run, where the incremental value alone could stop a step
        # early or late
        P = ring_random_chain(200, 5, 4)
        sched = schedules.RoundRobin()
        sched.bind(P)
        sched.restart()
        st_ = engine.init(P)
        exact = []
        for _ in range(2000):
            reference_step(st_, sched.next_nodes(st_.C), P)
            exact.append(st_.cash_l1)
        for level in exact[37::97]:
            for eps in (level, np.nextafter(level, np.inf)):
                new = _run_outcome(P, "rr", eps)
                with monkeypatch.context() as m:
                    m.setattr(engine, "step", reference_step)
                    ref = _run_outcome(P, "rr", eps)
                assert new == ref


def _random_sparse_chain(n, degree, seed):
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(n), degree)
    dst = rng.integers(0, n, size=n * degree)
    w = rng.random(n * degree) ** 3 + 1e-6  # weights spread over six decades
    return build_transition(np.column_stack([src, dst, w]), n)


class TestIncrementalCashL1:
    @staticmethod
    def _stale_cache(directory):
        """Six cached libraries, oldest first, beside three files that are no cached library."""
        directory.mkdir(parents=True)
        libs = [directory / f"push-{i:016x}.so" for i in range(6)]
        others = [directory / name for name in ("tmpq1w2e3r4.so", "push-notes.txt", "other.so")]
        for i, path in enumerate(libs + others):
            path.write_bytes(b"")
            os.utime(path, (1e9 + i, 1e9 + i))
        return libs, others

    def test_prune_keeps_the_newest_libraries_and_its_own(self, tmp_path):
        libs, others = self._stale_cache(tmp_path / "rlgl")
        pushloop._prune(str(libs[0]))  # the oldest, kept as the library just built
        assert sorted(tmp_path.joinpath("rlgl").iterdir()) == sorted([libs[0], *libs[-3:], *others])

    def test_build_prunes_the_cache(self, tmp_path, kernel, monkeypatch):
        if kernel != "c":
            pytest.skip("no compiler: nothing is built")
        libs, others = self._stale_cache(tmp_path / "rlgl")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        built = pathlib.Path(pushloop._build())
        assert built not in libs
        assert sorted(tmp_path.joinpath("rlgl").iterdir()) == sorted([built, *libs[-3:], *others])

    @given(
        n=st.integers(2, 40),
        degree=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_bound_of_exact(self, n, degree, seed, data):
        P = _random_sparse_chain(n, degree, seed)
        st_ = engine.init(P)
        nodes = st.integers(0, n - 1)
        kinds = st.one_of(
            nodes.map(lambda i: [i]),
            st.lists(nodes, min_size=2, max_size=n, unique=True),
            st.just([]),
        )
        for G in data.draw(st.lists(kinds, min_size=1, max_size=4 * n)):
            engine.step(st_, G, P)
            exact = float(np.abs(st_.C).sum())
            assert abs(st_.cash_l1 - exact) <= st_.l1_err
            assert st_.l1_err <= engine.DRIFT_TOL * st_.cash_l1
            assert st_.max_l1_increase <= 1e-14

    def test_drift_never_exceeds_bound(self, kernel, monkeypatch):
        if kernel != "c":
            pytest.skip("no compiler: Python steps keep the exact sum, so nothing drifts")
        seen = []
        sync = engine.sync_cash_l1

        def checked_sync(state):
            if state.l1_err:
                drift = abs(state.cash_l1 - float(np.abs(state.C).sum()))
                seen.append((drift, state.l1_err))
            sync(state)

        monkeypatch.setattr(engine, "sync_cash_l1", checked_sync)
        res = engine.run(ring_random_chain(1000, 10, 5), schedules.RoundRobin(), eps=1e-10)
        assert seen
        assert all(drift <= bound for drift, bound in seen)
        assert res.state.max_l1_drift == max(drift for drift, _ in seen)

    def test_skip_steps_leave_bookkeeping(self):
        P = ring_random_chain(50, 4, 2)
        st_ = engine.init(P)
        engine.step(st_, [7], P)
        before = (st_.cash_l1, st_.l1_err, st_.max_l1_drift, st_.C.tobytes())
        for _ in range(5):
            engine.step(st_, [], P)
        assert (st_.cash_l1, st_.l1_err, st_.max_l1_drift, st_.C.tobytes()) == before
        assert st_.t == 7


class TestExactPythonStep:
    """``engine.step`` is the exact definition: after every step ``cash_l1`` is numpy's sum of |C|."""

    @pytest.mark.parametrize("make", [
        lambda: _chain("sbm80"),
        lambda: _chain("google-dangling"),
        lambda: _chain("google-dangling").damped,
        lambda: GaussSeidelRows(_chain("sbm80")),
        lambda: _chain("meanfield"),
    ], ids=["raw", "google", "damped", "gs-rows", "meanfield"])
    def test_cash_l1_is_the_exact_sum_after_every_step(self, make):
        P = make()
        assert P.scatter_add(np.zeros(P.n), [0, 1], [1.0, -0.5]) is None
        rng = np.random.default_rng(3)
        st_ = engine.init(P)
        moved, skips = [], 0
        for _ in range(P.n):
            i = int(rng.integers(P.n))
            subset = rng.choice(P.n, size=int(rng.integers(2, P.n // 4)), replace=False)
            # a single-node push, a skip step (a node without cash, or none), a subset, an empty set
            for G in ([i], None, subset, []):
                if G is None:
                    G = np.flatnonzero(st_.C == 0.0)[:1]
                    skips += G.size
                updates = st_.updates
                engine.step(st_, G, P)
                moved.append(st_.updates - updates)
                assert st_.l1_err == 0.0
                assert st_.cash_l1 == float(np.abs(st_.C).sum())
        assert moved[0::4].count(1) > P.n // 2 and moved[1::4] == [0] * P.n and min(moved[2::4]) > 0
        assert skips or isinstance(P, models.MeanFieldMatrix)  # its pushes write every entry
        assert st_.max_l1_increase <= 1e-14


class _Forward:
    """A wrapper that forwards attribute reads, as the benchmark's tracing proxies do."""

    def __init__(self, obj):
        self._obj = obj

    def __getattr__(self, name):
        return getattr(self._obj, name)


class _FixedDraws:
    """A Generator stand-in whose uniform draws are ``values`` in turn; its state is the position.

    It is its own bit generator: ``ctypes.next_double`` hands the compiled loop the same draws.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.state = 0
        self.bit_generator = self
        self.lock = threading.Lock()
        next_double = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)(lambda _: self.random())
        self.ctypes = types.SimpleNamespace(state_address=None, next_double=next_double)

    def random(self, size=None):
        k = 1 if size is None else size
        out = self.values[self.state:self.state + k].copy()
        self.state += k
        return out[0] if size is None else out


def _replay(P, sched, *, eps=1e-10, stride=None, max_steps=60_000, M0=None, cash=None):
    """(kernel, outcome) of one run: its flags, guard events, estimate, final state and trace rows."""
    try:
        res = engine.run(P, sched, M0, cash=cash, eps=eps, max_steps=max_steps, trace_stride=stride)
    except (NoConvergenceError, DegenerateHistoryError) as exc:
        res = exc.result
    st_ = res.state
    pi = None if res.pi_hat is None else res.pi_hat.tobytes()
    return res.kernel, (
        res.converged, res.restarts, res.guard_events, pi, st_.t, st_.updates, st_.cum_cost,
        st_.scan_cost, st_.total_history, st_.cash_l1, st_.H.tobytes(), st_.C.tobytes(),
        res.trace.rows,
    )


def _three_ways(monkeypatch, P, name, **kw):
    """The compiled loop's outcome, checked against the Python steps and reference_step."""
    compiled = _replay(P, schedules.parse_schedule(name), **kw)
    with monkeypatch.context() as m:
        m.setattr(pushloop, "load", lambda: None)
        python = _replay(P, schedules.parse_schedule(name), **kw)
        m.setattr(engine, "step", reference_step)
        reference = _replay(P, schedules.parse_schedule(name), **kw)
    assert python[0] == reference[0] == "py"
    assert compiled[1] == python[1]
    assert compiled[1] == reference[1]
    return compiled


class TestCompiledLoop:
    """The compiled push loop against the Python steps it replaces, byte for byte."""

    @pytest.mark.parametrize("stride", [None, 1], ids=["stride-n", "stride-1"])
    @pytest.mark.parametrize("sched_name", ["rr", "theta:1", "theta:2", "maxc", "pc:1", "pc:3"])
    @pytest.mark.parametrize(
        "chain", ["two-wheels", "sbm80", "ring1000", "google", "google-dangling", "google-hand-built", "meanfield"]
    )
    def test_identical_runs(self, chain, sched_name, stride, kernel, monkeypatch):
        got, outcome = _three_ways(monkeypatch, _chain(chain), sched_name, stride=stride)
        assert got == kernel
        assert outcome[0]  # converged

    @pytest.mark.parametrize("sched_name", ["rr", "theta:1", "maxc", "pc:1", "theta:2"])
    def test_cash_start(self, sched_name, kernel, monkeypatch):
        # the positive-cash start of the PageRank push solver; s is zero on
        # node 0, so rr and theta take skip steps before the first push,
        # which the loop must not count as a guard event
        G = _dangling_google(120, 3, 8)
        got, outcome = _three_ways(monkeypatch, G.damped, sched_name, cash=(1.0 - G.c) * G.s, eps=1e-12)
        assert got == kernel
        assert outcome[0] and outcome[1:3] == (0, [])  # converged, no restart, no guard event

    def test_google_l1_bound_holds_near_worst_case_rounding(self, kernel):
        # One push of cash 1 from node 0, whose row is 0 -> n-1, adds 0.85 to
        # C[n-1], then 0.15 s to all of C.  s is 4 units of 2^-53 on nodes
        # 0..n-2, so each of those n-1 terms is 0.6 ulp of a running sum near
        # 0.85 and rounds it up by 0.4 ulp.  The pass sums entry j in lane
        # j % 2, and lane 0 starts from the row's change, 0.85, so its n/2
        # terms drift the incremental ||C||_1 by ~0.1 n units of 2^-52 (lane
        # 1 sums its small terms exactly), which the push's charge of n + d
        # units must cover; a charge of a few units does not.
        if kernel != "c":
            pytest.skip("no compiler: the loop is not built")
        n = 1 << 13
        s = np.full(n, 4 * 2.0**-53)
        s[-1] = 1.0 - s[:-1].sum()
        G = google_matrix([(0, n - 1, 1.0)], 0.85, s=s, n=n)
        cash = np.zeros(n)
        cash[0] = 1.0
        state = engine.init(G, cash=cash)
        sched = schedules.RoundRobin().bind(G)
        assert pushloop.bind(G, "rr").advance(state, sched, 1e-12, 10, state.updates + 1) == 1
        drift = abs(state.cash_l1 - float(np.abs(state.C).sum()))
        assert drift > 100 * 2.0**-52  # the sum did round near its worst case
        assert drift <= state.l1_err

    @pytest.mark.parametrize("sched_name", ["rr", "theta:1", "maxc", "pc:1"])
    def test_stops_where_the_exact_sum_crosses(self, sched_name, monkeypatch):
        self._stops_where_the_exact_sum_crosses(ring_random_chain(200, 5, 4), sched_name, monkeypatch)

    @pytest.mark.parametrize("sched_name", ["rr", "theta:1", "maxc", "pc:1"])
    def test_google_stops_where_the_exact_sum_crosses(self, sched_name, monkeypatch):
        self._stops_where_the_exact_sum_crosses(_dangling_google(200, 4, 4), sched_name, monkeypatch)

    @staticmethod
    def _stops_where_the_exact_sum_crosses(P, sched_name, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(pushloop, "load", lambda: None)
            m.setattr(engine, "step", reference_step)
            levels = []
            sync = engine.sync_cash_l1
            m.setattr(engine, "sync_cash_l1", lambda state: (sync(state), levels.append(state.cash_l1)))
            _replay(P, schedules.parse_schedule(sched_name), eps=1e-12, stride=1, max_steps=2000)
        for level in levels[37::97]:  # exact values on the way down
            for eps in (level, np.nextafter(level, np.inf)):
                _three_ways(monkeypatch, P, sched_name, eps=eps)

    @pytest.mark.parametrize("sched_name", ["rr", "theta:1", "theta:2", "maxc"])
    def test_guard_perturb_path(self, four_state, sched_name, kernel, monkeypatch):
        got, outcome = _three_ways(monkeypatch, four_state, sched_name, eps=1e-12,
                                   M0=np.array([1.0, 0, 0, 0]))
        assert got == kernel
        assert outcome[2]  # the guard fired

    @pytest.mark.parametrize("sched_name", ["pc:2", "pc:3"])
    def test_guard_restart_path(self, four_state, sched_name, kernel, monkeypatch):
        got, outcome = _three_ways(monkeypatch, four_state, sched_name, eps=1e-12,
                                   M0=np.array([1.0, 0, 0, 0]))
        assert got == kernel
        assert outcome[1] and {action for _, action in outcome[2]} == {engine.GUARD_RESTART}

    @staticmethod
    def _google_four_state(four_state):
        # no restart into node 0, which has no self-loop: from e0, node 0
        # holds cash -1 exactly, and pushing it first zeroes the total history
        return google_matrix(four_state, 0.85, s=np.array([0.0, 1.0, 1.0, 1.0]) / 3)

    @pytest.mark.parametrize("sched_name", ["rr", "theta:1", "theta:2", "maxc"])
    def test_google_guard_perturb_path(self, four_state, sched_name, kernel, monkeypatch):
        got, outcome = _three_ways(monkeypatch, self._google_four_state(four_state), sched_name, eps=1e-12,
                                   M0=np.array([1.0, 0, 0, 0]))
        assert got == kernel
        assert outcome[2]  # the guard fired

    @pytest.mark.parametrize("sched_name", ["pc:2", "pc:3"])
    def test_google_guard_restart_path(self, four_state, sched_name, kernel, monkeypatch):
        got, outcome = _three_ways(monkeypatch, self._google_four_state(four_state), sched_name, eps=1e-12,
                                   M0=np.array([1.0, 0, 0, 0]))
        assert got == kernel
        assert outcome[1] and {action for _, action in outcome[2]} == {engine.GUARD_RESTART}

    @pytest.mark.parametrize("sched_name", ["rr", "theta:2", "maxc", "pc:1", "pc:3"])
    def test_max_steps_result(self, sched_name, kernel, monkeypatch):
        got, outcome = _three_ways(monkeypatch, _chain("ring1000"), sched_name, eps=1e-30, max_steps=4321)
        assert got == kernel
        assert not outcome[0] and outcome[4] == 4321

    @pytest.mark.parametrize("sched_name", ["rr", "theta:2", "maxc", "pc:1", "pc:3"])
    def test_google_max_steps_result(self, sched_name, kernel, monkeypatch):
        P = google_matrix(_chain("ring1000"), 0.85)
        got, outcome = _three_ways(monkeypatch, P, sched_name, eps=1e-30, max_steps=4321)
        assert got == kernel
        assert not outcome[0] and outcome[4] == 4321

    @pytest.mark.parametrize("sched_name", ["rr", "theta:1", "maxc", "pc:1"])
    def test_max_steps_exit_carries_the_partial_estimate(self, sched_name, kernel, monkeypatch):
        # both exits form pi_hat: at max_steps it is the normalized history so
        # far, the same bytes on the compiled and the Python steps
        got, outcome = _three_ways(monkeypatch, _chain("sbm80"), sched_name, max_steps=50)
        assert got == kernel
        converged, pi, t, H, rows = outcome[0], outcome[3], outcome[4], outcome[10], outcome[12]
        assert not converged and t == 50
        H = np.frombuffer(H)
        assert pi == (H / H.sum()).tobytes()
        assert rows[-1][0] == 50

    def test_max_steps_before_any_push_has_no_estimate(self, four_state):
        with pytest.raises(NoConvergenceError) as exc:
            engine.run(four_state, schedules.RoundRobin(), cash=np.array([0.1, 0.0, -0.1, 0.0]), max_steps=1)
        res = exc.value.result
        assert res.pi_hat is None and (res.state.t, res.state.updates) == (1, 0)
        assert len(res.trace.rows) == 2  # the start row and the end row

    def test_google_maxc_ties_go_to_the_first_node(self, kernel):
        # after the push from node 0, nodes 5 and 9 (outside its row, s zero
        # there) tie for the largest |C|: np.argmax takes 5, so must the scan
        if kernel != "c":
            pytest.skip("no compiler: the loop is not built")
        n = 12
        edges = [(0, j) for j in (1, 2, 3, 4)] + [(i, (i + 1) % n) for i in range(1, n)]
        s = np.ones(n)
        s[[0, 5, 9]] = 0.0
        P = google_matrix(np.array(edges, dtype=float), 0.85, s=s / s.sum(), n=n)
        st_ = engine.init(P)
        st_.C[:] = 0.0
        st_.C[[0, 5, 9]] = [-2.0, -0.5, 0.5]
        st_.cash_l1 = 3.0
        pushed = []
        for compiled in (False, True):
            state = engine.SolverState(**vars(st_))
            state.C, state.H = st_.C.copy(), st_.H.copy()
            sched = schedules.MaxCash().bind(P)
            if compiled:
                assert pushloop.bind(P, "maxc").advance(state, sched, 1e-10, state.t + 2, 10**9) == 2
            else:
                for _ in range(2):
                    engine.step(state, sched.next_nodes(state.C), P)
            pushed.append((np.flatnonzero(state.H != st_.H).tolist(), state.C.tobytes()))
        assert pushed[0][0] == [0, 5]
        assert pushed[1] == pushed[0]

    @pytest.mark.parametrize(
        "sched_name, check",
        [
            pytest.param(name, check, id=check if name == "rr" else f"{name}-{check}")
            for name in ("rr", "theta:1", "maxc", "pc:1")
            for check in ("guard", "eps", "max_steps")
        ],
    )
    def test_loop_returns_before_a_step_python_must_check(self, sched_name, check, kernel):
        # each kind's loop makes the checks itself
        if kernel != "c":
            pytest.skip("no compiler: the loop is not built")
        P = _chain("sbm80")
        sched = schedules.parse_schedule(sched_name).bind(P)
        sched.restart()
        loop = pushloop.bind(P, sched.push_loop)
        st_ = engine.init(P)
        while st_.t < 100:  # stops at max_steps (theta also at its refresh)
            assert loop.advance(st_, sched, 1e-10, 100, 10**9) > 0
            assert st_.l1_err <= engine.DRIFT_TOL * st_.cash_l1  # as after engine.step
        assert st_.t == 100
        st_.total_history = 0.0 if check == "guard" else st_.total_history
        eps = st_.cash_l1 if check == "eps" else 1e-10
        max_steps = st_.t if check == "max_steps" else 200
        rng = getattr(sched, "rng", None)
        before = TestStep._snapshot(st_), sched._k, rng and rng.bit_generator.state
        assert loop.advance(st_, sched, eps, max_steps, 10**9) == 0
        assert (TestStep._snapshot(st_), sched._k, rng and rng.bit_generator.state) == before

    @pytest.mark.parametrize("stride", [None, 1], ids=["stride-n", "stride-1"])
    @pytest.mark.parametrize("make", [
        lambda: _chain("sbm80"),
        lambda: _chain("google-dangling"),
        lambda: GaussSeidelRows(_chain("sbm80")),
    ], ids=["raw", "google", "gs-rows"])
    @pytest.mark.parametrize("sched_name", ["theta:1", "theta:2"])
    def test_advance_takes_a_step_after_every_refresh(self, sched_name, make, stride, kernel, monkeypatch):
        # advance refreshes theta when k % n == 0 unconditionally: engine.run calls it only where
        # the loop then takes a step, so no refresh is charged twice
        if kernel != "c":
            pytest.skip("no compiler: the loop is not built")
        P = make()
        entered = []
        advance = pushloop.Loop.advance

        def wrapped(loop, state, schedule, *args):
            k = schedule._k
            done = advance(loop, state, schedule, *args)
            entered.append((k, done))
            return done

        monkeypatch.setattr(pushloop.Loop, "advance", wrapped)
        compiled = _replay(P, schedules.parse_schedule(sched_name), stride=stride)
        assert compiled[0] == "c"
        due = [done for k, done in entered if k % P.n == 0]
        assert len(due) > 1 and min(due) >= 1
        monkeypatch.setattr(pushloop, "load", lambda: None)
        assert _replay(P, schedules.parse_schedule(sched_name), stride=stride) == ("py", compiled[1])

    @pytest.mark.parametrize("sched_name", ["rr", "theta:1", "maxc", "pc:1"])
    def test_advance_leaves_cash_l1_within_the_drift_limit(self, sched_name, kernel):
        # every push adds the n restart terms' rounding to the bound, which
        # passes DRIFT_TOL within a few thousand pushes: advance syncs then,
        # so the next call runs on, not one step per call
        if kernel != "c":
            pytest.skip("no compiler: the loop is not built")
        P = _dangling_google(2000, 4, 5)
        sched = schedules.parse_schedule(sched_name).bind(P)
        sched.restart()
        loop = pushloop.bind(P, sched.push_loop)
        st_ = engine.init(P)
        synced, calls = [], 0
        while st_.t < 10_000:
            err = st_.l1_err
            assert loop.advance(st_, sched, 1e-30, 10_000, 10**9) > 0
            calls += 1
            assert st_.l1_err <= engine.DRIFT_TOL * st_.cash_l1
            synced.append(st_.l1_err < err or st_.l1_err == 0.0)
        assert any(synced) and calls < 60

    def test_forwarding_wrappers_take_the_loop(self, kernel, monkeypatch):
        P = _chain("sbm80")
        sched = schedules.Theta(1.0)
        wrapped = _Forward(sched)
        got, outcome = _replay(_Forward(P), wrapped)
        assert got == kernel
        assert vars(wrapped).keys() == {"_obj"}  # no write landed on the wrapper
        with monkeypatch.context() as m:
            m.setattr(pushloop, "load", lambda: None)
            python = schedules.Theta(1.0)
            assert _replay(P, python) == ("py", outcome)
        assert (python._k, python.theta, python.scan_cost) == (sched._k, sched.theta, sched.scan_cost)

    @pytest.mark.parametrize("sched", [schedules.RandomNode(3)], ids=["rand"])
    def test_other_schedules_take_python_steps(self, sched):
        assert _replay(_chain("sbm80"), sched)[0] == "py"

    @pytest.mark.parametrize("stride", [None, 1, 37], ids=["stride-n", "stride-1", "stride-37"])
    @pytest.mark.parametrize("max_steps", [60_000, 5000], ids=["converged", "max-steps"])
    def test_pc_generator_ends_where_the_python_path_does(self, stride, max_steps, monkeypatch):
        # the loop draws at its picks, and only there
        P = _chain("sbm80")
        compiled = schedules.ProportionalCash(4)
        _replay(P, compiled, stride=stride, max_steps=max_steps)
        with monkeypatch.context() as m:
            m.setattr(pushloop, "load", lambda: None)
            python = schedules.ProportionalCash(4)
            _replay(P, python, stride=stride, max_steps=max_steps)
        assert compiled._k == python._k
        assert compiled.rng.bit_generator.state == python.rng.bit_generator.state
        assert compiled.rng.random() == python.rng.random()

    def test_pc_loop_leaves_no_cash_to_python(self, kernel):
        if kernel != "c":
            pytest.skip("no compiler: the loop is not built")
        P = _chain("sbm80")
        sched = schedules.ProportionalCash(0).bind(P)
        sched.restart()
        st_ = engine.init(P)
        st_.C[:] = 0.0  # a zero total: Python raises, the loop takes no step
        before = sched.rng.bit_generator.state
        assert pushloop.bind(P, "pc").advance(st_, sched, 1e-10, 1000, 10**9) == 0
        assert sched.rng.bit_generator.state == before and sched._k == 0
        with pytest.raises(AllCashZeroError):
            sched.next_nodes(st_.C)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pc_loop_leaves_a_total_that_is_not_finite_to_python(self, bad, kernel):
        # Python raises before it draws; the loop takes no step and leaves the generator as it was
        if kernel != "c":
            pytest.skip("no compiler: the loop is not built")
        P = _chain("sbm80")
        sched = schedules.ProportionalCash(0).bind(P)
        sched.restart()
        st_ = engine.init(P)
        st_.C[5] = bad  # past the first cash at entry 0
        st_.cash_l1, st_.l1_err = float(np.abs(st_.C).sum()), 0.0
        before = sched.rng.bit_generator.state
        assert pushloop.bind(P, "pc").advance(st_, sched, 1e-10, 1000, 10**9) == 0
        assert sched.rng.bit_generator.state == before and sched._k == 0
        with pytest.raises(ValueError, match="not finite"):
            sched.next_nodes(st_.C)
        assert sched.rng.bit_generator.state == before

    @pytest.mark.parametrize("u, node", [(0.0, 3), (0.25, 5), (0.5, 7), (0.75, 7)])
    def test_pc_draw_on_a_share_picks_past_it(self, u, node, kernel):
        # as searchsorted(side="right"): u equal to a cumulative share skips that node
        if kernel != "c":
            pytest.skip("no compiler: the loop is not built")
        P = _chain("sbm80")
        st_ = engine.init(P)
        st_.C[:] = 0.0
        st_.C[[3, 5, 7]] = [0.25, -0.25, 0.5]  # shares 0.25, 0.5, 1 exactly
        st_.cash_l1 = 1.0
        python = schedules.ProportionalCash(0).bind(P)
        python.rng = _FixedDraws([u])
        assert python.next_nodes(st_.C.copy())[0] == node
        sched = schedules.ProportionalCash(0).bind(P)
        sched.rng = _FixedDraws([u])
        H = st_.H.copy()
        assert pushloop.bind(P, "pc").advance(st_, sched, 1e-10, st_.t + 1, 10**9) == 1
        assert np.flatnonzero(st_.H != H).tolist() == [node]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("chain", ["two-wheels", "sbm80"])
    def test_pc_replays_the_choice_rule(self, chain, seed, kernel):
        # the pick rule that rng.choice(n, p=|C|/total) applied before the loop
        class ChoicePc(schedules.ProportionalCash):
            push_loop = None

            def next_nodes(self, C):
                w = np.abs(C)
                total = w.sum()
                if total <= 0.0:
                    raise AllCashZeroError("all cash is zero")
                self._k += 1
                return np.array([self.rng.choice(self.n, p=w / total)], dtype=np.int64)

        P = _chain(chain)
        old = _replay(P, ChoicePc(seed))
        new = _replay(P, schedules.ProportionalCash(seed))
        assert (old[0], new[0]) == ("py", kernel)
        assert new[1] == old[1]  # H bytes, trace rows and counters

    @given(
        which=st.sampled_from(["sparse", "google", "damped", "gauss-seidel", "meanfield"]),
        n=st.integers(2, 60),
        degree=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        pc_seed=st.integers(0, 100),
        stride=st.sampled_from([1, 13, None]),
    )
    @settings(max_examples=40, deadline=None)
    def test_pc_property_matches_the_python_path(self, which, n, degree, seed, pc_seed, stride):
        # every pick of the cached prefix and its bracket is the Python pick:
        # same H, C, trace rows and generator state, byte for byte
        cash = None
        if which == "sparse":
            P = _random_sparse_chain(n, degree, seed)
        elif which == "gauss-seidel":
            P = GaussSeidelRows(ring_random_chain(n, degree, seed))  # the ring leaves no row absorbing
        elif which == "meanfield":
            P = models.meanfield_sbm([2 + n % 13, 1 + degree, 1 + seed % 7], 0.3, 0.02)
        else:
            P = _dangling_google(n, degree, seed)
            if which == "damped":  # gso:pc, the positive-cash push solver
                P, cash = P.damped, (1.0 - P.c) * P.s
        outcomes = []
        for load in (pushloop.load, lambda: None):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(pushloop, "load", load)
                sched = schedules.ProportionalCash(pc_seed)
                got = _replay(P, sched, cash=cash, eps=1e-12, stride=stride, max_steps=40 * P.n)
            outcomes.append((got[1], sched._k, sched.rng.bit_generator.state))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("entry", ["synced", "near-drift-limit"])
    @pytest.mark.parametrize("chain", ["sbm80", "ring1000", "google-dangling"])
    def test_pc_draws_on_the_shares_take_the_exact_pick(self, chain, entry, kernel):
        # Each draw is put on a cumulative share of the cash it picks from, or
        # next to one: the bracket of the total cannot place such a draw, so
        # most picks take the exact fallback.  They must still be the Python
        # picks.  "synced" makes every pick right after an exact sum, where
        # the bracket is its rounding terms alone; "near-drift-limit" enters
        # with l1_err at 90% of its limit, a bracket ~2e-9 wide, so draws 1e-10
        # past a share fall in it too.
        if kernel != "c":
            pytest.skip("no compiler: the loop is not built")
        P = _chain(chain)
        steps = 600
        synced = entry == "synced"
        start = engine.init(P)
        if not synced:
            start.l1_err = 0.9 * engine.DRIFT_TOL * start.cash_l1  # a wider bound holds as well

        class OnShares:
            """Draws put on the shares of the cash of ``state``, recorded in turn."""

            def __init__(self, state):
                self.state, self.rng, self.drawn = state, np.random.default_rng(5), []

            def random(self):
                cdf = np.cumsum(np.abs(self.state.C))
                cdf /= cdf[-1]
                j = int(self.rng.choice(np.flatnonzero(self.state.C)))
                below = cdf[j - 1] if j else 0.0
                u = [below, np.nextafter(cdf[j], 0.0), below + 1e-10 * cdf[j]][len(self.drawn) % 3]
                self.drawn.append(float(min(u, np.nextafter(1.0, 0.0))))
                return self.drawn[-1]

        python = engine.SolverState(**vars(start))
        python.C, python.H = start.C.copy(), start.H.copy()
        sched = schedules.ProportionalCash(0).bind(P)
        sched.rng = OnShares(python)
        for _ in range(steps):
            if synced:
                engine.sync_cash_l1(python)
            engine.step(python, sched.next_nodes(python.C), P)

        compiled = engine.SolverState(**vars(start))
        compiled.C, compiled.H = start.C.copy(), start.H.copy()
        loop = pushloop.bind(P, "pc")
        fixed = schedules.ProportionalCash(0).bind(P)
        fixed.rng = _FixedDraws(sched.rng.drawn)
        while compiled.t < python.t:
            if synced:
                engine.sync_cash_l1(compiled)
            assert loop.advance(compiled, fixed, 1e-30, compiled.t + 1 if synced else python.t, 10**9) > 0
        assert (fixed._k, fixed.rng.state) == (sched._k, steps)
        # the incremental ||C||_1 of the two paths may differ between syncs (numpy
        # sums a row pairwise, the loop in sequence); the exact sums agree
        for state in (compiled, python):
            engine.sync_cash_l1(state)
        assert TestStep._snapshot(compiled)[:-1] == TestStep._snapshot(python)[:-1]

    @pytest.mark.parametrize("kind", ["rr", "theta", "maxc", "pc"])
    def test_out_of_memory_return_takes_no_step(self, kind, monkeypatch):
        # a loop returns -1 when an allocation fails, before any step
        def out_of_memory(*args):
            return -1

        P = _chain("sbm80")
        name = {"theta": "theta:1", "pc": "pc:3"}.get(kind, kind)
        sched = schedules.parse_schedule(name).bind(P)
        sched.restart()
        loop = pushloop.Loop(out_of_memory, P.csr_push, P.n, kind)
        st_ = engine.init(P)
        rng = getattr(sched, "rng", None)
        before = TestStep._snapshot(st_), sched._k, rng and rng.bit_generator.state
        assert loop.advance(st_, sched, 1e-10, 1000, 10**9) == 0
        assert (TestStep._snapshot(st_), sched._k, rng and rng.bit_generator.state) == before
        # a run whose loop always fails takes the Python steps, with their bytes
        monkeypatch.setattr(pushloop, "bind", lambda P, kind: pushloop.Loop(out_of_memory, P.csr_push, P.n, kind))
        failing = _replay(P, schedules.parse_schedule(name))[1]
        monkeypatch.setattr(pushloop, "load", lambda: None)
        assert failing == _replay(P, schedules.parse_schedule(name))[1]

    def test_no_compiler_falls_back(self, tmp_path, monkeypatch):
        P = _chain("two-wheels")
        expected = _replay(P, schedules.MaxCash())[1]
        monkeypatch.setenv("CC", "false")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        pushloop.load.cache_clear()
        try:
            assert pushloop.load() is None
            assert _replay(P, schedules.MaxCash()) == ("py", expected)
        finally:
            monkeypatch.undo()
            pushloop.load.cache_clear()
        assert list(tmp_path.rglob("*.so")) == []

    def test_library_cached_by_key(self, tmp_path, kernel, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        pushloop.load.cache_clear()
        try:
            loaded = pushloop.load() is not None
        finally:
            monkeypatch.undo()
            pushloop.load.cache_clear()
        assert loaded == (kernel == "c")
        if loaded:
            (lib,) = (tmp_path / "rlgl").iterdir()  # no temp file left beside it
            assert lib.name.startswith("push-") and lib.suffix == ".so"

    @given(
        n=st.integers(2, 40),
        degree=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        which=st.sampled_from(["rr", "theta:1", "theta:2", "maxc", "pc:5"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_cash_l1_within_bound_at_every_return(self, n, degree, seed, which):
        P = _random_sparse_chain(n, degree, seed)
        seen = []
        sync = engine.sync_cash_l1

        def checked_sync(state):
            seen.append(abs(state.cash_l1 - float(np.abs(state.C).sum())) <= state.l1_err)
            sync(state)

        engine.sync_cash_l1 = checked_sync
        try:
            _replay(P, schedules.parse_schedule(which), eps=1e-12, stride=1, max_steps=20 * n)
        finally:
            engine.sync_cash_l1 = sync
        assert seen and all(seen)

    @given(
        n=st.integers(2, 40),
        degree=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        which=st.sampled_from(["rr", "theta:1", "theta:2", "maxc", "pc:5"]),
        stride=st.sampled_from([1, 7, None]),
    )
    @settings(max_examples=40, deadline=None)
    def test_google_cash_l1_within_bound_at_every_return(self, n, degree, seed, which, stride):
        P = _dangling_google(n, degree, seed)
        seen = []
        sync = engine.sync_cash_l1

        def checked_sync(state):
            seen.append(abs(state.cash_l1 - float(np.abs(state.C).sum())) <= state.l1_err)
            sync(state)

        engine.sync_cash_l1 = checked_sync
        try:
            res = engine.run(P, schedules.parse_schedule(which), eps=1e-12, trace_stride=stride,
                             max_steps=20 * n)
        except (NoConvergenceError, DegenerateHistoryError) as exc:
            res = exc.result
        finally:
            engine.sync_cash_l1 = sync
        assert seen and all(seen)
        assert res.state.max_l1_increase <= 1e-14  # criterion 7, over every push


# Sizes around the powers of two: the root as the only leaf (1), full trees
# (2, 4, 8, 16) and trees padded on the right (3, 5, 9, 17).
TREE_SIZES = [1, 2, 3, 4, 5, 8, 9, 16, 17]


def _cycle(n):
    """The directed cycle 0 -> 1 -> ... -> n-1 -> 0 (a self-loop when n = 1)."""
    return build_transition([(i, (i + 1) % n) for i in range(n)], n)


def _complete(n):
    """Every node to every node, itself included: every entry 1/n."""
    return build_transition([(i, j) for i in range(n) for j in range(n)], n)


def _half_dangling(n):
    """Arcs i -> i+1 and i -> i+2 (mod n) from the even nodes; the odd nodes dangle."""
    return [(i, (i + d) % n) for i in range(0, n, 2) for d in (1, 2)]


def _tied_cash(n):
    """Cash of equal |C| on most nodes, in both signs, and +0.0 and -0.0 between."""
    return np.resize([1.0, -0.0, -1.0, 0.0, 1.0, -1.0], n)


class TestMaxCashTies:
    """MaxCash's compiled pick (a winner tree) against np.argmax(np.abs(C)) where |C| ties exactly."""

    @pytest.mark.parametrize("stride", [None, 1], ids=["stride-n", "stride-1"])
    @pytest.mark.parametrize("start", ["uniform", "point-mass", "tied-cash"])
    @pytest.mark.parametrize("graph", ["cycle", "complete"])
    @pytest.mark.parametrize("n", TREE_SIZES)
    def test_identical_runs(self, n, graph, start, stride, kernel, monkeypatch):
        # From a uniform start every column of the complete graph sums the same
        # terms, so all of C ties, at 0.0 where the sum is exact (as on the
        # cycle) and else at a rounding error, which eps 1e-30 lets the run push.
        # A point mass on the last node leaves the other n - 1 entries tied.
        P = (_cycle if graph == "cycle" else _complete)(n)
        kw = {"cash": _tied_cash(n)} if start == "tied-cash" else {}
        if start != "tied-cash":
            kw["M0"] = np.full(n, 1.0 / n) if start == "uniform" else np.eye(n)[n - 1]
        got, _ = _three_ways(monkeypatch, P, "maxc", eps=1e-30, stride=stride, max_steps=500, **kw)
        assert got == kernel

    @pytest.mark.parametrize("stride", [None, 1], ids=["stride-n", "stride-1"])
    @pytest.mark.parametrize("n", TREE_SIZES)
    def test_google_matrix_with_dangling_rows(self, n, stride, kernel, monkeypatch):
        # gso:maxc's run: the damped copy from the cash (1 - c) s, which ties
        # wherever s does, with a rebuild after each dangling push, whose add
        # of s moves the entries by unequal amounts; then the Google matrix
        # itself, whose every push adds the restart part
        s = np.resize([1.0, 2.0, 0.0], n)
        G = google_matrix(_half_dangling(n), 0.85, s=s / s.sum(), n=n)
        got, outcome = _three_ways(monkeypatch, G.damped, "maxc", cash=(1.0 - G.c) * G.s, eps=1e-12,
                                   stride=stride)
        assert got == kernel
        assert outcome[0] and outcome[5] > 0  # converged, after pushes
        got, outcome = _three_ways(monkeypatch, G, "maxc", eps=1e-12, stride=stride)
        assert got == kernel
        assert outcome[0]



class TestRestartPass:
    """The compiled restart add, two lanes of sums over the pairs of C, against the Python steps."""

    @pytest.mark.parametrize("sched_name", ["rr", "theta:1", "maxc", "pc:1"])
    @pytest.mark.parametrize("view", ["google", "gauss-seidel"])
    def test_identical_runs_on_odd_n(self, view, sched_name, kernel, monkeypatch):
        # n odd and past 4096: the pass ends on an unpaired entry.  A push on
        # the Gauss-Seidel view skips C[i], so its pass runs in two parts, the
        # second starting on an odd index when i is even.  Dangling rows add
        # the dangling share, the others the restart share.
        P = _dangling_google(4097, 3, 4097)
        if view == "gauss-seidel":
            P = GaussSeidelRows(P)
        got, outcome = _three_ways(monkeypatch, P, sched_name, eps=1e-30, stride=500, max_steps=6000)
        assert got == kernel
        assert outcome[4] == 6000 and outcome[5] > 1000  # max_steps, after pushes

    @pytest.mark.parametrize("view", ["google", "gauss-seidel"])
    @pytest.mark.parametrize(
        "pushed, tied",
        [(0, (4, 8)), (0, (5, 9)), (0, (5, 8)), (0, (4, 9)), (0, (11, 12)),
         (6, (5, 7)), (6, (4, 12)), (6, (5, 8)), (6, (4, 7))],
    )
    def test_maxc_ties_go_to_the_first_node(self, pushed, tied, view, kernel):
        # The push of cash -2 from `pushed` leaves its four targets near -0.455
        # and the tied pair, off its row and with s zero there, at |C| = 0.5:
        # np.argmax takes the lower of the pair, and so must the lanes, with
        # the pair in one lane (even, or odd) or in both, the last entry (an
        # unpaired one, n being odd) among them.  On the Gauss-Seidel view the
        # push of 6 passes over 0..5, then 7..12, the pair on both sides.
        if kernel != "c":
            pytest.skip("no compiler: the loop is not built")
        n = 13
        others = [j for j in range(n) if j != pushed and j not in tied]
        edges = [(pushed, j) for j in others[:4]] + [(i, (i + 1) % n) for i in range(n) if i != pushed]
        s = np.ones(n)
        s[[pushed, *tied]] = 0.0
        P = google_matrix(np.array(edges, dtype=float), 0.85, s=s / s.sum(), n=n)
        if view == "gauss-seidel":
            P = GaussSeidelRows(P)
        st_ = engine.init(P)
        st_.C[:] = 0.0
        st_.C[[pushed, *tied]] = [-2.0, -0.5, 0.5]
        st_.cash_l1 = 3.0
        pushed_nodes = []
        for compiled in (False, True):
            state = engine.SolverState(**vars(st_))
            state.C, state.H = st_.C.copy(), st_.H.copy()
            sched = schedules.MaxCash().bind(P)
            if compiled:
                assert pushloop.bind(P, "maxc").advance(state, sched, 1e-10, state.t + 2, 10**9) == 2
            else:
                for _ in range(2):
                    engine.step(state, sched.next_nodes(state.C), P)
            pushed_nodes.append((np.flatnonzero(state.H != st_.H).tolist(), state.C.tobytes()))
        assert pushed_nodes[0][0] == sorted([pushed, min(tied)])
        assert pushed_nodes[1] == pushed_nodes[0]

def _g17_lines(values):
    """Python's "%.17g" of each value, one line each: the bytes of a one-column table."""
    return "".join(["%.17g\n" % v for v in np.asarray(values, dtype=np.float64).tolist()]).encode()


def _format_rows(cells, cap=None):
    """``rlgl_format_rows``' bytes for a (rows, cols) block of cells, or None when it declines."""
    cells = np.ascontiguousarray(cells, dtype=np.float64)
    cells = cells.reshape(len(cells), -1)
    out = np.empty(cells.size * engine.CELL_BYTES if cap is None else cap, dtype=np.uint8)
    size = pushloop.load().rlgl_format_rows(len(cells), cells.shape[1], cells.ctypes.data,
                                            pushloop.pow10_table().ctypes.data, out.ctypes.data, out.size)
    return None if size < 0 else out[:size].tobytes()


def _bit_patterns(seed, size):
    return np.random.default_rng(seed).integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)


class TestCompiledWriter:
    """``rlgl_format_rows`` writes every double as Python's "%.17g" does, byte for byte."""

    @pytest.fixture(autouse=True)
    def _compiled(self, kernel):
        if kernel != "c":
            pytest.skip("no compiler: write_csv formats every table with Python's %")
        assert pushloop.load() is not None

    def test_random_bit_patterns(self):
        # every exponent, NaNs with random payloads and signs among them
        values = _bit_patterns(31, 1 << 20)
        assert _format_rows(values) == _g17_lines(values)

    def test_special_values(self):
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
                        dtype=np.uint64).view(np.float64)
        values = np.array([0.0, -0.0, np.inf, -np.inf, *nans])
        assert _format_rows(values) == b"0\n-0\ninf\n-inf\n" + b"nan\n" * 4

    def test_subnormals_and_extremes(self):
        tiny = np.random.default_rng(7).integers(1, 1 << 52, size=100_000, dtype=np.uint64).view(np.float64)
        edges = [5e-324, 1e-323, np.nextafter(2.2250738585072014e-308, 0), 2.2250738585072014e-308,
                 np.finfo(np.float64).max, 1e-5, 1e-4, 0.5, 1e16, 1e17, 2.0**53 + 2, 123456789012345678.0]
        values = np.concatenate([tiny, edges, np.negative(edges)])
        assert _format_rows(values) == _g17_lines(values)
        # the longest cell, and the bytes write_csv sizes each cell for
        assert len(_format_rows([-2.2250738585072014e-308])) == engine.CELL_BYTES

    def test_powers_of_two_and_ten(self):
        powers = np.array([2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)])
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        assert _format_rows(values) == _g17_lines(values)

    def test_exact_ties_round_to_even(self):
        # x * 10^q exactly halfway between two 17-digit integers: the exact
        # fallback rounds to the even one
        assert _format_rows([1234567890123456.25, 1234567890123456.75]) == b"1234567890123456.2\n1234567890123456.8\n"
        k = np.random.default_rng(5).integers(1, 1 << 53, size=20_000).astype(np.float64)
        values = np.concatenate([k / 2.0**j for j in range(1, 9)] + [k * 2.0**j for j in range(1, 9)])
        assert _format_rows(values) == _g17_lines(values)

    def test_rows_of_several_columns(self):
        cells = np.array([[1.0, -0.5, 3e-7], [np.nan, 2.0**70, 0.1]])
        assert _format_rows(cells) == b"1,-0.5,2.9999999999999999e-07\nnan,1.1805916207174113e+21,0.10000000000000001\n"

    def test_declines_a_short_buffer(self):
        cells = np.full((3, 2), -2.2250738585072014e-308)
        assert _format_rows(cells, cap=6 * engine.CELL_BYTES - 1) is None
        assert _format_rows(cells, cap=6 * engine.CELL_BYTES) == b"-2.2250738585072014e-308,-2.2250738585072014e-308\n" * 3

    def test_comma_decimal_locale_same_bytes(self, tmp_path, comma_decimal_locale):
        # snprintf, the fallback for undecided cells, reads the locale's decimal
        # point: under a comma the library declines, and Python's % writes the table
        values = np.array([0.5, 1234567890123456.25, 7.0])
        assert _format_rows(values) is None
        engine.write_csv(tmp_path / "t.csv", ("v",), arrays=(values,))
        assert (tmp_path / "t.csv").read_bytes() == b"v\n" + _g17_lines(values)


class TestWriteCsv:
    """A numeric table, with the library and without, writes the bytes of its rows written one by one."""

    @pytest.fixture(params=["lib", "no-lib"])
    def library(self, request, monkeypatch):
        if request.param == "no-lib":
            monkeypatch.setattr(pushloop, "load", lambda: None)
        return request.param

    @pytest.mark.parametrize("block", [1, 7, engine.CSV_BLOCK])
    def test_broadcast_table_in_blocks(self, tmp_path, monkeypatch, library, block):
        # a grid as PolicyGrid writes it: an axis per dimension, int8 and float cells
        monkeypatch.setattr(engine, "CSV_BLOCK", block)
        rng = np.random.default_rng(3)
        z1, z2 = rng.random(9), rng.random(5)
        A, V = rng.integers(-1, 5, size=(9, 5)).astype(np.int8), _bit_patterns(4, 45).reshape(9, 5)
        engine.write_csv(tmp_path / "arrays.csv", ("z1", "z2", "action", "V"), arrays=(z1[:, None], z2, A, V))
        rows = [(z1[i], z2[j], int(A[i, j]), V[i, j]) for i in range(9) for j in range(5)]
        engine.write_csv(tmp_path / "rows.csv", ("z1", "z2", "action", "V"), rows)
        assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_estimate_with_ids_past_2_53(self, tmp_path, library):
        # %.17g writes an integer id as the double nearest it, as the table does
        nodes = np.array([0, 2**53 - 1, 2**53 + 1, 2**62 + 3, 2**63 - 1], dtype=np.int64)
        x = _bit_patterns(11, nodes.size)
        engine.write_csv(tmp_path / "arrays.csv", ("node", "value"), arrays=(nodes, x))
        engine.write_csv(tmp_path / "rows.csv", ("node", "value"), zip(nodes.tolist(), x.tolist()))
        got = (tmp_path / "arrays.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()
        assert got.split(b"\n")[3].startswith(b"9007199254740992,")

    def test_empty_table(self, tmp_path, library):
        engine.write_csv(tmp_path / "t.csv", ("step", "residual"), arrays=(np.array([]), np.array([])))
        assert (tmp_path / "t.csv").read_bytes() == b"step,residual\n"
