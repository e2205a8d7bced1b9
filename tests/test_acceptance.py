"""Acceptance criteria, one test per numbered criterion.

Each test prints a [criterion N] PASS/FAIL line; tolerances are pinned in
the assertions.  Criterion 9b checks that the optimal block schedule's
tail rides the a3 turnpike: the line of equal per-node cash in the two
larger blocks, which a3 pushes keep invariant at the cheapest cost.  The
period-4 (a3,a3,a3,a5) motif once expected there is cost-dominated under
the exact block dynamics (scripts/block_schedule_study.py races it).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from rlgl import analysis, engine, mdp, models, schedules, solvers
from rlgl.errors import NoConvergenceError, NotMarkovError
from rlgl.matrix import augment_pagerank, build_transition, google_matrix, gth_stationary

from conftest import SBM80_SEEDS, dense_ergodic_chain, pagerank_graph_500, sbm80_instance


@contextmanager
def criterion(num, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {num}] PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_exact_degenerate_example(four_state):
    with criterion(1, "four-state exact regression and degenerate-history guard"):
        start = time.perf_counter()
        state = engine.init(four_state, np.array([1.0, 0, 0, 0]))
        assert np.abs(state.C - np.array([-1.0, 0.5, 0.5, 0.0])).max() <= 1e-15
        assert np.abs(state.H - np.array([1.0, 0, 0, 0])).max() <= 1e-15
        engine.step(state, [0], four_state)
        assert np.abs(state.C).max() <= 1e-15
        assert np.abs(state.H).max() <= 1e-15
        assert engine.guard_total_history(state, schedules.RoundRobin()) != engine.GUARD_CONTINUE
        # the run loop reacts by rotating the deterministic schedule
        res = engine.run(four_state, schedules.RoundRobin(), np.array([1.0, 0, 0, 0]), eps=1e-12)
        assert res.guard_events and res.restarts >= 1
        assert time.perf_counter() - start < 1.0


def _golden_tables(m1, m2, m3, m4):
    cycle1 = {
        "G": [1, 0, 2, 3],
        "H": [
            (m1, m2, m3, m4),
            (m1, m1 / 2, m3, m4),
            (m4, m1 / 2, m3, m4),
            (m4, m1 / 2, (m1 + m4) / 2, m4),
            (m4, m1 / 2, (m1 + m4) / 2, (m1 + m4) / 2),
            (m4, m4 / 2, (m1 + m4) / 2, (m1 + m4) / 2),
            ((m1 + m4) / 2, m4 / 2, (m1 + m4) / 2, (m1 + m4) / 2),
            ((m1 + m4) / 2, m4 / 2, (m1 + 3 * m4) / 4, (m1 + m4) / 2),
            ((m1 + m4) / 2, m4 / 2, (m1 + 3 * m4) / 4, (m1 + 3 * m4) / 4),
            ((m1 + m4) / 2, (m1 + m4) / 4, (m1 + 3 * m4) / 4, (m1 + 3 * m4) / 4),
            ((m1 + 3 * m4) / 4, (m1 + m4) / 4, (m1 + 3 * m4) / 4, (m1 + 3 * m4) / 4),
        ],
        "C": [
            (m4 - m1, m1 / 2 - m2, m1 / 2 + m2 - m3, m3 - m4),
            (m4 - m1, 0.0, m1 - m3, m3 - m4),
            (0.0, (m4 - m1) / 2, (m1 + m4) / 2 - m3, m3 - m4),
            (0.0, (m4 - m1) / 2, 0.0, (m1 - m4) / 2),
            ((m1 - m4) / 2, (m4 - m1) / 2, 0.0, 0.0),
            ((m1 - m4) / 2, 0.0, (m4 - m1) / 2, 0.0),
            (0.0, (m1 - m4) / 4, (m4 - m1) / 4, 0.0),
            (0.0, (m1 - m4) / 4, 0.0, (m4 - m1) / 4),
            ((m4 - m1) / 4, (m1 - m4) / 4, 0.0, 0.0),
            ((m4 - m1) / 4, 0.0, (m1 - m4) / 4, 0.0),
            (0.0, (m4 - m1) / 8, (m1 - m4) / 8, 0.0),
        ],
    }
    cycle2 = {
        "G": [0, 1, 3, 2],
        "H": [
            (m1, m2, m3, m4),
            (m4, m2, m3, m4),
            (m4, m4 / 2, m3, m4),
            (m4, m4 / 2, m3, m3),
            (m4, m4 / 2, m4, m3),
            (m3, m4 / 2, m4, m3),
            (m3, m3 / 2, m4, m3),
        ],
        "C": [
            (m4 - m1, m1 / 2 - m2, m1 / 2 + m2 - m3, m3 - m4),
            (0.0, m4 / 2 - m2, m2 + m4 / 2 - m3, m3 - m4),
            (0.0, 0.0, m4 - m3, m3 - m4),
            (m3 - m4, 0.0, m4 - m3, 0.0),
            (m3 - m4, 0.0, 0.0, m4 - m3),
            (0.0, (m3 - m4) / 2, (m3 - m4) / 2, m4 - m3),
            (0.0, 0.0, m3 - m4, m4 - m3),
        ],
    }
    return cycle1, cycle2


def test_criterion_2_golden_tables(four_state):
    with criterion(2, "golden push tables for both four-node cycles"):
        start = time.perf_counter()
        M0 = np.array([0.1, 0.2, 0.3, 0.4])
        cycle1, cycle2 = _golden_tables(*M0)
        for table in (cycle1, cycle2):
            state = engine.init(four_state, M0)
            for t, (eh, ec) in enumerate(zip(table["H"], table["C"])):
                assert np.abs(state.H - np.array(eh)).max() <= 1e-14, (table["G"], t)
                assert np.abs(state.C - np.array(ec)).max() <= 1e-14, (table["G"], t)
                engine.step(state, [table["G"][t % 4]], four_state)
        # first cycle admits the positivity certificate, second does not
        chk = analysis.cyclic_markov_check(four_state, [[g] for g in cycle1["G"]])
        assert (chk.r, chk.eta) == (1, 0.5)
        with pytest.raises(NotMarkovError):
            analysis.cyclic_markov_check(four_state, [[g] for g in cycle2["G"]])
        # the bad cycle plateaus at 2 |M0_3 - M0_4|
        state = engine.init(four_state, M0)
        for t in range(400):
            engine.step(state, [cycle2["G"][t % 4]], four_state)
        assert state.cash_l1 == pytest.approx(0.2, abs=1e-14)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_two_block_contraction():
    with criterion(3, "per-step contraction factors on the two-block model"):
        start = time.perf_counter()
        K, n, p, q = 5, 100, 0.1, 0.001
        mf = models.meanfield_sbm([K * n, n], p, q)
        forms = analysis.sbm2_closed_forms(p, q, K)
        plans = [
            (np.arange(K * n, (K + 1) * n), forms.factor_b2),
            (np.arange(0, K * n), forms.factor_b1),
            (np.arange((K + 1) * n), forms.lambda2),
        ]
        for nodes, target in plans:
            state = engine.init(mf)
            for _ in range(50):
                prev = state.cash_l1
                engine.step(state, nodes, mf)
                assert abs(state.cash_l1 / prev - target) <= 1e-10
        assert time.perf_counter() - start < 5.0


def test_criterion_4_cost_ratio():
    with criterion(4, "full-sweep vs small-block cost ratio near K^2"):
        start = time.perf_counter()
        K, n, p = 10, 200, 0.1
        q = 0.01 * p / K  # qK/p = 0.01
        eps = 1e-8
        mf = models.meanfield_sbm([K * n, n], p, q)
        res_pi = engine.run(mf, schedules.AllNodes(), eps=eps, max_steps=100_000)
        res_b2 = engine.run(
            mf, schedules.FixedBlocks([np.arange(K * n, (K + 1) * n)]), eps=eps, max_steps=100_000
        )
        ratio = res_pi.state.cum_cost / res_b2.state.cum_cost
        assert K**2 / 2 <= ratio <= 2 * K**2
        assert time.perf_counter() - start < 10.0


def test_criterion_5_power_iteration_equivalence():
    with criterion(5, "full-sweep runs equal dense power iterations"):
        for seed in range(10):
            P = dense_ergodic_chain(50, 100 + seed)
            D = P.to_dense()
            M0 = np.random.default_rng(seed).dirichlet(np.full(50, 1.0))
            state = engine.init(P, M0)
            x = M0.copy()
            for _ in range(100):
                assert np.abs(engine.estimate(state) - x).max() <= 1e-12
                engine.step(state, np.arange(50), P)
                x = x @ D


def test_criterion_6_push_solver_equivalence():
    with criterion(6, "positive-cash push solver mirrored on the auxiliary chain"):
        edges, n = pagerank_graph_500()
        c = 0.85
        G = google_matrix(edges, c, n=n)
        aug = augment_pagerank(edges, c, n=n)
        gso = engine.init(G.damped, cash=(1 - G.c) * G.s)
        M0 = np.zeros(n + 1)
        M0[0] = 1.0
        state = engine.init(aug, M0)
        for _ in range(2000):
            k = int(np.argmax(gso.C))
            engine.step(gso, [k], G.damped)
            engine.step(state, [k + 1], aug)
            assert np.abs(state.H[1:] - gso.H).max() <= 1e-12
            assert np.abs(state.C[1:] - gso.C).max() <= 1e-12


def test_criterion_7_oracle_convergence():
    with criterion(7, "all solvers reach the elimination oracle at 10 eps"):
        eps = 1e-10
        rng = np.random.default_rng(2024)
        for trial in range(20):
            n = int(rng.integers(10, 100))
            P = dense_ergodic_chain(n, 5000 + trial)
            pi = gth_stationary(P)
            for sched in (
                schedules.RoundRobin(),
                schedules.RandomNode(trial),
                schedules.MaxCash(),
                schedules.ProportionalCash(trial),
                schedules.Theta(1.0),
            ):
                res = engine.run(P, sched, eps=eps, max_steps=5_000_000)
                assert np.abs(res.pi_hat - pi).sum() <= 10 * eps
                assert abs(res.state.C.sum()) <= 1e-12
                assert res.state.max_l1_increase <= 1e-14
                cash = res.trace.column("cash_l1")
                assert np.all(np.diff(cash) <= 1e-14)
            assert np.abs(solvers.power_iteration(P, eps=eps).pi_hat - pi).sum() <= 10 * eps
            gs = solvers.gauss_seidel(P, eps=eps)
            assert np.abs(gs.pi_hat - pi).sum() <= 10 * eps
            assert abs(gs.state.C.sum()) <= 1e-12
            assert gs.state.max_l1_increase <= 1e-14
            assert np.abs(solvers.gmres_restarted(P, m=10, eps=eps).pi_hat - pi).sum() <= 10 * eps


def test_criterion_8_three_block_divergence():
    with criterion(8, "constant single-block schedules stall at the predicted limit"):
        sizes = np.array([50.0, 20.0, 10.0])
        p, q = 0.1, 0.01
        c0 = mdp.meanfield_init((50, 20, 10), p, q)
        N = sizes.sum()
        for i in range(3):
            others = [j for j in range(3) if j != i]
            limit = sum(
                sizes[j] * abs(c0.c[j] + c0.c[i] * sizes[i] / (N - sizes[i])) for j in others
            )
            assert limit > 0
            with pytest.raises(NoConvergenceError) as exc:
                mdp.simulate_policy(
                    c0, [mdp.Action(i + 1)], (50, 20, 10), p, q, eps=1e-10, max_steps=3000
                )
            sim = exc.value.result
            assert abs(sim.cash_l1[-1] - limit) <= 1e-8
            assert min(sim.cash_l1) >= limit - 1e-15


@pytest.fixture(scope="module")
def optimal_block_policy():
    sizes, p, q, eps = (50, 20, 10), 0.1, 0.01, 1e-10
    start = time.perf_counter()
    c0 = mdp.meanfield_init(sizes, p, q)
    grid = mdp.solve_policy(sizes, p, q, c0=c0, eps=eps, n_z1=1400, n_z2=81)
    sim = mdp.simulate_policy(c0, grid, sizes, p, q, eps=eps)
    sim_pi = mdp.simulate_policy(c0, [mdp.Action.A7], sizes, p, q, eps=eps)
    elapsed = time.perf_counter() - start
    return grid, sim, sim_pi, elapsed


def test_criterion_9a_policy_dominated_by_small_blocks(optimal_block_policy):
    with criterion("9a", "small-block actions hold the policy majority"):
        grid, _, _, elapsed = optimal_block_policy
        live = grid.A[1:]
        share = np.isin(live, (int(mdp.Action.A2), int(mdp.Action.A3))).mean()
        assert share > 0.5
        assert elapsed < 60.0


def _turnpike_share(actions, sizes, p, q, eps):
    """Share of the trajectory tail spent on a3 pushes at the a3 turnpike.

    Replays the actions from the mean-field start.  On the line c1 = c2,
    i.e. z2* = 1 + N2 / (N1 + N2), an a3 push keeps z2 and scales the
    total cash by N3 p / D3; a state counts as on it within two z2 cells
    of the default 81-cell grid.
    """
    z2_star = 1.0 + sizes[1] / (sizes[0] + sizes[1])
    c = mdp.meanfield_init(sizes, p, q).c
    on_turnpike = []
    for a in actions:
        _, z2 = mdp.encode_state(c, sizes, eps)
        on_turnpike.append(a == mdp.Action.A3 and abs(z2 - z2_star) <= 0.1)
        c = mdp.block_cash_update(c, sizes, p, q, a)
    return float(np.mean(on_turnpike[len(on_turnpike) // 4 :]))


def test_criterion_9b_turnpike_motif(optimal_block_policy):
    with criterion("9b", "a3 pushes on the a3 turnpike cover half the trajectory tail"):
        grid, sim, sim_pi, _ = optimal_block_policy
        model = (grid.sizes, grid.p, grid.q, grid.eps)
        # full sweeps never ride it, so the share separates schedules
        assert _turnpike_share(sim_pi.actions, *model) == 0.0
        # the optimal tail is long a3 runs broken by single a2/a5
        # corrections; the cost-dominated (a3,a3,a3,a5) cycle scores 0
        # (test_mdp.py::TestSimulate::test_a3_turnpike races the cycles)
        assert _turnpike_share(sim.actions, *model) >= 0.5


def test_criterion_9c_cost_advantage_over_full_sweeps(optimal_block_policy):
    with criterion("9c", "optimal schedule is at least 5x cheaper than full sweeps"):
        _, sim, sim_pi, _ = optimal_block_policy
        assert sim.converged and sim_pi.converged
        assert sim.cum_cost[-1] <= sim_pi.cum_cost[-1] / 5.0


def test_criterion_10_contraction_bound():
    with criterion(10, "damped-restart contraction bound holds on recorded traces"):
        graphs = [models.symmetrize(models.two_wheels()[0])]
        ns = [12]
        for seed in SBM80_SEEDS:
            e, n = sbm80_instance(seed)
            graphs.append(e)
            ns.append(n)
        assert len(graphs) == 5
        for edges, n in zip(graphs, ns):
            G = google_matrix(edges, 0.85, n=n)
            delta = analysis.dobrushin(G).value
            assert delta <= 0.85 + 1e-12
            bound = analysis.dobrushin_cycle_bound(delta, n)
            res = engine.run(G, schedules.RoundRobin(), eps=1e-10, max_steps=1_000_000)
            for row in res.trace.rows:
                t, cash = row[0], row[4]
                assert cash <= bound.at(t) + 1e-12


def test_criterion_11_heuristic_superiority():
    with criterion(11, "threshold schedule beats full sweeps; gmres restarts bounded"):
        for edges, n in (sbm80_instance(), (models.symmetrize(models.two_wheels()[0]), 12)):
            P = build_transition(edges, n)
            res_theta = engine.run(P, schedules.Theta(1.0), eps=1e-11, max_steps=5_000_000)
            res_pi = engine.run(P, schedules.AllNodes(), eps=1e-11, max_steps=100_000)
            assert res_theta.state.cash_l1 <= 1e-11
            assert res_theta.state.cum_cost < res_pi.state.cum_cost
        edges, n = pagerank_graph_500()
        G = google_matrix(edges, 0.85, n=n)
        res = solvers.gmres_restarted(G, m=10, eps=1e-11, max_restarts=20)
        assert res.converged
