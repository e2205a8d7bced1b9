import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlgl import engine, mdp, models
from rlgl.errors import (
    InvalidParamsError,
    NoConvergenceError,
    OutOfRangeError,
    ZeroCashError,
)

SIZES = (50, 20, 10)
P_, Q_ = 0.1, 0.01


def random_zero_sum(rng, sizes=SIZES):
    sizes = np.asarray(sizes, dtype=float)
    c = rng.normal(size=3)
    c[2] = -(sizes[0] * c[0] + sizes[1] * c[1]) / sizes[2]
    return c


class TestActions:
    def test_block_sets(self):
        assert mdp.Action.A1.blocks == (0,)
        assert mdp.Action.A5.blocks == (1, 2)
        assert mdp.Action.A7.blocks == (0, 1, 2)

    def test_seven_actions(self):
        assert len(list(mdp.Action)) == 7


class TestBlockCashUpdate:
    def test_single_block_keep_factor(self):
        sizes = np.asarray(SIZES, dtype=float)
        c = np.array([0.3, -0.5, -0.5])
        for i, action in enumerate((mdp.Action.A1, mdp.Action.A2, mdp.Action.A3)):
            den = sizes[i] * (P_ - Q_) + sizes.sum() * Q_
            out = mdp.block_cash_update(c, SIZES, P_, Q_, action)
            assert out[i] == pytest.approx(c[i] * sizes[i] * P_ / den, abs=1e-16)

    def test_zero_state_fixed(self):
        out = mdp.block_cash_update(np.zeros(3), SIZES, P_, Q_, mdp.Action.A7)
        assert np.array_equal(out, np.zeros(3))

    def test_symmetric_pair_stays_symmetric(self):
        # equal small blocks with equal cash keep equal cash under a5
        sizes = (30, 10, 10)
        c = np.array([-2.0 / 3.0, 1.0, 1.0])
        out = mdp.block_cash_update(c, sizes, P_, Q_, mdp.Action.A5)
        assert out[1] == pytest.approx(out[2], abs=1e-15)

    @given(seed=st.integers(0, 10_000), action=st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_zero_total_cash_preserved(self, seed, action):
        rng = np.random.default_rng(seed)
        c = random_zero_sum(rng)
        out = mdp.block_cash_update(c, SIZES, P_, Q_, action)
        sizes = np.asarray(SIZES, dtype=float)
        scale = max(1.0, np.abs(c).max())
        assert abs((sizes * out).sum()) <= 1e-13 * scale

    @given(seed=st.integers(0, 10_000), action=st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_every_action_weakly_contracts(self, seed, action):
        rng = np.random.default_rng(seed)
        c = random_zero_sum(rng)
        sizes = np.asarray(SIZES, dtype=float)
        out = mdp.block_cash_update(c, SIZES, P_, Q_, action)
        assert (sizes * np.abs(out)).sum() <= (sizes * np.abs(c)).sum() * (1 + 1e-14)

    def test_agrees_with_engine_on_expanded_chain(self):
        sizes = (5, 2, 1)
        mf = models.meanfield_sbm(sizes, P_, Q_)
        rng = np.random.default_rng(17)
        for _ in range(20):
            c = random_zero_sum(rng, sizes)
            for action in mdp.Action:
                expected = mdp.block_cash_update(c, sizes, P_, Q_, action)
                state = engine.init(mf)
                state.C = np.repeat(c, sizes)
                state.cash_l1 = float(np.abs(state.C).sum())
                G = np.concatenate([mf.block_nodes(b) for b in action.blocks])
                engine.step(state, G, mf)
                per_block = np.array([state.C[mf.starts[b]] for b in range(3)])
                assert np.abs(per_block - expected).max() <= 1e-12


class TestActionCost:
    def test_hand_value(self):
        assert mdp.action_cost(mdp.Action.A3, SIZES, P_, Q_) == 17.0

    def test_composites_sum(self):
        k = {a: mdp.action_cost(a, SIZES, P_, Q_) for a in mdp.Action}
        assert k[mdp.Action.A4] == k[mdp.Action.A1] + k[mdp.Action.A2]
        assert k[mdp.Action.A5] == k[mdp.Action.A2] + k[mdp.Action.A3]
        assert k[mdp.Action.A7] == k[mdp.Action.A1] + k[mdp.Action.A2] + k[mdp.Action.A3]

    def test_q_zero_reduces_to_intra(self):
        sizes = np.asarray(SIZES, dtype=float)
        for i, a in enumerate((mdp.Action.A1, mdp.Action.A2, mdp.Action.A3)):
            assert mdp.action_cost(a, SIZES, P_, 0.0) == pytest.approx(P_ * sizes[i] ** 2)


class TestStateTransform:
    def test_z1_zero_at_eps(self):
        c = np.array([0.001, -0.001, -0.003])
        sizes = np.asarray(SIZES, dtype=float)
        l1 = (sizes * np.abs(c)).sum()
        z1, _ = mdp.encode_state(c, SIZES, eps=l1)
        assert z1 == pytest.approx(0.0, abs=1e-14)

    def test_case_values(self):
        assert mdp.decode_state(1.5) == (0.5, -1.0)
        assert mdp.decode_state(0.0) == (-0.5, -0.5)
        assert mdp.decode_state(-1.5) == (-1.0, 0.5)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            mdp.decode_state(2.5)

    def test_zero_cash_rejected(self):
        with pytest.raises(ZeroCashError):
            mdp.encode_state(np.zeros(3), SIZES, 1e-10)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = random_zero_sum(rng)
            z = mdp.encode_state(c, SIZES, 1e-10)
            z_neg = mdp.encode_state(-c, SIZES, 1e-10)
            assert z == pytest.approx(z_neg, abs=1e-14)

    def test_roundtrip_identity(self):
        for z2 in np.linspace(-2.0, 2.0, 1000):
            y2, y3 = mdp.decode_state(z2)
            assert y2 - y3 == pytest.approx(z2, abs=1e-12)
            assert -y2 - y3 >= -1e-15  # reconstructed y1 stays nonnegative

    def test_encode_decode_consistency(self):
        rng = np.random.default_rng(4)
        sizes = np.asarray(SIZES, dtype=float)
        for _ in range(200):
            c = random_zero_sum(rng)
            z1, z2 = mdp.encode_state(c, SIZES, 1e-10)
            back = mdp.cash_from_state(z1, z2, SIZES, 1e-10)
            flip = -c if c[0] < 0 else c
            assert np.abs(back - flip).max() <= 1e-12 * max(1.0, np.abs(c).max())


class TestMeanfieldInit:
    def test_equal_blocks_zero(self):
        c0 = mdp.meanfield_init((10, 10, 10), P_, Q_)
        assert np.abs(c0.c).max() <= 1e-16

    def test_signs(self):
        c0 = mdp.meanfield_init(SIZES, P_, Q_)
        assert c0.c[0] < 0  # largest block starts negative
        assert c0.c[2] > 0  # smallest block starts positive

    def test_conservation(self):
        c0 = mdp.meanfield_init(SIZES, P_, Q_)
        assert abs(c0.total) <= 1e-15

    def test_sizes_must_be_ordered(self):
        with pytest.raises(InvalidParamsError):
            mdp.meanfield_init((10, 20, 50), P_, Q_)


class TestSolvePolicy:
    @pytest.fixture(scope="class")
    @classmethod
    def grid(cls):
        return mdp.solve_policy(SIZES, P_, Q_, eps=1e-6, n_z1=200, n_z2=41)

    def test_terminal_band_zero(self, grid):
        assert np.all(grid.V[0] == 0.0)
        assert np.all(grid.A[0] == -1)

    def test_value_nonnegative_and_monotone(self, grid):
        assert grid.V.min() >= 0.0
        assert np.all(np.diff(grid.V, axis=0) >= -1e-9)

    def test_one_step_cells_cost_min_kappa(self, grid):
        # cells one grid row above the target pay exactly one cheapest action
        kappa_min = min(grid.kappa.values())
        assert grid.V[1].min() == pytest.approx(kappa_min)

    def test_policy_csv(self, grid, tmp_path):
        path = tmp_path / "policy.csv"
        grid.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "z1,z2,action,V"
        assert len(lines) == 1 + 200 * 41


class TestSimulate:
    def test_constant_single_block_diverges(self):
        c0 = mdp.meanfield_init(SIZES, P_, Q_)
        sizes = np.asarray(SIZES, dtype=float)
        N = sizes.sum()
        for i in range(3):
            others = [j for j in range(3) if j != i]
            limit = sum(
                sizes[j] * abs(c0.c[j] + c0.c[i] * sizes[i] / (N - sizes[i])) for j in others
            )
            with pytest.raises(NoConvergenceError) as exc:
                mdp.simulate_policy(c0, [mdp.Action(i + 1)], SIZES, P_, Q_, eps=1e-10, max_steps=3000)
            sim = exc.value.result
            assert sim.cash_l1[-1] == pytest.approx(limit, abs=1e-10)
            assert min(sim.cash_l1) >= limit - 1e-15

    def test_full_sweep_converges(self):
        c0 = mdp.meanfield_init(SIZES, P_, Q_)
        sim = mdp.simulate_policy(c0, [mdp.Action.A7], SIZES, P_, Q_, eps=1e-8)
        assert sim.converged
        assert sim.cash_l1[-1] <= 1e-8

    def test_a3_turnpike(self):
        # on c1 = c2, i.e. z2* = 1 + N2 / (N1 + N2), a3 keeps z2 and scales
        # the total cash by N3 p / D3 at the cheapest cost
        sizes = np.asarray(SIZES, dtype=float)
        eps = 1e-10
        z2_star = 1.0 + sizes[1] / (sizes[0] + sizes[1])
        c = mdp.cash_from_state(7.0, z2_star, SIZES, eps)
        out = mdp.block_cash_update(c, SIZES, P_, Q_, mdp.Action.A3)
        _, z2 = mdp.encode_state(out, SIZES, eps)
        assert z2 == pytest.approx(z2_star, rel=1e-12)
        D3 = sizes[2] * (P_ - Q_) + sizes.sum() * Q_
        ratio = (sizes * np.abs(out)).sum() / (sizes * np.abs(c)).sum()
        assert ratio == pytest.approx(sizes[2] * P_ / D3, rel=1e-12)
        cost = {
            cycle: mdp.simulate_policy(c, cycle, SIZES, P_, Q_, eps=eps).cum_cost[-1]
            for cycle in ((3,), (2, 3), (3, 3, 3, 5))
        }
        assert cost[(3,)] < cost[(2, 3)] < cost[(3, 3, 3, 5)]

    def test_trajectory_csv(self, tmp_path):
        c0 = mdp.meanfield_init(SIZES, P_, Q_)
        sim = mdp.simulate_policy(c0, [mdp.Action.A2, mdp.Action.A7], SIZES, P_, Q_, eps=1e-8)
        path = tmp_path / "trajectory.csv"
        sim.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "step,action,cash_l1,cum_cost"
        assert lines[1] == f"0,,{sim.cash_l1[0]:.17g},0"
        assert len(lines) == len(sim.actions) + 2
        for k, line in enumerate(lines[2:], start=1):
            step, action, l1, cost = line.split(",")
            assert int(step) == k
            assert int(action) == int(sim.actions[k - 1]) == (2 if k % 2 else 7)
            assert float(l1) == sim.cash_l1[k]
            assert float(cost) == sim.cum_cost[k]

    def test_policy_beats_full_sweep(self):
        c0 = mdp.meanfield_init(SIZES, P_, Q_)
        grid = mdp.solve_policy(SIZES, P_, Q_, c0=c0, eps=1e-8, n_z1=400, n_z2=41)
        sim = mdp.simulate_policy(c0, grid, SIZES, P_, Q_, eps=1e-8)
        sim7 = mdp.simulate_policy(c0, [mdp.Action.A7], SIZES, P_, Q_, eps=1e-8)
        assert sim.converged
        assert sim.cum_cost[-1] < sim7.cum_cost[-1]


class TestEngineReplay:
    def test_optimal_actions_through_engine_step(self):
        """The block simulation's cost and cash equal the engine's on the node chain."""
        c0 = mdp.meanfield_init(SIZES, P_, Q_)
        grid = mdp.solve_policy(SIZES, P_, Q_, c0=c0, eps=1e-8, n_z1=400, n_z2=41)
        sim = mdp.simulate_policy(c0, grid, SIZES, P_, Q_, eps=1e-8)
        mf = models.MeanFieldMatrix(SIZES, P_, Q_)
        state = engine.init(mf)
        init_cost = state.cum_cost
        assert state.cash_l1 == pytest.approx(sim.cash_l1[0], rel=1e-12)
        for k, a in enumerate(sim.actions, start=1):
            G = np.concatenate([mf.block_nodes(b) for b in a.blocks])
            engine.step(state, G, mf)
            assert state.cum_cost - init_cost == pytest.approx(sim.cum_cost[k], rel=1e-12, abs=0)
            assert abs(state.cash_l1 - sim.cash_l1[k]) <= 1e-12 * sim.cash_l1[0]
        assert len(sim.actions) > 10
