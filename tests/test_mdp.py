import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlgl import engine, mdp, models, pushloop
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


class TestStacks:
    """A stack of cash vectors (last axis the blocks) gives, row by row, the bytes of each row alone."""

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_stack_equals_rows(self, seed, k):
        rng = np.random.default_rng(seed)
        c = np.array([random_zero_sum(rng) for _ in range(k)])
        c[rng.random(k) < 0.5] *= -1.0  # both signs of c_1, so encode_state flips some rows
        for action in mdp.Action:
            out = mdp.block_cash_update(c, SIZES, P_, Q_, action)
            rows = np.array([mdp.block_cash_update(row, SIZES, P_, Q_, action) for row in c])
            assert np.array_equal(out.view(np.int64), rows.view(np.int64))
        z1, z2 = mdp.encode_state(c, SIZES, 1e-10)
        z1_rows, z2_rows = np.array([mdp.encode_state(row, SIZES, 1e-10) for row in c]).T
        assert np.array_equal(z1.view(np.int64), z1_rows.view(np.int64))
        assert np.array_equal(z2.view(np.int64), z2_rows.view(np.int64))

    @given(z2=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_unit_cash_stack_equals_rows(self, z2):
        stack = mdp.cash_from_state(0.0, np.array(z2), SIZES, 1.0)
        rows = np.array([mdp.cash_from_state(0.0, z, SIZES, 1.0) for z in z2])
        assert np.array_equal(stack.view(np.int64), rows.view(np.int64))

    def test_one_vector_gives_floats(self):
        z = mdp.encode_state(np.array([0.3, -0.5, -0.5]), SIZES, 1e-10)
        assert all(type(v) is float for v in z)
        assert all(type(v) is float for v in mdp.decode_state(0.5))

    def test_stack_with_a_zero_row_rejected(self):
        c = np.array([[0.3, -0.5, -0.5], [0.0, 0.0, 0.0]])
        with pytest.raises(ZeroCashError):
            mdp.encode_state(c, SIZES, 1e-10)


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


def reference_policy(sizes, p, q, c0, eps, n_z1, n_z2):
    """(V, A) of the per-action scan ``solve_policy`` once ran, kept as the reference."""
    sizes = np.asarray(sizes, dtype=float)
    c0_l1 = float((sizes * np.abs(c0)).sum())
    z1_axis = np.linspace(0.0, float(np.log10(c0_l1 / eps)), n_z1)
    z2_axis = np.linspace(-2.0, 2.0, n_z2)
    h1 = z1_axis[1] - z1_axis[0]
    h2 = z2_axis[1] - z2_axis[0]
    actions = list(mdp.Action)
    kappa = {a: mdp.action_cost(a, sizes, p, q) for a in actions}
    order = sorted(actions, key=lambda a: (kappa[a], int(a)))
    dz1 = np.full((len(actions) + 1, n_z2), np.nan)
    z2_next = np.zeros((len(actions) + 1, n_z2))
    annihilated = np.zeros((len(actions) + 1, n_z2), dtype=bool)
    for j, z2 in enumerate(z2_axis):
        c_unit = mdp.cash_from_state(0.0, z2, sizes, 1.0)
        for a in actions:
            c_next = mdp.block_cash_update(c_unit, sizes, p, q, a)
            g = float((sizes * np.abs(c_next)).sum())
            if g == 0.0:
                annihilated[a, j] = True
                dz1[a, j] = -np.inf
            elif g < 1.0 - 1e-15:
                dz1[a, j] = np.log10(g)
                _, z2_next[a, j] = mdp.encode_state(c_next, sizes, 1.0)
    V = np.zeros((n_z1, n_z2))
    A = np.full((n_z1, n_z2), -1, dtype=np.int8)
    for i in range(1, n_z1):
        z1 = z1_axis[i]
        best_v = np.full(n_z2, np.inf)
        best_a = np.full(n_z2, -1, dtype=np.int8)
        for a in order:
            usable = annihilated[a] | np.isfinite(dz1[a])
            z1p = z1 + dz1[a]
            v_next = np.zeros(n_z2)
            live = usable & ~annihilated[a] & (z1p > 0.0)
            if np.any(live):
                fi = z1p[live] / h1
                i0 = np.minimum(fi.astype(np.int64), i - 1)
                i1 = np.minimum(i0 + 1, i - 1)
                wi = np.clip(fi - i0, 0.0, 1.0)
                wi[i1 == i0] = 0.0
                fj = np.clip((z2_next[a, live] - z2_axis[0]) / h2, 0.0, n_z2 - 1.0)
                j0 = np.minimum(fj.astype(np.int64), n_z2 - 2)
                wj = fj - j0
                v00 = V[i0, j0]
                v01 = V[i0, j0 + 1]
                v10 = V[i1, j0]
                v11 = V[i1, j0 + 1]
                v_next[live] = (1 - wi) * ((1 - wj) * v00 + wj * v01) + wi * ((1 - wj) * v10 + wj * v11)
            cand = np.where(usable, kappa[a] + v_next, np.inf)
            better = cand < best_v
            best_v[better] = cand[better]
            best_a[better] = int(a)
        V[i] = best_v
        A[i] = best_a
    return V, A


def _random_policy_case(seed):
    """Ordered sizes, p >= q, a start cash, an eps below its L1 norm and a grid, drawn from seed."""
    rng = np.random.default_rng(seed)
    n3 = int(rng.integers(1, 30))
    n2 = n3 + int(rng.integers(0, 30))
    n1 = n2 + int(rng.integers(1, 40))
    sizes = (n1, n2, n3)
    p = float(rng.uniform(0.01, 1.0))
    q = p if seed % 7 == 0 else float(p * rng.uniform(1e-3, 1.0))
    # p == q starts from zero cash: take a random start there
    c0 = random_zero_sum(rng, sizes) if seed % 2 or p == q else mdp.meanfield_init(sizes, p, q).c
    l1 = float((np.asarray(sizes) * np.abs(c0)).sum())
    eps = l1 * 10.0 ** -rng.uniform(0.5, 13.0)
    n_z1 = (2, 3, *[int(rng.integers(4, 300))] * 3)[seed % 5]
    n_z2 = (2, 3, *[int(rng.integers(4, 90))] * 2)[seed % 4]
    return sizes, p, q, c0, eps, n_z1, n_z2


class TestSolvePolicyParity:
    """``solve_policy``'s one pass per z1 row against the per-action scan, bit for bit."""

    @staticmethod
    def _check(sizes, p, q, c0, eps, n_z1, n_z2):
        grid = mdp.solve_policy(sizes, p, q, c0=c0, eps=eps, n_z1=n_z1, n_z2=n_z2)
        V, A = reference_policy(sizes, p, q, c0, eps, n_z1, n_z2)
        assert np.array_equal(grid.V.view(np.int64), V.view(np.int64))
        assert np.array_equal(grid.A, A)
        return grid

    def test_workload_grid(self):
        c0 = mdp.meanfield_init(SIZES, P_, Q_).c
        grid = self._check(SIZES, P_, Q_, c0, 1e-11, 1400, 81)
        assert grid.A.shape == (1400, 81)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_configs(self, seed):
        self._check(*_random_policy_case(seed))

    def test_cells_without_a_finite_candidate(self, monkeypatch):
        # no action contracts the cash where z2 >= 1 (y3 = -1 there), so those
        # cells keep V = inf and action -1, and the cells whose successors
        # fall near them see inf and NaN candidates, which are never picked
        sizes = np.asarray(SIZES, dtype=float)
        update = mdp.block_cash_update

        def stalled(c, *args):
            # a vector or a stack of them: each row with 2 N3 c3 == -1 comes back unchanged
            c = np.asarray(c, dtype=float)
            return np.where(2.0 * sizes[2] * c[..., 2:] == -1.0, c, update(c, *args))

        monkeypatch.setattr(mdp, "block_cash_update", stalled)
        c0 = mdp.meanfield_init(SIZES, P_, Q_).c
        with np.errstate(invalid="ignore"):
            grid = self._check(SIZES, P_, Q_, c0, 1e-8, 300, 41)
        stuck = grid.z2_axis >= 1.0
        assert np.all(np.isinf(grid.V[1:, stuck])) and np.all(grid.A[1:, stuck] == -1)
        assert np.all(np.isfinite(grid.V[:, ~stuck])) and np.all(grid.A[1:, ~stuck] > 0)


class TestSolvePolicyParityWithoutCompiler(TestSolvePolicyParity):
    """``TestSolvePolicyParity`` again with no library: numpy fills every row."""

    @pytest.fixture(autouse=True, scope="class")
    def _no_library(self):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(pushloop, "load", lambda: None)
            yield


class TestCompiledPolicyRows:
    def test_compiled_pass_fills_the_rows(self, kernel, monkeypatch):
        if kernel != "c":
            pytest.skip("no compiler: the library is not built")

        def numpy_rows(*args):
            raise AssertionError("the numpy row pass ran")

        monkeypatch.setattr(mdp, "_policy_rows", numpy_rows)
        grid = mdp.solve_policy(SIZES, P_, Q_, eps=1e-6, n_z1=50, n_z2=21)
        assert np.all(np.isfinite(grid.V)) and np.all(grid.A[1:] > 0)


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
        lines = path.read_bytes().decode().split("\n")
        assert lines[0] == "z1,z2,action,V"
        assert len(lines) == 2 + 200 * 41 and lines[-1] == ""
        assert lines[1:-1] == [
            f"{z1:.17g},{z2:.17g},{int(grid.A[i, j])},{grid.V[i, j]:.17g}"
            for i, z1 in enumerate(grid.z1_axis)
            for j, z2 in enumerate(grid.z2_axis)
        ]


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

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_max_steps_below_one_rejected(self, max_steps):
        c0 = mdp.meanfield_init(SIZES, P_, Q_)
        with pytest.raises(InvalidParamsError, match="max_steps must be >= 1"):
            mdp.simulate_policy(c0, [mdp.Action.A7], SIZES, P_, Q_, max_steps=max_steps)

    @pytest.mark.parametrize("cycle, c", [
        ([], [0.3, -0.5, -0.5]),
        ([mdp.Action.A7], [np.nan, 0.5, -0.5]),
        ([mdp.Action.A7], [np.inf, 0.5, -0.5]),
        ("grid", [np.nan, 0.5, -0.5]),
    ])
    def test_bad_cycle_or_start_rejected_before_the_first_step(self, monkeypatch, cycle, c):
        # once a ZeroDivisionError, and a NaN start ran to max_steps
        if cycle == "grid":
            cycle = mdp.solve_policy(SIZES, P_, Q_, eps=1e-6, n_z1=20, n_z2=11)

        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(mdp, "block_cash_update", no_step)
        with pytest.raises(InvalidParamsError):
            mdp.simulate_policy(np.array(c), cycle, SIZES, P_, Q_, max_steps=10)

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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mdp.meanfield_init([50, 20], P_, Q_), "need three block sizes >= 1"),
        (lambda: mdp.solve_policy(SIZES, P_, Q_, n_z1=1, n_z2=5), "grid needs at least 2 points per axis"),
        (lambda: mdp.solve_policy(SIZES, P_, Q_, eps=10.0, n_z1=5, n_z2=5), "initial cash already below eps"),
    ],
    ids=["two-block-sizes", "grid-of-one-point", "start-below-eps"],
)
def test_typed_errors(call, message):
    with pytest.raises(InvalidParamsError) as exc:
        call()
    assert type(exc.value) is InvalidParamsError and str(exc.value) == message
