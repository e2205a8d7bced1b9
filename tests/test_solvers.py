import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rlgl import engine, models, pushloop, schedules, solvers
from rlgl.errors import AbsorbingStateError, InvalidM0Error, InvalidParamsError, NoConvergenceError
from rlgl.matrix import GaussSeidelRows, build_transition, google_matrix, gth_stationary

from conftest import (
    advance_returns,
    dense_ergodic_chain,
    pagerank_graph_500,
    ring_random_chain,
    sbm80_instance,
    within_bound,
)


class TestPowerIteration:
    def test_two_state(self):
        P = build_transition([(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.3), (1, 1, 0.7)], 2)
        res = solvers.power_iteration(P, eps=1e-12)
        assert np.abs(res.pi_hat - [0.375, 0.625]).max() <= 1e-10

    def test_periodic_chain_does_not_converge(self):
        # period 2: from the uniform start, x alternates between (1, 4, 1) / 6 and (1, 1, 1) / 3
        P = build_transition([(0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.5), (2, 1, 1.0)], 3)
        with pytest.raises(NoConvergenceError):
            solvers.power_iteration(P, eps=1e-12, max_iters=50)

    def test_two_block_contraction_is_lambda2(self):
        from rlgl.analysis import sbm2_closed_forms

        mf = models.meanfield_sbm([40, 8], 0.1, 0.01)
        forms = sbm2_closed_forms(0.1, 0.01, 5)
        res = solvers.power_iteration(mf, eps=1e-9)
        resid = res.trace.column("delta_l1")
        ratios = resid[2:20] / resid[1:19]
        assert np.abs(ratios - forms.lambda2).max() <= 1e-10


def _self_loops_chain():
    return build_transition([(i, j, 1.0 + (i * j) % 3) for i in range(9) for j in range(9) if (i + 2 * j) % 4], 9)


class _Forwarding:
    """A wrapper that forwards every attribute, as the benchmark's matrix proxies do."""

    def __init__(self, P):
        self._P = P

    def __getattr__(self, name):
        return getattr(self._P, name)


class TestGaussSeidel:
    def test_stationary_is_fixed_point(self):
        P = dense_ergodic_chain(15, 3)
        pi = gth_stationary(P)
        rows = GaussSeidelRows(P)
        # x = H * scale starts at pi; one sweep of pushes leaves it there
        M0 = pi / rows.scale
        state = engine.init(rows, M0 / M0.sum())
        for j in range(P.n):
            engine.step(state, [j], rows)
        x = state.H * rows.scale
        assert np.abs(x / x.sum() - pi).max() <= 1e-12

    def test_zero_diagonal_denominator(self, four_state):
        # all p_jj = 0 here, so the view's rows are P's and a sweep is plain column accumulation
        rows = GaussSeidelRows(four_state)
        assert rows.scale.tolist() == [1.0] * 4
        state = engine.init(rows)
        for j in range(4):
            engine.step(state, [j], rows)
        assert state.H[0] == pytest.approx(0.25)  # only inflow from node 3

    def test_converges_to_oracle(self, four_state):
        pi = gth_stationary(four_state)
        res = solvers.gauss_seidel(four_state, eps=1e-12)
        assert np.abs(res.pi_hat - pi).sum() <= 1e-10

    def test_absorbing_state_raises(self):
        P = build_transition([(0, 0, 1.0), (1, 0, 1.0)], 2)
        with pytest.raises(AbsorbingStateError):
            solvers.gauss_seidel(P)

    @staticmethod
    def _columns_by_loop(P):
        # the per-column loop the column solver was built on, kept as the sweeps' oracle
        srcs, cols, vals = [], [], []
        for i in range(P.n):
            c, v = P.row(i)
            srcs.append(np.full(c.size, i, dtype=np.int64))
            cols.append(c)
            vals.append(v)
        src = np.concatenate(srcs)
        col = np.concatenate(cols).astype(np.int64)
        val = np.concatenate(vals)
        order = np.lexsort((src, col))
        src, col, val = src[order], col[order], val[order]
        indptr = np.zeros(P.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(col, minlength=P.n), out=indptr[1:])
        columns = []
        for j in range(P.n):
            lo, hi = indptr[j], indptr[j + 1]
            rows = src[lo:hi]
            vals_j = val[lo:hi]
            dmask = rows == j
            diag = float(vals_j[dmask].sum())
            if diag >= 1.0:
                raise AbsorbingStateError(f"state {j} is absorbing (p_jj = {diag})")
            columns.append((rows[~dmask], vals_j[~dmask], diag))
        return columns

    @staticmethod
    def _column_sweep(x, columns):
        # one in-place sweep of x_j <- sum_{i != j} x_i p_ij / (1 - p_jj)
        for j, (rows, vals, diag) in enumerate(columns):
            x[j] = (x[rows] @ vals) / (1.0 - diag)
        return x

    @pytest.mark.parametrize("chain", ["sbm80", "google", "meanfield", "dense", "self-loops"])
    def test_columns_replay_the_per_column_loop(self, chain):
        # every n steps of gauss_seidel are one sweep of the old per-column loop
        edges, n = sbm80_instance()
        P = {
            "sbm80": lambda: build_transition(edges, n),
            "google": lambda: google_matrix(edges, 0.85, n=n),
            "meanfield": lambda: models.meanfield_sbm([30, 12, 5], 0.1, 0.01),
            "dense": lambda: dense_ergodic_chain(25, 4),
            "self-loops": _self_loops_chain,
        }[chain]()
        columns = self._columns_by_loop(P)
        x = np.full(P.n, 1.0 / P.n)
        for sweeps in range(1, 6):
            self._column_sweep(x, columns)
            with pytest.raises(NoConvergenceError) as exc:
                solvers.gauss_seidel(P, eps=1e-300, max_steps=1 + sweeps * P.n)
            assert np.abs(exc.value.result.pi_hat - x / x.sum()).sum() <= 1e-12, sweeps

    def test_first_absorbing_state_named_as_by_the_loop(self):
        P = build_transition([(0, 1, 1.0), (1, 1, 1.0), (2, 2, 1.0), (2, 0, 0.0)], 3)
        with pytest.raises(AbsorbingStateError) as want:
            self._columns_by_loop(P)
        with pytest.raises(AbsorbingStateError) as got:
            solvers.gauss_seidel(P)
        assert str(got.value) == str(want.value) == "state 1 is absorbing (p_jj = 1.0)"

    def test_sbm80_is_round_robin_byte_for_byte(self):
        # no self-loops: the view's rows are P's and M0 is uniform
        edges, n = sbm80_instance()
        P = build_transition(edges, n)
        gs = solvers.gauss_seidel(P, eps=1e-11)
        rr = engine.run(P, schedules.RoundRobin(), eps=1e-11)
        assert gs.state.H.tobytes() == rr.state.H.tobytes()
        assert gs.pi_hat.tobytes() == rr.pi_hat.tobytes()
        assert gs.iterations == rr.state.t

    @pytest.mark.parametrize(
        "make", [_self_loops_chain, lambda: google_matrix([(0, 0), (0, 1), (1, 2), (2, 0), (2, 3)], 0.85, n=4)],
        ids=["self-loops", "google-dangling"],
    )
    def test_cash_is_x_p_minus_x(self, make):
        # after single-node and set pushes alike, C = x P - x for x = H * scale
        P = make()
        rows = GaussSeidelRows(P)
        D = P.to_dense()
        Q = D * rows.scale[:, None]
        np.fill_diagonal(Q, 0.0)
        for i in range(P.n):
            assert np.abs(rows.mul_left(np.eye(P.n)[i]) - Q[i]).max() <= 1e-15
        state = engine.init(rows)
        for G in ([0], [2], [1, 3], [3], list(range(P.n - 1)), [0]):
            engine.step(state, G, rows)
            x = state.H * rows.scale
            assert np.abs(state.C - (x @ D - x)).max() <= 1e-14
        assert abs(state.C.sum()) <= 1e-15

    @pytest.mark.parametrize(
        "make",
        [_self_loops_chain, lambda: _two_wheels_google(), lambda: _dangling_google(),
         lambda: models.meanfield_sbm([50, 20, 10], 0.1, 0.01)],
        ids=["self-loops", "google", "google-dangling", "meanfield"],
    )
    def test_compiled_and_without_a_compiler_same_bytes(self, make, kernel, tmp_path, monkeypatch):
        compiled = solvers.gauss_seidel(make(), eps=1e-12)
        proxied = solvers.gauss_seidel(_Forwarding(make()), eps=1e-12)
        monkeypatch.setenv("CC", "false")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        pushloop.load.cache_clear()
        try:
            python = solvers.gauss_seidel(make(), eps=1e-12)
        finally:
            monkeypatch.undo()
            pushloop.load.cache_clear()
        assert (compiled.kernel, proxied.kernel, python.kernel) == (kernel, kernel, "py")
        for res in (proxied, python):
            assert res.pi_hat.tobytes() == compiled.pi_hat.tobytes()
            assert res.trace.rows == compiled.trace.rows
            assert res.iterations == compiled.iterations

    @given(n=st.integers(2, 30), degree=st.integers(1, 5), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_cash_l1_within_bound_and_python_bytes(self, n, degree, seed, kernel):
        # heavy self-loops: the compiled push moves up to ~1e4 times the cash it takes
        rng = np.random.default_rng(seed)
        src = np.repeat(np.arange(n), degree)
        dst = rng.integers(0, n, size=n * degree)
        w = (rng.random(n * degree) ** 3 + 1e-6) * np.where(src == dst, 1e4, 1.0)
        P = build_transition(np.column_stack([src, dst, w]), n)
        assume(P.split_diagonal()[1].min() > 0.0)  # no absorbing state

        def solve():
            try:
                return solvers.gauss_seidel(P, eps=1e-12, max_steps=20 * n, trace_stride=3)
            except NoConvergenceError as exc:
                return exc.result

        with advance_returns() as seen:
            compiled = solve()
        load, pushloop.load = pushloop.load, lambda: None
        try:
            python = solve()
        finally:
            pushloop.load = load
        assert within_bound(seen) and bool(seen) == (kernel == "c" and compiled.state.t > 1)
        assert compiled.state.max_l1_increase <= 1e-14
        assert python.kernel == "py"
        assert compiled.pi_hat.tobytes() == python.pi_hat.tobytes()
        assert compiled.trace.rows == python.trace.rows

    def test_pagerank_memory_stays_sparse(self):
        # the column solver built O(n^2) dense Google rows here
        G = google_matrix(ring_random_chain(2000, 10, 3), 0.85)
        tracemalloc.start()
        try:
            res = solvers.gauss_seidel(G, eps=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged and peak < 5 << 20


class TestGmres:
    def test_restart_dimension_capped_at_n(self):
        # m = 10**9 once asked numpy for an (m + 1) x n basis: 89 GiB on two-wheels
        und, n = models.two_wheels()
        P = build_transition(models.symmetrize(und), n)
        want = solvers.gmres_restarted(P, m=n)
        tracemalloc.start()
        try:
            got = solvers.gmres_restarted(P, m=10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.pi_hat.tobytes() == want.pi_hat.tobytes()
        assert got.trace.rows == want.trace.rows
        assert peak < 1 << 20

    def test_two_state_exact_in_one_cycle(self):
        P = build_transition([(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.3), (1, 1, 0.7)], 2)
        res = solvers.gmres_restarted(P, m=2, eps=1e-12)
        assert res.iterations <= 1
        assert np.abs(res.pi_hat - [0.375, 0.625]).max() <= 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_happy_breakdown_converges(self, m):
        # the reflecting walk on the 4-node path: the uniform start's residual (1, -1, -1, 1) / 8 is an
        # eigenvector of P^T - I, so the Arnoldi step leaves w = 0 and the basis breaks down at k = 0
        P = build_transition([(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1)], 4)
        with np.errstate(all="raise"):  # no division by the vanished norm
            res = solvers.gmres_restarted(P, m=m, eps=1e-11)
        assert res.converged and res.iterations == 1
        # the restart's start row, its one Arnoldi row at residual 0, and the second restart's row
        assert [r[0] for r in res.trace.rows] == [0, 0, 1] and res.trace.rows[1][4] == 0.0
        assert np.abs(res.pi_hat - gth_stationary(P)).sum() <= 1e-15

    @pytest.mark.parametrize("m", [0, -1])
    def test_typed_errors(self, m):
        with pytest.raises(InvalidParamsError) as exc:
            solvers.gmres_restarted(dense_ergodic_chain(4, 0), m=m)
        assert type(exc.value) is InvalidParamsError and str(exc.value) == "restart dimension must be >= 1"

    def test_residual_nonincreasing_within_cycle(self):
        P = dense_ergodic_chain(40, 6)
        res = solvers.gmres_restarted(P, m=10, eps=1e-12)
        by_restart = {}
        for restart, _, _, _, resid in res.trace.rows:
            by_restart.setdefault(restart, []).append(resid)
        for resids in by_restart.values():
            assert np.all(np.diff(resids) <= 1e-12)

    def test_pagerank_system_converges_quickly(self):
        edges, n = pagerank_graph_500()
        G = google_matrix(edges, 0.85, n=n)
        res = solvers.gmres_restarted(G, m=10, eps=1e-11, max_restarts=20)
        assert res.converged
        pi = gth_stationary(G)
        assert np.abs(res.pi_hat - pi).sum() <= 1e-8


class TestGsoPagerank:
    def test_initialization(self):
        edges, n = sbm80_instance()
        G = google_matrix(edges, 0.85, n=n)
        st = engine.init(G.damped, cash=(1 - G.c) * G.s)
        assert np.array_equal(st.C, (1 - 0.85) * G.s)
        assert np.all(st.H == 0.0)

    def test_per_step_depletion(self):
        edges, n = sbm80_instance()
        c = 0.85
        G = google_matrix(edges, c, n=n)
        st = engine.init(G.damped, cash=(1 - G.c) * G.s)
        for _ in range(200):
            k = int(np.argmax(st.C))
            before = st.C.sum()
            amount = st.C[k]
            engine.step(st, [k], G.damped)
            assert st.C.sum() == pytest.approx(before - (1 - c) * amount, abs=1e-14)
            assert st.C.min() >= -1e-14

    def test_residual_identity_every_step(self):
        edges, n = models.random_sbm([10, 10], 0.3, 0.1, seed=2)
        c = 0.85
        G = google_matrix(edges, c, n=n)
        D = G.to_dense()
        raw = (D - (1 - c) * np.tile(G.s, (n, 1))) / c  # patched raw rows
        st = engine.init(G.damped, cash=(1 - G.c) * G.s)
        for _ in range(300):
            k = int(np.argmax(st.C))
            engine.step(st, [k], G.damped)
            resid = c * (st.H @ raw) + (1 - c) * G.s - st.H
            assert np.abs(resid - st.C).max() <= 1e-10

    def test_mass_accounting(self):
        edges, n = sbm80_instance()
        c = 0.85
        G = google_matrix(edges, c, n=n)
        st = engine.init(G.damped, cash=(1 - G.c) * G.s)
        for _ in range(500):
            k = int(np.argmax(st.C))
            engine.step(st, [k], G.damped)
            assert st.H.sum() + st.C.sum() / (1 - c) == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(st.H) * 0 == 0)  # finite

    def test_history_nondecreasing(self):
        edges, n = sbm80_instance()
        G = google_matrix(edges, 0.85, n=n)
        st = engine.init(G.damped, cash=(1 - G.c) * G.s)
        prev = st.H.copy()
        for _ in range(300):
            k = int(np.argmax(st.C))
            engine.step(st, [k], G.damped)
            assert np.all(st.H >= prev - 1e-15)
            prev = st.H.copy()

    def test_converges_to_google_oracle(self):
        edges, n = models.random_sbm([15, 15], 0.3, 0.1, seed=5)
        G = google_matrix(edges, 0.85, n=n)
        pi = gth_stationary(G)
        for sched in (schedules.MaxCash(), schedules.RoundRobin(), schedules.Theta()):
            res = solvers.gso_pagerank(G, sched, eps=1e-11)
            assert np.abs(res.pi_hat - pi).sum() <= 1e-9, sched

    def test_mirrored_engine_equivalence(self):
        # the same pushes on the auxiliary-node chain reproduce H exactly
        from rlgl.matrix import augment_pagerank

        edges, n = sbm80_instance()
        c = 0.85
        G = google_matrix(edges, c, n=n)
        aug = augment_pagerank(edges, c, n=n)
        gso = engine.init(G.damped, cash=(1 - G.c) * G.s)
        M0 = np.zeros(n + 1)
        M0[0] = 1.0
        st = engine.init(aug, M0)
        for _ in range(600):
            k = int(np.argmax(gso.C))
            engine.step(gso, [k], G.damped)
            engine.step(st, [k + 1], aug)
            assert np.array_equal(st.C[1:], gso.C)
            assert np.array_equal(st.H[1:], gso.H)


def _old_gso(G, rule, eps=1e-11, r=1.0):
    """The push loop with the pick rules it used before the schedule classes.

    ``greedy-max`` pushes argmax C, ``rr`` node k mod n, and ``theta``
    node k mod n when C_k > 0 reaches the power mean of C taken every
    n candidates (1e-12 relative slack); other candidates are skip
    steps.  Returns (x, trace rows, iterations).
    """
    st = engine.init(G.damped, cash=(1 - G.c) * G.s)
    rows = [(st.t, st.cum_cost, float(st.C.sum()))]
    theta = 0.0
    moved = 0
    for k in itertools.count():
        resid = float(np.abs(st.C).sum())
        if resid < eps:
            rows.append((st.t, st.cum_cost, resid))
            return st.H.copy(), rows, st.t
        if rule == "greedy-max":
            i = int(np.argmax(st.C))
        else:
            i = k % G.n
            if rule == "theta":
                if k % G.n == 0:
                    theta = float((st.C**r).mean() ** (1.0 / r)) * (1.0 - 1e-12)
                if not (st.C[i] >= theta and st.C[i] > 0):
                    st.t += 1
                    continue
        engine.step(st, [i], G.damped)
        moved += 1
        if moved % G.n == 0:
            rows.append((st.t, st.cum_cost, float(np.abs(st.C).sum())))


def _step_cost_residual(trace):
    """The (step, cum_cost, residual) projection of a trace's rows, the old loops' row form."""
    return [(r[0], r[2], r[4]) for r in trace.rows]


# the engine schedule that runs each of _old_gso's pick rules
GSO_SCHEDULES = {"greedy-max": schedules.MaxCash, "rr": schedules.RoundRobin, "theta": schedules.Theta}


def _two_wheels_google():
    und, n = models.two_wheels()
    return google_matrix(models.symmetrize(und), 0.85, n=n)


def _sbm80_google():
    edges, n = sbm80_instance()
    return google_matrix(edges, 0.85, n=n)


class TestGsoSchedules:
    @pytest.mark.parametrize("graph", [_two_wheels_google, _sbm80_google], ids=["two-wheels", "sbm80"])
    @pytest.mark.parametrize(
        "rule,r",
        [("greedy-max", 1.0), ("rr", 1.0), ("theta", 1.0), ("theta", 2.0)],
        ids=["greedy-max", "rr", "theta1", "theta2"],
    )
    def test_replays_old_pick_rules(self, graph, rule, r):
        G = graph()
        x, rows, iterations = _old_gso(G, rule, r=r)
        sched = schedules.Theta(r) if rule == "theta" else GSO_SCHEDULES[rule]()
        res = solvers.gso_pagerank(G, sched, eps=1e-11)
        assert res.pi_hat.tobytes() == x.tobytes()
        assert _step_cost_residual(res.trace) == rows
        assert res.iterations == iterations

    @pytest.mark.parametrize(
        "kwargs",
        [{"eps": 0.0}, {"eps": -1e-10}, {"eps": float("nan")}, {"trace_stride": 0}],
        ids=["eps-zero", "eps-negative", "eps-nan", "stride-zero"],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(InvalidParamsError):
            solvers.gso_pagerank(_two_wheels_google(), **kwargs)

    def test_matrix_without_restart_part_rejected(self):
        # a plain chain has no damped rows: this once raised AttributeError
        und, n = models.two_wheels()
        with pytest.raises(InvalidParamsError, match="restart part"):
            solvers.gso_pagerank(build_transition(models.symmetrize(und), n))

    def test_trace_stride_one_records_every_push(self):
        res = solvers.gso_pagerank(_two_wheels_google(), schedules.RoundRobin(), eps=1e-8, trace_stride=1)
        # the start row, one row per push (every rr step pushes), the stop row
        assert len(res.trace.rows) == res.iterations + 1


def _dangling_google():
    # node 3 has no out-edges: its row restarts on s
    return google_matrix([(0, 1), (1, 2), (2, 0), (2, 3)], 0.85, n=4)


def _old_push_gso(G, rule, eps=1e-11):
    """gso as its own loop ran it, with its damped push's arithmetic inline.

    Picks come from the schedule classes.  A picked node k with residual
    a > 0 moves a into H, then C[row] += a * data[row], or, for a
    dangling row, C += (c * a) * s.  A trace row follows every n picks.
    Returns (x, trace rows, iterations).
    """
    sched = {"greedy-max": schedules.MaxCash(), "rr": schedules.RoundRobin(), "theta": schedules.Theta(1.0)}
    sched = sched[rule].bind(G)
    C = (1.0 - G.c) * G.s.copy()
    H = np.zeros(G.n)
    t, cost, picks = 1, 0.0, 0
    rows = [(t, cost, float(C.sum()))]
    while float(C.sum()) >= eps:
        picked = sched.next_nodes(C)
        t += 1
        if not picked.size:
            continue
        k = int(picked[0])
        a = C[k]
        if a != 0.0:
            H[k] += a
            C[k] = 0.0
            lo, hi = G.indptr[k], G.indptr[k + 1]
            if lo == hi:
                C += (G.c * a) * G.s
            else:
                C[G.indices[lo:hi]] += a * G.data[lo:hi]
            cost += float(G.out_degree[k])
        picks += 1
        if picks % G.n == 0:
            rows.append((t, cost, float(C.sum())))
    rows.append((t, cost, float(C.sum())))
    return H, rows, t


def _tiny_first_push_google():
    # rr's first push moves 0.15 * 1e-13 from node 0, below the rlgl guard's
    # GUARD_UNIT * t * ||C||_1 at t = 2
    s = np.full(4, (1.0 - 1e-13) / 3)
    s[0] = 1e-13
    return google_matrix([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)], 0.85, s=s, n=4)


def _dangling_google_skewed_s():
    return google_matrix([(0, 1), (1, 2), (2, 0), (2, 3)], 0.85, s=[0.1, 0.2, 0.3, 0.4], n=4)


class TestGsoOnTheEngine:
    @pytest.mark.parametrize("rule", ["greedy-max", "rr", "theta"])
    @pytest.mark.parametrize(
        "graph",
        [_two_wheels_google, _sbm80_google, _dangling_google_skewed_s, _tiny_first_push_google],
        ids=["two-wheels", "sbm80", "dangling-skewed-s", "tiny-first-push"],
    )
    def test_replays_the_old_push_arithmetic(self, graph, rule):
        x, rows, iterations = _old_push_gso(graph(), rule)
        res = solvers.gso_pagerank(graph(), GSO_SCHEDULES[rule](), eps=1e-11)
        assert res.pi_hat.tobytes() == x.tobytes()
        assert _step_cost_residual(res.trace) == rows
        assert res.iterations == iterations

    def test_source_node_rows_follow_pushes_not_picks(self):
        # node 3 has no in-edge: after its first push rr still picks it every
        # fourth step, with no cash to move.  The engine records a row every n
        # pushes that moved cash; the old loop counted picks (50 rows).
        G = google_matrix([(0, 1), (1, 2), (2, 0), (3, 0)], 0.85, n=4)
        x, rows, iterations = _old_push_gso(G, "rr")
        res = solvers.gso_pagerank(G, schedules.RoundRobin(), eps=1e-11)
        assert res.pi_hat.tobytes() == x.tobytes()
        assert res.iterations == iterations == 195
        assert (len(rows), len(res.trace.rows)) == (50, 38)
        # the start row, one per n pushes, the stop row
        assert len(res.trace.rows) == 2 + res.state.updates // G.n

    @pytest.mark.parametrize("rule", ["greedy-max", "rr", "theta"])
    def test_dangling_node(self, rule, kernel, monkeypatch):
        res = solvers.gso_pagerank(_dangling_google(), GSO_SCHEDULES[rule](), eps=1e-11)
        assert res.kernel == kernel
        assert np.abs(res.pi_hat - gth_stationary(_dangling_google())).sum() <= 1e-9
        with monkeypatch.context() as m:
            m.setattr(pushloop, "load", lambda: None)
            python = solvers.gso_pagerank(_dangling_google(), GSO_SCHEDULES[rule](), eps=1e-11)
        assert python.kernel == "py"
        assert res.pi_hat.tobytes() == python.pi_hat.tobytes()
        assert res.trace.rows == python.trace.rows
        assert res.iterations == python.iterations

    def test_max_steps_raises_with_result(self):
        with pytest.raises(NoConvergenceError) as exc:
            solvers.gso_pagerank(_two_wheels_google(), schedules.RoundRobin(), eps=1e-11, max_steps=50)
        res = exc.value.result
        assert not res.converged and res.iterations == 50
        assert res.trace.rows[-1][0] == 50


class TestOneTraceSchema:
    @pytest.mark.parametrize(
        "solve,residual",
        [(solvers.power_iteration, "delta_l1"), (solvers.gmres_restarted, "gmres_rel")],
        ids=["pi", "gmres"],
    )
    def test_baseline_rows_count_n_updates_per_product(self, solve, residual):
        P = dense_ergodic_chain(12, 4)
        trace = solve(P, eps=1e-12).trace
        assert isinstance(trace, engine.RunTrace)
        assert trace.columns == ("step", "updates", "cum_cost", "scan_cost", residual)
        # one row per product x P: n updates and one volume each, and no scan
        products = np.arange(1, len(trace.rows) + 1)
        assert trace.column("updates").tolist() == (products * P.n).tolist()
        assert trace.column("cum_cost").tolist() == list(itertools.accumulate([P.volume] * products.size))
        assert trace.column("scan_cost").tolist() == [0.0] * products.size

    def test_engine_runs_pass_their_trace_on(self):
        P = dense_ergodic_chain(12, 4)
        rows = GaussSeidelRows(P)
        M0 = 1.0 / rows.scale
        run = engine.run(rows, schedules.RoundRobin(), M0 / M0.sum(), eps=1e-12)
        res = solvers.gauss_seidel(P, eps=1e-12)
        assert res.trace.columns == run.trace.columns == ("step", "updates", "cum_cost", "scan_cost", "cash_l1")
        assert res.trace.rows == run.trace.rows


class TestOneResultType:
    SOLVES = {
        "pi": lambda P, G, budget: solvers.power_iteration(P, eps=1e-12, max_iters=budget),
        "gs": lambda P, G, budget: solvers.gauss_seidel(P, eps=1e-12, max_steps=budget),
        "gmres": lambda P, G, budget: solvers.gmres_restarted(P, m=3, eps=1e-12, max_restarts=budget),
        "gso": lambda P, G, budget: solvers.gso_pagerank(G, eps=1e-12, max_steps=budget),
    }

    @pytest.mark.parametrize("budget", [10**6, 3], ids=["converged", "budget-3"])
    @pytest.mark.parametrize("name", list(SOLVES))
    def test_every_solver_returns_the_engine_result(self, name, budget, kernel):
        P = dense_ergodic_chain(12, 4)
        G = google_matrix([(i, (i * 5 + 1) % 12) for i in range(12)], 0.85, n=12)
        try:
            res = self.SOLVES[name](P, G, budget)
        except NoConvergenceError as exc:
            res = exc.result
        assert isinstance(res, engine.RunResult) and res.converged == (budget > 3)
        assert (res.restarts, res.guard_events) == (0, [])
        if name in ("gs", "gso"):  # engine runs: the run's own state and kernel, the method's estimate
            assert res.iterations == res.state.t and res.kernel == kernel
            x = res.state.H * GaussSeidelRows(P).scale if name == "gs" else res.state.H
            assert res.pi_hat.tobytes() == (x / x.sum() if name == "gs" else x).tobytes()
        else:  # no cash: products, or restarts, counted
            assert res.state is None and res.kernel is None
            restarts = res.trace.rows[-1][0] + (not res.converged)
            assert res.iterations == (len(res.trace.rows) if name == "pi" else restarts)


class _NoProducts(_Forwarding):
    """A matrix that fails any product x P: a check that must come first."""

    def mul_left(self, x):
        raise AssertionError("a product ran before the check")


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf], ids=["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("solve", [solvers.power_iteration, solvers.gmres_restarted], ids=["pi", "gmres"])
def test_invalid_eps_rejected_before_any_product(solve, eps):
    # without the check, eps 0, -1 and nan ran the whole budget and then raised NoConvergenceError
    P = dense_ergodic_chain(6, 2)
    with pytest.raises(InvalidParamsError) as exc:
        solve(_NoProducts(P), eps=eps)
    with pytest.raises(InvalidParamsError) as run:
        engine.run(P, schedules.RoundRobin(), eps=eps)
    assert type(exc.value) is InvalidParamsError and str(exc.value) == str(run.value)
