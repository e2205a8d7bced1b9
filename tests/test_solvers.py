import itertools

import numpy as np
import pytest

from rlgl import engine, models, pushloop, schedules, solvers
from rlgl.errors import AbsorbingStateError, InvalidParamsError, NoConvergenceError
from rlgl.matrix import build_transition, google_matrix, gth_stationary

from conftest import dense_ergodic_chain, pagerank_graph_500, sbm80_instance


class TestPowerIteration:
    def test_two_state(self):
        P = build_transition([(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.3), (1, 1, 0.7)], 2)
        res = solvers.power_iteration(P, eps=1e-12)
        assert np.abs(res.x - [0.375, 0.625]).max() <= 1e-10

    def test_stationary_start_stops_at_once(self, four_state=None):
        P = dense_ergodic_chain(12, 0)
        pi = gth_stationary(P)
        res = solvers.power_iteration(P, x0=pi, eps=1e-10)
        assert res.iterations == 1

    def test_periodic_chain_does_not_converge(self):
        P = build_transition([(0, 1, 1.0), (1, 0, 1.0)], 2)
        with pytest.raises(NoConvergenceError):
            solvers.power_iteration(P, x0=np.array([1.0, 0.0]), eps=1e-12, max_iters=50)

    def test_two_block_contraction_is_lambda2(self):
        from rlgl.analysis import sbm2_closed_forms

        mf = models.meanfield_sbm([40, 8], 0.1, 0.01)
        forms = sbm2_closed_forms(0.1, 0.01, 5)
        res = solvers.power_iteration(mf, eps=1e-9)
        resid = res.trace.column("residual")
        ratios = resid[2:20] / resid[1:19]
        assert np.abs(ratios - forms.lambda2).max() <= 1e-10


class TestGaussSeidel:
    def test_stationary_is_fixed_point(self):
        P = dense_ergodic_chain(15, 3)
        pi = gth_stationary(P)
        x = pi.copy()
        solvers.gauss_seidel_sweep(P, x)
        assert np.abs(x - pi).max() <= 1e-12

    def test_zero_diagonal_denominator(self, four_state):
        # all p_jj = 0 here, so a sweep is plain column accumulation
        x = np.full(4, 0.25)
        solvers.gauss_seidel_sweep(four_state, x)
        assert x[0] == pytest.approx(0.25)  # only inflow from node 3

    def test_converges_to_oracle(self, four_state):
        pi = gth_stationary(four_state)
        res = solvers.gauss_seidel(four_state, eps=1e-12)
        assert np.abs(res.x - pi).sum() <= 1e-10

    def test_absorbing_state_raises(self):
        P = build_transition([(0, 0, 1.0), (1, 0, 1.0)], 2)
        with pytest.raises(AbsorbingStateError):
            solvers.gauss_seidel(P)

    @staticmethod
    def _columns_by_loop(P):
        # the per-column loop _gs_columns replaced, kept as its replay oracle
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

    @pytest.mark.parametrize("chain", ["sbm80", "google", "meanfield", "dense", "self-loops"])
    def test_columns_replay_the_per_column_loop(self, chain):
        edges, n = sbm80_instance()
        P = {
            "sbm80": lambda: build_transition(edges, n),
            "google": lambda: google_matrix(edges, 0.85, n=n),
            "meanfield": lambda: models.meanfield_sbm([30, 12, 5], 0.1, 0.01),
            "dense": lambda: dense_ergodic_chain(25, 4),
            "self-loops": lambda: build_transition(
                [(i, j, 1.0 + (i * j) % 3) for i in range(9) for j in range(9) if (i + 2 * j) % 4], 9
            ),
        }[chain]()
        got, want = solvers._gs_columns(P), self._columns_by_loop(P)
        assert len(got) == len(want) == P.n
        for (rows, vals, diag), (rows0, vals0, diag0) in zip(got, want):
            assert rows.dtype == rows0.dtype and rows.tobytes() == rows0.tobytes()
            assert vals.dtype == vals0.dtype and vals.tobytes() == vals0.tobytes()
            assert type(diag) is float and np.float64(diag).tobytes() == np.float64(diag0).tobytes()

    def test_first_absorbing_state_named_as_by_the_loop(self):
        P = build_transition([(0, 1, 1.0), (1, 1, 1.0), (2, 2, 1.0), (2, 0, 0.0)], 3)
        with pytest.raises(AbsorbingStateError) as want:
            self._columns_by_loop(P)
        with pytest.raises(AbsorbingStateError) as got:
            solvers._gs_columns(P)
        assert str(got.value) == str(want.value) == "state 1 is absorbing (p_jj = 1.0)"


class TestGmres:
    def test_stationary_start_zero_residual(self):
        P = dense_ergodic_chain(10, 1)
        pi = gth_stationary(P)
        res = solvers.gmres_restarted(P, x0=pi, m=5, eps=1e-10)
        assert res.extra["restarts"] == 0

    def test_two_state_exact_in_one_cycle(self):
        P = build_transition([(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.3), (1, 1, 0.7)], 2)
        res = solvers.gmres_restarted(P, m=2, eps=1e-12)
        assert res.extra["restarts"] <= 1
        assert np.abs(res.x - [0.375, 0.625]).max() <= 1e-10

    def test_zero_guess_rejected(self):
        P = dense_ergodic_chain(5, 2)
        with pytest.raises(InvalidParamsError):
            solvers.gmres_restarted(P, x0=np.zeros(5))

    def test_residual_nonincreasing_within_cycle(self):
        P = dense_ergodic_chain(40, 6)
        res = solvers.gmres_restarted(P, m=10, eps=1e-12)
        by_restart = {}
        for restart, _, resid in res.trace.rows:
            by_restart.setdefault(restart, []).append(resid)
        for resids in by_restart.values():
            assert np.all(np.diff(resids) <= 1e-12)

    def test_pagerank_system_converges_quickly(self):
        edges, n = pagerank_graph_500()
        G = google_matrix(edges, 0.85, n=n)
        res = solvers.gmres_restarted(G, m=10, eps=1e-11, max_restarts=20)
        assert res.converged
        pi = gth_stationary(G)
        assert np.abs(res.x - pi).sum() <= 1e-8


class TestGsoPagerank:
    def test_initialization(self):
        edges, n = sbm80_instance()
        G = google_matrix(edges, 0.85, n=n)
        st = solvers.gso_init(G)
        assert np.array_equal(st.C, (1 - 0.85) * G.s)
        assert np.all(st.H == 0.0)

    def test_per_step_depletion(self):
        edges, n = sbm80_instance()
        c = 0.85
        G = google_matrix(edges, c, n=n)
        st = solvers.gso_init(G)
        for _ in range(200):
            k = int(np.argmax(st.C))
            before = st.C.sum()
            amount = st.C[k]
            solvers.gso_step(st, G, k)
            assert st.C.sum() == pytest.approx(before - (1 - c) * amount, abs=1e-14)
            assert st.C.min() >= -1e-14

    def test_residual_identity_every_step(self):
        edges, n = models.random_sbm([10, 10], 0.3, 0.1, seed=2)
        c = 0.85
        G = google_matrix(edges, c, n=n)
        D = G.to_dense()
        raw = (D - (1 - c) * np.tile(G.s, (n, 1))) / c  # patched raw rows
        st = solvers.gso_init(G)
        for _ in range(300):
            k = int(np.argmax(st.C))
            solvers.gso_step(st, G, k)
            resid = c * (st.H @ raw) + (1 - c) * G.s - st.H
            assert np.abs(resid - st.C).max() <= 1e-10

    def test_mass_accounting(self):
        edges, n = sbm80_instance()
        c = 0.85
        G = google_matrix(edges, c, n=n)
        st = solvers.gso_init(G)
        for _ in range(500):
            k = int(np.argmax(st.C))
            solvers.gso_step(st, G, k)
            assert st.H.sum() + st.C.sum() / (1 - c) == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(st.H) * 0 == 0)  # finite

    def test_history_nondecreasing(self):
        edges, n = sbm80_instance()
        G = google_matrix(edges, 0.85, n=n)
        st = solvers.gso_init(G)
        prev = st.H.copy()
        for _ in range(300):
            k = int(np.argmax(st.C))
            solvers.gso_step(st, G, k)
            assert np.all(st.H >= prev - 1e-15)
            prev = st.H.copy()

    def test_converges_to_google_oracle(self):
        edges, n = models.random_sbm([15, 15], 0.3, 0.1, seed=5)
        G = google_matrix(edges, 0.85, n=n)
        pi = gth_stationary(G)
        for sched in ("greedy-max", "rr", "theta"):
            res = solvers.gso_pagerank(G, schedule=sched, eps=1e-11)
            assert np.abs(res.x - pi).sum() <= 1e-9, sched

    def test_mirrored_engine_equivalence(self):
        # the same pushes on the auxiliary-node chain reproduce H exactly
        from rlgl.matrix import augment_pagerank

        edges, n = sbm80_instance()
        c = 0.85
        G = google_matrix(edges, c, n=n)
        aug = augment_pagerank(edges, c, n=n)
        gso = solvers.gso_init(G)
        M0 = np.zeros(n + 1)
        M0[0] = 1.0
        st = engine.init(aug, M0)
        for _ in range(600):
            k = int(np.argmax(gso.C))
            solvers.gso_step(gso, G, k)
            engine.step(st, [k + 1], aug)
            assert np.array_equal(st.C[1:], gso.C)
            assert np.array_equal(st.H[1:], gso.H)


def _old_gso(G, rule, eps=1e-11, r=1.0, period=None):
    """The push loop with the pick rules it used before the schedule classes.

    ``greedy-max`` pushes argmax C, ``rr`` node k mod n, and ``theta``
    node k mod n when C_k > 0 reaches the power mean of C taken every
    ``period`` candidates (1e-12 relative slack); other candidates are
    skip steps.  Returns (x, trace rows, iterations).
    """
    period = G.n if period is None else period
    st = solvers.gso_init(G)
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
                if k % period == 0:
                    theta = float((st.C**r).mean() ** (1.0 / r)) * (1.0 - 1e-12)
                if not (st.C[i] >= theta and st.C[i] > 0):
                    st.t += 1
                    continue
        solvers.gso_step(st, G, i)
        moved += 1
        if moved % G.n == 0:
            rows.append((st.t, st.cum_cost, float(np.abs(st.C).sum())))


def _two_wheels_google():
    und, n = models.two_wheels()
    return google_matrix(models.symmetrize(und), 0.85, n=n)


def _sbm80_google():
    edges, n = sbm80_instance()
    return google_matrix(edges, 0.85, n=n)


class TestGsoSchedules:
    @pytest.mark.parametrize("graph", [_two_wheels_google, _sbm80_google], ids=["two-wheels", "sbm80"])
    @pytest.mark.parametrize(
        "rule,r,half_period",
        [("greedy-max", 1.0, False), ("rr", 1.0, False), ("theta", 1.0, False),
         ("theta", 2.0, False), ("theta", 1.0, True)],
        ids=["greedy-max", "rr", "theta1", "theta2", "theta1-half-period"],
    )
    def test_replays_old_pick_rules(self, graph, rule, r, half_period):
        G = graph()
        period = G.n // 2 if half_period else None
        x, rows, iterations = _old_gso(G, rule, r=r, period=period)
        res = solvers.gso_pagerank(G, schedule=rule, eps=1e-11, r=r, period=period)
        assert res.x.tobytes() == x.tobytes()
        assert res.trace.rows == rows
        assert res.iterations == iterations

    @pytest.mark.parametrize(
        "kwargs",
        [{"eps": 0.0}, {"eps": -1e-10}, {"eps": float("nan")}, {"trace_stride": 0},
         {"schedule": "theta", "r": 0.5}],
        ids=["eps-zero", "eps-negative", "eps-nan", "stride-zero", "theta-r-below-one"],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(InvalidParamsError):
            solvers.gso_pagerank(_two_wheels_google(), **kwargs)

    def test_trace_stride_one_records_every_push(self):
        res = solvers.gso_pagerank(_two_wheels_google(), schedule="rr", eps=1e-8, trace_stride=1)
        # the start row, one row per push (every rr step pushes), the stop row
        assert len(res.trace.rows) == res.iterations + 1


def _dangling_google():
    # node 3 has no out-edges: its row restarts on s
    return google_matrix([(0, 1), (1, 2), (2, 0), (2, 3)], 0.85, n=4)


def _old_push_gso(G, rule, eps=1e-11):
    """gso as its own loop ran it, with ``GoogleMatrix.push_damped``'s arithmetic inline.

    Picks come from the schedule classes.  A picked node k with residual
    a > 0 moves a into H, then C[row] += a * scaled[row], or, for a
    dangling row, C += (c * a) * s.  A trace row follows every n picks.
    Returns (x, trace rows, iterations).
    """
    sched = {"greedy-max": schedules.MaxCash(), "rr": schedules.RoundRobin(), "theta": schedules.Theta(1.0, None)}
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
                C[G.indices[lo:hi]] += a * G.scaled[lo:hi]
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
        res = solvers.gso_pagerank(graph(), schedule=rule, eps=1e-11)
        assert res.x.tobytes() == x.tobytes()
        assert res.trace.rows == rows
        assert res.iterations == iterations

    def test_source_node_rows_follow_pushes_not_picks(self):
        # node 3 has no in-edge: after its first push rr still picks it every
        # fourth step, with no cash to move.  The engine records a row every n
        # pushes that moved cash; the old loop counted picks (50 rows).
        G = google_matrix([(0, 1), (1, 2), (2, 0), (3, 0)], 0.85, n=4)
        x, rows, iterations = _old_push_gso(G, "rr")
        res = solvers.gso_pagerank(G, schedule="rr", eps=1e-11)
        assert res.x.tobytes() == x.tobytes()
        assert res.iterations == iterations == 195
        assert (len(rows), len(res.trace.rows)) == (50, 38)
        # the start row, one per n pushes, the stop row
        assert len(res.trace.rows) == 2 + res.extra["state"].updates // G.n

    @pytest.mark.parametrize("rule", ["greedy-max", "rr", "theta"])
    def test_dangling_node(self, rule, kernel, monkeypatch):
        res = solvers.gso_pagerank(_dangling_google(), schedule=rule, eps=1e-11)
        assert res.extra["kernel"] == kernel
        assert np.abs(res.x - gth_stationary(_dangling_google())).sum() <= 1e-9
        with monkeypatch.context() as m:
            m.setattr(pushloop, "load", lambda: None)
            python = solvers.gso_pagerank(_dangling_google(), schedule=rule, eps=1e-11)
        assert python.extra["kernel"] == "py"
        assert res.x.tobytes() == python.x.tobytes()
        assert res.trace.rows == python.trace.rows
        assert res.iterations == python.iterations

    def test_max_steps_raises_with_result(self):
        with pytest.raises(NoConvergenceError) as exc:
            solvers.gso_pagerank(_two_wheels_google(), schedule="rr", eps=1e-11, max_steps=50)
        res = exc.value.result
        assert not res.converged and res.iterations == 50
        assert res.trace.rows[-1][0] == 50
