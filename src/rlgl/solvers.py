"""Reference solvers: power iteration, Gauss-Seidel, restarted GMRES, and
the positive-cash push solver for the damped restart (PageRank) system."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import schedules
from .engine import Trace
from .errors import AbsorbingStateError, InvalidParamsError, NoConvergenceError
from .matrix import GoogleMatrix, check_distribution


class SolveTrace(Trace):
    """(iteration, cum_cost, residual) records of a baseline solver."""

    columns = ("step", "cum_cost", "residual")
    residual = "residual"

    def record(self, step, cum_cost, residual):
        self.rows.append((step, cum_cost, residual))


@dataclass
class SolveResult:
    x: np.ndarray
    trace: SolveTrace
    converged: bool
    iterations: int
    extra: dict = field(default_factory=dict)


def power_iteration(P, x0=None, eps=1e-10, max_iters=100_000):
    """Iterate x <- x P until the L1 step difference drops below eps.

    Each iteration is charged one full sweep (the matrix volume).
    """
    n = P.n
    x = np.full(n, 1.0 / n) if x0 is None else check_distribution(x0)
    trace = SolveTrace()
    cost = 0.0
    for it in range(1, max_iters + 1):
        x_next = P.mul_left(x)
        cost += P.volume
        diff = float(np.abs(x_next - x).sum())
        trace.record(it, cost, diff)
        x = x_next
        if diff < eps:
            return SolveResult(x, trace, True, it)
    raise NoConvergenceError(
        f"power iteration: no convergence in {max_iters} iterations",
        SolveResult(x, trace, False, max_iters),
    )


def _gs_columns(P):
    """Column view (incoming rows/values, diagonal split off) of a matrix."""
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


def gauss_seidel_sweep(P, x, columns=None):
    """One in-place sweep of x_j <- sum_{i != j} x_i p_ij / (1 - p_jj).

    Entries with i < j use the values already updated in this sweep.
    """
    if columns is None:
        columns = _gs_columns(P)
    for j, (rows, vals, diag) in enumerate(columns):
        x[j] = (x[rows] @ vals) / (1.0 - diag)
    return x


def gauss_seidel(P, x0=None, eps=1e-10, max_sweeps=100_000):
    """Sweep until the normalized iterate is stationary within eps (L1)."""
    n = P.n
    x = np.full(n, 1.0 / n) if x0 is None else np.array(x0, dtype=float)
    columns = _gs_columns(P)
    trace = SolveTrace()
    cost = 0.0
    prev = x / x.sum()
    for it in range(1, max_sweeps + 1):
        gauss_seidel_sweep(P, x, columns)
        cost += P.volume
        cur = x / x.sum()
        diff = float(np.abs(cur - prev).sum())
        trace.record(it, cost, diff)
        prev = cur
        if diff < eps:
            return SolveResult(cur, trace, True, it)
    raise NoConvergenceError(
        f"gauss-seidel: no convergence in {max_sweeps} sweeps",
        SolveResult(prev, trace, False, max_sweeps),
    )


def gmres_restarted(P, x0=None, m=10, eps=1e-11, max_restarts=1000):
    """Restarted GMRES on (P^T - I) x = 0 from a nonzero initial guess.

    The operator is applied matrix-free through the stored rows; the
    least-squares problem uses modified Gram-Schmidt with incremental
    plane rotations.  A happy breakdown is treated as convergence.  Stops
    when ||A x||_2 < eps * ||x||_2; the returned vector is normalized to
    sum one.
    """
    n = P.n
    apply_A = lambda v: P.mul_left(v) - v
    x = np.full(n, 1.0 / n) if x0 is None else np.array(x0, dtype=float)
    if not np.any(x):
        raise InvalidParamsError("gmres initial guess must be nonzero")
    if m < 1:
        raise InvalidParamsError("restart dimension must be >= 1")
    trace = SolveTrace()
    cost = 0.0
    for restart in range(max_restarts):
        r = -apply_A(x)
        cost += P.volume
        beta = float(np.linalg.norm(r))
        xnorm = float(np.linalg.norm(x))
        trace.record(restart, cost, beta / xnorm if xnorm else np.inf)
        if beta < eps * xnorm:
            return SolveResult(x / x.sum(), trace, True, restart, {"restarts": restart})
        Q = np.zeros((m + 1, n))
        Hm = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        Q[0] = r / beta
        k = 0
        breakdown = False
        for k in range(m):
            w = apply_A(Q[k])
            cost += P.volume
            for j in range(k + 1):
                Hm[j, k] = float(Q[j] @ w)
                w -= Hm[j, k] * Q[j]
            Hm[k + 1, k] = float(np.linalg.norm(w))
            if Hm[k + 1, k] > 1e-300:
                Q[k + 1] = w / Hm[k + 1, k]
            else:
                breakdown = True
            for j in range(k):
                tmp = cs[j] * Hm[j, k] + sn[j] * Hm[j + 1, k]
                Hm[j + 1, k] = -sn[j] * Hm[j, k] + cs[j] * Hm[j + 1, k]
                Hm[j, k] = tmp
            denom = float(np.hypot(Hm[k, k], Hm[k + 1, k]))
            cs[k] = Hm[k, k] / denom
            sn[k] = Hm[k + 1, k] / denom
            Hm[k, k] = denom
            Hm[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            trace.record(restart, cost, abs(g[k + 1]) / xnorm if xnorm else np.inf)
            if breakdown or abs(g[k + 1]) < eps * xnorm:
                k += 1
                break
        else:
            k = m
        y = np.linalg.solve(Hm[:k, :k], g[:k])
        x = x + y @ Q[:k]
    raise NoConvergenceError(
        f"gmres: no convergence in {max_restarts} restarts",
        SolveResult(x / x.sum(), trace, False, max_restarts, {"restarts": max_restarts}),
    )


@dataclass
class GsoState:
    """Nonnegative residual/estimate pair of the positive-cash push solver."""

    C: np.ndarray
    H: np.ndarray
    t: int
    cum_cost: float


def gso_init(G: GoogleMatrix):
    return GsoState(C=(1.0 - G.c) * G.s.copy(), H=np.zeros(G.n), t=1, cum_cost=0.0)


def gso_step(state, G: GoogleMatrix, k):
    """Deposit residual k into the estimate and push its damped share."""
    amount = state.C[k]
    if amount != 0.0:
        state.H[k] += amount
        state.C[k] = 0.0
        G.push_damped(state.C, k, amount)
        state.cum_cost += float(G.out_degree[k])
    state.t += 1
    return state


def gso_pagerank(G: GoogleMatrix, schedule="greedy-max", eps=1e-11, max_steps=10_000_000, r=1.0, period=None, trace_stride=None):
    """Positive-cash push solver for x = c x P + (1-c) s.

    Starts from residual (1-c, s) and repeatedly moves one node's residual
    into the estimate, pushing the damped share back.  The estimate H
    converges to the solution without normalization.  Schedules, run by
    the engine's schedule classes: ``greedy-max`` (``MaxCash``, the
    classical rule), ``rr`` (``RoundRobin``) and ``theta`` (``Theta``,
    cyclic candidates over a power-mean threshold).  The residual is never
    negative, so their |C| rules are rules on C itself.
    """
    if not eps > 0:
        raise InvalidParamsError("eps must be > 0")
    if trace_stride is not None and trace_stride < 1:
        raise InvalidParamsError("trace stride must be >= 1")
    if schedule == "greedy-max":
        sched = schedules.MaxCash()
    elif schedule == "rr":
        sched = schedules.RoundRobin()
    elif schedule == "theta":
        sched = schedules.Theta(r, period)
    else:
        raise InvalidParamsError(f"unknown push schedule {schedule!r}")
    sched.bind(G)
    state = gso_init(G)
    stride = G.n if trace_stride is None else trace_stride
    trace = SolveTrace()
    resid = float(state.C.sum())
    trace.record(state.t, state.cum_cost, resid)
    moved = 0
    while True:
        resid = float(np.abs(state.C).sum())
        if resid < eps:
            trace.record(state.t, state.cum_cost, resid)
            return SolveResult(state.H.copy(), trace, True, state.t, {"state": state})
        if state.t >= max_steps:
            trace.record(state.t, state.cum_cost, resid)
            raise NoConvergenceError(
                f"push solver: no convergence in {max_steps} steps",
                SolveResult(state.H.copy(), trace, False, state.t, {"state": state}),
            )
        picked = sched.next_nodes(state.C)
        if picked.size:
            gso_step(state, G, int(picked[0]))
            moved += 1
            if moved % stride == 0:
                trace.record(state.t, state.cum_cost, float(np.abs(state.C).sum()))
        else:
            state.t += 1
