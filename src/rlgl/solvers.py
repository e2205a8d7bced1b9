"""Reference solvers: power iteration, Gauss-Seidel, restarted GMRES, and
the positive-cash push solver for the damped restart (PageRank) system.

Gauss-Seidel and the push solver are engine runs: round-robin pushes on
``GaussSeidelRows(P)``, and pushes from the cash ``(1-c) s`` on the
``damped`` rows of ``google_matrix``'s output."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import schedules
# bound at import: perfbench's tracing wraps engine.run for rlgl runs only
from .engine import Trace, run as run_engine
from .errors import InvalidParamsError, NoConvergenceError
from .matrix import GaussSeidelRows, TransitionMatrix, check_distribution


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


def _engine_solve(name, P, schedule, estimate, eps, max_steps, trace_stride, **start):
    """One engine run as a SolveResult: ``estimate(H)``, the trace's (step, cost, cash_l1) rows, and steps.

    Raises NoConvergenceError with that result when the run hits max_steps.
    """
    if not eps > 0:
        raise InvalidParamsError("eps must be > 0")
    if trace_stride is not None and trace_stride < 1:
        raise InvalidParamsError("trace stride must be >= 1")
    try:
        res = run_engine(P, schedule, eps=eps, max_steps=max_steps, trace_stride=trace_stride, **start)
    except NoConvergenceError as exc:
        res = exc.result
    state = res.state
    trace = SolveTrace([(t, cost, resid) for t, _, cost, _, resid, _ in res.trace.rows])
    out = SolveResult(estimate(state.H), trace, res.converged, state.t, {"state": state, "kernel": res.kernel})
    if not res.converged:
        raise NoConvergenceError(f"{name}: no convergence in {max_steps} steps", out)
    return out


def gauss_seidel(P, eps=1e-10, max_steps=10_000_000, trace_stride=None):
    """Gauss-Seidel sweeps x_j <- sum_{i != j} x_i p_ij / (1 - p_jj) from x = 1.

    Run as the engine's round-robin pushes on ``GaussSeidelRows(P)`` from
    M0 proportional to ``1 / scale`` (1 - p_ii): every n steps make one
    sweep on ``x = H * scale``, the cash is ``x P - x``, and the run stops
    when its L1 norm is below eps.  ``iterations`` counts steps.  Raises
    AbsorbingStateError when some p_jj = 1.
    """
    rows = GaussSeidelRows(P)
    M0 = 1.0 / rows.scale
    M0 /= M0.sum()

    def estimate(H):
        x = H * rows.scale
        return x / x.sum()

    return _engine_solve("gauss-seidel", rows, schedules.RoundRobin(), estimate, eps, max_steps, trace_stride, M0=M0)


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


def gso_pagerank(G: TransitionMatrix, schedule="greedy-max", eps=1e-11, max_steps=10_000_000, r=1.0, period=None, trace_stride=None):
    """Positive-cash push solver for x = c x P + (1-c) s.

    Starts from residual (1-c, s) and repeatedly moves one node's residual
    into the estimate, pushing the damped share back.  The estimate H
    converges to the solution without normalization.  Schedules, run by
    the engine's schedule classes: ``greedy-max`` (``MaxCash``, the
    classical rule), ``rr`` (``RoundRobin``) and ``theta`` (``Theta``,
    cyclic candidates over a power-mean threshold).  The residual is never
    negative, so their |C| rules are rules on C itself and its L1 norm is
    its sum.  G must have a restart part (``google_matrix``);
    InvalidParamsError otherwise.
    """
    if getattr(G, "s", None) is None:
        raise InvalidParamsError("the push solver needs a matrix with a restart part (google_matrix)")
    if schedule == "greedy-max":
        sched = schedules.MaxCash()
    elif schedule == "rr":
        sched = schedules.RoundRobin()
    elif schedule == "theta":
        sched = schedules.Theta(r, period)
    else:
        raise InvalidParamsError(f"unknown push schedule {schedule!r}")
    return _engine_solve(
        "push solver", G.damped, sched, np.copy, eps, max_steps, trace_stride, cash=(1.0 - G.c) * G.s
    )
