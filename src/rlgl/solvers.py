"""Reference solvers: power iteration, Gauss-Seidel, restarted GMRES, and
the positive-cash push solver for the damped restart (PageRank) system.

Gauss-Seidel and the push solver are engine runs: round-robin pushes on
``GaussSeidelRows(P)``, and pushes from the cash ``(1-c) s`` on the
``damped`` rows of ``google_matrix``'s output, picked by any engine
schedule (the CLI's ``gso:<schedule>``; ``MaxCash`` by default).

Every solver records the engine's ``RunTrace``.  The engine runs keep its
rows and their ``cash_l1`` residual.  Power iteration writes a row per
product x P, with residual ``delta_l1`` (``||x_{t+1} - x_t||_1``), and
GMRES a row per product, with residual ``gmres_rel`` (``||A x||_2 /
||x||_2``, the restart's first row the true one and the others its
least-squares estimate).  Their ``updates`` count n per product, as a full
sweep moves every node's entry once, and their ``scan_cost`` is 0: neither
scans.

Every solver returns the engine's ``RunResult``, and raises it as
``NoConvergenceError.result``.  ``iterations`` counts the engine run's
steps, power iteration's products and GMRES's restarts; power iteration
and GMRES hold no cash, so their ``state`` and ``kernel`` are None."""

from __future__ import annotations

import dataclasses

import numpy as np

from . import schedules
# bound at import: perfbench's tracing wraps engine.run for rlgl runs only
from .engine import RunResult, RunTrace, check_eps, run as run_engine
from .errors import InvalidParamsError, NoConvergenceError
from .matrix import GaussSeidelRows, TransitionMatrix


def power_iteration(P, eps=1e-10, max_iters=100_000):
    """Iterate x <- x P from the uniform vector until the L1 step difference drops below eps.

    Each iteration is charged one full sweep (the matrix volume).  Raises
    InvalidParamsError unless eps is finite and > 0.
    """
    check_eps(eps)
    n = P.n
    x = np.full(n, 1.0 / n)
    trace = RunTrace(residual="delta_l1")
    volume = P.volume
    cost = 0.0
    for it in range(1, max_iters + 1):
        x_next = P.mul_left(x)
        cost += volume
        diff = float(np.abs(x_next - x).sum())
        trace.rows.append((it, it * n, cost, 0.0, diff))
        x = x_next
        if diff < eps:
            return RunResult(x, trace, True, it)
    raise NoConvergenceError(
        f"power iteration: no convergence in {max_iters} iterations",
        RunResult(x, trace, False, max_iters),
    )


def _engine_solve(name, P, schedule, estimate, eps, max_steps, trace_stride, **start):
    """The engine run's result, with ``pi_hat`` replaced by ``estimate(H)``.

    Raises NoConvergenceError with that result when the run hits max_steps.
    """
    try:
        res = run_engine(P, schedule, eps=eps, max_steps=max_steps, trace_stride=trace_stride, **start)
    except NoConvergenceError as exc:
        res = exc.result
    out = dataclasses.replace(res, pi_hat=estimate(res.state.H))
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


def gmres_restarted(P, m=10, eps=1e-11, max_restarts=1000):
    """Restarted GMRES on (P^T - I) x = 0 from the uniform vector.

    The operator is applied matrix-free through the stored rows; the
    least-squares problem uses modified Gram-Schmidt with incremental
    plane rotations.  Stops when ||A x||_2 < eps * ||x||_2, a happy
    breakdown (residual estimate 0) included; the returned vector is
    normalized to sum one.  eps must be finite and > 0 and the restart
    dimension m >= 1 (InvalidParamsError); an m above n is taken as n, the
    most dimensions a Krylov space of an n-state chain has.
    """
    check_eps(eps)
    n = P.n
    apply_A = lambda v: P.mul_left(v) - v
    x = np.full(n, 1.0 / n)
    if m < 1:
        raise InvalidParamsError("restart dimension must be >= 1")
    m = min(m, n)
    trace = RunTrace(residual="gmres_rel")
    volume = P.volume
    cost = 0.0
    products = 0
    for restart in range(max_restarts):
        r = -apply_A(x)
        cost += volume
        products += 1
        beta = float(np.linalg.norm(r))
        xnorm = float(np.linalg.norm(x))
        trace.rows.append((restart, products * n, cost, 0.0, beta / xnorm if xnorm else np.inf))
        if beta < eps * xnorm:
            return RunResult(x / x.sum(), trace, True, restart)
        Q = np.zeros((m + 1, n))
        Hm = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        Q[0] = r / beta
        k = 0
        for k in range(m):
            w = apply_A(Q[k])
            cost += volume
            products += 1
            for j in range(k + 1):
                Hm[j, k] = float(Q[j] @ w)
                w -= Hm[j, k] * Q[j]
            Hm[k + 1, k] = float(np.linalg.norm(w))
            if Hm[k + 1, k] > 1e-300:
                Q[k + 1] = w / Hm[k + 1, k]
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
            trace.rows.append((restart, products * n, cost, 0.0, abs(g[k + 1]) / xnorm if xnorm else np.inf))
            if abs(g[k + 1]) < eps * xnorm:
                k += 1
                break
        else:
            k = m
        y = np.linalg.solve(Hm[:k, :k], g[:k])
        x = x + y @ Q[:k]
    raise NoConvergenceError(
        f"gmres: no convergence in {max_restarts} restarts",
        RunResult(x / x.sum(), trace, False, max_restarts),
    )


def gso_pagerank(G: TransitionMatrix, schedule=None, eps=1e-11, max_steps=10_000_000, trace_stride=None):
    """Positive-cash push solver for x = c x P + (1-c) s.

    Starts from residual (1-c, s) and repeatedly moves the residual of the
    nodes ``schedule`` picks into the estimate, pushing the damped share
    back; any engine schedule runs, and None means ``MaxCash()`` (the
    classical greatest-residual rule).  The estimate H converges to the
    solution without normalization.  The residual is never negative, so
    |C| rules are rules on C itself and its L1 norm is its sum.  G must
    have a restart part (``google_matrix``); InvalidParamsError otherwise.
    """
    if getattr(G, "s", None) is None:
        raise InvalidParamsError("the push solver needs a matrix with a restart part (google_matrix)")
    sched = schedules.MaxCash() if schedule is None else schedule
    return _engine_solve(
        "push solver", G.damped, sched, np.copy, eps, max_steps, trace_stride, cash=(1.0 - G.c) * G.s
    )
