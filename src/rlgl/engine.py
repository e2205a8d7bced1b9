"""The cash-flow iteration: init, push steps, estimator, and run loop.

Each node carries signed cash; at every step the scheduled nodes push
their entire cash along their out-edges proportionally to the transition
probabilities.  The history vector accumulates everything each node has
ever moved, and its normalization estimates the stationary distribution.
Total cash stays zero and the total absolute cash never increases, which
the engine tracks and the test suite asserts on every run.

``step`` is the exact definition: after every push ``cash_l1`` is the
sum ``float(np.abs(C).sum())``, an O(n) pass on top of the push's
O(degree).  The compiled loop (``pushloop``) keeps ``||C||_1``
incrementally, and takes numpy's exact sum itself at every trace row,
stop test and return that reads it; so the engine only ever sees the
exact sum, and every stop decision and every traced value is that sum
on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateHistoryError,
    InvalidIndexError,
    InvalidParamsError,
    NoConvergenceError,
    ZeroTotalHistoryError,
)
from .matrix import check_distribution

GUARD_UNIT = 1e-12
MAX_GUARD_RETRIES = 3

# Rows of a numeric table formatted at a time by write_csv, and the bytes a
# cell may take: the longest %.17g (-2.2250738585072014e-308) and a separator.
CSV_BLOCK = 1 << 13
CELL_BYTES = 25


@dataclass
class SolverState:
    """Mutable per-run state of the cash-flow iteration."""

    C: np.ndarray
    H: np.ndarray
    t: int
    cum_cost: float
    scan_cost: float
    total_history: float
    initial_mass: float
    cash_l1: float
    updates: int = 0
    max_l1_increase: float = 0.0
    # Largest gap between the compiled loop's incremental ||C||_1 and an exact sum it took.
    max_l1_drift: float = 0.0

    @property
    def n(self):
        return self.C.size

    def guard_threshold(self):
        return GUARD_UNIT * self.t * self.initial_mass


def write_csv(path, columns, rows=(), *, arrays=None):
    """Write a header line, then one LF-terminated line per row.

    The rows are those of ``rows`` (any iterable), whose ``str`` cells are
    written as they are and every other cell as %.17g, or those of a
    numeric table ``arrays``: one array per column, broadcast together,
    one row per entry of the broadcast shape in C order.  A table cell is
    written as ``"%.17g" % float(cell)``, as %.17g writes any number, an
    integer above 2^53 included.  A table is formatted one block of rows at
    a time (``CSV_BLOCK``), by the compiled ``rlgl_format_rows``
    (``pushloop``) when it loads and the locale's decimal point is ".",
    else by one ``%`` template per block; so only a block is ever copied.
    """
    if arrays is None:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join([v if isinstance(v, str) else "%.17g" % v for v in row]) + "\n")
        return
    from . import pushloop  # imported, and compiled, only by a table or a run

    lib = pushloop.load()
    arrays = np.broadcast_arrays(*arrays)
    shape = arrays[0].shape
    width = len(arrays)
    per_entry = int(np.prod(shape[1:]))  # rows per entry of the first axis
    step = max(1, CSV_BLOCK // max(per_entry, 1))
    block = np.empty((min(step, shape[0]), *shape[1:], width))
    out = np.empty(block.size * CELL_BYTES, dtype=np.uint8) if lib is not None else None
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        for i in range(0, shape[0], step):
            part = block[:min(step, shape[0] - i)]
            for j, a in enumerate(arrays):
                part[..., j] = a[i:i + step]
            cells = part.reshape(-1, width)
            size = -1 if lib is None else lib.rlgl_format_rows(
                len(cells), width, cells.ctypes.data, pushloop.pow10_table().ctypes.data, out.ctypes.data, out.size)
            if size >= 0:
                fh.write(out[:size])
            else:
                template = (",".join(["%.17g"] * width) + "\n") * len(cells)
                fh.write((template % tuple(cells.ravel().tolist())).encode())


@dataclass
class RunTrace:
    """Sampled (step, cumulative updates, costs, residual) records, one tuple per row.

    ``residual`` names the last field, the quantity the run drives below
    eps: ``cash_l1`` (||C_t||_1) for an engine run, else what a baseline
    solver sets (``solvers``).
    """

    rows: list = field(default_factory=list)
    residual: str = "cash_l1"

    @property
    def columns(self):
        return ("step", "updates", "cum_cost", "scan_cost", self.residual)

    def column(self, name):
        j = self.columns.index(name)
        return np.array([r[j] for r in self.rows])

    def record(self, state):
        self.rows.append((state.t, state.updates, state.cum_cost, state.scan_cost, state.cash_l1))


@dataclass
class RunResult:
    pi_hat: np.ndarray
    state: SolverState
    trace: RunTrace
    converged: bool
    restarts: int = 0
    guard_events: list = field(default_factory=list)
    # "c" when the compiled push loop ran the steps, "py" for engine.step
    kernel: str = "py"


def init(P, M0=None, *, cash=None):
    """Start a run: every node pushes its share of the seed distribution.

    Leaves the state at step 1 with C = M0 P - M0 and H = M0.  The step
    is charged the volume of M0's support.

    A cash start (n finite values in ``cash``, no M0) leaves C = cash,
    H = 0 and t = 1, with nothing charged and no node updated.  The guard
    scale ``initial_mass`` is ``||cash||_1``, or 0 for nonnegative cash,
    whose history only grows.
    """
    if cash is not None:
        C = np.array(cash, dtype=float)
        if M0 is not None or C.shape != (P.n,) or not np.isfinite(C).all():
            raise InvalidParamsError(f"a cash start takes {P.n} finite values and no M0")
        l1 = float(np.abs(C).sum())
        return SolverState(C=C, H=np.zeros(P.n), t=1, cum_cost=0.0, scan_cost=0.0, total_history=0.0,
                           initial_mass=0.0 if (C >= 0).all() else l1, cash_l1=l1)
    M0 = check_distribution(M0, P.n)
    C = P.mul_left(M0) - M0
    support = M0 > 0
    return SolverState(
        C=C,
        H=M0.copy(),
        t=1,
        cum_cost=float(P.out_degree[support].sum()),
        scan_cost=0.0,
        total_history=float(M0.sum()),
        initial_mass=float(np.abs(M0).sum()),
        cash_l1=float(np.abs(C).sum()),
        updates=int(support.sum()),
    )


def _account(state, old_l1):
    """Set ``cash_l1`` to the exact sum after a push, and fold its rise from
    ``old_l1``, the exact sum before the push, into ``max_l1_increase``."""
    state.cash_l1 = float(np.abs(state.C).sum())
    state.max_l1_increase = max(state.max_l1_increase, state.cash_l1 - old_l1)


def _is_permutation(G, n):
    """Validate a multi-node green-light set; True when it is all of [0, n).

    Raises InvalidIndexError for ids outside [0, n) or repeated ids.  The
    permutation test is O(n) with no sort, so full sweeps stay cheap.
    """
    if G.size == n and G[0] == 0 and G[-1] == n - 1 and (G[1:] > G[:-1]).all():
        return True  # strictly increasing from 0 to n-1: the sweep's usual arange
    if G.min() < 0 or G.max() >= n:
        raise InvalidIndexError(f"green-light set has a node outside [0, {n})")
    if G.size == n:
        seen = np.zeros(n, dtype=bool)
        seen[G] = True
        distinct = bool(seen.all())
    else:
        distinct = G.size < n and np.unique(G).size == G.size
    if not distinct:
        raise InvalidIndexError("green-light set repeats a node")
    return G.size == n


def step(state, G, P):
    """Push the full cash of every node in G; no-op entries are free.

    G lists distinct node ids in [0, n); InvalidIndexError otherwise.  An
    empty G only advances the step counter.
    """
    G = np.asarray(G, dtype=np.int64)
    n = state.C.size
    old_l1 = state.cash_l1
    if G.size == 1:
        # Single-node push: scalar reads and one row slice.
        i = int(G[0])
        if not 0 <= i < n:
            raise InvalidIndexError(f"node {i} outside [0, {n})")
        C = state.C
        a = float(C[i])
        if a != 0.0:
            state.H[i] += a
            state.total_history += a
            C[i] = 0.0
            P.scatter_add(C, [i], [a])
            state.cum_cost += float(P.out_degree[i])
            state.updates += 1
            _account(state, old_l1)
    elif G.size and _is_permutation(G, n):
        # Full sweep: C - M + M P collapses to one vector-matrix product.
        moved = state.C
        movers = int(np.count_nonzero(moved))
        state.H += moved
        state.total_history += float(moved.sum())
        state.C = P.mul_left(moved)
        state.cum_cost += float(P.out_degree[moved != 0].sum())
        state.updates += movers
        _account(state, old_l1)
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
            _account(state, old_l1)
    state.t += 1
    return state


def estimate(state):
    """Normalized history H / (H 1); raises when the total history vanishes."""
    total = float(state.H.sum())
    if abs(total) <= state.guard_threshold():
        raise ZeroTotalHistoryError(f"|H 1| = {abs(total)!r} at step {state.t}")
    return state.H / total


GUARD_CONTINUE = "continue"
GUARD_RESTART = "restart"
GUARD_PERTURB = "perturb"


def guard_total_history(state, schedule):
    """Decide how to react to a (near-)zero total history.

    Stochastic schedules restart with the next seed; deterministic ones
    rotate their node order by one and restart.  Healthy states continue,
    and so do states where no cash has moved yet (a cash start).
    """
    if not state.updates or abs(state.total_history) > state.guard_threshold():
        return GUARD_CONTINUE
    return GUARD_RESTART if schedule.stochastic else GUARD_PERTURB


def run(P, schedule, M0=None, *, cash=None, eps=1e-10, max_steps=1_000_000, trace_stride=None):
    """Iterate until ||C_t||_1 < eps, guarding degenerate histories.

    The residual ||C_t||_1 is monotone.  Each loop pass is a checkpoint,
    then one push: the start row, or a trace row every ``trace_stride``
    node updates (default: one sweep-equivalent, n updates), the guard,
    and one exit, at convergence or ``max_steps``, with the end row.

    ``RoundRobin``, ``Theta``, ``MaxCash`` and ``ProportionalCash`` runs
    on a ``TransitionMatrix``, with or without a restart part, or on a
    ``MeanFieldMatrix`` of up to ``DENSE_CAP`` states (any matrix whose
    ``csr_push`` is not None), take their steps in a compiled loop
    (``pushloop``) that also runs the checkpoints and writes the trace
    rows, the ones appended here, returning only at the exit, the guard,
    a pick or a refresh Python must make, or a full row buffer, with the
    same bytes (and the same draws from a ``ProportionalCash`` generator)
    as ``step``; ``RunResult.kernel`` says which path ran.  Each return
    hands back the exact ``||C||_1``, as ``step`` does, so the run stops
    on ``state.cash_l1 < eps`` alone.

    ``cash`` starts the run from that cash (see ``init``).  The
    total-history guard then applies once cash has moved.  ``pi_hat`` is
    the estimate at the exit, also at ``max_steps``, and None when no cash
    has moved or the total history is too small to normalize.

    Raises InvalidParamsError unless eps is finite and > 0 and the trace
    stride >= 1, NoConvergenceError at max_steps and DegenerateHistoryError
    when the total-history guard exhausts its retries; the last two carry
    the partial result as ``.result``.
    """
    if not 0.0 < eps < np.inf:
        raise InvalidParamsError(f"eps must be finite and > 0, got {eps!r}")
    if trace_stride is not None and trace_stride < 1:
        raise InvalidParamsError("trace stride must be >= 1")
    stride = P.n if trace_stride is None else int(trace_stride)
    schedule.bind(P)
    from . import pushloop  # imported by a run; compiled only by one that binds a loop

    loop = pushloop.bind(P, schedule)
    kernel = "py" if loop is None else "c"

    guard_events = []
    for restarts in range(MAX_GUARD_RETRIES + 1):
        if restarts:
            if schedule.stochastic:
                schedule.reseed()
            else:
                schedule.perturb()
        schedule.restart()
        state = init(P, M0, cash=cash)
        trace = RunTrace()
        while True:
            # the checkpoint: a trace row due stride updates after the last row's (its field 1),
            # the guard, the one exit
            if not trace.rows or state.updates - trace.rows[-1][1] >= stride:
                trace.record(state)
            action = guard_total_history(state, schedule)
            if action != GUARD_CONTINUE:
                guard_events.append((state.t, action))
                break
            converged = state.cash_l1 < eps
            if converged or state.t >= max_steps:
                trace.record(state)
                pi = None
                if state.updates:
                    try:
                        pi = estimate(state)
                    except ZeroTotalHistoryError:
                        pass
                result = RunResult(pi, state, trace, converged, restarts, guard_events, kernel)
                if converged:
                    return result
                raise NoConvergenceError(f"no convergence in {max_steps} steps", result)
            if loop is not None and loop.advance(state, schedule, eps, max_steps, trace.rows[-1][1] + stride, stride):
                trace.rows += loop.written
            else:
                step(state, schedule.next_nodes(state.C), P)
            state.scan_cost = schedule.scan_cost

    err = DegenerateHistoryError(f"total history degenerate after {MAX_GUARD_RETRIES} retries")
    err.result = RunResult(None, state, trace, False, MAX_GUARD_RETRIES, guard_events, kernel)
    raise err
