"""Optimal green-light block scheduling for the three-block mean-field model.

The per-block cash dynamics are exact and linear, so the state reduces to
(z1, z2) = (log10 of total absolute cash over the target precision, the
difference of the two normalized small-block cash shares).  Every action
weakly contracts the total absolute cash, so the value function solves in
one backward pass over the z1 axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .engine import write_csv
from .errors import (
    InvalidParamsError,
    NoConvergenceError,
    OutOfRangeError,
    ZeroCashError,
)
from .models import MeanFieldMatrix


class Action(IntEnum):
    """The seven green-light block sets of the three-block model."""

    A1 = 1
    A2 = 2
    A3 = 3
    A4 = 4
    A5 = 5
    A6 = 6
    A7 = 7

    @property
    def blocks(self):
        return _ACTION_BLOCKS[self]


_ACTION_BLOCKS = {
    Action.A1: (0,),
    Action.A2: (1,),
    Action.A3: (2,),
    Action.A4: (0, 1),
    Action.A5: (1, 2),
    Action.A6: (0, 2),
    Action.A7: (0, 1, 2),
}


def _check_sizes(sizes):
    sizes = np.asarray(sizes, dtype=float)
    if sizes.size != 3 or np.any(sizes < 1):
        raise InvalidParamsError("need three block sizes >= 1")
    if not (sizes[0] >= sizes[1] >= sizes[2]):
        raise InvalidParamsError("sizes must be ordered N1 >= N2 >= N3")
    return sizes


@dataclass
class BlockCash:
    """Per-node cash of each block; total cash N.c is zero."""

    c: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.sizes = _check_sizes(self.sizes)

    @property
    def l1(self):
        return float(_block_l1(self.c, self.sizes))

    @property
    def total(self):
        return float((self.sizes * self.c).sum())


def _block_l1(c, sizes):
    """Total absolute cash sum_i N_i |c_i| of a cash vector, or of each in a stack."""
    return (sizes * np.abs(c)).sum(-1)


def block_cash_update(c, sizes, p, q, action):
    """Exact one-step cash update when the given blocks push together.

    Each pushing block i keeps fraction N_i p / D_i of its per-node cash
    and sends N_i q / D_i per node to every other block, with
    D_i = N_i (p - q) + N q.  Non-pushing blocks keep their cash and add
    the inflows.  Total cash N.c stays zero.  ``c`` may be a stack of cash
    vectors whose last axis is the three blocks; each goes through the
    same operations, in the same order, as it would alone.
    """
    c = np.asarray(c, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    N = sizes.sum()
    D = sizes * (p - q) + N * q
    blocks = Action(action).blocks
    active = np.isin(np.arange(3), blocks)
    keep = np.where(active, sizes * p / D, 1.0)
    out = c * keep
    send = np.where(active, c * sizes * q / D, 0.0)
    for i in blocks:
        out += np.where(np.arange(3) == i, 0.0, send[..., i:i + 1])
    return out


def action_cost(action, sizes, p, q):
    """Average operation count of giving the action's blocks green light."""
    sizes = np.asarray(sizes, dtype=float)
    singles = sizes * (p * sizes + q * (sizes.sum() - sizes))
    return float(singles[list(Action(action).blocks)].sum())


def encode_state(c, sizes, eps):
    """Map cash to (z1, z2) = (log10(||c||_1 / eps), y2 - y3).

    The sign flip c -> -c is applied first when c_1 < 0 (value and policy
    are symmetric under it), and y_i = 2 N_i c_i / ||c||_1.  A stack of
    cash vectors (last axis the blocks) gives arrays of z1 and z2, each
    entry the bytes its vector gives alone; one vector gives floats.
    """
    c = np.asarray(c, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    l1 = _block_l1(c, sizes)
    if np.any(l1 == 0.0):
        raise ZeroCashError("cannot encode the zero-cash state")
    c = np.where(c[..., :1] < 0, -c, c)
    y = 2.0 * sizes * c / l1[..., None]
    z1, z2 = np.log10(l1 / eps), y[..., 1] - y[..., 2]
    return (float(z1), float(z2)) if c.ndim == 1 else (z1, z2)


def decode_state(z2):
    """Inverse of the z2 transform: the unique (y2, y3) with y1 >= 0, of each z2 in an array."""
    z2 = np.asarray(z2, dtype=float)
    if not np.all((-2.0 <= z2) & (z2 <= 2.0)):
        raise OutOfRangeError(f"z2 = {z2} outside [-2, 2]")
    y2 = np.where(z2 >= 1.0, z2 - 1.0, np.where(z2 >= -1.0, (z2 - 1.0) / 2.0, -1.0))
    y3 = np.where(z2 >= 1.0, -1.0, np.where(z2 >= -1.0, -(z2 + 1.0) / 2.0, -z2 - 1.0))
    return (float(y2), float(y3)) if z2.ndim == 0 else (y2, y3)


def cash_from_state(z1, z2, sizes, eps):
    """Representative cash vector of a grid state (c_1 >= 0 half-plane); one per z2 of an array."""
    sizes = np.asarray(sizes, dtype=float)
    y2, y3 = decode_state(z2)
    y = np.stack([-y2 - y3, y2, y3], axis=-1)
    l1 = eps * 10.0**z1
    return y * l1 / (2.0 * sizes)


def meanfield_init(sizes, p, q):
    """Initial block cash from one full uniform push on the block model.

    Aggregates the step-one cash per block, oriented so the largest block
    starts negative (mass flows toward the high-degree block; the value
    function is symmetric under the global sign).
    """
    sizes = _check_sizes(sizes)
    mf = MeanFieldMatrix([int(s) for s in sizes], p, q)
    m0 = np.full(mf.n, 1.0 / mf.n)
    per_node = m0 - mf.mul_left(m0)
    c = np.array([per_node[mf.starts[b]] for b in range(3)])
    return BlockCash(c=c, sizes=sizes)


@dataclass
class PolicyGrid:
    """Value function and optimal action on the discretized (z1, z2) plane."""

    z1_axis: np.ndarray
    z2_axis: np.ndarray
    V: np.ndarray
    A: np.ndarray
    sizes: np.ndarray
    p: float
    q: float
    eps: float
    kappa: dict

    def action_at(self, z1, z2):
        """Nearest-cell action lookup."""
        i = int(np.clip(np.rint((z1 - self.z1_axis[0]) / self._h1), 0, len(self.z1_axis) - 1))
        j = int(np.clip(np.rint((z2 - self.z2_axis[0]) / self._h2), 0, len(self.z2_axis) - 1))
        a = self.A[i, j]
        if a < 0:
            i = 1  # terminal band: borrow the first live row
            a = self.A[i, j]
        return Action(int(a))

    @property
    def _h1(self):
        return self.z1_axis[1] - self.z1_axis[0]

    @property
    def _h2(self):
        return self.z2_axis[1] - self.z2_axis[0]

    def to_csv(self, path):
        """One row per cell, z1 major: z1, z2, action (-1 on the terminal row), V."""
        write_csv(path, ("z1", "z2", "action", "V"), arrays=(self.z1_axis[:, None], self.z2_axis, self.A, self.V))


def solve_policy(sizes, p, q, c0=None, eps=1e-10, n_z1=1400, n_z2=81):
    """One-pass backward induction for the minimal-cost schedule.

    The dynamics are scale invariant, so for each (z2 cell, action) the
    z1 decrement and the successor z2 are constants; cells are filled in
    increasing z1, interpolating the value bilinearly at successor
    states.  Actions that fail to reduce the total cash at a cell are
    excluded there.

    Each cell takes the least finite candidate cost; a tie goes to the
    action with the smaller cost kappa, then to the smaller action index.
    A NaN or +inf candidate is never taken, and a cell with no finite
    candidate keeps V = inf and action -1.

    The (action, z2 cell) terms come from one ``block_cash_update`` call
    per action on the stack of the n_z2 unit cash vectors, each vector the
    bytes it gives alone; only the cells an action moves are encoded.  The
    rows 1.. are filled by the compiled ``rlgl_policy_rows`` (``pushloop``)
    when the library loads, else by one numpy pass per row
    (``_policy_rows``).  Both repeat the same operations in the same
    order, so V and A come out with the same bytes.
    """
    sizes = _check_sizes(sizes)
    if not 0.0 < eps < np.inf:
        raise InvalidParamsError(f"eps must be finite and > 0, got {eps!r}")
    if n_z1 < 2 or n_z2 < 2:
        raise InvalidParamsError("grid needs at least 2 points per axis")
    if c0 is None:
        c0 = meanfield_init(sizes, p, q)
    c0_l1 = c0.l1 if isinstance(c0, BlockCash) else _block_l1(c0, sizes)
    z1_max = float(np.log10(c0_l1 / eps))
    if z1_max <= 0:
        raise InvalidParamsError("initial cash already below eps")
    z1_axis = np.linspace(0.0, z1_max, n_z1)
    z2_axis = np.linspace(-2.0, 2.0, n_z2)
    h1 = z1_axis[1] - z1_axis[0]
    h2 = z2_axis[1] - z2_axis[0]

    kappa = {a: action_cost(a, sizes, p, q) for a in Action}
    # evaluation order makes argmin ties fall to cheapest kappa, then index
    order = sorted(Action, key=lambda a: (kappa[a], int(a)))
    ids = np.array([int(a) for a in order], dtype=np.int8)
    cost = np.array([[kappa[a]] for a in order])

    # the actions as the rows of one (7, n_z2) stack, in `order`: the z1 shift and
    # successor z2 of each (action, z2 cell); nothing here depends on the z1 row
    units = cash_from_state(0.0, z2_axis, sizes, 1.0)  # each ||c||_1 = 1
    c_next = np.stack([block_cash_update(units, sizes, p, q, a) for a in order])
    g = _block_l1(c_next, sizes)
    annul = g == 0.0
    moves = ~annul & (g < 1.0 - 1e-15)  # an action that does not contract is excluded at the cell
    usable = annul | moves
    with np.errstate(divide="ignore"):
        shift = np.where(usable, np.log10(g), np.nan)  # -inf where the action annihilates the cash
    z2_next = np.zeros(g.shape)
    z2_next[moves] = encode_state(c_next[moves], sizes, 1.0)[1]
    fj = np.clip((z2_next - z2_axis[0]) / h2, 0.0, n_z2 - 1.0)
    j0 = np.minimum(fj.astype(np.int64), n_z2 - 2)
    wj = fj - j0

    V = np.zeros((n_z1, n_z2))
    A = np.full((n_z1, n_z2), -1, dtype=np.int8)
    terms = (z1_axis, h1, shift, usable, moves, cost, j0, wj, ids)
    if not _policy_rows_compiled(V, A, *terms):
        _policy_rows(V, A, *terms)
    return PolicyGrid(
        z1_axis=z1_axis,
        z2_axis=z2_axis,
        V=V,
        A=A,
        sizes=sizes,
        p=p,
        q=q,
        eps=eps,
        kappa={int(a): k for a, k in kappa.items()},
    )


def _policy_rows(V, A, z1_axis, h1, shift, usable, moves, cost, j0, wj, ids):
    """Fill rows 1.. of V and A in increasing z1, one array pass per row over the (action, z2) stack."""
    n_z2 = V.shape[1]
    jj = np.arange(n_z2)
    with np.errstate(invalid="ignore"):  # an inf value times a zero weight is NaN, and never picked
        for i in range(1, V.shape[0]):
            z1p = z1_axis[i] + shift
            live = moves & (z1p > 0.0)
            # bilinear interpolation; rows not yet filled clamp down one
            fi = np.where(live, z1p, 0.0) / h1
            i0 = np.minimum(fi.astype(np.int64), i - 1)
            i1 = np.minimum(i0 + 1, i - 1)
            wi = np.where(i1 == i0, 0.0, np.clip(fi - i0, 0.0, 1.0))
            v_next = (1 - wi) * ((1 - wj) * V[i0, j0] + wj * V[i0, j0 + 1]) + wi * (
                (1 - wj) * V[i1, j0] + wj * V[i1, j0 + 1]
            )
            cand = cost + np.where(live, v_next, 0.0)
            cand = np.where(usable & (cand < np.inf), cand, np.inf)  # NaN and +inf are never picked
            k = cand.argmin(axis=0)  # the first minimum in `order`, as a strict-< scan picks it
            V[i] = cand[k, jj]
            A[i] = np.where(V[i] < np.inf, ids[k], -1)


def _policy_rows_compiled(V, A, z1_axis, h1, shift, usable, moves, cost, j0, wj, ids):
    """``_policy_rows`` by ``rlgl_policy_rows``, with its bytes; False when the library cannot load."""
    from . import pushloop  # imported, and compiled, only by a policy solve

    lib = pushloop.load()
    if lib is None:
        return False
    # kept referenced while C reads them
    arrays = [np.ascontiguousarray(a, dtype=t) for a, t in (
        (z1_axis, np.float64), (shift, np.float64), (usable, np.uint8), (moves, np.uint8),
        (cost, np.float64), (j0, np.int64), (wj, np.float64), (ids, np.int8),
    )]
    n_z1, n_z2 = V.shape
    ptrs = [a.ctypes.data for a in arrays]
    lib.rlgl_policy_rows(n_z1, n_z2, len(ids), ptrs[0], h1, *ptrs[1:], V.ctypes.data, A.ctypes.data)
    return True


@dataclass
class SimulationResult:
    actions: list
    cash_l1: list
    cum_cost: list
    converged: bool

    def to_csv(self, path):
        """Trajectory: the start as row 0 (no action, cost 0), then one row per action."""
        actions = ["", *map(int, self.actions)]
        rows = zip(range(len(actions)), actions, self.cash_l1, [0, *self.cum_cost[1:]])
        write_csv(path, ("step", "action", "cash_l1", "cum_cost"), rows)


def simulate_policy(c0, policy, sizes, p, q, eps=1e-10, max_steps=100_000):
    """Run the block dynamics under a policy grid or fixed action cycle.

    Stops when the total absolute cash reaches eps; raises
    NoConvergenceError (result attached) at max_steps, which single-block
    constant schedules generically hit because the cash stalls at a
    positive limit.  Raises InvalidParamsError unless max_steps >= 1, the
    cycle holds an action and the start cash is three finite numbers.
    """
    sizes = _check_sizes(sizes)
    if max_steps < 1:
        raise InvalidParamsError(f"max_steps must be >= 1, got {max_steps!r}")
    c = np.array(c0.c if isinstance(c0, BlockCash) else c0, dtype=float)
    if c.shape != (3,) or not np.all(np.isfinite(c)):
        raise InvalidParamsError(f"start cash must be three finite numbers, got {c!r}")
    fixed = None if isinstance(policy, PolicyGrid) else [Action(a) for a in policy]
    if fixed == []:
        raise InvalidParamsError("the action cycle is empty")
    kappa = {a: action_cost(a, sizes, p, q) for a in Action}
    actions = []
    l1 = float(_block_l1(c, sizes))
    cash = [l1]
    cost = [0.0]
    for k in range(max_steps):
        if l1 <= eps:
            return SimulationResult(actions, cash, cost, True)
        if fixed is not None:
            a = fixed[k % len(fixed)]
        else:
            z1, z2 = encode_state(c, sizes, eps)
            a = policy.action_at(z1, z2)
        c = block_cash_update(c, sizes, p, q, a)
        l1 = float(_block_l1(c, sizes))
        actions.append(a)
        cash.append(l1)
        cost.append(cost[-1] + kappa[a])
    raise NoConvergenceError(
        f"block simulation: no convergence in {max_steps} steps",
        SimulationResult(actions, cash, cost, False),
    )
