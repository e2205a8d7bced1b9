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
        return float((self.sizes * np.abs(self.c)).sum())

    @property
    def total(self):
        return float((self.sizes * self.c).sum())


def block_cash_update(c, sizes, p, q, action):
    """Exact one-step cash update when the given blocks push together.

    Each pushing block i keeps fraction N_i p / D_i of its per-node cash
    and sends N_i q / D_i per node to every other block, with
    D_i = N_i (p - q) + N q.  Non-pushing blocks keep their cash and add
    the inflows.  Total cash N.c stays zero.
    """
    c = np.asarray(c, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    N = sizes.sum()
    D = sizes * (p - q) + N * q
    active = np.zeros(3, dtype=bool)
    active[list(Action(action).blocks)] = True
    keep = np.where(active, sizes * p / D, 1.0)
    out = c * keep
    send = np.where(active, c * sizes * q / D, 0.0)
    for i in range(3):
        if active[i]:
            out += np.where(np.arange(3) == i, 0.0, send[i])
    return out


def action_cost(action, sizes, p, q):
    """Average operation count of giving the action's blocks green light."""
    sizes = np.asarray(sizes, dtype=float)
    singles = sizes * (p * sizes + q * (sizes.sum() - sizes))
    return float(singles[list(Action(action).blocks)].sum())


def encode_state(c, sizes, eps):
    """Map cash to (z1, z2) = (log10(||c||_1 / eps), y2 - y3).

    The sign flip c -> -c is applied first when c_1 < 0 (value and policy
    are symmetric under it), and y_i = 2 N_i c_i / ||c||_1.
    """
    c = np.asarray(c, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    l1 = float((sizes * np.abs(c)).sum())
    if l1 == 0.0:
        raise ZeroCashError("cannot encode the zero-cash state")
    if c[0] < 0:
        c = -c
    y = 2.0 * sizes * c / l1
    return float(np.log10(l1 / eps)), float(y[1] - y[2])


def decode_state(z2):
    """Inverse of the z2 transform: the unique (y2, y3) with y1 >= 0."""
    if not -2.0 <= z2 <= 2.0:
        raise OutOfRangeError(f"z2 = {z2} outside [-2, 2]")
    if z2 >= 1.0:
        y2, y3 = z2 - 1.0, -1.0
    elif z2 >= -1.0:
        y2, y3 = (z2 - 1.0) / 2.0, -(z2 + 1.0) / 2.0
    else:
        y2, y3 = -1.0, -z2 - 1.0
    return y2, y3


def cash_from_state(z1, z2, sizes, eps):
    """Representative cash vector of a grid state (c_1 >= 0 half-plane)."""
    sizes = np.asarray(sizes, dtype=float)
    y2, y3 = decode_state(z2)
    y = np.array([-y2 - y3, y2, y3])
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
    noncontracting: int = 0

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

    def to_csv(self, fh):
        close = isinstance(fh, str)
        if close:
            fh = open(fh, "w")
        try:
            fh.write("z1,z2,action,V\n")
            for i, z1 in enumerate(self.z1_axis):
                for j, z2 in enumerate(self.z2_axis):
                    fh.write(f"{z1:.17g},{z2:.17g},{int(self.A[i, j])},{self.V[i, j]:.17g}\n")
        finally:
            if close:
                fh.close()


def solve_policy(sizes, p, q, c0=None, eps=1e-10, n_z1=1400, n_z2=81):
    """One-pass backward induction for the minimal-cost schedule.

    The dynamics are scale invariant, so for each (z2 cell, action) the
    z1 decrement and the successor z2 are constants; cells are filled in
    increasing z1, interpolating the value bilinearly at successor
    states.  Actions that fail to reduce the total cash at a cell are
    excluded there (and counted in ``noncontracting``).
    """
    sizes = _check_sizes(sizes)
    if n_z1 < 2 or n_z2 < 2:
        raise InvalidParamsError("grid needs at least 2 points per axis")
    if c0 is None:
        c0 = meanfield_init(sizes, p, q)
    c0_l1 = c0.l1 if isinstance(c0, BlockCash) else float((sizes * np.abs(c0)).sum())
    z1_max = float(np.log10(c0_l1 / eps))
    if z1_max <= 0:
        raise InvalidParamsError("initial cash already below eps")
    z1_axis = np.linspace(0.0, z1_max, n_z1)
    z2_axis = np.linspace(-2.0, 2.0, n_z2)
    h1 = z1_axis[1] - z1_axis[0]
    h2 = z2_axis[1] - z2_axis[0]

    actions = list(Action)
    kappa = {a: action_cost(a, sizes, p, q) for a in actions}
    # evaluation order makes argmin ties fall to cheapest kappa, then index
    order = sorted(actions, key=lambda a: (kappa[a], int(a)))

    # per (action, z2-cell) constants: z1 shift and successor z2
    dz1 = np.full((len(actions) + 1, n_z2), np.nan)
    z2_next = np.zeros((len(actions) + 1, n_z2))
    annihilated = np.zeros((len(actions) + 1, n_z2), dtype=bool)
    noncontracting = 0
    for j, z2 in enumerate(z2_axis):
        c_unit = cash_from_state(0.0, z2, sizes, 1.0)  # ||c||_1 = 1
        for a in actions:
            c_next = block_cash_update(c_unit, sizes, p, q, a)
            g = float((sizes * np.abs(c_next)).sum())
            if g == 0.0:
                annihilated[a, j] = True
                dz1[a, j] = -np.inf
            elif g >= 1.0 - 1e-15:
                noncontracting += 1
            else:
                dz1[a, j] = np.log10(g)
                _, z2_next[a, j] = encode_state(c_next, sizes, 1.0)

    V = np.zeros((n_z1, n_z2))
    A = np.full((n_z1, n_z2), -1, dtype=np.int8)
    jj = np.arange(n_z2)
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
                # bilinear interpolation; rows not yet filled clamp down one
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
                v_next[live] = (1 - wi) * ((1 - wj) * v00 + wj * v01) + wi * (
                    (1 - wj) * v10 + wj * v11
                )
            cand = np.where(usable, kappa[a] + v_next, np.inf)
            better = cand < best_v
            best_v[better] = cand[better]
            best_a[better] = int(a)
        V[i] = best_v
        A[i] = best_a
    grid = PolicyGrid(
        z1_axis=z1_axis,
        z2_axis=z2_axis,
        V=V,
        A=A,
        sizes=sizes,
        p=p,
        q=q,
        eps=eps,
        kappa={int(a): kappa[a] for a in actions},
        noncontracting=noncontracting,
    )
    return grid


@dataclass
class SimulationResult:
    actions: list
    cash_l1: list
    cum_cost: list
    converged: bool
    c_final: np.ndarray = None

    def to_csv(self, path):
        """Trajectory: the start as row 0 (no action), then one row per action."""
        with open(path, "w") as fh:
            fh.write("step,action,cash_l1,cum_cost\n")
            fh.write(f"0,,{self.cash_l1[0]:.17g},0\n")
            for k, a in enumerate(self.actions):
                fh.write(f"{k + 1},{int(a)},{self.cash_l1[k + 1]:.17g},{self.cum_cost[k + 1]:.17g}\n")


def simulate_policy(c0, policy, sizes, p, q, eps=1e-10, max_steps=100_000):
    """Run the block dynamics under a policy grid or fixed action cycle.

    Stops when the total absolute cash reaches eps; raises
    NoConvergenceError (result attached) at max_steps, which single-block
    constant schedules generically hit because the cash stalls at a
    positive limit.
    """
    sizes = _check_sizes(sizes)
    c = np.array(c0.c if isinstance(c0, BlockCash) else c0, dtype=float)
    fixed = None
    if not isinstance(policy, PolicyGrid):
        fixed = [Action(a) for a in policy]
    actions = []
    cash = []
    cost = [0.0]
    l1 = float((sizes * np.abs(c)).sum())
    cash.append(l1)
    for k in range(max_steps):
        if l1 <= eps:
            return SimulationResult(actions, cash, cost, True, c)
        if fixed is not None:
            a = fixed[k % len(fixed)]
        else:
            z1, z2 = encode_state(c, sizes, eps)
            a = policy.action_at(z1, z2)
        c = block_cash_update(c, sizes, p, q, a)
        l1 = float((sizes * np.abs(c)).sum())
        actions.append(a)
        cash.append(l1)
        cost.append(cost[-1] + action_cost(a, sizes, p, q))
    raise NoConvergenceError(
        f"block simulation: no convergence in {max_steps} steps",
        SimulationResult(actions, cash, cost, False, c),
    )
