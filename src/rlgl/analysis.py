"""Computable convergence diagnostics and closed-form rate bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, NotMarkovError
from .matrix import DENSE_CAP, TransitionMatrix

SAMPLE_PAIRS = 100_000


@dataclass(frozen=True)
class DobrushinResult:
    value: float
    exact: bool

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class RateBound:
    """Exponential cash bound constant * rate^(t / per_steps).

    kind is one of "dobrushin_cyclic" (rate = the Dobrushin coefficient,
    per covering-cycle length m), "cyclic_eta" (rate = 1 - eta^2 per r*m
    steps), or "random_a" (rate = e^-a per step).
    """

    kind: str
    rate: float
    constant: float
    per_steps: float

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise InvalidParamsError("bound rate must lie in (0, 1]")

    def at(self, t):
        return self.constant * self.rate ** (t / self.per_steps)


def dobrushin_cycle_bound(delta, m):
    """Cash bound 2 delta^(t/m - 1) for covering schedules of cycle length m."""
    return RateBound("dobrushin_cyclic", delta, 2.0 / delta, float(m))


def random_schedule_bound(a):
    return RateBound("random_a", math.exp(-a), 1.0, 1.0)


def dobrushin(P, seed=0, sample_pairs=SAMPLE_PAIRS):
    """Dobrushin contraction coefficient 1 - min row overlap.

    Equals half the maximum pairwise L1 distance between rows.  Exact
    over all row pairs up to DENSE_CAP states; above that a sampled
    lower estimate over ``sample_pairs`` random pairs is returned with
    ``exact=False``.  Both stop at the first distance of 2, the most
    two distributions can differ: the coefficient is then 1.  A sampled
    pair costs the length of its two rows; on a matrix with a restart
    part a dangling row adds nothing, its stored part ``c s`` summed once.
    """
    n = P.shape[0] if isinstance(P, np.ndarray) else P.n
    if n <= DENSE_CAP:
        D = P if isinstance(P, np.ndarray) else P.to_dense()
        worst = 0.0
        for i in range(n - 1):
            worst = max(worst, float(np.abs(D[i + 1 :] - D[i]).sum(axis=1).max()))
            if worst >= 2.0:
                break
        return DobrushinResult(min(1.0, worst / 2.0), True)
    row, dangling = P.row, np.zeros(n, dtype=bool)
    if isinstance(P, TransitionMatrix) and P.s is not None:
        # the restart part (1 - c) s is in every row and cancels; a dangling row's stored part is c s
        dangling, cs = P.dangling_mask, P.c * P.s
        cs_sum = cs.sum()

        def row(i):
            lo, hi = P.indptr[i], P.indptr[i + 1]
            return P.indices[lo:hi], P.data[lo:hi]

    rng = np.random.default_rng(seed)
    a = np.zeros(n)  # row i - row j on their columns; zero again after each pair
    worst = 0.0
    for _ in range(sample_pairs):
        i, j = rng.integers(n, size=2)
        if i == j or dangling[i] and dangling[j]:
            continue  # equal rows
        if dangling[i] or dangling[j]:
            # c s against a stored row d on its columns J: c s off J, |c s - d| on J
            cols, d = row(j if dangling[i] else i)
            on = cs[cols]
            gap = cs_sum - on.sum() + np.abs(on - d).sum()
        else:
            ci, vi = row(i)
            cj, vj = row(j)
            a[ci] = vi
            a[cj] -= vj
            gap = np.abs(a[ci]).sum()
            a[ci] = 0.0  # a column of both rows counts once
            gap += np.abs(a[cj]).sum()
            a[cj] = 0.0
        worst = max(worst, float(gap))
        if worst >= 2.0:
            break
    return DobrushinResult(min(1.0, worst / 2.0), False)


def restricted_matrix(P_dense, nodes, n):
    """Rows in ``nodes`` taken from P, all others from the identity."""
    M = np.eye(n)
    nodes = np.asarray(sorted(set(int(v) for v in nodes)), dtype=np.int64)
    M[nodes] = P_dense[nodes]
    return M


@dataclass(frozen=True)
class CyclicCheck:
    r: int
    eta: float
    j0: int
    m: int

    def cash_bound(self, t):
        """2 (1 - eta^2)^floor((t-1)/(r m)) at engine step t."""
        rate = 1.0 - self.eta**2
        return 2.0 * rate ** ((t - 1) // (self.r * self.m))

    def rate_bound(self):
        rate = 1.0 - self.eta**2
        return RateBound("cyclic_eta", rate, 2.0 / rate, float(self.r * self.m))


def cyclic_markov_check(P, blocks, r_max=64):
    """Test whether a block cycle's one-cycle matrix has a positive column.

    Forms the product of the per-block restricted matrices, raises the
    product to powers r = 1..r_max, and returns the smallest r for which
    some column j0 is entrywise positive, with eta the column minimum.
    Positivity is strict with no tolerance (entries are sums of products
    of nonnegative terms).
    """
    n = P.n
    if n > DENSE_CAP:
        raise InvalidParamsError(f"cycle check capped at n={DENSE_CAP}")
    covered = set()
    for b in blocks:
        covered.update(int(v) for v in b)
    if covered != set(range(n)):
        raise InvalidParamsError("blocks must cover all nodes")
    D = P if isinstance(P, np.ndarray) else P.to_dense()
    cycle = np.eye(n)
    for b in blocks:
        cycle = cycle @ restricted_matrix(D, b, n)
    power = np.eye(n)
    for r in range(1, r_max + 1):
        power = power @ cycle
        col_min = power.min(axis=0)
        j0 = int(np.argmax(col_min))
        if col_min[j0] > 0.0:
            return CyclicCheck(r=r, eta=float(col_min[j0]), j0=j0, m=len(blocks))
    raise NotMarkovError(f"no positive column up to power {r_max}")


def check_uniform_positivity(P, r, eta, r_hi=None):
    """Verify min_ij (P^r')_ij > eta for r' in [r, r_hi] (default 2r).

    The full premise quantifies over all r' > r, which cannot be checked
    in finite work; a True result is therefore only a partial
    confirmation.
    """
    D = P if isinstance(P, np.ndarray) else P.to_dense()
    r_hi = 2 * r if r_hi is None else r_hi
    power = np.linalg.matrix_power(D, r)
    for _ in range(r, r_hi + 1):
        if power.min() <= eta:
            return False
        power = power @ D
    return True


def random_rate_bound(N, r, eta, grid=10_000):
    """Exponential rate a of the uniform-random single-node schedule.

    a = sup over beta in (0, 1/(N r)) of beta * min(|log(1 - eta~)|,
    J(beta)) with eta~ = eta / 2^(r-1) and the large-deviation rate
    J(beta) of the geometric inter-meeting times.  Evaluated on a grid
    and refined by golden-section search; accuracy ~1e-6 relative to the
    exact supremum.
    """
    if N <= 2:
        raise InvalidParamsError("bound needs N > 2")
    if r < 1:
        raise InvalidParamsError("need r >= 1")
    if not 0.0 < eta < 1.0:
        raise InvalidParamsError("need eta in (0,1)")
    eta_t = (0.5) ** (r - 1) * eta
    alpha = abs(math.log(1.0 - eta_t))
    hi = 1.0 / (N * r)

    def objective(beta):
        bj = (1.0 - 2 * r * beta) * math.log(N * (1.0 - 2 * r * beta) / (N - 2)) + (
            2 * r * beta
        ) * math.log(N * r * beta)
        return min(beta * alpha, bj)

    betas = np.linspace(hi / grid, hi * (1.0 - 1.0 / grid), grid)
    vals = np.array([objective(b) for b in betas])
    k = int(np.argmax(vals))
    lo_b = betas[max(0, k - 1)]
    hi_b = betas[min(grid - 1, k + 1)]

    # golden-section refinement on the (unimodal) objective
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = lo_b, hi_b
    c_ = b_ - invphi * (b_ - a_)
    d_ = a_ + invphi * (b_ - a_)
    fc, fd = objective(c_), objective(d_)
    for _ in range(200):
        if b_ - a_ < 1e-15:
            break
        if fc > fd:
            b_, d_, fd = d_, c_, fc
            c_ = b_ - invphi * (b_ - a_)
            fc = objective(c_)
        else:
            a_, c_, fc = c_, d_, fd
            d_ = a_ + invphi * (b_ - a_)
            fd = objective(d_)
    best = max(objective((a_ + b_) / 2.0), vals[k])
    if best <= 0.0:
        raise InvalidParamsError("rate bound not positive; premises violated")
    return float(best)


@dataclass(frozen=True)
class TwoBlockForms:
    """Closed forms for the two-block mean-field model with sizes (K n, n)."""

    lambda2: float
    factor_b1: float
    factor_b2: float
    cost_ratio_asymptotic: float


def sbm2_closed_forms(p, q, K):
    """Second eigenvalue, per-step block contraction factors, and the
    asymptotic full-sweep/small-block cost ratio K^2."""
    if not (0.0 < q < p <= 1.0):
        raise InvalidParamsError("need 0 < q < p <= 1")
    if K < 1:
        raise InvalidParamsError("need K >= 1")
    lam = (p**2 - q**2) * K / ((p * K + q) * (q * K + p))
    return TwoBlockForms(
        lambda2=lam,
        factor_b1=p * K / (p * K + q),
        factor_b2=p / (q * K + p),
        cost_ratio_asymptotic=float(K) ** 2,
    )
