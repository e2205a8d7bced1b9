"""Green-light set generators.

A schedule is a stateful iterator owned by one solver run.  After
``bind(P)`` it yields one node set per call to ``next_nodes(C)``; an empty
array means a skip step (no cash moves, the step counter still advances).

Deterministic kinds replay identical sequences across runs; stochastic
kinds replay identical sequences for equal seeds.  The iteration engine
calls ``perturb()`` (deterministic kinds: rotate the node order by one) or
``reseed()`` (stochastic kinds: seed+1) when its total-history guard fires.

``push_loop`` names the kinds whose picks ``engine.run`` may take in its
compiled loop (``pushloop``): ``rr``, ``theta``, an unrestricted ``maxc``
and ``pc``; None for every other schedule.  That loop repeats the picks
of ``next_nodes`` exactly, ``pc``'s uniform draws included, and hands its
position back through ``seek``, so a subclass that changes the pick must
set ``push_loop = None``.
"""

from __future__ import annotations

import numpy as np

from .errors import AllCashZeroError, ConfigError, InvalidParamsError

_EMPTY = np.empty(0, dtype=np.int64)


class Schedule:
    stochastic = False
    name = "schedule"
    push_loop = None

    def bind(self, P):
        self.P = P
        self.n = P.n
        self._k = 0
        return self

    def restart(self):
        self._k = 0

    def next_nodes(self, C):
        raise NotImplementedError

    def seek(self, k):
        """Continue from schedule step ``k``, where the compiled loop stopped."""
        self._k = k

    def perturb(self):
        pass

    def reseed(self):
        pass

    def __repr__(self):
        return f"<{type(self).__name__}>"


class RoundRobin(Schedule):
    """Single nodes in cyclic order; covers [N] every n steps."""

    name = "rr"
    push_loop = "rr"

    def __init__(self):
        self.offset = 0

    def next_nodes(self, C):
        i = (self._k + self.offset) % self.n
        self._k += 1
        return np.array([i], dtype=np.int64)

    def perturb(self):
        self.offset += 1


class AllNodes(Schedule):
    """Every node at every step (the full-sweep schedule)."""

    name = "all"

    def bind(self, P):
        super().bind(P)
        self._all = np.arange(self.n, dtype=np.int64)
        return self

    def next_nodes(self, C):
        self._k += 1
        return self._all


class _Seeded(Schedule):
    """A stochastic schedule drawing from a generator seeded by ``seed``."""

    stochastic = True

    def __init__(self, seed=0):
        if seed < 0:
            raise InvalidParamsError(f"{self.name} seed must be >= 0, got {seed}")
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def restart(self):
        super().restart()
        self.rng = np.random.default_rng(self.seed)

    def reseed(self):
        self.seed += 1
        self.rng = np.random.default_rng(self.seed)


class RandomNode(_Seeded):
    """One node drawn uniformly, independently at each step."""

    name = "rand"

    def next_nodes(self, C):
        self._k += 1
        return np.array([self.rng.integers(self.n)], dtype=np.int64)


class ProportionalCash(_Seeded):
    """One node drawn with probability |C_i| / ||C||_1.

    One uniform draw u per pick, and the pick is the first i whose
    cumulative |C| share ``cumsum(|C|)[i] / total`` exceeds u: the rule
    ``Generator.choice(n, p=|C| / total)`` applies, taken on |C| itself.
    Both sums run in index order, so the compiled loop repeats them.
    """

    name = "pc"
    push_loop = "pc"

    def next_nodes(self, C):
        cdf = np.cumsum(np.abs(C))
        total = cdf[-1]
        if total <= 0.0:
            raise AllCashZeroError("all cash is zero")
        if not np.isfinite(total):
            raise ValueError(f"cash total {float(total)!r} is not finite")
        self._k += 1
        cdf /= total
        i = cdf.searchsorted(self.rng.random(), side="right")
        return np.array([i], dtype=np.int64)


class MaxCash(Schedule):
    """The node with maximum absolute cash; ties go to the lowest index.

    ``restrict`` optionally limits the candidates to a fixed node subset
    (used e.g. to skip an auxiliary restart node).
    """

    name = "maxc"

    def __init__(self, restrict=None):
        self.restrict = None if restrict is None else np.asarray(restrict, dtype=np.int64)

    @property
    def push_loop(self):
        return "maxc" if self.restrict is None else None

    def next_nodes(self, C):
        cand = C if self.restrict is None else C[self.restrict]
        j = int(np.argmax(np.abs(cand)))
        if cand[j] == 0.0:
            raise AllCashZeroError("all cash is zero")
        self._k += 1
        i = j if self.restrict is None else int(self.restrict[j])
        return np.array([i], dtype=np.int64)


class Greedy(Schedule):
    """The single node whose push minimizes the next total absolute cash.

    Candidates are evaluated with the push update without mutating the
    state; ties go to the lowest index.
    """

    name = "greedy"

    def next_nodes(self, C):
        nz = np.flatnonzero(C)
        if nz.size == 0:
            raise AllCashZeroError("all cash is zero")
        best_i = -1
        best_delta = np.inf
        for i in nz:
            x = C[i]
            cols, vals = self.P.row(i)
            old = np.abs(C[cols]).sum()
            base = np.where(cols == i, 0.0, C[cols])
            new = np.abs(base + x * vals).sum()
            delta = new - old
            if i not in cols:
                delta -= abs(x)
            if delta < best_delta:
                best_delta = delta
                best_i = int(i)
        self._k += 1
        return np.array([best_i], dtype=np.int64)


class Theta(Schedule):
    """Cyclic candidates filtered by a periodically refreshed threshold.

    The candidate at schedule step k is node k mod n; it moves iff its
    absolute cash reaches the power mean ``(sum_j |C_j|^r / n)^(1/r)``
    computed from the cash frozen at the start of the current period
    (default period n).  Skipped candidates advance the step at zero
    movement cost; threshold refreshes scan all n nodes and each
    candidate check scans one, charged on the separate scan counter.
    """

    name = "theta"
    push_loop = "theta"

    def __init__(self, r=1.0, period=None):
        if not r >= 1:
            raise InvalidParamsError("theta exponent r must be >= 1")
        if period is not None and period < 1:
            raise InvalidParamsError("theta period must be >= 1")
        self.r = float(r)
        self.period = period
        self.offset = 0
        self.theta = 0.0
        self.scan_cost = 0.0

    def bind(self, P):
        super().bind(P)
        if self.period is None:
            self.period = self.n
        return self

    def restart(self):
        super().restart()
        self.theta = 0.0
        self.scan_cost = 0.0

    def refresh(self, C):
        """Set the threshold from the cash C; charged as a scan of all n nodes."""
        a = np.abs(C)
        # 1-ulp slack: exactly-equal cash must pass its own power mean
        self.theta = float((a**self.r).mean() ** (1.0 / self.r)) * (1.0 - 1e-12)
        self.scan_cost += self.n

    def seek(self, k, scan_cost):
        super().seek(k)
        self.scan_cost = scan_cost

    def next_nodes(self, C):
        if self._k % self.period == 0:
            self.refresh(C)
        i = (self._k + self.offset) % self.n
        self._k += 1
        self.scan_cost += 1
        if abs(C[i]) >= self.theta and C[i] != 0.0:
            return np.array([i], dtype=np.int64)
        return _EMPTY

    def perturb(self):
        self.offset += 1


class FixedBlocks(Schedule):
    """A fixed cyclic sequence of node sets (block policies, replays)."""

    name = "blocks"

    def __init__(self, sequence):
        seq = [np.asarray(sorted(set(int(v) for v in block)), dtype=np.int64) for block in sequence]
        if not seq:
            raise InvalidParamsError("block sequence must be non-empty")
        self.sequence = seq

    def next_nodes(self, C):
        block = self.sequence[self._k % len(self.sequence)]
        self._k += 1
        return block

    def perturb(self):
        self.sequence = self.sequence[1:] + self.sequence[:1]


def load_block_file(path):
    """One node set per line, whitespace-separated 0-based ids, # comments."""
    seq = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                seq.append([int(v) for v in line.replace(",", " ").split()])
    except OSError as exc:
        raise ConfigError(f"block file {path!r}: {exc.strerror}") from None
    if not seq:
        raise InvalidParamsError(f"{path}: no blocks")
    return FixedBlocks(seq)


def _field(text, parts, i, cast, default):
    """Field i of a schedule descriptor, or ``default`` when it is absent."""
    if len(parts) <= i:
        return default
    try:
        return cast(parts[i])
    except ValueError:
        raise InvalidParamsError(f"schedule {text!r}: {parts[i]!r} is not a valid {cast.__name__}") from None


def parse_schedule(text, default_seed=0):
    """Parse a schedule descriptor.

    Grammar: ``rr`` | ``rand[:seed]`` | ``greedy`` | ``maxc`` |
    ``pc[:seed]`` | ``theta:r[:period]`` | ``blocks:<file>`` | ``all``.
    """
    parts = text.split(":")
    kind = parts[0]
    plain = {"rr": RoundRobin, "all": AllNodes, "greedy": Greedy, "maxc": MaxCash}
    if kind in plain:
        return plain[kind]()
    if kind == "rand":
        return RandomNode(_field(text, parts, 1, int, default_seed))
    if kind == "pc":
        return ProportionalCash(_field(text, parts, 1, int, default_seed))
    if kind == "theta":
        return Theta(_field(text, parts, 1, float, 1.0), _field(text, parts, 2, int, None))
    if kind == "blocks":
        if len(parts) < 2:
            raise InvalidParamsError("blocks schedule needs a file: blocks:<path>")
        return load_block_file(":".join(parts[1:]))
    raise InvalidParamsError(f"unknown schedule {text!r}")
