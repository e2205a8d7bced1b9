"""Green-light set generators.

A schedule is a stateful iterator owned by one solver run.  After
``bind(P)`` it yields one node set per call to ``next_nodes(C)``; an empty
array means a skip step (no cash moves, the step counter still advances).

Deterministic kinds replay identical sequences across runs; stochastic
kinds replay identical sequences for equal seeds.  The iteration engine
calls ``perturb()`` (deterministic kinds: rotate the node order by one) or
``reseed()`` (stochastic kinds: seed+1) when its total-history guard fires.

``push_loop`` names the kinds whose picks ``engine.run`` may take in a
compiled loop (``pushloop``; ``rlgl_loop_<name>``): ``rr``, ``theta``,
``maxc`` and ``pc``; None for every other schedule.  Each loop repeats
the picks of ``next_nodes`` exactly, ``pc``'s uniform draws included,
and hands its position and scan count back through ``seek``, so a
subclass that changes the pick must set ``push_loop = None``.
"""

from __future__ import annotations

import numpy as np

from .errors import AllCashZeroError, ConfigError, InvalidIndexError, InvalidParamsError

_EMPTY = np.empty(0, dtype=np.int64)


class Schedule:
    stochastic = False
    push_loop = None
    # node checks made to pick, outside the pushes (Theta's refreshes and candidates)
    scan_cost = 0.0

    def bind(self, P):
        self.n = P.n
        self._k = 0
        return self

    def restart(self):
        self._k = 0
        self.scan_cost = 0.0

    def next_nodes(self, C):
        raise NotImplementedError

    def seek(self, k, scan_cost):
        """Continue from schedule step ``k`` and scan count ``scan_cost``, where the compiled loop stopped."""
        self._k = k
        self.scan_cost = scan_cost

    def perturb(self):
        pass

    def reseed(self):
        pass

    def __repr__(self):
        return f"<{type(self).__name__}>"


class RoundRobin(Schedule):
    """Single nodes in cyclic order; covers [N] every n steps."""

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
    Both sums run in index order, so the compiled loop repeats them, with
    each u drawn from this generator at the pick (``proportional_pick``
    in ``_push.c``, which proves most picks from cached prefix sums and
    a bracket of the total).
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
    """The node with maximum absolute cash; ties go to the lowest index."""

    push_loop = "maxc"

    def next_nodes(self, C):
        i = int(np.argmax(np.abs(C)))
        if C[i] == 0.0:
            raise AllCashZeroError("all cash is zero")
        self._k += 1
        return np.array([i], dtype=np.int64)


class Theta(Schedule):
    """Cyclic candidates filtered by a threshold refreshed every n steps.

    The candidate at schedule step k is node k mod n; it moves iff its
    absolute cash reaches the power mean ``(sum_j |C_j|^r / n)^(1/r)``
    computed from the cash frozen at the start of the current pass over
    the n nodes.  Skipped candidates advance the step at zero movement
    cost; threshold refreshes scan all n nodes and each candidate check
    scans one, charged on the separate scan counter.
    """

    push_loop = "theta"
    # the schedule step whose refresh was made last; None after a restart
    _refreshed_at = None

    def __init__(self, r=1.0):
        if not 1 <= r < np.inf:
            raise InvalidParamsError("theta exponent r must be finite and >= 1")
        self.r = float(r)
        self.offset = 0
        self.theta = 0.0

    def restart(self):
        super().restart()
        self.theta = 0.0
        self._refreshed_at = None

    def seek(self, k, scan_cost):
        if k != self._k:
            self._refreshed_at = None  # a refresh due at k is still to be made
        super().seek(k, scan_cost)

    def refresh(self, C):
        """Set the threshold from the cash C; charged as a scan of all n nodes."""
        a = np.abs(C)
        # 1-ulp slack: exactly-equal cash must pass its own power mean
        self.theta = float((a**self.r).mean() ** (1.0 / self.r)) * (1.0 - 1e-12)
        self.scan_cost += self.n
        self._refreshed_at = self._k

    def refresh_if_due(self, C):
        """Make the refresh due at this step (k a multiple of n) unless it is made: one charge per step."""
        if self._k % self.n == 0 and self._refreshed_at != self._k:
            self.refresh(C)

    def next_nodes(self, C):
        self.refresh_if_due(C)
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

    def __init__(self, sequence):
        seq = [np.asarray(sorted(set(int(v) for v in block)), dtype=np.int64) for block in sequence]
        if not seq:
            raise InvalidParamsError("block sequence must be non-empty")
        self.sequence = seq

    def bind(self, P):
        super().bind(P)
        # blocks are sorted: their ends bound every id
        if any(b.size and (b[0] < 0 or b[-1] >= self.n) for b in self.sequence):
            raise InvalidIndexError(f"block sequence has a node outside [0, {self.n})")
        return self

    def next_nodes(self, C):
        block = self.sequence[self._k % len(self.sequence)]
        self._k += 1
        return block

    def perturb(self):
        self.sequence = self.sequence[1:] + self.sequence[:1]


def load_block_file(path):
    """One node set per line, whitespace-separated 0-based ids, # comments; ``path:line:`` errors."""
    seq = []
    try:
        # undecodable bytes become lone surrogates, which fail the int parse on their line
        with open(path, errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    seq.append([int(v) for v in line.replace(",", " ").split()])
                except ValueError:
                    raise InvalidParamsError(f"{path}:{lineno}: expected node ids, got {line!r}") from None
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

    Grammar: ``rr`` | ``rand[:seed]`` | ``maxc`` | ``pc[:seed]`` |
    ``theta[:r]`` | ``blocks:<file>`` | ``all``; a field a kind does not
    take raises InvalidParamsError.
    """
    parts = text.split(":")
    kind = parts[0]
    plain = {"rr": RoundRobin, "all": AllNodes, "maxc": MaxCash}
    # the most fields each kind takes; a block file's path may hold ':'
    fields = {"rand": 2, "pc": 2, "theta": 2, "blocks": len(parts), **dict.fromkeys(plain, 1)}
    if kind not in fields:
        raise InvalidParamsError(f"unknown schedule {text!r}")
    if len(parts) > fields[kind]:
        raise InvalidParamsError(f"schedule {text!r}: too many fields")
    if kind in plain:
        return plain[kind]()
    if kind == "rand":
        return RandomNode(_field(text, parts, 1, int, default_seed))
    if kind == "pc":
        return ProportionalCash(_field(text, parts, 1, int, default_seed))
    if kind == "theta":
        return Theta(_field(text, parts, 1, float, 1.0))
    if len(parts) < 2:
        raise InvalidParamsError("blocks schedule needs a file: blocks:<path>")
    return load_block_file(":".join(parts[1:]))
