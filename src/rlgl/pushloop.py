"""The compiled library: build ``_push.c``, cache it, call it with ctypes.

``load()`` compiles the C source once per user with ``$CC`` (default
``cc``) and the flags in ``FLAGS``, and caches the shared library under
``$XDG_CACHE_HOME/rlgl`` (default ``~/.cache/rlgl``), keyed by a hash of
the source, the compiler and the flags; a build removes the cached
libraries beyond the newest ``KEEP``.  The one library holds eleven
entry points, all typed by ``load()``: ``rlgl_loop_rr``,
``rlgl_loop_theta``, ``rlgl_loop_maxc`` and ``rlgl_loop_pc``, the push
loop of each ``Schedule.push_loop`` name, which ``engine.run`` binds
here (``bind``); ``rlgl_abs_sum``, numpy's sum of |C| that those loops
take; ``rlgl_scc``, the strongly connected components pass
of ``models``; ``rlgl_mul_left``, the CSR product ``x P`` of
``TransitionMatrix.mul_left``; ``rlgl_parse_edges``, the parser of
``models.parse_edge_file``; ``rlgl_coalesce``, the edge coalescing
of ``matrix._coalesce_edges``, which every build from an edge list
runs; ``rlgl_policy_rows``, the backward induction over the grid
rows of ``mdp.solve_policy``; and ``rlgl_format_rows``, the %.17g
cells of ``engine.write_csv``'s numeric tables, which takes the powers
of ten of ``pow10_table()``.

A push loop runs a whole ``engine.run`` in one call, its checkpoints
included, and writes its trace rows into the ``Loop``'s buffer.  It
keeps ``||C||_1`` incrementally, with a sound rounding bound (both stay
here, with their constants ``DRIFT_TOL``, ``_U`` and ``_sum_depth``),
and takes the exact sum with ``rlgl_abs_sum`` wherever a row, a stop or
a theta:1 threshold reads it, and before it returns; so the engine
only ever sees the exact ``||C||_1``.  ``load()`` checks once that
``rlgl_abs_sum`` gives numpy's bytes (``_sums_as_numpy``); where it
does not, ``bind`` leaves every run to the Python steps.

``load()`` returns None when the library cannot be built or loaded;
``engine.run`` then takes its Python steps, ``models`` its Python
Tarjan pass and its line-by-line parser, ``mul_left``,
``_coalesce_edges`` and ``solve_policy`` their numpy passes, and
``write_csv`` Python's ``%``.  Every ``engine.run`` imports this
module; a run loads (and, the first time, builds) the library only when
``bind`` finds both the schedule's ``push_loop`` and the matrix's
``csr_push``.  Elsewhere the module is imported only where a product, a
build from edges, a connectivity check, an edge file, a policy solve or
a numeric table can use the library.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import platform
import shlex
import subprocess
import tempfile
import zlib

import numpy as np

from . import engine

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_push.c")
# No -ffast-math and no contraction: every operation rounds as numpy's does.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# Cached libraries kept after a build: a few source versions run in turn on one host never rebuild.
KEEP = 4

# The loop returns once the rounding bound of its incremental ||C||_1 exceeds this fraction of it.
DRIFT_TOL = 1e-9
# Twice the unit roundoff: the loop's first-order bounds on its ||C||_1,
# taken in this unit, also cover their second-order terms.
_U = 2.0**-52


def _sum_depth(n):
    """A bound on the additions any one entry passes through when numpy sums <= n floats.

    numpy sums a contiguous float64 vector pairwise, in one call over all
    of it (``rlgl_abs_sum`` in ``_push.c`` repeats it), so such a sum of
    nonnegative terms is within ``_sum_depth(n) * _U`` of exact, relative
    to the total.  The same bound covers any one stored row.

    The depth: a leaf of m <= 128 entries passes an entry through fewer
    than 26 additions, at most 15 in its accumulator (m // 8 - 1), 3
    where the eight accumulators meet and 7 in the tail (m % 8); fewer
    than 8 entries take at most 7.  A longer run is split in two at
    ``m // 2 - (m // 2) % 8``, one more addition for every entry, into
    parts of at most ``ceil(m / 2) + 7`` entries, so it reaches the leaves
    within ``ceil(log2 n)`` halvings: the depth is below
    ``26 + ceil(log2 n)``.  That is at most 64 for n <= 2^38, and for
    larger n, ``n // 8192 >= 2^25`` exceeds it alone.
    """
    return n // 8192 + 64


class Rows(ctypes.Structure):
    _fields_ = [(name, ctypes.c_void_p) for name in ("indptr", "indices", "values", "out_degree", "s", "scale")]


class LoopState(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_int64) for name in ("t", "updates", "k", "record_at", "rows", "exact_at", "syncs", "bound_misses")
    ] + [
        (name, ctypes.c_double)
        for name in ("cum_cost", "scan_cost", "total_history", "theta", "cash_l1", "l1_err", "max_l1_increase",
                     "max_l1_drift")
    ]


class LoopParams(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_int64) for name in ("n", "offset", "max_steps", "stride", "row_cap", "sum_depth", "mean_refresh")
    ] + [
        (name, ctypes.c_double)
        for name in ("eps", "initial_mass", "guard_unit", "drift_tol", "unit", "restart_share", "dangling_share")
    ] + [
        ("row", ctypes.c_void_p), ("rng", ctypes.c_void_p),
        ("next_double", ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)),
    ]


# A trace row as _push.c's trace_row lays it out: engine.RunTrace's columns.
ROW = np.dtype([(name, "<i8") for name in ("t", "updates")] + [(name, "<f8") for name in ("cum_cost", "scan_cost", "cash_l1")])
# Trace rows one call of a loop writes at most; one more due returns it to Python, which writes that row.
ROWS = 512
# Step limits, record anchors and strides are capped here: they fit int64, and so does updates + stride.
_FAR = 1 << 62


def _build():
    """Path of the compiled library, compiling it first when not cached."""
    cc = shlex.split(os.environ.get("CC") or "cc")
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    # Two 32-bit checksums, not hashlib, whose OpenSSL load adds ~3.6 MB of RSS.
    blob = repr((source, cc, FLAGS, platform.machine())).encode()
    key = f"{zlib.crc32(blob):08x}{zlib.adler32(blob):08x}"
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    directory = os.path.join(base, "rlgl")
    path = os.path.join(directory, f"push-{key}.so")
    if os.path.exists(path):
        return path
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            [*cc, *FLAGS, "-o", tmp, SOURCE],
            check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=120,
        )
        os.replace(tmp, path)  # atomic: a concurrent run sees no half-written file
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _prune(path)
    return path


def _prune(path):
    """Remove the cached libraries beside ``path`` but the newest ``KEEP`` by mtime, ``path`` among
    them; no other file is touched."""
    directory, own = os.path.split(path)
    dated = []
    try:
        for entry in os.scandir(directory):
            if entry.name.startswith("push-") and entry.name.endswith(".so") and entry.name != own:
                with contextlib.suppress(OSError):  # removed meanwhile
                    dated.append((entry.stat().st_mtime, entry.path))
    except OSError:
        return
    for _, stale in sorted(dated, reverse=True)[KEEP - 1:]:
        with contextlib.suppress(OSError):
            os.unlink(stale)


@functools.cache
def load():
    """The compiled library with its entry points typed, or None when it cannot be had here."""
    try:
        lib = ctypes.CDLL(_build())
        loops = lib.rlgl_loop_rr, lib.rlgl_loop_theta, lib.rlgl_loop_maxc, lib.rlgl_loop_pc
        scc, mul, parse, coalesce = lib.rlgl_scc, lib.rlgl_mul_left, lib.rlgl_parse_edges, lib.rlgl_coalesce
        policy, fmt, abs_sum = lib.rlgl_policy_rows, lib.rlgl_format_rows, lib.rlgl_abs_sum
    except (OSError, ValueError, AttributeError, subprocess.SubprocessError):
        return None
    for loop in loops:  # rows, C, H, state, params
        loop.argtypes = [ctypes.POINTER(Rows), *[ctypes.c_void_p] * 2, *map(ctypes.POINTER, (LoopState, LoopParams))]
        loop.restype = ctypes.c_int64
    scc.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
    scc.restype = ctypes.c_int64
    mul.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 5
    mul.restype = None
    # the data is a bytes object, whose buffer ends in the NUL the parser reads at data[size]
    parse.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    parse.restype = ctypes.c_int64
    coalesce.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 6
    coalesce.restype = ctypes.c_int64
    # grid shape and action count, z1 axis, h1, the (action, z2) terms, V, A
    policy.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p, ctypes.c_double] + [ctypes.c_void_p] * 9
    policy.restype = None
    # rows, columns, the cells, pow10_table(), the output and its size
    fmt.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 3 + [ctypes.c_int64]
    fmt.restype = ctypes.c_int64
    abs_sum.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    abs_sum.restype = ctypes.c_double
    lib.sums_as_numpy = _sums_as_numpy(abs_sum)
    return lib


def _sums_as_numpy(abs_sum):
    """Whether ``abs_sum(address, n)`` gives ``float(np.abs(x).sum())``, bit for bit, on a fixed probe.

    The loops take every exact ``||C||_1`` and theta:1 threshold from
    ``rlgl_abs_sum``, so a numpy that sums in another order (older ones
    added blocks of 8192 entries in sequence) leaves the runs to the Python
    steps.  The probe spans three such blocks and a tail, with zeros of
    both signs and subnormals; on its seed, numpy's sum differs from that
    block sum, from a sequential sum and from the correctly rounded one.
    """
    rng = np.random.default_rng(2)
    size = 3 * 8192 + 77
    x = rng.standard_normal(size) * np.exp(rng.uniform(-4.0, 4.0, size))
    x[::13], x[1::17], x[2::19] = 0.0, -0.0, 2.0**-1070
    return abs_sum(x.ctypes.data, size) == float(np.abs(x).sum())


# The q of rlgl_format_rows' 10^q: 16 - E, for E = floor(log10 |x|) of every double x != 0
# and for its first guess of E, which lie in -324..308.  The first is _push.c's POW10_MIN.
POW10 = range(-292, 341)


@functools.cache
def pow10_table():
    """10^q for q in ``POW10`` as ``hi:lo * 2^exp``, ``2^127 <= hi:lo < 2^128``, truncated.

    Built once from Python's integers, exact; ``rlgl_format_rows`` takes it
    with every call.
    """
    table = np.empty(len(POW10), dtype=[("hi", "<u8"), ("lo", "<u8"), ("exp", "<i8")])
    for i, q in enumerate(POW10):
        if q >= 0:
            exp = (10**q).bit_length() - 128
            t = 10**q >> exp if exp >= 0 else 10**q << -exp
        else:
            exp = -((10**-q).bit_length() + 127)
            t = (1 << -exp) // 10**-q
        table[i] = (t >> 64, t & ((1 << 64) - 1), exp)
    return table


def bind(P, schedule):
    """The compiled loop for a run of ``schedule`` on P, or None when the run takes Python steps.

    Decided from attributes, not types (the schedule's ``push_loop`` kind
    and P's ``csr_push`` arrays), so that wrappers forwarding them, such as
    the benchmark's tracing proxies, take the same path; the library is
    loaded only when both are set, and used only when its sums are
    numpy's (``_sums_as_numpy``).  The matrix has checked its rows
    (distinct columns) and stored its arrays as C reads them
    (``TransitionMatrix``) when built.
    """
    kind = getattr(schedule, "push_loop", None)
    push = getattr(P, "csr_push", None)
    lib = None if kind is None or push is None else load()
    if lib is None or not lib.sums_as_numpy:
        return None
    return Loop(getattr(lib, "rlgl_loop_" + kind), push, P.n, kind)


class Loop:
    """One run's compiled loop: its schedule kind's function, the matrix arrays and a trace row buffer, bound
    once."""

    def __init__(self, fn, push, n, kind):
        self.fn = fn
        self.kind = kind
        self.push = push  # kept referenced while C reads its arrays; no restart part or scale (None) is NULL
        arrays = (push.indptr, push.indices, push.values, push.out_degree, push.s, push.scale)
        self.rows = Rows(*[None if a is None else a.ctypes.data for a in arrays])
        self.buffer = np.empty(ROWS, dtype=ROW)
        self.written = []  # the trace rows of the last call
        self.state = LoopState()
        self.params = LoopParams(
            n=n, sum_depth=_sum_depth(n), guard_unit=engine.GUARD_UNIT, drift_tol=DRIFT_TOL, unit=_U,
            restart_share=push.restart_share, dangling_share=push.dangling_share,
            row=self.buffer.ctypes.data, row_cap=ROWS,
        )

    def advance(self, state, schedule, eps, max_steps, record_at, stride):
        """Take engine.run's steps and checkpoints in C until one needs Python; returns the steps taken.

        Called where the Python loop would pick its next node, so the
        first step's checks have passed.  The loop then runs the checkpoints
        of ``engine.run`` itself: a trace row at each ``record_at`` (then
        ``stride`` updates later), kept in ``written`` as ``RunTrace.record``
        writes it, the guard and the exit.  It returns at the exit, at the
        guard, at a pick Python must make, at a Theta refresh with r != 1
        (made here, before the call's first step, as in ``next_nodes``),
        and when a row is due past its buffer of ``ROWS``.  The schedule's
        position, scan count and theta threshold are handed back through
        its ``seek``.  For ProportionalCash the loop draws each uniform at
        its pick from the schedule's generator (read here on every call, as
        ``reseed`` replaces it), holding the generator's lock as
        ``Generator.random`` does.

        The loop keeps ``||C||_1`` incrementally from the exact sum it is
        handed, with a rounding bound ``l1_err``, and takes the exact sum
        itself, numpy's bytes, at each row, where the bound passes
        ``DRIFT_TOL`` of the value or could put it below eps, and before it
        returns: so the caller, and every row, only ever sees that sum.
        Each gap between the two is folded into ``state.max_l1_drift``;
        ``self.state`` keeps the count of exact sums and of gaps past the
        bound.  A loop that runs out of memory returns -1 before any step:
        no step here, the state and the generator left as they were.
        """
        C, H = state.C, state.H
        n = self.params.n
        self.written = []
        for a in (C, H):
            if a.dtype != np.float64 or a.shape != (n,) or not a.flags.c_contiguous:
                return 0
        p = self.params
        s = self.state
        lock = contextlib.nullcontext()
        if self.kind == "theta":
            p.mean_refresh = schedule.r == 1.0
            if not p.mean_refresh and schedule._k % n == 0:
                schedule.refresh(C)
            s.theta = schedule.theta
        elif self.kind == "pc":
            bits = schedule.rng.bit_generator
            lock = bits.lock
            p.rng, p.next_double = bits.ctypes.state_address, bits.ctypes.next_double
        if self.kind in ("rr", "theta"):
            p.offset = schedule.offset
        p.eps = eps
        p.initial_mass = state.initial_mass
        p.max_steps = min(max_steps, _FAR)
        p.stride = min(stride, _FAR)
        s.t, s.updates, s.k = state.t, state.updates, schedule._k
        s.record_at, s.rows, s.exact_at = min(record_at, _FAR), 0, state.updates
        s.cum_cost, s.total_history = state.cum_cost, state.total_history
        s.scan_cost = schedule.scan_cost
        s.cash_l1, s.l1_err = state.cash_l1, 0.0
        s.max_l1_increase, s.max_l1_drift = state.max_l1_increase, state.max_l1_drift
        with lock:
            done = self.fn(ctypes.byref(self.rows), C.ctypes.data, H.ctypes.data, ctypes.byref(s), ctypes.byref(p))
        if done <= 0:
            return 0
        state.t, state.updates = s.t, s.updates
        state.cum_cost, state.total_history = s.cum_cost, s.total_history
        state.cash_l1 = s.cash_l1
        state.max_l1_increase, state.max_l1_drift = s.max_l1_increase, s.max_l1_drift
        self.written = self.buffer[:s.rows].tolist()
        if self.kind == "theta":
            schedule.seek(s.k, s.scan_cost, s.theta)
        else:
            schedule.seek(s.k, s.scan_cost)
        return done
