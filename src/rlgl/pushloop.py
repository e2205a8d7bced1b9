"""The compiled library: build ``_push.c``, cache it, call it with ctypes.

``load()`` compiles the C source once per user with ``$CC`` (default
``cc``) and the flags in ``FLAGS``, and caches the shared library under
``$XDG_CACHE_HOME/rlgl`` (default ``~/.cache/rlgl``), keyed by a hash of
the source, the compiler and the flags; a build removes the cached
libraries beyond the newest ``KEEP``.  The one library holds ten
entry points, all typed by ``load()``: ``rlgl_loop_rr``,
``rlgl_loop_theta``, ``rlgl_loop_maxc`` and ``rlgl_loop_pc``, the push
loop of each ``Schedule.push_loop`` name, which ``engine.run`` binds
here (``bind``); ``rlgl_scc``, the strongly connected components pass
of ``models``; ``rlgl_mul_left``, the CSR product ``x P`` of
``TransitionMatrix.mul_left``; ``rlgl_parse_edges``, the parser of
``models.parse_edge_file``; ``rlgl_coalesce``, the edge coalescing
of ``matrix._coalesce_edges``, which every build from an edge list
runs; ``rlgl_policy_rows``, the backward induction over the grid
rows of ``mdp.solve_policy``; and ``rlgl_format_rows``, the %.17g
cells of ``engine.write_csv``'s numeric tables, which takes the powers
of ten of ``pow10_table()``.

A push loop keeps ``||C||_1`` incrementally, with a sound rounding
bound; both stay here, with their constants (``DRIFT_TOL``, ``_U``,
``_sum_depth``).  ``Loop.advance`` takes the exact sum at each return,
so the engine only ever sees the exact ``||C||_1``.

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
    """Most additions any one entry passes through when numpy sums <= n floats.

    numpy sums a contiguous vector pairwise (at most ~34 levels inside a
    block of 8192 entries) and adds block results in sequence, so such a
    sum of nonnegative terms is within ``_sum_depth(n) * _U`` of exact,
    relative to the total.  The same bound covers any one stored row.
    """
    return n // 8192 + 64


class Rows(ctypes.Structure):
    _fields_ = [(name, ctypes.c_void_p) for name in ("indptr", "indices", "values", "out_degree", "s", "scale")]


class LoopState(ctypes.Structure):
    _fields_ = [(name, ctypes.c_int64) for name in ("t", "updates", "k")] + [
        (name, ctypes.c_double)
        for name in ("cum_cost", "scan_cost", "total_history", "cash_l1", "l1_err", "max_l1_increase")
    ]


class LoopParams(ctypes.Structure):
    _fields_ = [(name, ctypes.c_int64) for name in ("n", "offset", "max_steps", "record_at", "sum_depth")] + [
        (name, ctypes.c_double)
        for name in ("theta", "eps", "initial_mass", "guard_unit", "drift_tol", "unit", "restart_share", "dangling_share")
    ] + [("rng", ctypes.c_void_p), ("next_double", ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p))]


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
        policy, fmt = lib.rlgl_policy_rows, lib.rlgl_format_rows
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
    return lib


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
    loaded only when both are set.  The matrix has checked its rows
    (distinct columns) and stored its arrays as C reads them
    (``TransitionMatrix``) when built.
    """
    kind = getattr(schedule, "push_loop", None)
    push = getattr(P, "csr_push", None)
    lib = None if kind is None or push is None else load()
    return None if lib is None else Loop(getattr(lib, "rlgl_loop_" + kind), push, P.n, kind)


class Loop:
    """One run's compiled loop: its schedule kind's function and the matrix arrays, bound once."""

    def __init__(self, fn, push, n, kind):
        self.fn = fn
        self.kind = kind
        self.push = push  # kept referenced while C reads its arrays; no restart part or scale (None) is NULL
        arrays = (push.indptr, push.indices, push.values, push.out_degree, push.s, push.scale)
        self.rows = Rows(*[None if a is None else a.ctypes.data for a in arrays])
        self.state = LoopState()
        self.params = LoopParams(
            n=n, sum_depth=_sum_depth(n), guard_unit=engine.GUARD_UNIT, drift_tol=DRIFT_TOL, unit=_U,
            restart_share=push.restart_share, dangling_share=push.dangling_share,
        )

    def advance(self, state, schedule, eps, max_steps, record_at):
        """Take engine.run's steps in C until one needs Python; returns their count.

        Called where the Python loop would pick its next node, so the
        first step's checks have passed: the rr and theta loops take that
        step.  Theta's refresh, due when k is a multiple of n, is made here
        first, as in ``next_nodes``.  The schedule's position and scan
        count are handed back through its ``seek``.  For ProportionalCash
        the loop draws each uniform at its pick from the schedule's
        generator (read here on every call, as ``reseed`` replaces it),
        holding the generator's lock as ``Generator.random`` does.

        The loop keeps ``||C||_1`` incrementally from the exact sum it is
        handed, with a rounding bound ``l1_err`` from 0, and also returns
        once that bound passes ``DRIFT_TOL`` of the value or could put it
        below eps.  After any steps ``state.cash_l1`` is the exact sum
        ``float(np.abs(C).sum())``, so the caller only ever sees that sum;
        the incremental value and its bound stay in ``self.state``, their
        gap folded into ``state.max_l1_drift``.  A loop that runs out of
        memory returns -1 before any step: no step here, the state and the
        generator left as they were.
        """
        C, H = state.C, state.H
        n = self.params.n
        for a in (C, H):
            if a.dtype != np.float64 or a.shape != (n,) or not a.flags.c_contiguous:
                return 0
        p = self.params
        lock = contextlib.nullcontext()
        if self.kind == "theta":
            if schedule._k % n == 0:
                schedule.refresh(C)
            p.theta = schedule.theta
        elif self.kind == "pc":
            bits = schedule.rng.bit_generator
            lock = bits.lock
            p.rng, p.next_double = bits.ctypes.state_address, bits.ctypes.next_double
        if self.kind in ("rr", "theta"):
            p.offset = schedule.offset
        p.eps = eps
        p.initial_mass = state.initial_mass
        p.max_steps = max_steps
        p.record_at = record_at
        s = self.state
        s.t, s.updates, s.k = state.t, state.updates, schedule._k
        s.cum_cost, s.total_history = state.cum_cost, state.total_history
        s.scan_cost = schedule.scan_cost
        s.cash_l1, s.l1_err, s.max_l1_increase = state.cash_l1, 0.0, state.max_l1_increase
        with lock:
            done = self.fn(ctypes.byref(self.rows), C.ctypes.data, H.ctypes.data, ctypes.byref(s), ctypes.byref(p))
        if done <= 0:
            return 0
        state.t, state.updates = s.t, s.updates
        state.cum_cost, state.total_history = s.cum_cost, s.total_history
        state.max_l1_increase = s.max_l1_increase
        state.cash_l1 = float(np.abs(C).sum())
        state.max_l1_drift = max(state.max_l1_drift, abs(s.cash_l1 - state.cash_l1))
        schedule.seek(s.k, s.scan_cost)
        return done
