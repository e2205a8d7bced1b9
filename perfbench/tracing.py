"""Spans for the traced benchmark run, recorded from outside the program.

``install`` replaces public functions of the rlgl modules with wrappers
that open a span around each call, and wraps the matrices and schedules
those functions return in proxies that time ``mul_left``,
``scatter_add``, ``push_damped`` and ``next_nodes``.  Nothing under
``src/`` knows about it; the untraced run never calls ``install``.

A span is (name, start, end, parent, run id).  Spans live in flat arrays
so that the ~10^6 push-step spans of one run stay small, and are written
to one ``.npz`` file when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from rlgl import cli, engine, mdp, models, schedules, solvers

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.run_id = 0
        self.counts = {}

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def close(self, idx):
        self.end[idx] = clock()
        self._stack.pop()

    def count(self, key, value=1):
        k = (self.run_id, key)
        self.counts[k] = self.counts.get(k, 0) + value

    def totals(self):
        """{run id: {name: (inclusive seconds, self seconds, calls)}}."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        key = np.frombuffer(self.run, dtype=np.int32).astype(np.int64) * k + np.frombuffer(self.name_id, dtype=np.int32)
        size = (int(key.max()) + 1) if key.size else 0
        incl = np.bincount(key, weights=dur, minlength=size)
        excl = np.bincount(key, weights=own, minlength=size)
        calls = np.bincount(key, minlength=size)
        out = {}
        for j in np.flatnonzero(calls):
            run, nid = divmod(int(j), k)
            out.setdefault(run, {})[self.names[nid]] = (float(incl[j]), float(excl[j]), int(calls[j]))
        return out

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int32),
        )


class span:
    """Context manager timing one benchmark-level step; spans it if traced."""

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self._idx = self.tracer.open(self.name) if self.tracer else None
        self.t0 = clock()
        return self

    def __exit__(self, *exc):
        self.elapsed = clock() - self.t0
        if self._idx is not None:
            self.tracer.close(self._idx)
        return False


def mul_left_bytes(P):
    """Computed (not measured) bytes one ``mul_left`` moves.

    CSR forms read data, indices and the repeated input (8 bytes each per
    stored entry) and touch input, output and indptr once per state; the
    block-implicit mean-field form touches only the input and output.
    """
    nnz = int(P.indices.size) if hasattr(P, "indices") else 0
    return 8 * (3 * nnz + 3 * P.n)


class _Proxy:
    def __init__(self, obj, tracer):
        self._obj = obj
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._obj, name)


class MatrixProxy(_Proxy):
    def __init__(self, obj, tracer):
        super().__init__(obj, tracer)
        self._bytes = mul_left_bytes(obj)

    def mul_left(self, x):
        tr = self._tracer
        idx = tr.open("matrix.mul_left")
        try:
            return self._obj.mul_left(x)
        finally:
            tr.close(idx)
            tr.count("matrix.mul_left_bytes", self._bytes)

    def scatter_add(self, C, nodes, amounts):
        tr = self._tracer
        idx = tr.open("matrix.scatter_add")
        try:
            return self._obj.scatter_add(C, nodes, amounts)
        finally:
            tr.close(idx)

    def push_damped(self, C, k, amount):
        tr = self._tracer
        idx = tr.open("matrix.push_damped")
        try:
            return self._obj.push_damped(C, k, amount)
        finally:
            tr.close(idx)


class ScheduleProxy(_Proxy):
    def __init__(self, obj, tracer, label):
        super().__init__(obj, tracer)
        self.label = label

    def next_nodes(self, C):
        tr = self._tracer
        idx = tr.open("schedules.next_nodes")
        try:
            G = self._obj.next_nodes(C)
        finally:
            tr.close(idx)
        if len(G) == 0:
            tr.count("schedules.skips")
        return G


def schedule_label(text):
    """``pc:1`` -> ``pc1``, ``theta:1`` -> ``theta1``: a name-safe tag."""
    return text.replace(":", "")


def _spanned(tracer, fn, name, wrap_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name if isinstance(name, str) else name(*args))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        return out if wrap_result is None else wrap_result(out)

    return wrapper


def install(tracer):
    """Patch the rlgl modules to record spans; returns the undo function."""
    as_matrix = lambda P: MatrixProxy(P, tracer)

    def parse_schedule(text, default_seed=0):
        return ScheduleProxy(orig_parse(text, default_seed), tracer, schedule_label(text))

    orig_parse = schedules.parse_schedule
    patches = [
        (models, "random_sbm", _spanned(tracer, models.random_sbm, "models.generate")),
        (models, "meanfield_sbm", _spanned(tracer, models.meanfield_sbm, "models.generate", as_matrix)),
        (models, "parse_edge_file", _spanned(tracer, models.parse_edge_file, "models.parse")),
        (models, "is_strongly_connected", _spanned(tracer, models.is_strongly_connected, "models.scc")),
        (models, "largest_scc", _spanned(tracer, models.largest_scc, "models.scc")),
        (cli, "build_transition", _spanned(tracer, cli.build_transition, "matrix.build", as_matrix)),
        (cli, "google_matrix", _spanned(tracer, cli.google_matrix, "matrix.build", as_matrix)),
        (schedules, "parse_schedule", parse_schedule),
        (engine, "run", _spanned(tracer, engine.run, lambda P, sched, *a: "engine.run:" + sched.label)),
        (solvers, "power_iteration", _spanned(tracer, solvers.power_iteration, "solvers.pi")),
        (solvers, "gauss_seidel", _spanned(tracer, solvers.gauss_seidel, "solvers.gs")),
        (solvers, "gmres_restarted", _spanned(tracer, solvers.gmres_restarted, "solvers.gmres")),
        (solvers, "gso_pagerank", _spanned(tracer, solvers.gso_pagerank, "solvers.gso")),
        (mdp, "solve_policy", _spanned(tracer, mdp.solve_policy, "mdp.solve_policy")),
        (mdp, "simulate_policy", _spanned(tracer, mdp.simulate_policy, "mdp.simulate")),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, new in patches:
        setattr(module, attr, new)

    def uninstall():
        for module, attr, old in saved:
            setattr(module, attr, old)

    return uninstall
