"""Passes, correctness checks, CSV outputs and metrics of the benchmark.

A pass is one whole workload the way a user runs it: set up every mode
through ``cli.build_problem``, solve every method through
``cli.run_method``, solve the block policy where the workload has one,
and write the CSV outputs.  Checks run after the pass, outside its timed
region.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rlgl import cli, engine, mdp
from rlgl.errors import NoConvergenceError, RlglError
from tracing import clock, span
from workloads import MF_GRID, MF_MAX_STEPS, MF_P, MF_Q, MF_SIZES, oracle_for

REF_KERNEL_S = 0.020  # speed_kernel seconds on the reference host (README.md)
SETUP_BUDGET = 0.05  # share of --seconds spent on extra set-up repetitions
MAX_SETUP_REPS = 1000
CHECK_TOL = 10.0  # oracle L1 tolerance in units of eps (acceptance criterion 7)
CASH_SUM_TOL = 1e-12
L1_INCREASE_TOL = 1e-14
IDENTITY_TOL = 1e-12  # full sweep = power iteration (acceptance criterion 5)
SCHEDULE_TAGS = ("rr", "maxc", "pc1", "theta1", "all")
SOLVER_FAMILIES = ("pi", "gs", "gmres", "gso")


def family(method):
    """Solver family of a method string: rlgl, pi, gs, gmres or gso."""
    return method.split("+")[0].split(":")[0]


def median(values):
    return float(statistics.median(values)) if values else 0.0


@dataclass
class Solve:
    mode: str  # the part label, e.g. "raw-g0"
    method: str
    x: object
    trace: object
    kind: str
    result: object
    error: Exception
    node_map: object


class Runner:
    """Runs one workload's passes and keeps the checks' tally."""

    def __init__(self, workload, graphs, out_dir):
        self.wl = workload
        # One part per (graph, mode); its label names the part's outputs.
        self.parts = [
            (f"{mode.label}-g{i}", workload.config(g, mode), mode.methods)
            for i, g in enumerate(graphs)
            for mode in workload.modes
        ]
        self.out_dir = out_dir
        self.oracles = {}
        self.setup_samples = []
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = None

    def setup(self):
        """Build every part's matrix; returns ({part: (P, node_map)}, seconds)."""
        built = {}
        t0 = clock()
        for part, cfg, _ in self.parts:
            built[part] = cli.build_problem(cfg)
        return built, clock() - t0

    def prepare(self, seconds):
        """Untimed warm-up set-up and oracles, then extra timed set-ups.

        Workloads checked against their own pass (the "pass" oracle) skip
        this: their set-up is too long to repeat, and every pass times one.
        """
        if self.wl.oracle == "pass":
            return
        built, warm = self.setup()
        for label, (P, _) in built.items():
            self.oracles[label] = oracle_for(self.wl, P)
        reps = min(MAX_SETUP_REPS, int(SETUP_BUDGET * seconds / max(warm, 1e-9)))
        batch = max(1, reps // 10)  # each batch bracketed by the speed kernel
        k_prev = kernel_seconds()
        for start in range(0, reps, batch):
            raw = [self.setup()[1] for _ in range(min(batch, reps - start))]
            k = kernel_seconds()
            self.setup_samples += [r * REF_KERNEL_S / (0.5 * (k_prev + k)) for r in raw]
            k_prev = k

    def run_pass(self, tracer=None):
        """One timed pass; step times are scaled to the reference host speed.

        The speed kernel runs between steps, outside them, and each step's
        time is scaled by REF_KERNEL_S over the mean of the kernel times
        on either side of it.
        """
        t = {}  # scaled seconds per step: ("setup", part), ("solve", part, method), ...
        kernels = [kernel_seconds()]

        def scaled(elapsed):
            kernels.append(kernel_seconds())
            return elapsed * REF_KERNEL_S / (0.5 * (kernels[-2] + kernels[-1]))

        solves = []
        policy = None
        with span(tracer, "pass") as whole:
            for part, cfg, methods in self.parts:
                with span(tracer, "setup") as s:
                    P, node_map = cli.build_problem(cfg)
                t["setup", part] = scaled(s.elapsed)
                for method in methods:
                    sub = cli.ExperimentConfig(**{**cfg.__dict__, "method": method})
                    with span(tracer, "solve") as s:
                        try:
                            x, trace, kind, res = cli.run_method(P, sub)
                            err = None
                        except RlglError as exc:
                            res = getattr(exc, "result", None)
                            x, trace, kind, err = None, getattr(res, "trace", None), "cash_l1", exc
                    t["solve", part, method] = scaled(s.elapsed)
                    solves.append(Solve(part, method, x, trace, kind, res, err, node_map))
            if self.wl.policy:
                with span(tracer, "policy") as s:
                    policy = solve_block_policy(self.wl.eps)
                t["policy",] = scaled(s.elapsed)
            with span(tracer, "cli.output") as s:
                paths = write_outputs(self.out_dir, solves, policy)
            t["output",] = scaled(s.elapsed)
        t["wall",] = sum(t.values())
        if tracer is None:
            self.setup_samples.append(sum(v for k, v in t.items() if k[0] == "setup"))
        record = {
            "times": t,
            "elapsed": whole.elapsed,
            "speed": REF_KERNEL_S / median(kernels),
            "kernels": kernels,
            "counts": count_work(solves, policy),
            "max_err_l1": self.check(solves, policy),
            "output_bytes": sum(os.path.getsize(p) for p in paths),
        }
        self.check_outputs(paths)
        self.passes.append(record)
        return record

    def measure(self, seconds, min_passes, tracer=None):
        """Run passes until the next one would overrun ``seconds``."""
        done = []
        t0 = clock()
        while True:
            if tracer is not None:
                tracer.run_id = len(done)
            rec = self.run_pass(tracer)
            done.append(rec)
            if len(done) >= min_passes and clock() - t0 + rec["elapsed"] > seconds:
                return done

    # -- correctness ----------------------------------------------------

    def tally(self, what, reasons):
        self.attempted += 1
        if reasons:
            self.failed += 1
            for r in reasons:
                self.failures.append(f"{what}: {r}")
                print(f"CHECK FAILED {what}: {r}", file=sys.stderr)

    def check(self, solves, policy):
        """Oracle and invariant checks of one pass; returns the largest L1 error."""
        tol = CHECK_TOL * self.wl.eps
        max_err = 0.0
        by_key = {(s.mode, s.method): s for s in solves}
        for s in solves:
            if s.error is not None:
                self.tally(f"{s.mode} {s.method}", [f"{type(s.error).__name__}: {s.error}"])
                continue
            reasons = []
            if not s.result.converged:
                reasons.append("not converged")
            if self.wl.oracle == "pass":
                oracle = by_key[(s.mode, "gmres:10")].x
            else:
                oracle = self.oracles[s.mode]
            if oracle is None:
                reasons.append("no oracle: gmres:10 failed")
            else:
                err = float(np.abs(s.x - oracle).sum())
                max_err = max(max_err, err)
                if not err <= tol:
                    reasons.append(f"L1 error {err:.3e} > {tol:.1e}")
            if family(s.method) == "rlgl":
                st = s.result.state
                if not abs(float(st.C.sum())) <= CASH_SUM_TOL:
                    reasons.append(f"total cash {float(st.C.sum()):.3e}")
                if not st.max_l1_increase <= L1_INCREASE_TOL:
                    reasons.append(f"cash L1 rose by {st.max_l1_increase:.3e}")
                if not abs(float(st.H.sum())) > st.guard_threshold():
                    reasons.append("total history vanished")
            pi = by_key.get((s.mode, "pi"))
            if s.method == "rlgl+all" and pi is not None and pi.x is not None:
                gap = float(np.abs(s.x - pi.x).max())
                if not gap <= IDENTITY_TOL:
                    reasons.append(f"full sweep differs from power iteration by {gap:.3e}")
            self.tally(f"{s.mode} {s.method}", reasons)
        if policy is not None:
            _, sim, err = policy
            if err is not None:
                self.tally("policy", [f"{type(err).__name__}: {err}"])
            else:
                ok = sim.converged and sim.cash_l1[-1] <= self.wl.eps
                self.tally("policy", [] if ok else [f"simulation ended at cash {sim.cash_l1[-1]:.3e}"])
        return max_err

    def check_outputs(self, paths):
        """Every pass must write byte-identical CSV outputs."""
        h = {os.path.basename(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}
        if self.digest is None:
            self.digest = h
        self.tally("outputs", [] if h == self.digest else ["CSV bytes differ between passes"])


def speed_kernel(memory=np.random.default_rng(0).random(1 << 20), gather=np.arange(1 << 20)[::-1].copy()):
    """Fixed work in the mix the workloads do: interpreter-bound small-array
    steps and string parsing, plus memory-bound gathers and reductions.

    Its time tracks the host's speed, which drifts by up to 2x over
    seconds when other tenants load the machine (README.md).
    """
    x = np.linspace(0.0, 1.0, 2048)
    acc = 0.0
    for i in range(1000):
        x[(7 * i) % 2048] += 1e-9
        acc += float(np.abs(x).sum())
    for i in range(10000):
        acc += int(f"{i} {i}".split()[1])
    acc += float(np.bincount(gather, weights=memory[gather] * memory, minlength=gather.size).sum())
    return acc


def kernel_seconds():
    t0 = clock()
    speed_kernel()
    return clock() - t0


def solve_block_policy(eps):
    """What `rlgl mdp` computes: the policy grid, then the simulated trajectory."""
    c0 = mdp.meanfield_init(MF_SIZES, MF_P, MF_Q)
    grid = mdp.solve_policy(MF_SIZES, MF_P, MF_Q, c0=c0, eps=eps, n_z1=MF_GRID[0], n_z2=MF_GRID[1])
    try:
        sim = mdp.simulate_policy(c0, grid, MF_SIZES, MF_P, MF_Q, eps=eps, max_steps=MF_MAX_STEPS)
    except NoConvergenceError as exc:
        return grid, exc.result, exc
    return grid, sim, None


def count_work(solves, policy):
    """Exact work counts of one pass, read from the solver results."""
    c = {"rlgl_edge_ops": 0.0, "engine.steps": 0, "engine.updates": 0, "engine.restarts": 0, "engine.guard_events": 0}
    for f in SOLVER_FAMILIES:
        c[f"solvers.iterations.{f}"] = 0
    for s in solves:
        res = s.result
        if res is None:
            continue
        if family(s.method) == "rlgl":
            c["rlgl_edge_ops"] += res.state.cum_cost
            c["engine.steps"] += res.state.t
            c["engine.updates"] += res.state.updates
            c["engine.restarts"] += res.restarts
            c["engine.guard_events"] += len(res.guard_events)
        else:
            c[f"solvers.iterations.{family(s.method)}"] += res.iterations
    c["mdp.grid_cells"] = int(policy[0].A.size) if policy else 0
    return c


# -- outputs: the CSV formats of `rlgl bench`, `rlgl solve` and `rlgl mdp` --


def write_outputs(out_dir, solves, policy):
    paths = []
    for mode in dict.fromkeys(s.mode for s in solves):
        path = os.path.join(out_dir, f"bench-{mode}.csv")
        with open(path, "w") as fh:
            fh.write("method,step,cum_cost,residual,residual_kind\n")
            for s in solves:
                if s.mode != mode or s.trace is None:
                    continue
                if isinstance(s.trace, engine.RunTrace):
                    rows = [(r[0], r[2], r[4]) for r in s.trace.rows]
                else:
                    rows = s.trace.rows
                for step, cost, resid in rows:
                    fh.write(f"{s.method},{step},{cost:.17g},{resid:.17g},{s.kind}\n")
        paths.append(path)
        for s in solves:
            if s.mode != mode or s.x is None:
                continue
            tag = s.method.replace("+", "-").replace(":", "")
            path = os.path.join(out_dir, f"estimate-{mode}-{tag}.csv")
            with open(path, "w") as fh:
                fh.write("node,value\n")
                for i, v in enumerate(s.x):
                    node = int(s.node_map[i]) if s.node_map is not None else i
                    fh.write(f"{node},{v:.17g}\n")
            paths.append(path)
    if policy is not None:
        grid, sim, _ = policy
        path = os.path.join(out_dir, "policy.csv")
        grid.to_csv(path)
        paths.append(path)
        path = os.path.join(out_dir, "trajectory.csv")
        with open(path, "w") as fh:
            fh.write("step,action,cash_l1,cum_cost\n")
            fh.write(f"0,,{sim.cash_l1[0]:.17g},0\n")
            for k, a in enumerate(sim.actions):
                fh.write(f"{k + 1},{int(a)},{sim.cash_l1[k + 1]:.17g},{sim.cum_cost[k + 1]:.17g}\n")
        paths.append(path)
    return paths


# -- metrics ----------------------------------------------------------------


def per_pass(passes, keep):
    """Median over passes of the summed time of the steps ``keep`` selects."""
    return median([sum(v for k, v in p["times"].items() if keep(k)) for p in passes])


def end_to_end(runner, passes):
    """The nine end-to-end metrics over the given untraced passes.

    Times are medians over passes, in scaled seconds (see run_pass);
    set-up time is the median of every timed set-up in the run.
    """
    is_rlgl = lambda k: k[0] == "solve" and family(k[2]) == "rlgl"
    return {
        "setup_s": median(runner.setup_samples),
        "rlgl_solve_s": per_pass(passes, is_rlgl),
        "ref_solve_s": per_pass(passes, lambda k: k[0] == "solve" and not is_rlgl(k)),
        "policy_s": per_pass(passes, lambda k: k[0] == "policy"),
        "wall_s": per_pass(passes, lambda k: k[0] == "wall"),
        "rlgl_edge_ops": passes[0]["counts"]["rlgl_edge_ops"],
        "max_err_l1": max(p["max_err_l1"] for p in passes),
        "failed_frac": runner.failed / max(runner.attempted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, untraced):
    """Per-layer metrics: medians over the traced passes of span self times.

    Span seconds are scaled by the pass's median speed-kernel factor, so
    they share the end-to-end metrics' reference-host units.
    """
    totals = tracer.totals()
    rows = []
    for run_id, rec in enumerate(traced):
        spans = totals.get(run_id, {})
        scale = rec["speed"]
        own = lambda name: scale * spans.get(name, (0.0, 0.0, 0))[1]
        calls = lambda name: spans.get(name, (0.0, 0.0, 0))[2]
        counted = lambda key: tracer.counts.get((run_id, key), 0)
        runs = {n.split(":", 1)[1]: (scale * v[0], scale * v[1]) for n, v in spans.items() if n.startswith("engine.run:")}
        c = rec["counts"]
        m = {
            "models.generate_s": own("models.generate"),
            "models.parse_s": own("models.parse"),
            "models.scc_s": own("models.scc"),
            "matrix.build_s": own("matrix.build"),
            "matrix.mul_left_s": own("matrix.mul_left"),
            "matrix.mul_left_calls": calls("matrix.mul_left"),
            "matrix.mul_left_bytes": counted("matrix.mul_left_bytes"),
            "matrix.scatter_add_s": own("matrix.scatter_add"),
            "matrix.scatter_add_calls": calls("matrix.scatter_add"),
            "matrix.push_damped_s": own("matrix.push_damped"),
            "matrix.push_damped_calls": calls("matrix.push_damped"),
            "schedules.next_nodes_s": own("schedules.next_nodes"),
            "schedules.next_nodes_calls": calls("schedules.next_nodes"),
            "schedules.skip_frac": counted("schedules.skips") / max(calls("schedules.next_nodes"), 1),
            "engine.self_s": sum(v[1] for v in runs.values()),
            "engine.us_per_step": 1e6 * sum(v[0] for v in runs.values()) / max(c["engine.steps"], 1),
            "engine.steps": c["engine.steps"],
            "engine.updates": c["engine.updates"],
            "engine.restarts": c["engine.restarts"],
            "engine.guard_events": c["engine.guard_events"],
            "mdp.solve_policy_s": own("mdp.solve_policy"),
            "mdp.simulate_s": own("mdp.simulate"),
            "mdp.grid_cells": c["mdp.grid_cells"],
            "cli.output_s": own("cli.output"),
            "cli.output_bytes": rec["output_bytes"],
        }
        for tag in SCHEDULE_TAGS:
            m[f"engine.run_s.{tag}"] = runs.get(tag, (0.0,))[0]
        for f in SOLVER_FAMILIES:
            m[f"solvers.self_s.{f}"] = own(f"solvers.{f}")
            m[f"solvers.iterations.{f}"] = c[f"solvers.iterations.{f}"]
        rows.append(m)
    out = {k: median([r[k] for r in rows]) for k in rows[0]}
    wall = lambda ps: per_pass(ps, lambda k: k[0] == "wall")
    out["trace_overhead_frac"] = wall(traced) / wall(untraced) - 1.0
    return out
