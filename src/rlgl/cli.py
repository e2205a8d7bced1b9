"""Command-line front end: solve, bench, gen, analyze, mdp subcommands.

All outputs are CSV with headers and are byte-deterministic for equal
seeds.  Exit codes: 0 converged, 2 no convergence, 3 degenerate history,
64 configuration/validation errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, engine, mdp, models, schedules, solvers
from .errors import (
    ConfigError,
    DanglingNodeError,
    DegenerateHistoryError,
    NoConvergenceError,
    RlglError,
)
from .matrix import build_transition, google_matrix

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_DEGENERATE = 3
EXIT_CONFIG = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@dataclass
class ExperimentConfig:
    graph: str
    method: str = "rlgl"
    schedule: str = "rr"
    eps: float = 1e-10
    criterion: str = "cash"
    pagerank: bool = False
    damping: float = 0.85
    restart_s: str = None
    seed: int = 0
    theta_r: float = 1.0
    lcc: bool = False
    one_based: bool = False
    undirected: bool = False
    max_steps: int = 1_000_000
    trace_stride: int = None
    m0: str = None
    out: str = "."

    def validate(self):
        if self.eps <= 0:
            raise ConfigError("eps must be > 0")
        if self.max_steps < 1:
            raise ConfigError("max-steps must be >= 1")
        if self.trace_stride is not None and self.trace_stride < 1:
            raise ConfigError("trace-stride must be >= 1")
        for flag, path in (("--m0", self.m0), ("--restart-s", self.restart_s)):
            if path is not None and not os.path.isfile(path):
                raise ConfigError(f"{flag} {path!r}: no such file")


def _edges_of(P):
    """(src, dst, value) rows of a CSR matrix's stored entries."""
    src = np.repeat(np.arange(P.n), np.diff(P.indptr))
    return np.column_stack([src, P.indices, P.data])


def load_graph(spec, one_based=False, undirected=False, seed=0):
    """Resolve a graph descriptor to (edges, n).

    Builtins: ``example31``, ``two-wheels``, ``meanfield:s1,s2,..:p:q``,
    ``sbm:s1,s2,..:p:q[:seed]``.  Anything else is an edge-list path.
    """
    if spec == "example31":
        P = models.four_state_chain()
        return _edges_of(P), P.n
    if spec in ("two-wheels", "two_wheels"):
        und, n = models.two_wheels()
        return models.symmetrize(und), n
    if spec.startswith(("meanfield:", "sbm:")):
        kind, *parts = spec.split(":")
        try:
            if len(parts) < 3 or (kind == "meanfield" and len(parts) > 3):
                raise ValueError
            sizes = [int(s) for s in parts[0].split(",")]
            p, q = float(parts[1]), float(parts[2])
            s = int(parts[3]) if len(parts) > 3 else seed
        except ValueError:
            usage = "<sizes>:<p>:<q>" + ("[:seed]" if kind == "sbm" else "")
            raise ConfigError(f"graph {spec!r}: expected {kind}:{usage}") from None
        if kind == "meanfield":
            return models.meanfield_sbm(sizes, p, q), None
        return models.random_sbm(sizes, p, q, s)
    if not os.path.isfile(spec):
        raise ConfigError(f"graph {spec!r}: not a builtin and no such file")
    edges, n = models.parse_edge_file(spec, one_based=one_based)
    if undirected:
        edges = models.symmetrize(edges)
    return edges, n


def _load_vector(path, flag):
    """The numbers in a vector file (whitespace-separated); ConfigError naming ``flag``."""
    try:
        return np.loadtxt(path)
    except (OSError, ValueError):
        raise ConfigError(f"{flag} {path!r}: expected a readable file of numbers") from None


def _restart_distribution(path, n):
    if path is None:
        return None
    vals = _load_vector(path, "--restart-s")
    if vals.size != n:
        raise ConfigError(f"restart distribution has {vals.size} entries, graph has {n}")
    return vals


def build_problem(cfg: ExperimentConfig):
    """Returns (matrix, node_map) ready to solve under the chosen mode."""
    edges, n = load_graph(cfg.graph, cfg.one_based, cfg.undirected, cfg.seed)
    if n is None:  # block-implicit mean-field matrix comes back directly
        mf = edges
        if cfg.pagerank:
            raise ConfigError("pagerank mode is not defined for the mean-field builtin")
        return mf, None
    if cfg.pagerank:
        s = _restart_distribution(cfg.restart_s, n)
        return google_matrix(edges, cfg.damping, s, n=n), None
    if cfg.lcc:
        edges, mapping = models.largest_scc(edges, n)
        node_map = np.flatnonzero(mapping >= 0)
        return build_transition(edges, node_map.size), node_map
    # Check connectivity on the built matrix, so the edges coalesce once.
    try:
        P = build_transition(edges, n)
    except DanglingNodeError:
        P = None  # a node without out-edges: not strongly connected either
    if P is None or not models.is_strongly_connected(P):
        raise ConfigError("raw stationary mode needs a strongly connected graph (or --lcc)")
    return P, None


def residual_kind(method):
    """What a method's trace residual measures, as written to bench.csv."""
    if method in ("pi", "gs"):
        return "delta_l1"
    return "gmres_rel" if method.startswith("gmres") else "cash_l1"


def run_method(P, cfg: ExperimentConfig, M0=None):
    """Dispatch one solver; returns (estimate, trace, residual_kind, meta).

    ``M0`` is the rlgl seed distribution; when None it is read from
    ``cfg.m0`` (uniform without one).
    """
    method = cfg.method
    kind = residual_kind(method)
    if method.startswith("rlgl"):
        # "rlgl" uses --schedule; "rlgl+<schedule>" carries its own
        sched_text = method.split("+", 1)[1] if "+" in method else cfg.schedule
        sched = schedules.parse_schedule(sched_text, cfg.seed)
        if M0 is None and cfg.m0:
            M0 = _load_vector(cfg.m0, "--m0")
        res = engine.run(
            P,
            sched,
            M0,
            eps=cfg.eps,
            criterion=cfg.criterion,
            max_steps=cfg.max_steps,
            trace_stride=cfg.trace_stride,
        )
        return res.pi_hat, res.trace, kind, res
    if method == "pi":
        res = solvers.power_iteration(P, eps=cfg.eps, max_iters=cfg.max_steps)
        return res.x, res.trace, kind, res
    if method == "gs":
        res = solvers.gauss_seidel(P, eps=cfg.eps, max_sweeps=cfg.max_steps)
        return res.x, res.trace, kind, res
    if method.startswith("gmres"):
        try:
            m = int(method.split(":")[1]) if ":" in method else 10
        except ValueError:
            raise ConfigError(f"method {method!r}: expected gmres:<integer M>") from None
        res = solvers.gmres_restarted(P, m=m, eps=cfg.eps, max_restarts=cfg.max_steps)
        return res.x, res.trace, kind, res
    if method.startswith("gso"):
        if not cfg.pagerank:
            raise ConfigError("gso applies to the pagerank mode only")
        sub = method.split(":", 1)[1] if ":" in method else "greedy-max"
        res = solvers.gso_pagerank(
            P, schedule=sub, eps=cfg.eps, max_steps=cfg.max_steps, r=cfg.theta_r, trace_stride=cfg.trace_stride
        )
        return res.x, res.trace, kind, res
    raise ConfigError(f"unknown method {cfg.method!r}")


def _write_estimate(path, x, node_map=None):
    with open(path, "w") as fh:
        fh.write("node,value\n")
        for i, v in enumerate(x):
            node = int(node_map[i]) if node_map is not None else i
            fh.write(f"{node},{v:.17g}\n")


def cmd_solve(args):
    cfg = _config_from(args)
    cfg.validate()
    P, node_map = build_problem(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    code = EXIT_OK
    try:
        x, trace, kind, _ = run_method(P, cfg)
    except NoConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        res = exc.result
        x = getattr(res, "pi_hat", None)
        if x is None:
            x = getattr(res, "x", None)
        trace = res.trace
        code = EXIT_NO_CONVERGENCE
    except DegenerateHistoryError as exc:
        print(f"degenerate history: {exc}", file=sys.stderr)
        res = getattr(exc, "result", None)
        if res is not None and res.trace is not None:
            res.trace.to_csv(os.path.join(cfg.out, "trace.csv"))
        return EXIT_DEGENERATE
    if x is not None:
        _write_estimate(os.path.join(cfg.out, "estimate.csv"), x, node_map)
    trace.to_csv(os.path.join(cfg.out, "trace.csv"))
    return code


def _bench_one(P, cfg, method, M0):
    sub = ExperimentConfig(**{**cfg.__dict__, "method": method})
    try:
        _, trace, kind, _ = run_method(P, sub, M0)
        return method, trace, kind, None
    except RlglError as exc:
        res = getattr(exc, "result", None)
        trace = getattr(res, "trace", None)
        return method, trace, residual_kind(method), str(exc)


def cmd_bench(args):
    cfg = _config_from(args)
    cfg.validate()
    if not args.method:
        raise ConfigError("bench needs a comma-separated --method list")
    methods = [m for m in args.method.split(",") if m]
    if not methods:
        raise ConfigError("bench needs at least one method")
    P, _ = build_problem(cfg)
    # A bad --m0 is a configuration error, not one method's failure.
    M0 = engine.seed_distribution(_load_vector(cfg.m0, "--m0"), P.n) if cfg.m0 else None
    results = [_bench_one(P, cfg, m, M0) for m in methods]
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "bench.csv")
    failures = []
    with open(path, "w") as fh:
        fh.write("method,step,cum_cost,residual,residual_kind\n")
        for method, trace, kind, error in results:
            if error:
                failures.append((method, error))
            if trace is None:
                continue
            cols = [trace.columns.index(c) for c in ("step", "cum_cost", trace.residual)]
            for step_, cost, resid in ([r[j] for j in cols] for r in trace.rows):
                fh.write(f"{method},{step_},{cost:.17g},{resid:.17g},{kind}\n")
    for method, error in failures:
        print(f"{method}: {error}", file=sys.stderr)
    return EXIT_OK


def _int_fields(text, flag, sep=",", count=None):
    """The integers of ``text`` split at ``sep``; ConfigError naming ``flag``."""
    try:
        vals = [int(v) for v in text.split(sep)]
        if count is not None and len(vals) != count:
            raise ValueError
    except ValueError:
        what = f"{count} integers" if count else "integers"
        raise ConfigError(f"{flag} {text!r}: expected {what} separated by {sep!r}") from None
    return vals


def cmd_gen(args):
    kind = args.kind
    if kind in ("two-wheels", "two_wheels"):
        und, _ = models.two_wheels()
        models.write_edge_file(args.out_file, und, comment="two-wheels, undirected")
        return EXIT_OK
    if kind == "sbm":
        sizes = _int_fields(args.sizes, "--sizes")
        edges, _ = models.random_sbm(sizes, args.p, args.q, args.seed)
        models.write_edge_file(args.out_file, edges, comment=f"sbm sizes={args.sizes} seed={args.seed}")
        return EXIT_OK
    if kind == "meanfield":
        sizes = _int_fields(args.sizes, "--sizes")
        mf = models.meanfield_sbm(sizes, args.p, args.q)
        models.write_edge_file(args.out_file, _edges_of(mf.expand()), comment="mean-field block model")
        return EXIT_OK
    raise ConfigError(f"unknown generator {kind!r}")


def cmd_analyze(args):
    kind = args.kind
    out = []
    if kind in ("dobrushin", "cyclic") and args.graph is None:
        raise ConfigError(f"analyze {kind} needs --graph")
    if kind == "dobrushin":
        cfg = _config_from(args)
        cfg.pagerank = args.damping is not None
        if cfg.pagerank:
            cfg.damping = args.damping
        P, _ = build_problem(cfg)
        res = analysis.dobrushin(P)
        out.append(("dobrushin", f"{res.value:.17g}"))
        out.append(("exact", str(res.exact).lower()))
        if args.damping is not None:
            out.append(("damping_bound", f"{args.damping:.17g}"))
            out.append(("within_bound", str(res.value <= args.damping + 1e-12).lower()))
    elif kind == "sbm2":
        forms = analysis.sbm2_closed_forms(args.p, args.q, args.K)
        out.append(("lambda2", f"{forms.lambda2:.17g}"))
        out.append(("factor_b1", f"{forms.factor_b1:.17g}"))
        out.append(("factor_b2", f"{forms.factor_b2:.17g}"))
        out.append(("cost_ratio_asymptotic", f"{forms.cost_ratio_asymptotic:.17g}"))
    elif kind == "random-rate":
        a = analysis.random_rate_bound(args.n, args.r, args.eta)
        out.append(("rate_exponent", f"{a:.17g}"))
    elif kind == "cyclic":
        cfg = _config_from(args)
        P, _ = build_problem(cfg)
        sched = schedules.load_block_file(args.blocks)
        blocks = [b.tolist() for b in sched.sequence]
        chk = analysis.cyclic_markov_check(P, blocks)
        out.append(("r", str(chk.r)))
        out.append(("eta", f"{chk.eta:.17g}"))
        out.append(("j0", str(chk.j0)))
    else:
        raise ConfigError(f"unknown analysis {kind!r}")
    for k, v in out:
        print(f"{k} {v}")
    return EXIT_OK


def cmd_mdp(args):
    sizes = _int_fields(args.sizes, "--sizes")
    n_z1, n_z2 = _int_fields(args.grid, "--grid", sep="x", count=2)
    c0 = mdp.meanfield_init(sizes, args.p, args.q)
    grid = mdp.solve_policy(sizes, args.p, args.q, c0=c0, eps=args.eps, n_z1=n_z1, n_z2=n_z2)
    os.makedirs(args.out, exist_ok=True)
    grid.to_csv(os.path.join(args.out, "policy.csv"))
    code = EXIT_OK
    try:
        sim = mdp.simulate_policy(c0, grid, sizes, args.p, args.q, eps=args.eps, max_steps=args.max_steps)
    except NoConvergenceError as exc:
        sim = exc.result
        code = EXIT_NO_CONVERGENCE
    sim.to_csv(os.path.join(args.out, "trajectory.csv"))
    return code


def _config_from(args):
    cfg = ExperimentConfig(graph=args.graph)
    for name in vars(cfg):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    return cfg


def _add_graph_flags(p, required=True):
    p.add_argument("--graph", required=required, help="builtin name or edge-list path")
    p.add_argument("--one-based", dest="one_based", action="store_true", default=None)
    p.add_argument("--undirected", action="store_true", default=None)
    p.add_argument("--lcc", action="store_true", default=None, help="solve on the largest SCC")
    p.add_argument("--seed", type=int, default=None)


def _add_solver_flags(p):
    p.add_argument("--method", default=None, help="rlgl | pi | gs | gmres:M | gso:<schedule>")
    p.add_argument("--schedule", default=None, help="rr | rand:seed | greedy | maxc | pc:seed | theta:r[:period] | blocks:<file> | all")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--criterion", choices=("cash", "pihat"), default=None,
                   help="stop on the cash residual (default) or the estimate difference")
    p.add_argument("--pagerank", action="store_true", default=None)
    p.add_argument("--damping", type=float, default=None)
    p.add_argument("--restart-s", dest="restart_s", default=None, help="file with the restart distribution")
    p.add_argument("--theta-r", dest="theta_r", type=float, default=None)
    p.add_argument("--max-steps", dest="max_steps", type=int, default=None)
    p.add_argument("--trace-stride", dest="trace_stride", type=int, default=None)
    p.add_argument("--m0", default=None, help="file with the seed distribution (default uniform)")
    p.add_argument("--out", default=None)


def make_parser():
    parser = _Parser(prog="rlgl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute one stationary estimate")
    _add_graph_flags(p_solve)
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="compare methods on one graph")
    _add_graph_flags(p_bench)
    _add_solver_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="write generator output as an edge list")
    p_gen.add_argument("kind", help="two-wheels | sbm | meanfield")
    p_gen.add_argument("out_file")
    p_gen.add_argument("--sizes", default="40,40")
    p_gen.add_argument("--p", type=float, default=0.1)
    p_gen.add_argument("--q", type=float, default=0.005)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)

    p_an = sub.add_parser("analyze", help="print a key-value diagnostic report")
    p_an.add_argument("kind", help="dobrushin | cyclic | random-rate | sbm2")
    _add_graph_flags(p_an, required=False)
    p_an.add_argument("--damping", type=float, default=None)
    p_an.add_argument("--blocks", default=None, help="block file for the cyclic check")
    p_an.add_argument("--p", type=float, default=0.1)
    p_an.add_argument("--q", type=float, default=0.01)
    p_an.add_argument("--K", type=float, default=2.0)
    p_an.add_argument("--n", type=int, default=10)
    p_an.add_argument("--r", type=int, default=1)
    p_an.add_argument("--eta", type=float, default=0.3)
    p_an.set_defaults(func=cmd_analyze)

    p_mdp = sub.add_parser("mdp", help="solve the three-block schedule program")
    p_mdp.add_argument("--sizes", default="50,20,10")
    p_mdp.add_argument("--p", type=float, default=0.1)
    p_mdp.add_argument("--q", type=float, default=0.01)
    p_mdp.add_argument("--eps", type=float, default=1e-10)
    p_mdp.add_argument("--grid", default="1400x81")
    p_mdp.add_argument("--max-steps", dest="max_steps", type=int, default=100_000)
    p_mdp.add_argument("--out", default=".")
    p_mdp.set_defaults(func=cmd_mdp)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RlglError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
