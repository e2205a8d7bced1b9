"""Command-line front end: solve, bench, gen, analyze, mdp subcommands.

All outputs are CSV with headers and are byte-deterministic for equal
seeds.  Exit codes: 0 converged, 2 no convergence, 3 degenerate history,
64 configuration/validation errors and inputs too big for memory.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
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
from .matrix import build_transition, check_distribution, google_matrix

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_DEGENERATE = 3
EXIT_CONFIG = 64


class _Parser(argparse.ArgumentParser):
    """Every command's and kind's parser: a flag has its one spelling, no prefix of it, and an error is one line."""

    def __init__(self, *args, **kw):
        super().__init__(*args, allow_abbrev=False, **kw)

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@dataclass
class ExperimentConfig:
    graph: str
    method: str = "rlgl"
    eps: float = 1e-10
    pagerank: bool = False
    damping: float = 0.85
    restart_s: str = None
    seed: int = 0
    lcc: bool = False
    one_based: bool = False
    undirected: bool = False
    max_steps: int = 1_000_000
    m0: str = None
    out: str = "."

    def validate(self):
        if not 0.0 < self.eps < np.inf:
            raise ConfigError("eps must be finite and > 0")
        if self.max_steps < 1:
            raise ConfigError("max-steps must be >= 1")
        for flag, path in (("--m0", self.m0), ("--restart-s", self.restart_s)):
            if path is not None and not os.path.isfile(path):
                raise ConfigError(f"{flag} {path!r}: no such file")
        check_out_dir(self.out)


def check_out_dir(path):
    """ConfigError when ``path`` exists and is not a directory; nothing is created."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise ConfigError(f"--out {path!r}: not a directory")


def make_out_dir(path):
    """Create the ``--out`` directory; an OSError becomes a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path!r}: {exc.strerror}") from None


def _edges_of(P):
    """(src, dst, value) rows of a CSR matrix's stored entries."""
    src = np.repeat(np.arange(P.n), np.diff(P.indptr))
    return np.column_stack([src, P.indices, P.data])


def load_graph(spec, one_based=False, undirected=False, seed=0):
    """Resolve a graph descriptor to (edges, n).

    Builtins: ``example31``, ``two-wheels``, ``meanfield:s1,s2,..:p:q``,
    ``sbm:s1,s2,..:p:q[:seed]``.  Anything else is an edge-list path, which
    ``one_based`` and ``undirected`` alone apply to.
    """
    if (one_based or undirected) and (spec in ("example31", "two-wheels") or spec.startswith(("meanfield:", "sbm:"))):
        flag = "--one-based" if one_based else "--undirected"
        raise ConfigError(f"{flag} applies to edge-list files only, not to the builtin {spec!r}")
    if spec == "example31":
        P = models.four_state_chain()
        return _edges_of(P), P.n
    if spec == "two-wheels":
        und, n = models.two_wheels()
        return models.symmetrize(und), n
    if spec.startswith(("meanfield:", "sbm:")):
        kind, *parts = spec.split(":")
        try:
            if not 3 <= len(parts) <= (3 if kind == "meanfield" else 4):
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
        return np.loadtxt(path, ndmin=1)
    except (OSError, ValueError):
        raise ConfigError(f"{flag} {path!r}: expected a readable file of numbers") from None


def build_problem(cfg: ExperimentConfig):
    """Returns (matrix, node_map) ready to solve under the chosen mode."""
    edges, n = load_graph(cfg.graph, cfg.one_based, cfg.undirected, cfg.seed)
    if n is None:  # block-implicit mean-field matrix comes back directly
        mf = edges
        if cfg.pagerank:
            raise ConfigError("pagerank mode is not defined for the mean-field builtin")
        if cfg.lcc:
            raise ConfigError("--lcc is not defined for the mean-field builtin")
        return mf, None
    if cfg.pagerank:
        # google_matrix checks s against the graph (a distribution on n states)
        s = None if cfg.restart_s is None else _load_vector(cfg.restart_s, "--restart-s")
        return google_matrix(edges, cfg.damping, s, n=n), None
    if cfg.lcc:
        return models.largest_scc(edges, n)
    # Check connectivity on the built matrix, so the edges coalesce once.
    try:
        P = build_transition(edges, n)
    except DanglingNodeError:
        P = None  # a node without out-edges: not strongly connected either
    if P is None or not models.is_strongly_connected(P):
        raise ConfigError("raw stationary mode needs a strongly connected graph (or --lcc)")
    return P, None


def check_mode_flags(args):
    """ConfigError for ``--damping`` or ``--restart-s`` without ``--pagerank``, which would drop it.

    Checked on the parsed flags, unset ones None.  The parser itself keeps
    ``--lcc``, raw stationary mode's flag, apart from ``--pagerank``.
    """
    for flag, value in (("--damping", args.damping), ("--restart-s", args.restart_s)):
        if value is not None and not args.pagerank:
            raise ConfigError(f"{flag} applies to --pagerank mode only")


def check_m0(cfg, methods):
    """ConfigError for an ``--m0`` that none of ``methods``, ``parse_method`` pairs, reads: only rlgl does."""
    if cfg.m0 is not None and all(name != "rlgl" for name, _ in methods):
        raise ConfigError("--m0 applies to rlgl methods only")


def check_seed(seed, graph, methods):
    """ConfigError for a ``--seed`` (``seed``, None when unset) that nothing reads.

    Only a seedless ``sbm:`` graph and a ``rand`` or ``pc`` schedule
    without its own seed (``rlgl+rand``, ``gso:pc``) read it; ``methods``
    are the run's method descriptors, checked by ``parse_method``.
    """
    seedless_graph = graph.startswith("sbm:") and graph.count(":") < 4
    # the schedule field of rlgl+<schedule> and gso:<schedule>
    seedless_schedule = any(m.replace("+", ":", 1).split(":", 1)[-1] in ("rand", "pc") for m in methods)
    if seed is not None and not (seedless_graph or seedless_schedule):
        raise ConfigError("--seed applies only to a seedless sbm: graph and to a rand or pc schedule"
                          " without its own seed")


def parse_method(cfg: ExperimentConfig):
    """``(name, argument)`` of ``cfg.method``, every part checked.

    The descriptors are ``rlgl``, ``rlgl+<schedule>``, ``pi``, ``gs``,
    ``gmres``, ``gmres:<M>``, ``gso`` and ``gso:<schedule>``.  The
    argument is the schedule of ``rlgl`` (``rr`` when bare) and ``gso``
    (PageRank mode only; ``maxc`` when bare), built by
    ``schedules.parse_schedule``; M >= 1 for ``gmres`` (10 when bare);
    None for ``pi`` and ``gs``.  Raises ConfigError, or the schedule's
    InvalidParamsError, for any other text.
    """
    method = cfg.method
    name, arg = method, None
    if method not in ("rlgl", "pi", "gs", "gmres", "gso"):
        for name, sep in (("rlgl", "+"), ("gmres", ":"), ("gso", ":")):
            if method.startswith(name + sep):
                arg = method[len(name) + 1 :]
                break
        else:
            raise ConfigError(f"unknown method {method!r}")
    if name == "rlgl":
        return name, schedules.parse_schedule("rr" if arg is None else arg, cfg.seed)
    if name == "gso":
        if not cfg.pagerank:
            raise ConfigError("gso applies to the pagerank mode only")
        # "gso:greedy-max" is the classical name of maxc
        return name, schedules.parse_schedule("maxc" if arg in (None, "greedy-max") else arg, cfg.seed)
    if name == "gmres":
        try:
            m = 10 if arg is None else int(arg)
            if m < 1:
                raise ValueError
        except ValueError:
            raise ConfigError(f"method {method!r}: expected gmres:<integer M >= 1>") from None
        return name, m
    return name, None


def run_method(P, cfg: ExperimentConfig, M0=None):
    """Dispatch one solver; returns (estimate, trace, trace.residual, result), the last its ``engine.RunResult``.

    ``M0`` is the rlgl seed distribution; when None it is read from
    ``cfg.m0`` (uniform without one).
    """
    method, arg = parse_method(cfg)
    if method == "rlgl":
        if M0 is None and cfg.m0:
            M0 = _load_vector(cfg.m0, "--m0")
        res = engine.run(P, arg, M0, eps=cfg.eps, max_steps=cfg.max_steps)
    elif method == "pi":
        res = solvers.power_iteration(P, eps=cfg.eps, max_iters=cfg.max_steps)
    elif method == "gs":
        res = solvers.gauss_seidel(P, eps=cfg.eps, max_steps=cfg.max_steps)
    elif method == "gmres":
        res = solvers.gmres_restarted(P, m=arg, eps=cfg.eps, max_restarts=cfg.max_steps)
    else:  # gso, the one name left
        res = solvers.gso_pagerank(P, arg, eps=cfg.eps, max_steps=cfg.max_steps)
    return res.pi_hat, res.trace, res.trace.residual, res


def cmd_solve(args):
    check_mode_flags(args)
    cfg = _config_from(args)
    cfg.validate()
    check_m0(cfg, [parse_method(cfg)])  # a malformed descriptor or an unread --m0 fails before the graph is built
    check_seed(args.seed, cfg.graph, [cfg.method])
    P, node_map = build_problem(cfg)
    make_out_dir(cfg.out)
    code = EXIT_OK
    try:
        res = run_method(P, cfg)[3]
    except NoConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        res, code = exc.result, EXIT_NO_CONVERGENCE
    except DegenerateHistoryError as exc:
        print(f"degenerate history: {exc}", file=sys.stderr)
        res, code = exc.result, EXIT_DEGENERATE
    x, trace = res.pi_hat, res.trace
    if x is not None:
        nodes = np.arange(len(x)) if node_map is None else node_map
        engine.write_csv(os.path.join(cfg.out, "estimate.csv"), ("node", "value"), arrays=(nodes, x))
    engine.write_csv(os.path.join(cfg.out, "trace.csv"), trace.columns, arrays=tuple(map(trace.column, trace.columns)))
    return code


def _bench_one(P, cfg, M0):
    """(trace, error) of one method's run; error is None when it converged."""
    try:
        return run_method(P, cfg, M0)[1], None
    except RlglError as exc:
        return getattr(getattr(exc, "result", None), "trace", None), str(exc)


def cmd_bench(args):
    check_mode_flags(args)
    cfg = _config_from(args)
    cfg.validate()
    if not args.method:
        raise ConfigError("bench needs a comma-separated --method list")
    subs = [ExperimentConfig(**{**cfg.__dict__, "method": m}) for m in args.method.split(",") if m]
    if not subs:
        raise ConfigError("bench needs at least one method")
    # a malformed descriptor is a configuration error, not one method's failure
    methods = [parse_method(sub) for sub in subs]
    check_m0(cfg, methods)
    check_seed(args.seed, cfg.graph, [sub.method for sub in subs])
    P, _ = build_problem(cfg)
    # So are a bad --m0 and a schedule that does not fit the graph (a block id outside [0, n)).
    M0 = check_distribution(_load_vector(cfg.m0, "--m0"), P.n) if cfg.m0 else None
    for _, arg in methods:
        if isinstance(arg, schedules.Schedule):
            arg.bind(P)
    results = [_bench_one(P, sub, M0) for sub in subs]
    make_out_dir(cfg.out)
    rows = []
    for sub, (trace, _) in zip(subs, results):
        if trace is not None:
            rows += [(sub.method, r[0], r[2], r[4], trace.residual) for r in trace.rows]
    columns = ("method", "step", "cum_cost", "residual", "residual_kind")
    engine.write_csv(os.path.join(cfg.out, "bench.csv"), columns, rows)
    for sub, (_, error) in zip(subs, results):
        if error:
            print(f"{sub.method}: {error}", file=sys.stderr)
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
    if kind == "two-wheels":
        edges, _ = models.two_wheels()
        comment = "two-wheels, undirected"
    elif kind == "sbm":
        sizes = _int_fields(args.sizes, "--sizes")
        edges, _ = models.random_sbm(sizes, args.p, args.q, args.seed)
        comment = f"sbm sizes={args.sizes} seed={args.seed}"
    else:  # meanfield
        sizes = _int_fields(args.sizes, "--sizes")
        edges = _edges_of(models.meanfield_sbm(sizes, args.p, args.q).expand())
        comment = "mean-field block model"
    try:
        models.write_edge_file(args.out_file, edges, comment=comment)
    except OSError as exc:
        raise ConfigError(f"{args.out_file!r}: {exc.strerror}") from None
    return EXIT_OK


def cmd_analyze(args):
    kind = args.kind
    out = []
    if kind in ("dobrushin", "cyclic"):
        check_seed(args.seed, args.graph, [])
    if kind == "dobrushin":
        cfg = _config_from(args)
        cfg.pagerank = args.damping is not None  # --damping selects PageRank mode
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
    else:  # cyclic
        P, _ = build_problem(_config_from(args))
        sched = schedules.load_block_file(args.blocks)
        blocks = [b.tolist() for b in sched.sequence]
        chk = analysis.cyclic_markov_check(P, blocks)
        out.append(("r", str(chk.r)))
        out.append(("eta", f"{chk.eta:.17g}"))
        out.append(("j0", str(chk.j0)))
    for k, v in out:
        print(f"{k} {v}")
    return EXIT_OK


def simulate(*args, **kw):
    """``mdp.simulate_policy``'s result and None, or its partial result and the NoConvergenceError."""
    try:
        return mdp.simulate_policy(*args, **kw), None
    except NoConvergenceError as exc:
        return exc.result, exc


def cmd_mdp(args):
    sizes = _int_fields(args.sizes, "--sizes")
    n_z1, n_z2 = _int_fields(args.grid, "--grid", sep="x", count=2)
    if args.max_steps < 1:
        raise ConfigError("max-steps must be >= 1")
    check_out_dir(args.out)
    c0 = mdp.meanfield_init(sizes, args.p, args.q)
    grid = mdp.solve_policy(sizes, args.p, args.q, c0=c0, eps=args.eps, n_z1=n_z1, n_z2=n_z2)
    make_out_dir(args.out)
    grid.to_csv(os.path.join(args.out, "policy.csv"))
    sim, stalled = simulate(c0, grid, sizes, args.p, args.q, eps=args.eps, max_steps=args.max_steps)
    sim.to_csv(os.path.join(args.out, "trajectory.csv"))
    if stalled is not None:
        print(f"no convergence: {stalled}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _config_from(args):
    cfg = ExperimentConfig(graph=args.graph)
    for name in vars(cfg):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    return cfg


def _add_graph_flags(p):
    """The graph flags; returns the group of ``--lcc``, raw stationary mode's flag, for the PageRank-mode flag."""
    p.add_argument("--graph", required=True, help="builtin name or edge-list path")
    p.add_argument("--one-based", dest="one_based", action="store_true", default=None)
    p.add_argument("--undirected", action="store_true", default=None)
    p.add_argument("--seed", type=int, default=None)
    raw = p.add_mutually_exclusive_group()
    raw.add_argument("--lcc", action="store_true", default=None, help="solve on the largest SCC")
    return raw


def _add_solver_flags(p, raw):
    raw.add_argument("--pagerank", action="store_true", default=None)
    p.add_argument("--method", default=None,
                   help="rlgl[+<schedule>] | pi | gs | gmres[:M] (M capped at n) | gso[:<schedule>]; <schedule> is"
                   " rr (bare rlgl) | rand:seed | maxc | pc:seed | theta[:r] | blocks:<file> | all")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--damping", type=float, default=None)
    p.add_argument("--restart-s", dest="restart_s", default=None, help="file with the restart distribution")
    p.add_argument("--max-steps", dest="max_steps", type=int, default=None)
    p.add_argument("--m0", default=None, help="file with the seed distribution (default uniform)")
    p.add_argument("--out", default=None)


def make_parser():
    parser = _Parser(prog="rlgl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help in (("solve", cmd_solve, "compute one stationary estimate"),
                             ("bench", cmd_bench, "compare methods on one graph")):
        p = sub.add_parser(name, help=help)
        _add_solver_flags(p, _add_graph_flags(p))
        p.set_defaults(func=func)

    # each kind declares the flags it reads, and the parser rejects any other
    gen = sub.add_parser("gen", help="write generator output as an edge list")
    gen.set_defaults(func=cmd_gen)
    kinds = gen.add_subparsers(dest="kind", required=True)
    kinds.add_parser("two-wheels", help="the two-wheels graph").add_argument("out_file")
    # p 0.2 for sbm: at 0.1 the default draw leaves a node isolated
    for kind, help, p_in in (("sbm", "a stochastic block model draw", 0.2),
                             ("meanfield", "the mean-field block model's rows", 0.1)):
        p = kinds.add_parser(kind, help=help)
        p.add_argument("out_file")
        p.add_argument("--sizes", default="40,40")
        p.add_argument("--p", type=float, default=p_in)
        p.add_argument("--q", type=float, default=0.005)
        if kind == "sbm":
            p.add_argument("--seed", type=int, default=0)

    an = sub.add_parser("analyze", help="print a key-value diagnostic report")
    an.set_defaults(func=cmd_analyze)
    kinds = an.add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("dobrushin", help="the Dobrushin coefficient, in PageRank mode with --damping")
    _add_graph_flags(p).add_argument("--damping", type=float, default=None)
    p = kinds.add_parser("cyclic", help="positivity of a cycle of blocks")
    _add_graph_flags(p)
    p.add_argument("--blocks", required=True, help="block file")
    p = kinds.add_parser("sbm2", help="closed forms of the two-block SBM")
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--q", type=float, default=0.01)
    p.add_argument("--K", type=float, default=2.0)
    p = kinds.add_parser("random-rate", help="rate exponent of the random schedule")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--eta", type=float, default=0.3)

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


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    with warnings.catch_warnings():  # a warning is one line, as an error is, not its source path and code line
        warnings.showwarning = _show_warning
        try:
            args = make_parser().parse_args(argv)
            return args.func(args)
        except RlglError as exc:  # ConfigError included
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except MemoryError as exc:  # an input too big for memory, such as a huge node id or sbm
            print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
