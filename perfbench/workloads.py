"""The benchmark's four seeded workloads, their input generators and oracles.

Each workload is a list of modes (raw stationary or PageRank) with the
methods ``rlgl bench`` would run on one graph, plus, for the mean-field
model, the optimal block schedule.  The program only ever sees a graph
descriptor or an edge-list file written here; README.md says why each
workload exists and which layer it stresses.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from rlgl import cli, models, solvers
from rlgl.errors import RlglError
from rlgl.matrix import gth_stationary

DAMPING = 0.85
MAX_STEPS = 5_000_000

# The mean-field instance of ROADMAP and `rlgl mdp`: sizes, p, q, grid.
MF_SIZES = (50, 20, 10)
MF_P, MF_Q = 0.1, 0.01
MF_GRID = (1400, 81)
MF_MAX_STEPS = 100_000


@dataclass(frozen=True)
class Mode:
    pagerank: bool
    methods: tuple

    @property
    def label(self):
        return "pagerank" if self.pagerank else "raw"


@dataclass(frozen=True)
class Workload:
    name: str
    eps: float
    modes: tuple
    # "gth": elimination oracle per mode; "gmres": a tight gmres solve per
    # mode made before timing; "pass": the pass's own gmres:10 estimate.
    oracle: str
    policy: bool = False
    instances: int = 1  # graphs drawn per seed; each pass solves all of them

    def config(self, graph, mode):
        return cli.ExperimentConfig(
            graph=graph,
            eps=self.eps,
            pagerank=mode.pagerank,
            damping=DAMPING,
            max_steps=MAX_STEPS,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sbm500-clustered",
            1e-11,
            (
                Mode(False, ("rlgl+rr", "rlgl+maxc", "rlgl+pc:1", "rlgl+theta:1", "pi", "gs", "gmres:10")),
                Mode(True, ("rlgl+maxc", "rlgl+theta:1", "gso:greedy-max", "gso:theta", "pi", "gmres:10")),
            ),
            oracle="gth",
            # The work of one draw varies ~8% with its cross-block edge
            # count; two draws per seed average that down.
            instances=2,
        ),
        Workload(
            "sparse-1e5-ingest",
            1e-11,
            (
                Mode(False, ("pi", "gmres:10", "rlgl+all")),
                Mode(True, ("pi", "gmres:10", "rlgl+all")),
            ),
            oracle="pass",
        ),
        Workload(
            "sparse-1e4-push",
            1e-8,
            (Mode(False, ("rlgl+rr", "rlgl+theta:1", "rlgl+maxc", "pi", "gs")),),
            oracle="gmres",
        ),
        Workload(
            "meanfield-3block",
            1e-11,
            (Mode(False, ("rlgl+maxc", "rlgl+theta:1", "rlgl+rr", "pi", "gmres:10")),),
            oracle="gth",
            policy=True,
        ),
    )
}


def ring_random_edges(n, degree, seed):
    """A directed ring 0->1->..->0 plus ``degree`` uniform out-arcs per node.

    The ring makes every draw strongly connected; duplicate arcs and
    self-loops are kept (``build_transition`` merges duplicates).
    """
    rng = np.random.default_rng([seed, n])
    nodes = np.arange(n, dtype=np.int64)
    src = np.concatenate([nodes, np.repeat(nodes, degree)])
    dst = np.concatenate([(nodes + 1) % n, rng.integers(0, n, size=n * degree)])
    return src, dst


def write_edge_list(path, src, dst, comment):
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n")
        fh.write("\n".join(f"{s} {d}" for s, d in zip(src.tolist(), dst.tolist())))
        fh.write("\n")


def sbm_descriptors(seed, count):
    """``sbm:250,250:0.03:0.004:<s>`` for the first ``count`` valid draws.

    Candidates are s = seed, seed + 1000, seed + 2000, ...  A draw is
    valid when the generator accepts it and it is strongly connected, as
    raw mode requires; about one seed in a hundred leaves a node isolated
    twice and is rejected by the generator.
    """
    found = []
    for k in range(10 * count):
        s = seed + 1000 * k
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                edges, n = models.random_sbm([250, 250], 0.03, 0.004, s)
            except RlglError:
                continue
        if models.is_strongly_connected(edges, n):
            found.append(f"sbm:250,250:0.03:0.004:{s}")
            if len(found) == count:
                return found
    raise RuntimeError(f"no {count} valid sbm draws from seed {seed}")


def make_graphs(workload, seed, out_dir):
    """Generate the workload's inputs; returns descriptors or file paths."""
    if workload.name == "sbm500-clustered":
        return sbm_descriptors(seed, workload.instances)
    if workload.name == "meanfield-3block":
        # The mean-field model is fully determined; the seed does not change it.
        sizes = ",".join(str(s) for s in MF_SIZES)
        return [f"meanfield:{sizes}:{MF_P}:{MF_Q}"]
    n = 100_000 if workload.name == "sparse-1e5-ingest" else 10_000
    path = os.path.join(out_dir, f"ring-random-{n}.edges")
    src, dst = ring_random_edges(n, 10, seed)
    write_edge_list(path, src, dst, f"ring + random out-degree 10, n={n}, seed={seed}")
    return [path]


def oracle_for(workload, P):
    """Reference distribution computed before timing, or None for "pass"."""
    if workload.oracle == "gth":
        return gth_stationary(P)
    if workload.oracle == "gmres":
        return solvers.gmres_restarted(P, m=10, eps=1e-13).x
    return None
