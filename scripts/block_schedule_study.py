#!/usr/bin/env python3
"""Optimal block scheduling study on the three-block mean-field model.

Solves the schedule program on a (z1, z2) grid, simulates the optimal
trajectory, and races it against fixed cycles (full sweeps, constant
single blocks, short alternations).  Writes policy.csv, trajectory.csv
and race.csv under the output directory.
"""

import argparse
import os
import sys

from rlgl import cli, engine, mdp
from rlgl.errors import RlglError

CYCLES = {
    "full-sweep": (7,),
    "block1": (1,),
    "block2": (2,),
    "block3": (3,),
    "alt-2-3": (2, 3),
    "3-3-3-5": (3, 3, 3, 5),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="50,20,10")
    ap.add_argument("--p", type=float, default=0.1)
    ap.add_argument("--q", type=float, default=0.01)
    ap.add_argument("--eps", type=float, default=1e-10)
    ap.add_argument("--grid", default="1400x81")
    ap.add_argument("--out", default="results/blocks")
    args = ap.parse_args(argv)

    try:
        sizes = tuple(cli._int_fields(args.sizes, "--sizes"))
        n_z1, n_z2 = cli._int_fields(args.grid, "--grid", sep="x", count=2)
        cli.check_out_dir(args.out)
        c0 = mdp.meanfield_init(sizes, args.p, args.q)
        grid = mdp.solve_policy(sizes, args.p, args.q, c0=c0, eps=args.eps, n_z1=n_z1, n_z2=n_z2)
        cli.make_out_dir(args.out)
    except RlglError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_CONFIG
    grid.to_csv(os.path.join(args.out, "policy.csv"))

    sim, stalled = cli.simulate(c0, grid, sizes, args.p, args.q, eps=args.eps)
    sim.to_csv(os.path.join(args.out, "trajectory.csv"))
    runs = {"optimal": (sim, stalled)}
    for name, cycle in CYCLES.items():
        actions = [mdp.Action(a) for a in cycle]
        runs[name] = cli.simulate(c0, actions, sizes, args.p, args.q, eps=args.eps, max_steps=50_000)

    rows = [(name, len(s.actions), s.cum_cost[-1], error is None) for name, (s, error) in runs.items()]
    engine.write_csv(os.path.join(args.out, "race.csv"), ("schedule", "steps", "total_cost", "converged"),
                     [(name, steps, cost, str(ok).lower()) for name, steps, cost, ok in rows])
    for name, steps, cost, ok in rows:
        print(f"{name:12s} steps={steps:6d} cost={cost:12.0f} converged={ok}")
    if stalled is not None:  # the optimal policy's run, as rlgl mdp reports it
        print(f"no convergence: {stalled}", file=sys.stderr)
        return cli.EXIT_NO_CONVERGENCE
    return 0


if __name__ == "__main__":
    sys.exit(main())
