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

from rlgl import mdp
from rlgl.errors import NoConvergenceError

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

    sizes = tuple(int(s) for s in args.sizes.split(","))
    n_z1, n_z2 = (int(v) for v in args.grid.split("x"))
    os.makedirs(args.out, exist_ok=True)

    c0 = mdp.meanfield_init(sizes, args.p, args.q)
    grid = mdp.solve_policy(sizes, args.p, args.q, c0=c0, eps=args.eps, n_z1=n_z1, n_z2=n_z2)
    grid.to_csv(os.path.join(args.out, "policy.csv"))

    rows = []
    sim = mdp.simulate_policy(c0, grid, sizes, args.p, args.q, eps=args.eps)
    rows.append(("optimal", len(sim.actions), sim.cum_cost[-1], True))
    sim.to_csv(os.path.join(args.out, "trajectory.csv"))

    for name, cycle in CYCLES.items():
        try:
            s = mdp.simulate_policy(
                c0, [mdp.Action(a) for a in cycle], sizes, args.p, args.q,
                eps=args.eps, max_steps=50_000,
            )
            rows.append((name, len(s.actions), s.cum_cost[-1], True))
        except NoConvergenceError as exc:
            s = exc.result
            rows.append((name, len(s.actions), s.cum_cost[-1], False))

    with open(os.path.join(args.out, "race.csv"), "w") as fh:
        fh.write("schedule,steps,total_cost,converged\n")
        for name, steps, cost, ok in rows:
            fh.write(f"{name},{steps},{cost:.17g},{str(ok).lower()}\n")
            print(f"{name:12s} steps={steps:6d} cost={cost:12.0f} converged={ok}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
