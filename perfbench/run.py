#!/usr/bin/env python3
"""rlgl benchmark: wall time to a stated accuracy on four seeded workloads.

    python3 perfbench/run.py --workload sbm500-clustered --seed 7 --seconds 20 --trace 0

The package is imported from the checkout's ``src/``.  The workload's
inputs are generated from ``--seed``, then whole passes of the workload
(harness.py) run until ``--seconds`` is used up, at least two of them.
Each step's time is scaled to the reference host's speed, and the median
over passes is reported; set-up time is the median of several set-ups.  Every
estimate is checked against an oracle outside the timed region.

``--trace 1`` spends half the time on untraced passes and half on passes
with spans recorded around the public functions and objects of each
module (tracing.py), and reports the per-layer metrics instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come
from BENCHMARK.json.  The lines before it print every metric by name and
unit.  The full report, the CSV outputs and the span file go to
``.perfbench/<workload>/`` (or ``--out``).  Exit code 0 when every check
holds, 1 when one does not, 2 when the checkout has no ``src/rlgl``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# The single-threaded baseline: BLAS pinned before numpy loads, no bench pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RLGL_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 7  # sbm seed of the ROADMAP instance
EXTRA_UNITS = {"policy_s": "s", "failed_frac": "1"}  # printed, not declared


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="output directory (default .perfbench/<workload>)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rlgl" / "__init__.py").is_file():
        print(f"error: no rlgl package under {SRC}; run inside a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import Runner, end_to_end, per_layer
    from tracing import Tracer, install
    from workloads import WORKLOADS, make_graphs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    out_dir = args.out or str(ROOT / ".perfbench" / wl.name)
    os.makedirs(out_dir, exist_ok=True)

    graphs = make_graphs(wl, args.seed, out_dir)
    runner = Runner(wl, graphs, out_dir)
    runner.prepare(args.seconds)
    report = {"workload": wl.name, "seed": args.seed, "graphs": [os.path.basename(g) for g in graphs], "trace": args.trace}
    if args.trace:
        untraced = runner.measure(args.seconds / 2, 1)
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            traced = runner.measure(args.seconds / 2, 1, tracer)
        finally:
            uninstall()
        tracer.save(os.path.join(out_dir, "spans.npz"))
        report["per_layer"] = per_layer(tracer, traced, untraced)
        section = "per_layer"
    else:
        untraced = runner.measure(args.seconds, 2)
        section = "end_to_end"
    report["end_to_end"] = end_to_end(runner, untraced)
    report.update(
        passes=[
            {"elapsed": p["elapsed"], "kernels": p["kernels"], "times": {" ".join(k): v for k, v in p["times"].items()}}
            for p in runner.passes
        ],
        setup_samples=len(runner.setup_samples),
        counts=runner.passes[0]["counts"],
        outputs=runner.digest,
        failures=runner.failures,
    )
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} | EXTRA_UNITS
    print(f"workload {wl.name}  seed {args.seed}  graphs {' '.join(report['graphs'])}  passes {len(runner.passes)}  trace {args.trace}")
    for shown in ("end_to_end", "per_layer"):
        for name, value in report.get(shown, {}).items():
            print(f"  {name:28s} {value:<24.10g} {units[name]}")
    correct = not runner.failures
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": report[section][m["name"]], "unit": m["unit"]} for m in spec[section]},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
