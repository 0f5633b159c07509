#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, for before/after figures.

    python scripts/paired_bench.py PARENT_DIR CHANGE_DIR --workload W \
        [--workload W2 ...] [--seed S] [--pairs N] [--seconds T]

Each pair runs `perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, from that checkout's root, so each
side imports its own `src/`. The side that runs first alternates from
pair to pair, so a drift of the host's speed falls on both sides alike.
`--workload` may be given more than once; the workloads run one after
another, and each prints its own block. In a block, for every end-to-end
metric that `BENCHMARK.json` (in CHANGE_DIR) declares, one line gives
each side's median and quartiles over the pairs, the change's median
relative to the parent's, and the pairs in which the change was better,
by the metric's own direction. Naming all four workloads checks in one
command that no workload got worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds):
    """One untraced benchmark run in checkout `root`: its metric values."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{root}: run failed\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{root}: the run failed its output checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(workload, seed, sides, metrics):
    """Print one workload's block: a line per end-to-end metric."""
    pairs = len(sides["parent"])
    print(f"{workload} seed {seed}, {pairs} pairs "
          f"(median [q1, q3]; change/parent; pairs the change won)")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        old = [r[name] for r in sides["parent"]]
        new = [r[name] for r in sides["change"]]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        mo, mn = statistics.median(old), statistics.median(new)
        (o1, o3), (n1, n3) = quartiles(old), quartiles(new)
        ratio = f"{mn / mo:.3f}" if mo else "n/a"
        print(f"{name:17s} parent {mo:.4g} [{o1:.4g}, {o3:.4g}]  change "
              f"{mn:.4g} [{n1:.4g}, {n3:.4g}]  x{ratio}  wins "
              f"{wins}/{pairs}  ({m['better']} is better, {m['unit']})",
              flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", action="append", required=True,
                   help="a workload to run; repeat for more than one")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=6)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    for k, workload in enumerate(args.workload):
        sides = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 \
                else ("change", "parent")
            for side in order:
                sides[side].append(run_once(getattr(args, side), workload,
                                            args.seed, args.seconds))
            print(f"{workload}: pair {i + 1}/{args.pairs} done "
                  f"({order[0]} first)", file=sys.stderr, flush=True)
        if k:
            print()
        report(workload, args.seed, sides, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
