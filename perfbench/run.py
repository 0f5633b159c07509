#!/usr/bin/env python3
"""poisonlab benchmark: one command, every metric by name with its unit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload or_heatmap --seed 0 --seconds 20 --trace 0

The program under test is imported from ``src/`` of the working
directory; the run exits non-zero without a result when it is not
there. Inputs are generated from ``--seed``, as several input sets per
workload. With ``--trace 0`` the input sets repeat untraced, in rounds,
for about ``--seconds``, and the end-to-end metrics are medians over the
repetitions. With ``--trace 1`` untraced and traced repetitions of the
first input set alternate at ``jobs=1`` (after one pooled repetition
for pooled workloads), and the per-layer metrics come from the spans,
which are written to ``perfbench/_out`` at exit.

The last line of standard output is the result object; the line before
it is the environment block. ``--smoke`` runs every workload at small
size in both modes and checks the metric names against BENCHMARK.json.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402

# set-up is repeated until it has taken this long, at most SETUP_REPEATS
# times; setup_s is the median time to build one input set
SETUP_REPEATS = 10
SETUP_BUDGET_S = 2.0
# At the library default the pool's BLAS threads oversubscribe the cores
# and one gauss_sweep repetition takes from 4.5 s to 10.5 s on the same
# input (2 cores), so its untraced runs pin BLAS to one thread per process.
# The traced run keeps the default and reports the pool's efficiency.
PINNED_BLAS = ("gauss_sweep",)
# traced repetitions per traced run; their spans are all kept in memory
MAX_TRACED = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# seeds 0-9 are for tuning the benchmark; a gain must also hold here
HELD_OUT_SEED = 1009
OUT_DIR = os.path.join(HERE, "_out")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cells_per_s": "1/s",
             "peak_rss_mb": "MB", "ok_frac": "frac", "reach_frac": "frac",
             "merit_digits_p50": "digits"}


def load_library(root: str):
    """Import poisonlab from <root>/src and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "poisonlab", "__init__.py")):
        raise SystemExit(f"no poisonlab sources under {src}")
    sys.path.insert(0, src)
    # every seed comes from --seed, never from the environment
    os.environ.pop("POISONLAB_SEED", None)
    import poisonlab
    # pipelines are reached as pl.cli.run, input files written with
    # pl.serialize
    import poisonlab.cli  # noqa: F401
    import poisonlab.serialize  # noqa: F401

    if not os.path.abspath(poisonlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"poisonlab imported from {poisonlab.__file__}")
    return poisonlab


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_info() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown"),
            "threads": None,
            "thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS
                           if k in os.environ}}
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def git_commit(root: str) -> str:
    # the ceiling keeps git from searching directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def environment(root: str, seed: int, workload: str, jobs: int) -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_info(), "nproc": nproc(),
            "git_commit": git_commit(root), "workload": workload,
            "seed": seed, "jobs": jobs}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def no_cell(name):
    return contextlib.nullcontext()


def guarded(unit, pl, state, jobs, work_dir, cell=no_cell):
    """One repetition; an exception counts as one failed cell."""
    try:
        return unit(pl, state, jobs, work_dir, cell)
    except Exception as exc:  # noqa: BLE001  (the run must report it)
        from workloads import Cell, Unit

        traceback.print_exc()
        return Unit([Cell("unit", math.nan, False,
                          problems=[f"{type(exc).__name__}: {exc}"])])


def build_inputs(pl, name, seed, small, work_dir):
    """The workload's input sets, each from its own seed derived from
    --seed; returns them with the time each took to build."""
    from workloads import WORKLOADS

    setup, _, _, sets = WORKLOADS[name]
    states, times = [], []
    for k in range(1 if small else sets):
        path = os.path.join(work_dir, f"input{k}")
        os.makedirs(path, exist_ok=True)
        state, secs = timed(
            lambda: setup(pl, pl.derive_seed(seed, name, k), small, path))
        states.append(state)
        times.append(secs)
    return states, times


def run_rounds(fns, seconds: float):
    """Run every fn once per round; start another round only if it should
    end within `seconds`. Returns (outputs, per-call walls)."""
    outs, walls = [], []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for fn in fns:
            out, wall = timed(fn)
            outs.append(out)
            walls.append(wall)
        now = time.perf_counter()
        if now - t_start + (now - t_round) > seconds:
            return outs, walls


def quality(units) -> dict:
    cells = [c for u in units for c in u.cells]
    designed = [c for c in cells if c.designed and c.ok]
    fixed = [c for c in designed if c.fixed_labels]
    digits = [tracing.digits(c.merit) for c in fixed]
    return {"attempted": len(cells),
            "failed": sum(1 for c in cells if not c.ok),
            "reach_frac": (sum(c.reached for c in designed) / len(designed)
                           if designed else 0.0),
            "merit_digits_p50": statistics.median(digits) if digits else 0.0}


def measure(pl, name, seed, seconds, trace, small):
    from workloads import WORKLOADS

    _, unit, engine, _ = WORKLOADS[name]
    jobs = nproc() if engine == "pool" else 1
    work_dir = os.path.join(OUT_DIR, f"{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if trace:
            metrics, units = traced(pl, name, seed, seconds, small, unit,
                                    jobs, work_dir)
            q = quality(units)
        else:
            setup_times, t0 = [], time.perf_counter()
            for _ in range(SETUP_REPEATS):
                states, times = build_inputs(pl, name, seed, small, work_dir)
                setup_times += times
                if time.perf_counter() - t0 > SETUP_BUDGET_S:
                    break
            units, walls = run_rounds(
                [lambda st=st: guarded(unit, pl, st, jobs, work_dir)
                 for st in states], seconds)
            q = quality(units)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(walls),
                "cells_per_s": statistics.median(
                    len(u.cells) / w for u, w in zip(units, walls)),
                "peak_rss_mb": peak_rss_mb(),
                "ok_frac": 1.0 - q["failed"] / q["attempted"],
                "reach_frac": q["reach_frac"],
                "merit_digits_p50": q["merit_digits_p50"],
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units_of = tracing.unit_of if trace else E2E_UNITS.get
    result = {"correct": q["failed"] == 0, "attempted": q["attempted"],
              "failed": q["failed"],
              "metrics": {k: {"value": float(v), "unit": units_of(k)}
                          for k, v in metrics.items()}}
    return result, jobs


def traced(pl, name, seed, seconds, small, unit, jobs, work_dir):
    """Per-layer run on the first input set: for pooled workloads one
    untraced repetition on the pool, then pairs of an untraced and a
    traced repetition at jobs=1 until `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    setup_tracer = tracing.Tracer()
    setup_tracer.install()
    try:
        states, _ = build_inputs(pl, name, seed, small, work_dir)
    finally:
        setup_tracer.uninstall()
    state = states[0]
    units = []
    pool = tracing.Tracer()
    pool_wall = None
    if jobs > 1:
        pool.count_pool_payloads(pl.cli)
        try:
            out, pool_wall = timed(
                lambda: guarded(unit, pl, state, jobs, work_dir))
        finally:
            pool.uninstall()
        units.append(out)
    tr = tracing.Tracer()
    refs, walls = [], []
    while True:
        t_pair = time.perf_counter()
        out, wall = timed(lambda: guarded(unit, pl, state, 1, work_dir))
        units.append(out)
        refs.append(wall)
        tr.install()
        try:
            out, wall = timed(
                lambda: guarded(unit, pl, state, 1, work_dir, tr.cell))
        finally:
            tr.uninstall()
        units.append(out)
        walls.append(wall)
        now = time.perf_counter()
        if len(walls) >= MAX_TRACED or now + (now - t_pair) > deadline:
            break
    metrics = tracing.layer_metrics(tr.spans, len(walls))
    # per input set, like setup_s
    metrics["targetgen.grad_ascent_corrupt.s"] = tracing.layer_metrics(
        setup_tracer.spans, len(states))["targetgen.grad_ascent_corrupt.s"]
    serial_cells = sum(s.end - s.start for s in tr.spans
                       if s.name == "harness.sweep_cell") / len(walls)
    pooled = pool_wall if pool_wall is not None else statistics.median(refs)
    metrics["cli.pool.payload_bytes_computed"] = float(pool.payload_bytes)
    metrics["cli.sweep.parallel_eff"] = serial_cells / (jobs * pooled)
    metrics["trace.overhead_s"] = statistics.median(walls) \
        - statistics.median(refs)
    for key in ("defense.dpa.certified_acc", "defense.sever.acc_drop"):
        metrics[key] = units[-1].extras.get(key, 0.0)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.tsv")
    setup_tracer.write(spans_path.replace(".tsv", ".setup.tsv"))
    tr.write(spans_path)
    return metrics, units


def benchmark_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as f:
        return json.load(f)


def smoke(pl) -> int:
    """Every workload at small size, both modes; names must match."""
    from workloads import WORKLOADS

    spec = benchmark_spec()
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    if set(names) != set(WORKLOADS):
        raise AssertionError(f"workloads {names} != {sorted(WORKLOADS)}")
    for name in names:
        for trace in (0, 1):
            result, _ = measure(pl, name, HELD_OUT_SEED, 0.0, trace, True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                raise AssertionError(f"{name} trace={trace}: missing {missing}"
                                     f" extra {extra} or units differ")
            if not result["correct"]:
                raise AssertionError(f"{name} trace={trace} failed its checks")
            print(f"smoke {name} trace={trace}: {len(got)} metrics ok",
                  flush=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if args.workload in PINNED_BLAS and not args.trace:
        # before numpy is imported, so the BLAS library reads them
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    root = os.getcwd()
    pl = load_library(root)
    from workloads import WORKLOADS

    if args.smoke:
        return smoke(pl)
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, jobs = measure(pl, args.workload, args.seed, args.seconds,
                           args.trace, False)
    env = environment(root, args.seed, args.workload, jobs)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
