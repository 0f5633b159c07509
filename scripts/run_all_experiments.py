#!/usr/bin/env python3
"""Run every shipped synthetic experiment config in sequence.

Every config is validated before the first one runs, so a bad key fails
at once. The MNIST variants are skipped unless an IDX directory exists
at data/mnist relative to the repository root. Each config's wall time
is printed after its `== name` line.
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from poisonlab.cli import run, validate_config
from poisonlab.errors import ConfigError
from poisonlab.serialize import read_json

ROOT = os.path.join(os.path.dirname(__file__), "..")
SYNTHETIC = [
    "fig1_small.json",
    "fig1_or_sweep.json",
    "fig2_gauss10.json",
    "fig3_curves_gauss.json",
    "d3_leastsq_gc.json",
    "d3_leastsq_gm.json",
    "d6_toy_blocked.json",
    "d6_toy_reachable.json",
    "d8_replacing.json",
    "defense_sever.json",
    "defense_dpa.json",
    "select_target.json",
]
MNIST = ["fig2_mnist17.json"]

if __name__ == "__main__":
    names = list(SYNTHETIC)
    if os.path.isdir(os.path.join(ROOT, "data", "mnist")):
        names += MNIST
    paths = [os.path.join(ROOT, "configs", name) for name in names]
    for path in paths:
        try:
            validate_config(read_json(path), base_dir=os.path.dirname(path))
        except ConfigError as exc:
            sys.exit(f"{os.path.basename(path)}: config error: {exc}")
    for name, path in zip(names, paths):
        print(f"== {name}", flush=True)
        start = time.perf_counter()
        outputs = run(read_json(path), base_dir=os.path.dirname(path))
        print(f"   wall: {time.perf_counter() - start:.2f} s")
        for key, out in outputs.items():
            print(f"   {key}: {out}")
