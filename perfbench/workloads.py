"""The benchmark's four workloads.

Each workload turns the workload seed into inputs (``setup``) and then
runs one measured repetition (``unit``) through poisonlab's public entry
points: ``poisonlab.cli.run`` for the pipelines and the ``poisonlab.*``
API. A unit returns one ``Cell`` per attack plus retrain, or per
defended run, and every output check that fails marks its cell failed.

A cell is *designed reachable* when its budget is at least 1.25 times
its threshold (the sweeps and the defended Sever run), or when a
witness poison set of exactly its size cancels the clean gradient
(``multiclass_reach``). A cell *reaches* when its final merit falls
below ``REACH_TOL``.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

REACH_TOL = 1e-12
DESIGN_MARGIN = 1.25
# the sweep CSV header is a frozen format
SWEEP_HEADER = ("target_id", "w1", "w2", "tau", "eps_d", "acc_drop",
                "grad_norm", "final_merit", "error")
# recomputed merits must match the returned ones to this tolerance; the
# absolute part sits far below REACH_TOL so a check can never hide a miss
MERIT_RTOL = 1e-6
MERIT_ATOL = 1e-18


@dataclass
class Cell:
    name: str
    merit: float
    designed: bool
    fixed_labels: bool = True
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def reached(self) -> bool:
        return self.merit < REACH_TOL


@dataclass
class Unit:
    cells: list
    extras: dict = field(default_factory=dict)


def _write_dataset(pl, ds, path) -> dict:
    """Save a generated dataset where the pipeline will read it."""
    pl.serialize.write_json_atomic(path, pl.serialize.dataset_to_obj(ds))
    return {"generator": "file", "path": path}


def _sweep_config(seed, dataset, test, model, targets, eps, options):
    return {"pipeline": "sweep", "seed": seed, "dataset": dataset,
            "test_dataset": test, "model": model,
            "targets": [{"source": "inline", "values": [float(v) for v in t]}
                        for t in targets],
            "eps_d": list(eps),
            "attack": {"name": "gradient_canceling", "options": options}}


def _run_sweep(pl, state, jobs, out_dir) -> Unit:
    """Run the sweep pipeline once and check its CSV row by row."""
    cfg = copy.deepcopy(state["config"])
    path = os.path.join(out_dir, "sweep.csv")
    cfg["output"] = {"csv": path}
    pl.cli.run(cfg, jobs=jobs, base_dir=out_dir)
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = tuple(next(reader, ()))
        rows = list(reader)
    targets, eps_list = state["targets"], state["eps"]
    expected = [(ti, e) for ti in range(len(targets)) for e in eps_list]
    table_problems = []
    if header != SWEEP_HEADER:
        table_problems.append(f"header {header!r}")
    if len(rows) != len(expected):
        table_problems.append(f"{len(rows)} rows, expected {len(expected)}")
    cells = []
    for k, (ti, eps) in enumerate(expected):
        cell = Cell(f"t{ti}-e{eps!r}", math.nan, False,
                    problems=list(table_problems))
        cells.append(cell)
        if k >= len(rows) or len(rows[k]) != len(SWEEP_HEADER):
            cell.problems.append("missing or short row")
            continue
        row = dict(zip(SWEEP_HEADER, rows[k]))
        if row["error"]:
            cell.problems.append(row["error"])
            continue
        try:
            tau, merit = float(row["tau"]), float(row["final_merit"])
            if int(row["target_id"]) != ti or float(row["eps_d"]) != eps \
                    or float(row["w1"]) != float(targets[ti][0]):
                cell.problems.append("row out of order")
        except ValueError as exc:
            cell.problems.append(f"unparsable row: {exc}")
            continue
        if not (math.isfinite(tau) and math.isfinite(merit) and merit >= 0):
            cell.problems.append(f"tau={tau} merit={merit}")
            continue
        cell.merit = merit
        cell.designed = eps >= DESIGN_MARGIN * tau
    return Unit(cells)


# ---------------------------------------------------------------------------
# or_heatmap: many small logistic cells on OR, serial

OR_AXIS = (-0.7, -1.05, -1.4)
OR_EPS = (1.0, 2.0, 4.0)


def or_heatmap_setup(pl, seed, small, work_dir):
    rng = pl.make_rng(seed, 101)
    axis = OR_AXIS[:2] if small else OR_AXIS
    targets = []
    for w1 in axis:
        for w2 in axis:
            a, b = np.array([w1, w2]) + rng.uniform(-0.05, 0.05, 2)
            targets.append([a, b, -0.25 * (a + b)])
    eps = OR_EPS[::2] if small else OR_EPS
    clean = pl.gen_or(seed)
    test = pl.gen_or(seed + 1000)
    config = _sweep_config(
        seed, _write_dataset(pl, clean, os.path.join(work_dir, "clean.json")),
        _write_dataset(pl, test, os.path.join(work_dir, "test.json")),
        {"family": "logistic_binary"}, targets, eps,
        {"lr": 5.0, "epochs": 60 if small else 400})
    return {"config": config, "targets": targets, "eps": list(eps)}


def or_heatmap_unit(pl, state, jobs, out_dir, cell):
    return _run_sweep(pl, state, jobs, out_dir)


# ---------------------------------------------------------------------------
# gauss_sweep: the 10-d Gaussian budget sweep on the process pool

GAUSS_TAUS = (0.1, 0.45)
GAUSS_EPS = (0.1, 0.5, 1.0, 2.0)


def _target_at_tau(pl, spec, clean, w0, far, goal):
    """Point on the segment w0 -> far (extended if needed) with tau = goal."""
    def tau(t):
        return pl.tau_threshold(spec, w0 + t * (far - w0), clean).tau

    lo, hi = 0.0, 1.0
    while tau(hi) < goal:
        lo, hi = hi, 2.0 * hi
        if hi > 64:
            raise RuntimeError(f"no target with tau {goal} on the segment")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tau(mid) < goal else (lo, mid)
        if hi - lo < 1e-6:
            break
    return w0 + hi * (far - w0)


def gauss_sweep_setup(pl, seed, small, work_dir):
    n, d = (200, 10) if small else (1000, 10)
    spec = pl.ModelSpec("logistic_binary", d + 1)
    clean = pl.gen_gauss_classification(seed, n=n, d=d)
    w0 = pl.train(spec, clean, seed=seed)
    far = pl.grad_ascent_corrupt(clean, spec, w0, 1.0, steps=30,
                                 seed=seed).params
    goals = GAUSS_TAUS[:1] if small else GAUSS_TAUS
    targets = [_target_at_tau(pl, spec, clean, w0, far, g) for g in goals]
    eps = GAUSS_EPS[1::2] if small else GAUSS_EPS
    test = pl.gen_gauss_classification(seed + 1000, n=600, d=d)
    config = _sweep_config(
        seed, _write_dataset(pl, clean, os.path.join(work_dir, "clean.json")),
        _write_dataset(pl, test, os.path.join(work_dir, "test.json")),
        {"family": "logistic_binary"}, targets, eps,
        {"lr": 5.0, "epochs": 60 if small else 1000})
    return {"config": config, "targets": targets, "eps": list(eps)}


def gauss_sweep_unit(pl, state, jobs, out_dir, cell):
    return _run_sweep(pl, state, jobs, out_dir)


# ---------------------------------------------------------------------------
# defend: DPA and Sever through the defend pipeline on OR data

DEFEND_TARGET = (-0.07, -0.07, 0.035)
SEVER_EPS = (0.15, 0.25, 0.35)


def defend_setup(pl, seed, small, work_dir):
    rng = pl.make_rng(seed, 103)
    target = (np.array(DEFEND_TARGET) * rng.uniform(0.9, 1.1)).tolist()
    base = {"pipeline": "defend", "seed": seed,
            "model": {"family": "logistic_binary"},
            "target": {"source": "inline", "values": target},
            "attack": {"name": "gradient_canceling",
                       "options": {"lr": 5.0, "epochs": 60 if small else 1000}}}

    def data(name, seed, reps):
        ds = pl.gen_or(seed, reps=reps)
        return _write_dataset(pl, ds, os.path.join(work_dir, f"{name}.json")), ds.n

    # 20 samples per DPA partition on average. With 8, one of 180 DPA
    # runs had an empty hash partition and raised EmptyPartitionError;
    # with 20 the chance is about 1e-7 per run
    dpa_clean, dpa_n = data("dpa_clean", seed, 10 if small else 250)
    sever_clean, sever_n = data("sever_clean", seed, 10 if small else 50)
    runs = [("dpa", dpa_n, {
        **base, "eps_d": 0.05 if small else 0.005, "dataset": dpa_clean,
        "test_dataset": data("dpa_test", seed + 900, 10)[0],
        "defense": {"name": "dpa", "k": 8 if small else 50}})]
    sever_test = data("sever_test", seed + 900, 50)[0]
    for eps in SEVER_EPS[:1 if small else None]:
        runs.append((f"sever-e{eps!r}", sever_n, {
            **base, "eps_d": eps, "dataset": sever_clean,
            "test_dataset": sever_test,
            "defense": {"name": "sever", "rounds": 2}}))
    return {"runs": runs}


def _merit_from_report(report, n_clean):
    """Canceling merit recovered from the undefended retrain report.

    grad_norm_at_target is the mean gradient over clean + poison, i.e.
    |g(mu) + eps g(nu)| / (1 + eps) with eps the realised poison ratio.
    """
    und = report["undefended"]
    eps = round(n_clean * report["eps_d"] + 1e-9) / n_clean
    return 0.5 * ((1.0 + eps) * und["grad_norm_at_target"]) ** 2


def defend_unit(pl, state, jobs, out_dir, cell):
    cells, drops, extras = [], [], {}
    for name, n_clean, cfg0 in state["runs"]:
        cfg = copy.deepcopy(cfg0)
        path = os.path.join(out_dir, f"{name}.json")
        cfg["output"] = {"report": path}
        with cell(name):
            pl.cli.run(cfg, jobs=jobs, base_dir=out_dir)
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
        out = Cell(name, _merit_from_report(report, n_clean),
                   report["eps_d"] >= DESIGN_MARGIN * report["tau"])
        cells.append(out)
        und, dfd = report["undefended"], report["defended"]
        if not all(math.isfinite(float(v)) for v in (
                und["clean_acc"], und["poisoned_acc"],
                und["grad_norm_at_target"], report["tau"])):
            out.problems.append(f"non-finite undefended report {und}")
        if cfg["defense"]["name"] == "dpa":
            acc, cert = dfd["dpa_accuracy"], dfd["certified_accuracy"]
            if not 0.0 <= cert <= acc <= 100.0 or dfd["k"] != cfg["defense"]["k"]:
                out.problems.append(f"inconsistent DPA report {dfd}")
            extras["defense.dpa.certified_acc"] = float(cert)
        else:
            if not 0.0 <= dfd["poisoned_acc"] <= 100.0 \
                    or not math.isfinite(dfd["acc_drop"]):
                out.problems.append(f"inconsistent Sever report {dfd}")
            drops.append(float(dfd["acc_drop"]))
    extras["defense.sever.acc_drop"] = sum(drops) / len(drops)
    return Unit(cells, extras)


# ---------------------------------------------------------------------------
# multiclass_reach: softmax and mlp1 on 3-class blobs through the API

MC_EPS = {"softmax_linear": (0.2, 0.3, 0.4, 0.5, 0.6), "mlp1": (0.3, 0.6)}
MC_ATOMS = 48


def _blobs(pl, seed, n, classes=3, radius=2.0, sd=0.6):
    """Seeded 3-class Gaussian blobs in 2-d with a bias feature."""
    rng = pl.make_rng(seed, 11)
    angle = 2 * np.pi * np.arange(classes) / classes + rng.uniform(0, 2 * np.pi)
    centers = radius * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    y = np.arange(n) % classes
    x = centers[y] + sd * rng.standard_normal((n, 2))
    return pl.Dataset(np.hstack([x, np.ones((n, 1))]), y, "classification",
                      classes)


def multiclass_reach_setup(pl, seed, small, work_dir):
    n = 30 if small else 90
    clean = _blobs(pl, seed, n)
    test = _blobs(pl, seed + 1000, n)
    specs = [pl.ModelSpec("softmax_linear", 3, classes=3),
             pl.ModelSpec("mlp1", 3, classes=3, hidden=3)]
    rng = pl.make_rng(seed, 12)
    box = clean.domain_box
    atoms_x = np.column_stack([rng.uniform(box[j, 0], box[j, 1], MC_ATOMS)
                               for j in range(2)] + [np.ones(MC_ATOMS)])
    atoms_x = np.repeat(atoms_x, 3, axis=0)
    atoms_y = np.tile(np.arange(3), MC_ATOMS)
    train_opts = pl.TrainOptions(epochs=100) if small else None
    cases = []
    for spec in specs:
        w0 = pl.train(spec, clean, train_opts, seed)
        for eps in MC_EPS[spec.family][:1 if small else None]:
            # witness: a relabelled clean subsample; the target is the
            # model trained on clean + witness, so the witness cancels
            # g(mu) up to training accuracy
            count = int(round(eps * clean.n))
            idx = rng.choice(clean.n, count, replace=False)
            witness = pl.Dataset(clean.x[idx], (clean.y[idx] + 1) % 3,
                                 "classification", 3)
            target = pl.train(spec, pl.concat(clean, witness), train_opts,
                              seed)
            residual = pl.mean_param_grad(spec, target, clean) \
                + eps * pl.mean_param_grad(spec, target, witness)
            cases.append({"spec": spec, "eps": eps, "target": target,
                          "w0": w0,
                          "witness_merit": 0.5 * float(residual @ residual)})
    return {"clean": clean, "test": test, "cases": cases,
            "atoms": (atoms_x, atoms_y), "seed": seed,
            "epochs": 60 if small else 1000}


def _check_merit(pl, clean, spec, target, eps, result) -> list:
    """Recompute 1/2 |g(mu) + eps g(nu)|^2 from the returned poison."""
    residual = pl.mean_param_grad(spec, target, clean) \
        + eps * pl.mean_param_grad(spec, target, result.poison)
    merit = 0.5 * float(residual @ residual)
    if abs(merit - result.final_merit) > MERIT_RTOL * merit + MERIT_ATOL:
        return [f"final_merit {result.final_merit!r} but recomputed {merit!r}"]
    return []


def multiclass_reach_unit(pl, state, jobs, out_dir, cell):
    clean, test = state["clean"], state["test"]
    atoms_x, atoms_y = state["atoms"]
    cells = []
    for k, case in enumerate(state["cases"]):
        spec, eps, target = case["spec"], case["eps"], case["target"]
        name = f"{spec.family}-e{eps!r}"
        with cell(name):
            if spec.family == "mlp1":
                bound = pl.nn_necessary_tau(spec, target, clean)
            else:
                bound = pl.tau_threshold(spec, target, clean).tau
            grads = pl.models.grads_batch(spec, target, atoms_x, atoms_y)
            pl.membership_check(pl.mean_param_grad(spec, target, clean),
                                grads, pl.ratio_to_lambda(eps))
        designed = case["witness_merit"] < REACH_TOL
        for labels in ("fixed", "opt"):
            opts = pl.AttackOptions(lr=5.0, epochs=state["epochs"],
                                    optimize_labels=labels == "opt",
                                    seed=pl.derive_seed(state["seed"], k))
            with cell(f"{name}-{labels}"):
                res = pl.gradient_canceling(clean, spec, target, eps, opts)
                ev = pl.retrain_and_eval(clean, res.poison, test, spec, target,
                                         state["seed"], clean_params=case["w0"],
                                         eps_d=eps, tau=bound)
            out = Cell(f"{name}-{labels}", res.final_merit, designed,
                       fixed_labels=labels == "fixed")
            out.problems += _check_merit(pl, clean, spec, target, eps, res)
            if not math.isfinite(ev.param_distance):
                out.problems.append("retrain diverged")
            cells.append(out)
    return Unit(cells)


# name: (setup, unit, engine, input sets per run)
WORKLOADS = {
    "or_heatmap": (or_heatmap_setup, or_heatmap_unit, "serial", 6),
    "gauss_sweep": (gauss_sweep_setup, gauss_sweep_unit, "pool", 7),
    "defend": (defend_setup, defend_unit, "serial", 8),
    "multiclass_reach": (multiclass_reach_setup, multiclass_reach_unit,
                         "serial", 8),
}
