"""The committed outputs in out/ as a golden check.

Eleven shipped configs, every one but fig1_or_sweep, run with their outputs
in a temporary directory, and each output is compared with its file in out/
field by field:

- tau, eps_d, clean accuracy, seeds, target parameters and the shape of
  each set: exact;
- merits and gradient norms: within 1e-6 relative, or both below 1e-12;
- outcomes of the retrained model (accuracy drop, poisoned and defended
  accuracy, distance to the target): exact when the attack reached its
  target (merit below 1e-12); on a blocked cell they depend on which
  point of the merit floor the optimizer returns, so there they are
  compared only through the merit;
- poison sets: through the canceling merit 1/2 |g(mu) + eps_d g(nu)|^2
  they reach at the target.

Of the long sweep fig1_or_sweep only the reached rows are rerun, through
the sweep engine with the config's seeds and clean model, and compared by
the same rules. The committed rows of both sweeps are also checked against
the merit floor of their targets: no final merit lies below the floor, and
no row whose floor exceeds 2 REACH_TOL counts as reached.

A change that moves an output regenerates out/ with
`scripts/run_all_experiments.py` and names the moved rows.
"""

import csv
import math
import os
import shutil

import numpy as np
import pytest

from poisonlab import serialize as ser
from poisonlab.attack import AttackOptions, gradient_canceling
from poisonlab.cli import (_build_dataset, resolve_model, resolve_target, run,
                           validate_config)
from poisonlab.harness import TrainOptions, sweep_heatmap
from poisonlab.mathcore import derive_seed
from poisonlab.models import grads_batch, mean_param_grad
from poisonlab.reachability import merit_floor

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIG_DIR = os.path.join(ROOT, "configs")
OUT_DIR = os.path.join(ROOT, "out")
SWEEPS = ["fig1_or_sweep", "fig2_gauss10"]
CONFIGS = ["fig1_small", "fig2_gauss10", "d3_leastsq_gc", "d3_leastsq_gm",
           "d6_toy_blocked", "d6_toy_reachable", "d8_replacing",
           "defense_sever", "defense_dpa", "select_target",
           "fig3_curves_gauss"]
REACH_TOL = 1e-12
REL_TOL = 1e-6

EXACT = {"target_id", "w1", "w2", "tau", "eps_d", "error", "epoch",
         "clean_acc", "seed", "k", "shape", "values", "model", "provenance",
         "eps_w", "task", "classes", "domain_box"}
CLOSE = {"final_merit", "merit", "grad_norm", "grad_norm_at_target"}
OUTCOME = {"acc_drop", "poisoned_acc", "param_distance", "dpa_accuracy",
           "certified_accuracy"}


def _same(a, b) -> bool:
    try:
        a, b = float(a), float(b)
    except (TypeError, ValueError):  # a name, an empty cell or an object
        return a == b
    return a == b or (math.isnan(a) and math.isnan(b))


def _close(a, b) -> bool:
    a, b = float(a), float(b)
    return (abs(a) < REACH_TOL and abs(b) < REACH_TOL) \
        or abs(a - b) <= REL_TOL * max(abs(a), abs(b)) \
        or (math.isnan(a) and math.isnan(b))


def _compare_fields(new: dict, ref: dict, reached: bool, where: str) -> list:
    if set(new) != set(ref):
        return [f"{where}: fields {sorted(new)} != {sorted(ref)}"]
    bad = []
    for key, want in ref.items():
        got = new[key]
        if isinstance(want, dict) and key not in EXACT:
            bad += _compare_fields(got, want, reached, f"{where}.{key}")
        elif key in CLOSE:
            if not _close(got, want):
                bad.append(f"{where}.{key}: {got} != {want}")
        elif key in OUTCOME and not reached:
            continue
        elif key in EXACT | OUTCOME:
            if np.shape(got) != np.shape(want) or not all(
                    _same(g, w) for g, w in zip(np.ravel(got), np.ravel(want))):
                bad.append(f"{where}.{key}: {got} != {want}")
        else:
            bad.append(f"{where}.{key}: no comparison rule")
    return bad


def _read_csv(path: str) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _compare_csv(new_path: str, ref_path: str) -> list:
    new, ref = _read_csv(new_path), _read_csv(ref_path)
    if len(new) != len(ref):
        return [f"{len(new)} rows != {len(ref)}"]
    bad = []
    for i, (got, want) in enumerate(zip(new, ref)):
        # a trace row has no outcome; a sweep row is reached by its merit
        reached = "final_merit" in want \
            and float(want["final_merit"]) < REACH_TOL
        bad += _compare_fields(got, want, reached, f"row {i}")
    return bad


def _canceling_merit(ctx: dict, poison_obj: dict) -> float:
    poison = ser.dataset_from_obj(poison_obj)
    g_nu = grads_batch(ctx["spec"], ctx["target"], poison.x,
                       poison.y).mean(axis=0)
    residual = ctx["g_mu"] + ctx["eps_d"] * g_nu
    return 0.5 * float(residual @ residual)


def _attack_context(cfg: dict) -> dict:
    """Clean set, model, target and budget of an attack config, as `run`
    builds them; in replace mode the clean set is the part the attack
    keeps, a seeded subset that does not depend on the epochs."""
    seed = cfg["seed"]
    clean = _build_dataset(cfg["dataset"], seed)
    spec = resolve_model(cfg["model"], clean)
    target = resolve_target(cfg["target"], clean, spec,
                            TrainOptions(**cfg["train"]), seed)
    options = cfg["attack"].get("options", {})
    if options.get("replace_mode"):
        clean = gradient_canceling(clean, spec, target, cfg["eps_d"],
                                   AttackOptions(
                                       epochs=1, replace_mode=True,
                                       seed=derive_seed(seed, "attack"))
                                   ).kept_clean
    return {"spec": spec, "target": target, "eps_d": cfg["eps_d"],
            "g_mu": mean_param_grad(spec, target, clean)}


def _compare_json(new_path: str, ref_path: str, cfg: dict) -> list:
    new, ref = ser.read_json(new_path), ser.read_json(ref_path)
    if "x" in ref:  # a poison set
        ctx = _attack_context(cfg)
        got, want = _canceling_merit(ctx, new), _canceling_merit(ctx, ref)
        bad = [] if _close(got, want) else [f"merit {got} != {want}"]
        meta = {k: v for k, v in ref.items() if k not in ("x", "y")}
        return bad + _compare_fields(
            {k: v for k, v in new.items() if k not in ("x", "y")}, meta,
            True, "poison")
    # a defend report: the attack reached its target when the merit that
    # the undefended mixture's gradient norm g gives, ((1 + eps_d) g)^2 / 2,
    # is below the tolerance
    reached = False
    if "undefended" in ref:
        eps_d = float(ref["eps_d"])
        g = (1.0 + eps_d) * float(ref["undefended"]["grad_norm_at_target"])
        reached = 0.5 * g * g < REACH_TOL
    return _compare_fields(new, ref, reached, "report")


def compare_outputs(name: str, new_dir: str, ref_dir: str) -> list:
    """Mismatches between the outputs config `name` wrote to `new_dir` and
    the files of the same names in `ref_dir`; empty when they agree."""
    raw = ser.read_json(os.path.join(CONFIG_DIR, f"{name}.json"))
    cfg = validate_config(raw, CONFIG_DIR)
    bad = []
    for out in raw["output"].values():
        base = os.path.basename(out)
        new, ref = os.path.join(new_dir, base), os.path.join(ref_dir, base)
        if base.endswith(".csv"):
            found = _compare_csv(new, ref)
        else:
            found = _compare_json(new, ref, cfg)
        bad += [f"{base}: {msg}" for msg in found]
    return bad


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """Directory holding one fresh run of every config in CONFIGS."""
    out_dir = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("POISONLAB_SEED", raising=False)
        for name in CONFIGS:
            cfg = ser.read_json(os.path.join(CONFIG_DIR, f"{name}.json"))
            cfg["output"] = {key: str(out_dir / os.path.basename(path))
                             for key, path in cfg["output"].items()}
            run(cfg, base_dir=CONFIG_DIR)
    return str(out_dir)


@pytest.mark.parametrize("name", CONFIGS)
def test_matches_committed_outputs(fresh, name):
    assert compare_outputs(name, fresh, OUT_DIR) == []


def _perturb(path: str, column: str, factor: float, row: int = 0):
    with open(path) as f:
        lines = f.read().splitlines()
    cells = lines[row + 1].split(",")
    i = lines[0].split(",").index(column)
    cells[i] = repr(float(cells[i]) * factor)
    lines[row + 1] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("name, base, column", [
    ("fig1_small", "fig1_small.csv", "final_merit"),
    ("d6_toy_blocked", "d6_blocked_trace.csv", "merit")])
def test_moved_merit_is_caught(fresh, tmp_path, name, base, column):
    ref = tmp_path / "out"
    shutil.copytree(OUT_DIR, ref)
    _perturb(str(ref / base), column, 1.0 + 1e-3)
    bad = compare_outputs(name, fresh, str(ref))
    assert len(bad) == 1 and f"{base}: row 0.{column}" in bad[0]


def test_moved_outcome_of_a_reached_row_is_caught(fresh, tmp_path):
    # row 3 of fig2_gauss10 reached its target, so its acc_drop is exact
    ref = tmp_path / "out"
    shutil.copytree(OUT_DIR, ref)
    _perturb(str(ref / "fig2_gauss10.csv"), "acc_drop", 1.0 + 1e-12, row=3)
    bad = compare_outputs("fig2_gauss10", fresh, str(ref))
    assert len(bad) == 1 and "fig2_gauss10.csv: row 3.acc_drop" in bad[0]


def _sweep(name: str):
    """Validated config, clean set, model, targets and committed rows of a
    sweep config, built as `run` builds them."""
    cfg = validate_config(
        ser.read_json(os.path.join(CONFIG_DIR, f"{name}.json")), CONFIG_DIR)
    seed = cfg["seed"]
    clean = _build_dataset(cfg["dataset"], seed)
    spec = resolve_model(cfg["model"], clean)
    targets = [resolve_target(t, clean, spec, TrainOptions(**cfg["train"]),
                              derive_seed(seed, "target", i))
               for i, t in enumerate(cfg["targets"])]
    rows = _read_csv(os.path.join(OUT_DIR, os.path.basename(
        cfg["output"]["csv"])))
    assert len(rows) == len(targets) * len(cfg["eps_d"])
    return cfg, clean, spec, targets, rows


def test_reached_heatmap_rows_match_committed():
    # the headline heatmap's reached rows, whose acc_drop is exact
    cfg, clean, spec, targets, rows = _sweep("fig1_or_sweep")
    seed = cfg["seed"]
    reached = [i for i, row in enumerate(rows)
               if float(row["final_merit"]) <= REACH_TOL]
    assert sorted(rows[i]["eps_d"] for i in reached) == \
        ["2.0"] * 10 + ["4.0"] * 25

    def reached_cells(fn, *columns):
        cells = list(zip(*columns))
        return [fn(*cells[i]) for i in reached]

    new = sweep_heatmap(
        clean, _build_dataset(cfg["test_dataset"], derive_seed(seed, "test")),
        spec, targets, cfg["eps_d"],
        AttackOptions(**{**cfg["attack"]["options"],
                         "seed": derive_seed(seed, "attack")}),
        base_seed=seed, train_opts=TrainOptions(**cfg["train"]),
        map_cells=reached_cells)
    bad = []
    for i, row in zip(reached, new):
        bad += _compare_fields(row, rows[i], True, f"row {i}")
    assert bad == []


@pytest.mark.parametrize("name", SWEEPS)
def test_committed_sweep_rows_respect_the_floor(name):
    cfg, clean, spec, targets, rows = _sweep(name)
    bad = []
    for i, row in enumerate(rows):
        merit = float(row["final_merit"])
        floor = merit_floor(spec, targets[int(row["target_id"])], clean,
                            float(row["eps_d"]))
        if merit < floor * (1.0 - 1e-9) or (floor > 2 * REACH_TOL
                                             and merit <= REACH_TOL):
            bad.append(f"row {i}: final_merit {merit}, floor {floor}")
    assert bad == []
