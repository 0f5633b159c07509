"""Command-line entry point: config ingestion, pipelines, serialization.

Subcommands: gen-data, train, threshold, make-target, select-target,
attack, retrain, sweep, defend. JSON in, JSON/CSV out; all writes are
atomic (temp file + rename). The environment variable POISONLAB_SEED
overrides every config or flag seed. Exit codes: 0 success, 2 config
error, 3 data error, 4 attack divergence, 1 anything else.

A pipeline config is checked once, by `validate_config`, against its
pipeline's table in `_SCHEMAS`: the one statement of the keys a config
may hold, with each key's type, range or names and default. The
pipelines read only the normalised copy it returns. The subcommands'
flags are checked the same way, against their tables in `_COMMANDS`.
"""

from __future__ import annotations

import argparse
import difflib
import math
import numbers
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, fields
from typing import get_type_hints

import numpy as np

from . import data as datamod
from . import serialize as ser
from .attack import (AttackOptions, GridDomain, LineDomain, _replace_keep,
                     frank_wolfe_attack, gradient_canceling, gradient_matching)
from .data import Dataset, concat
from .defense import (certificate_from_counts, dpa_train, dpa_votes,
                      sever_filter)
from .errors import (AttackDivergence, ConfigError, DomainError,
                     EmptyPartitionError, IdxFormatError, PoisonLabError)
from .harness import (SWEEP_COLUMNS, TrainOptions, eval_report,
                      retrain_and_eval, sweep_heatmap, train)
from .mathcore import derive_seed
from .models import (FAMILIES, LEAST_SQUARES, ModelSpec, accuracy,
                     mean_param_grad)
from .optim import round_half_up
from .reachability import ratio_to_lambda, tau_threshold
from .targetgen import (TargetCandidate, grad_ascent_corrupt, random_corrupt,
                        scale_params, select_target)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4


def _suggest(name: str, known) -> str:
    close = difflib.get_close_matches(name, known, n=3, cutoff=0.4)
    hint = f"; did you mean {', '.join(close)}?" if close else ""
    return f"unknown name {name!r} (known: {', '.join(known)}){hint}"


def _env_seed(default: int) -> int:
    raw = os.environ.get("POISONLAB_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"POISONLAB_SEED must be an integer, got {raw!r}") from exc


# ---------------------------------------------------------------------------
# the config schema
#
# A table maps each key to (kind, default) or (kind, default, bound). A key
# left out takes its default, checked like a given value; _REQUIRED marks a
# key that must be given, and a key whose default is None also takes null.
# Kinds: int, float, numbers.Real, bool, str, _PATH (an input file, joined to
# the config's directory), a tuple of names, [kind] (a nonempty list), a dict
# (a nested table) or a checker called as kind(value, where, base_dir).

_REQUIRED = object()
_PATH = "path"
_BOUNDS = {">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1,
           ">= 2": lambda v: v >= 2, "> 0": lambda v: v > 0,
           "in (0, 1)": lambda v: 0 < v < 1}


def _check(kind, v, where: str, base_dir: str, bound=None):
    """Value `v` of the config key named `where`, normalised to `kind`."""
    if callable(kind) and not isinstance(kind, type):
        return kind(v, where, base_dir)
    if isinstance(kind, dict):
        return _check_table(kind, v, where, base_dir)
    if isinstance(kind, tuple):
        if v not in kind:
            raise ConfigError(f"{where}: {_suggest(str(v), kind)}")
        return v
    if isinstance(kind, list):
        if not isinstance(v, (list, tuple)) or not v:
            raise ConfigError(f"{where} must be a nonempty list, got {v!r}")
        return [_check(kind[0], x, f"{where}[{i}]", base_dir, bound)
                for i, x in enumerate(v)]
    if kind is bool:
        if not isinstance(v, bool):
            raise ConfigError(f"{where} must be true or false, got {v!r}")
        return v
    if kind in (str, _PATH):
        if not isinstance(v, str) or not v:
            raise ConfigError(f"{where} must be a nonempty string, got {v!r}")
        if kind is _PATH and not os.path.exists(os.path.join(base_dir, v)):
            raise ConfigError(f"{where}: file not found: {v!r}")
        return os.path.join(base_dir, v) if kind is _PATH else v
    # int, float, or numbers.Real: any number, kept as given
    if isinstance(v, numbers.Real) and not isinstance(v, bool) \
            and math.isfinite(v) and (kind is not int or v == int(v)) \
            and (bound is None or _BOUNDS[bound](v)):
        return v if kind is numbers.Real else kind(v)
    want = ("an integer" if kind is int else "a number") + (
        f" {bound}" if bound else "")
    raise ConfigError(f"{where} must be {want}, got {v!r}")


def _check_table(table: dict, obj, where: str, base_dir: str, label=None):
    """A new dict holding every key of `table`, checked or defaulted."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    out = {}
    for key, (kind, default, *bound) in table.items():
        name = f"{where}.{key}" if where else key
        if key not in obj and default is _REQUIRED:
            raise ConfigError(f"{name} is required")
        value = obj[key] if key in obj else default
        if value is None and default is None:
            out[key] = None
        else:
            out[key] = _check(kind, value, name, base_dir, *bound)
    unknown = sorted(set(obj) - set(table))
    if unknown:
        close = difflib.get_close_matches(unknown[0], table, n=1)
        hint = f"; did you mean {close[0]}?" if close else ""
        raise ConfigError(f"unknown {label or where} keys: {unknown}"
                          f" (allowed: {sorted(table)}){hint}")
    return out


def _pick(tag: str, tables: dict, default=_REQUIRED):
    """An object whose `tag` key, or `default`, names its table."""
    def check(obj, where, base_dir):
        if not isinstance(obj, dict):
            raise ConfigError(f"{where} must be an object, got {obj!r}")
        head = {k: v for k, v in obj.items() if k == tag}
        rest = {k: v for k, v in obj.items() if k != tag}
        name = _check_table({tag: (tuple(tables), default)}, head, where,
                            base_dir)[tag]
        return {tag: name, **_check(tables[name], rest, where, base_dir)}
    return check


def _one_of(table: dict, *keys):
    """A table in which at least one of `keys` (default None) is given."""
    def check(obj, where, base_dir):
        out = _check_table(table, obj, where, base_dir)
        if all(out[k] is None for k in keys):
            raise ConfigError(f"{where} needs {' or '.join(keys)}")
        return out
    return check


def _options(cls, *keep):
    """Table entry for the options dataclass `cls`: its fields (only those
    named in `keep`, if any), types and defaults; an instance's own range
    checks apply too."""
    hints = get_type_hints(cls)
    table = {f.name: (hints[f.name], f.default) for f in fields(cls)
             if not keep or f.name in keep}

    def check(obj, where, base_dir):
        out = _check_table(table, obj, where, base_dir, cls.__name__)
        try:
            cls(**out)
        except PoisonLabError as exc:
            raise ConfigError(f"{where}: bad {cls.__name__}: {exc}") from exc
        return out
    return check, {}


def _output(**files):
    """Table entry for the output paths, relative to the working directory:
    `dir`, and one key per file that defaults to its name inside `dir`."""
    table = {"dir": (str, "."), **{key: (str, None) for key in files}}

    def check(obj, where, base_dir):
        out = _check_table(table, obj, where, base_dir)
        return {**out, **{key: os.path.join(out["dir"], name)
                          for key, name in files.items() if out[key] is None}}
    return check, {}


_SEED = {"seed": (int, None)}  # None: the run's seed
_GENERATORS = {
    "or": {**_SEED, "reps": (int, 50, ">= 1"),
           "noise_sigma": (float, 0.05, ">= 0")},
    "gauss_class": {**_SEED, "n": (int, 1000, ">= 2"), "d": (int, 10, ">= 1"),
                    "sep": (float, 2.0, ">= 0")},
    "gauss_reg": {**_SEED, "n": (int, 500, ">= 1"),
                  "w_true": ([float], _REQUIRED), "noise": (float, 0.0)},
    "toy3": _SEED,
    # dir is read relative to the working directory, when it is loaded
    "mnist": {**_SEED, "dir": (str, _REQUIRED),
              "split": (("train", "test"), "train"),
              "keep_classes": ([int], None, ">= 0")},
    "file": {**_SEED, "path": (_PATH, _REQUIRED)},
}
_DATASET = _pick("generator", _GENERATORS, default="file")


def _check_reg_size(obj: dict, n_name: str, w_name: str):
    """gauss_reg draws at least one sample per weight."""
    if obj["generator"] == "gauss_reg" and obj["n"] < len(obj["w_true"]):
        raise ConfigError(f"{n_name} must be >= len({w_name}), got {obj['n']}")


def _dataset(obj, where, base_dir):
    """A dataset object, or a shorthand name or file path for one."""
    if isinstance(obj, str):
        obj = {"or": {"generator": "or"}, "toy3": {"generator": "toy3"},
               "gauss10": {"generator": "gauss_class"}}.get(obj, {"path": obj})
    out = _DATASET(obj, where, base_dir)
    _check_reg_size(out, f"{where}.n", "w_true")
    return out


def _eps_list(v, where, base_dir):
    """sweep's eps_d: one budget or a nonempty list of them."""
    return _check([float], v if isinstance(v, (list, tuple)) else [v], where,
                  base_dir, "> 0")


# input_dim and classes default (None) to the dataset's
_MODEL = {"family": (FAMILIES, _REQUIRED), "input_dim": (int, None, ">= 1"),
          "classes": (int, None, ">= 2"), "hidden": (int, 0, ">= 0"),
          "leaky_slope": (float, 0.2)}
_EPS_W = (float, None, ">= 0")  # on a given target: a label for select_target
_STEPS = (int, 20, ">= 1")
_TARGET = _pick("source", {
    "inline": {"values": ([float], _REQUIRED), "eps_w": _EPS_W},
    "file": {"path": (_PATH, _REQUIRED), "eps_w": _EPS_W},
    "scaled": _one_of({"s": (float, _REQUIRED, "> 0"), "path": (_PATH, None),
                       "values": ([float], None), "eps_w": _EPS_W},
                      "path", "values"),
    "grad_ascent": {"eps_w": (float, _REQUIRED, ">= 0"),
                    "steps": _STEPS},
    "random": {"eps_w": (float, _REQUIRED, ">= 0")},
})
# each attack takes the options it reads: gradient matching adds poison
# with fixed labels, and Frank-Wolfe takes none. Neither takes a seed: run
# derives it from the config's seed.
_ATTACKS = {"gradient_canceling": {"options": _options(
                AttackOptions, "epochs", "lr", "clip_mode", "optimize_labels",
                "replace_mode")},
            "gradient_matching": {"options": _options(
                AttackOptions, "epochs", "lr", "clip_mode")},
            "frank_wolfe": {"domain": (_one_of({
                "alpha_grid": ([float], None), "axes": ([[float]], None),
                # class indices, or real targets for regression
                "labels": ([numbers.Real], [0, 1]), "iters": (int, 500, ">= 1"),
                "step_rule": (("open_loop", "line_search"), "open_loop"),
            }, "alpha_grid", "axes"), _REQUIRED)}}


def _attack(*names):
    return _pick("name", {name: _ATTACKS[name] for name in names},
                 default="gradient_canceling"), {}


_COMMON = {"pipeline": (str, _REQUIRED), "seed": (int, 0),
           "dataset": (_dataset, _REQUIRED), "model": (_MODEL, _REQUIRED),
           "train": _options(TrainOptions)}
_GRID = {"test_dataset": (_dataset, _REQUIRED),
         "targets": ([_TARGET], _REQUIRED)}
_EPS_D = (float, 1.0, "> 0")
_SCHEMAS = {
    "attack": {**_COMMON, "target": (_TARGET, _REQUIRED), "eps_d": _EPS_D,
               "attack": _attack(*_ATTACKS),
               "output": _output(poison="poison.json", trace="trace.csv",
                                 atoms="fw_atoms.json")},
    "sweep": {**_COMMON, **_GRID, "eps_d": (_eps_list, 1.0),
              "attack": _attack("gradient_canceling"),
              "output": _output(csv="sweep.csv")},
    # test_dataset is select_target's validation set, never held-out data
    "select_target": {**_COMMON, **_GRID, "eps_d": _EPS_D,
                      "attack": _attack("gradient_canceling"),
                      "output": _output(target="target.json")},
    "defend": {**_COMMON, "test_dataset": (_dataset, _REQUIRED),
               "target": (_TARGET, _REQUIRED), "eps_d": _EPS_D,
               "attack": _attack("gradient_canceling", "gradient_matching"),
               # sever's fraction defaults to eps_d / (1 + eps_d)
               "defense": (_pick("name", {
                   "sever": {"fraction": (float, None, "in (0, 1)"),
                             "rounds": (int, 2, ">= 1")},
                   "dpa": {"k": (int, _REQUIRED, ">= 1")}}), _REQUIRED),
               "output": _output(report="defense.json")},
}


def validate_config(cfg: dict, base_dir: str = ".") -> dict:
    """Check a config against its pipeline's table in `_SCHEMAS` and return
    a new, normalised config: every default filled in, scalars coerced and
    input `path` entries joined to `base_dir`. `cfg` is left unchanged."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    pipe = _check(tuple(_SCHEMAS), cfg.get("pipeline"), "pipeline", base_dir)
    out = _check_table(_SCHEMAS[pipe], cfg, "", base_dir, f"{pipe} config")
    if pipe == "defend" and out["defense"]["name"] == "sever" \
            and out["defense"]["fraction"] is None:
        out["defense"]["fraction"] = ratio_to_lambda(out["eps_d"])
    return out


# ---------------------------------------------------------------------------
# building from a normalised config

def _build_dataset(obj: dict, seed: int) -> Dataset:
    seed = seed if obj["seed"] is None else obj["seed"]
    gen = obj["generator"]
    if gen == "or":
        return datamod.gen_or(seed, reps=obj["reps"],
                              noise_sigma=obj["noise_sigma"])
    if gen == "gauss_class":
        return datamod.gen_gauss_classification(seed, n=obj["n"], d=obj["d"],
                                                sep=obj["sep"])
    if gen == "gauss_reg":
        w_true = obj["w_true"]
        return datamod.gen_gauss_regression(seed, n=obj["n"], d=len(w_true),
                                            w_true=w_true, noise=obj["noise"])
    if gen == "toy3":
        return datamod.toy_three_points()
    if gen == "mnist":
        keep = obj["keep_classes"]
        try:
            train_ds, test_ds = datamod.load_mnist(
                obj["dir"], set(keep) if keep is not None else None)
        except FileNotFoundError as exc:
            raise ConfigError(f"MNIST directory {obj['dir']!r}: no file"
                              f" {exc.filename!r}") from exc
        return test_ds if obj["split"] == "test" else train_ds
    return ser.dataset_from_obj(ser.read_json(obj["path"]))


def resolve_dataset(obj, seed: int) -> Dataset:
    """Check and build a dataset from a config object or a shorthand name
    or file path."""
    return _build_dataset(_dataset(obj, "dataset", "."), seed)


def resolve_model(obj: dict, ds: Dataset,
                  where: str = "model.family") -> ModelSpec:
    """Build the spec of a normalised model object for dataset `ds`;
    `where` names the family's key or flag."""
    if obj["input_dim"] not in (None, ds.dim):
        raise ConfigError(f"model.input_dim is {obj['input_dim']}, the"
                          f" dataset has {ds.dim} features")
    if obj["family"] != LEAST_SQUARES and ds.task != datamod.CLASSIFICATION:
        raise ConfigError(f"{where}: {obj['family']} needs a classification"
                          f" set, the dataset is a {ds.task} set")
    classes = obj["classes"]
    if classes is None:
        classes = ds.classes if ds.task == datamod.CLASSIFICATION else 2
    try:
        return ModelSpec(obj["family"], ds.dim, classes, obj["hidden"],
                         obj["leaky_slope"])
    except DomainError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _sized(values: np.ndarray, spec: ModelSpec, where: str) -> np.ndarray:
    """`values`, if it holds as many parameters as `spec` needs."""
    if values.size != spec.param_dim:
        raise ConfigError(f"{where}: {values.size} parameter values,"
                          f" {spec.family} needs {spec.param_dim}")
    return values


def _read_params(path: str, spec: ModelSpec, where: str) -> np.ndarray:
    return _sized(ser.params_from_obj(ser.read_json(path)), spec, where)


def _fits(ds: Dataset, clean: Dataset, where: str) -> Dataset:
    """`ds`, if it has the task and features of `clean`, the model's
    training set."""
    if (ds.task, ds.dim) != (clean.task, clean.dim):
        raise ConfigError(f"{where}: a {ds.task} set of {ds.dim} features,"
                          f" the model's is a {clean.task} set of {clean.dim}")
    return ds


def resolve_target(obj: dict, clean: Dataset, spec: ModelSpec,
                   train_opts: TrainOptions, seed: int,
                   where: str = "target", base=None) -> np.ndarray:
    """Parameters of a normalised target object. `base`, if given, stands
    for the model a corruption starts from (else trained on `clean`) or
    the parameters a scaled target scales."""
    source = obj["source"]
    if source in ("grad_ascent", "random"):
        if base is None:
            base = train(spec, clean, train_opts, seed)
        if source == "random":
            return random_corrupt(base, obj["eps_w"], seed=seed).params
        return grad_ascent_corrupt(clean, spec, base, obj["eps_w"],
                                   steps=obj["steps"], seed=seed).params
    if base is None and obj.get("path") is not None:
        base = _read_params(obj["path"], spec, f"{where}.path")
    elif base is None:
        base = _sized(np.asarray(obj["values"], dtype=np.float64), spec,
                      f"{where}.values")
    return scale_params(spec, base, obj["s"]) if source == "scaled" else base


def _run_named_attack(attack: dict, clean: Dataset, spec: ModelSpec, target,
                      eps_d: float, opts: AttackOptions):
    if attack["name"] == "gradient_canceling":
        return gradient_canceling(clean, spec, target, eps_d, opts)
    if attack["name"] == "gradient_matching":
        return gradient_matching(clean, spec, target, eps_d, opts)
    fw = attack["domain"]
    labels = tuple(fw["labels"])
    if fw["alpha_grid"] is not None:
        domain = LineDomain(alpha_grid=tuple(fw["alpha_grid"]), labels=labels)
    else:
        domain = GridDomain(axes=tuple(tuple(a) for a in fw["axes"]),
                            labels=labels)
    return frank_wolfe_attack(clean, spec, target, eps_d, domain,
                              t_iters=fw["iters"], step_rule=fw["step_rule"])


def run(cfg: dict, jobs: int = 1, base_dir: str = ".") -> dict:
    """Validate a config, run its pipeline and return the output paths."""
    cfg = validate_config(cfg, base_dir)
    seed = _env_seed(cfg["seed"])
    train_opts = TrainOptions(**cfg["train"])
    clean = _build_dataset(cfg["dataset"], seed)
    spec = resolve_model(cfg["model"], clean)
    pipe, out, eps_d = cfg["pipeline"], cfg["output"], cfg["eps_d"]
    gc_opts = AttackOptions(**{**cfg["attack"].get("options", {}),
                               "seed": derive_seed(seed, "attack")})
    if pipe != "sweep" and cfg["attack"]["name"] != "frank_wolfe":
        # replace mode counts the poison against the clean points it keeps
        kept = (_replace_keep(clean.n, eps_d) if gc_opts.replace_mode
                else clean.n)
        if round_half_up(kept * eps_d) < 1:
            raise ConfigError(f"eps_d: {eps_d} of {kept} clean points"
                              f"{' kept' if gc_opts.replace_mode else ''}"
                              " rounds to no poison point")
    test = None
    if "test_dataset" in cfg:
        test = _fits(_build_dataset(cfg["test_dataset"],
                                    derive_seed(seed, "test")),
                     clean, "test_dataset")
    targets = [resolve_target(t, clean, spec, train_opts,
                              derive_seed(seed, "target", i), f"targets[{i}]")
               for i, t in enumerate(cfg.get("targets", ()))]

    if pipe == "attack":
        target = resolve_target(cfg["target"], clean, spec, train_opts, seed)
        result = _run_named_attack(cfg["attack"], clean, spec, target, eps_d,
                                   gc_opts)
        if cfg["attack"]["name"] == "frank_wolfe":
            ser.write_json_atomic(out["atoms"], {
                "weights": result.weights[result.weights > 0].tolist(),
                "atoms_x": result.atom_x[result.weights > 0].tolist(),
                "atoms_y": result.atom_y[result.weights > 0].tolist(),
            })
            outputs = {"atoms": out["atoms"]}
            merits, norms = result.objective_trace, None
        else:
            ser.write_json_atomic(out["poison"], ser.dataset_to_obj(result.poison))
            outputs = {"poison": out["poison"]}
            merits, norms = result.merit_trace, result.grad_norm_trace
        if norms is None:  # a canceling merit is half the squared norm
            norms = np.sqrt(2.0 * merits) / (1.0 + eps_d)
        ser.write_text_atomic(out["trace"], ser.csv_lines(
            ("epoch", "merit", "grad_norm"),
            [{"epoch": i, "merit": float(m), "grad_norm": float(g)}
             for i, (m, g) in enumerate(zip(merits, norms))]))
        outputs["trace"] = out["trace"]
        return outputs

    if pipe == "sweep":
        with (ProcessPoolExecutor(max_workers=jobs) if jobs > 1
              else nullcontext()) as pool:
            rows = sweep_heatmap(clean, test, spec, targets, eps_d, gc_opts,
                                 base_seed=seed, train_opts=train_opts,
                                 map_cells=pool.map if pool else map)
        ser.write_text_atomic(out["csv"], ser.csv_lines(SWEEP_COLUMNS, rows))
        return {"csv": out["csv"]}

    if pipe == "select_target":
        # test_dataset serves as the validation set here, never as the
        # held-out test set
        candidates = [TargetCandidate(
            params, eps_w=math.nan if t["eps_w"] is None else t["eps_w"],
            provenance=t["source"] if t["source"] in
            ("grad_ascent", "random", "scaled") else "external")
            for params, t in zip(targets, cfg["targets"])]
        chosen = select_target(candidates, eps_d, clean, test, spec, gc_opts)
        obj = ser.params_to_obj(chosen.params, spec)
        obj["provenance"] = chosen.provenance
        obj["tau"] = chosen.tau
        obj["eps_w"] = chosen.eps_w
        ser.write_json_atomic(out["target"], obj)
        return {"target": out["target"]}

    # defend: attack, retrain with and without the defense, report both;
    # each training set trains once, the clean one also for a corruption
    base = (train(spec, clean, train_opts, seed) if cfg["target"]["source"]
            in ("grad_ascent", "random") else None)
    target = resolve_target(cfg["target"], clean, spec, train_opts, seed,
                            base=base)
    result = _run_named_attack(cfg["attack"], clean, spec, target, eps_d,
                               gc_opts)
    tau = tau_threshold(spec, target, clean).tau
    if result.kept_clean is not None:
        clean, base = result.kept_clean, None
    clean_params = train(spec, clean, train_opts, seed) if base is None else base
    mixed = concat(clean, result.poison)
    mixed_params = train(spec, mixed, train_opts, seed)
    undefended = eval_report(spec, mixed_params, clean_params, mixed, test,
                             target, seed, eps_d, tau)
    defense = cfg["defense"]
    report = {"undefended": asdict(undefended), "eps_d": eps_d, "tau": tau}
    if defense["name"] == "sever":
        filtered = sever_filter(mixed, spec, mixed_params, defense["fraction"],
                                rounds=defense["rounds"],
                                train_opts=train_opts,
                                seed=derive_seed(seed, "sever"))
        defended = eval_report(spec, train(spec, filtered, train_opts, seed),
                               clean_params, filtered, test, target, seed,
                               eps_d, tau)
        report["defended"] = asdict(defended)
    else:
        k = defense["k"]
        try:
            ensemble = dpa_train(mixed, spec, k, seed=derive_seed(seed, "dpa"),
                                 train_opts=train_opts)
        except EmptyPartitionError as exc:
            raise ConfigError(f"defense.k: {exc}") from exc
        # one vote over the whole test set, one certificate per row
        labels, certs = np.array([certificate_from_counts(counts) for counts
                                  in dpa_votes(ensemble, test.x)]).T
        correct = labels == test.y
        certified = correct & (certs >= result.poison.n)
        report["defended"] = {
            "dpa_accuracy": 100.0 * int(correct.sum()) / test.n,
            "certified_accuracy": 100.0 * int(certified.sum()) / test.n,
            "k": k,
        }
    ser.write_json_atomic(out["report"], report)
    return {"report": out["report"]}


# ---------------------------------------------------------------------------
# subcommands
#
# Each subcommand's flags form a table in the config schema's form, keyed by
# flag (_COMMANDS): build_parser makes the subparser from it and main checks
# the parsed flags against it once. A flag that fills a config key takes
# that key's entry.

def _write_or_print(obj, out_path: str | None):
    text = ser.dumps(obj)
    if out_path:
        ser.write_text_atomic(out_path, text)
    else:
        sys.stdout.write(text)


def cmd_gen_data(args) -> int:
    seed = _env_seed(args.seed)
    keys, table = _GEN_FLAGS[args.generator], _GENERATORS[args.generator]
    given = {"--" + k.replace("_", "-"): v for k, v in vars(args).items()
             if v is not None and k not in ("command", "generator", "out",
                                            "seed")}
    checked = _check_table({flag: table[key] for flag, key in keys.items()},
                           given, "", ".", f"--generator {args.generator}")
    obj = {"generator": args.generator, "seed": seed,
           **{keys[flag]: v for flag, v in checked.items()}}
    _check_reg_size(obj, "--n", "--w-true")
    ds = resolve_dataset(obj, seed)
    ser.write_json_atomic(args.out, ser.dataset_to_obj(ds))
    return EXIT_OK


_MODEL_ALIASES = {"ls": "least_squares", "logistic": "logistic_binary",
                  "softmax": "softmax_linear", "nn": "mlp1"}


def _load_model(args, ds: Dataset) -> ModelSpec:
    obj = {"family": _MODEL_ALIASES.get(args.model, args.model),
           "classes": args.classes, "hidden": args.hidden}
    return resolve_model(_check_table(_MODEL, obj, "model", "."), ds,
                         "--model")


def cmd_train(args) -> int:
    seed = _env_seed(args.seed)
    ds = _build_dataset(args.data, seed)
    spec = _load_model(args, ds)
    opts = TrainOptions(epochs=args.epochs, lr=args.lr)
    params = train(spec, ds, opts, seed)
    ser.write_json_atomic(args.out, ser.params_to_obj(params, spec))
    if ds.task == datamod.CLASSIFICATION and spec.is_classification:
        sys.stdout.write(f"train_accuracy={100 * accuracy(spec, params, ds):.2f}\n")
    grad_norm = float(np.linalg.norm(mean_param_grad(spec, params, ds)))
    sys.stdout.write(f"grad_norm={grad_norm!r}\n")
    return EXIT_OK


def cmd_threshold(args) -> int:
    seed = _env_seed(args.seed)
    ds = _build_dataset(args.data, seed)
    spec = _load_model(args, ds)
    target = _read_params(args.target, spec, "--target")
    rep = tau_threshold(spec, target, ds, c_convention=args.c_convention)
    _write_or_print(asdict(rep), args.out)
    return EXIT_OK


def cmd_make_target(args) -> int:
    seed = _env_seed(args.seed)
    ds = _build_dataset(args.data, seed)
    spec = _load_model(args, ds)
    source = args.mode.replace("-", "_")
    if args.params0 is None and source == "scaled":
        raise ConfigError("scaled mode needs --params0")
    base = (_read_params(args.params0, spec, "--params0") if args.params0
            else None)
    obj = {"source": source, "eps_w": args.eps_w, "steps": args.steps,
           "s": args.scale}
    out = ser.params_to_obj(
        resolve_target(obj, ds, spec, TrainOptions(), seed, base=base), spec)
    out["provenance"] = source
    ser.write_json_atomic(args.out, out)
    return EXIT_OK


def cmd_retrain(args) -> int:
    seed = _env_seed(args.seed)
    clean = _build_dataset(args.clean, seed)
    poison = (_fits(_build_dataset(args.poison, seed), clean, "--poison")
              if args.poison else None)
    test = _fits(_build_dataset(args.test, seed), clean, "--test")
    spec = _load_model(args, clean)
    target = _read_params(args.target, spec, "--target")
    eps_d = poison.n / clean.n if poison is not None else 0.0
    report = retrain_and_eval(clean, poison, test, spec, target, seed,
                              eps_d=eps_d)
    _write_or_print(asdict(report), args.out)
    return EXIT_OK


def _config_cmd(args) -> int:
    pipeline = args.command.replace("-", "_")
    cfg = ser.read_json(args.config)
    if isinstance(cfg, dict) \
            and cfg.setdefault("pipeline", pipeline) != pipeline:
        raise ConfigError(f"config pipeline {cfg['pipeline']!r} does not"
                          f" match subcommand {pipeline!r}")
    outputs = run(cfg, jobs=getattr(args, "jobs", 1),
                  base_dir=os.path.dirname(os.path.abspath(args.config)))
    for key, path in outputs.items():
        sys.stdout.write(f"{key}: {path}\n")
    return EXIT_OK


_DATA = (_dataset, _REQUIRED)
_MODEL_FLAGS = {"--model": ((*FAMILIES, *_MODEL_ALIASES), _REQUIRED),
                "--classes": _MODEL["classes"], "--hidden": _MODEL["hidden"]}
_SEED_FLAG = {"--seed": (int, 0)}
# gen-data's flag for each key of a generator's table; cmd_gen_data checks
# the flags given against the chosen generator's table, so another's exits 2
_GEN_FLAGS = {gen: {"--noise" if key == "noise_sigma"
                    else "--" + key.replace("_", "-"): key
                    for key in _GENERATORS[gen] if key != "seed"}
              for gen in ("or", "gauss_class", "gauss_reg", "toy3")}
_CONFIG = {"--config": (str, _REQUIRED)}
# subcommand: (function, help, flag table)
_COMMANDS = {
    "gen-data": (cmd_gen_data, "write a synthetic dataset as JSON", {
        "--generator": (tuple(_GEN_FLAGS), _REQUIRED),
        "--out": (str, _REQUIRED), **_SEED_FLAG,
        **{flag: (_GENERATORS[gen][key][0], None)
           for gen, keys in _GEN_FLAGS.items() for flag, key in keys.items()}}),
    "train": (cmd_train, "train a model on a dataset", {
        "--data": _DATA, **_MODEL_FLAGS, "--out": (str, _REQUIRED),
        "--epochs": (int, TrainOptions.epochs, ">= 1"),
        "--lr": (float, TrainOptions.lr, "> 0"), **_SEED_FLAG}),
    "threshold": (cmd_threshold, "reachability report for a target", {
        "--data": _DATA, **_MODEL_FLAGS, "--target": (_PATH, _REQUIRED),
        "--c-convention": (int, None, ">= 2"), "--out": (str, None),
        **_SEED_FLAG}),
    "make-target": (cmd_make_target, "corrupt or scale parameters", {
        "--data": _DATA, **_MODEL_FLAGS,
        "--mode": (("grad-ascent", "random", "scaled"), _REQUIRED),
        "--eps-w": (float, 0.5, ">= 0"), "--steps": _STEPS,
        "--scale": (float, 1.0, "> 0"), "--params0": (_PATH, None),
        "--out": (str, _REQUIRED), **_SEED_FLAG}),
    "retrain": (cmd_retrain, "retrain on clean + poison and report", {
        "--clean": _DATA, "--poison": (_dataset, None), "--test": _DATA,
        **_MODEL_FLAGS, "--target": (_PATH, _REQUIRED), "--out": (str, None),
        **_SEED_FLAG}),
    "attack": (_config_cmd, "run the attack pipeline", _CONFIG),
    "sweep": (_config_cmd, "run the sweep pipeline", {
        **_CONFIG, "--jobs": (int, os.cpu_count() or 1, ">= 1")}),
    "defend": (_config_cmd, "run the defend pipeline", _CONFIG),
    "select-target": (_config_cmd, "run the select_target pipeline", _CONFIG),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per table in _COMMANDS; a flag left out is absent
    from the parsed namespace."""
    p = argparse.ArgumentParser(prog="poisonlab")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, text, table) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text,
                            argument_default=argparse.SUPPRESS)
        for flag, (kind, default, *_) in table.items():
            sp.add_argument(flag, required=default is _REQUIRED, **(
                {"choices": kind} if isinstance(kind, tuple) else
                {"nargs": "*", "type": kind[0]} if isinstance(kind, list) else
                {"type": kind} if kind in (int, float) else {}))
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func, _, table = _COMMANDS[args.command]
    try:
        # argparse stores --eps-w as eps_w
        given = {"--" + k.replace("_", "-"): v for k, v in vars(args).items()
                 if k != "command"}
        for flag, value in _check_table(table, given, "", ".").items():
            setattr(args, flag[2:].replace("-", "_"), value)
        return func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except IdxFormatError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return EXIT_DATA
    except AttackDivergence as exc:
        sys.stderr.write(f"attack diverged: {exc}\n")
        return EXIT_DIVERGENCE
    except PoisonLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
