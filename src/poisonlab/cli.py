"""Command-line entry point: config ingestion, pipelines, serialization.

Subcommands: gen-data, train, threshold, make-target, select-target,
attack, retrain, sweep, defend. JSON in, JSON/CSV out; all writes are
atomic (temp file + rename). The environment variable POISONLAB_SEED
overrides every config or flag seed. Exit codes: 0 success, 2 config
error, 3 data error, 4 attack divergence, 1 anything else.
"""

from __future__ import annotations

import argparse
import difflib
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, fields, replace

import numpy as np

from . import data as datamod
from . import serialize as ser
from .attack import (AttackOptions, GridDomain, LineDomain, frank_wolfe_attack,
                     gradient_canceling, gradient_matching)
from .data import Dataset, concat
from .defense import dpa_predict, dpa_train, sever_filter
from .errors import (AttackDivergence, ConfigError, IdxFormatError,
                     PoisonLabError)
from .harness import (SWEEP_COLUMNS, TrainOptions, retrain_and_eval,
                      sweep_heatmap, train)
from .mathcore import derive_seed
from .models import ModelSpec, accuracy
from .reachability import ratio_to_lambda, tau_threshold
from .targetgen import (TargetCandidate, grad_ascent_corrupt, random_corrupt,
                        scale_params, select_target)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4

_GENERATORS = ("or", "gauss_class", "gauss_reg", "toy3", "mnist", "file")
_ATTACKS = ("gradient_canceling", "gradient_matching", "frank_wolfe")
_DEFENSES = ("sever", "dpa")
_TARGET_SOURCES = ("inline", "file", "grad_ascent", "random", "scaled")
_PIPELINES = ("attack", "sweep", "defend", "select_target")


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


def _options_from(obj: dict, cls):
    allowed = {f.name for f in fields(cls)}
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}"
                          f" (allowed: {sorted(allowed)})")
    try:
        return cls(**obj)
    except (TypeError, PoisonLabError) as exc:
        raise ConfigError(f"bad {cls.__name__}: {exc}") from exc


def resolve_dataset(obj, seed: int) -> Dataset:
    """Build a dataset from a config object or a shorthand name."""
    if isinstance(obj, str):
        shorthand = {"or": {"generator": "or"},
                     "gauss10": {"generator": "gauss_class"},
                     "toy3": {"generator": "toy3"}}
        if obj in shorthand:
            obj = shorthand[obj]
        elif os.path.exists(obj):
            obj = {"generator": "file", "path": obj}
        else:
            raise ConfigError(_suggest(obj, tuple(shorthand) + ("<path>",)))
    if "path" in obj and "generator" not in obj:
        obj = {**obj, "generator": "file"}
    gen = obj.get("generator")
    if gen not in _GENERATORS:
        raise ConfigError(_suggest(str(gen), _GENERATORS))
    seed = int(obj.get("seed", seed))
    if gen == "or":
        return datamod.gen_or(seed, reps=int(obj.get("reps", 50)),
                              noise_sigma=float(obj.get("noise_sigma", 0.05)))
    if gen == "gauss_class":
        return datamod.gen_gauss_classification(
            seed, n=int(obj.get("n", 1000)), d=int(obj.get("d", 10)),
            sep=float(obj.get("sep", 2.0)))
    if gen == "gauss_reg":
        w_true = obj.get("w_true")
        if w_true is None:
            raise ConfigError("gauss_reg needs w_true")
        return datamod.gen_gauss_regression(
            seed, n=int(obj.get("n", 500)), d=len(w_true),
            w_true=np.asarray(w_true, dtype=np.float64),
            noise=float(obj.get("noise", 0.0)))
    if gen == "toy3":
        return datamod.toy_three_points()
    if gen == "mnist":
        keep = obj.get("keep_classes")
        train_ds, test_ds = datamod.load_mnist(
            obj["dir"], set(keep) if keep is not None else None)
        return test_ds if obj.get("split") == "test" else train_ds
    path = obj.get("path")
    if not path or not os.path.exists(path):
        raise ConfigError(f"dataset file not found: {path!r}")
    return ser.dataset_from_obj(ser.read_json(path))


def resolve_model(obj: dict, ds: Dataset) -> ModelSpec:
    obj = dict(obj)
    obj.setdefault("input_dim", ds.dim)
    if ds.task == datamod.CLASSIFICATION:
        obj.setdefault("classes", ds.classes)
    return ser.spec_from_obj(obj)


def resolve_target(obj: dict, clean: Dataset, spec: ModelSpec,
                   train_opts: TrainOptions, seed: int) -> np.ndarray:
    source = obj.get("source")
    if source not in _TARGET_SOURCES:
        raise ConfigError(_suggest(str(source), _TARGET_SOURCES))
    if source == "inline":
        return np.asarray(obj["values"], dtype=np.float64).ravel()
    if source == "file":
        path = obj.get("path")
        if not path or not os.path.exists(path):
            raise ConfigError(f"target file not found: {path!r}")
        return ser.params_from_obj(ser.read_json(path))
    if source == "scaled":
        if "path" in obj:
            base = ser.params_from_obj(ser.read_json(obj["path"]))
        else:
            base = np.asarray(obj["values"], dtype=np.float64).ravel()
        return scale_params(spec, base, float(obj["s"]))
    base = train(spec, clean, train_opts, seed)
    if source == "grad_ascent":
        cand = grad_ascent_corrupt(clean, spec, base, float(obj["eps_w"]),
                                   steps=int(obj.get("steps", 20)), seed=seed)
    else:
        cand = random_corrupt(base, float(obj["eps_w"]), seed=seed)
    return cand.params


def _run_named_attack(name: str, clean: Dataset, spec: ModelSpec, target,
                      eps_d: float, opts: AttackOptions, fw_obj: dict | None):
    if name == "gradient_canceling":
        return gradient_canceling(clean, spec, target, eps_d, opts)
    if name == "gradient_matching":
        return gradient_matching(clean, spec, target, eps_d, opts)
    if name == "frank_wolfe":
        fw_obj = fw_obj or {}
        if "alpha_grid" in fw_obj:
            domain = LineDomain(alpha_grid=tuple(fw_obj["alpha_grid"]),
                                labels=tuple(fw_obj.get("labels", [0, 1])))
        else:
            domain = GridDomain(axes=tuple(tuple(a) for a in fw_obj["axes"]),
                                labels=tuple(fw_obj.get("labels", [0, 1])))
        return frank_wolfe_attack(clean, spec, target, eps_d, domain,
                                  t_iters=int(fw_obj.get("iters", 500)),
                                  step_rule=fw_obj.get("step_rule", "open_loop"))
    raise ConfigError(_suggest(name, _ATTACKS))


def validate_config(cfg: dict, base_dir: str = ".") -> dict:
    """Schema and existence checks; returns the config with defaults filled."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    pipe = cfg.get("pipeline")
    if pipe not in _PIPELINES:
        raise ConfigError(_suggest(str(pipe), _PIPELINES))
    if "dataset" not in cfg:
        raise ConfigError("config needs a dataset")
    if "model" not in cfg:
        raise ConfigError("config needs a model")
    attack_obj = cfg.get("attack", {"name": "gradient_canceling"})
    if attack_obj.get("name", "gradient_canceling") not in _ATTACKS:
        raise ConfigError(_suggest(str(attack_obj.get("name")), _ATTACKS))
    if "defense" in cfg and cfg["defense"].get("name") not in _DEFENSES:
        raise ConfigError(_suggest(str(cfg["defense"].get("name")), _DEFENSES))
    eps = cfg.get("eps_d", 1.0)
    eps_list = eps if isinstance(eps, list) else [eps]
    if not eps_list or any(float(e) <= 0 for e in eps_list):
        raise ConfigError("eps_d entries must be positive")
    for key in ("dataset", "test_dataset"):
        obj = cfg.get(key)
        if isinstance(obj, dict) and obj.get("generator", "file") == "file" \
                and "path" in obj:
            path = os.path.join(base_dir, obj["path"])
            if not os.path.exists(path):
                raise ConfigError(f"{key} file not found: {obj['path']!r}")
            obj["path"] = path
    if pipe in ("sweep", "select_target") and not cfg.get("targets"):
        raise ConfigError(f"{pipe} needs a nonempty targets list")
    targets = cfg.get("targets", [cfg["target"]] if "target" in cfg else [])
    for t in targets:
        if t.get("source") not in _TARGET_SOURCES:
            raise ConfigError(_suggest(str(t.get("source")), _TARGET_SOURCES))
        if t.get("source") == "file":
            path = os.path.join(base_dir, t["path"])
            if not os.path.exists(path):
                raise ConfigError(f"target file not found: {t['path']!r}")
            t["path"] = path
    cfg.setdefault("seed", 0)
    cfg.setdefault("output", {})
    return cfg


def _prepare(cfg: dict):
    seed = _env_seed(int(cfg.get("seed", 0)))
    train_opts = _options_from(cfg.get("train", {}), TrainOptions)
    clean = resolve_dataset(cfg["dataset"], seed)
    spec = resolve_model(cfg["model"], clean)
    test = None
    if "test_dataset" in cfg:
        test = resolve_dataset(cfg["test_dataset"], derive_seed(seed, "test"))
    attack_obj = dict(cfg.get("attack", {}))
    name = attack_obj.pop("name", "gradient_canceling")
    fw_obj = attack_obj.pop("domain", None)
    gc_opts = _options_from(attack_obj.get("options", {}), AttackOptions)
    gc_opts = replace(gc_opts, seed=derive_seed(seed, "attack"))
    return seed, train_opts, clean, spec, test, name, gc_opts, fw_obj


def _out_path(cfg: dict, key: str, default: str) -> str:
    out = cfg.get("output", {})
    if key in out:
        return out[key]
    return os.path.join(out.get("dir", "."), default)


def run(cfg: dict, jobs: int = 1, base_dir: str = ".") -> dict:
    """Dispatch a validated config to its pipeline; returns output paths."""
    cfg = validate_config(cfg, base_dir)
    seed, train_opts, clean, spec, test, name, gc_opts, fw_obj = _prepare(cfg)
    pipe = cfg["pipeline"]
    outputs = {}

    if pipe == "attack":
        target = resolve_target(cfg["target"], clean, spec, train_opts, seed)
        eps_d = float(cfg["eps_d"])
        result = _run_named_attack(name, clean, spec, target, eps_d,
                                   gc_opts, fw_obj)
        if name == "frank_wolfe":
            atoms_path = _out_path(cfg, "atoms", "fw_atoms.json")
            ser.write_json_atomic(atoms_path, {
                "weights": result.weights[result.weights > 0].tolist(),
                "atoms_x": result.atom_x[result.weights > 0].tolist(),
                "atoms_y": result.atom_y[result.weights > 0].tolist(),
            })
            outputs["atoms"] = atoms_path
            trace_rows = [{"epoch": i, "merit": float(m),
                           "grad_norm": float(np.sqrt(2 * m)) / (1 + eps_d)}
                          for i, m in enumerate(result.objective_trace)]
        else:
            poison_path = _out_path(cfg, "poison", "poison.json")
            ser.write_json_atomic(poison_path, ser.dataset_to_obj(result.poison))
            outputs["poison"] = poison_path
            norms = result.grad_norm_trace
            trace_rows = [{"epoch": i, "merit": float(m),
                           "grad_norm": float(norms[i])}
                          for i, m in enumerate(result.merit_trace)]
        trace_path = _out_path(cfg, "trace", "trace.csv")
        ser.write_text_atomic(trace_path, ser.csv_lines(
            ("epoch", "merit", "grad_norm"), trace_rows))
        outputs["trace"] = trace_path
        return outputs

    if pipe == "sweep":
        if test is None:
            raise ConfigError("sweep needs a test_dataset")
        targets = [resolve_target(t, clean, spec, train_opts,
                                  derive_seed(seed, "target", i))
                   for i, t in enumerate(cfg["targets"])]
        eps = cfg["eps_d"]
        eps_list = [float(e) for e in (eps if isinstance(eps, list) else [eps])]
        with (ProcessPoolExecutor(max_workers=jobs) if jobs > 1
              else nullcontext()) as pool:
            rows = sweep_heatmap(clean, test, spec, targets, eps_list, gc_opts,
                                 base_seed=seed, train_opts=train_opts,
                                 map_cells=pool.map if pool else map)
        csv_path = _out_path(cfg, "csv", "sweep.csv")
        ser.write_text_atomic(csv_path, ser.csv_lines(SWEEP_COLUMNS, rows))
        outputs["csv"] = csv_path
        return outputs

    if pipe == "select_target":
        if test is None:
            raise ConfigError("select_target needs a test_dataset as validation"
                              " (never the held-out test set)")
        candidates = []
        for i, t in enumerate(cfg["targets"]):
            params = resolve_target(t, clean, spec, train_opts,
                                    derive_seed(seed, "target", i))
            candidates.append(TargetCandidate(
                params, eps_w=float(t.get("eps_w", float("nan"))),
                provenance=t["source"] if t["source"] in
                ("grad_ascent", "random", "scaled") else "external"))
        chosen = select_target(candidates, float(cfg["eps_d"]), clean, test,
                               spec, gc_opts)
        out_path = _out_path(cfg, "target", "target.json")
        obj = ser.params_to_obj(chosen.params, spec)
        obj["provenance"] = chosen.provenance
        obj["tau"] = chosen.tau
        obj["eps_w"] = chosen.eps_w
        ser.write_json_atomic(out_path, obj)
        outputs["target"] = out_path
        return outputs

    # defend: attack, retrain with and without the defense, report both
    if test is None:
        raise ConfigError("defend needs a test_dataset")
    target = resolve_target(cfg["target"], clean, spec, train_opts, seed)
    eps_d = float(cfg["eps_d"])
    result = _run_named_attack(name, clean, spec, target, eps_d, gc_opts, None)
    rep = tau_threshold(spec, target, clean) if spec.is_classification else None
    tau = rep.tau if rep else 0.0
    base_clean = result.kept_clean if result.kept_clean is not None else clean
    undefended = retrain_and_eval(base_clean, result.poison, test, spec, target,
                                  seed, train_opts, eps_d=eps_d, tau=tau)
    defense = cfg["defense"]
    mixed = concat(base_clean, result.poison)
    report = {"undefended": asdict(undefended), "eps_d": eps_d, "tau": tau}
    if defense["name"] == "sever":
        lam = ratio_to_lambda(eps_d)
        fraction = float(defense.get("fraction", lam))
        mixed_params = train(spec, mixed, train_opts, seed)
        filtered = sever_filter(mixed, spec, mixed_params, fraction,
                                rounds=int(defense.get("rounds", 2)),
                                train_opts=train_opts,
                                seed=derive_seed(seed, "sever"))
        defended = retrain_and_eval(filtered, None, test, spec, target, seed,
                                    train_opts, eps_d=eps_d, tau=tau)
        report["defended"] = asdict(defended)
    else:
        k = int(defense["k"])
        ensemble = dpa_train(mixed, spec, k, seed=derive_seed(seed, "dpa"),
                             train_opts=train_opts)
        correct = certified = 0
        budget = result.poison.n
        for i in range(test.n):
            label, cert = dpa_predict(ensemble, test.x[i])
            correct += int(label == int(test.y[i]))
            certified += int(cert >= budget and label == int(test.y[i]))
        report["defended"] = {
            "dpa_accuracy": 100.0 * correct / test.n,
            "certified_accuracy": 100.0 * certified / test.n,
            "k": k,
        }
    out_path = _out_path(cfg, "report", "defense.json")
    ser.write_json_atomic(out_path, report)
    outputs["report"] = out_path
    return outputs


# ---------------------------------------------------------------------------
# flag-style subcommands

def _write_or_print(obj, out_path: str | None):
    text = ser.dumps(obj)
    if out_path:
        ser.write_text_atomic(out_path, text)
    else:
        sys.stdout.write(text)


def cmd_gen_data(args) -> int:
    seed = _env_seed(args.seed)
    obj = {"generator": args.generator, "seed": seed}
    if args.generator == "or":
        obj.update(reps=args.reps, noise_sigma=args.noise)
    elif args.generator == "gauss_class":
        obj.update(n=args.n, d=args.d, sep=args.sep)
    elif args.generator == "gauss_reg":
        if not args.w_true:
            raise ConfigError("gauss_reg needs --w-true")
        obj.update(n=args.n, w_true=[float(v) for v in args.w_true],
                   noise=args.noise)
    ds = resolve_dataset(obj, seed)
    ser.write_json_atomic(args.out, ser.dataset_to_obj(ds))
    return EXIT_OK


_MODEL_ALIASES = {"logistic": "logistic_binary", "ls": "least_squares",
                  "softmax": "softmax_linear", "nn": "mlp1"}


def _load_model(args, ds: Dataset) -> ModelSpec:
    obj = {"family": _MODEL_ALIASES.get(args.model, args.model)}
    if args.classes:
        obj["classes"] = args.classes
    if args.hidden:
        obj["hidden"] = args.hidden
    return resolve_model(obj, ds)


def cmd_train(args) -> int:
    seed = _env_seed(args.seed)
    ds = resolve_dataset(args.data, seed)
    spec = _load_model(args, ds)
    opts = TrainOptions(epochs=args.epochs, lr=args.lr)
    params = train(spec, ds, opts, seed)
    ser.write_json_atomic(args.out, ser.params_to_obj(params, spec))
    if ds.task == datamod.CLASSIFICATION:
        sys.stdout.write(f"train_accuracy={100 * accuracy(spec, params, ds):.2f}\n")
    return EXIT_OK


def cmd_threshold(args) -> int:
    seed = _env_seed(args.seed)
    ds = resolve_dataset(args.data, seed)
    spec = _load_model(args, ds)
    target = ser.params_from_obj(ser.read_json(args.target))
    rep = tau_threshold(spec, target, ds, c_convention=args.c_convention)
    _write_or_print(asdict(rep), args.out)
    return EXIT_OK


def cmd_make_target(args) -> int:
    seed = _env_seed(args.seed)
    ds = resolve_dataset(args.data, seed)
    spec = _load_model(args, ds)
    obj = {"source": args.mode.replace("-", "_")}
    if args.mode in ("grad-ascent", "random"):
        obj["eps_w"] = args.eps_w
        obj["steps"] = args.steps
    else:
        if not args.params0:
            raise ConfigError("scaled mode needs --params0")
        obj["path"] = args.params0
        obj["s"] = args.scale
    if args.params0 and args.mode != "scaled":
        base = ser.params_from_obj(ser.read_json(args.params0))
        if args.mode == "grad-ascent":
            cand = grad_ascent_corrupt(ds, spec, base, args.eps_w,
                                       steps=args.steps, seed=seed)
        else:
            cand = random_corrupt(base, args.eps_w, seed=seed)
        params = cand.params
    else:
        params = resolve_target(obj, ds, spec, TrainOptions(), seed)
    out = ser.params_to_obj(params, spec)
    out["provenance"] = obj["source"]
    ser.write_json_atomic(args.out, out)
    return EXIT_OK


def cmd_retrain(args) -> int:
    seed = _env_seed(args.seed)
    clean = resolve_dataset(args.clean, seed)
    poison = resolve_dataset(args.poison, seed) if args.poison else None
    test = resolve_dataset(args.test, seed)
    spec = _load_model(args, clean)
    target = ser.params_from_obj(ser.read_json(args.target))
    eps_d = poison.n / clean.n if poison is not None else 0.0
    report = retrain_and_eval(clean, poison, test, spec, target, seed,
                              eps_d=eps_d)
    _write_or_print(asdict(report), args.out)
    return EXIT_OK


def _config_cmd(args, pipeline: str) -> int:
    cfg = ser.read_json(args.config)
    if cfg.get("pipeline", pipeline) != pipeline:
        raise ConfigError(f"config pipeline {cfg.get('pipeline')!r} does not"
                          f" match subcommand {pipeline!r}")
    cfg["pipeline"] = pipeline
    outputs = run(cfg, jobs=getattr(args, "jobs", 1),
                  base_dir=os.path.dirname(os.path.abspath(args.config)))
    for key, path in outputs.items():
        sys.stdout.write(f"{key}: {path}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="poisonlab")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("gen-data", help="write a synthetic dataset as JSON")
    sp.add_argument("--generator", required=True,
                    choices=["or", "gauss_class", "gauss_reg", "toy3"])
    sp.add_argument("--out", required=True)
    sp.add_argument("--reps", type=int, default=50)
    sp.add_argument("--noise", type=float, default=0.05)
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--d", type=int, default=10)
    sp.add_argument("--sep", type=float, default=2.0)
    sp.add_argument("--w-true", nargs="*", default=None)
    add_common(sp)
    sp.set_defaults(func=cmd_gen_data)

    def add_model_flags(sp):
        sp.add_argument("--model", required=True,
                        choices=["least_squares", "logistic_binary",
                                 "softmax_linear", "mlp1",
                                 "ls", "logistic", "softmax", "nn"])
        sp.add_argument("--classes", type=int, default=0)
        sp.add_argument("--hidden", type=int, default=0)

    sp = sub.add_parser("train", help="train a model on a dataset")
    sp.add_argument("--data", required=True)
    add_model_flags(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--epochs", type=int, default=1000)
    sp.add_argument("--lr", type=float, default=0.5)
    add_common(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("threshold", help="reachability report for a target")
    sp.add_argument("--data", required=True)
    add_model_flags(sp)
    sp.add_argument("--target", required=True)
    sp.add_argument("--c-convention", type=int, default=None)
    sp.add_argument("--out", default=None)
    add_common(sp)
    sp.set_defaults(func=cmd_threshold)

    sp = sub.add_parser("make-target", help="corrupt or scale parameters")
    sp.add_argument("--data", required=True)
    add_model_flags(sp)
    sp.add_argument("--mode", required=True,
                    choices=["grad-ascent", "random", "scaled"])
    sp.add_argument("--eps-w", type=float, default=0.5)
    sp.add_argument("--steps", type=int, default=20)
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--params0", default=None)
    sp.add_argument("--out", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_make_target)

    sp = sub.add_parser("retrain", help="retrain on clean + poison and report")
    sp.add_argument("--clean", required=True)
    sp.add_argument("--poison", default=None)
    sp.add_argument("--test", required=True)
    add_model_flags(sp)
    sp.add_argument("--target", required=True)
    sp.add_argument("--out", default=None)
    add_common(sp)
    sp.set_defaults(func=cmd_retrain)

    for names, pipeline in (("attack", "attack"), ("sweep", "sweep"),
                            ("defend", "defend"),
                            ("select-target", "select_target")):
        sp = sub.add_parser(names, help=f"run the {pipeline} pipeline")
        sp.add_argument("--config", required=True)
        if pipeline == "sweep":
            sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
        sp.set_defaults(func=lambda a, _p=pipeline: _config_cmd(a, _p))
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
