"""Span tracer for the benchmark's traced run.

The tracer wraps module attributes of poisonlab, plus
``scipy.optimize.minimize`` as the boundary of the attack's polish, with
timing wrappers. It never edits the library's source: every wrapper is
installed by attribute assignment and removed again by ``uninstall``.
Spans (name, start, end, parent, cell id) stay in memory until
``write`` saves them at exit. Nothing here runs with ``--trace 0``.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
from dataclasses import dataclass

# (span name, module, attribute); the span name's first part is the layer
TRACED = (
    ("cli.run", "poisonlab.cli", "run"),
    ("harness.train", "poisonlab.harness", "train"),
    ("harness.retrain_and_eval", "poisonlab.harness", "retrain_and_eval"),
    ("harness.sweep_cell", "poisonlab.harness", "sweep_cell"),
    ("attack.gradient_canceling", "poisonlab.attack", "gradient_canceling"),
    ("models.grads_batch", "poisonlab.models", "grads_batch"),
    ("models.mean_param_grad", "poisonlab.models", "mean_param_grad"),
    ("models.mixed_vjp_batch", "poisonlab.models", "mixed_vjp_batch"),
    ("models.losses_batch", "poisonlab.models", "losses_batch"),
    ("models.predict_batch", "poisonlab.models", "predict_batch"),
    ("reachability.tau_threshold", "poisonlab.reachability", "tau_threshold"),
    ("reachability.membership_check", "poisonlab.reachability",
     "membership_check"),
    ("reachability.nn_necessary_tau", "poisonlab.reachability",
     "nn_necessary_tau"),
    ("defense.dpa_train", "poisonlab.defense", "dpa_train"),
    ("defense.sever_filter", "poisonlab.defense", "sever_filter"),
    ("defense.dpa_predict", "poisonlab.defense", "dpa_predict"),
    ("mathcore.top_singular_vector", "poisonlab.mathcore",
     "top_singular_vector"),
    ("targetgen.grad_ascent_corrupt", "poisonlab.targetgen",
     "grad_ascent_corrupt"),
)
LAYERS = ("cli", "harness", "attack", "models", "reachability", "defense",
          "targetgen", "mathcore")
KERNELS = ("grads_batch", "mean_param_grad", "mixed_vjp_batch",
           "losses_batch", "predict_batch")
POLISH = "attack.polish"


@dataclass
class Span:
    name: str
    start: float
    parent: int
    cell: str
    end: float = math.nan
    info: dict | None = None


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) == 1 else int(shape[0])


def kernel_counts(kernel: str, spec, n: int) -> dict:
    """Computed (not measured) work of one models call on n rows.

    flops counts the multiply-adds of the dense products at 2 flops
    each; bytes counts the float64 inputs read and outputs written.
    """
    d, c, p = spec.input_dim, spec.classes, spec.param_dim
    if spec.family in ("least_squares", "logistic_binary"):
        fwd, back, mixed = 2 * n * d, 2 * n * d, 4 * n * d
    elif spec.family == "softmax_linear":
        fwd, back, mixed = 2 * n * d * c, 2 * n * d * c, 6 * n * d * c
    else:
        m = spec.hidden
        fwd = 2 * n * d * m + 2 * n * m * c
        back = 4 * n * m * c + 2 * n * m * d
        mixed = 3 * fwd + 4 * n * m * c + 6 * n * m * d
    out = {"grads_batch": n * p, "mean_param_grad": p,
           "mixed_vjp_batch": n * d, "losses_batch": n,
           "predict_batch": n}[kernel]
    flops = {"grads_batch": fwd + n * p, "mean_param_grad": fwd + back,
             "mixed_vjp_batch": fwd + mixed, "losses_batch": fwd,
             "predict_batch": fwd}[kernel]
    return {"rows": n, "param_dim": p, "flops": flops,
            "bytes": 8 * (n * d + n + p + out)}


def _models_info(kernel):
    def info(args, out):
        # every kernel takes (spec, params, x or dataset, ...)
        data = args[2]
        n = data.n if kernel == "mean_param_grad" else _rows(data)
        return kernel_counts(kernel, args[0], n)
    return info


def _attack_info(args, out):
    # gradient_canceling(clean, spec, target, eps_d, opts=None)
    opts = args[4] if len(args) > 4 else None
    return {"final_merit": float(out.final_merit),
            "optimize_labels": bool(opts is not None and opts.optimize_labels)}


def _cell_of_sweep(args):
    # sweep_cell(clean, test, spec, target, target_id, eps_d, ...)
    return f"t{args[4]}-e{float(args[5])!r}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.current_cell = ""
        self.payload_bytes = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent,
                               self.current_cell))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def cell(self, name: str):
        """Label the spans opened inside the block with cell id `name`."""
        prev, self.current_cell = self.current_cell, name
        try:
            yield
        finally:
            self.current_cell = prev

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, name, fn, info_fn=None, cell_fn=None):
        """Span around fn; info_fn(args, result) fills the span's counts
        after its end time is taken. The library passes these functions'
        arguments positionally, so info_fn and cell_fn read args only."""
        tracer = self

        def wrapper(*args, **kwargs):
            prev = tracer.current_cell
            if cell_fn is not None:
                tracer.current_cell = cell_fn(args)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.current_cell = prev
            if info_fn is not None:
                tracer.spans[idx].info = info_fn(args, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_minimize(self, fn):
        tracer = self

        def minimize(fun, x0, *args, **kwargs):
            rec = {"start": math.nan, "objective_s": 0.0}

            def objective(x, *a):
                t0 = time.perf_counter()
                out = fun(x, *a)
                rec["objective_s"] += time.perf_counter() - t0
                if math.isnan(rec["start"]):
                    rec["start"] = float(out[0] if isinstance(out, tuple)
                                         else out)
                return out

            idx = tracer.open(POLISH)
            try:
                res = fn(objective, x0, *args, **kwargs)
            finally:
                tracer.close(idx)
            rec.update(fun=float(res.fun), nit=int(res.nit),
                       nfev=int(res.nfev))
            tracer.spans[idx].info = rec
            return res
        minimize.__wrapped__ = fn
        return minimize

    def _replace_everywhere(self, original, wrapper):
        # the package re-exports names with `from .x import y`, so every
        # poisonlab namespace holding the original gets the wrapper
        for modname, mod in list(sys.modules.items()):
            if modname != "poisonlab" and not modname.startswith("poisonlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        import scipy.optimize

        for name, modname, attr in TRACED:
            original = getattr(sys.modules[modname], attr)
            kernel = name.split(".", 1)[1]
            info_fn = _models_info(kernel) if kernel in KERNELS else \
                _attack_info if name == "attack.gradient_canceling" else None
            cell_fn = _cell_of_sweep if name == "harness.sweep_cell" else None
            self._replace_everywhere(
                original, self._wrap(name, original, info_fn, cell_fn))
        original = scipy.optimize.minimize
        self._undo.append((scipy.optimize, "minimize", original))
        scipy.optimize.minimize = self._wrap_minimize(original)

    def uninstall(self):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def count_pool_payloads(self, cli_module):
        """Swap the CLI's process pool for one that also pickles each
        payload once to count the bytes the pool ships (computed)."""
        import pickle

        base = cli_module.ProcessPoolExecutor
        tracer = self

        class CountingPool(base):
            def map(self, fn, *iterables, **kwargs):
                items = [list(it) for it in iterables]
                for args in zip(*items):
                    tracer.payload_bytes += len(pickle.dumps(
                        args[0] if len(args) == 1 else args))
                return super().map(fn, *items, **kwargs)

        self._undo.append((cli_module, "ProcessPoolExecutor", base))
        cli_module.ProcessPoolExecutor = CountingPool

    # -- output -----------------------------------------------------------
    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tname\tstart\tend\tparent\tcell\tinfo\n")
            t0 = self.spans[0].start if self.spans else 0.0
            for i, s in enumerate(self.spans):
                info = "" if not s.info else ";".join(
                    f"{k}={v}" for k, v in s.info.items())
                f.write(f"{i}\t{s.name}\t{s.start - t0:.9f}\t"
                        f"{s.end - t0:.9f}\t{s.parent}\t{s.cell}\t{info}\n")


def _p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(spans: list[Span], units: int) -> dict:
    """Per-layer numbers from the spans of `units` traced repetitions.

    Times, calls and computed counts are totals per repetition; nit,
    nfev, accept_frac and the digit counts are means per polish or per
    attack call.
    """
    per = 1.0 / max(units, 1)
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += dur[i]
    out = {}

    def total(name):
        return sum(d for s, d in zip(spans, dur) if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    for k in KERNELS:
        name = f"models.{k}"
        n_calls = calls(name)
        secs = total(name)
        info = [s.info for s in spans if s.name == name]
        out[f"{name}.calls"] = n_calls * per
        out[f"{name}.s"] = secs * per
        out[f"{name}.us_per_call"] = 1e6 * secs / n_calls if n_calls else 0.0
        for key, metric in (("rows", "rows"), ("flops", "flops_computed"),
                            ("bytes", "bytes_computed")):
            out[f"{name}.{metric}"] = sum(i[key] for i in info) * per

    gc = [i for i, s in enumerate(spans)
          if s.name == "attack.gradient_canceling"]
    polish = [i for i, s in enumerate(spans) if s.name == POLISH]
    polish_in = {}
    for i in polish:
        polish_in.setdefault(spans[i].parent, []).append(i)
    out["attack.gradient_canceling.s"] = sum(dur[i] for i in gc) * per
    out["attack.loop.s"] = sum(
        dur[i] - sum(dur[j] for j in polish_in.get(i, ())) for i in gc) * per
    recs = [spans[i].info for i in polish]
    polish_s = sum(dur[i] for i in polish)
    objective_s = sum(r["objective_s"] for r in recs)
    out["attack.polish.s"] = polish_s * per
    out["attack.polish.objective_s"] = objective_s * per
    out["attack.polish.lbfgs_s"] = (polish_s - objective_s) * per
    out["attack.polish.nit"] = _mean(r["nit"] for r in recs)
    out["attack.polish.nfev"] = _mean(r["nfev"] for r in recs)
    accepted = [r["fun"] < r["start"] for r in recs]
    out["attack.polish.accept_frac"] = _mean(accepted)
    out["attack.polish.gain_digits"] = _mean(_gain(r) for r in recs)
    losses = []
    for i in gc:
        info = spans[i].info or {}
        if not info.get("optimize_labels") or not polish_in.get(i):
            continue
        rec = spans[polish_in[i][-1]].info
        before = min(rec["start"], rec["fun"])
        losses.append(max(0.0, digits(before) - digits(info["final_merit"])))
    out["attack.harden.loss_digits"] = _mean(losses)

    train = {i for i, s in enumerate(spans) if s.name == "harness.train"}
    out["harness.train.calls"] = len(train) * per
    out["harness.train.s"] = total("harness.train") * per
    out["harness.train.grad_evals"] = sum(
        1 for s in spans
        if s.name == "models.mean_param_grad" and s.parent in train) * per
    out["harness.retrain_and_eval.s"] = total("harness.retrain_and_eval") * per
    cells = [d for s, d in zip(spans, dur) if s.name == "harness.sweep_cell"]
    out["harness.sweep_cell.s.p50"] = statistics.median(cells) if cells else 0.0
    out["harness.sweep_cell.s.p90"] = _p90(cells)

    for name in ("reachability.tau_threshold", "reachability.membership_check",
                 "reachability.nn_necessary_tau",
                 "mathcore.top_singular_vector"):
        out[f"{name}.calls"] = calls(name) * per
        out[f"{name}.s"] = total(name) * per
    for name in ("defense.dpa_train", "defense.sever_filter",
                 "defense.dpa_predict", "cli.run",
                 "targetgen.grad_ascent_corrupt"):
        out[f"{name}.s"] = total(name) * per

    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        self_s[s.name.split(".", 1)[0]] += dur[i] - child[i]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] * per
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("certified_acc", "acc_drop")):
        return "%"
    for suffix, unit in (("us_per_call", "us"), ("flops_computed", "flop"),
                         ("bytes_computed", "B"), ("_frac", "frac"),
                         ("parallel_eff", "frac"), ("digits", "digits")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("_s", ".s")) or ".s." in name:
        return "s"
    return "count"


def _mean(values) -> float:
    values = [float(v) for v in values]
    return sum(values) / len(values) if values else 0.0


def digits(merit: float) -> float:
    """-log10 of a merit, floored so an exact zero stays finite."""
    return -math.log10(max(merit, 1e-300))


def _gain(rec) -> float:
    return max(0.0, digits(rec["fun"]) - digits(rec["start"])) \
        if math.isfinite(rec["fun"]) else 0.0
