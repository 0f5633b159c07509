"""Training, retraining on mixed data, evaluation reports, and the sweep engine."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import optim
from .attack import AttackOptions, FrankWolfeResult, gradient_canceling
from .data import CLASSIFICATION, Dataset, concat
from .errors import AttackDivergence, DomainError, PoisonLabError
from .mathcore import derive_seed, make_rng, top_singular_vector
from .models import (MLP1, ModelSpec, _loss_grad_fn, _mean_grad_fn, accuracy,
                     check_params, mean_param_grad)
from .optim import MOMENTUM, check_descent_options, cosine_lr
from .reachability import tau_threshold

_SGD_SWITCH_N = 10_000
_SGD_BATCH = 1000


@dataclass(frozen=True)
class TrainOptions:
    epochs: int = 1000
    lr: float = 0.5  # steers mlp1 only; the other families take no step size
    grad_tol: float = 1e-8
    init_scale: float = 0.01

    def __post_init__(self):
        check_descent_options(self)


@dataclass(frozen=True)
class EvalReport:
    clean_acc: float
    poisoned_acc: float
    acc_drop: float
    grad_norm_at_target: float
    param_distance: float
    eps_d: float
    tau: float
    seed: int


def _smoothness_bound(ds: Dataset) -> float:
    """Cheap upper-ish bound on mlp1's loss curvature, for its step size."""
    _, sigma = top_singular_vector(ds.x / np.sqrt(ds.n))
    return 0.5 * (sigma * sigma)


def _fit_convex(spec: ModelSpec, ds: Dataset, opts: TrainOptions,
                params: np.ndarray) -> np.ndarray:
    """Full-batch L-BFGS-B on the mean training loss from params."""
    loss_grad = _loss_grad_fn(spec, ds.x, ds.y)

    def objective(w):
        f, g = loss_grad(w)
        if not (math.isfinite(f) and np.isfinite(g).all()):
            check_params(spec, w)  # a non-finite iterate: DomainError
            raise AttackDivergence("training diverged: non-finite loss or "
                                   "gradient")
        return f, g

    # scipy stops on the max-norm of the gradient; at grad_tol / sqrt(p)
    # that bounds the 2-norm by grad_tol
    gtol = opts.grad_tol / math.sqrt(params.size)
    left, loss = opts.epochs, math.inf
    while True:
        res = optim.lbfgsb(objective, params, None, left, gtol)
        left -= res.nit
        # ftol 0 also ends the solve at a step that leaves the loss
        # unchanged, as one below the resolution of the weights does
        # after a large drop; a restart forgets that curvature and
        # steps along -g. Stop once a restart lowers the loss no more.
        if left <= 0 or np.abs(res.jac).max() <= gtol or res.fun >= loss:
            return res.x
        params, loss = res.x, res.fun


def train(spec: ModelSpec, ds: Dataset, opts: TrainOptions | None = None,
          seed: int = 0) -> np.ndarray:
    """Fit spec to ds from a seeded init; deterministic given (opts, seed).

    least_squares, logistic_binary and softmax_linear: one full-batch
    L-BFGS-B solve of the mean loss (ftol 0, at most `epochs` iterations
    in all), restarted from its end point while that lowers the loss. It
    stops once the gradient 2-norm is at most grad_tol, or earlier where
    the float loss no longer decreases. On separable data the loss has no
    minimiser, so there it is grad_tol that stops the growing weights.

    mlp1, whose leaky-ReLU kinks stall L-BFGS-B: momentum gradient descent
    under a cosine decay of opts.lr, divided by the loss smoothness. Full
    batch up to 10k samples, mini-batches of 1000 above; it stops at the
    epoch budget or when the full-data gradient norm falls below grad_tol.

    A non-finite loss or gradient raises AttackDivergence, a non-finite
    iterate DomainError.
    """
    opts = opts or TrainOptions()
    rng = make_rng(seed, stream=5)
    params = check_params(spec, spec.init_params(rng, opts.init_scale))
    if spec.family != MLP1:
        return _fit_convex(spec, ds, opts, params)
    # divide lr by the estimated loss smoothness when it exceeds 1, so
    # retraining stays stable on mixtures containing far-out poison
    lr = opts.lr / max(1.0, _smoothness_bound(ds))

    grad = _mean_grad_fn(spec, ds.x, ds.y)
    vel = np.zeros_like(params)
    for epoch in range(opts.epochs):
        lr_t = cosine_lr(lr, epoch, opts.epochs)
        g = grad(params)
        gn = math.sqrt(g @ g)
        if not math.isfinite(gn):
            check_params(spec, params)  # a non-finite iterate: DomainError
            raise AttackDivergence(f"training diverged at epoch {epoch}")
        if gn < opts.grad_tol:
            break
        if ds.n <= _SGD_SWITCH_N:
            vel = MOMENTUM * vel + g
            params = params - lr_t * vel
        else:
            order = rng.permutation(ds.n)
            for i in range(0, ds.n, _SGD_BATCH):
                idx = order[i:i + _SGD_BATCH]
                gb = _mean_grad_fn(spec, ds.x[idx], ds.y[idx])(params)
                vel = MOMENTUM * vel + gb
                params = params - lr_t * vel
    return params


def retrain_and_eval(clean: Dataset, poison: Dataset | None, test: Dataset,
                     spec: ModelSpec, target, seed: int,
                     train_opts: TrainOptions | None = None,
                     clean_params: np.ndarray | None = None,
                     eps_d: float = float("nan"),
                     tau: float = float("nan")) -> EvalReport:
    """Retrain from scratch on clean + poison and report the damage.

    Accuracies are percentages; the gradient norm is evaluated at the
    *target* parameters over the mixed data (concatenation reproduces
    the (1-lambda, lambda) mixture weights automatically).
    """
    opts = train_opts or TrainOptions()
    if poison is not None and poison.n > 0:
        mixed = concat(clean, poison)
    else:
        mixed = clean
    if clean_params is None:
        clean_params = train(spec, clean, opts, seed)
    return eval_report(spec, train(spec, mixed, opts, seed), clean_params,
                       mixed, test, target, seed, eps_d, tau)


def eval_report(spec: ModelSpec, retrained: np.ndarray,
                clean_params: np.ndarray, mixed: Dataset, test: Dataset,
                target, seed: int, eps_d: float = float("nan"),
                tau: float = float("nan")) -> EvalReport:
    """`retrain_and_eval`'s report for models already trained: `retrained`
    on `mixed`, and the clean model `clean_params`."""
    if test.task == CLASSIFICATION and spec.is_classification:
        clean_acc = 100.0 * accuracy(spec, clean_params, test)
        poisoned_acc = 100.0 * accuracy(spec, retrained, test)
    else:
        clean_acc = float("nan")
        poisoned_acc = float("nan")

    g_target = mean_param_grad(spec, np.asarray(target, dtype=np.float64), mixed)
    return EvalReport(
        clean_acc=clean_acc,
        poisoned_acc=poisoned_acc,
        acc_drop=clean_acc - poisoned_acc,
        grad_norm_at_target=float(np.linalg.norm(g_target)),
        param_distance=float(np.linalg.norm(retrained - np.asarray(target))),
        eps_d=eps_d, tau=tau, seed=seed)


def atoms_to_poison(result: FrankWolfeResult, count: int,
                    template: Dataset) -> Dataset:
    """Uniform poison set from a weighted atom measure.

    Replicates each surviving atom in proportion to its weight at the
    requested resolution (largest-remainder apportionment), so the
    empirical set can feed the same retraining path as the direct attack.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    live = np.nonzero(result.weights > 0)[0]
    w = result.weights[live]
    raw = w / w.sum() * count
    reps = np.floor(raw).astype(np.int64)
    short = count - int(reps.sum())
    if short > 0:
        order = np.argsort(-(raw - reps), kind="stable")
        reps[order[:short]] += 1
    keep = reps > 0
    xs = np.repeat(result.atom_x[live][keep], reps[keep], axis=0)
    ys = np.repeat(result.atom_y[live][keep], reps[keep])
    return Dataset(xs, ys, template.task, template.classes,
                   template.domain_box)


SWEEP_COLUMNS = ("target_id", "w1", "w2", "tau", "eps_d", "acc_drop",
                 "grad_norm", "final_merit", "error")


def sweep_cell(clean: Dataset, test: Dataset, spec: ModelSpec, target,
               target_id: int, eps_d: float, gc_opts: AttackOptions,
               seed: int, train_opts: TrainOptions | None,
               clean_params: np.ndarray | None) -> dict:
    """One (target, eps_d) cell: threshold, attack, retrain, report row."""
    target = np.asarray(target, dtype=np.float64).ravel()
    row = {"target_id": target_id,
           "w1": float(target[0]),
           "w2": float(target[1]) if target.size > 1 else float("nan"),
           "tau": float("nan"), "eps_d": eps_d, "acc_drop": float("nan"),
           "grad_norm": float("nan"), "final_merit": float("nan"), "error": ""}
    try:
        rep = tau_threshold(spec, target, clean)
        row["tau"] = rep.tau
        gc = gradient_canceling(clean, spec, target, eps_d,
                                replace(gc_opts, seed=seed))
        if gc.kept_clean is not None:
            # replace mode: both models train on the clean points it kept
            clean, clean_params = gc.kept_clean, None
        ev = retrain_and_eval(clean, gc.poison, test, spec, target, seed,
                              train_opts, clean_params=clean_params,
                              eps_d=eps_d, tau=rep.tau)
        row["acc_drop"] = ev.acc_drop
        row["grad_norm"] = ev.grad_norm_at_target
        row["final_merit"] = gc.final_merit
    except PoisonLabError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def sweep_heatmap(clean: Dataset, test: Dataset, spec: ModelSpec,
                  target_grid, eps_list, gc_opts: AttackOptions | None = None,
                  base_seed: int = 0, train_opts: TrainOptions | None = None,
                  map_cells=map) -> list[dict]:
    """Run every (target, eps_d) cell and emit rows in target-major order.

    The only sweep engine: it validates the grid, trains the clean model
    once, and seeds and orders the cells. `map_cells` chooses where they
    run; it is called as `map_cells(sweep_cell, *columns)` with one finite
    iterable per `sweep_cell` argument and must return the rows in cell
    order, as builtin `map` and `ProcessPoolExecutor.map` do. Per-cell
    seeds derive from (base_seed, target index, eps index), so the table
    is identical wherever cells run. Per-cell attack failures land in the
    row's error column instead of aborting.
    """
    target_grid = [np.asarray(t, dtype=np.float64).ravel() for t in target_grid]
    eps_list = [float(e) for e in eps_list]
    if not target_grid or not eps_list:
        raise DomainError("sweep needs a nonempty target grid and eps list")
    gc_opts = gc_opts or AttackOptions()
    opts = train_opts or TrainOptions()
    clean_params = train(spec, clean, opts, base_seed)
    cells = [(clean, test, spec, target, ti, eps, gc_opts,
              derive_seed(base_seed, ti, ei), opts, clean_params)
             for ti, target in enumerate(target_grid)
             for ei, eps in enumerate(eps_list)]
    return list(map_cells(sweep_cell, *zip(*cells)))
