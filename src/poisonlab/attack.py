"""Poison-set construction against a fixed target parameter.

The workhorse is gradient canceling: hold the target fixed, and move the
poison features so that the ratio-weighted poison gradient cancels the
clean mean gradient,

    minimize over poison points  (1/2) || g(mu) + eps_d * g(nu) ||^2.

One L-BFGS-B solve (`_polish`, through `optim.lbfgsb`, which drives
scipy's compiled routine directly: ftol 0, gtol 1e-16, at most
max(epochs, 1000) iterations) runs first, from the seeded start set,
unless `reachability.merit_floor` exceeds 2 REACH_TOL: then no poison
set can reach, and the solve is skipped. Where it reaches REACH_TOL,
which a reachable target usually lets it do, its poison set is returned.
Where it misses on an unclipped logistic_binary target, the closed-form
floor point (`reachability._floor_point`, every poison point at its
label's sign times one point z) attains the merit floor, and is returned
if that reaches. Where the solve falls short otherwise or is skipped (a
blocked target, where the point the attack ends at decides the retrained
damage), the start set goes through full-batch projected gradient
descent with momentum, guarded by a nonmonotone backtracking rule; the
same solve then runs from the loop's best iterate. Each epoch and each
L-BFGS-B evaluation makes one fused pass over the poison set
(`models._canceling_pass`): a single forward pass yields the residual
g(mu) + eps_d g(nu), the per-point feature update (the mixed
second-order product of the loss, scaled by 1/n with n the clean count)
and the label gradient. Labels enter that pass as float targets built
once per attack, so hard and optimized soft labels share one code path.
Only the reported final merit goes back through the public, validating
kernels. Gradient matching optimizes a cosine dissimilarity against a
reversed-loss gradient instead, and the Frank-Wolfe variant optimizes
the poison distribution itself as a weighted atom set over a discretized
domain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import optim
from .data import Dataset
from .errors import AttackDivergence, DomainError
from .mathcore import make_rng
from .models import (LEAST_SQUARES, LOGISTIC, ModelSpec, _canceling_pass,
                     _targets, check_params, grads_batch, losses_batch,
                     mean_param_grad, mixed_vjp_batch)
from .optim import (MOMENTUM, check_descent_options, cosine_lr,
                    project_simplex_rows, round_half_up)
from .reachability import _floor_point, _merit_floor

CLIP_BOX = "box"
CLIP_CLEAN_RANGE = "clean_range"
CLIP_NONE = "none"

_NONMONOTONE_WINDOW = 20
# a canceling merit at or below this counts as reaching the target
REACH_TOL = 1e-12


@dataclass(frozen=True)
class AttackOptions:
    epochs: int = 1000
    lr: float = 0.5
    clip_mode: str = CLIP_NONE
    optimize_labels: bool = False
    replace_mode: bool = False
    seed: int = 0

    def __post_init__(self):
        check_descent_options(self)
        if self.clip_mode not in (CLIP_BOX, CLIP_CLEAN_RANGE, CLIP_NONE):
            raise DomainError(f"unknown clip_mode {self.clip_mode!r}")


@dataclass(frozen=True)
class AttackResult:
    poison: Dataset
    merit_trace: np.ndarray
    final_merit: float
    final_grad_norm: float
    eps_d: float
    kept_clean: Dataset | None = None  # replace mode: the retained clean subset
    # canceling: the L-BFGS-B solve from the start set reached REACH_TOL,
    # so the momentum loop did not run. False where the loop ran, and where
    # the closed-form floor point reached after that solve missed
    start_solve: bool = False
    grad_norm_trace: np.ndarray | None = None  # gradient matching only


def project_admissible(points: np.ndarray, box: np.ndarray, clip_mode: str,
                       clean_range: np.ndarray | None = None) -> np.ndarray:
    """Clamp points to the admissible set chosen by clip_mode."""
    points = np.asarray(points, dtype=np.float64)
    if clip_mode == CLIP_NONE:
        return points
    if clip_mode == CLIP_BOX:
        lo, hi = box[:, 0], box[:, 1]
    elif clip_mode == CLIP_CLEAN_RANGE:
        if clean_range is None:
            raise DomainError("clean_range clipping needs the observed range")
        lo, hi = clean_range[:, 0], clean_range[:, 1]
    else:
        raise DomainError(f"unknown clip_mode {clip_mode!r}")
    return np.clip(points, lo, hi)


def _replace_keep(n_clean: int, eps_d: float) -> int:
    """Clean points that replace mode keeps: floor(n / (1 + eps_d))."""
    return int(np.floor(n_clean / (1.0 + eps_d)))


def _poison_count(n_clean: int, eps_d: float) -> int:
    if eps_d <= 0:
        raise DomainError("eps_d must be positive")
    count = round_half_up(n_clean * eps_d)
    if count < 1:
        raise DomainError(f"eps_d={eps_d} yields zero poison points for n={n_clean}")
    return count


def _init_poison(mu: Dataset, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    idx = rng.choice(mu.n, size=count, replace=count > mu.n)
    return mu.x[idx].copy(), mu.y[idx].copy()


def _harden_labels(spec: ModelSpec, soft: np.ndarray) -> np.ndarray:
    if spec.family == LOGISTIC:
        return (soft > 0.5).astype(np.int64)
    return np.argmax(soft, axis=1).astype(np.int64)


def _project_soft(spec: ModelSpec, soft: np.ndarray) -> np.ndarray:
    if spec.family == LEAST_SQUARES:
        return soft
    if spec.family == LOGISTIC:
        return np.clip(soft, 0.0, 1.0)
    return project_simplex_rows(soft)


def _polish(spec, target, xs, t, free_labels, g_mu, eps_d, box, clip_mode,
            clean_range, epochs=0):
    """The attack's one L-BFGS-B solve of the canceling objective.

    Optimizes the poison features, plus the label targets t when
    free_labels (optimized square-loss labels, which are free reals);
    otherwise t stays fixed. Each point weighs eps_d / count in the
    residual, which scales the gradient; n_eff = count / eps_d is n where
    n * eps_d is an integer. `optim.lbfgsb` runs with ftol 0 and gtol
    1e-16, so it stops by its own line-search test or after
    max(epochs, 1000) iterations. Returns (features, t, merits): merits
    holds the merit at the start and after each iteration, as the driver
    records them; features and t are the solve's end point, clamped to
    the admissible set, if its merit dropped, and the start set
    otherwise. A solve that meets a non-finite residual also ends at the
    start set, with no merits.
    """
    count, d = xs.shape
    n_eff = count / eps_d
    x0 = np.concatenate([xs.ravel(), t]) if free_labels else xs.ravel()

    if clip_mode == CLIP_NONE:
        bounds = None
    else:
        rng_box = box if clip_mode == CLIP_BOX else clean_range
        lo, hi = np.tile(rng_box[:, 0], count), np.tile(rng_box[:, 1], count)
        if free_labels:
            lo = np.concatenate([lo, np.full(count, -np.inf)])
            hi = np.concatenate([hi, np.full(count, np.inf)])
        bounds = lo, hi

    def objective(flat):
        pts = flat[:count * d].reshape(count, d)
        lab = flat[count * d:] if free_labels else t
        residual, gx, gt = _canceling_pass(spec, target, pts, lab, g_mu, eps_d)
        if not np.isfinite(residual).all():
            raise DomainError("non-finite canceling residual in the solve")
        grad = gx.ravel() / n_eff
        if free_labels:
            grad = np.concatenate([grad, gt / n_eff])
        return 0.5 * float(residual @ residual), grad

    try:
        res = optim.lbfgsb(objective, x0, bounds, max(epochs, 1000), 1e-16)
    except DomainError:  # a non-finite residual
        return xs, t, []
    if not np.isfinite(res.fun) or res.fun >= res.merits[0]:
        return xs, t, res.merits
    # L-BFGS-B can end a rounding error outside its bounds
    pts = project_admissible(res.x[:count * d].reshape(count, d), box,
                             clip_mode, clean_range)
    return pts, (res.x[count * d:].copy() if free_labels else t), res.merits


def gradient_canceling(clean: Dataset, spec: ModelSpec, target, eps_d: float,
                       opts: AttackOptions | None = None) -> AttackResult:
    """Construct a poison set whose ratio-weighted gradient cancels g(mu).

    Poison features are initialized as a seeded subsample of the clean
    data. The L-BFGS-B solve of `_polish` runs from that start set first,
    unless the merit floor of the clean mean gradient (of the kept clean
    set in replace mode) exceeds 2 REACH_TOL, which no solve could get
    below; if it reaches REACH_TOL, its poison set is returned and
    start_solve is True. If it misses on logistic_binary under clip_mode
    "none", each poison point moves to x_i = s_i z, s_i = 2 y_i - 1, with z
    from `reachability._floor_point`; that set attains the merit floor,
    and it is returned, with the solve's merit trace, if its merit reaches
    REACH_TOL. Otherwise the solve is discarded, and the start set goes
    through full-batch momentum descent with per-step projection given by
    opts.clip_mode, exactly as if the solve had not run; the same solve
    then runs from the loop's best iterate, and its end point is returned.
    Skipping the start-set solve changes no output: the loop starts from
    the same start set and draws no random numbers.
    opts.lr steers only the loop. Labels stay fixed unless
    opts.optimize_labels: square-loss labels are then free reals in the
    solve and the loop, while class labels stay fixed in the solve and
    are optimized as soft labels on the simplex in the loop, then
    hardened before the second solve. replace_mode swaps the clean set
    for a seeded subset of size floor(n / (1 + eps_d)) first, which
    models an attacker who replaces rather than adds points.
    """
    opts = opts or AttackOptions()
    target = check_params(spec, target)
    rng = make_rng(opts.seed, stream=7)

    kept = None
    mu = clean
    if opts.replace_mode:
        keep_n = _replace_keep(clean.n, eps_d)
        if keep_n < 1:
            raise DomainError("replace_mode keeps zero clean points")
        keep_idx = np.sort(rng.choice(clean.n, size=keep_n, replace=False))
        mu = clean.subset(keep_idx)
        kept = mu

    n = mu.n
    count = _poison_count(n, eps_d)
    xs, ys = _init_poison(mu, count, rng)
    g_mu = mean_param_grad(spec, target, mu)
    clean_range = np.stack([mu.x.min(axis=0), mu.x.max(axis=0)], axis=1)

    # float label targets; they move only when labels are optimized. The
    # loop rebinds xs and t and never writes into them, so iterates can be
    # kept without copies.
    t = _targets(spec, ys)
    free = opts.optimize_labels
    # square-loss labels stay free reals through both L-BFGS-B solves
    free_reals = free and spec.family == LEAST_SQUARES

    def canceling_pass():
        residual, gx, gt = _canceling_pass(spec, target, xs, t, g_mu, eps_d)
        return 0.5 * float(residual @ residual), gx, gt

    def result(xs, t, ys, trace, start_solve):
        if free_reals:
            ys = t
        residual = g_mu + eps_d * grads_batch(spec, target, xs, ys).mean(axis=0)
        merit = 0.5 * float(residual @ residual)
        return AttackResult(poison=Dataset(xs, ys, mu.task, mu.classes,
                                           mu.domain_box),
                            merit_trace=trace, final_merit=merit,
                            final_grad_norm=float(np.sqrt(2.0 * merit))
                            / (1.0 + eps_d),
                            eps_d=eps_d, kept_clean=kept,
                            start_solve=start_solve)

    start_merit = canceling_pass()[0]
    if not np.isfinite(start_merit):
        raise AttackDivergence(
            "non-finite canceling merit at the initial poison set")

    def solve(xs, t):
        return _polish(spec, target, xs, t, free_reals, g_mu, eps_d,
                       mu.domain_box, opts.clip_mode, clean_range, opts.epochs)

    # Start-set solve, unless the merit floor shows it cannot reach. A
    # reachable target needs no more. merit_trace[k] is the merit after k
    # iterations, the last one repeated once the solve has stopped, as the
    # loop's trace holds the merit after k epochs.
    if _merit_floor(spec, target, g_mu, eps_d) <= 2 * REACH_TOL:
        *solved, merits = solve(xs, t)
        # a solve that met a non-finite residual ended at the start set
        trace = np.array((merits or [start_merit])[:opts.epochs])
        trace = np.pad(trace, (0, opts.epochs - trace.size), mode="edge")
        res = result(*solved, ys, trace, True)
        if res.final_merit <= REACH_TOL:
            return res
        # Unclipped logistic_binary has a closed-form optimum: every poison
        # point at its label's sign times the floor point, which attains
        # the merit floor.
        if spec.family == LOGISTIC and opts.clip_mode == CLIP_NONE:
            z = _floor_point(spec, target, g_mu, eps_d)
            res = result((2 * ys - 1)[:, None] * z, t, ys, trace, False)
            if res.final_merit <= REACH_TOL:
                return res

    # Otherwise the momentum loop starts from the start set; a solve that
    # ran left it unchanged.
    vel_x = np.zeros_like(xs)
    vel_t = np.zeros_like(t)
    merit_trace = np.empty(opts.epochs)
    scale = 1.0
    window: deque = deque(maxlen=_NONMONOTONE_WINDOW)
    prev_xs, prev_t = xs, t
    best_merit, best_xs, best_t = np.inf, xs, t

    for epoch in range(opts.epochs):
        merit, gx, gt = canceling_pass()
        if not np.isfinite(merit):
            merit = np.inf
        # Nonmonotone backtracking guard: an epoch whose merit exceeds the
        # worst of the last 20 accepted merits is undone, the step scale
        # halved and the momentum restarted from rest; accepted epochs
        # regrow the scale 1.2x. The canceling objective is quartic in the
        # poison features, so no fixed step survives both the long-transit
        # and the high-curvature phase; the window (rather than strict
        # descent) lets momentum follow curved valleys. The returned poison
        # set is the best iterate seen, so the guard never hurts.
        if window and merit > max(window) * (1.0 + 1e-12):
            xs, t = prev_xs, prev_t
            vel_x = np.zeros_like(xs)
            vel_t = np.zeros_like(t)
            scale = max(scale * 0.5, 1e-15)
            merit, gx, gt = canceling_pass()
        elif window:
            scale = min(scale * 1.2, 1e6)
        merit_trace[epoch] = merit
        window.append(merit)
        if merit < best_merit:
            best_merit, best_xs, best_t = merit, xs, t
        prev_xs, prev_t = xs, t

        lr_t = cosine_lr(opts.lr, epoch, opts.epochs) * scale
        vel_x = MOMENTUM * vel_x + gx / n
        xs = project_admissible(xs - lr_t * vel_x, mu.domain_box,
                                opts.clip_mode, clean_range)
        if free:
            vel_t = MOMENTUM * vel_t + gt / n
            t = _project_soft(spec, t - lr_t * vel_t)

    # evaluate the closing state too, then keep the best iterate seen
    closing, _, _ = canceling_pass()
    if not (np.isfinite(closing) and closing < best_merit):
        xs, t = best_xs, best_t

    # optimized class labels harden before the solve, which then fits the
    # features to them
    if free and not free_reals:
        ys = _harden_labels(spec, t)
        t = _targets(spec, ys)

    # The same solve again, from the best iterate. The per-epoch trace
    # stays pure momentum descent; only the returned poison set benefits.
    # Plain descent zigzags in the curved valleys of the canceling
    # objective and can report a target as blocked when it is merely hard;
    # the solve removes that false plateau while leaving genuinely
    # infeasible targets at their floor.
    xs, t, _ = solve(xs, t)
    return result(xs, t, ys, merit_trace, False)


# ---------------------------------------------------------------------------
# gradient matching

_REVERSED_LOSS_FLOOR = 1e-12


def reversed_mean_grad(spec: ModelSpec, params, ds: Dataset) -> np.ndarray:
    """Mean gradient of the reversed loss -log(1 - exp(-l)) over a dataset.

    For cross-entropy-type losses the reversed gradient is the ordinary
    per-sample gradient reweighted by -1/(exp(l) - 1), with l floored to
    avoid the singularity at a perfectly fit point. The square loss has
    no bounded reversal, so its analog flips the residual sign.
    """
    params = check_params(spec, params)
    if spec.family == LEAST_SQUARES:
        return -mean_param_grad(spec, params, ds)
    losses = losses_batch(spec, params, ds.x, ds.y)
    losses = np.maximum(losses, _REVERSED_LOSS_FLOOR)
    weights = -1.0 / np.expm1(losses)
    grads = grads_batch(spec, params, ds.x, ds.y)
    return (weights[:, None] * grads).mean(axis=0)


def gradient_matching(clean: Dataset, spec: ModelSpec, target, eps_d: float,
                      opts: AttackOptions | None = None) -> AttackResult:
    """Align poison gradients with the clean reversed-loss gradient.

    Minimizes the cosine dissimilarity 1 - <g_rev(mu), g(nu)> / (|..||..|)
    over the poison features with the same optimizer and projection stack
    as gradient canceling. merit_trace records the dissimilarity;
    grad_norm_trace and final_grad_norm report the mixture gradient norm
    at the target, so runs are comparable with gradient canceling.
    """
    opts = opts or AttackOptions()
    if opts.optimize_labels or opts.replace_mode:
        raise DomainError("gradient matching supports fixed labels, add-only")
    target = check_params(spec, target)
    rng = make_rng(opts.seed, stream=8)

    count = _poison_count(clean.n, eps_d)
    xs, ys = _init_poison(clean, count, rng)
    g_rev = reversed_mean_grad(spec, target, clean)
    nrm_rev = float(np.linalg.norm(g_rev))
    if nrm_rev == 0.0:
        raise DomainError("reversed-loss gradient vanished on the clean data")
    g_mu = mean_param_grad(spec, target, clean)
    clean_range = np.stack([clean.x.min(axis=0), clean.x.max(axis=0)], axis=1)

    def mix_norm(g_nu):
        return float(np.linalg.norm(g_mu + eps_d * g_nu)) / (1.0 + eps_d)

    vel = np.zeros_like(xs)
    trace = np.empty(opts.epochs)
    norms = np.empty(opts.epochs)
    for epoch in range(opts.epochs):
        lr_t = cosine_lr(opts.lr, epoch, opts.epochs)
        g_nu = grads_batch(spec, target, xs, ys).mean(axis=0)
        nrm_nu = float(np.linalg.norm(g_nu))
        norms[epoch] = mix_norm(g_nu)
        if nrm_nu < 1e-300:
            trace[epoch] = 1.0
            continue
        cos = float(g_rev @ g_nu) / (nrm_rev * nrm_nu)
        dissim = 1.0 - cos
        if not np.isfinite(dissim):
            raise AttackDivergence(f"non-finite dissimilarity at epoch {epoch}")
        # 1 - cos lies in [0, 2]; aligned directions can round it below 0
        trace[epoch] = max(dissim, 0.0)
        # d(dissim)/d(g_nu), then the chain rule through each poison point
        v = -g_rev / (nrm_rev * nrm_nu) + cos * g_nu / (nrm_nu * nrm_nu)
        gx = mixed_vjp_batch(spec, target, xs, ys, v) / count
        vel = MOMENTUM * vel + gx
        xs = xs - lr_t * vel
        xs = project_admissible(xs, clean.domain_box, opts.clip_mode, clean_range)

    g_nu = grads_batch(spec, target, xs, ys).mean(axis=0)
    nrm_nu = float(np.linalg.norm(g_nu))
    final = max(1.0 - float(g_rev @ g_nu) / (nrm_rev * nrm_nu), 0.0) \
        if nrm_nu > 0 else 1.0
    poison = Dataset(xs, ys, clean.task, clean.classes, clean.domain_box)
    return AttackResult(poison=poison, merit_trace=trace, final_merit=final,
                        final_grad_norm=mix_norm(g_nu), eps_d=eps_d,
                        grad_norm_trace=norms)


# ---------------------------------------------------------------------------
# Frank-Wolfe over the poison distribution

@dataclass(frozen=True)
class GridDomain:
    """Cartesian feature grid with an enumerated label set (d <= 3)."""
    axes: tuple
    labels: tuple

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self.axes) > 3:
            raise DomainError("grid domains support at most 3 feature dims")
        mesh = np.meshgrid(*[np.asarray(a, dtype=np.float64) for a in self.axes],
                           indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        xs = np.repeat(pts, len(self.labels), axis=0)
        ys = np.tile(np.asarray(self.labels), pts.shape[0])
        return xs, ys


@dataclass(frozen=True)
class LineDomain:
    """Atoms restricted to the line spanned by g(mu), labels enumerated.

    Sufficiency of the scalar threshold comes from transporting any
    feasible poison distribution onto this line, so searching it loses
    nothing for scalar-output linear models.
    """
    alpha_grid: tuple
    labels: tuple

    def atoms_along(self, direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        alphas = np.asarray(self.alpha_grid, dtype=np.float64)
        pts = alphas[:, None] * direction[None, :]
        xs = np.repeat(pts, len(self.labels), axis=0)
        ys = np.tile(np.asarray(self.labels), alphas.shape[0])
        return xs, ys


@dataclass(frozen=True)
class FrankWolfeResult:
    atom_x: np.ndarray          # (A, d) atom features
    atom_y: np.ndarray          # (A,) atom labels
    weights: np.ndarray         # (A,) simplex weights of the final measure
    objective_trace: np.ndarray  # length T+1, canceling objective per iterate
    support_trace: np.ndarray   # support size after each iterate


def frank_wolfe_attack(clean: Dataset, spec: ModelSpec, target, eps_d: float,
                       domain, t_iters: int,
                       step_rule: str = "open_loop") -> FrankWolfeResult:
    """Conditional-gradient optimization of the poison measure.

    Each iteration scans the finite atom set for the gradient most
    opposed to the current residual and mixes it in with weight
    eta_t = 2/(t+2) (or the exact quadratic line-search step when
    step_rule is "line_search"). Starting from a single atom, the measure
    is supported on at most t+1 atoms after t iterations.
    """
    if t_iters < 1:
        raise DomainError("t_iters must be >= 1")
    if step_rule not in ("open_loop", "line_search"):
        raise DomainError(f"unknown step rule {step_rule!r}")
    target = check_params(spec, target)
    g_mu = mean_param_grad(spec, target, clean)

    if isinstance(domain, LineDomain):
        base = np.linalg.norm(g_mu)
        if base == 0.0:
            raise DomainError("line domain undefined: clean gradient vanishes")
        xs, ys = domain.atoms_along(g_mu / base)
    elif isinstance(domain, GridDomain):
        xs, ys = domain.atoms()
    else:
        raise DomainError("domain must be a GridDomain or LineDomain")
    if xs.shape[0] == 0:
        raise DomainError("empty atom domain")
    if xs.shape[1] != spec.input_dim:
        raise DomainError("atom dimension does not match the model")

    atom_grads = grads_batch(spec, target, xs, ys)
    weights = np.zeros(xs.shape[0])
    weights[0] = 1.0
    g_nu = atom_grads[0].copy()

    obj_trace = np.empty(t_iters + 1)
    sup_trace = np.empty(t_iters + 1, dtype=np.int64)
    residual = g_mu + eps_d * g_nu
    obj_trace[0] = 0.5 * float(residual @ residual)
    sup_trace[0] = 1

    for t in range(t_iters):
        residual = g_mu + eps_d * g_nu
        scores = atom_grads @ residual
        best = int(np.argmin(scores))
        if step_rule == "open_loop":
            eta = 2.0 / (t + 2.0)
        else:
            direction = eps_d * (atom_grads[best] - g_nu)
            denom = float(direction @ direction)
            eta = 1.0 if denom == 0.0 else \
                float(np.clip(-(residual @ direction) / denom, 0.0, 1.0))
        weights *= (1.0 - eta)
        weights[best] += eta
        g_nu = (1.0 - eta) * g_nu + eta * atom_grads[best]
        residual = g_mu + eps_d * g_nu
        obj_trace[t + 1] = 0.5 * float(residual @ residual)
        sup_trace[t + 1] = int(np.count_nonzero(weights))

    return FrankWolfeResult(atom_x=xs, atom_y=ys, weights=weights,
                            objective_trace=obj_trace, support_trace=sup_trace)
