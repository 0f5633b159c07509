"""Target parameter construction and the reachability-aware selection filter."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attack import AttackOptions, gradient_canceling
from .data import Dataset
from .errors import DomainError, TargetSelectionError
from .mathcore import derive_seed, make_rng
from .models import (MLP1, ModelSpec, _mean_grad_fn, accuracy, check_params,
                     losses_batch, unpack_mlp)
from .reachability import tau_threshold

GRAD_ASCENT = "grad_ascent"
RANDOM = "random"
SCALED = "scaled"
EXTERNAL = "external"

# seeded starts of the projected ascent, the first at the trained params
_ASCENT_RESTARTS = 4


@dataclass(frozen=True)
class TargetCandidate:
    params: np.ndarray
    eps_w: float
    provenance: str
    tau: float = float("nan")


def grad_ascent_corrupt(clean: Dataset, spec: ModelSpec, params0, eps_w: float,
                        steps: int = 20, seed: int = 0) -> TargetCandidate:
    """Corrupt a trained parameter by projected ascent on the clean loss.

    Walks `steps` normalized-gradient steps of length eps_w*|w0|/steps,
    projecting back into the ball |w - w0| <= eps_w*|w0| after each one.
    Ascent from a saturated optimum is myopic, so additional seeded
    in-ball restarts are climbed too and the highest-loss endpoint wins.
    """
    params0 = check_params(spec, params0)
    if eps_w < 0:
        raise DomainError("eps_w must be >= 0")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if eps_w == 0.0:
        return TargetCandidate(params0.copy(), 0.0, GRAD_ASCENT)
    norm0 = float(np.linalg.norm(params0))
    if norm0 == 0.0:
        raise DomainError("relative ball undefined: |w0| = 0 with eps_w > 0")
    radius = eps_w * norm0
    step = radius / steps
    rng = make_rng(seed, stream=10)

    def project(w):
        delta = w - params0
        dn = float(np.linalg.norm(delta))
        if dn > radius:
            return params0 + (radius / dn) * delta
        return w

    grad = _mean_grad_fn(spec, clean.x, clean.y)
    best_loss, best_w = -np.inf, params0.copy()
    for r in range(_ASCENT_RESTARTS):
        if r == 0:
            w = params0.copy()
        else:
            u = rng.standard_normal(params0.size)
            w = project(params0 + 0.5 * radius * u / np.linalg.norm(u))
        for _ in range(steps):
            g = grad(w)
            gn = float(np.linalg.norm(g))
            if gn == 0.0:
                break
            w = project(w + step * (g / gn))
        mean_loss = float(np.mean(losses_batch(spec, w, clean.x, clean.y)))
        if mean_loss > best_loss:
            best_loss, best_w = mean_loss, w
    return TargetCandidate(best_w, eps_w, GRAD_ASCENT)


def random_corrupt(params0, eps_w: float, seed: int = 0) -> TargetCandidate:
    """w0 plus eps_w*|w0| times a uniformly random unit direction."""
    params0 = np.asarray(params0, dtype=np.float64).ravel()
    if eps_w < 0:
        raise DomainError("eps_w must be >= 0")
    if eps_w == 0.0:
        return TargetCandidate(params0.copy(), 0.0, RANDOM)
    rng = make_rng(seed, stream=9)
    u = rng.standard_normal(params0.size)
    u /= np.linalg.norm(u)
    w = params0 + eps_w * float(np.linalg.norm(params0)) * u
    return TargetCandidate(w, eps_w, RANDOM)


def scale_params(spec: ModelSpec, params, s: float) -> np.ndarray:
    """Scale the decision-making block by s > 0.

    Linear families scale wholesale; for mlp1 only the output matrix is
    scaled so the hidden features (and hence all predictions) are
    untouched. Positive scaling never changes an argmax prediction, only
    the confidence, so this trades threshold for nothing.
    """
    params = check_params(spec, params)
    if s <= 0:
        raise DomainError("scale must be positive")
    if spec.family != MLP1:
        return s * params
    u, w = unpack_mlp(spec, params)
    return np.concatenate([u.ravel(), (s * w).ravel()])


def select_target(candidates: list[TargetCandidate], eps_d: float,
                  clean: Dataset, val: Dataset, spec: ModelSpec,
                  gc_opts: AttackOptions | None = None) -> TargetCandidate:
    """Three-stage filter over target candidates.

    (1) discard candidates whose threshold exceeds the budget (tau is the
    2-class convention, the empirically indicative one); (2) run the
    canceling attack on the survivors and keep those whose final merit
    fell below a tenth of the initial merit; (3) among those, return the
    one with the lowest validation accuracy, i.e. the largest drop. The
    validation set must not contain test data.
    """
    if not candidates:
        raise TargetSelectionError("input", "no candidates supplied")
    gc_opts = gc_opts or AttackOptions()

    scored = []
    for cand in candidates:
        rep = tau_threshold(spec, cand.params, clean, c_convention=2)
        scored.append(replace(cand, tau=rep.tau))
    stage1 = [c for c in scored if c.tau <= eps_d]
    if not stage1:
        raise TargetSelectionError(
            "threshold", f"all {len(scored)} candidates have tau > eps_d={eps_d}")

    stage2 = []
    for i, cand in enumerate(stage1):
        opts = replace(gc_opts, seed=derive_seed(gc_opts.seed, "select", i))
        result = gradient_canceling(clean, spec, cand.params, eps_d, opts)
        init_merit = float(result.merit_trace[0])
        if result.final_merit <= init_merit / 10.0 + 1e-18:
            stage2.append(cand)
    if not stage2:
        raise TargetSelectionError(
            "reachability",
            f"no candidate reached a tenth of its initial merit at eps_d={eps_d}")

    if spec.is_classification and val.task == "classification":
        damage = [-accuracy(spec, c.params, val) for c in stage2]
    else:
        # regression: rank by validation loss instead of accuracy drop
        damage = [float(np.mean(losses_batch(spec, c.params, val.x, val.y)))
                  for c in stage2]
    return stage2[int(np.argmax(damage))]
