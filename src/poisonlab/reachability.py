"""Reachability analysis: alignment, margin bounds, and poisoning thresholds.

A target parameter can be forced by retraining on a (1-lambda) clean /
lambda poison mixture only if the zero vector lies in the lambda-blend of
the clean mean gradient with the convex set of achievable poison
gradients. For scalar-output linear models that condition collapses to an
interval test driven by two numbers:

    a = inf over the domain of (w.x) * l'(w.x, y)
    b = sup over the domain of (w.x) * l'(w.x, y)

and the critical poison fraction is

    lambda* = max{ align / (align - a), -align / (b - align), 0 }

with align = <w, g(mu)>. In poison-to-clean ratio units the threshold is
tau = lambda* / (1 - lambda*); for the logistic loss on an unbounded
domain this is align / W(1/e), and for c-class cross-entropy the trace
condition gives the necessary bound align / W((c-1)/e). Below the
threshold the same argument bounds the canceling merit from below
(`merit_floor`); for unclipped logistic_binary, `_floor_point` builds a
poison set that attains that bound on both sides of tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, linprog, minimize_scalar
from scipy.special import expit

from .data import Dataset
from .errors import DomainError
from .mathcore import lambert_w0
from .models import (LEAST_SQUARES, LOGISTIC, MLP1, ModelSpec, check_params,
                     mean_param_grad, output_block)

DEGENERATE_NONE = "none"
DEGENERATE_ZERO_GRAD = "zero_grad"
DEGENERATE_ZERO_ALIGNMENT = "zero_alignment"

_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class ThresholdReport:
    alignment: float
    a: float
    b: float
    lambda_star: float
    tau: float
    tau2: float
    degenerate: str = DEGENERATE_NONE
    c_used: int = 2


def alignment(spec: ModelSpec, params, ds: Dataset) -> float:
    """Inner product of the target parameters with their clean mean gradient.

    Scalar-output families use <w, g(mu)>; softmax uses the trace
    <W, G(mu)>; mlp1 restricts the trace to the output block, whose
    features are the learned hidden activations.
    """
    params = check_params(spec, params)
    return _alignment(spec, params, mean_param_grad(spec, params, ds))


def _alignment(spec: ModelSpec, params: np.ndarray, g: np.ndarray) -> float:
    """`alignment` from checked parameters and their mean gradient g."""
    if spec.family == MLP1:
        return float(output_block(spec, params).ravel()
                     @ output_block(spec, g).ravel())
    return float(params @ g)  # for softmax, trace(W^T G) in flat coordinates


def _logistic_tlp(t):
    t = np.asarray(t, dtype=np.float64)
    return -t / (1.0 + np.exp(np.clip(t, -700, 700)))


def _hinge_tlp(t):
    t = np.asarray(t, dtype=np.float64)
    return np.where(t < 1.0, -t, 0.0)


def _exponential_tlp(t):
    t = np.asarray(t, dtype=np.float64)
    return -t * np.exp(np.clip(-t, -700, 700))


def _dichotomy_tlp(t):
    # smoothed one-sided loss: l' = -4 e^{-2} on t <= -1/2,
    # -exp(1/t)/t^2 on (-1/2, 0), 0 on t >= 0
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    left = t <= -0.5
    out[left] = -4.0 * np.exp(-2.0) * t[left]
    mid = (t > -0.5) & (t < 0.0)
    out[mid] = -np.exp(1.0 / t[mid]) / t[mid]
    return out


# t * l'(t) for each margin loss a bounded range grids over
_LOSS_DERIVS = {"logistic": _logistic_tlp, "hinge": _hinge_tlp,
                "exponential": _exponential_tlp, "dichotomy": _dichotomy_tlp}

_ANALYTIC_BOUNDS = {
    "square": (-np.inf, np.inf),
    "logistic": (None, np.inf),   # a filled with -W(1/e) lazily
    "hinge": (-1.0, np.inf),
    "exponential": (-np.exp(-1.0), np.inf),
    "dichotomy": (0.0, np.inf),
}


def margin_bounds(loss_kind: str, t_range: tuple[float, float] | None = None
                  ) -> tuple[float, float]:
    """(inf, sup) of t * l'(t) over the margin range.

    With t_range None the range is the whole real line and the values are
    analytic. A bounded range is handled by a dense grid plus local
    refinement. The square loss keeps a free real label, so its bounds
    are (-inf, inf) regardless of the margin range.
    """
    if loss_kind not in _ANALYTIC_BOUNDS:
        raise DomainError(f"unknown loss kind {loss_kind!r}")
    if loss_kind == "square":
        return (-np.inf, np.inf)
    if t_range is None:
        a, b = _ANALYTIC_BOUNDS[loss_kind]
        if a is None:
            a = -lambert_w0(np.exp(-1.0))
        return (float(a), float(b))

    lo, hi = float(t_range[0]), float(t_range[1])
    if not lo <= hi:
        raise DomainError("empty margin range")
    fn = _LOSS_DERIVS[loss_kind]
    grid = np.linspace(lo, hi, 4001)
    vals = fn(grid)

    def refine(idx, sign):
        g_lo = grid[max(idx - 1, 0)]
        g_hi = grid[min(idx + 1, grid.size - 1)]
        if g_hi <= g_lo:
            return sign * vals[idx]
        res = minimize_scalar(lambda t: sign * fn(np.array([t]))[0],
                              bounds=(g_lo, g_hi), method="bounded",
                              options={"xatol": 1e-12})
        return min(res.fun, sign * vals[idx])

    a = refine(int(np.argmin(vals)), 1.0)
    b = -refine(int(np.argmax(vals)), -1.0)
    return (float(a), float(b))


def lambda_threshold(align: float, a: float, b: float) -> float:
    """Critical poison fraction for a scalar alignment with bounds (a, b).

    Terms whose denominator is infinite contribute 0; nonpositive
    alignment with b = inf is reachable for any positive fraction.
    """
    align = float(align)
    if not (a - 1e-12 <= align <= b + 1e-12):
        raise DomainError(f"alignment {align} outside margin bounds ({a}, {b})")
    terms = [0.0]
    if np.isfinite(a):
        if align > a:
            terms.append(align / (align - a))
        elif align > 0:
            terms.append(1.0)
    if np.isfinite(b):
        if align < b:
            terms.append(-align / (b - align))
        elif align < 0:
            terms.append(1.0)
    return min(max(terms), 1.0)


def lambda_to_ratio(lam: float) -> float:
    """Convert an absolute poison fraction lambda to the ratio eps_d."""
    if lam >= 1.0:
        return np.inf
    return lam / (1.0 - lam)


def ratio_to_lambda(eps_d: float) -> float:
    return eps_d / (1.0 + eps_d)


def tau_threshold(spec: ModelSpec, params, ds: Dataset,
                  c_convention: int | None = None) -> ThresholdReport:
    """Full threshold report for a target parameter on clean data.

    tau uses c classes (or the c_convention override); tau2 always uses
    the 2-class denominator W(1/e), the variant that tracks attack
    success most closely in practice. Regression families are reachable
    at any positive ratio, so their report has tau = 0 with unbounded
    margin bounds.

    Degenerate targets are flagged rather than resolved: a vanishing
    mean gradient makes poisoning trivial (reuse the clean data), while
    zero alignment with a nonzero gradient leaves reachability to a
    membership_check on the discretized domain.
    """
    params = check_params(spec, params)
    g = mean_param_grad(spec, params, ds)
    align = _alignment(spec, params, g)
    if spec.family == LEAST_SQUARES:
        return ThresholdReport(alignment=align, a=-np.inf, b=np.inf,
                               lambda_star=0.0, tau=0.0, tau2=0.0,
                               degenerate=DEGENERATE_NONE, c_used=0)

    if c_convention is not None and c_convention < 2:
        raise DomainError("c_convention must be >= 2")
    c_eff = c_convention if c_convention is not None else \
        (2 if spec.family == LOGISTIC else spec.classes)

    w_c = lambert_w0((c_eff - 1) / np.e)
    a = -w_c
    b = np.inf

    scale = max(1.0, float(np.linalg.norm(params)))
    if np.linalg.norm(g) <= _ZERO_TOL * scale:
        return ThresholdReport(alignment=align, a=a, b=b, lambda_star=0.0,
                               tau=0.0, tau2=0.0,
                               degenerate=DEGENERATE_ZERO_GRAD, c_used=c_eff)

    tau = max(align / w_c, 0.0)
    tau2 = max(align / lambert_w0(np.exp(-1.0)), 0.0)
    lam = tau / (1.0 + tau)
    degenerate = DEGENERATE_NONE
    if abs(align) <= _ZERO_TOL * scale:
        degenerate = DEGENERATE_ZERO_ALIGNMENT
    return ThresholdReport(alignment=align, a=a, b=b, lambda_star=lam,
                           tau=tau, tau2=tau2, degenerate=degenerate,
                           c_used=c_eff)


def merit_floor(spec: ModelSpec, params, ds: Dataset, eps_d: float) -> float:
    """Lower bound on the canceling merit (1/2)|g(mu) + eps_d g(nu)|^2 that
    any poison set nu of ratio eps_d reaches at the target, with mu = ds.

    Every poison point's gradient has <theta, g(x)> >= -W((c-1)/e) along
    the output block theta (the full w for logistic_binary), so the
    residual's component along theta is at least align - eps_d W((c-1)/e),
    with align as in `alignment`. That gives
    (1/2)(max(align - eps_d W((c-1)/e), 0) / |theta|)^2; for logistic_binary
    it is (1/2)(W(1/e) max(tau - eps_d, 0) / |w|)^2, positive exactly below
    `tau_threshold`'s tau. Unclipped logistic_binary attains it at every
    eps_d where the alignment is positive: `_floor_point` gives the poison
    set (every point at one margin, the rest of the residual cancelled),
    so there it is the optimum; under clipping, and for softmax_linear and
    mlp1, it is a lower bound. least_squares labels are free reals: 0.
    """
    if not eps_d > 0:
        raise DomainError("eps_d must be positive")
    params = check_params(spec, params)
    return _merit_floor(spec, params, mean_param_grad(spec, params, ds), eps_d)


def _merit_floor(spec: ModelSpec, params: np.ndarray, g: np.ndarray,
                 eps_d: float) -> float:
    """`merit_floor` from checked parameters and their mean gradient g."""
    if spec.family == LEAST_SQUARES:
        return 0.0
    c = 2 if spec.family == LOGISTIC else spec.classes
    gap = _alignment(spec, params, g) - eps_d * lambert_w0((c - 1) / np.e)
    block = output_block(spec, params) if spec.family == MLP1 else params
    norm = float(np.linalg.norm(block))
    if gap <= 0.0 or norm == 0.0:
        return 0.0
    return 0.5 * (gap / norm) ** 2


def _floor_point(spec: ModelSpec, params: np.ndarray, g: np.ndarray,
                 eps_d: float) -> np.ndarray | None:
    """The sign-folded logistic_binary point z whose poison set attains
    `_merit_floor`: every point x_i = s_i z, s_i = 2 y_i - 1, has margin
    s_i w.x_i = w.z = m and gradient -sigma(-m) z, whatever its label.

    m is the smaller root of m sigma(-m) = a / eps_d, with a = <w, g>, or
    the maximiser 1 + W(1/e) of m sigma(-m) where a / eps_d exceeds its
    peak W(1/e); the component of the residual along w is then
    (a - eps_d m sigma(-m)) w / |w|^2, zero above tau and the floor's gap
    below it. The other term of z, (g - a w / |w|^2) / (eps_d sigma(-m)),
    cancels the rest of the residual. None where a <= 0.
    """
    if spec.family != LOGISTIC:
        raise DomainError("the floor point is defined for logistic_binary")
    align = float(params @ g)
    if align <= 0.0:
        return None
    ratio = align / eps_d
    m = 1.0 + lambert_w0(np.exp(-1.0))
    peak = m * expit(-m)
    if ratio < peak:
        m = brentq(lambda t: t * expit(-t) - ratio, 0.0, m, xtol=1e-300)
    w2 = float(params @ params)
    rest = (g - (align / w2) * params) / (eps_d * expit(-m))
    return (m / w2) * params + rest


def membership_check(g_mu, grads, lam: float, tol: float = 1e-9) -> bool:
    """Whether 0 lies in (1 - lam) g_mu + lam * conv(grads).

    Exact interval arithmetic in one dimension; otherwise the minimum
    infinity-norm residual over the simplex is computed as a linear
    program and compared against `tol` (scaled by the input magnitudes).
    Intended for small discretized domains.
    """
    g_mu = np.asarray(g_mu, dtype=np.float64).ravel()
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim == 1:
        grads = grads[:, None] if g_mu.size == 1 else grads[None, :]
    if grads.shape[0] < 1 or grads.shape[1] != g_mu.size:
        raise DomainError("grads must be a nonempty list of vectors matching g_mu")
    if not 0.0 <= lam <= 1.0:
        raise DomainError("lambda must lie in [0, 1]")

    scale = max(1.0, float(np.abs(g_mu).max(initial=0.0)),
                float(np.abs(grads).max()))
    atol = tol * scale
    base = (1.0 - lam) * g_mu

    if lam == 0.0:
        return bool(np.abs(base).max() <= atol)
    if g_mu.size == 1:
        lo = base[0] + lam * grads[:, 0].min()
        hi = base[0] + lam * grads[:, 0].max()
        return bool(lo <= atol and hi >= -atol)

    n, d = grads.shape
    # variables: theta (n) then t; minimize t with
    # -t <= base_k + lam * (G theta)_k <= t and theta on the simplex
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    a_ub = np.zeros((2 * d, n + 1))
    b_ub = np.zeros(2 * d)
    a_ub[:d, :n] = lam * grads.T
    a_ub[:d, -1] = -1.0
    b_ub[:d] = -base
    a_ub[d:, :n] = -lam * grads.T
    a_ub[d:, -1] = -1.0
    b_ub[d:] = base
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * n + [(0, None)], method="highs")
    if not res.success:
        raise DomainError(f"membership LP failed: {res.message}")
    return bool(res.fun <= atol)


def nn_necessary_tau(spec: ModelSpec, params, ds: Dataset) -> float:
    """Necessary lower bound on the poison ratio for a one-hidden-layer net:
    `tau_threshold`'s multiclass trace condition on the output block alone,
    treating the hidden activations as fixed features.
    """
    if spec.family != MLP1:
        raise DomainError("nn_necessary_tau applies to mlp1 only")
    return tau_threshold(spec, params, ds).tau
