"""Model families: losses, parameter gradients, and mixed second-order products.

Four families share one flat-parameter interface:

  least_squares     l = (1/2)(y - w.x)^2                     params: w (d,)
  logistic_binary   l = log(1 + exp(-s * w.x)), s = 2y-1     params: w (d,)
  softmax_linear    l = cross-entropy of h = W^T x           params: W (d, c)
  mlp1              l = cross-entropy of h = W^T phi(x)      params: (U, W)
                    phi(x) = leaky_relu(U x), U (m, d), W (m, c)

Every parameter gradient is linear in the output error q = prediction - t,
with t the float label targets (`_targets`: y, or its one-hot rows). Each
family's closed forms are written once, in three private helpers:

  _error             q and the forward state the other two reuse
  _mean_from_error   the mean parameter gradient
  _mixed             rows of grad_x <param_grad(x_i, t_i), v>, the mixed
                     second-order product (the leaky-ReLU kink contributes
                     zero almost everywhere), and its derivative s in q

`grads_batch`, `mixed_vjp` and the fused `_canceling_pass` (the attack's
residual, feature and label gradients from one forward pass) call them, as
does `_mean_grad_fn`, the label-prepared, unchecked mean gradient that
training calls per step. Its logistic_binary branch is the one
exception: a sign-folded form with one expit per call instead of two,
equal bit for bit for hard labels. `_loss_grad_fn`, the convex families'
training kernel, returns the mean loss with that gradient from one
forward pass, with the bits of `losses_batch`. All losses use log-sum-exp
formulations, and batch reductions run in a fixed order so results are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import CLASSIFICATION, Dataset
from .errors import DomainError, ShapeError

LEAST_SQUARES = "least_squares"
LOGISTIC = "logistic_binary"
SOFTMAX = "softmax_linear"
MLP1 = "mlp1"

FAMILIES = (LEAST_SQUARES, LOGISTIC, SOFTMAX, MLP1)


@dataclass(frozen=True)
class ModelSpec:
    family: str
    input_dim: int
    classes: int = 2
    hidden: int = 0
    leaky_slope: float = 0.2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown model family {self.family!r}")
        if self.input_dim < 1:
            raise DomainError("input_dim must be >= 1")
        if self.family in (SOFTMAX, MLP1) and self.classes < 2:
            raise DomainError("need at least 2 classes")
        if self.family == MLP1:
            if self.hidden < 1:
                raise DomainError("mlp1 needs hidden >= 1")
            if not 0.0 < self.leaky_slope < 1.0:
                raise DomainError("leaky_slope must lie in (0, 1)")

    @property
    def is_classification(self) -> bool:
        return self.family != LEAST_SQUARES

    @property
    def param_dim(self) -> int:
        if self.family in (LEAST_SQUARES, LOGISTIC):
            return self.input_dim
        if self.family == SOFTMAX:
            return self.input_dim * self.classes
        return self.hidden * self.input_dim + self.hidden * self.classes

    def init_params(self, rng: np.random.Generator, scale: float = 0.01) -> np.ndarray:
        return scale * rng.standard_normal(self.param_dim)


def check_params(spec: ModelSpec, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64).ravel()
    if params.shape != (spec.param_dim,):
        raise ShapeError(
            f"params has length {params.size}, {spec.family} needs {spec.param_dim}")
    if not np.all(np.isfinite(params)):
        raise DomainError("non-finite parameter entry")
    return params


def unpack_softmax(spec: ModelSpec, params: np.ndarray) -> np.ndarray:
    return params.reshape(spec.input_dim, spec.classes)


def unpack_mlp(spec: ModelSpec, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cut = spec.hidden * spec.input_dim
    u = params[:cut].reshape(spec.hidden, spec.input_dim)
    w = params[cut:].reshape(spec.hidden, spec.classes)
    return u, w


def _mlp_forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """mlp1 weights U, W, activation slopes d and features phi = d * (x U^T)."""
    u, w = unpack_mlp(spec, params)
    a = x @ u.T
    d = np.where(a > 0, 1.0, spec.leaky_slope)
    return u, w, d, a * d


def output_block(spec: ModelSpec, params: np.ndarray) -> np.ndarray:
    """The last-layer weight matrix (d-or-m, c) of a classification family."""
    if spec.family == SOFTMAX:
        return unpack_softmax(spec, params)
    if spec.family == MLP1:
        return unpack_mlp(spec, params)[1]
    raise DomainError(f"{spec.family} has no multiclass output block")


def _softplus(t):
    # log(1 + exp(t)) without overflow
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _softmax_rows(h: np.ndarray) -> np.ndarray:
    z = h - h.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _jp_apply(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    # rows: (diag(p) - p p^T) s, the softmax Jacobian acting on s
    ps = p * s
    return ps - p * ps.sum(axis=1, keepdims=True)


def _as_batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x[None, :] if x.ndim == 1 else x


def _check_features(spec: ModelSpec, x: np.ndarray):
    if x.shape[1] != spec.input_dim:
        raise ShapeError(f"features have dim {x.shape[1]}, expected {spec.input_dim}")


# ---------------------------------------------------------------------------
# forward pass and output error

def _logits(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Model output h: x.w for the scalar families, class scores otherwise."""
    if spec.family == MLP1:
        _, w, _, phi = _mlp_forward(spec, params, x)
        return phi @ w
    if spec.family == SOFTMAX:
        return x @ unpack_softmax(spec, params)
    return x @ params


def _targets(spec: ModelSpec, y) -> np.ndarray:
    """Float label targets t: y itself, or its one-hot rows for softmax_linear
    and mlp1. Always a new array, so callers may keep it."""
    if spec.family in (SOFTMAX, MLP1):
        yi = np.asarray(y, np.int64).ravel()
        out = np.zeros((yi.shape[0], spec.classes))
        out[np.arange(yi.shape[0]), yi] = 1.0
        return out
    return np.array(y, dtype=np.float64).ravel()


def _error(spec: ModelSpec, params: np.ndarray, x: np.ndarray, t: np.ndarray):
    """Output error q = prediction - t, and the forward state the gradient
    kernels reuse: sigma(z) sigma(-z) for logistic_binary, the softmax rows p
    for softmax_linear and (p, d, phi, dl/da) for mlp1."""
    if spec.family == LEAST_SQUARES:
        return x @ params - t, None
    if spec.family == LOGISTIC:
        z = x @ params
        p, pn = expit(z), expit(-z)
        # equals sigma(z) - t, but exact for hard labels where the naive
        # difference would cancel away the digits of a converged merit
        return (1.0 - t) * p - t * pn, p * pn
    if spec.family == SOFTMAX:
        p = _softmax_rows(_logits(spec, params, x))
        return p - t, p
    _, w, d, phi = _mlp_forward(spec, params, x)
    p = _softmax_rows(phi @ w)
    q = p - t
    return q, (p, d, phi, (q @ w.T) * d)


def _mean_from_error(spec: ModelSpec, x: np.ndarray, q: np.ndarray,
                     state) -> np.ndarray:
    """Mean parameter gradient over the rows of x, from `_error`'s output."""
    n = x.shape[0]
    if spec.family != MLP1:
        # x outer q, flattened row-major to match the params layout
        return ((x.T @ q) / n).ravel()
    _, _, phi, back = state
    return np.concatenate([((back.T @ x) / n).ravel(),
                           ((phi.T @ q) / n).ravel()])


def _mixed(spec: ModelSpec, params: np.ndarray, x: np.ndarray, q: np.ndarray,
           state, v: np.ndarray):
    """Rows gx_i = grad_x <param_grad(x_i, t_i), v> and s_i, the derivative
    of <param_grad(x_i, t_i), v> in q_i, from `_error`'s output.

    Every parameter gradient is linear in q, so the label gradient is -s.
    For mlp1 the piecewise-constant activation derivative has zero second
    derivative almost everywhere, which matches directional differentiation
    of the analytic parameter gradient.
    """
    if spec.family in (LEAST_SQUARES, LOGISTIC):
        s = x @ v
        # dq/dz is 1 for least squares and sigma(z) sigma(-z) for logistic
        dz = s if state is None else state * s
        return dz[:, None] * params[None, :] + q[:, None] * v[None, :], s
    if spec.family == SOFTMAX:
        w, vm = unpack_softmax(spec, params), unpack_softmax(spec, v)
        s = x @ vm
        return q @ vm.T + _jp_apply(state, s) @ w.T, s
    u, w = unpack_mlp(spec, params)
    vu, vw = unpack_mlp(spec, v)
    p, d, phi, back = state
    # <grad_W l, Vw> = phi^T Vw q ; <grad_U l, Vu> = (D (W q))^T Vu x
    s = phi @ vw + ((x @ vu.T) * d) @ w
    return ((q @ vw.T + _jp_apply(p, s) @ w.T) * d) @ u + back @ vu, s


# ---------------------------------------------------------------------------
# losses

def losses_batch(spec: ModelSpec, params: np.ndarray, x, y) -> np.ndarray:
    params = check_params(spec, params)
    x = _as_batch(x)
    _check_features(spec, x)
    h = _logits(spec, params, x)
    if spec.family == LEAST_SQUARES:
        r = h - np.asarray(y, dtype=np.float64).ravel()
        return 0.5 * r * r
    yi = np.asarray(y, dtype=np.int64).ravel()
    if spec.family == LOGISTIC:
        return _softplus(-(2.0 * yi - 1.0) * h)
    z = h - h.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1)) + h.max(axis=1)
    return lse - h[np.arange(h.shape[0]), yi]


def loss(spec: ModelSpec, params, x, y) -> float:
    return float(losses_batch(spec, params, x, [y])[0])


# ---------------------------------------------------------------------------
# parameter gradients

def grads_batch(spec: ModelSpec, params: np.ndarray, x, y) -> np.ndarray:
    """Per-sample parameter gradients, one flat row per sample."""
    params = check_params(spec, params)
    x = _as_batch(x)
    _check_features(spec, x)
    q, state = _error(spec, params, x, _targets(spec, y))
    if spec.family in (LEAST_SQUARES, LOGISTIC):
        return q[:, None] * x
    n = x.shape[0]
    if spec.family == SOFTMAX:
        # per sample: x outer q, flattened row-major to match params layout
        return np.einsum("ni,nk->nik", x, q).reshape(n, -1)
    _, _, phi, back = state
    grad_u = np.einsum("nm,ni->nmi", back, x).reshape(n, -1)
    grad_w = np.einsum("nm,nk->nmk", phi, q).reshape(n, -1)
    return np.hstack([grad_u, grad_w])


def param_grad(spec: ModelSpec, params, x, y) -> np.ndarray:
    return grads_batch(spec, params, x, [y])[0]


def _mean_grad_fn(spec: ModelSpec, x: np.ndarray, y):
    """Unchecked closed-form `params -> mean gradient` over (x, y).

    Labels are prepared once. logistic_binary keeps a form of its own: the
    sign s = 2y - 1 is folded into the features (s = +-1 keeps every bit),
    so a call costs one expit where `_error` costs two; for hard labels both
    give the same bits. Callers validate params.
    """
    if spec.family == LOGISTIC:
        n = x.shape[0]
        sx = _sign_folded(x, y)
        return lambda params: -(sx.T @ expit(-(sx @ params))) / n
    t = _targets(spec, y)
    return lambda params: _mean_from_error(spec, x, *_error(spec, params, x, t))


def _sign_folded(x: np.ndarray, y) -> np.ndarray:
    # rows s_i x_i with s = 2y - 1; s = +-1, so s x @ w is s (x @ w) exactly
    return (2.0 * np.asarray(y, dtype=np.float64) - 1.0)[:, None] * x


def _loss_grad_fn(spec: ModelSpec, x: np.ndarray, y):
    """Unchecked `params -> (mean loss, mean gradient)` over (x, y) for the
    convex families, one forward pass per call.

    The same bits as `losses_batch(...).mean()` and `_mean_grad_fn`:
    logistic_binary uses the sign-folded rows, softmax_linear computes the
    log-sum-exp and the softmax rows from one exponential. Labels are
    prepared once; callers validate params.
    """
    n = x.shape[0]
    if spec.family == LOGISTIC:
        sx = _sign_folded(x, y)

        def logistic(params):
            m = sx @ params
            return float(_softplus(-m).mean()), -(sx.T @ expit(-m)) / n
        return logistic
    t = _targets(spec, y)
    if spec.family == LEAST_SQUARES:
        def least_squares(params):
            r = x @ params - t
            return float((0.5 * r * r).mean()), (x.T @ r) / n
        return least_squares
    rows = (np.arange(n), np.asarray(y, dtype=np.int64).ravel())

    def softmax(params):
        h = x @ unpack_softmax(spec, params)
        top = h.max(axis=1)
        e = np.exp(h - top[:, None])
        total = e.sum(axis=1)
        f = float((np.log(total) + top - h[rows]).mean())
        return f, ((x.T @ (e / total[:, None] - t)) / n).ravel()
    return softmax


def mean_param_grad(spec: ModelSpec, params, ds: Dataset) -> np.ndarray:
    """Average parameter gradient over a dataset, fixed reduction order."""
    return _mean_grad_fn(spec, ds.x, ds.y)(check_params(spec, params))


# ---------------------------------------------------------------------------
# mixed second-order product

def mixed_vjp_batch(spec: ModelSpec, params: np.ndarray, x, y,
                    v: np.ndarray) -> np.ndarray:
    """Rows of grad_x <param_grad(x_i, y_i), v>, shape (n, d).

    Labels are treated as constants; the closed forms are `_mixed`'s.
    """
    params = check_params(spec, params)
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.shape != (spec.param_dim,):
        raise ShapeError("direction v must live in parameter space")
    if not np.all(np.isfinite(v)):
        raise DomainError("non-finite direction entry")
    x = _as_batch(x)
    _check_features(spec, x)
    q, state = _error(spec, params, x, _targets(spec, y))
    return _mixed(spec, params, x, q, state, v)[0]


def mixed_vjp(spec: ModelSpec, params, x, y, v) -> np.ndarray:
    return mixed_vjp_batch(spec, params, x, [y], v)[0]


# ---------------------------------------------------------------------------
# fused canceling pass

def _canceling_pass(spec: ModelSpec, params: np.ndarray, x: np.ndarray,
                    t: np.ndarray, g_mu: np.ndarray, eps_d: float):
    """Residual and its poison-side gradients from one forward pass.

    t holds float label targets: shape (n,) for least_squares and
    logistic_binary, (n, c) rows for softmax_linear and mlp1 (the one-hot
    rows for hard labels). Returns

      r   = g_mu + eps_d * mean_i param_grad(x_i, t_i)   over all n rows,
      gx  = rows of grad_x <param_grad(x_i, t_i), r>,
      gt  = d<param_grad(x_i, t_i), r> / dt_i.

    One `_error` call feeds `_mean_from_error` for r and `_mixed` for gx;
    every gradient is linear in q = prediction - t, so gt = -s. Nothing is
    validated here: the caller checks params once per attack.
    """
    q, state = _error(spec, params, x, t)
    residual = g_mu + eps_d * _mean_from_error(spec, x, q, state)
    gx, s = _mixed(spec, params, x, q, state, residual)
    return residual, gx, -s


# ---------------------------------------------------------------------------
# prediction

def predict_batch(spec: ModelSpec, params: np.ndarray, x) -> np.ndarray:
    params = check_params(spec, params)
    if not spec.is_classification:
        raise DomainError("predict is defined for classification families only")
    x = _as_batch(x)
    _check_features(spec, x)
    h = _logits(spec, params, x)
    if spec.family == LOGISTIC:
        # sign rule with ties to class 0
        return (h > 0).astype(np.int64)
    return np.argmax(h, axis=1).astype(np.int64)


def predict(spec: ModelSpec, params, x) -> int:
    return int(predict_batch(spec, params, x)[0])


def accuracy(spec: ModelSpec, params, ds: Dataset) -> float:
    if ds.task != CLASSIFICATION:
        raise DomainError("accuracy is defined on classification datasets only")
    pred = predict_batch(spec, params, ds.x)
    return float(np.mean(pred == ds.y))
