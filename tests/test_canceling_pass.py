"""The fused canceling pass against the public kernels and finite differences.

Labels enter every family's parameter gradient and mixed product through
the output error q = prediction - t, which is affine in t. A soft label
therefore gives the same result as the t-weighted mix of the hard labels,
so the public, hard-label kernels are an oracle for soft labels too; for
hard labels the mix is exactly the public kernel's result.

`_canceling_pass`, `grads_batch` and `mixed_vjp_batch` all run through
`models._error`, `_mean_from_error` and `_mixed`, so the comparison with
the public kernels checks the label mix and the reductions, not the
closed forms themselves. The finite-difference test here and those in
test_models.py are the independent check on the closed forms.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poisonlab.mathcore import make_rng
from poisonlab.models import (ModelSpec, _canceling_pass, _targets, grads_batch,
                              mixed_vjp_batch, unpack_mlp)

SPECS = [
    ModelSpec("least_squares", 4),
    ModelSpec("logistic_binary", 4),
    ModelSpec("softmax_linear", 4, classes=3),
    ModelSpec("mlp1", 4, classes=3, hidden=5),
]
CASES = [(spec, soft) for spec in SPECS for soft in (False, True)
         if not (spec.family == "least_squares" and soft)]
IDS = [f"{spec.family}-{'soft' if soft else 'hard'}" for spec, soft in CASES]
SEEDS = st.integers(0, 2**32 - 1)


def draw(spec, soft, seed):
    """Random poison set with float label targets t, hard or soft."""
    rng = make_rng(seed)
    n = int(rng.integers(1, 13))
    params = 0.7 * rng.standard_normal(spec.param_dim)
    x = rng.standard_normal((n, spec.input_dim))
    g_mu = rng.standard_normal(spec.param_dim)
    eps_d = float(rng.uniform(0.1, 3.0))
    if spec.family == "least_squares":
        y = rng.standard_normal(n)
        t = y.copy()
    elif spec.family == "logistic_binary":
        y = rng.integers(0, 2, n)
        t = rng.uniform(0.0, 1.0, n) if soft else y.astype(np.float64)
    else:
        y = rng.integers(0, spec.classes, n)
        t = rng.dirichlet(np.ones(spec.classes), n) if soft \
            else _targets(spec, y)
    return rng, params, x, t, g_mu, eps_d


def label_mix(spec, t, per_label):
    """sum_k w_k(t) * per_label(k): soft targets as a mix of hard labels."""
    if spec.family == "least_squares":
        return per_label(t)
    w = np.stack([1.0 - t, t], axis=1) if spec.family == "logistic_binary" else t
    n = w.shape[0]
    return sum(w[:, k][:, None] * per_label(np.full(n, k))
               for k in range(w.shape[1]))


@pytest.mark.parametrize("spec,soft", CASES, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_matches_public_kernels(spec, soft, seed):
    _, params, x, t, g_mu, eps_d = draw(spec, soft, seed)
    residual, gx, gt = _canceling_pass(spec, params, x, t, g_mu, eps_d)

    grads = label_mix(spec, t, lambda lab: grads_batch(spec, params, x, lab))
    expected = g_mu + eps_d * grads.mean(axis=0)
    scale = np.abs(g_mu).max() + eps_d * np.abs(grads).max()
    np.testing.assert_allclose(residual, expected, rtol=1e-12,
                               atol=1e-12 * scale)

    mixed = label_mix(spec, t, lambda lab: mixed_vjp_batch(
        spec, params, x, lab, residual))
    np.testing.assert_allclose(gx, mixed, rtol=1e-12,
                               atol=1e-12 * max(1.0, np.abs(mixed).max()))
    assert gt.shape == t.shape


@pytest.mark.parametrize("spec,soft", CASES, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_gradients_match_finite_differences(spec, soft, seed):
    # merit M = |r|^2 / 2 with r = g_mu + (eps_d / n) sum_i g(x_i, t_i), so
    # dM/dx_i = (eps_d / n) gx_i and dM/dt_i = (eps_d / n) gt_i
    rng, params, x, t, g_mu, eps_d = draw(spec, soft, seed)
    if spec.family == "mlp1":
        u, _ = unpack_mlp(spec, params)
        assume(np.abs(x @ u.T).min() > 1e-3)  # stay off the leaky-ReLU kink
    n = x.shape[0]
    _, gx, gt = _canceling_pass(spec, params, x, t, g_mu, eps_d)

    def merit(xx, tt):
        r = _canceling_pass(spec, params, xx, tt, g_mu, eps_d)[0]
        return 0.5 * float(r @ r)

    h = 1e-6
    for grad, direction, shift in (
            (gx, rng.standard_normal(x.shape), lambda e: (x + e, t)),
            (gt, rng.standard_normal(t.shape), lambda e: (x, t + e))):
        fd = (merit(*shift(h * direction)) - merit(*shift(-h * direction))) \
            / (2 * h)
        predicted = eps_d / n * float(np.sum(grad * direction))
        assert abs(predicted - fd) <= 1e-6 * max(1.0, abs(fd))
