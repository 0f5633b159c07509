"""The prepared mean-gradient kernel and the trainer that calls it.

`models._mean_grad_fn` prepares a training set's labels once and returns
an unchecked `params -> mean gradient` function. It must agree with the
per-sample kernel. Its logistic branch keeps a sign-folded form of its
own, which must give the shared `_error` path's bits for hard labels.
`models._loss_grad_fn`, the convex families' training kernel, must give
the bits of the validating loss and of `_mean_grad_fn` together.

`harness.train` built on them must reproduce, bit for bit, a reference on
the public, validating kernels: for mlp1 the momentum loop calling
`mean_param_grad` and `np.linalg.norm` every epoch, for the convex
families a direct `scipy.optimize.minimize` call on the `losses_batch`
mean and `mean_param_grad`.
"""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from poisonlab.data import CLASSIFICATION, REGRESSION, Dataset
from poisonlab import harness, optim
from poisonlab.harness import TrainOptions, _smoothness_bound, train
from poisonlab.mathcore import make_rng
from poisonlab.models import (ModelSpec, _error, _loss_grad_fn,
                              _mean_from_error, _mean_grad_fn, _targets,
                              grads_batch, losses_batch, mean_param_grad)
from poisonlab.optim import MOMENTUM, cosine_lr

SPECS = [
    ModelSpec("least_squares", 4),
    ModelSpec("logistic_binary", 4),
    ModelSpec("softmax_linear", 4, classes=3),
    ModelSpec("mlp1", 4, classes=3, hidden=5),
]
IDS = [spec.family for spec in SPECS]


def draw_dataset(spec, seed, n):
    rng = make_rng(seed)
    x = rng.standard_normal((n, spec.input_dim))
    if spec.family == "least_squares":
        return Dataset(x, rng.standard_normal(n), REGRESSION)
    classes = 2 if spec.family == "logistic_binary" else spec.classes
    return Dataset(x, rng.integers(0, classes, n), CLASSIFICATION, classes)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
       pscale=st.floats(0.01, 3.0))
def test_matches_mean_of_per_sample_grads(spec, seed, n, pscale):
    ds = draw_dataset(spec, seed, n)
    params = pscale * make_rng(seed, stream=1).standard_normal(spec.param_dim)
    got = _mean_grad_fn(spec, ds.x, ds.y)(params)
    grads = grads_batch(spec, params, ds.x, ds.y)
    np.testing.assert_allclose(got, grads.mean(axis=0), rtol=1e-12,
                               atol=1e-12 * np.abs(grads).max())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
       pscale=st.floats(0.01, 30.0))
def test_logistic_sign_folded_form_matches_shared_path(seed, n, pscale):
    # the one family whose training kernel keeps a form of its own
    spec = SPECS[1]
    ds = draw_dataset(spec, seed, n)
    params = pscale * make_rng(seed, stream=1).standard_normal(spec.param_dim)
    folded = _mean_grad_fn(spec, ds.x, ds.y)(params)
    shared = _mean_from_error(spec, ds.x, *_error(
        spec, params, ds.x, _targets(spec, ds.y)))
    assert np.array_equal(folded, shared)


@pytest.mark.parametrize("spec", SPECS[:3], ids=IDS[:3])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
       pscale=st.floats(0.01, 30.0))
def test_loss_grad_kernel_matches_validated_kernels(spec, seed, n, pscale):
    # the convex families' training kernel: one forward pass, the bits of
    # the validating loss and the prepared gradient
    ds = draw_dataset(spec, seed, n)
    params = pscale * make_rng(seed, stream=1).standard_normal(spec.param_dim)
    f, g = _loss_grad_fn(spec, ds.x, ds.y)(params)
    assert f == float(losses_batch(spec, params, ds.x, ds.y).mean())
    assert np.array_equal(g, _mean_grad_fn(spec, ds.x, ds.y)(params))


def reference_train(spec, ds, opts, seed):
    """mlp1's training loop with a validated kernel call per step.

    Returns the parameters and the number of epochs that took a step.
    """
    rng = make_rng(seed, stream=5)
    params = spec.init_params(rng, opts.init_scale)
    batch = harness._SGD_BATCH if ds.n > harness._SGD_SWITCH_N else None
    lr = opts.lr / max(1.0, _smoothness_bound(ds))
    vel = np.zeros_like(params)
    for epoch in range(opts.epochs):
        lr_t = cosine_lr(lr, epoch, opts.epochs)
        g = mean_param_grad(spec, params, ds)
        if float(np.linalg.norm(g)) < opts.grad_tol:
            return params, epoch
        if batch is None:
            vel = MOMENTUM * vel + g
            params = params - lr_t * vel
        else:
            order = rng.permutation(ds.n)
            for i in range(0, ds.n, batch):
                gb = mean_param_grad(spec, params, ds.subset(order[i:i + batch]))
                vel = MOMENTUM * vel + gb
                params = params - lr_t * vel
    return params, opts.epochs


def reference_solve(spec, ds, opts, seed):
    """The convex families' training: scipy's L-BFGS-B on the validated
    kernels, from the same seeded init; also returns its iteration count."""
    params = spec.init_params(make_rng(seed, stream=5), opts.init_scale)
    res = scipy.optimize.minimize(
        lambda w: (float(losses_batch(spec, w, ds.x, ds.y).mean()),
                   mean_param_grad(spec, w, ds)),
        params, jac=True, method="L-BFGS-B",
        options={"maxiter": opts.epochs, "ftol": 0.0,
                 "gtol": opts.grad_tol / np.sqrt(spec.param_dim)})
    return res.x, res.nit


TRAIN_CASES = {
    "full_batch": TrainOptions(epochs=150),
    # mlp1 takes mini-batches of 16 once the set exceeds 50 samples; the
    # convex families stay full batch
    "batch_size": TrainOptions(epochs=25),
    "grad_tol": TrainOptions(epochs=400, grad_tol=2e-2, init_scale=0.5),
}


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
@pytest.mark.parametrize("case", sorted(TRAIN_CASES))
def test_train_matches_validated_reference(spec, case, monkeypatch):
    opts = TRAIN_CASES[case]
    if case == "batch_size":
        monkeypatch.setattr(harness, "_SGD_SWITCH_N", 50)
        monkeypatch.setattr(harness, "_SGD_BATCH", 16)
    ds = draw_dataset(spec, seed=3, n=60)
    reference = reference_train if spec.family == "mlp1" else reference_solve
    expected, steps = reference(spec, ds, opts, seed=11)
    if case == "grad_tol":
        assert 0 < steps < opts.epochs  # the early stop is exercised
    assert np.array_equal(train(spec, ds, opts, seed=11), expected)


# the curvature of each convex family's mean loss is at most this factor
# times the top squared singular value of x / sqrt(n)
CURVATURE = {"least_squares": 1.0, "logistic_binary": 0.25,
             "softmax_linear": 0.5}
CONVEX = [spec for spec in SPECS if spec.family in CURVATURE]


@pytest.mark.parametrize("spec", CONVEX, ids=[s.family for s in CONVEX])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
       scale=st.floats(0.1, 10.0), separable=st.booleans(),
       epochs=st.sampled_from([3, 1000]))
def test_convex_training_meets_grad_tol_or_the_float_floor(
        spec, seed, n, scale, separable, epochs):
    # separable sets take labels from a linear rule (an exact fit for
    # least squares), so there the classification loss has no minimiser
    ds = draw_dataset(spec, seed, n)
    x = scale * ds.x
    if separable:
        w = make_rng(seed, stream=2).standard_normal(spec.param_dim)
        h = x @ w.reshape(spec.input_dim, -1)
        y = (h[:, 0] if spec.family == "least_squares"
             else (h[:, 0] > 0).astype(int) if spec.family == "logistic_binary"
             else h.argmax(axis=1))
    else:
        y = ds.y
    ds = Dataset(x, y, ds.task, ds.classes)
    opts = TrainOptions(epochs=epochs)
    results = []
    real = optim.lbfgsb

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "lbfgsb", spy)
        params = train(spec, ds, opts, seed)
    assert np.array_equal(params, train(spec, ds, opts, seed))
    assert np.isfinite(params).all()
    grad_norm = float(np.linalg.norm(mean_param_grad(spec, params, ds)))
    if grad_norm <= opts.grad_tol or sum(r.nit for r in results) == epochs:
        return
    # otherwise the float loss stopped the solve: even a gradient step of
    # 1 / curvature, which lowers the loss by |g|^2 / (2 curvature), would
    # change it by only a few units in its last place
    sigma = np.linalg.svd(x / np.sqrt(n), compute_uv=False)[0]
    gain = grad_norm ** 2 / (2.0 * CURVATURE[spec.family] * sigma ** 2)
    loss = float(losses_batch(spec, params, x, y).mean())
    assert gain <= 16 * np.spacing(loss)
