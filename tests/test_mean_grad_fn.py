"""The prepared mean-gradient kernel and the training loop that calls it.

`models._mean_grad_fn` prepares a training set's labels once and returns
an unchecked `params -> mean gradient` function. It must agree with the
per-sample kernel, and `harness.train` built on it must reproduce, bit
for bit, a loop that calls the public, validating `mean_param_grad` and
`np.linalg.norm` every epoch. Its logistic branch keeps a sign-folded
form of its own, which must give the shared `_error` path's bits for hard
labels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisonlab.data import CLASSIFICATION, REGRESSION, Dataset
from poisonlab import harness
from poisonlab.harness import TrainOptions, _smoothness_bound, train
from poisonlab.mathcore import make_rng
from poisonlab.models import (ModelSpec, _error, _mean_from_error,
                              _mean_grad_fn, _targets, grads_batch,
                              mean_param_grad)
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


def reference_train(spec, ds, opts, seed):
    """The training loop with a validated kernel call per step.

    Returns the parameters and the number of epochs that took a step.
    """
    rng = make_rng(seed, stream=5)
    params = spec.init_params(rng, opts.init_scale)
    batch = harness._SGD_BATCH if ds.n > harness._SGD_SWITCH_N else None
    lr = opts.lr / max(1.0, _smoothness_bound(spec, ds))
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


TRAIN_CASES = {
    "full_batch": TrainOptions(epochs=150),
    # mini-batches of 16 once the set exceeds 50 samples
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
    expected, steps = reference_train(spec, ds, opts, seed=11)
    if case == "grad_tol":
        assert 0 < steps < opts.epochs  # the early stop is exercised
    assert np.array_equal(train(spec, ds, opts, seed=11), expected)
