"""`optim.lbfgsb` against `scipy.optimize.minimize`, bit for bit.

The driver runs scipy's L-BFGS-B loop around its compiled `setulb`
without `minimize`'s per-evaluation wrapper. On the objectives the
library solves (the convex families' training losses and the canceling
objective of the attack's polish) it must return the same x, f,
gradient, iteration count and evaluation count as `minimize(...,
method="L-BFGS-B", jac=True)` at ftol 0, and merits that are
`minimize`'s callback values after f(x0).
"""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import poisonlab as pl
from poisonlab import optim
from poisonlab.attack import _poison_count, _polish
from poisonlab.data import CLASSIFICATION, REGRESSION, Dataset
from poisonlab.mathcore import make_rng
from poisonlab.models import ModelSpec, _loss_grad_fn, mean_param_grad
from poisonlab.optim import _scipy_blas_threads

TRAINING = {
    "least_squares": ModelSpec("least_squares", 3),
    "logistic_binary": ModelSpec("logistic_binary", 3),
    "softmax_linear": ModelSpec("softmax_linear", 3, classes=3),
}


def training_problem(family, seed, n):
    """A training objective as `harness.train` solves it, and its init."""
    spec = TRAINING[family]
    rng = make_rng(seed)
    x = 2.0 * rng.standard_normal((n, spec.input_dim))
    if family == "least_squares":
        ds = Dataset(x, rng.standard_normal(n), REGRESSION)
    else:
        ds = Dataset(x, rng.integers(0, spec.classes, n), CLASSIFICATION,
                     spec.classes)
    x0 = spec.init_params(make_rng(seed, stream=5), 0.5)
    return _loss_grad_fn(spec, ds.x, ds.y), x0, 1e-10


def canceling_problem(free_labels, seed, clip_mode):
    """`_polish`'s own objective, start point and bounds: logistic features
    on OR, or least-squares features with free labels."""
    if free_labels:
        clean = pl.gen_gauss_regression(seed, n=10, d=2,
                                        w_true=np.array([1.0, -1.0]),
                                        noise=0.1)
        spec = ModelSpec("least_squares", 3)
    else:
        clean = pl.gen_or(seed=seed, reps=3)
        spec = ModelSpec("logistic_binary", 3)
    target = make_rng(seed, stream=1).standard_normal(3)
    eps_d = 0.5
    count = _poison_count(clean.n, eps_d)
    xs = clean.x[:count].copy()
    t = clean.y[:count].astype(np.float64)
    seen = {}

    def capture(fun, x0, bounds, *rest):
        seen.update(fun=fun, x0=x0, bounds=bounds)
        return optim.LbfgsbResult(x0, np.inf, None, 0, 0, [])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "lbfgsb", capture)
        _polish(spec, target, xs, t, free_labels,
                mean_param_grad(spec, target, clean), eps_d,
                clean.domain_box, clip_mode, None)
    return seen["fun"], seen["x0"], seen["bounds"]


def same_as_minimize(fun, x0, bounds, maxiter, gtol):
    recorded = []

    def record(intermediate_result):
        recorded.append(intermediate_result.fun)

    ref = scipy.optimize.minimize(
        fun, x0, jac=True, method="L-BFGS-B", callback=record,
        bounds=None if bounds is None else scipy.optimize.Bounds(*bounds),
        options={"maxiter": maxiter, "ftol": 0.0, "gtol": gtol})
    got = optim.lbfgsb(fun, x0, bounds, maxiter, gtol)
    start = x0 if bounds is None else np.clip(x0, *bounds)
    assert np.array_equal(got.x, ref.x)
    assert got.fun == ref.fun
    assert np.array_equal(got.jac, ref.jac)
    assert (got.nit, got.nfev) == (ref.nit, ref.nfev)
    assert got.merits == [fun(start)[0]] + recorded


MAXITER = st.sampled_from([1, 2, 3, 1000])


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(TRAINING)),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25),
       boxed=st.booleans(), maxiter=MAXITER)
def test_training_solves_match_minimize(family, seed, n, boxed, maxiter):
    fun, x0, gtol = training_problem(family, seed, n)
    bounds = (np.full(x0.size, -0.5), np.full(x0.size, 0.5)) if boxed \
        else None
    same_as_minimize(fun, x0, bounds, maxiter, gtol)


@settings(max_examples=30, deadline=None)
@given(free_labels=st.booleans(), seed=st.integers(0, 2**16),
       clip_mode=st.sampled_from(["box", "none"]), maxiter=MAXITER)
def test_canceling_solves_match_minimize(free_labels, seed, clip_mode,
                                         maxiter):
    fun, x0, bounds = canceling_problem(free_labels, seed, clip_mode)
    assert (bounds is None) == (clip_mode == "none")
    same_as_minimize(fun, x0, bounds, maxiter, 1e-16)


def test_objective_exception_propagates():
    fun, x0, gtol = training_problem("logistic_binary", 0, 10)
    calls = []

    def failing(x):
        calls.append(x)
        if len(calls) == 3:
            raise ArithmeticError("third evaluation")
        return fun(x)

    with pytest.raises(ArithmeticError, match="third evaluation"):
        optim.lbfgsb(failing, x0, None, 1000, gtol)
    assert len(calls) == 3


def test_objective_runs_on_one_blas_thread_then_restores():
    ctl = _scipy_blas_threads()
    if ctl is None:
        pytest.skip("scipy build without its bundled OpenBLAS")
    get, put = ctl
    before = get()
    put(2)
    try:
        fun, x0, gtol = training_problem("softmax_linear", 1, 12)
        seen = set()

        def watched(x):
            seen.add(get())
            return fun(x)

        optim.lbfgsb(watched, x0, None, 50, gtol)
        assert seen == {1}
        assert get() == 2

        def failing(x):
            raise RuntimeError("inside the objective")

        with pytest.raises(RuntimeError):
            optim.lbfgsb(failing, x0, None, 50, gtol)
        assert get() == 2
    finally:
        put(before)
