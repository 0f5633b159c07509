"""The stacked trainer behind DPA.

`harness.train_stack` trains k models in one momentum loop over a (k, p)
parameter stack, on training sets zero-padded to one (k, m, d) array. Each
member must match its own `train` call, stop early on its own grad_tol,
raise what `train` raises, and vote as a per-part ensemble does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poisonlab as pl
from poisonlab import harness
from poisonlab.data import CLASSIFICATION, Dataset
from poisonlab.defense import Ensemble, dpa_train, dpa_votes, partition_of
from poisonlab.errors import AttackDivergence
from poisonlab.harness import TrainOptions, train, train_stack
from poisonlab.mathcore import derive_seed, make_rng
from poisonlab.models import ModelSpec, _mean_grad_fn

SPECS = [
    ModelSpec("logistic_binary", 3),
    ModelSpec("softmax_linear", 3, classes=3),
    ModelSpec("mlp1", 3, classes=3, hidden=4),
]
IDS = [spec.family for spec in SPECS]
# a large grad_tol from a wide init: parts stop early at different epochs
EARLY_STOP = TrainOptions(epochs=300, grad_tol=1e-3, init_scale=0.5)


def draw_part(spec, seed, n):
    rng = make_rng(seed)
    x = np.hstack([rng.standard_normal((n, spec.input_dim - 1)),
                   np.ones((n, 1))])
    return Dataset(x, rng.integers(0, spec.classes, n), CLASSIFICATION,
                   spec.classes)


def assert_members_match(got, spec, parts, opts, seeds):
    for member, part, seed in zip(got, parts, seeds):
        want = train(spec, part, opts, seed)
        np.testing.assert_allclose(member, want, rtol=1e-10,
                                   atol=1e-10 * np.abs(want).max())


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1), pscale=st.floats(0.01, 3.0))
def test_stacked_kernel_matches_each_set(spec, sizes, seed, pscale):
    # zero padding rows add nothing to any member's mean gradient
    parts = [draw_part(spec, derive_seed(seed, j), n)
             for j, n in enumerate(sizes)]
    x = np.zeros((len(parts), max(sizes) + 3, spec.input_dim))
    y = np.zeros(x.shape[:2])
    for j, part in enumerate(parts):
        x[j, :part.n], y[j, :part.n] = part.x, part.y
    params = pscale * make_rng(seed, stream=1).standard_normal(
        (len(parts), spec.param_dim))
    got = _mean_grad_fn(spec, x, y, sizes)(params)
    for j, part in enumerate(parts):
        want = _mean_grad_fn(spec, part.x, part.y)(params[j])
        np.testing.assert_allclose(got[j], want, rtol=1e-12,
                                   atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1), early_stop=st.booleans())
def test_members_and_votes_match_per_part_training(spec, sizes, seed,
                                                   early_stop):
    opts = EARLY_STOP if early_stop else TrainOptions(epochs=150)
    parts = [draw_part(spec, derive_seed(seed, j), n)
             for j, n in enumerate(sizes)]
    seeds = [derive_seed(seed, "member", j) for j in range(len(parts))]
    got = train_stack(spec, parts, opts, seeds)
    assert_members_match(got, spec, parts, opts, seeds)
    test_x = draw_part(spec, derive_seed(seed, "test"), 30).x
    votes = [dpa_votes(Ensemble(len(parts), tuple(members), 0, spec), test_x)
             for members in (got, [train(spec, p, opts, s)
                                   for p, s in zip(parts, seeds)])]
    assert np.array_equal(*votes)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_some_parts_stop_early(spec):
    # the separable OR part and the random-label parts converge at
    # different rates, so one side stops before the epoch budget
    xor = pl.gen_or(seed=0, reps=5)
    parts = [draw_part(spec, 0, 40), draw_part(spec, 2, 17),
             Dataset(xor.x, xor.y, CLASSIFICATION, spec.classes)]
    got = train_stack(spec, parts, EARLY_STOP, [5, 6, 7])
    assert_members_match(got, spec, parts, EARLY_STOP, [5, 6, 7])
    norms = [np.linalg.norm(pl.mean_param_grad(spec, m, p))
             for m, p in zip(got, parts)]
    assert min(norms) < EARLY_STOP.grad_tol < max(norms)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_dpa_trains_partitions_in_one_stacked_call(spec, monkeypatch):
    mixed = draw_part(spec, 4, 120)
    opts = TrainOptions(epochs=200)
    calls = []
    monkeypatch.setattr(harness, "train",
                        lambda *a: calls.append(a) or train(*a))
    ens = dpa_train(mixed, spec, k=6, seed=3, train_opts=opts)
    assert calls == []
    assign = np.array([partition_of(i, 3, 6) for i in range(mixed.n)])
    parts = [mixed.subset(np.nonzero(assign == j)[0]) for j in range(6)]
    assert_members_match(ens.members, spec, parts, opts,
                         [derive_seed(3, "dpa", j) for j in range(6)])


def test_part_above_switch_trains_alone(monkeypatch):
    spec = SPECS[0]
    monkeypatch.setattr(harness, "_SGD_SWITCH_N", 20)
    monkeypatch.setattr(harness, "_SGD_BATCH", 8)
    calls = []
    monkeypatch.setattr(harness, "train",
                        lambda *a: calls.append(a[1].n) or train(*a))
    parts = [draw_part(spec, s, n) for s, n in ((0, 12), (1, 33), (2, 20))]
    opts = TrainOptions(epochs=60)
    got = train_stack(spec, parts, opts, [1, 2, 3])
    assert calls == [33]
    assert_members_match(got, spec, parts, opts, [1, 2, 3])


def test_divergence_raises_what_train_raises():
    # the first member to go non-finite raises, with its own epoch
    spec = SPECS[2]
    parts = [draw_part(spec, 1, 5), draw_part(spec, 0, 30)]
    opts = TrainOptions(lr=1e6)
    errors = []
    with np.errstate(all="ignore"):
        for part, seed in zip(parts, (8, 9)):
            with pytest.raises(AttackDivergence) as err:
                train(spec, part, opts, seed)
            errors.append(str(err.value))
        with pytest.raises(AttackDivergence) as err:
            train_stack(spec, parts, opts, [8, 9])
    assert str(err.value) == min(errors, key=lambda m: int(m.split()[-1]))
