"""DPA's partition models.

`defense.dpa_train` trains one model per hash partition of the training
set, each through its own `harness.train` call with the seed
derive_seed(seed, "dpa", j). Each member must equal that call bit for bit,
the ensemble must vote as a per-part ensemble does, and a part whose
training diverges must raise what `train` raises.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poisonlab.data import CLASSIFICATION, Dataset
from poisonlab.defense import Ensemble, dpa_train, dpa_votes, partition_of
from poisonlab.errors import AttackDivergence
from poisonlab.harness import TrainOptions, train
from poisonlab.mathcore import derive_seed, make_rng
from poisonlab.models import ModelSpec

SPECS = [
    ModelSpec("logistic_binary", 3),
    ModelSpec("softmax_linear", 3, classes=3),
    ModelSpec("mlp1", 3, classes=3, hidden=4),
]
IDS = [spec.family for spec in SPECS]
# a large grad_tol from a wide init: parts stop at different points
EARLY_STOP = TrainOptions(epochs=300, grad_tol=1e-3, init_scale=0.5)


def draw_part(spec, seed, n):
    rng = make_rng(seed)
    x = np.hstack([rng.standard_normal((n, spec.input_dim - 1)),
                   np.ones((n, 1))])
    return Dataset(x, rng.integers(0, spec.classes, n), CLASSIFICATION,
                   spec.classes)


def hash_parts(n, seed, k):
    assign = np.array([partition_of(i, seed, k) for i in range(n)])
    return [np.nonzero(assign == j)[0] for j in range(k)]


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 80), k=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), early_stop=st.booleans())
def test_members_and_votes_match_per_part_training(spec, n, k, seed,
                                                   early_stop):
    opts = EARLY_STOP if early_stop else TrainOptions(epochs=150)
    mixed = draw_part(spec, seed, n)
    idx = hash_parts(n, seed, k)
    assume(all(part.size > 0 for part in idx))
    parts = [mixed.subset(part) for part in idx]
    ens = dpa_train(mixed, spec, k=k, seed=seed, train_opts=opts)
    want = [train(spec, part, opts, derive_seed(seed, "dpa", j))
            for j, part in enumerate(parts)]
    assert len(ens.members) == k
    for member, ref in zip(ens.members, want):
        assert np.array_equal(member, ref)
    test_x = draw_part(spec, derive_seed(seed, "test"), 30).x
    votes = [dpa_votes(Ensemble(k, tuple(members), seed, spec), test_x)
             for members in (ens.members, want)]
    assert np.array_equal(*votes)


def test_divergence_raises_what_train_raises():
    # mlp1 still steps by train.lr: at 1e6 the first part to go
    # non-finite raises, with its own epoch
    spec = SPECS[2]
    mixed = draw_part(spec, 0, 30)
    opts = TrainOptions(lr=1e6)
    parts = [mixed.subset(part) for part in hash_parts(mixed.n, 3, 2)]
    with np.errstate(all="ignore"):
        with pytest.raises(AttackDivergence) as err:
            train(spec, parts[0], opts, derive_seed(3, "dpa", 0))
        with pytest.raises(AttackDivergence) as got:
            dpa_train(mixed, spec, k=2, seed=3, train_opts=opts)
    assert str(got.value) == str(err.value)
    assert str(err.value).startswith("training diverged at epoch")
