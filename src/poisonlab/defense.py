"""Defenses: gradient-outlier filtering and partition-aggregation voting."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DomainError, EmptyPartitionError
from .mathcore import derive_seed, top_singular_vector
from .models import ModelSpec, grads_batch, predict_batch
from .harness import TrainOptions, train


def sever_filter(mixed: Dataset, spec: ModelSpec, trained, fraction: float,
                 rounds: int = 2, train_opts: TrainOptions | None = None,
                 seed: int = 0) -> Dataset:
    """Iteratively drop the samples most responsible for gradient spread.

    Each round stacks per-sample gradients at the current parameters,
    centers them, scores every sample by its squared projection onto the
    top singular direction, removes the highest scorers, and retrains on
    the remainder. The total removal is spread evenly over the rounds and
    ends at exactly ceil((1 - fraction) * n) survivors.
    """
    if not 0.0 < fraction < 1.0:
        raise DomainError("fraction must lie strictly in (0, 1)")
    if rounds < 1:
        raise DomainError("rounds must be >= 1")
    n0 = mixed.n
    final_keep = int(np.ceil((1.0 - fraction) * n0))
    total_remove = n0 - final_keep
    if final_keep < 1:
        raise DomainError("fraction would remove every sample")
    per_round = [total_remove // rounds] * rounds
    for i in range(total_remove % rounds):
        per_round[i] += 1

    opts = train_opts or TrainOptions()
    current = mixed
    params = np.asarray(trained, dtype=np.float64).ravel()
    for r, k in enumerate(per_round):
        if k > 0:
            grads = grads_batch(spec, params, current.x, current.y)
            centered = grads - grads.mean(axis=0)
            direction, _ = top_singular_vector(centered)
            scores = (centered @ direction) ** 2
            order = np.argsort(-scores, kind="stable")
            keep = np.sort(order[k:])
            current = current.subset(keep)
        if r < rounds - 1:
            params = train(spec, current, opts, derive_seed(seed, "sever", r))
    return current


@dataclass(frozen=True)
class Ensemble:
    k: int
    members: tuple  # per-partition parameter vectors
    seed: int
    spec: ModelSpec


def partition_of(index: int, seed: int, k: int) -> int:
    """Pure hash assignment of a sample index to one of k partitions."""
    tag = f"{seed}:{index}".encode()
    h = int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")
    return h % k


def dpa_train(mixed: Dataset, spec: ModelSpec, k: int, seed: int = 0,
              train_opts: TrainOptions | None = None) -> Ensemble:
    """Train one base model per hash partition of the training set."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if k > mixed.n:
        raise EmptyPartitionError(f"k={k} exceeds the {mixed.n} samples")
    assign = np.array([partition_of(i, seed, k) for i in range(mixed.n)])
    parts = [np.nonzero(assign == j)[0] for j in range(k)]
    for j, idx in enumerate(parts):
        if idx.size == 0:
            raise EmptyPartitionError(f"partition {j} of {k} received no samples")
    members = tuple(train(spec, mixed.subset(idx), train_opts,
                          derive_seed(seed, "dpa", j))
                    for j, idx in enumerate(parts))
    return Ensemble(k=k, members=members, seed=seed, spec=spec)


def dpa_votes(ensemble: Ensemble, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    votes = np.stack([predict_batch(ensemble.spec, m, x)
                      for m in ensemble.members], axis=0)  # (k, n)
    counts = np.zeros((x.shape[0], ensemble.spec.classes), dtype=np.int64)
    for j in range(ensemble.k):
        counts[np.arange(x.shape[0]), votes[j]] += 1
    return counts[0] if single else counts


def certificate_from_counts(counts: np.ndarray) -> tuple[int, int]:
    """Plurality label (ties to the smaller index) and its poisoning budget.

    The budget is the number of base models an adversary may fully
    control without being able to flip the vote:
    floor((n_top - n_second - [second < top]) / 2).
    """
    counts = np.asarray(counts)
    top = int(np.argmax(counts))
    rest = counts.copy()
    rest[top] = -1
    second = int(np.argmax(rest))
    gap = int(counts[top]) - int(counts[second]) - (1 if second < top else 0)
    return top, max(gap // 2, 0)


def dpa_predict(ensemble: Ensemble, x) -> tuple[int, int]:
    """Plurality-vote label and certified poisoning budget for one input."""
    counts = dpa_votes(ensemble, np.asarray(x, dtype=np.float64).ravel())
    return certificate_from_counts(counts)
