"""Small optimization helpers shared by the attack and training loops."""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# every descent loop (the canceling attack, gradient matching, training)
# runs heavy-ball momentum under a cosine learning-rate decay
MOMENTUM = 0.9


def cosine_lr(lr: float, epoch: int, total: int) -> float:
    return lr * 0.5 * (1.0 + np.cos(np.pi * epoch / total))


def check_descent_options(opts) -> None:
    """Range checks shared by the attack's and training's option sets."""
    if opts.epochs < 1:
        raise DomainError("epochs must be >= 1")
    if opts.lr <= 0:
        raise DomainError("lr must be positive")


def project_simplex_rows(s: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    s = np.asarray(s, dtype=np.float64)
    srt = np.sort(s, axis=1)[:, ::-1]
    csum = np.cumsum(srt, axis=1) - 1.0
    idx = np.arange(1, s.shape[1] + 1)
    cond = srt - csum / idx > 0
    rho = cond.sum(axis=1)
    theta = csum[np.arange(s.shape[0]), rho - 1] / rho
    return np.maximum(s - theta[:, None], 0.0)


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))
