"""Small optimization helpers shared by the attack and training loops."""

from __future__ import annotations

import numpy as np

from .errors import DomainError

COSINE = "cosine"
CONSTANT = "constant"


def schedule_lr(lr: float, schedule: str, epoch: int, total: int) -> float:
    if schedule == CONSTANT:
        return lr
    if schedule == COSINE:
        return lr * 0.5 * (1.0 + np.cos(np.pi * epoch / total))
    raise DomainError(f"unknown schedule {schedule!r}")


def check_descent_options(opts) -> None:
    """Range checks shared by the attack's and training's option sets."""
    if opts.epochs < 1:
        raise DomainError("epochs must be >= 1")
    if opts.lr <= 0:
        raise DomainError("lr must be positive")
    if not 0.0 <= opts.momentum < 1.0:
        raise DomainError("momentum must lie in [0, 1)")
    if opts.schedule not in (COSINE, CONSTANT):
        raise DomainError(f"unknown schedule {opts.schedule!r}")
    if opts.batch_size is not None and opts.batch_size < 1:
        raise DomainError("batch_size must be >= 1")


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
