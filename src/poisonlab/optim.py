"""Small optimization helpers shared by the attack and training."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

from .errors import DomainError

# every descent loop (the canceling attack, gradient matching, mlp1
# training) runs heavy-ball momentum under a cosine learning-rate decay
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


@functools.cache
def _scipy_blas_threads():
    """(get, set) thread count of scipy's bundled OpenBLAS, or None."""
    import scipy

    libs = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads"):
            get, put = (lib.scipy_openblas_get_num_threads,
                        lib.scipy_openblas_set_num_threads)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def _serial_scipy_blas():
    """Run scipy's own BLAS on one thread inside the block, then restore.

    L-BFGS-B's BLAS calls are too small to split: on 2 cores a second
    thread made a 15-variable solve 9x slower, and its spinning worker
    halved the caller's speed for the next 0.1 s. It also makes the
    solve independent of the core count. A no-op without the bundled
    OpenBLAS.
    """
    ctl = _scipy_blas_threads()
    if ctl is None:
        yield
        return
    get, put = ctl
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
