"""Small optimization helpers shared by the attack and training, and the
L-BFGS-B driver both solve with."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from typing import NamedTuple

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


class LbfgsbResult(NamedTuple):
    x: np.ndarray
    fun: float
    jac: np.ndarray
    nit: int
    nfev: int
    merits: list  # f(x0), then f after each iteration


# scipy's defaults: stored corrections, line-search steps, evaluations
_LBFGSB_M, _LBFGSB_MAXLS, _LBFGSB_MAXFUN = 10, 20, 15000


def lbfgsb(fun, x0, bounds, maxiter, gtol) -> LbfgsbResult:
    """L-BFGS-B on fun(x) -> (f, gradient), bit for bit as scipy's
    `minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=...,
    options={"maxiter": maxiter, "ftol": 0.0, "gtol": gtol})`.

    The loop is scipy's own around its compiled `setulb`, with its default
    settings, but without the per-evaluation wrapper of `minimize`, which
    costs more than a small objective. bounds is None or a pair (lo, hi)
    of arrays over x, with -inf or inf on a free side; setulb projects x0
    into them before its first request, as `minimize` clips it. A request
    at the x evaluated last reuses that evaluation. fun must not write
    into its argument; its exceptions propagate. The solve runs on one
    BLAS thread (`_serial_scipy_blas`).
    """
    from scipy.optimize._lbfgsb import setulb

    x = np.array(x0, dtype=np.float64).ravel()
    n = x.size
    lower, upper = (np.full(n, -np.inf), np.full(n, np.inf)) \
        if bounds is None else bounds
    has_lo, has_hi = ~np.isinf(lower), ~np.isinf(upper)
    lo, hi = np.where(has_lo, lower, 0.0), np.where(has_hi, upper, 0.0)
    # setulb's codes: 0 free, 1 lower only, 2 both, 3 upper only
    nbd = np.where(has_lo, np.where(has_hi, 2, 1),
                   np.where(has_hi, 3, 0)).astype(np.int32)
    m = _LBFGSB_M
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = (np.zeros(4, np.int32), np.zeros(44, np.int32),
                           np.zeros(29))
    merits, nit, nfev, last = [], 0, 0, None
    with _serial_scipy_blas():
        while True:
            # setulb gets a copy of the gradient each call, as in scipy
            g = g.astype(np.float64)
            setulb(m, x, lo, hi, nbd, f, g, 0.0, gtol, wa, iwa, task, lsave,
                   isave, dsave, _LBFGSB_MAXLS, ln_task)
            if task[0] == 3:  # evaluate at x
                if last is None or not np.array_equal(x, last[0]):
                    xc = x.copy()
                    last = (xc, *fun(xc))
                    nfev += 1
                    if not merits:
                        merits.append(last[1])
                _, f, g = last
            elif task[0] == 1:  # a new iterate
                nit += 1
                merits.append(f)
                # scipy's stop codes: the iteration and evaluation budgets
                if nit >= maxiter:
                    task[:] = 5, 504
                elif nfev > _LBFGSB_MAXFUN:
                    task[:] = 5, 502
            else:
                return LbfgsbResult(x, f, g, nit, nfev, merits)
