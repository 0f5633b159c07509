"""Scalar special functions, dense linear-algebra helpers, and seeded randomness.

Everything here is pure and deterministic: Lambert W is scipy's
`scipy.special.lambertw` on the principal branch, the power iteration
starts from a fixed internal seed, and random streams are Philox
counter-based generators keyed by (seed, stream). Philox is the
project-wide generator and must not change, since test expectations are
frozen against its output.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import lambertw

from .errors import DomainError

_INV_E = float(np.exp(-1.0))
# x may undershoot -1/e by this much before we call it a domain error
_BRANCH_SLACK = 1e-15

_POWER_ITER_SEED = 0x5EED_50F7
_POWER_ITERS = 200
_POWER_TOL = 1e-12


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based Philox generator for the given (seed, stream) pair.

    Equal pairs give bit-identical sequences on every platform; distinct
    streams with the same seed are statistically independent.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(stream & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(*parts) -> int:
    """Stable 63-bit seed derived from arbitrary (int or str) parts.

    Used to give sweep cells and defense rounds independent, reproducible
    streams without coordinating counters.
    """
    tag = ":".join(str(p) for p in parts).encode()
    digest = hashlib.blake2b(tag, digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFFFFFFFFFF


def lambert_w0(x: float) -> float:
    """Principal branch of Lambert's W: the w >= -1 solving w*exp(w) = x.

    scipy's `lambertw` on branch 0, but x <= -1/e gives -1 (scipy gives
    nan at -1/e). Raises DomainError for non-finite x and for x < -1/e
    beyond a 1e-15 slack.
    """
    x = float(x)
    if not np.isfinite(x):
        raise DomainError(f"lambert_w0 requires finite x, got {x!r}")
    if x < -_INV_E - _BRANCH_SLACK:
        raise DomainError(f"lambert_w0 undefined for x={x!r} < -1/e")
    if x <= -_INV_E:
        return -1.0
    return float(lambertw(x).real)


def top_singular_vector(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Top right-singular vector and singular value of a dense matrix.

    Power iteration on m.T @ m from a fixed internal seed; at most 200
    iterations or until the relative change drops below 1e-12, so the
    result is deterministic. The sign is canonicalized so the largest-
    magnitude component of v is positive. The all-zero matrix returns
    sigma = 0 with v = e_1.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DomainError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    d = m.shape[1]
    if not np.any(m):
        v = np.zeros(d)
        v[0] = 1.0
        return v, 0.0

    a = m.T @ m
    rng = make_rng(_POWER_ITER_SEED, stream=d)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    for _ in range(_POWER_ITERS):
        av = a @ v
        norm = np.linalg.norm(av)
        if norm == 0.0:
            # v landed in the null space; restart deterministically
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            continue
        v_new = av / norm
        if 1.0 - abs(float(v_new @ v)) < _POWER_TOL:
            v = v_new
            break
        v = v_new

    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        v = -v
    sigma = float(np.linalg.norm(m @ v))
    return v, sigma
