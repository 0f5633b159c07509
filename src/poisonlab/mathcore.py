"""Scalar special functions, dense linear-algebra helpers, and seeded randomness.

Everything here is pure and deterministic: Lambert W is scipy's
`scipy.special.lambertw` on the principal branch, the top singular vector
is LAPACK's (`np.linalg.svd`) with a fixed sign, and random streams are
Philox counter-based generators keyed by (seed, stream). Philox is the
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
    """Top right-singular vector and singular value of a dense matrix by
    LAPACK's thin SVD, exact to rounding even for close singular values.
    v's largest-magnitude component is positive; the zero matrix gives
    (e_1, 0). DomainError for an empty, non-2-D or non-finite matrix.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DomainError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("top_singular_vector requires finite entries")
    if not m.any():
        return np.eye(1, m.shape[1])[0], 0.0
    _, s, vt = np.linalg.svd(m, full_matrices=False)
    v = vt[0]
    return v * np.sign(v[np.argmax(np.abs(v))]), float(s[0])
