import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisonlab.errors import DomainError
from poisonlab.mathcore import (derive_seed, lambert_w0, make_rng,
                                top_singular_vector)

INV_E = float(np.exp(-1.0))


def bisect_w(x, lo=-1.0, hi=800.0):
    # independent oracle: bisection on w*exp(w) = x
    f = lambda w: w * np.exp(w) - x
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_trivial_values(self):
        assert lambert_w0(0.0) == 0.0
        assert abs(lambert_w0(np.e) - 1.0) <= 1e-14
        assert abs(lambert_w0(-INV_E) + 1.0) <= 1e-7

    def test_one_over_e(self):
        oracle = bisect_w(INV_E)
        got = lambert_w0(INV_E)
        assert abs(got - oracle) <= 1e-12
        assert abs(got - 0.27846) <= 5e-6
        assert round(got, 2) == 0.28

    def test_branch_point_and_threshold_denominators(self):
        # -1 exactly at and just inside the slack below -1/e, where
        # scipy's lambertw gives nan; W(1/e) and W(2/e), the c = 2 and 3
        # threshold denominators of every shipped config, to the last bit
        # that the committed out/ files were computed with
        assert lambert_w0(-INV_E) == -1.0
        assert lambert_w0(-INV_E - 5e-16) == -1.0
        assert lambert_w0(INV_E) == 0.2784645427610738
        assert lambert_w0(2.0 * INV_E) == 0.4630555133655489

    def test_domain_error(self):
        with pytest.raises(DomainError):
            lambert_w0(-INV_E - 1e-9)
        with pytest.raises(DomainError):
            lambert_w0(float("nan"))

    def test_round_trip_residuals(self):
        rng = make_rng(123)
        xs = rng.uniform(-INV_E, 1e3, size=1000)
        for x in xs:
            w = lambert_w0(x)
            assert abs(w * np.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_monotone(self):
        rng = make_rng(7)
        xs = np.sort(rng.uniform(-INV_E, 1e3, size=1000))
        ws = np.array([lambert_w0(x) for x in xs])
        assert np.all(np.diff(ws) >= 0)

    @given(st.floats(min_value=-INV_E + 1e-12, max_value=1e3))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, x):
        w = lambert_w0(x)
        assert abs(w * np.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_branch_window_series(self):
        for delta in (0.0, 1e-12, 1e-9, 1e-7):
            x = -INV_E + delta
            w = lambert_w0(x)
            assert w >= -1.0 - 1e-12
            assert abs(w * np.exp(w) - x) <= 1e-12


class TestTopSingularVector:
    def test_diagonal(self):
        v, s = top_singular_vector(np.array([[3.0, 0.0], [0.0, 1.0]]))
        assert abs(s - 3.0) <= 1e-10
        assert abs(abs(v[0]) - 1.0) <= 1e-8

    def test_row_vector(self):
        v, s = top_singular_vector(np.array([[1.0, 1.0]]))
        assert abs(s - np.sqrt(2.0)) <= 1e-10
        assert np.allclose(np.abs(v), np.sqrt(0.5), atol=1e-8)

    def test_zero_matrix(self):
        v, s = top_singular_vector(np.zeros((3, 2)))
        assert s == 0.0
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_unit_norm_and_sigma(self):
        rng = make_rng(5)
        m = rng.standard_normal((6, 4))
        v, s = top_singular_vector(m)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-10
        top_eig = np.linalg.eigvalsh(m.T @ m)[-1]
        assert abs(s * s - top_eig) <= 1e-8 * max(1.0, top_eig)

    def test_against_dense_svd_oracle(self):
        rng = make_rng(11)
        for trial in range(100):
            d = 2 if trial % 2 == 0 else 3
            m = rng.standard_normal((d + 2, d))
            _, s = top_singular_vector(m)
            oracle = np.linalg.svd(m, compute_uv=False)[0]
            assert abs(s - oracle) <= 1e-6 * max(1.0, oracle)

    def test_deterministic(self):
        rng = make_rng(2)
        m = rng.standard_normal((5, 3))
        v1, s1 = top_singular_vector(m)
        v2, s2 = top_singular_vector(m.copy())
        assert np.array_equal(v1, v2) and s1 == s2

    def test_near_degenerate_spectrum(self):
        # the top two singular values differ by 0.1%, where a power
        # iteration gains only a factor (1 - 1e-3)^2 per step
        rng = make_rng(21)
        u, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        w, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        m = u @ np.diag([1.0, 1.0 - 1e-3, 0.3]) @ w.T
        v, s = top_singular_vector(m)
        assert abs(s - 1.0) <= 1e-12
        assert abs(float(v @ w[:, 0])) >= 1.0 - 1e-12
        assert v[np.argmax(np.abs(v))] > 0

    @pytest.mark.parametrize("m", [np.zeros((0, 2)), np.zeros(3),
                                   np.array([[1.0, np.nan]]),
                                   np.array([[np.inf, 0.0], [0.0, 1.0]])])
    def test_bad_input_raises_domain_error(self, m):
        with pytest.raises(DomainError):
            top_singular_vector(m)


class TestRng:
    def test_reproducible(self):
        a = make_rng(42, stream=3).integers(0, 2**63, size=64)
        b = make_rng(42, stream=3).integers(0, 2**63, size=64)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = make_rng(42, stream=0).integers(0, 2**63, size=16)
        b = make_rng(42, stream=1).integers(0, 2**63, size=16)
        assert not np.array_equal(a, b)

    @given(st.integers(min_value=0, max_value=2**63 - 1),
           st.integers(min_value=0, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_reproducible_property(self, seed, stream):
        a = make_rng(seed, stream).standard_normal(8)
        b = make_rng(seed, stream).standard_normal(8)
        assert np.array_equal(a, b)

    def test_derive_seed_stable(self):
        assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)
        assert derive_seed(1, "x", 2) != derive_seed(1, "x", 3)
        assert 0 <= derive_seed("anything") < 2**63
