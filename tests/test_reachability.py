import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import poisonlab as pl
from poisonlab.attack import REACH_TOL, AttackOptions, gradient_canceling
from poisonlab.errors import DomainError
from poisonlab.mathcore import lambert_w0, make_rng
from poisonlab.models import ModelSpec, grads_batch, mean_param_grad
from poisonlab.reachability import (DEGENERATE_ZERO_GRAD, alignment,
                                    lambda_threshold, lambda_to_ratio,
                                    membership_check, _floor_point,
                                    _merit_floor, merit_floor,
                                    nn_necessary_tau, ratio_to_lambda,
                                    tau_threshold)

W_STAR = np.array([0.0, np.log(2.0)])
W_1E = lambert_w0(np.exp(-1.0))


class TestAlignment:
    def test_toy_at_two_w_star(self, toy, logistic2):
        got = alignment(logistic2, 2 * W_STAR, toy)
        assert got == pytest.approx(4 * np.log(2.0) / 15.0, abs=1e-12)

    def test_toy_at_w_star(self, toy, logistic2):
        assert abs(alignment(logistic2, W_STAR, toy)) <= 1e-12

    def test_least_squares_identity_covariance(self):
        # empirical second moment exactly I, labels zero
        x = np.array([[np.sqrt(2.0), 0.0], [-np.sqrt(2.0), 0.0],
                      [0.0, np.sqrt(2.0)], [0.0, -np.sqrt(2.0)]])
        ds = pl.Dataset(x, np.zeros(4), task="regression", classes=0)
        got = alignment(ModelSpec("least_squares", 2), [1.0, 0.0], ds)
        assert got == pytest.approx(1.0, abs=1e-12)


class TestLambdaThreshold:
    def test_toy_value(self):
        lam = lambda_threshold(0.18483924814931874, -W_1E, np.inf)
        assert lam == pytest.approx(0.3990, abs=1e-4)
        assert lambda_to_ratio(lam) == pytest.approx(0.664, abs=1e-2)

    def test_negative_alignment_reachable(self):
        assert lambda_threshold(-0.1, -W_1E, np.inf) == 0.0

    def test_both_bounds_infinite(self):
        assert lambda_threshold(0.5, -np.inf, np.inf) == 0.0

    def test_alignment_outside_bounds(self):
        with pytest.raises(DomainError):
            lambda_threshold(2.0, -1.0, 1.0)

    @given(st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=100, deadline=None)
    def test_ratio_round_trip(self, lam):
        assert ratio_to_lambda(lambda_to_ratio(lam)) == pytest.approx(lam, abs=1e-12)


class TestTauThreshold:
    def test_toy_two_w_star(self, toy, logistic2):
        rep = tau_threshold(logistic2, 2 * W_STAR, toy)
        assert rep.tau == pytest.approx(0.664, abs=1e-2)
        assert rep.lambda_star == pytest.approx(rep.tau / (1 + rep.tau), abs=1e-12)
        assert rep.tau == rep.tau2

    def test_toy_half_w_star_zero(self, toy, logistic2):
        rep = tau_threshold(logistic2, 0.5 * W_STAR, toy)
        assert rep.tau == 0.0 and rep.alignment < 0

    def test_ten_class_denominator(self):
        assert lambert_w0(9.0 / np.e) == pytest.approx(1.10, abs=5e-3)

    def test_shorthand_multiplier(self, toy, logistic2):
        rep = tau_threshold(logistic2, 2 * W_STAR, toy)
        assert rep.tau2 == pytest.approx(3.6 * rep.alignment, rel=0.01)

    def test_degenerate_zero_grad(self, toy, logistic2):
        rep = tau_threshold(logistic2, W_STAR, toy)
        assert rep.degenerate == DEGENERATE_ZERO_GRAD and rep.tau == 0.0

    def test_regression_always_zero(self):
        ds = pl.gen_gauss_regression(seed=0, n=20, d=2, w_true=np.ones(2))
        rep = tau_threshold(ModelSpec("least_squares", 3), np.ones(3), ds)
        assert rep.tau == 0.0 and rep.a == -np.inf and rep.b == np.inf

    def test_phase_ordering_on_toy(self, toy, logistic2):
        for s in (0.25, 0.5, 0.75, 1.0):
            assert tau_threshold(logistic2, s * W_STAR, toy).tau == 0.0
        taus = [tau_threshold(logistic2, s * W_STAR, toy).tau
                for s in np.arange(1.1, 3.01, 0.1)]
        assert all(t > 0 for t in taus)
        assert all(b > a for a, b in zip(taus, taus[1:]))

    def test_alignment_within_bounds_property(self):
        rng = make_rng(21)
        spec = ModelSpec("logistic_binary", 3)
        a = -W_1E  # the least t l'(t) of the logistic loss
        for _ in range(1000):
            ds = pl.gen_gauss_classification(seed=int(rng.integers(1e6)),
                                             n=30, d=2)
            w = rng.standard_normal(3)
            al = alignment(spec, w, ds)
            assert a - 1e-12 <= al
            assert al < np.inf

    def test_c2_reduction_exact(self, toy):
        rng = make_rng(77)
        logi = ModelSpec("logistic_binary", 2)
        soft = ModelSpec("softmax_linear", 2, classes=2)
        for _ in range(25):
            w = rng.standard_normal(2)
            w0 = rng.standard_normal(2)
            big = np.stack([w0, w0 + w], axis=1).ravel()
            t_bin = tau_threshold(logi, w, toy).tau
            t_soft = tau_threshold(soft, big, toy).tau
            assert abs(t_bin - t_soft) <= 1e-12 * max(1.0, t_bin)


class TestMembership:
    def test_one_dimensional_interval(self):
        grads = np.array([[-1.0], [3.0]])
        assert not membership_check(np.array([1.0]), grads, 0.4)
        assert membership_check(np.array([1.0]), grads, 0.6)

    def test_zero_clean_gradient(self):
        # reusing the clean data as poison: its gradients hull the origin
        grads = np.array([[1.0, 2.0], [-0.5, -1.0]])
        for lam in (0.0, 0.3, 1.0):
            assert membership_check(np.zeros(2), grads, lam)

    def test_lambda_one_with_zero_atom(self):
        grads = np.array([[5.0, 5.0], [0.0, 0.0]])
        assert membership_check(np.array([9.0, -2.0]), grads, 1.0)

    def test_agrees_with_hull_geometry(self):
        # 0 in (1-l)g + l*conv(square corners) iff -(1-l)/l g inside square
        g = np.array([0.5, 0.0])
        corners = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        # need (1-l)*0.5 <= l  =>  l >= 1/3
        assert not membership_check(g, corners, 0.30)
        assert membership_check(g, corners, 0.34)


class TestNnNecessaryTau:
    def _net(self, hidden=4, d=3, c=2):
        return ModelSpec("mlp1", d, classes=c, hidden=hidden)

    def test_requires_mlp(self, toy, logistic2):
        with pytest.raises(DomainError):
            nn_necessary_tau(logistic2, W_STAR, toy)

    def test_stationary_output_layer_gives_zero(self):
        rng = make_rng(13)
        spec = self._net()
        ds = pl.gen_gauss_classification(seed=5, n=60, d=2)
        u = 0.5 * rng.standard_normal((spec.hidden, spec.input_dim))
        a = ds.x @ u.T
        phi = np.where(a > 0, a, spec.leaky_slope * a)
        feats = pl.Dataset(phi, ds.y, classes=2)
        head = ModelSpec("softmax_linear", spec.hidden, classes=2)
        w = pl.train(head, feats, pl.TrainOptions(epochs=3000, grad_tol=1e-12),
                     seed=0)
        params = np.concatenate([u.ravel(), w])
        assert nn_necessary_tau(spec, params, ds) <= 1e-6

    def test_identity_embedding_matches_softmax(self):
        # nonnegative inputs pass through the identity hidden layer unchanged
        rng = make_rng(14)
        x = np.abs(rng.standard_normal((40, 3)))
        y = rng.integers(0, 2, size=40)
        ds = pl.Dataset(x, y, classes=2)
        spec = self._net(hidden=3, d=3, c=2)
        soft = ModelSpec("softmax_linear", 3, classes=2)
        for _ in range(10):
            w = rng.standard_normal(soft.param_dim)
            params = np.concatenate([np.eye(3).ravel(), w])
            t_net = nn_necessary_tau(spec, params, ds)
            t_soft = tau_threshold(soft, w, ds).tau
            assert abs(t_net - t_soft) <= 1e-9 * max(1.0, t_soft)

    def test_monotone_in_output_scale(self):
        rng = make_rng(15)
        spec = self._net()
        ds = pl.gen_gauss_classification(seed=6, n=80, d=2)
        params = pl.train(spec, ds, pl.TrainOptions(epochs=300), seed=1)
        cut = spec.hidden * spec.input_dim
        vals = []
        for s in np.arange(1.0, 3.01, 0.25):
            scaled = params.copy()
            scaled[cut:] *= s
            vals.append(nn_necessary_tau(spec, scaled, ds))
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def _random_case(family, seed, scale, n=24):
    """Seeded 2-d points with a bias column in a [-4, 4] x [-4, 4] x [1, 1]
    box, balanced labels, and a random target of the given scale."""
    classes = 2 if family == "logistic_binary" else 3
    spec = ModelSpec(family, 3, classes=classes,
                     hidden=3 if family == "mlp1" else 0)
    rng = make_rng(seed, 12)
    x = np.hstack([np.clip(1.5 * rng.standard_normal((n, 2)), -4, 4),
                   np.ones((n, 1))])
    box = np.array([[-4.0, 4.0], [-4.0, 4.0], [1.0, 1.0]])
    clean = pl.Dataset(x, np.arange(n) % classes, classes=classes,
                       domain_box=box)
    return clean, spec, scale * rng.standard_normal(spec.param_dim)


class TestMeritFloor:
    def test_exported(self):
        assert pl.merit_floor is merit_floor

    def test_toy_blocked_target(self, toy, logistic2):
        # criterion 5's blocked target at eps_d 0.52 lies below tau
        tau = tau_threshold(logistic2, 2 * W_STAR, toy).tau
        floor = merit_floor(logistic2, 2 * W_STAR, toy, 0.52)
        want = 0.5 * (W_1E * (tau - 0.52) / np.linalg.norm(2 * W_STAR)) ** 2
        assert floor == pytest.approx(want, rel=1e-12)
        assert floor > 2 * REACH_TOL
        assert merit_floor(logistic2, 2 * W_STAR, toy, 1.1 * tau) == 0.0

    def test_least_squares_labels_are_free(self):
        clean = pl.gen_gauss_regression(0, n=40, d=2,
                                        w_true=np.array([1.0, -1.0]),
                                        noise=0.1)
        spec = ModelSpec("least_squares", 3)
        assert merit_floor(spec, [5.0, 5.0, 5.0], clean, 0.01) == 0.0

    def test_zero_output_block(self):
        clean, spec, target = _random_case("mlp1", 0, 2.0)
        target[spec.hidden * spec.input_dim:] = 0.0
        assert merit_floor(spec, target, clean, 0.1) == 0.0

    def test_nonpositive_ratio_is_refused(self, toy, logistic2):
        for eps_d in (0.0, -0.5, np.nan):
            with pytest.raises(DomainError):
                merit_floor(logistic2, 2 * W_STAR, toy, eps_d)

    @pytest.mark.parametrize("family", ["logistic_binary", "softmax_linear"])
    def test_floor_uses_the_least_point_alignment(self, family):
        # the least <theta, g(x, y)> over x, found numerically, is the
        # constant the floor charges each unit of eps_d
        clean, spec, target = _random_case(family, 4, 2.0)
        fn = lambda x: float(grads_batch(spec, target, x, [0])[0] @ target)
        rng = make_rng(5)
        least = min(minimize(fn, 3.0 * rng.standard_normal(3)).fun
                    for _ in range(8))
        align = alignment(spec, target, clean)
        for eps_d in (0.05, 0.2):
            gap = max(align + eps_d * least, 0.0)
            assert merit_floor(spec, target, clean, eps_d) == pytest.approx(
                0.5 * (gap / np.linalg.norm(target)) ** 2, rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), scale=st.floats(0.1, 4.0),
           eps_d=st.floats(0.05, 3.0))
    def test_logistic_floor_matches_the_threshold(self, seed, scale, eps_d):
        # (1/2)(W(1/e) max(tau - eps_d, 0) / |w|)^2, positive below tau
        clean, spec, target = _random_case("logistic_binary", seed, scale)
        tau = tau_threshold(spec, target, clean).tau
        floor = merit_floor(spec, target, clean, eps_d)
        norm = np.linalg.norm(target)
        assert np.sqrt(2.0 * floor) * norm == pytest.approx(
            W_1E * max(tau - eps_d, 0.0), rel=1e-9, abs=1e-12 * max(1.0, tau))
        if abs(eps_d - tau) > 1e-9 * tau:
            assert (floor > 0.0) == (eps_d < tau)

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(["logistic_binary", "softmax_linear",
                                   "mlp1"]),
           seed=st.integers(0, 2**16), scale=st.floats(0.1, 4.0),
           eps_d=st.floats(0.05, 2.0),
           clip_mode=st.sampled_from(["none", "box", "clean_range"]),
           optimize_labels=st.booleans(), replace_mode=st.booleans())
    def test_no_attack_result_below_the_floor(self, family, seed, scale,
                                              eps_d, clip_mode,
                                              optimize_labels, replace_mode):
        # the floor bounds every poison set, so no attack gets below it
        clean, spec, target = _random_case(family, seed, scale)
        res = gradient_canceling(clean, spec, target, eps_d, AttackOptions(
            epochs=20, lr=2.0, seed=seed, clip_mode=clip_mode,
            optimize_labels=optimize_labels, replace_mode=replace_mode))
        mu = res.kept_clean if replace_mode else clean
        floor = merit_floor(spec, target, mu, eps_d)
        assert res.final_merit >= floor * (1.0 - 1e-9) - 1e-24



class TestFloorPoint:
    """The sign-folded logistic point whose poison set attains the floor."""

    @pytest.mark.parametrize("ratio", [0.5, 1 - 1e-3, 1 + 1e-3, 2.0])
    @pytest.mark.parametrize("labels", ["zeros", "ones", "mixed"])
    def test_poison_set_attains_the_floor(self, ratio, labels):
        clean, spec, target = _random_case("logistic_binary", 3, 2.0)
        g = mean_param_grad(spec, target, clean)
        tau = tau_threshold(spec, target, clean).tau
        assert tau > 0.0
        eps_d = ratio * tau
        z = _floor_point(spec, target, g, eps_d)
        y = {"zeros": np.zeros(5, np.int64), "ones": np.ones(5, np.int64),
             "mixed": np.arange(5) % 2}[labels]
        xs = (2 * y - 1)[:, None] * z
        assert np.allclose(xs @ target * (2 * y - 1), z @ target, rtol=1e-14)
        residual = g + eps_d * grads_batch(spec, target, xs, y).mean(axis=0)
        merit = 0.5 * float(residual @ residual)
        floor = _merit_floor(spec, target, g, eps_d)
        assert (floor > 0.0) == (ratio < 1.0)
        assert merit == pytest.approx(floor, rel=1e-9, abs=1e-28)

    def test_nonpositive_alignment_attains_zero_floor(self):
        # m sigma(-m) = a / eps_d has a negative root for a < 0, and 0 for
        # a = 0 (also at w = 0), so the floor point cancels g exactly
        spec = ModelSpec("logistic_binary", 3)
        w = np.array([1.0, -2.0, 0.5])
        y = np.arange(4) % 2
        for params, g in ((w, -0.1 * w), (w, np.array([2.0, 1.0, 0.0])),
                          (np.zeros(3), np.array([0.3, -0.2, 0.1]))):
            assert _merit_floor(spec, params, g, 0.3) == 0.0
            z = _floor_point(spec, params, g, 0.3)
            assert (z @ params) * (params @ g) >= 0.0  # margin m has a's sign
            xs = (2 * y - 1)[:, None] * z
            residual = g + 0.3 * grads_batch(spec, params, xs, y).mean(axis=0)
            assert np.abs(residual).max() <= 1e-15

    def test_logistic_binary_only(self):
        spec = ModelSpec("softmax_linear", 3, classes=3)
        with pytest.raises(DomainError):
            _floor_point(spec, np.ones(9), np.ones(9), 0.3)

class TestBruteForceConsistency:
    def test_membership_matches_threshold_sign(self):
        # 2-D logistic targets from corrupted trained models; discrete
        # domain is a 41x41 grid on [-8, 8]^2 with both labels
        rng = make_rng(7)
        spec = ModelSpec("logistic_binary", 2)
        axes = np.linspace(-8.0, 8.0, 41)
        gx, gy = np.meshgrid(axes, axes, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        xa = np.vstack([pts, pts])
        ya = np.concatenate([np.zeros(len(pts), dtype=int),
                             np.ones(len(pts), dtype=int)])
        agree = 0
        for trial in range(1, 51):
            n = 60
            blob_a = 0.8 * rng.standard_normal((n, 2)) + np.array([1.2, 0.8])
            blob_b = 0.8 * rng.standard_normal((n, 2)) - np.array([1.2, 0.8])
            ds = pl.Dataset(np.clip(np.vstack([blob_a, blob_b]), -5, 5),
                            np.concatenate([np.ones(n, dtype=int),
                                            np.zeros(n, dtype=int)]),
                            classes=2)
            w_fit = pl.train(spec, ds, pl.TrainOptions(epochs=300), seed=trial)
            w = pl.random_corrupt(w_fit, 0.5 + rng.random(), seed=trial).params
            g_mu = mean_param_grad(spec, w, ds)
            grads = grads_batch(spec, w, xa, ya)
            s = 2.0 * ya - 1.0
            margins = s * (xa @ w)
            tl = -margins / (1.0 + np.exp(np.clip(margins, -700, 700)))
            lam_star = lambda_threshold(float(w @ g_mu), tl.min(), tl.max())
            ok = True
            for delta, expect in ((0.05, True), (-0.05, False)):
                lam = lam_star + delta
                if not 0.0 <= lam <= 1.0:
                    continue
                if membership_check(g_mu, grads, lam) != expect:
                    ok = False
            agree += ok
        assert agree >= 48
