from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poisonlab as pl
from poisonlab.attack import AttackOptions
from poisonlab.errors import DomainError, TargetSelectionError
from poisonlab.mathcore import make_rng
from poisonlab import targetgen
from poisonlab.models import ModelSpec, accuracy, predict_batch
from poisonlab.targetgen import (grad_ascent_corrupt, random_corrupt,
                                 scale_params, select_target)

W_STAR = np.array([0.0, np.log(2.0)])


class TestGradAscent:
    def test_zero_eps_identity(self, or_data, logistic3):
        w0 = np.array([1.0, 1.0, -0.5])
        cand = grad_ascent_corrupt(or_data, logistic3, w0, 0.0)
        assert np.array_equal(cand.params, w0)

    @pytest.mark.parametrize("eps_w", [0.1, 0.5, 1.0])
    def test_ball_constraint(self, or_data, logistic3, eps_w):
        w0 = pl.train(logistic3, or_data, seed=0)
        cand = grad_ascent_corrupt(or_data, logistic3, w0, eps_w, steps=25)
        assert np.linalg.norm(cand.params - w0) <= eps_w * np.linalg.norm(w0) + 1e-9

    def test_zero_norm_errors(self, or_data, logistic3):
        with pytest.raises(DomainError):
            grad_ascent_corrupt(or_data, logistic3, np.zeros(3), 0.5)

    def test_drop_nondecreasing_in_eps_w(self, logistic3):
        mean_drops = []
        for eps_w in (0.1, 0.5, 1.0):
            drops = []
            for seed in range(5):
                clean = pl.gen_or(seed=seed)
                val = pl.gen_or(seed=300 + seed)
                w0 = pl.train(logistic3, clean, seed=seed)
                cand = grad_ascent_corrupt(clean, logistic3, w0, eps_w,
                                           steps=25, seed=seed)
                drops.append(accuracy(logistic3, w0, val)
                             - accuracy(logistic3, cand.params, val))
            mean_drops.append(float(np.mean(drops)))
        assert mean_drops[0] <= mean_drops[1] + 1e-9
        assert mean_drops[1] <= mean_drops[2] + 1e-9


class TestRandomCorrupt:
    def test_zero_eps_identity(self):
        w0 = np.array([1.0, -2.0])
        assert np.array_equal(random_corrupt(w0, 0.0).params, w0)

    @given(st.floats(min_value=1e-6, max_value=10.0),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_exact_relative_norm(self, eps_w, seed):
        w0 = np.array([3.0, -4.0, 1.0])
        cand = random_corrupt(w0, eps_w, seed=seed)
        rel = np.linalg.norm(cand.params - w0) / np.linalg.norm(w0)
        assert rel == pytest.approx(eps_w, abs=1e-12 * max(1.0, eps_w))

    def test_weaker_than_grad_ascent_on_average(self, logistic3):
        clean = pl.gen_or(seed=0)
        val = pl.gen_or(seed=400)
        w0 = pl.train(logistic3, clean, seed=0)
        base = accuracy(logistic3, w0, val)
        ga = grad_ascent_corrupt(clean, logistic3, w0, 1.0, steps=25, seed=0)
        ga_drop = base - accuracy(logistic3, ga.params, val)
        rnd_drops = [base - accuracy(logistic3,
                                     random_corrupt(w0, 1.0, seed=s).params,
                                     val)
                     for s in range(20)]
        assert float(np.mean(rnd_drops)) <= ga_drop + 1e-9


class TestScaleParams:
    def test_identity(self, logistic2):
        w = np.array([1.0, 2.0])
        assert np.array_equal(scale_params(logistic2, w, 1.0), w)

    def test_toy_tau_values(self, toy, logistic2):
        w2 = scale_params(logistic2, W_STAR, 2.0)
        assert pl.tau_threshold(logistic2, w2, toy).tau == pytest.approx(
            0.664, abs=1e-2)
        assert pl.tau_threshold(logistic2, W_STAR, toy).tau == 0.0
        half = scale_params(logistic2, W_STAR, 0.5)
        assert pl.tau_threshold(logistic2, half, toy).tau == 0.0

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_accuracy_invariance(self, or_data, logistic3, s):
        w = pl.train(logistic3, or_data, seed=0)
        assert accuracy(logistic3, scale_params(logistic3, w, s), or_data) \
            == accuracy(logistic3, w, or_data)

    def test_mlp_scales_output_block_only(self):
        spec = ModelSpec("mlp1", 3, classes=2, hidden=4)
        rng = make_rng(1)
        params = rng.standard_normal(spec.param_dim)
        scaled = scale_params(spec, params, 3.0)
        cut = spec.hidden * spec.input_dim
        assert np.array_equal(scaled[:cut], params[:cut])
        assert np.allclose(scaled[cut:], 3.0 * params[cut:])
        x = rng.standard_normal((20, 3))
        assert np.array_equal(predict_batch(spec, params, x),
                              predict_batch(spec, scaled, x))

    def test_nonpositive_scale_errors(self, logistic2):
        with pytest.raises(DomainError):
            scale_params(logistic2, W_STAR, 0.0)


class TestSelectTarget:
    def test_threshold_stage_filters(self, toy, logistic2):
        cands = [pl.TargetCandidate(W_STAR.copy(), 0.0, "external"),
                 pl.TargetCandidate(2 * W_STAR, 1.0, "external")]
        chosen = select_target(cands, 0.5, toy, toy, logistic2,
                               AttackOptions(epochs=200, lr=1.0))
        assert np.array_equal(chosen.params, W_STAR)
        assert chosen.tau == 0.0

    def test_clean_params_pass_trivially(self):
        clean = pl.gen_gauss_regression(1, n=100, d=2,
                                        w_true=np.array([1.0, 2.0]), noise=0.0)
        spec = ModelSpec("least_squares", 3)
        fit = pl.train(spec, clean, pl.TrainOptions(epochs=2000,
                                                    grad_tol=1e-12), seed=1)
        cands = [pl.TargetCandidate(fit, 0.0, "external")]
        chosen = select_target(cands, 0.5, clean, clean, spec,
                               AttackOptions(epochs=50, lr=1.0))
        assert np.array_equal(chosen.params, fit)

    def test_all_filtered_by_threshold(self, toy, logistic2):
        cands = [pl.TargetCandidate(2 * W_STAR, 1.0, "external")]
        with pytest.raises(TargetSelectionError) as err:
            select_target(cands, 0.1, toy, toy, logistic2)
        assert err.value.stage == "threshold"

    def test_all_filtered_by_reachability(self, or_data, logistic3,
                                          monkeypatch):
        target = 0.1 * np.array([-1.4, -1.4, 0.7])
        cands = [pl.TargetCandidate(target, 1.0, "external")]
        # an attack that ends at half its initial merit misses the tenth
        stalled = SimpleNamespace(merit_trace=np.array([1.0, 0.7]),
                                  final_merit=0.5)
        monkeypatch.setattr(targetgen, "gradient_canceling",
                            lambda *args: stalled)
        with pytest.raises(TargetSelectionError) as err:
            select_target(cands, 0.5, or_data, or_data, logistic3)
        assert err.value.stage == "reachability"

    def test_picks_largest_validation_drop(self, or_data, logistic3):
        val = pl.gen_or(seed=77)
        mild = 0.02 * np.array([-1.4, -1.4, 0.7])   # malicious, tiny tau
        benign = pl.train(logistic3, or_data, seed=0)
        cands = [pl.TargetCandidate(benign, 0.0, "external"),
                 pl.TargetCandidate(mild, 1.0, "external")]
        chosen = select_target(cands, 0.5, or_data, val, logistic3,
                               AttackOptions(epochs=300, lr=5.0))
        assert np.array_equal(chosen.params, mild)

    def test_deterministic(self, or_data, logistic3):
        cands = [pl.TargetCandidate(0.05 * np.array([-1.4, -1.4, 0.7]),
                                    1.0, "external"),
                 pl.TargetCandidate(pl.train(logistic3, or_data, seed=0),
                                    0.0, "external")]
        a = select_target(cands, 0.5, or_data, or_data, logistic3,
                          AttackOptions(epochs=200, lr=5.0))
        b = select_target(cands, 0.5, or_data, or_data, logistic3,
                          AttackOptions(epochs=200, lr=5.0))
        assert np.array_equal(a.params, b.params)
