from dataclasses import replace

import numpy as np
import pytest

import poisonlab as pl
from poisonlab import harness
from poisonlab.attack import AttackOptions, gradient_canceling
from poisonlab.errors import DomainError
from poisonlab.harness import (SWEEP_COLUMNS, TrainOptions, retrain_and_eval,
                               sweep_heatmap, train)
from poisonlab.mathcore import derive_seed, make_rng
from poisonlab.models import ModelSpec, mean_param_grad


class TestTrain:
    def test_or_logistic_reaches_full_accuracy(self, or_data, logistic3):
        params = train(logistic3, or_data, seed=0)
        assert pl.accuracy(logistic3, params, or_data) == 1.0

    def test_least_squares_recovers_weights(self):
        ds = pl.gen_gauss_regression(5, n=200, d=3,
                                     w_true=np.array([1.0, -2.0, 0.5]),
                                     noise=0.0)
        spec = ModelSpec("least_squares", 4)
        params = train(spec, ds, TrainOptions(epochs=3000, grad_tol=1e-12),
                       seed=5)
        assert np.linalg.norm(params[:3] - [1.0, -2.0, 0.5]) <= 1e-6

    def test_bit_identical_reruns(self, or_data, logistic3):
        a = train(logistic3, or_data, seed=17)
        b = train(logistic3, or_data, seed=17)
        assert np.array_equal(a, b)

    def test_minibatch_path(self, monkeypatch):
        # the switch to mini-batches, moved down from 10k samples
        monkeypatch.setattr(harness, "_SGD_SWITCH_N", 500)
        monkeypatch.setattr(harness, "_SGD_BATCH", 128)
        ds = pl.gen_gauss_classification(seed=2, n=600, d=3)
        spec = ModelSpec("logistic_binary", 4)
        params = train(spec, ds, TrainOptions(epochs=60), seed=2)
        assert pl.accuracy(spec, params, ds) > 0.7


class TestRetrainAndEval:
    def test_empty_poison_no_drop(self, or_data, or_test, logistic3):
        target = train(logistic3, or_data, seed=0)
        rep = retrain_and_eval(or_data, None, or_test, logistic3, target,
                               seed=0, eps_d=0.0)
        assert rep.acc_drop == 0.0
        assert rep.poisoned_acc == rep.clean_acc

    def test_mixture_gradient_identity(self, or_data, logistic3):
        rng = make_rng(9)
        target = rng.standard_normal(3)
        eps_d = 0.5
        count = int(round(or_data.n * eps_d))
        poison = pl.Dataset(rng.standard_normal((count, 3)),
                            rng.integers(0, 2, size=count),
                            classes=2, domain_box=or_data.domain_box)
        mixed = pl.concat(or_data, poison)
        lam = eps_d / (1 + eps_d)
        g_mix = mean_param_grad(logistic3, target, mixed)
        g_mu = mean_param_grad(logistic3, target, or_data)
        g_nu = mean_param_grad(logistic3, target, poison)
        assert np.allclose(g_mix, (1 - lam) * g_mu + lam * g_nu, atol=1e-12)

    def test_near_identity_poisoning(self, or_data, or_test, logistic3):
        rng = make_rng(3)
        idx = rng.choice(or_data.n, size=40, replace=False)
        rep = retrain_and_eval(or_data, or_data.subset(idx), or_test,
                               logistic3, train(logistic3, or_data, seed=0),
                               seed=0, eps_d=0.2)
        assert abs(rep.acc_drop) < 0.5

    def test_grad_norm_evaluated_at_target(self, or_data, or_test, logistic3):
        target = np.array([-0.35, -0.35, 0.175])
        rng = make_rng(4)
        poison = pl.Dataset(rng.standard_normal((20, 3)),
                            rng.integers(0, 2, size=20),
                            classes=2, domain_box=or_data.domain_box)
        rep = retrain_and_eval(or_data, poison, or_test, logistic3, target,
                               seed=0, eps_d=0.1)
        mixed = pl.concat(or_data, poison)
        expect = np.linalg.norm(mean_param_grad(logistic3, target, mixed))
        assert rep.grad_norm_at_target == pytest.approx(expect, abs=1e-14)
        assert rep.acc_drop == pytest.approx(rep.clean_acc - rep.poisoned_acc)


class TestSweep:
    def test_degenerate_sweep_matches_single_eval(self, or_data, or_test,
                                                  logistic3):
        target = 0.1 * np.array([-1.4, -1.4, 0.7])
        gc_opts = AttackOptions(lr=5.0, epochs=200)
        rows = sweep_heatmap(or_data, or_test, logistic3, [target], [0.5],
                             gc_opts, base_seed=7)
        assert len(rows) == 1
        row = rows[0]
        assert row["error"] == ""
        seed = derive_seed(7, 0, 0)
        from dataclasses import replace
        from poisonlab.attack import gradient_canceling
        res = gradient_canceling(or_data, logistic3, target, 0.5,
                                 replace(gc_opts, seed=seed))
        clean_params = train(logistic3, or_data, TrainOptions(), 7)
        ev = retrain_and_eval(or_data, res.poison, or_test, logistic3, target,
                              seed, clean_params=clean_params, eps_d=0.5)
        assert row["acc_drop"] == ev.acc_drop
        assert row["final_merit"] == res.final_merit

    def test_replace_mode_cell_retrains_on_kept_clean(self, or_test,
                                                      logistic3):
        # both models train on the clean points the attack kept, as in
        # defend; on all clean points the row read grad_norm 0.0714
        clean = pl.gen_or(3, reps=20)
        target = np.array([-0.14, -0.14, 0.07])
        opts = AttackOptions(lr=5.0, epochs=300, replace_mode=True)
        row = harness.sweep_cell(clean, or_test, logistic3, target, 0, 0.2,
                                 opts, 7, None, train(logistic3, clean))
        gc = gradient_canceling(clean, logistic3, target, 0.2,
                                replace(opts, seed=7))
        ev = retrain_and_eval(gc.kept_clean, gc.poison, or_test, logistic3,
                              target, 7, eps_d=0.2)
        assert gc.kept_clean.n == 66 and gc.poison.n == 13
        assert row["grad_norm"] == ev.grad_norm_at_target < 0.01
        assert row["acc_drop"] == ev.acc_drop

    def test_row_order_and_columns(self, or_data, or_test, logistic3):
        targets = [np.array([-0.7, -0.7, 0.35]), np.array([-1.0, -0.7, 0.4])]
        rows = sweep_heatmap(or_data, or_test, logistic3, targets, [0.4, 0.9],
                             AttackOptions(epochs=30, lr=2.0), base_seed=0)
        assert [(r["target_id"], r["eps_d"]) for r in rows] == \
            [(0, 0.4), (0, 0.9), (1, 0.4), (1, 0.9)]
        assert all(set(SWEEP_COLUMNS) == set(r) for r in rows)

    def test_map_cells_maps_every_cell_once(self, or_data, or_test, logistic3):
        targets = [np.array([-0.7, -0.7, 0.35]), np.array([-1.0, -0.7, 0.4])]
        opts = AttackOptions(epochs=30, lr=2.0)
        mapped = []

        def recording_map(fn, *columns):
            cells = list(zip(*columns))
            mapped.extend((c[4], c[5]) for c in cells)
            return [fn(*c) for c in cells]

        rows = sweep_heatmap(or_data, or_test, logistic3, targets, [0.4, 0.9],
                             opts, base_seed=0, map_cells=recording_map)
        assert mapped == [(0, 0.4), (0, 0.9), (1, 0.4), (1, 0.9)]
        assert rows == sweep_heatmap(or_data, or_test, logistic3, targets,
                                     [0.4, 0.9], opts, base_seed=0)

    def test_cell_error_propagates(self, or_data, or_test, logistic3):
        # eps too small for even one poison point -> error column, no raise
        rows = sweep_heatmap(or_data, or_test, logistic3,
                             [np.array([-0.7, -0.7, 0.35])], [1e-4],
                             AttackOptions(epochs=5), base_seed=0)
        assert rows[0]["error"] != ""
        assert np.isnan(rows[0]["acc_drop"])

    def test_empty_inputs_error(self, or_data, or_test, logistic3):
        with pytest.raises(DomainError):
            sweep_heatmap(or_data, or_test, logistic3, [], [0.5],
                          AttackOptions(epochs=5))
