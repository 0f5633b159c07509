import contextlib
import copy
import csv
import io
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poisonlab as pl
from poisonlab import cli
from poisonlab import serialize as ser
from poisonlab.cli import (EXIT_CONFIG, EXIT_DATA, main, resolve_dataset, run,
                           validate_config)
from poisonlab.errors import ConfigError
from poisonlab.harness import SWEEP_COLUMNS, sweep_cell, sweep_heatmap
from poisonlab.mathcore import derive_seed

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
# attack and defend configs that must exit 2 naming the key; None deletes
SINGLE_TARGET_ERRORS = {
    "targets_list": ({"target": None, "targets": [
        {"source": "inline", "values": [-0.07, -0.07, 0.035]}]},
        "target is required"),
    "short_values": ({"target": {"source": "inline", "values": [0.1]}},
                     "target.values"),
    "null_value": ({"target": {"source": "inline", "values": [0.1, None, 0.1]}},
                   "target.values[1]"),
    "negative_eps_w": ({"target": {"source": "random", "eps_w": -1}},
                       "target.eps_w"),
    "negative_rounds": ({"defense": {"name": "sever", "rounds": -1}},
                        "defense.rounds"),
    # replace mode keeps 2 of toy3's 3 points, and 2 * 0.2 rounds to 0
    "replace_no_poison": ({"dataset": {"generator": "toy3"},
                           "target": {"source": "inline", "values": [0.0, 0.7]},
                           "eps_d": 0.2,
                           "attack": {"options": {"replace_mode": True}}},
                          "eps_d"),
    # 20 clean and 2 poison points cannot fill 50 partitions
    "dpa_k_exceeds_set": ({"defense": {"name": "dpa", "k": 50}}, "defense.k"),
    # 8 clean and 4 poison points: k <= 12, but the hash leaves a partition
    # empty at each of these k
    **{f"dpa_empty_partition_k{k}": (
        {"dataset": {"generator": "or", "seed": 5, "reps": 2}, "eps_d": 0.5,
         "defense": {"name": "dpa", "k": k}}, "defense.k: partition")
       for k in (8, 10, 12)},
    # the canceling loop and training take no switches
    "removed_attack_option": ({"attack": {"options": {"polish": False}}},
                              "unknown AttackOptions keys: ['polish']"),
    "removed_train_option": ({"train": {"batch_size": 16}},
                             "unknown TrainOptions keys: ['batch_size']"),
    # the run's seed derives the attack's
    "attack_seed": ({"attack": {"options": {"seed": 5}}},
                    "unknown AttackOptions keys: ['seed']"),
    "matching_seed": ({"attack": {"name": "gradient_matching", "options": {
        "seed": 5}}}, "unknown AttackOptions keys: ['seed']"),
    # gradient matching adds poison with fixed labels
    "matching_labels": ({"attack": {"name": "gradient_matching", "options": {
        "optimize_labels": True}}}, "['optimize_labels']"),
    "matching_replace": ({"attack": {"name": "gradient_matching", "options": {
        "replace_mode": True}}}, "['replace_mode']"),
    # defend only: 4 features against the model's 3
    "test_dataset_dim": ({"test_dataset": {"generator": "gauss_class", "n": 20,
                                           "d": 3}},
                         "test_dataset: a classification set of 4 features"),
}


class TestSerialize:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_float_round_trip(self, x):
        assert json.loads(ser.dumps([x])) == [x]
        _, (cell,) = csv.reader(io.StringIO(ser.csv_lines(["x"], [{"x": x}])))
        assert float(cell) == x

    def test_shortest_round_trip_rendering(self):
        assert ser.dumps([0.1, 1.0, float("inf"), -np.inf, np.nan]) == \
            '[\n  0.1,\n  1.0,\n  "inf",\n  "-inf",\n  "nan"\n]\n'
        assert ser.dumps({"n": np.int64(3), "x": np.float32(0.5),
                          "a": np.array([[1.0, 2.5]])}) == \
            '{\n  "n": 3,\n  "x": 0.5,\n  "a": [\n    [\n      1.0,\n' \
            '      2.5\n    ]\n  ]\n}\n'
        assert ser.csv_lines(["a", "b", "c"], [
            {"a": 0.1, "b": np.float64(1.0), "c": float("inf")},
            {"a": np.int64(2), "b": -np.inf, "c": 'say "x", y'}]) == \
            'a,b,c\n0.1,1.0,inf\n2,-inf,"say ""x"", y"\n'
        with pytest.raises(ConfigError, match="cannot serialize object"):
            ser.dumps({"x": object()})
        with pytest.raises(ConfigError, match="cannot serialize set"):
            ser.csv_lines(["x"], [{"x": {1}}])

    def test_sweep_error_with_a_comma_stays_one_field(self, or_data, or_test,
                                                      logistic3):
        # a 2-value target for the 3-parameter model fails in the cell, and
        # the message it leaves in the error column holds a comma
        rows = sweep_heatmap(or_data, or_test, logistic3, [[0.5, -0.5]], [0.5])
        header, row = csv.reader(io.StringIO(
            ser.csv_lines(SWEEP_COLUMNS, rows)))
        assert header == list(SWEEP_COLUMNS) and len(row) == 9
        assert row[-1] == \
            "ShapeError: params has length 2, logistic_binary needs 3"

    def test_dataset_round_trip(self):
        ds = pl.gen_or(seed=3, reps=4)
        obj = json.loads(ser.dumps(ser.dataset_to_obj(ds)))
        back = ser.dataset_from_obj(obj)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.domain_box, ds.domain_box)

    def test_dataset_round_trip_with_infinite_box(self):
        ds = pl.toy_three_points()
        back = ser.dataset_from_obj(json.loads(ser.dumps(ser.dataset_to_obj(ds))))
        assert np.array_equal(back.domain_box, ds.domain_box)

    def test_params_round_trip(self):
        spec = pl.ModelSpec("softmax_linear", 3, classes=4)
        params = np.linspace(-1, 1, spec.param_dim)
        obj = json.loads(ser.dumps(ser.params_to_obj(params, spec)))
        assert np.array_equal(ser.params_from_obj(obj), params)
        assert ser.spec_from_obj(obj["model"]) == spec

    def test_config_round_trip_identity(self):
        path = os.path.join(CONFIG_DIR, "fig1_small.json")
        cfg = ser.read_json(path)
        again = json.loads(ser.dumps(cfg))
        assert again == cfg

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "x.json"
        ser.write_json_atomic(str(target), {"a": 1.5})
        assert json.loads(target.read_text()) == {"a": 1.5}
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


class TestResolveAndValidate:
    def test_unknown_generator_suggests(self):
        with pytest.raises(ConfigError) as err:
            resolve_dataset({"generator": "gaus_class"}, seed=0)
        assert "gauss_class" in str(err.value)

    def test_shorthand_names(self):
        assert resolve_dataset("or", seed=0).n == 200
        assert resolve_dataset("toy3", seed=0).n == 3

    def test_validate_rejects_bad_pipeline(self):
        with pytest.raises(ConfigError):
            validate_config({"pipeline": "sweeep", "dataset": {}, "model": {}})

    def test_validate_rejects_bad_eps(self):
        cfg = {"pipeline": "attack", "dataset": {"generator": "or"},
               "model": {"family": "logistic_binary"},
               "target": {"source": "inline", "values": [0, 0, 0]},
               "eps_d": -1.0}
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_validate_rejects_missing_target_file(self):
        cfg = {"pipeline": "attack", "dataset": {"generator": "or"},
               "model": {"family": "logistic_binary"},
               "target": {"source": "file", "path": "does/not/exist.json"},
               "eps_d": 1.0}
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_removed_train_option_is_config_error(self, tmp_path):
        cfg = {"pipeline": "attack", "dataset": {"generator": "or", "reps": 5},
               "model": {"family": "logistic_binary"},
               "target": {"source": "inline", "values": [0.0, 0.0, 0.1]},
               "eps_d": 1.0, "train": {"auto_scale_lr": True},
               "output": {"dir": str(tmp_path)}}
        with pytest.raises(ConfigError, match="unknown TrainOptions keys"):
            run(cfg)

    def test_all_shipped_configs_parse(self):
        for name in os.listdir(CONFIG_DIR):
            cfg = ser.read_json(os.path.join(CONFIG_DIR, name))
            validate_config(cfg, base_dir=CONFIG_DIR)

    def test_validate_returns_new_normalised_config(self, tmp_path):
        ds = pl.gen_or(seed=1, reps=3)
        (tmp_path / "clean.json").write_text(ser.dumps(ser.dataset_to_obj(ds)))
        (tmp_path / "w.json").write_text(ser.dumps(
            ser.params_to_obj(np.array([-0.7, -0.7, 0.35]))))
        relative = {"pipeline": "attack",
                    "dataset": {"path": "clean.json"},
                    "model": {"family": "logistic_binary"},
                    "target": {"source": "file", "path": "w.json"}}
        cases = [(relative, str(tmp_path))] + [
            (ser.read_json(os.path.join(CONFIG_DIR, name)), CONFIG_DIR)
            for name in sorted(os.listdir(CONFIG_DIR))]
        for cfg, base_dir in cases:
            before = copy.deepcopy(cfg)
            out = validate_config(cfg, base_dir=base_dir)
            assert cfg == before
            assert out is not cfg and out["output"] is not cfg.get("output")
        out = validate_config(relative, base_dir=str(tmp_path))
        assert out["dataset"] == {"generator": "file", "seed": None,
                                  "path": str(tmp_path / "clean.json")}
        assert out["target"]["path"] == str(tmp_path / "w.json")
        assert out["seed"] == 0 and out["eps_d"] == 1.0
        assert out["output"] == {"dir": ".", "poison": "./poison.json",
                                 "trace": "./trace.csv",
                                 "atoms": "./fw_atoms.json"}
        assert out["attack"]["options"] == {
            k: v for k, v in vars(pl.AttackOptions()).items() if k != "seed"}
        assert out["train"] == vars(pl.TrainOptions())
        # Frank-Wolfe labels are class indices or real regression targets
        fw = {"name": "frank_wolfe",
              "domain": {"alpha_grid": [0, 1], "labels": [-1.5, 2]}}
        out = validate_config({**relative, "attack": fw}, str(tmp_path))
        assert out["attack"]["domain"]["labels"] == [-1.5, 2]


class TestCliCommands:
    def test_gen_train_threshold_pipeline(self, tmp_path, capsys):
        data = str(tmp_path / "or.json")
        params = str(tmp_path / "params.json")
        assert main(["gen-data", "--generator", "or", "--seed", "0",
                     "--out", data]) == 0
        assert main(["train", "--data", data, "--model", "logistic_binary",
                     "--out", params]) == 0
        assert capsys.readouterr().out.startswith("train_accuracy=")
        # a least-squares model fits the 0/1 labels and reports no accuracy
        ls_params = str(tmp_path / "ls.json")
        assert main(["train", "--data", data, "--model", "ls",
                     "--out", ls_params]) == 0
        assert "accuracy" not in capsys.readouterr().out
        assert ser.read_json(ls_params)["model"]["family"] == "least_squares"
        report = str(tmp_path / "report.json")
        assert main(["threshold", "--data", data, "--model",
                     "logistic_binary", "--target", params,
                     "--out", report]) == 0
        rep = json.loads(open(report).read())
        for key in ("alignment", "a", "b", "lambda_star", "tau", "tau2"):
            assert key in rep

    def test_train_reports_its_exit_grad_norm(self, tmp_path, capsys):
        data = str(tmp_path / "or.json")
        main(["gen-data", "--generator", "or", "--out", data])
        capsys.readouterr()
        assert main(["train", "--data", data, "--model", "logistic_binary",
                     "--out", str(tmp_path / "p.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("=")[0] for line in lines] == \
            ["train_accuracy", "grad_norm"]
        assert 0 < float(lines[1].split("=")[1]) <= pl.TrainOptions.grad_tol
        # least squares: no accuracy, one grad_norm line
        assert main(["train", "--data", data, "--model", "ls",
                     "--out", str(tmp_path / "ls.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("grad_norm=")
        assert float(lines[0].split("=")[1]) <= pl.TrainOptions.grad_tol

    def test_make_target_and_retrain(self, tmp_path):
        data = str(tmp_path / "or.json")
        main(["gen-data", "--generator", "or", "--seed", "1", "--out", data])
        target = str(tmp_path / "target.json")
        assert main(["make-target", "--data", data, "--model",
                     "logistic_binary", "--mode", "random", "--eps-w", "0.5",
                     "--out", target]) == 0
        report = str(tmp_path / "eval.json")
        assert main(["retrain", "--clean", data, "--test", data, "--model",
                     "logistic_binary", "--target", target,
                     "--out", report]) == 0
        rep = json.loads(open(report).read())
        assert rep["acc_drop"] == pytest.approx(
            rep["clean_acc"] - rep["poisoned_acc"])

    def test_attack_pipeline_outputs(self, tmp_path):
        cfg = {
            "pipeline": "attack",
            "seed": 2,
            "dataset": {"generator": "or", "seed": 2},
            "model": {"family": "logistic_binary"},
            "target": {"source": "inline", "values": [-0.14, -0.14, 0.07]},
            "eps_d": 0.3,
            "attack": {"name": "gradient_canceling",
                       "options": {"lr": 5.0, "epochs": 60}},
            "output": {"poison": str(tmp_path / "poison.json"),
                       "trace": str(tmp_path / "trace.csv")},
        }
        cfg_path = tmp_path / "gc.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["attack", "--config", str(cfg_path)]) == 0
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,merit,grad_norm"
        assert len(trace) == 61
        poison = ser.dataset_from_obj(json.loads(
            (tmp_path / "poison.json").read_text()))
        assert poison.n == round(200 * 0.3)

    def test_sweep_csv_contract(self, tmp_path):
        cfg = {
            "pipeline": "sweep",
            "seed": 0,
            "dataset": {"generator": "or", "seed": 0, "reps": 10},
            "test_dataset": {"generator": "or", "seed": 1000, "reps": 10},
            "model": {"family": "logistic_binary"},
            "targets": [{"source": "inline", "values": [-0.7, -0.7, 0.35]}],
            "eps_d": [0.5, 2.0],
            "attack": {"name": "gradient_canceling",
                       "options": {"lr": 5.0, "epochs": 80}},
            "output": {"csv": str(tmp_path / "sweep.csv")},
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path), "--jobs", "1"]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert lines[0].startswith(
            "target_id,w1,w2,tau,eps_d,acc_drop,grad_norm,final_merit")
        assert len(lines) == 3

    @pytest.mark.parametrize("command", [["sweep", "--jobs", "1"],
                                         ["sweep", "--jobs", "2"],
                                         ["select-target"]],
                             ids=["sweep_jobs1", "sweep_jobs2",
                                  "select_target"])
    @pytest.mark.parametrize("targets, key", [
        ({"target": {"source": "inline", "values": [-0.7, -0.7, 0.35]}},
         "targets"),
        ({"targets": []}, "targets"),
        ({"targets": [{"source": "grad_ascent", "eps_w": -1}]},
         "targets[0].eps_w"),
        ({"targets": [{"source": "grad_ascent", "eps_w": 0.5, "steps": -1}]},
         "targets[0].steps"),
        ({"targets": [{"source": "random", "eps_w": 0.5},
                      {"source": "inline", "values": [-0.7]}]},
         "targets[1].values"),
        ({"targets": [{"source": "inline", "values": [-0.7, None, 0.35]}]},
         "targets[0].values[1]"),
        ({"targets": [{"source": "inline", "values": [-0.7, -0.7, 0.35]}],
          "test_dataset": {"generator": "gauss_class", "n": 20, "d": 3}},
         "test_dataset: a classification set of 4 features")],
        ids=["singular_target", "empty_targets", "negative_eps_w",
             "negative_steps", "short_values", "null_value",
             "test_dataset_dim"])
    def test_target_grid_required(self, tmp_path, capsys, command, targets,
                                  key):
        cfg = {"dataset": {"generator": "or", "seed": 0, "reps": 5},
               "test_dataset": {"generator": "or", "seed": 900, "reps": 5},
               "model": {"family": "logistic_binary"},
               "eps_d": [0.5] if command[0] == "sweep" else 0.5,
               "output": {"dir": str(tmp_path)}, **targets}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [command[0], "--config", str(cfg_path), *command[1:]]
        assert main(argv) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("pipeline, change, key", [
        pytest.param(pipeline, change, key, id=f"{pipeline}-{name}")
        for pipeline in ("attack", "defend")
        for name, (change, key) in SINGLE_TARGET_ERRORS.items()
        if pipeline == "defend"
        or not {"defense", "test_dataset"} & set(change)])
    def test_single_target_required(self, tmp_path, capsys, pipeline, change,
                                    key):
        cfg = {"dataset": {"generator": "or", "seed": 5, "reps": 5},
               "model": {"family": "logistic_binary"},
               "target": {"source": "inline", "values": [-0.07, -0.07, 0.035]},
               "eps_d": 0.1, "output": {"dir": str(tmp_path)}}
        if pipeline == "defend":
            cfg.update(test_dataset={"generator": "or", "seed": 905, "reps": 5},
                       defense={"name": "sever"})
        cfg.update(change)
        cfg = {k: v for k, v in cfg.items() if v is not None}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([pipeline, "--config", str(cfg_path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_defend_pipelines(self, tmp_path):
        for name, defense in (("sever", {"name": "sever", "rounds": 2}),
                              ("dpa", {"name": "dpa", "k": 5})):
            cfg = {
                "pipeline": "defend",
                "seed": 5,
                "dataset": {"generator": "or", "seed": 5, "reps": 20},
                "test_dataset": {"generator": "or", "seed": 905, "reps": 5},
                "model": {"family": "logistic_binary"},
                "target": {"source": "inline",
                           "values": [-0.07, -0.07, 0.035]},
                "eps_d": 0.1,
                "attack": {"name": "gradient_canceling",
                           "options": {"lr": 5.0, "epochs": 150}},
                "defense": defense,
                "output": {"report": str(tmp_path / f"{name}.json")},
            }
            cfg_path = tmp_path / f"{name}_cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            assert main(["defend", "--config", str(cfg_path)]) == 0
            report = json.loads((tmp_path / f"{name}.json").read_text())
            assert "undefended" in report and "defended" in report

    def test_gradient_matching_trace_has_no_nan(self, tmp_path):
        # aligned directions round 1 - cos below 0; sqrt of the recorded
        # dissimilarity must still be a number
        cfg = ser.read_json(os.path.join(CONFIG_DIR, "d3_leastsq_gm.json"))
        cfg["output"] = {"poison": str(tmp_path / "poison.json"),
                         "trace": str(tmp_path / "trace.csv")}
        run(cfg, base_dir=CONFIG_DIR)
        text = (tmp_path / "trace.csv").read_text()
        assert "nan" not in text
        merits = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
        assert min(merits) >= 0.0

    def test_select_target_pipeline(self, tmp_path):
        cfg = ser.read_json(os.path.join(CONFIG_DIR, "select_target.json"))
        cfg["output"] = {"target": str(tmp_path / "chosen.json")}
        cfg["attack"]["options"]["epochs"] = 150
        cfg_path = tmp_path / "sel.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["select-target", "--config", str(cfg_path)]) == 0
        chosen = json.loads((tmp_path / "chosen.json").read_text())
        assert "values" in chosen and "tau" in chosen

    def test_frank_wolfe_takes_no_options(self, tmp_path, capsys):
        cfg = {"pipeline": "attack",
               "dataset": {"generator": "or", "reps": 5},
               "model": {"family": "logistic_binary"},
               "target": {"source": "inline", "values": [0.0, 0.0, 0.1]},
               "attack": {"name": "frank_wolfe", "options": {"epochs": 7},
                          "domain": {"alpha_grid": [0.0, 1.0]}},
               "output": {"dir": str(tmp_path)}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["attack", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert "['options']" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_unknown_attack_exit_code(self, tmp_path):
        cfg = {"pipeline": "attack",
               "dataset": {"generator": "or"},
               "model": {"family": "logistic_binary"},
               "target": {"source": "inline", "values": [0.0, 0.0, 0.1]},
               "eps_d": 1.0,
               "attack": {"name": "gradient_cancelling"}}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["attack", "--config", str(cfg_path)]) == EXIT_CONFIG

    def test_data_error_exit_code(self, tmp_path, monkeypatch):
        bad = tmp_path / "mnist"
        bad.mkdir()
        for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                     "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
            (bad / name).write_bytes(b"\x00\x00\x09\x99" + b"\x00" * 32)
        cfg = {"pipeline": "attack",
               "dataset": {"generator": "mnist", "dir": str(bad)},
               "model": {"family": "logistic_binary"},
               "target": {"source": "inline", "values": [0.0]},
               "eps_d": 1.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["attack", "--config", str(cfg_path)]) == EXIT_DATA

    def test_unreadable_json_exit_code(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text('{"pipeline": "attack",')
        cfg = {"pipeline": "attack", "dataset": {"path": "bad.json"},
               "model": {"family": "logistic_binary"},
               "target": {"source": "inline", "values": [0.0, 0.0, 0.1]}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        for name in ("missing.json", "bad.json", "cfg.json"):
            argv = ["attack", "--config", str(tmp_path / name)]
            assert main(argv) == EXIT_CONFIG
            assert "cannot read JSON" in capsys.readouterr().err

    def test_missing_mnist_dir_exit_code(self, tmp_path, monkeypatch, capsys):
        # the shipped MNIST config reads data/mnist from the working directory
        monkeypatch.chdir(tmp_path)
        cfg_path = os.path.join(CONFIG_DIR, "fig2_mnist17.json")
        assert main(["sweep", "--config", cfg_path, "--jobs", "1"]) == EXIT_CONFIG
        assert "'data/mnist'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        out_c = str(tmp_path / "c.json")
        main(["gen-data", "--generator", "gauss_class", "--n", "20",
              "--d", "2", "--seed", "1", "--out", out_a])
        monkeypatch.setenv("POISONLAB_SEED", "99")
        main(["gen-data", "--generator", "gauss_class", "--n", "20",
              "--d", "2", "--seed", "1", "--out", out_b])
        monkeypatch.delenv("POISONLAB_SEED")
        main(["gen-data", "--generator", "gauss_class", "--n", "20",
              "--d", "2", "--seed", "99", "--out", out_c])
        assert open(out_b).read() != open(out_a).read()
        assert open(out_b).read() == open(out_c).read()

    def test_parallel_sweep_matches_serial(self, tmp_path, monkeypatch):
        served = []

        class RecordingPool(ProcessPoolExecutor):
            def map(self, fn, *columns, **kwargs):
                columns = [list(c) for c in columns]
                served.append((fn, list(zip(*columns))))
                return super().map(fn, *columns, **kwargs)

        # the pool is looked up by this name at run time
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        base = {
            "pipeline": "sweep",
            "seed": 3,
            "dataset": {"generator": "or", "seed": 3, "reps": 8},
            "test_dataset": {"generator": "or", "seed": 903, "reps": 4},
            "model": {"family": "logistic_binary"},
            "targets": [{"source": "inline", "values": [-0.7, -0.7, 0.35]},
                        {"source": "inline", "values": [-1.0, -0.9, 0.5]}],
            "eps_d": [0.5, 1.5],
            "attack": {"name": "gradient_canceling",
                       "options": {"lr": 5.0, "epochs": 50}},
        }
        serial = dict(base, output={"csv": str(tmp_path / "serial.csv")})
        parallel = dict(base, output={"csv": str(tmp_path / "par.csv")})
        run(json.loads(json.dumps(serial)), jobs=1)
        assert served == []
        run(json.loads(json.dumps(parallel)), jobs=2)
        [(fn, cells)] = served
        assert fn is sweep_cell
        # one sweep_cell argument tuple per cell, target-major
        assert [(c[4], c[5], c[7]) for c in cells] == \
            [(ti, e, derive_seed(3, ti, ei))
             for ti in range(2) for ei, e in enumerate([0.5, 1.5])]
        assert (tmp_path / "serial.csv").read_text() == \
            (tmp_path / "par.csv").read_text()

    def _diverge(self, tmp_path, dataset, model, train):
        # training the base model of a grad_ascent target diverges
        cfg = {"pipeline": "attack",
               "seed": 0,
               "dataset": dataset,
               "model": model,
               "train": train,
               "target": {"source": "grad_ascent", "eps_w": 1.0},
               "eps_d": 1.0,
               "output": {"dir": str(tmp_path)}}
        cfg_path = tmp_path / "div.json"
        cfg_path.write_text(json.dumps(cfg))
        with np.errstate(all="ignore"):
            return main(["attack", "--config", str(cfg_path)])

    def test_divergence_exit_code(self, tmp_path, capsys):
        # mlp1's momentum loop overshoots at train.lr 1e6
        assert self._diverge(tmp_path, {"generator": "or", "seed": 0},
                             {"family": "mlp1", "hidden": 2},
                             {"lr": 1e6}) == 4
        assert "training diverged" in capsys.readouterr().err

    def test_convex_training_divergence_exit_code(self, tmp_path, capsys):
        # labels near 1e300 overflow the squared loss at the init
        assert self._diverge(tmp_path, {"generator": "gauss_reg", "seed": 0,
                                        "n": 100, "w_true": [1e300, -1.0],
                                        "noise": 0.1},
                             {"family": "least_squares"}, {}) == 4
        assert "training diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, key", [
        ("train", ["--epochs", "0"], "--epochs"),
        ("train", ["--lr", "-1"], "--lr"),
        ("threshold", ["--target", "w3", "--c-convention", "1"],
         "--c-convention"),
        ("make-target", ["--mode", "grad-ascent", "--eps-w", "-1"], "--eps-w"),
        ("make-target", ["--mode", "grad-ascent", "--steps", "0"], "--steps"),
        ("make-target", ["--mode", "scaled", "--params0", "w3",
                         "--scale", "0"], "--scale"),
        ("threshold", ["--target", "w2"], "--target: 2 parameter values"),
        ("retrain", ["--target", "w2"], "--target: 2 parameter values"),
        ("sweep", ["--jobs", "0"], "--jobs"),
        ("gen-data", ["--reps", "0"], "--reps"),
        ("retrain", ["--target", "w3", "--poison", "g4"],
         "--poison: a classification set of 4 features"),
        # the last --test given is the one used
        ("retrain", ["--target", "w3", "--test", "g4"],
         "--test: a classification set of 4 features")],
        ids=["train-epochs", "train-lr", "threshold-c_convention",
             "make_target-eps_w", "make_target-steps", "make_target-scale",
             "threshold-short_target", "retrain-short_target", "sweep-jobs",
             "gen_data-reps", "retrain-poison_dim", "retrain-test_dim"])
    def test_bad_flag_exits_2(self, tmp_path, tmp_path_factory, capsys,
                              command, flags, key):
        # w2 is too short for the 3-parameter model, w3 fits it; g4 has one
        # feature more than the model takes
        data = str(tmp_path / "or.json")
        main(["gen-data", "--generator", "or", "--reps", "2", "--out", data])
        for name in ("w2", "w3"):
            ser.write_json_atomic(str(tmp_path / name), ser.params_to_obj(
                np.array([0.1, 0.2, 0.3][:int(name[1])])))
        g4 = str(tmp_path_factory.mktemp("sets") / "g4.json")
        main(["gen-data", "--generator", "gauss_class", "--n", "20",
              "--d", "3", "--out", g4])
        model = ["--model", "logistic"]
        inputs = {"train": ["--data", data, "--out", str(tmp_path / "p"),
                            *model],
                  "threshold": ["--data", data, *model],
                  "make-target": ["--data", data, "--out", str(tmp_path / "t"),
                                  *model],
                  "retrain": ["--clean", data, "--test", data, *model],
                  "gen-data": ["--generator", "or", "--out",
                               str(tmp_path / "d")],
                  # the flags are checked before the config is read
                  "sweep": ["--config", str(tmp_path / "cfg.json")]}[command]
        files = {"w2": str(tmp_path / "w2"), "w3": str(tmp_path / "w3"),
                 "g4": g4}
        flags = [files.get(f, f) for f in flags]
        assert main([command, *inputs, *flags]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["or.json", "w2", "w3"]

    @pytest.mark.parametrize("flags, key, value", [
        (["--n", "1"], "n", 1), (["--noise", "-0.5"], "noise", -0.5)],
        ids=["n", "noise"])
    def test_gen_data_gauss_reg_flags_take_its_bounds(self, tmp_path, flags,
                                                      key, value):
        # gauss_reg allows n >= 1 and any noise; the flags once took
        # gauss_class's n >= 2 and or's noise_sigma >= 0
        out = str(tmp_path / "reg.json")
        assert main(["gen-data", "--generator", "gauss_reg", "--w-true", "2",
                     "--seed", "4", "--out", out, *flags]) == 0
        obj = {"generator": "gauss_reg", "seed": 4, "w_true": [2.0],
               key: value}
        assert ser.read_json(out) == ser.dataset_to_obj(
            resolve_dataset(obj, 4))

    @pytest.mark.parametrize("flags, key", [
        (["--generator", "gauss_class", "--n", "1"], "--n must be"),
        (["--generator", "or", "--n", "5"], "'--n'"),
        (["--generator", "gauss_reg", "--w-true", "1", "--reps", "3"],
         "'--reps'"),
        (["--generator", "gauss_reg"], "--w-true is required")],
        ids=["class_n", "or_n", "reg_reps", "reg_no_w_true"])
    def test_gen_data_bad_generator_flag_exits_2(self, tmp_path, capsys,
                                                 flags, key):
        assert main(["gen-data", *flags, "--out",
                     str(tmp_path / "d.json")]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_gen_data_reg_size_names_the_flag(self, tmp_path, capsys):
        # the same check on a config names its key, on gen-data the flag
        assert main(["gen-data", "--generator", "gauss_reg", "--w-true", "1",
                     "2", "--n", "1", "--out",
                     str(tmp_path / "d.json")]) == EXIT_CONFIG
        assert "--n must be >= len(--w-true), got 1" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        with pytest.raises(ConfigError, match=r"dataset\.n must be"):
            resolve_dataset({"generator": "gauss_reg", "n": 1,
                             "w_true": [1.0, 2.0]}, seed=0)

    def test_model_alias_in_threshold(self, tmp_path):
        data = str(tmp_path / "or.json")
        params = str(tmp_path / "w.json")
        main(["gen-data", "--generator", "or", "--seed", "0", "--out", data])
        main(["train", "--data", data, "--model", "logistic", "--out", params])
        out = str(tmp_path / "rep.json")
        assert main(["threshold", "--data", data, "--model", "logistic",
                     "--target", params, "--out", out]) == 0

    def test_frank_wolfe_pipeline(self, tmp_path):
        cfg = {
            "pipeline": "attack",
            "seed": 0,
            "dataset": {"generator": "toy3"},
            "model": {"family": "logistic_binary"},
            "target": {"source": "inline",
                       "values": [0.0, 1.3862943611198906]},
            "eps_d": 1.0,
            "attack": {"name": "frank_wolfe",
                       "domain": {"alpha_grid": [-6.0 + 0.05 * i
                                                 for i in range(241)],
                                  "labels": [0, 1], "iters": 200,
                                  "step_rule": "line_search"}},
            "output": {"atoms": str(tmp_path / "atoms.json"),
                       "trace": str(tmp_path / "fw_trace.csv")},
        }
        cfg_path = tmp_path / "fw.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["attack", "--config", str(cfg_path)]) == 0
        atoms = json.loads((tmp_path / "atoms.json").read_text())
        assert len(atoms["weights"]) == len(atoms["atoms_x"])
        assert abs(sum(atoms["weights"]) - 1.0) <= 1e-9
        lines = (tmp_path / "fw_trace.csv").read_text().splitlines()
        assert lines[0] == "epoch,merit,grad_norm" and len(lines) == 202
        # the attack trace's one formula, at eps_d 1
        for line in lines[1:]:
            _, merit, grad_norm = map(float, line.split(","))
            assert grad_norm == np.sqrt(2.0 * merit) / 2.0

    def test_matching_trace_grad_norm_is_the_mixture_norm(self, tmp_path):
        # at eps_d 1 the initial poison set is a permutation of the clean
        # set, so row 0's mixture norm is |g(mu)|; the cosine-based formula
        # gave sqrt(2 * 2) / 2 = 1 here, since least squares reverses g(mu)
        gen = {"generator": "gauss_reg", "seed": 3, "n": 40,
               "w_true": [1.0, -1.0], "noise": 0.1}
        target = [0.5, 2.0, -1.0]
        cfg = {"pipeline": "attack", "seed": 0, "dataset": gen,
               "model": {"family": "least_squares"},
               "target": {"source": "inline", "values": target},
               "eps_d": 1.0,
               "attack": {"name": "gradient_matching",
                          "options": {"lr": 1.0, "epochs": 5}},
               "output": {"dir": str(tmp_path)}}
        outputs = run(cfg)
        rows = [line.split(",") for line in
                open(outputs["trace"]).read().splitlines()[1:]]
        clean = resolve_dataset(gen, 0)
        spec = pl.ModelSpec("least_squares", clean.dim)
        g_mu = pl.mean_param_grad(spec, np.array(target), clean)
        assert len(rows) == 5 and float(rows[0][1]) == pytest.approx(2.0)
        assert float(rows[0][2]) == pytest.approx(np.linalg.norm(g_mu),
                                                  rel=1e-12)
        assert abs(np.linalg.norm(g_mu) - 1.0) > 0.1


class TestModelTaskAndDefend:
    def test_classification_family_on_regression_set_flag(self, tmp_path,
                                                          capsys):
        reg = str(tmp_path / "reg.json")
        main(["gen-data", "--generator", "gauss_reg", "--w-true", "1", "-2",
              "--out", reg])
        assert main(["train", "--data", reg, "--model", "logistic",
                     "--out", str(tmp_path / "p.json")]) == EXIT_CONFIG
        assert "--model: logistic_binary needs a classification set" \
            in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["reg.json"]
        # least squares fits a classification set's labels as numbers
        xor = str(tmp_path / "or.json")
        main(["gen-data", "--generator", "or", "--out", xor])
        assert main(["train", "--data", xor, "--model", "ls",
                     "--out", str(tmp_path / "ls.json")]) == 0

    def test_classification_family_on_regression_set_config(self, tmp_path,
                                                            capsys):
        cfg = {"pipeline": "attack",
               "dataset": {"generator": "gauss_reg", "n": 50,
                           "w_true": [1.0, -2.0]},
               "model": {"family": "logistic_binary"},
               "target": {"source": "random", "eps_w": 0.5},
               "output": {"dir": str(tmp_path)}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["attack", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert "model.family: logistic_binary needs a classification set" \
            in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_sever_defended_clean_acc_is_the_clean_models(self, tmp_path):
        # the defended report once retrained the filtered set as its clean
        # model: clean_acc 54 against the clean model's 41, acc_drop 0
        gauss = {"generator": "gauss_class", "n": 200, "d": 2, "sep": 0.5}
        cfg = {"pipeline": "defend", "seed": 0,
               "dataset": {**gauss, "seed": 0},
               "test_dataset": {**gauss, "seed": 900},
               "model": {"family": "logistic_binary"},
               "target": {"source": "grad_ascent", "eps_w": 1.0},
               "eps_d": 0.2,
               "attack": {"options": {"epochs": 200}},
               "defense": {"name": "sever", "rounds": 2},
               "output": {"report": str(tmp_path / "rep.json")}}
        run(cfg)
        report = ser.read_json(str(tmp_path / "rep.json"))
        undefended, defended = report["undefended"], report["defended"]
        assert defended["clean_acc"] == undefended["clean_acc"] == 41.0
        assert defended["acc_drop"] == \
            defended["clean_acc"] - defended["poisoned_acc"] != 0.0

    def test_dpa_divergence_exit_code(self, tmp_path, capsys, monkeypatch):
        # only the partition models take train.lr 1e6: the pipeline's
        # single models train at the default options
        monkeypatch.setattr(cli, "train", lambda spec, ds, opts, seed:
                            pl.train(spec, ds, pl.TrainOptions(), seed))
        cfg = {"pipeline": "defend", "seed": 0,
               "dataset": {"generator": "or", "seed": 0, "reps": 5},
               "test_dataset": {"generator": "or", "seed": 900, "reps": 2},
               "model": {"family": "mlp1", "hidden": 2},
               "train": {"lr": 1e6},
               "target": {"source": "random", "eps_w": 0.1},
               "eps_d": 0.1,
               "attack": {"options": {"epochs": 20}},
               "defense": {"name": "dpa", "k": 4},
               "output": {"report": str(tmp_path / "rep.json")}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with np.errstate(all="ignore"):
            assert main(["defend", "--config", str(cfg_path)]) == 4
        assert "training diverged" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


MUTATED_CONFIGS = ("d6_toy_blocked", "defense_sever", "fig1_small",
                   "select_target", "d3_leastsq_gc")
DELETE = "<delete>"


def _key_paths(obj, prefix=()):
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


def _mutations():
    for name in MUTATED_CONFIGS:
        cfg = ser.read_json(os.path.join(CONFIG_DIR, name + ".json"))
        for path in _key_paths(cfg):
            for value in (DELETE, "x", 3, -1, [], {}, None):
                yield name, path, value


class TestConfigMutations:
    """One-field mutations of shipped configs exit cleanly through main."""

    # about 1,000 mutations in all; a passing pipeline run costs up to ~1 s
    @given(st.sampled_from(list(_mutations())))
    @settings(max_examples=40, deadline=None)
    def test_mutated_config_exits_cleanly(self, mutation):
        name, path, value = mutation
        original = ser.read_json(os.path.join(CONFIG_DIR, name + ".json"))
        cfg = copy.deepcopy(original)
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if value == DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        pipeline = original["pipeline"]
        jobs = ["--jobs", "1"] if pipeline == "sweep" else []
        cwd = os.getcwd()
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = os.path.join(tmp, "cfg.json")
            with open(cfg_path, "w") as f:
                json.dump(cfg, f)
            os.chdir(tmp)  # the configs write to out/ under the working dir
            try:
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = main([pipeline.replace("_", "-"), "--config",
                                 cfg_path, *jobs])
            finally:
                os.chdir(cwd)
        assert code in (0, EXIT_CONFIG, EXIT_DATA, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
