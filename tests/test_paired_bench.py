import importlib.util
import json
import os

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "paired_bench.py")
_spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)


def test_one_block_per_workload(tmp_path, monkeypatch, capsys):
    # each side reports a fixed wall time; the change is faster on "b" only
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower",
                "bound": 0.25}]
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": metrics}))
    walls = {("parent", "a"): 1.0, ("change", "a"): 1.0,
             ("parent", "b"): 2.0, ("change", "b"): 1.0}
    runs = []

    def fake_run(root, workload, seed, seconds):
        side = "parent" if root == "PARENT" else "change"
        runs.append((side, workload))
        return {"wall_s": walls[side, workload]}

    monkeypatch.setattr(paired_bench, "run_once", fake_run)
    assert paired_bench.main(["PARENT", str(tmp_path), "--workload", "a",
                              "--workload", "b", "--pairs", "3"]) == 0
    # the workloads run one after another; the first side alternates
    assert runs == [("parent", "a"), ("change", "a"), ("change", "a"),
                    ("parent", "a"), ("parent", "a"), ("change", "a"),
                    ("parent", "b"), ("change", "b"), ("change", "b"),
                    ("parent", "b"), ("parent", "b"), ("change", "b")]
    blocks = capsys.readouterr().out.split("\n\n")
    assert [b.splitlines()[0].split()[0] for b in blocks] == ["a", "b"]
    assert "wins 0/3" in blocks[0] and "x1.000" in blocks[0]
    assert "wins 3/3" in blocks[1] and "x0.500" in blocks[1]


def test_verdict_per_metric(tmp_path, monkeypatch, capsys):
    # four pairs per workload; the parent reads 1, 2, 1, 2 on "noisy", whose
    # quartile spread exceeds a quarter of its median
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower",
                "bound": 0.25},
               {"name": "reach_frac", "unit": "frac", "better": "higher",
                "bound": 0.2}]
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": metrics}))
    runs = {("parent", "steady"): [(1.0, 1.0)] * 4,
            ("change", "steady"): [(1.3, 0.75)] * 2 + [(1.2, 0.75)] * 2,
            ("parent", "noisy"): [(1.0, 1.0), (2.0, 1.0)] * 2,
            ("change", "noisy"): [(1.5, 1.0), (0.9, 1.0)] * 2,
            ("parent", "faster"): [(1.0, 1.0), (2.0, 1.0)] * 2,
            ("change", "faster"): [(0.9, 1.0)] * 4}

    def fake_run(root, workload, seed, seconds):
        wall, reach = runs["parent" if root == "PARENT" else "change",
                           workload].pop()
        return {"wall_s": wall, "reach_frac": reach}

    monkeypatch.setattr(paired_bench, "run_once", fake_run)
    assert paired_bench.main(["PARENT", str(tmp_path), "--pairs", "4"]
                             + [a for w in ("steady", "noisy", "faster")
                                for a in ("--workload", w)]) == 0
    lines = [b.splitlines()[1:] for b in
             capsys.readouterr().out.split("\n\n")]
    verdicts = [[line.split()[-1] for line in block] for block in lines]
    # steady: wall_s x1.25 is at the bound, reach_frac x0.75 past it
    assert verdicts[0] == ["ok", "worse"]
    # noisy: the change's median is lower, but the parent's quartiles
    # spread wider than the bound, and some change runs lose
    assert verdicts[1] == ["unresolved", "ok"]
    # faster: as wide, but every change run beats every parent run
    assert verdicts[2] == ["ok", "ok"]
