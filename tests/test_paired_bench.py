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
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower"}]
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
