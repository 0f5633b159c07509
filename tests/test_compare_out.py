import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "compare_out.py")
_spec = importlib.util.spec_from_file_location("compare_out", SCRIPT)
compare_out = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_out)


def _write(directory, files: dict):
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)
    return str(directory)


def test_number_text_alone_is_no_difference(tmp_path, capsys):
    old = _write(tmp_path / "old", {
        "a.json": '{"x": [1, 0.10000000000000001, "nan"], "s": "t"}\n',
        "b.csv": "k,v\n0,1\n1,nan\n"})
    new = _write(tmp_path / "new", {
        "a.json": '{"x": [1.0, 0.1, "nan"], "s": "t"}\n',
        "b.csv": "k,v\n0,1.0\n1,nan\n"})
    assert compare_out.main([old, new]) == 0
    assert capsys.readouterr().out == ""


def test_each_difference_is_named(tmp_path, capsys):
    old = _write(tmp_path / "old", {
        "a.json": '{"x": [1, 2], "m": {"seed": 6}}\n',
        "b.csv": "k,err\n0,\n1,\n",
        "gone.csv": "k\n"})
    new = _write(tmp_path / "new", {
        "a.json": '{"x": [1, 2.5, 3], "m": {}}\n',
        "b.csv": 'k,err\n0,\n1,"a, b"\n2,\n',
        "extra.json": "{}\n"})
    assert compare_out.main([old, new]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a.json: x[1]: 2 -> 2.5",
        "a.json: x[2]: missing in OLD",
        "a.json: m.seed: missing in NEW",
        "b.csv: row[1].err: '' -> 'a, b'",
        "b.csv: row[2]: missing in OLD",
        "extra.json: missing in OLD_DIR",
        "gone.csv: missing in NEW_DIR"]
