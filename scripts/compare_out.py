#!/usr/bin/env python3
"""Compare two output directories value for value.

    python scripts/compare_out.py OLD_DIR NEW_DIR

Every `.json` file is parsed with `json.load` and every `.csv` file with
`csv.reader`, and each leaf value is compared exactly. Numeric strings
are read as numbers, so `1` equals `1.0`, `"nan"` equals `nan` and only
the number text may differ between two files that agree. One line is
printed per differing value (file, row or key path, old, new) and one per
file that only one directory holds. The exit code is 1 on any difference
and 0 otherwise. There are no tolerances; `tests/test_golden.py` holds
those. A change that regenerates `out/` can run this against a copy of
the committed files to name the rows it moved.
"""

import argparse
import csv
import json
import math
import os
import sys

MISSING = object()


def _number(v):
    """A numeric string or number as an int or float; anything else as is."""
    if isinstance(v, str):
        for kind in (int, float):
            try:
                return kind(v)
            except ValueError:
                pass
    return v


def _same(a, b) -> bool:
    a, b = _number(a), _number(b)
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def _diff(old, new, path: str, out: list):
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            _diff(old.get(key, MISSING), new.get(key, MISSING),
                  f"{path}.{key}" if path else key, out)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            _diff(old[i] if i < len(old) else MISSING,
                  new[i] if i < len(new) else MISSING, f"{path}[{i}]", out)
    elif old is MISSING or new is MISSING:
        side = "NEW" if new is MISSING else "OLD"
        out.append(f"{path}: missing in {side}")
    elif not _same(old, new):
        out.append(f"{path}: {old!r} -> {new!r}")


def _read(path: str):
    """A JSON file as parsed; a CSV file as its header and one dict per
    row keyed by column name (fields past the header as "[i]")."""
    with open(path, newline="") as f:
        if path.endswith(".json"):
            return json.load(f)
        lines = list(csv.reader(f)) or [[]]
    header = lines[0]
    rows = [dict(zip(header + [f"[{i}]" for i in range(len(header), len(r))],
                     r)) for r in lines[1:]]
    return {"header": header, "row": rows}


def compare(old_dir: str, new_dir: str) -> list:
    """One line per difference between the outputs in the two directories."""
    def outputs(d):
        return {n for n in os.listdir(d) if n.endswith((".json", ".csv"))}

    old_names, new_names = outputs(old_dir), outputs(new_dir)
    lines = []
    for name in sorted(old_names | new_names):
        if name not in new_names or name not in old_names:
            side = "NEW_DIR" if name not in new_names else "OLD_DIR"
            lines.append(f"{name}: missing in {side}")
            continue
        found = []
        _diff(_read(os.path.join(old_dir, name)),
              _read(os.path.join(new_dir, name)), "", found)
        lines += [f"{name}: {msg}" for msg in found]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_dir")
    parser.add_argument("new_dir")
    args = parser.parse_args(argv)
    lines = compare(args.old_dir, args.new_dir)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
