"""JSON and CSV serialization with round-trip-safe floats and atomic writes.

Both formats go through the standard library (`json`, `csv`) after one
conversion step, `_plain`: numpy arrays and scalars become Python lists,
ints and floats, and the non-finite floats legal in threshold reports
become the strings "nan", "inf" and "-inf" (quoted in JSON, bare in CSV).
Floats are written in Python's shortest round-trip form, so parse ->
serialize -> parse is the identity. CSV fields that hold a comma, a quote
or a line break are quoted.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .models import ModelSpec


def _plain(obj):
    """`obj` as JSON-ready Python values; any other type is a ConfigError."""
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else str(x)
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    raise ConfigError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return json.dumps(_plain(obj), indent=2, allow_nan=False) + "\n"


def write_text_atomic(path: str, text: str):
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj):
    write_text_atomic(path, dumps(obj))


def read_json(path: str):
    """Parse a JSON file; a missing or malformed one is a ConfigError."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read JSON from {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# domain objects

def dataset_to_obj(ds: Dataset) -> dict:
    return {
        "task": ds.task,
        "classes": ds.classes,
        "shape": list(ds.x.shape),
        "x": ds.x.ravel().tolist(),
        "y": ds.y.tolist(),
        "domain_box": ds.domain_box.tolist(),
    }


def dataset_from_obj(obj: dict) -> Dataset:
    try:
        n, d = obj["shape"]
        x = np.asarray(obj["x"], dtype=np.float64).reshape(n, d)
        box = None
        if obj.get("domain_box") is not None:
            box = np.array([[float(lo), float(hi)]
                            for lo, hi in obj["domain_box"]])
        return Dataset(x, np.asarray(obj["y"]), obj["task"],
                       int(obj.get("classes", 2)), box)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed dataset object: {exc}") from exc


def spec_to_obj(spec: ModelSpec) -> dict:
    return {"family": spec.family, "input_dim": spec.input_dim,
            "classes": spec.classes, "hidden": spec.hidden,
            "leaky_slope": spec.leaky_slope}


def spec_from_obj(obj: dict) -> ModelSpec:
    try:
        return ModelSpec(family=obj["family"], input_dim=int(obj["input_dim"]),
                         classes=int(obj.get("classes", 2)),
                         hidden=int(obj.get("hidden", 0)),
                         leaky_slope=float(obj.get("leaky_slope", 0.2)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed model spec: {exc}") from exc


def params_to_obj(params: np.ndarray, spec: ModelSpec | None = None) -> dict:
    params = np.asarray(params, dtype=np.float64).ravel()
    obj = {"shape": [int(params.size)], "values": params.tolist()}
    if spec is not None:
        obj["model"] = spec_to_obj(spec)
    return obj


def params_from_obj(obj: dict) -> np.ndarray:
    try:
        values = np.asarray(obj["values"], dtype=np.float64).ravel()
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed parameter object: {exc}") from exc
    if "shape" in obj and int(np.prod(obj["shape"])) != values.size:
        raise ConfigError("parameter shape metadata disagrees with values")
    return values


def csv_lines(columns, rows) -> str:
    """Rows of dicts to CSV text, one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(_plain([row[c] for c in columns]) for row in rows)
    return buf.getvalue()
