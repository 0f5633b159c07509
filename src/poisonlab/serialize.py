"""JSON and CSV serialization with round-trip-safe floats and atomic writes.

Floats are rendered with 17 significant digits so parse -> serialize ->
parse is the identity; infinities and NaN (legal in threshold reports)
are emitted as the quoted strings "inf", "-inf" and "nan".
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .models import ModelSpec


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _emit(obj, out: list, indent: int):
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out, indent)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[")
        for i, item in enumerate(obj):
            out.append("\n" + pad + "  ")
            _emit(item, out, indent + 1)
            if i < len(obj) - 1:
                out.append(",")
        out.append("\n" + pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        keys = list(obj)
        for i, k in enumerate(keys):
            out.append("\n" + pad + "  " + json.dumps(str(k)) + ": ")
            _emit(obj[k], out, indent + 1)
            if i < len(keys) - 1:
                out.append(",")
        out.append("\n" + pad + "}")
    else:
        raise ConfigError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


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
    """Rows of dicts to CSV text; floats keep 17 significant digits."""
    def cell(v):
        if isinstance(v, (float, np.floating)):
            s = fmt_float(float(v))
            return s.strip('"')
        return str(v)

    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"
