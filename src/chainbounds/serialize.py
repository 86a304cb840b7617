"""JSON/CSV plumbing: canonical encoding, config hashing, file formats.

Artifacts must be byte-identical across reruns of the same config, so JSON
is emitted with sorted keys and fixed separators, CSV with a fixed line
terminator, and nothing carries a timestamp.  Complex matrix entries ride
as [re, im] pairs inside plain 2-D arrays.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from types import MappingProxyType

import numpy as np

from .errors import DomainError
from .metric import FiniteMetricSpace, build_metric_space, space_from_points

__all__ = [
    "jsonify",
    "canonical_json",
    "config_hash",
    "write_json",
    "load_json",
    "write_csv",
    "matrix_from_json",
    "space_from_json",
    "load_samples",
]


def _complex_pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def jsonify(obj):
    """Recursively convert numpy/complex/mapping objects to JSON-ready data."""
    if isinstance(obj, (str, bool, int)) or obj is None:
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return _complex_pair(complex(obj))
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return [jsonify(row) for row in obj.tolist()]
        return obj.tolist()
    if isinstance(obj, (dict, MappingProxyType)):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [jsonify(v) for v in seq]
    if hasattr(obj, "to_dict"):
        return jsonify(obj.to_dict())
    raise DomainError(f"cannot serialize object of type {type(obj).__name__}")


def _non_finite(obj, path: str = "$"):
    """(JSON path, value) of the first NaN or infinity in jsonify's output, keys
    in sorted order; None if every number is finite."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        children = ((f"{path}.{k}", obj[k]) for k in sorted(obj))
    elif isinstance(obj, list):
        children = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_non_finite(v, p) for p, v in children)), None)


def _dumps(data, **layout) -> str:
    """json.dumps of jsonify(data) with sorted keys; a DomainError names the
    path of a NaN or infinity, which JSON cannot hold."""
    obj = jsonify(data)
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, **layout)
    except ValueError:  # searched for only on failure, so a finite encoding pays nothing
        path, value = _non_finite(obj)
        raise DomainError(f"{path} is {value}, and JSON holds only finite numbers") from None


def canonical_json(data) -> str:
    return _dumps(data, separators=(",", ":"))


def config_hash(data) -> str:
    """sha256 of the canonical JSON encoding."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def write_json(path, data) -> None:
    """data as indented canonical JSON, in a directory made if missing."""
    text = _dumps(data, indent=2)  # first, so a refusal makes no directory and no file
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path, fieldnames, rows, header_comment: str | None = None) -> None:
    """Deterministic CSV with an optional leading '#' metadata line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        fields = list(fieldnames)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([row.get(k, "") for k in fields] for row in rows)


def matrix_from_json(rows) -> np.ndarray:
    """Nested lists back to a matrix; [re, im] pairs decode to complex entries.

    Every entry is a finite number or a pair of them: booleans and the NaN
    and Infinity that json.load accepts are rejected by row and column.
    """
    if not isinstance(rows, (list, tuple)) or not rows:
        raise DomainError("matrix JSON must be a nonempty list of rows")
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise DomainError("matrix JSON rows must be lists")
        parsed.append([])
        for j, entry in enumerate(row):
            parts = tuple(entry) if isinstance(entry, (list, tuple)) else (entry, 0)
            # NaN fails the comparison, and an integer past the float range fails it exactly
            if len(parts) != 2 or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and abs(v) <= sys.float_info.max for v in parts
            ):
                raise DomainError(
                    "matrix entries must be finite numbers or [re, im] pairs of them, "
                    f"got {entry!r} at row {i}, column {j}"
                )
            parsed[-1].append(complex(*parts))
    arr = np.array(parsed, dtype=complex)
    if np.all(arr.imag == 0):
        return arr.real
    return arr


def space_from_json(obj) -> FiniteMetricSpace:
    """{"labels", "dist"} or {"points", "norm"} to a validated space."""
    if not isinstance(obj, dict):
        raise DomainError("metric space JSON must be an object")
    if "dist" in obj:
        return build_metric_space(obj["dist"], labels=obj.get("labels"))
    if "points" in obj:
        return space_from_points(
            obj["points"], norm=obj.get("norm", "l2"), labels=obj.get("labels")
        )
    raise DomainError('metric space JSON needs a "dist" matrix or a "points" array')


def load_samples(path, fmt: str = "text") -> np.ndarray:
    """Sample arrays from newline-delimited text or little-endian float64 binary."""
    if fmt == "text":
        data = np.loadtxt(path, dtype=float, ndmin=1)
    elif fmt == "binary":
        data = np.fromfile(path, dtype="<f8")
    else:
        raise DomainError(f"unknown sample format {fmt!r}; expected text or binary")
    if data.size == 0:
        raise DomainError(f"no samples found in {path}")
    return np.asarray(data, dtype=float).ravel()
