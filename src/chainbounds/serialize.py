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
    "matrix_to_json",
    "matrix_from_json",
    "space_to_json",
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


def canonical_json(data) -> str:
    return json.dumps(jsonify(data), sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(data) -> str:
    """sha256 of the canonical JSON encoding."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def write_json(path, data) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(jsonify(data), sort_keys=True, indent=2, allow_nan=False))
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


def matrix_to_json(a) -> list:
    """2-D array to nested lists; complex entries become [re, im] pairs."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise DomainError(f"expected a 2-D matrix, got shape {arr.shape}")
    if np.iscomplexobj(arr) and np.any(arr.imag != 0):
        return [[_complex_pair(complex(z)) for z in row] for row in arr.tolist()]
    return np.real(arr).tolist()


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


def space_to_json(space: FiniteMetricSpace) -> dict:
    return {"labels": list(space.labels), "dist": space.dist.tolist()}


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
