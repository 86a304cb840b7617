"""Canonical JSON, config hashing, and file format round trips."""

import csv
import json
import math
import re

import numpy as np
import pytest

from chainbounds import (
    DomainError,
    build_metric_space,
    canonical_json,
    config_hash,
    jsonify,
    load_json,
    load_samples,
    matrix_from_json,
    space_from_json,
    space_from_points,
    write_csv,
    write_json,
)


def test_jsonify_scalars_and_numpy():
    assert jsonify(np.float64(1.5)) == 1.5
    assert isinstance(jsonify(np.float64(1.5)), float)
    assert jsonify(np.int32(7)) == 7
    assert isinstance(jsonify(np.int32(7)), int)
    assert jsonify(None) is None
    assert jsonify(True) is True
    assert jsonify(np.True_) is True
    assert isinstance(jsonify(np.bool_(False)), bool)
    assert jsonify(2 + 3j) == [2.0, 3.0]
    assert jsonify(np.arange(3)) == [0, 1, 2]
    assert jsonify({1: (1, 2)}) == {"1": [1, 2]}


def test_jsonify_sets_are_sorted():
    assert jsonify({3, 1, 2}) == [1, 2, 3]
    assert jsonify(frozenset(["b", "a"])) == ["a", "b"]


def test_jsonify_rejects_unknown_objects():
    with pytest.raises(DomainError):
        jsonify(object())


def test_canonical_json_sorts_keys_and_is_compact():
    s = canonical_json({"b": 1, "a": [1.0, 2]})
    assert s == '{"a":[1.0,2],"b":1}'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_json({"x": math.inf})


def test_a_non_finite_number_is_named_by_its_path_and_writes_nothing(tmp_path):
    data = {"b": [1.0, {"z": 2.0, "y": -math.inf}], "a": np.array([0.0, math.nan])}
    with pytest.raises(DomainError, match=r"^\$\.a\[1\] is nan, and JSON holds only finite"):
        config_hash(data)
    del data["a"]
    with pytest.raises(DomainError, match=r"^\$\.b\[1\]\.y is -inf, and JSON holds only finite"):
        write_json(tmp_path / "out.json", data)
    assert list(tmp_path.iterdir()) == []


def test_config_hash_is_order_insensitive_and_sensitive_to_values():
    a = config_hash({"x": 1, "y": 2})
    b = config_hash({"y": 2, "x": 1})
    c = config_hash({"x": 1, "y": 3})
    assert a == b
    assert a != c
    assert len(a) == 64 and set(a) <= set("0123456789abcdef")


def test_write_json_deterministic_bytes(tmp_path):
    data = {"b": np.float64(2.0), "a": [1, 2, 3]}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, data)
    write_json(p2, {"a": [1, 2, 3], "b": 2.0})
    assert p1.read_bytes() == p2.read_bytes()
    assert load_json(p1) == {"a": [1, 2, 3], "b": 2.0}
    assert p1.read_bytes().endswith(b"\n")


def test_write_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "bad.json", {"x": float("nan")})


def test_write_csv_layout(tmp_path):
    p = tmp_path / "rows.csv"
    write_csv(
        p,
        ["u", "value", "note"],
        [{"u": 1, "value": 0.5}, {"u": 2, "value": 0.25, "note": "ok"}],
        header_comment="config_hash: abc",
    )
    text = p.read_text()
    lines = text.split("\n")
    assert lines[0] == "# config_hash: abc"
    assert lines[1] == "u,value,note"
    assert lines[2] == "1,0.5,"  # missing keys become empty fields
    assert lines[3] == "2,0.25,ok"
    # rewriting produces identical bytes
    first = p.read_bytes()
    write_csv(
        p,
        ["u", "value", "note"],
        [{"u": 1, "value": 0.5}, {"u": 2, "value": 0.25, "note": "ok"}],
        header_comment="config_hash: abc",
    )
    assert p.read_bytes() == first


def test_write_csv_without_comment(tmp_path):
    p = tmp_path / "plain.csv"
    write_csv(p, ["a"], [{"a": 1}])
    assert p.read_text() == "a\n1\n"


def dictwriter_csv(path, fieldnames, rows, header_comment=None):
    """The csv.DictWriter form write_csv took before writing plain rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fieldnames})


def test_write_csv_bytes_equal_the_dictwriter_form(tmp_path):
    fields = ["u", "count", "centers", "note"]
    rows = [
        {"u": 0.1 + 0.2, "count": 3, "centers": "0 4 7", "note": None},
        {"u": 1e-300, "count": np.int64(1), "centers": "a,b", "extra": "dropped"},
        {"u": math.inf, "note": 'quote " and\nnewline'},
        {},
    ] * 50
    for comment in (None, "config_hash: abc"):
        write_csv(tmp_path / "new.csv", fields, rows, header_comment=comment)
        dictwriter_csv(tmp_path / "old.csv", fields, rows, header_comment=comment)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# ---------------------------------------------------------------------------
# matrix round trips


def test_matrix_real_roundtrip():
    a = np.array([[1.0, 2.5], [-3.0, 0.0]])
    out = matrix_from_json([[1.0, 2.5], [-3.0, 0.0]])
    assert out.dtype.kind == "f"
    np.testing.assert_array_equal(out, a)


def test_matrix_complex_roundtrip():
    a = np.array([[1 + 2j, 0], [0, 1 - 1j]])
    out = matrix_from_json([[[1.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, -1.0]]])
    assert out.dtype.kind == "c"
    np.testing.assert_array_equal(out, a)


def test_matrix_json_validation():
    with pytest.raises(DomainError):
        matrix_from_json([])
    with pytest.raises(DomainError):
        matrix_from_json([1, 2])
    with pytest.raises(DomainError):
        matrix_from_json([[[1, 2, 3]]])
    with pytest.raises(DomainError):
        matrix_from_json([["x"]])
    with pytest.raises(DomainError):
        matrix_from_json([[True]])


@pytest.mark.parametrize("entry, shown", [
    ([True, False], "[True, False]"),
    ([1.0, True], "[1.0, True]"),
    (math.nan, "nan"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    ([0.0, math.nan], "[0.0, nan]"),
    ([-math.inf, 1.0], "[-inf, 1.0]"),
    (10**400, "1" + "0" * 400),
])
def test_matrix_json_rejects_booleans_and_non_finite_entries_by_position(entry, shown):
    rows = [[0.0, 1.0], [2.0, entry]]
    with pytest.raises(DomainError, match=re.escape(f"{shown} at row 1, column 1")):
        matrix_from_json(rows)
    # json.load reads NaN and Infinity, so a file can carry them
    if not isinstance(entry, int):
        with pytest.raises(DomainError, match="at row 1, column 1"):
            matrix_from_json(json.loads(json.dumps(rows)))


def test_matrix_json_keeps_the_largest_finite_entries():
    big = np.finfo(float).max
    np.testing.assert_array_equal(matrix_from_json([[big, [-big, big]]]),
                                  np.array([[big, complex(-big, big)]]))


def test_matrix_json_mixed_real_and_pairs():
    out = matrix_from_json([[1, [0.0, 1.0]], [2.5, 0]])
    np.testing.assert_array_equal(out, np.array([[1, 1j], [2.5, 0]]))


# ---------------------------------------------------------------------------
# metric space round trips


def test_space_roundtrip_dist_form():
    space = build_metric_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]], labels=["a", "b", "c"])
    back = space_from_json({"labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]})
    np.testing.assert_array_equal(back.dist, space.dist)
    assert back.labels == space.labels


def test_space_from_points_form():
    obj = {"points": [[0.0, 0.0], [3.0, 4.0]], "norm": "l2"}
    space = space_from_json(obj)
    assert space.dist[0, 1] == pytest.approx(5.0)
    direct = space_from_points([[0.0, 0.0], [3.0, 4.0]], norm="l2")
    np.testing.assert_array_equal(space.dist, direct.dist)


def test_space_json_validation():
    with pytest.raises(DomainError):
        space_from_json([1, 2])
    with pytest.raises(DomainError):
        space_from_json({"nothing": 1})


# ---------------------------------------------------------------------------
# sample loading


def test_load_samples_text(tmp_path):
    p = tmp_path / "vals.txt"
    p.write_text("1.5\n2.5\n0.25\n")
    np.testing.assert_array_equal(load_samples(p), [1.5, 2.5, 0.25])
    single = tmp_path / "one.txt"
    single.write_text("3.0\n")
    np.testing.assert_array_equal(load_samples(single), [3.0])


def test_load_samples_binary(tmp_path):
    p = tmp_path / "vals.bin"
    arr = np.array([0.5, -1.0, 2.0])
    arr.astype("<f8").tofile(p)
    np.testing.assert_array_equal(load_samples(p, fmt="binary"), arr)


def test_load_samples_validation(tmp_path):
    with pytest.raises(DomainError):
        load_samples(tmp_path / "x.bin", fmt="parquet")
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(DomainError):
        load_samples(empty, fmt="binary")


def test_jsonify_uses_to_dict_hook():
    class Thing:
        def to_dict(self):
            return {"kind": "thing", "values": np.array([1.0, 2.0])}

    assert jsonify(Thing()) == {"kind": "thing", "values": [1.0, 2.0]}


def test_config_hash_matches_manual_sha256():
    import hashlib

    data = {"alpha": 2, "grid": [1.0, 2.0]}
    manual = hashlib.sha256(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    assert config_hash(data) == manual
