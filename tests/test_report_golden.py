"""Golden reports of `gamma` and `cover`.

The cases cover `gamma` in exact mode (levels 0 and 1 free at p = 1, level 1
alone at p = 2, no free level at p = 4, 7 points, and the table-budget
refusal on 17 points at p = 1), in greedy mode (named outright), in auto mode
(exact on 9 points, where the exact table fits the budget, and greedy on 17
points at p = 1, where it does not), and as `--functional gamma-prime` in
exact and greedy mode and in auto mode (exact on 9 points, greedy on 13); and
`cover --profile --entropy-alpha` with and without `--radius`, exact (at most
`EXACT_COVER_CAP` points) and greedy.  The cases `gamma-greedy-auto` and
`gamma-prime-greedy` keep the names they had when auto mode chose greedy
there.  Integer grids under the l1 norm put ties in front of every
first-minimum rule.

A case writes its space file into a fresh directory, runs the command with
relative paths, and must give the same exit code, standard output, standard
error and artifact bytes (JSON report and, for a profile, the CSV grid).
The recorded data lives in report_golden.json next to this file.
"""

import json
from pathlib import Path

import pytest

from chainbounds.cli import main

GOLDEN = json.loads(Path(__file__).with_name("report_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: case["name"])
def test_report_matches_golden(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    for name, data in case["inputs"].items():
        (tmp_path / name).write_text(json.dumps(data))
    assert main(case["argv"] + ["--out", "out"]) == case["code"]
    captured = capsys.readouterr()
    assert captured.out.splitlines() == case["stdout"]
    assert captured.err.splitlines() == case["stderr"]
    out = tmp_path / "out"
    written = sorted(out.iterdir()) if out.exists() else []
    assert [f"out/{f.name}" for f in written] == sorted(case["files"])
    for f in written:
        assert f.read_bytes().decode() == case["files"][f"out/{f.name}"]
