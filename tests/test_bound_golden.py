"""Golden reports of `bound NAME` for every bound name the CLI offers.

Each case was recorded before the CLI read an evaluator's keyword arguments
from the params file by signature, and before the stock tail forms shared
one moments-to-tails step.  A case writes its params (and --fit) file into a
fresh directory, runs the command with relative paths, and must give the same
exit code, standard output, standard error and JSON report bytes.  Besides
one case per name, the probes pin:

- which fault a config with several faults reports (a psi-alpha tail with an
  order-2 functional and no diam, an Azuma bound with an order-2 functional
  and a negative diam, a gaussian tail with an order-2 functional and a
  negative sigma, an unregistered alpha);
- missing fields, undecodable functionals and psi-norms, an unknown name;
- keys that are not parameters (an extra key, a JSON "registry" and a JSON
  "metrics"), which are ignored and only enter the hashed config.

Three things were recorded later.  The `fitted` flag of a scalar result
(union-probability, kmr) prints as False, not 0.  A JSON null or object
where a number belongs names its field (azuma-null-diam,
lp-from-tail-object-gamma).  The moments-to-tails-no-u case, a tail bound
without u, prints no threshold and writes no "at_u"; it was recorded before
every exponential tail form shared one constructor.  Two error cases came
last: an alpha whose threshold factor e^(1/alpha) overflows
(moments-to-tails-tiny-alpha) and u = Infinity
(moments-to-tails-mixed-infinite-u) exit 2 with a named fault and print
nothing.  So, recorded after them, do a union threshold 2^(1/alpha) and a
moment growth p^(1/alpha) that overflow (union-probability-tiny-alpha,
tails-to-moments-tiny-alpha).

The recorded data lives in bound_golden.json next to this file.
"""

import json
from pathlib import Path

import pytest

from chainbounds.cli import main

GOLDEN = json.loads(Path(__file__).with_name("bound_golden.json").read_text())

BOUND_NAMES = {
    "union-constant", "union-probability", "moments-to-tails", "moments-to-tails-mixed",
    "tails-to-moments", "tails-to-moments-mixed", "small-set", "lp-from-tail", "bernstein",
    "psi-alpha", "gaussian", "azuma", "mixed-tail", "empirical", "squares", "squares-l2",
    "hanson-wright", "chaos", "kmr",
}


def test_every_bound_name_has_a_successful_golden():
    assert {case["argv"][1] for case in GOLDEN if case["code"] == 0} == BOUND_NAMES


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: case["name"])
def test_bound_report_matches_golden(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    for name, data in case["inputs"].items():
        (tmp_path / name).write_text(json.dumps(data))
    assert main(case["argv"] + ["--out", "out"]) == case["code"]
    captured = capsys.readouterr()
    assert captured.out.splitlines() == case["stdout"]
    assert captured.err.splitlines() == case["stderr"]
    reports = sorted((tmp_path / "out").glob("*")) if (tmp_path / "out").exists() else []
    if case["report"] is None:
        assert reports == []
        return
    (report,) = reports
    expected = json.dumps(case["report"], sort_keys=True, indent=2) + "\n"
    assert report.read_bytes().decode() == expected
