"""Golden reports of `chainbounds rip exact` and `rip curve`.

Each report below was written by the per-support, per-replication
implementation that the batched Gram kernel replaced.  The batched kernel
must reproduce every field exactly: the delta values, the witnesses, the
failure counts and the config hashes.  The last curve holds s = 1 ties:
at N = 8, m = 2 every realized |I| of 1 or 3 gives a delta_1 that is 0.5 up
to rounding, so its failure count follows the last bit of each Gram sum.
"""

import json

import pytest

from chainbounds import load_json
from chainbounds.cli import main

GOLDEN = json.loads(r"""
[
 {
  "argv": ["rip", "exact", "--N", "32", "--m", "16", "--s", "3", "--seed", "1234567"],
  "report": {
   "K": 1.0000000000000002,
   "command": "rip-exact",
   "config": {"N": 32, "action": "exact", "m": 16, "s": 3, "seed": 1234567},
   "config_hash": "f5da0fbff9bcf8cfbe691e8fb056d5a463f017a6855b2be5fe508ec842194a5d",
   "delta_s": 0.6660144010611577,
   "realized_rows": 13,
   "s": 3,
   "seed": 1234567,
   "selected": [0, 1, 2, 5, 6, 9, 14, 16, 18, 25, 26, 27, 29],
   "witness_support": [5, 23, 31],
   "witness_value": 0.6660144010611575
  }
 },
 {
  "argv": ["rip", "exact", "--N", "12", "--m", "6", "--s", "1", "--seed", "8"],
  "report": {
   "K": 1.0000000000000002,
   "command": "rip-exact",
   "config": {"N": 12, "action": "exact", "m": 6, "s": 1, "seed": 8},
   "config_hash": "1d9d55a3d759d442979eaeed44a3175407fdab9343ce2c663ec53847986532bb",
   "delta_s": 0.3333333333333339,
   "realized_rows": 8,
   "s": 1,
   "seed": 8,
   "selected": [1, 3, 4, 6, 8, 9, 10, 11],
   "witness_support": [2],
   "witness_value": 0.3333333333333337
  }
 },
 {
  "argv": ["rip", "curve", "--N", "16", "--s", "2", "--delta", "0.5", "--m-list", "4,8,12,16", "--reps", "200", "--seed", "99"],
  "report": {
   "command": "rip-curve",
   "config": {
    "N": 16,
    "action": "curve",
    "delta": 0.5,
    "m_list": [4, 8, 12, 16],
    "reps": 200,
    "s": 2,
    "seed": 99
   },
   "config_hash": "4da280619245ad08a7c6e3f85efb5ae844073974ad77987671b6539a30b31605",
   "curve": [
    {
     "ci_lower": 0.9772372209558107,
     "ci_upper": 1.0,
     "estimate": 1.0,
     "failures": 200,
     "m": 4,
     "mean_realized_rows": 4.02,
     "reps": 200
    },
    {
     "ci_lower": 0.7536809010961734,
     "ci_upper": 0.8829668976069973,
     "estimate": 0.825,
     "failures": 165,
     "m": 8,
     "mean_realized_rows": 8.255,
     "reps": 200
    },
    {
     "ci_lower": 0.04900231368263024,
     "ci_upper": 0.14809218669128862,
     "estimate": 0.09,
     "failures": 18,
     "m": 12,
     "mean_realized_rows": 12.075,
     "reps": 200
    },
    {
     "ci_lower": 0.0,
     "ci_upper": 0.022762779044189316,
     "estimate": 0.0,
     "failures": 0,
     "m": 16,
     "mean_realized_rows": 16.0,
     "reps": 200
    }
   ],
   "seed": 99
  }
 },
 {
  "argv": ["rip", "curve", "--N", "8", "--s", "1", "--delta", "0.5", "--m-list", "2,4", "--reps", "100", "--seed", "1"],
  "report": {
   "command": "rip-curve",
   "config": {"N": 8, "action": "curve", "delta": 0.5, "m_list": [2, 4], "reps": 100, "s": 1, "seed": 1},
   "config_hash": "71b590d11cdb4b62e3fc5466be61c6debe1d67a9df7abaf3fa9af1955d8e350e",
   "curve": [
    {
     "ci_lower": 0.3807174669069525,
     "ci_upper": 0.6192825330930475,
     "estimate": 0.5,
     "failures": 50,
     "m": 2,
     "mean_realized_rows": 2.04,
     "reps": 100
    },
    {
     "ci_lower": 0.19831596494211284,
     "ci_upper": 0.41809396161207024,
     "estimate": 0.3,
     "failures": 30,
     "m": 4,
     "mean_realized_rows": 4.17,
     "reps": 100
    }
   ],
   "seed": 1
  }
 }
]
""")


@pytest.mark.parametrize("case", GOLDEN,
                         ids=lambda case: "-".join(case["argv"][:2] + case["argv"][-1:]))
def test_rip_report_matches_golden(tmp_path, capsys, case):
    assert main(case["argv"] + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    (path,) = tmp_path.glob(f"{case['report']['command']}-*.json")
    assert load_json(path) == case["report"]
