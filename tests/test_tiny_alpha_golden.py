"""Golden outputs of CLI commands whose alpha is too small for a float power.

A power of 1/alpha leaves the float range at tiny alpha: e.g. 2^(1/alpha)
overflows and (log 2)^(1/alpha) underflows.  Each such command exits 2 with
a named DomainError and writes no report, where it once ended in an
OverflowError or ZeroDivisionError traceback.  A profile asked for beside
the entropy integral still prints its rows before the error.  The bound
commands' cases live in bound_golden.json.  Each case runs in a fresh
directory with relative paths.
"""

import json

import pytest

from chainbounds.cli import main

GOLDEN = json.loads(r"""
[
 {
  "name": "cover-entropy-tiny-alpha",
  "inputs": {
   "space.json": {
    "points": [
     [
      0.0,
      0.0
     ],
     [
      1.0,
      0.0
     ],
     [
      0.0,
      1.0
     ],
     [
      2.0,
      2.0
     ],
     [
      3.0,
      1.0
     ]
    ],
    "norm": "l2"
   }
  },
  "argv": [
   "cover",
   "--space",
   "space.json",
   "--entropy-alpha",
   "0.0005"
  ],
  "code": 2,
  "stdout": [],
  "stderr": [
   "error: entropy integrand (log N)^(1/alpha) is not finite at alpha = 0.0005"
  ]
 },
 {
  "name": "cover-profile-entropy-tiny-alpha",
  "inputs": {
   "space.json": {
    "points": [
     [
      0.0,
      0.0
     ],
     [
      1.0,
      0.0
     ],
     [
      0.0,
      1.0
     ],
     [
      2.0,
      2.0
     ],
     [
      3.0,
      1.0
     ]
    ],
    "norm": "l2"
   }
  },
  "argv": [
   "cover",
   "--space",
   "space.json",
   "--profile",
   "--entropy-alpha",
   "0.0005"
  ],
  "code": 2,
  "stdout": [
   "radius 0: count 5",
   "radius 1: count 3",
   "radius 1.41421: count 2",
   "radius 2.23607: count 1"
  ],
  "stderr": [
   "error: entropy integrand (log N)^(1/alpha) is not finite at alpha = 0.0005"
  ]
 },
 {
  "name": "gamma-tiny-alpha",
  "inputs": {
   "space.json": {
    "points": [
     [
      0.0,
      0.0
     ],
     [
      1.0,
      0.0
     ],
     [
      0.0,
      1.0
     ],
     [
      2.0,
      2.0
     ],
     [
      3.0,
      1.0
     ]
    ],
    "norm": "l2"
   }
  },
  "argv": [
   "gamma",
   "--space",
   "space.json",
   "--alpha",
   "0.0005"
  ],
  "code": 2,
  "stdout": [],
  "stderr": [
   "error: level weight 2^(n/alpha) is not finite at alpha = 0.0005"
  ]
 },
 {
  "name": "gamma-prime-tiny-alpha",
  "inputs": {
   "space.json": {
    "points": [
     [
      0.0,
      0.0
     ],
     [
      1.0,
      0.0
     ],
     [
      0.0,
      1.0
     ],
     [
      2.0,
      2.0
     ],
     [
      3.0,
      1.0
     ]
    ],
    "norm": "l2"
   }
  },
  "argv": [
   "gamma",
   "--space",
   "space.json",
   "--alpha",
   "0.0005",
   "--functional",
   "gamma-prime"
  ],
  "code": 2,
  "stdout": [],
  "stderr": [
   "error: level weight 2^(n/alpha) is not finite at alpha = 0.0005"
  ]
 },
 {
  "name": "gamma-greedy-tiny-alpha",
  "inputs": {
   "space.json": {
    "points": [
     [
      0.0,
      0.0
     ],
     [
      1.0,
      0.0
     ],
     [
      0.0,
      1.0
     ],
     [
      2.0,
      2.0
     ],
     [
      3.0,
      1.0
     ]
    ],
    "norm": "l2"
   }
  },
  "argv": [
   "gamma",
   "--space",
   "space.json",
   "--alpha",
   "0.0005",
   "--mode",
   "greedy"
  ],
  "code": 2,
  "stdout": [],
  "stderr": [
   "error: level weight 2^(n/alpha) is not finite at alpha = 0.0005"
  ]
 },
 {
  "name": "orlicz-tiny-alpha",
  "inputs": {},
  "argv": [
   "orlicz",
   "--alpha",
   "0.0001",
   "--family",
   "bounded",
   "--parameter",
   "1"
  ],
  "code": 2,
  "stdout": [],
  "stderr": [
   "error: psi_alpha norm factor (log 2)^(-1/alpha) is not finite at alpha = 0.0001"
  ]
 }
]
""")


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: case["name"])
def test_tiny_alpha_command_matches_golden(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    for name, data in case["inputs"].items():
        (tmp_path / name).write_text(json.dumps(data))
    assert main(case["argv"] + ["--out", "out"]) == case["code"]
    captured = capsys.readouterr()
    assert captured.out.splitlines() == case["stdout"]
    assert captured.err.splitlines() == case["stderr"]
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())
