"""Golden reports of the validating commands: `simulate` and `chaos --u-grid`.

Each case below was recorded before the simulators, the verdict rule and the
CLI's validation report were each collapsed into one code path.  The
commands must still write the same JSON report bytes, the same CSV grid,
the same standard output and the same exit code: a tail bound that is
dominated, a moment bound, a violated tail bound (exit 1) and a chaos grid
whose middle row is violated (exit 1).  The commands run in a fresh
directory with relative paths, so the config hashes do not depend on where
the test runs.  Since a hashed config holds the --fit file's constants
instead of its path, the chaos case's config, config hash, "wrote" lines and
CSV header were recorded again; its rows, numbers and verdicts were not.
Since each CSV grid is written under its rows' own keys, the moment case's
grid names its order column p and fills it; nothing else in it moved.
Since a `simulate` config is hashed by its contents alone, without the
path it was read from, the simulate cases' config, config hash, "wrote"
lines and CSV header were recorded again; nothing else in them moved.

The three moment cases (p_list at 200, 1000 and 2000 replications, no bound,
so no CSV) were recorded before the bootstrap drew its resamples in blocks.
Since each moment row names its method, every moment row carries "method":
the moment-bound case's row and CSV grid gained it, and nothing else in that
case moved.  The martingale (200) and uniform empirical (1000) cases declare
their model's bound, so their intervals are the DKW ends and were recorded
again; their estimates did not move.  Since every sum of those ends is
numpy's pairwise add.reduce in place of a BLAS dot, the 1000 case's p = 1
ends were recorded again (each moved in its last bit).  Since Gaussian
drivers declare a tail envelope in place of the percentile bootstrap, the
Gaussian cases (2000, and the moment-bound case) carry the envelope's DKW
ends and "method": "dkw-envelope"; their estimates, samples and verdicts did
not move.
"""

import json

import pytest

from chainbounds.cli import main

GOLDEN = json.loads(r"""
[
 {
  "name": "simulate-tail-dominated",
  "inputs": {
   "sim.json": {
    "model": {
     "kind": "gaussian",
     "covariance": [
      [1.0, 0.5],
      [0.5, 1.0]
     ],
     "base_point": 0
    },
    "reps": 300,
    "seed": 7,
    "bound": {
     "name": "gaussian",
     "params": {
      "gamma2": {"alpha": 2, "value": 1.0},
      "sigma": 1.0,
      "u": 1.0
     }
    },
    "u_grid": [1.0, 2.0]
   }
  },
  "argv": ["simulate", "--config", "sim.json"],
  "code": 0,
  "stdout": [
   "u=1 threshold=156.629 envelope=0.606531 empirical=0 ci_upper=0.0152333 dominated",
   "u=2 threshold=171.467 envelope=0.135335 empirical=0 ci_upper=0.0152333 dominated",
   "wrote out/simulate-48729958a992.json",
   "wrote out/simulate-48729958a992.csv"
  ],
  "report": {
   "bound": {
    "constants_used": {"C_2": 86.0, "D_2": 9.0},
    "envelope": {"kind": "exp-power", "power": 2.0, "prefactor": 1.0, "rate": 0.5},
    "fitted": false,
    "name": "gaussian-supremum",
    "threshold": {"const": 86.0, "factor": 1.6487212707001282, "linear": 9.0, "sqrt_coeff": 0.0},
    "u_min": 1.0
   },
   "command": "simulate",
   "config": {
    "bound": {
     "name": "gaussian",
     "params": {
      "gamma2": {"alpha": 2, "value": 1.0},
      "sigma": 1.0,
      "u": 1.0
     }
    },
    "model": {
     "base_point": 0,
     "covariance": [
      [1.0, 0.5],
      [0.5, 1.0]
     ],
     "kind": "gaussian"
    },
    "reps": 300,
    "seed": 7,
    "u_grid": [1.0, 2.0]
   },
   "config_hash": "48729958a992c20a2c9b9ac6ff0a22f2fcf7d2576176642aa7686ab9a35f7cc2",
   "paper_confirmed": true,
   "registry": {
    "defaults": {
     "C": {"2": 86.0},
     "D": {"2": 9.0},
     "union_c": 16.0
    },
    "fitted": {}
   },
   "reps": 300,
   "rows": [
    {
     "ci_upper": 0.015233347889841823,
     "empirical": 0.0,
     "envelope": 0.6065306597126334,
     "threshold": 156.62852071651218,
     "u": 1.0,
     "verdict": "dominated"
    },
    {
     "ci_upper": 0.015233347889841823,
     "empirical": 0.0,
     "envelope": 0.1353352832366127,
     "threshold": 171.46701215281334,
     "u": 2.0,
     "verdict": "dominated"
    }
   ],
   "sample": {"base_point": "t0", "max": 2.901263134327808, "mean": 0.780422847397356},
   "seed": 7,
   "verdict": "dominated"
  },
  "csv": [
   "# config_hash: 48729958a992c20a2c9b9ac6ff0a22f2fcf7d2576176642aa7686ab9a35f7cc2",
   "u,threshold,envelope,empirical,ci_upper,verdict",
   "1.0,156.62852071651218,0.6065306597126334,0.0,0.015233347889841823,dominated",
   "2.0,171.46701215281334,0.1353352832366127,0.0,0.015233347889841823,dominated"
  ]
 },
 {
  "name": "simulate-moment",
  "inputs": {
   "m.json": {
    "model": {
     "kind": "gaussian",
     "covariance": [
      [1.0, 0.0],
      [0.0, 1.0]
     ],
     "base_point": 0
    },
    "reps": 200,
    "seed": 3,
    "bound": {
     "name": "small-set",
     "params": {
      "set_size": 2,
      "p": 2.0,
      "individual_bounds": [2.0, 2.0]
     }
    }
   }
  },
  "argv": ["simulate", "--config", "m.json"],
  "code": 0,
  "stdout": [
   "p=2 threshold=4 empirical=1.42637 ci_upper=1.43539 dominated",
   "wrote out/simulate-735a55058993.json",
   "wrote out/simulate-735a55058993.csv"
  ],
  "report": {
   "bound": {
    "constants_used": {"cap": 4.0},
    "decomposition": {"doubled-max": 4.0},
    "fitted": false,
    "name": "small-set",
    "p": 2.0,
    "value": 4.0
   },
   "command": "simulate",
   "config": {
    "bound": {
     "name": "small-set",
     "params": {
      "individual_bounds": [2.0, 2.0],
      "p": 2.0,
      "set_size": 2
     }
    },
    "model": {
     "base_point": 0,
     "covariance": [
      [1.0, 0.0],
      [0.0, 1.0]
     ],
     "kind": "gaussian"
    },
    "reps": 200,
    "seed": 3
   },
   "config_hash": "735a55058993bd55c71b2ef96fad9d3b53b7d8df5d67a7154c6fd7654e6d134b",
   "paper_confirmed": true,
   "registry": {
    "defaults": {
     "C": {"2": 86.0},
     "D": {"2": 9.0},
     "union_c": 16.0
    },
    "fitted": {}
   },
   "reps": 200,
   "rows": [
    {
     "ci_upper": 1.435394323671995,
     "empirical": 1.4263674589728996,
     "envelope": null,
     "method": "dkw-envelope",
     "p": 2.0,
     "threshold": 4.0,
     "verdict": "dominated"
    }
   ],
   "sample": {"base_point": "t0", "max": 3.714487205143218, "mean": 1.1493969123539398},
   "seed": 3,
   "verdict": "dominated"
  },
  "csv": [
   "# config_hash: 735a55058993bd55c71b2ef96fad9d3b53b7d8df5d67a7154c6fd7654e6d134b",
   "p,threshold,envelope,empirical,ci_upper,verdict,method",
   "2.0,4.0,,1.4263674589728996,1.435394323671995,dominated,dkw-envelope"
  ]
 },
 {
  "name": "simulate-violated",
  "inputs": {
   "sim.json": {
    "model": {
     "kind": "gaussian",
     "covariance": [
      [1.0, 0.5],
      [0.5, 1.0]
     ],
     "base_point": 0
    },
    "reps": 300,
    "seed": 7,
    "bound": {
     "name": "gaussian",
     "params": {
      "gamma2": {"alpha": 2, "value": 1.0},
      "sigma": 1.0,
      "u": 1.0
     }
    },
    "u_grid": [1.0],
    "fit": {"C_2": 1e-06, "D_2": 1e-06}
   }
  },
  "argv": ["simulate", "--config", "sim.json"],
  "code": 1,
  "stdout": [
   "u=1 threshold=3.29744e-06 envelope=0.606531 empirical=1 ci_upper=1 violated",
   "wrote out/simulate-eb411d5f0b0d.json",
   "wrote out/simulate-eb411d5f0b0d.csv"
  ],
  "report": {
   "bound": {
    "constants_used": {"C_2": 1e-06, "D_2": 1e-06},
    "envelope": {"kind": "exp-power", "power": 2.0, "prefactor": 1.0, "rate": 0.5},
    "fitted": true,
    "name": "gaussian-supremum",
    "threshold": {"const": 1e-06, "factor": 1.6487212707001282, "linear": 1e-06, "sqrt_coeff": 0.0},
    "u_min": 1.0
   },
   "command": "simulate",
   "config": {
    "bound": {
     "name": "gaussian",
     "params": {
      "gamma2": {"alpha": 2, "value": 1.0},
      "sigma": 1.0,
      "u": 1.0
     }
    },
    "fit": {"C_2": 1e-06, "D_2": 1e-06},
    "model": {
     "base_point": 0,
     "covariance": [
      [1.0, 0.5],
      [0.5, 1.0]
     ],
     "kind": "gaussian"
    },
    "reps": 300,
    "seed": 7,
    "u_grid": [1.0]
   },
   "config_hash": "eb411d5f0b0d3e0255882eee39497426e4a80548ff36f947d4c7de56cc8a3ae7",
   "paper_confirmed": false,
   "registry": {
    "defaults": {
     "C": {"2": 86.0},
     "D": {"2": 9.0},
     "union_c": 16.0
    },
    "fitted": {"C_2": 1e-06, "D_2": 1e-06}
   },
   "reps": 300,
   "rows": [
    {
     "ci_upper": 1.0,
     "empirical": 1.0,
     "envelope": 0.6065306597126334,
     "threshold": 3.297442541400256e-06,
     "u": 1.0,
     "verdict": "violated"
    }
   ],
   "sample": {"base_point": "t0", "max": 2.901263134327808, "mean": 0.780422847397356},
   "seed": 7,
   "verdict": "violated"
  },
  "csv": [
   "# config_hash: eb411d5f0b0d3e0255882eee39497426e4a80548ff36f947d4c7de56cc8a3ae7",
   "u,threshold,envelope,empirical,ci_upper,verdict",
   "1.0,3.297442541400256e-06,0.6065306597126334,1.0,1.0,violated"
  ]
 },
 {
  "name": "chaos-u-grid",
  "inputs": {
   "mats.json": [
    [
     [1.0, 0.0, 0.5, 0.0],
     [0.0, -1.0, 0.0, 0.25],
     [0.5, 0.0, 0.0, 1.0]
    ],
    [
     [0.0, 1.0, 0.0, 0.5],
     [1.0, 0.0, -0.5, 0.0],
     [0.0, 0.25, 1.0, 0.0]
    ],
    [
     [0.5, 0.5, 0.0, 0.0],
     [0.0, 0.5, 0.5, 0.0],
     [0.0, 0.0, 0.5, 0.5]
    ]
   ],
   "fit.json": {"chaos_C": 0.05, "chaos_c": 0.2}
  },
  "argv": ["chaos", "--matrices", "mats.json", "--reps", "400", "--seed", "5", "--fit", "fit.json", "--u-grid", "1,2,3"],
  "code": 1,
  "stdout": [
   "radii: delta_2=1.88746 delta_4=1.48621 delta_inf=1.33959 gamma2=1.66046",
   "u=1 threshold=1.58008 envelope=0.367879 empirical=0.255 ci_upper=0.309248 dominated",
   "u=2 threshold=2.36185 envelope=0.135335 empirical=0.255 ci_upper=0.309248 violated",
   "u=3 threshold=3.08221 envelope=0.0497871 empirical=0 ci_upper=0.0114469 dominated",
   "wrote out/chaos-56b7dd967057.json",
   "wrote out/chaos-56b7dd967057.csv"
  ],
  "report": {
   "bound": {
    "constants_used": {"chaos_C": 0.05, "chaos_c": 0.2},
    "envelope": {"kind": "exp-power", "power": 1.0, "prefactor": 1.0, "rate": 1.0},
    "fitted": true,
    "name": "chaos-supremum",
    "threshold": {
     "const": 0.42495771314999314,
     "factor": 1.0,
     "linear": 0.5177860969790006,
     "sqrt_coeff": 0.637332068233959
    },
    "u_min": 1.0
   },
   "command": "chaos",
   "comparison_parameters": {"E": 5.891164814542394, "U": 1.7945098662706633, "V": 4.752764426005975},
   "config": {
    "decoupled": false,
    "fit": {"chaos_C": 0.05, "chaos_c": 0.2},
    "matrices": "ef71e2c4c48ccafba20e9fa264ccc3086aab2ee500912d373f1a39fded030c2f",
    "reps": 400,
    "scale": 1.0,
    "seed": 5,
    "u_grid": "1,2,3",
    "xi": "rademacher"
   },
   "config_hash": "56b7dd967057b5a061e903e719b0232b6940900d9c65e87830c480dba1c1d85b",
   "paper_confirmed": false,
   "radii": {
    "delta_2": 1.8874586088176875,
    "delta_4": 1.486211502742472,
    "delta_inf": 1.3395931719259633,
    "gamma2_dinf": 1.6604576732374223
   },
   "registry": {
    "defaults": {
     "C": {"2": 86.0},
     "D": {"2": 9.0},
     "union_c": 16.0
    },
    "fitted": {"chaos_C": 0.05, "chaos_c": 0.2}
   },
   "sample": {"max": 2.5, "mean": 1.6175},
   "seed": 5,
   "verdict": "violated"
  },
  "csv": [
   "# config_hash: 56b7dd967057b5a061e903e719b0232b6940900d9c65e87830c480dba1c1d85b",
   "u,threshold,envelope,empirical,ci_upper,verdict",
   "1.0,1.580075878362953,0.36787944117144233,0.255,0.30924804106848885,dominated",
   "2.0,2.3618535617397542,0.1353352832366127,0.255,0.30924804106848885,violated",
   "3.0,3.0822075275611667,0.049787068367863944,0.0,0.01144690534306116,dominated"
  ]
 },
 {
  "name": "simulate-moments-200",
  "inputs": {
   "m.json": {
    "model": {
     "kind": "martingale-family",
     "coefficients": [[1.0, -0.5, 0.25], [0.5, 1.0, -1.0]]
    },
    "reps": 200,
    "seed": 11,
    "p_list": [1.0, 2.0, 4.0]
   }
  },
  "argv": ["simulate", "--config", "m.json"],
  "code": 0,
  "stdout": [
   "p=1 estimate=1.54375 ci=[1.2755, 1.73152]",
   "p=2 estimate=1.67435 ci=[1.46042, 1.84762]",
   "p=4 estimate=1.87998 ci=[1.69735, 2.01997]",
   "wrote out/simulate-055728bce15d.json"
  ],
  "report": {
   "command": "simulate",
   "config": {
    "model": {
     "coefficients": [[1.0, -0.5, 0.25], [0.5, 1.0, -1.0]],
     "kind": "martingale-family"
    },
    "p_list": [1.0, 2.0, 4.0],
    "reps": 200,
    "seed": 11
   },
   "config_hash": "055728bce15dcfb868c0f9ba08b1d0730a2cc103082c4cf3afe4eb754b04b87f",
   "moments": [
    {
     "ci_high": 1.7315220275685637,
     "ci_low": 1.2755042467138318,
     "estimate": 1.5437500000000002,
     "method": "dkw",
     "p": 1.0
    },
    {
     "ci_high": 1.8476191680287533,
     "ci_low": 1.4604188155404527,
     "estimate": 1.6743468875952796,
     "method": "dkw",
     "p": 2.0
    },
    {
     "ci_high": 2.0199730843136265,
     "ci_low": 1.6973450399167063,
     "estimate": 1.879977551490255,
     "method": "dkw",
     "p": 4.0
    }
   ],
   "registry": {
    "defaults": {
     "C": {"2": 86.0},
     "D": {"2": 9.0},
     "union_c": 16.0
    },
    "fitted": {}
   },
   "reps": 200,
   "sample": {"base_point": null, "max": 2.5, "mean": 1.54375},
   "seed": 11
  }
 },
 {
  "name": "simulate-moments-1000",
  "inputs": {
   "m.json": {
    "model": {
     "kind": "empirical",
     "coefficients": [[1.0, 0.5], [-0.5, 1.0], [0.25, -1.0]],
     "base": {"name": "uniform"}
    },
    "reps": 1000,
    "seed": 12,
    "p_list": [1.0, 2.0]
   }
  },
  "argv": ["simulate", "--config", "m.json"],
  "code": 0,
  "stdout": [
   "p=1 estimate=0.392667 ci=[0.360328, 0.424519]",
   "p=2 estimate=0.420887 ci=[0.39411, 0.451382]",
   "wrote out/simulate-fdede654cb1a.json"
  ],
  "report": {
   "command": "simulate",
   "config": {
    "model": {
     "base": {"name": "uniform"},
     "coefficients": [[1.0, 0.5], [-0.5, 1.0], [0.25, -1.0]],
     "kind": "empirical"
    },
    "p_list": [1.0, 2.0],
    "reps": 1000,
    "seed": 12
   },
   "config_hash": "fdede654cb1a62a40116ea0118962039dc11a76604f6ce15086acce72ec32437",
   "moments": [
    {
     "ci_high": 0.424519160737417,
     "ci_low": 0.3603280342937074,
     "estimate": 0.3926665410178566,
     "method": "dkw",
     "p": 1.0
    },
    {
     "ci_high": 0.45138247999660897,
     "ci_low": 0.3941101563810655,
     "estimate": 0.42088748719885294,
     "method": "dkw",
     "p": 2.0
    }
   ],
   "registry": {
    "defaults": {
     "C": {"2": 86.0},
     "D": {"2": 9.0},
     "union_c": 16.0
    },
    "fitted": {}
   },
   "reps": 1000,
   "sample": {"base_point": null, "max": 0.7172831803206385, "mean": 0.3926665410178567},
   "seed": 12
  }
 },
 {
  "name": "simulate-moments-2000",
  "inputs": {
   "m.json": {
    "model": {
     "kind": "gaussian",
     "covariance": [[1.0, 0.5], [0.5, 1.0]],
     "base_point": null
    },
    "reps": 2000,
    "seed": 13,
    "p_list": [1.0, 3.0, 8.0]
   }
  },
  "argv": ["simulate", "--config", "m.json"],
  "code": 0,
  "stdout": [
   "p=1 estimate=1.08963 ci=[0.998227, 1.14674]",
   "p=3 estimate=1.38895 ci=[1.2555, 1.4305]",
   "p=8 estimate=1.98882 ci=[1.59558, 2.00626]",
   "wrote out/simulate-270d424ec4de.json"
  ],
  "report": {
   "command": "simulate",
   "config": {
    "model": {
     "base_point": null,
     "covariance": [[1.0, 0.5], [0.5, 1.0]],
     "kind": "gaussian"
    },
    "p_list": [1.0, 3.0, 8.0],
    "reps": 2000,
    "seed": 13
   },
   "config_hash": "270d424ec4de8e70484804b0b60271019460c64a2d6578da9ae55d70f59ac27e",
   "moments": [
    {
     "ci_high": 1.1467394253051952,
     "ci_low": 0.9982265716609066,
     "estimate": 1.089633375112654,
     "method": "dkw-envelope",
     "p": 1.0
    },
    {
     "ci_high": 1.4305017433379315,
     "ci_low": 1.255500180554203,
     "estimate": 1.3889525454385687,
     "method": "dkw-envelope",
     "p": 3.0
    },
    {
     "ci_high": 2.0062580259682448,
     "ci_low": 1.5955847094457059,
     "estimate": 1.9888201386911064,
     "method": "dkw-envelope",
     "p": 8.0
    }
   ],
   "registry": {
    "defaults": {
     "C": {"2": 86.0},
     "D": {"2": 9.0},
     "union_c": 16.0
    },
    "fitted": {}
   },
   "reps": 2000,
   "sample": {"base_point": null, "max": 4.423987889129998, "mean": 1.089633375112654},
   "seed": 13
  }
 }
]
""")


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: case["name"])
def test_validation_report_matches_golden(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    for name, data in case["inputs"].items():
        (tmp_path / name).write_text(json.dumps(data))
    assert main(case["argv"] + ["--out", "out"]) == case["code"]
    assert capsys.readouterr().out.splitlines() == case["stdout"]
    (report,) = (tmp_path / "out").glob("*.json")
    assert report.read_bytes().decode() == json.dumps(case["report"], sort_keys=True, indent=2) + "\n"
    grids = list((tmp_path / "out").glob("*.csv"))
    if "csv" not in case:  # moments only: the report is the whole output
        assert grids == []
        return
    (grid,) = grids
    assert grid.read_bytes().decode() == "\n".join(case["csv"]) + "\n"
