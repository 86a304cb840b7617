"""End-to-end command-line runs: artifacts, exit codes, determinism."""

import argparse
import inspect
import json
import math
import shutil

import numpy as np
import pytest

from chainbounds import RowDistribution, cli, errors, load_json, processes, simulate_chaos
from chainbounds.cli import main


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def artifact(outdir, stem):
    matches = sorted(outdir.glob(f"{stem}-*.json"))
    assert matches, f"no {stem} artifact in {outdir}"
    return matches[-1]


@pytest.fixture
def triangle(tmp_path):
    p = tmp_path / "tri.json"
    p.write_text(json.dumps({"labels": ["a", "b", "c"], "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
    return p


def gaussian_sim_config(tmp_path, fit=None, u_grid=(1.0, 2.0)):
    cfg = {
        "model": {
            "kind": "gaussian",
            "covariance": [[1.0, 0.5], [0.5, 1.0]],
            "base_point": 0,
        },
        "reps": 300,
        "seed": 7,
        "bound": {
            "name": "gaussian",
            "params": {"gamma2": {"alpha": 2, "value": 1.0}, "sigma": 1.0, "u": 1.0},
        },
        "u_grid": list(u_grid),
    }
    if fit:
        cfg["fit"] = fit
    p = tmp_path / "sim.json"
    p.write_text(json.dumps(cfg))
    return p


def test_gamma_triangle(tmp_path, triangle, capsys):
    code, out, err = run(
        ["gamma", "--space", str(triangle), "--alpha", "2", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "wrote" in out and "value = 1" in out
    data = load_json(artifact(tmp_path, "gamma"))
    assert data["command"] == "gamma"
    assert data["value"] == pytest.approx(1.0)
    assert data["mode"] == "exact"
    assert data["witness"]["kind"] == "set"
    assert "config" in data and len(data["config_hash"]) == 64


def test_cover_radius(tmp_path, triangle, capsys):
    code, out, _ = run(
        ["cover", "--space", str(triangle), "--radius", "0.5", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    data = load_json(artifact(tmp_path, "cover"))
    # three unit-separated points need three balls of radius 1/2
    assert data["cover"]["count"] == 3
    assert data["size"] == 3 and data["diameter"] == 1.0


def test_cover_entropy_integral(tmp_path, triangle, capsys):
    code, out, _ = run(
        [
            "cover",
            "--space", str(triangle),
            "--entropy-alpha", "2",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    data = load_json(artifact(tmp_path, "cover"))
    # N(u) = 3 for u < 1: integral of ln(3)^(1/2) over [0, 1)... computed by
    # the library; here we only pin positivity and the echoed alpha
    assert data["entropy_integral"]["alpha"] == 2.0
    assert data["entropy_integral"]["value"] > 0


def test_bound_union_constant(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({}))
    code, out, _ = run(
        ["bound", "union-constant", "--params", str(params), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    data = load_json(artifact(tmp_path, "bound"))
    assert data["kind"] == "scalar"
    assert data["bound"]["value"] == pytest.approx(5.830926892696748)
    assert data["bound"]["cap"] == 16.0
    assert data["fitted"] is False


def test_bound_bernstein_tail(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"m": 4, "sigma": 1.0, "K": 1.0, "u": 2.0}))
    code, out, _ = run(
        ["bound", "bernstein", "--params", str(params), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    data = load_json(artifact(tmp_path, "bound"))
    assert data["kind"] == "tail"
    # threshold(2) = (1/2) sqrt(4) + (1/4) 2 = 1.5; envelope 2 e^-2
    assert data["at_u"]["threshold"] == pytest.approx(1.5)
    assert data["at_u"]["envelope"] == pytest.approx(2 * math.exp(-2.0))


def test_orlicz_samples(tmp_path, capsys):
    samples = tmp_path / "x.txt"
    samples.write_text("\n".join(["1.0"] * 50) + "\n")
    code, out, _ = run(
        ["orlicz", "--samples", str(samples), "--alpha", "2", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    data = load_json(artifact(tmp_path, "orlicz"))
    # constant 1: norm is 1/sqrt(ln 2)
    assert data["value"] == pytest.approx(1.0 / np.sqrt(np.log(2)), rel=1e-6)
    assert data["sample_count"] == 50


def test_orlicz_samples_are_named_by_their_float64_bytes(tmp_path, capsys):
    # the sha256 of the little-endian float64 samples, the same for text and binary
    values = np.array([1.0, -2.0, 0.5], dtype="<f8")
    (tmp_path / "x.txt").write_text("1.0\n-2.0\n0.5\n")
    values.tofile(tmp_path / "x.bin")
    digest = "eb9c7e25b0c32384869e705808d06581e674741e70c99a2fd7e42f1b4e22d6c1"
    for name, fmt in (("x.txt", "text"), ("x.bin", "binary")):
        out = tmp_path / fmt
        argv = ["orlicz", "--samples", str(tmp_path / name), "--format", fmt, "--alpha", "2"]
        assert run(argv + ["--out", str(out)], capsys)[0] == 0
        assert load_json(artifact(out, "orlicz"))["config"]["samples"] == digest


def test_orlicz_family(tmp_path, capsys):
    code, out, _ = run(
        [
            "orlicz",
            "--family", "gaussian",
            "--parameter", "1.5",
            "--alpha", "2",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    data = load_json(artifact(tmp_path, "orlicz"))
    assert data["value"] == pytest.approx(1.5 * math.sqrt(8.0 / 3.0))


@pytest.mark.parametrize("alpha", ["nan", "inf", "0"])
def test_orlicz_bad_alpha_exits_two(tmp_path, capsys, alpha):
    argv = ["orlicz", "--family", "gaussian", "--alpha", alpha, "--out", str(tmp_path)]
    code, _, err = run(argv, capsys)
    assert code == 2 and "error: alpha" in err
    assert not list(tmp_path.glob("orlicz-*.json"))


def test_simulate_tail_dominated(tmp_path, capsys):
    cfg = gaussian_sim_config(tmp_path)
    code, out, _ = run(["simulate", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    data = load_json(artifact(tmp_path, "simulate"))
    assert data["verdict"] == "dominated"
    assert data["paper_confirmed"] is True
    rows = data["rows"]
    assert [r["u"] for r in rows] == [1.0, 2.0]
    assert all(r["verdict"] == "dominated" for r in rows)
    assert data["reps"] == 300 and data["seed"] == 7
    csvs = sorted(tmp_path.glob("simulate-*.csv"))
    assert csvs
    lines = csvs[0].read_text().splitlines()
    assert lines[0] == f"# config_hash: {data['config_hash']}"
    assert lines[1] == "u,threshold,envelope,empirical,ci_upper,verdict"
    assert len(lines) == 4


def test_simulate_violated_exits_one(tmp_path, capsys):
    cfg = gaussian_sim_config(tmp_path, fit={"C_2": 1e-6, "D_2": 1e-6}, u_grid=(1.0,))
    code, out, _ = run(["simulate", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 1
    data = load_json(artifact(tmp_path, "simulate"))
    assert data["verdict"] == "violated"
    assert data["paper_confirmed"] is False
    assert data["rows"][0]["empirical"] == 1.0


def test_simulate_moment_bound(tmp_path, capsys):
    cfg = {
        "model": {
            "kind": "gaussian",
            "covariance": [[1.0, 0.0], [0.0, 1.0]],
            "base_point": 0,
        },
        "reps": 200,
        "seed": 3,
        "bound": {"name": "small-set", "params": {"set_size": 2, "p": 2.0, "individual_bounds": [2.0, 2.0]}},
    }
    p = tmp_path / "m.json"
    p.write_text(json.dumps(cfg))
    code, out, _ = run(["simulate", "--config", str(p), "--out", str(tmp_path)], capsys)
    assert code == 0
    data = load_json(artifact(tmp_path, "simulate"))
    row = data["rows"][0]
    assert row["p"] == 2.0
    assert row["envelope"] is None  # no tail envelope on the moment route
    assert row["verdict"] in ("dominated", "inconclusive", "violated")


def test_cover_profile_csv_lists_radius_and_count(tmp_path, triangle, capsys):
    code, _, _ = run(["cover", "--space", str(triangle), "--profile", "--out", str(tmp_path)], capsys)
    assert code == 0
    (grid,) = tmp_path.glob("cover-*.csv")
    assert grid.read_text().splitlines()[1:] == ["radius,count", "0.0,3", "1.0,1"]


@pytest.mark.parametrize("decoupled, xi", [(False, None), (True, {"name": "gaussian", "scale": 0.5})])
def test_simulate_chaos_model_draws_what_simulate_chaos_draws(tmp_path, capsys, decoupled, xi):
    mats = [[[1.0, 0.5], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.25]]]
    model = {"kind": "chaos", "matrices": mats, "decoupled": decoupled}
    if xi is not None:
        model["xi"] = xi
    p = tmp_path / "chaos.json"
    p.write_text(json.dumps({"model": model, "reps": 500, "seed": 4}))
    code, _, _ = run(["simulate", "--config", str(p), "--out", str(tmp_path)], capsys)
    assert code == 0
    xi = xi or {"name": "rademacher", "scale": 1.0}
    values = simulate_chaos(
        [np.array(m) for m in mats], RowDistribution(**xi), 500, 4, decoupled=decoupled
    ).values
    sample = load_json(artifact(tmp_path, "simulate"))["sample"]
    assert (sample["mean"], sample["max"]) == (float(values.mean()), float(values.max()))


def test_simulate_requires_seed(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(
        json.dumps(
            {"model": {"kind": "gaussian", "covariance": [[1.0]], "base_point": 0}, "reps": 10}
        )
    )
    code, out, err = run(["simulate", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "error:" in err and "seed" in err


def test_simulate_flag_overrides(tmp_path, capsys):
    cfg = gaussian_sim_config(tmp_path)
    code, _, _ = run(
        ["simulate", "--config", str(cfg), "--seed", "11", "--reps", "50", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    data = load_json(artifact(tmp_path, "simulate"))
    assert data["seed"] == 11 and data["reps"] == 50


def test_rerun_is_byte_identical(tmp_path, triangle, capsys):
    args = ["gamma", "--space", str(triangle), "--alpha", "2", "--out", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    path = artifact(tmp_path, "gamma")
    first = path.read_bytes()
    assert main(args) == 0
    capsys.readouterr()
    assert path.read_bytes() == first


def test_config_hash_splits_artifacts(tmp_path, triangle, capsys):
    assert main(["gamma", "--space", str(triangle), "--alpha", "2", "--out", str(tmp_path)]) == 0
    assert main(["gamma", "--space", str(triangle), "--alpha", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(list(tmp_path.glob("gamma-*.json"))) == 2


def test_output_dir_env(tmp_path, triangle, capsys, monkeypatch):
    monkeypatch.setenv("CHAINBOUNDS_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(["gamma", "--space", str(triangle), "--alpha", "2"], capsys)
    assert code == 0
    assert list(tmp_path.glob("gamma-*.json"))


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["gamma"]) == 2  # missing --space
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_unknown_bound_name_exits_two(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text("{}")
    code, _, err = run(
        ["bound", "not-a-bound", "--params", str(params), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("name", sorted(cli._DIRECT_BOUNDS))
def test_direct_bound_parameters_are_plain_json_or_decoded(name):
    # A bound whose params file is read by signature takes plain JSON values,
    # or a type with a decoder; registry is supplied.
    plain = {"float", "int", "str", "bool", "None"}
    for par in inspect.signature(cli._DIRECT_BOUNDS[name]).parameters.values():
        if par.name == "registry":
            continue
        ann = par.annotation
        assert (
            ann is par.empty or ann in cli._DECODERS or set(ann.split(" | ")) <= plain
        ), f"{name}: parameter {par.name!r} of type {ann!r} has no JSON decoder"


def test_bad_config_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["simulate", "--config", str(bad), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "error:" in err
    code, _, err = run(
        ["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)], capsys
    )
    assert code == 2


def test_missing_config_field_exits_two(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"reps": 5, "seed": 1}))  # no model
    code, _, err = run(["simulate", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "missing config field" in err


def test_rip_exact(tmp_path, capsys):
    code, out, _ = run(
        [
            "rip", "exact",
            "--N", "8", "--m", "4", "--s", "2", "--seed", "3",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    data = load_json(artifact(tmp_path, "rip-exact"))
    assert data["delta_s"] == pytest.approx(0.8090169943749479)
    assert data["realized_rows"] == 5
    assert data["witness_support"] == [3, 5]


def test_rip_complexity(tmp_path, capsys):
    code, out, _ = run(
        [
            "rip", "complexity",
            "--N", "8", "--s", "2", "--delta", "0.5", "--eta", "0.01",
            "--d1", "1.0", "--d2", "1.0",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert "minimal m" in out
    data = load_json(artifact(tmp_path, "rip-complexity"))
    assert data["m"] == 37
    assert data["fitted"] is True


def test_rip_curve(tmp_path, capsys):
    code, out, _ = run(
        [
            "rip", "curve",
            "--N", "8", "--s", "2", "--delta", "0.7", "--m-list", "4,6",
            "--reps", "10", "--seed", "2",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    data = load_json(artifact(tmp_path, "rip-curve"))
    rows = data["curve"]
    assert [r["m"] for r in rows] == [4, 6]
    for r in rows:
        assert 0.0 <= r["ci_lower"] <= r["estimate"] <= r["ci_upper"] <= 1.0
    csvs = sorted(tmp_path.glob("rip-curve-*.csv"))
    assert csvs


@pytest.mark.parametrize("m_list", ["2.5,4", "4,nan", "4,inf", "0,4"])
def test_rip_curve_non_integer_m_exits_two(tmp_path, capsys, m_list):
    code, _, err = run(["rip", "curve", "--N", "8", "--s", "1", "--delta", "0.5", "--m-list",
                        m_list, "--reps", "5", "--seed", "1", "--out", str(tmp_path)], capsys)
    assert code == 2 and "error: --m-list entry" in err
    assert not list(tmp_path.glob("rip-curve-*"))


@pytest.mark.parametrize("flags, message", [
    (["--s", "2", "--m-list", "4,8,40"], "m must be >= 1 and <= 16, got 40"),
    (["--s", "17", "--m-list", "4,8"], "s must be >= 1 and <= 16, got 17"),
    (["--s", "2", "--m-list", "4,0"], "--m-list entry must be >= 1"),
])
def test_rip_curve_fails_before_the_first_replication(tmp_path, capsys, monkeypatch, flags,
                                                       message):
    import chainbounds.rip as rip

    draws = []
    monkeypatch.setattr(rip, "replication_rng", lambda *a: draws.append(a))
    monkeypatch.setattr(rip, "_replication_streams", lambda *a: draws.append(a))
    code, out, err = run(["rip", "curve", "--N", "16", "--delta", "0.5", "--reps", "200",
                          "--seed", "1", "--out", str(tmp_path)] + flags, capsys)
    assert code == 2 and message in err
    assert "m=4" not in out and draws == []
    assert not list(tmp_path.glob("rip-curve-*"))


def test_rip_curve_over_the_enumeration_cap_draws_nothing(tmp_path, capsys, monkeypatch):
    import chainbounds.rip as rip

    draws = []
    monkeypatch.setattr(rip, "replication_rng", lambda *a: draws.append(a))
    monkeypatch.setattr(rip, "_replication_streams", lambda *a: draws.append(a))
    code, out, err = run(["rip", "curve", "--N", "40", "--s", "10", "--delta", "0.5",
                          "--m-list", "4,8", "--seed", "1", "--out", str(tmp_path)], capsys)
    assert code == 2 and ("support enumeration refused: C(39, 9) supports of 10 indices "
                          "holding 0, a table of 2119151320 entries, above the budget of "
                          "4194304") in err
    assert out == "" and draws == []


@pytest.mark.parametrize("s, message", [
    ("0", "s must be >= 1 and <= 2048, got 0"),
    ("3000", "s must be >= 1 and <= 2048, got 3000"),
    ("3", "support enumeration refused: C(2047, 2) supports of 3 indices holding 0, a table "
          "of 6282243 entries, above the budget of 4194304"),
])
def test_rip_exact_refuses_s_before_the_draw_and_the_flatness(tmp_path, capsys, monkeypatch, s,
                                                              message):
    import chainbounds.rip as rip

    for name in ("sample_selectors", "_dft_flatness"):
        monkeypatch.setattr(rip, name, lambda *a, name=name: pytest.fail(f"called {name}"))
    code, out, err = run(["rip", "exact", "--N", "2048", "--m", "1024", "--s", s, "--seed", "1",
                          "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "") and err == f"error: {message}\n"


def test_rip_exact_builds_an_uncached_class_table_once(tmp_path, capsys, monkeypatch):
    import chainbounds.rip as rip

    # C(210, 2) classes of 3 indices pass _BLOCK_ENTRIES, so each call rebuilds the table
    assert math.comb(210, 2) * 3 > errors._BLOCK_ENTRIES
    built, table = [], rip._class_table
    monkeypatch.setattr(rip, "_class_table", lambda N, s: built.append((N, s)) or table(N, s))
    code, _, _ = run(["rip", "exact", "--N", "211", "--m", "105", "--s", "3", "--seed", "1",
                      "--out", str(tmp_path)], capsys)
    assert code == 0 and built == [(211, 3)]


@pytest.mark.parametrize("flags", [["--profile"], ["--entropy-alpha", "2"],
                                   ["--profile", "--entropy-alpha", "2"]])
@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_cover_computes_one_profile_per_command(tmp_path, capsys, monkeypatch, flags, mode):
    import chainbounds.cli as cli
    import chainbounds.metric as metric

    calls = []
    profile = metric.covering_profile

    def counted(*args, **kwargs):
        calls.append(kwargs.get("mode"))
        return profile(*args, **kwargs)

    monkeypatch.setattr(metric, "covering_profile", counted)
    monkeypatch.setattr(cli, "covering_profile", counted)
    space = tmp_path / "cloud.json"
    points = np.random.default_rng(3).normal(size=(9, 2)).tolist()
    space.write_text(json.dumps({"points": points, "norm": "l2"}))
    code, _, _ = run(["cover", "--space", str(space), "--mode", mode, "--out", str(tmp_path)]
                     + flags, capsys)
    assert code == 0 and calls == [mode]


def test_rip_missing_required_args(tmp_path, capsys):
    code, _, err = run(["rip", "curve", "--N", "8", "--s", "2", "--out", str(tmp_path)], capsys)
    assert code == 2


def test_chaos_command(tmp_path, capsys):
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]]))
    code, out, _ = run(
        ["chaos", "--matrices", str(mats), "--reps", "50", "--seed", "4", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    data = load_json(artifact(tmp_path, "chaos"))
    assert data["radii"]["delta_2"] == pytest.approx(math.sqrt(2.0))
    assert data["radii"]["delta_inf"] == pytest.approx(1.0)
    assert {"E", "V", "U"} <= set(data["comparison_parameters"])
    assert data["seed"] == 4


def test_chaos_names_a_non_finite_matrix_entry(tmp_path, capsys):
    # json.load accepts NaN; it used to surface as "SVD did not converge"
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [math.nan, 0.0]]]))
    code, _, err = run(
        ["chaos", "--matrices", str(mats), "--reps", "50", "--seed", "4", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "got nan at row 1, column 0" in err
    assert not list(tmp_path.glob("chaos-*"))


def test_reports_carry_no_threads_field_and_the_flag_is_gone(tmp_path, triangle, capsys):
    code, _, _ = run(["gamma", "--space", str(triangle), "--alpha", "2", "--out", str(tmp_path)],
                     capsys)
    assert code == 0
    assert "threads" not in load_json(artifact(tmp_path, "gamma"))
    code, _, err = run(["gamma", "--space", str(triangle), "--alpha", "2", "--threads", "2",
                        "--out", str(tmp_path)], capsys)
    assert code == 2 and "--threads" in err


@pytest.mark.parametrize("mode", ["auto", "exact", "greedy"])
def test_cover_nan_radius_exits_two(tmp_path, triangle, capsys, mode):
    code, _, err = run(["cover", "--space", str(triangle), "--radius", "nan", "--mode", mode,
                        "--out", str(tmp_path)], capsys)
    assert code == 2 and "error:" in err
    assert not list(tmp_path.glob("cover-*.json"))


@pytest.mark.parametrize(
    "extra, named",
    [(["--p", "inf"], "order p"), (["--p", "nan"], "order p"), (["--alpha", "nan"], "alpha"),
     (["--alpha", "inf"], "alpha"), (["--alpha", "nan", "--mode", "greedy"], "alpha"),
     (["--alpha", "inf", "--functional", "gamma-prime"], "alpha"),
     (["--p", "inf", "--functional", "gamma-prime"], "order p"),
     (["--p", "nan", "--functional", "gamma-prime"], "order p")],
)
def test_gamma_non_finite_order_or_alpha_exits_two(tmp_path, triangle, capsys, extra, named):
    argv = ["gamma", "--space", str(triangle), "--alpha", "2", "--out", str(tmp_path)] + extra
    code, _, err = run(argv, capsys)
    assert code == 2 and f"error: {named}" in err
    assert not list(tmp_path.glob("gamma-*.json"))


@pytest.mark.parametrize("p", ["4", "2", "0.5"])
def test_gamma_prime_refuses_an_order_p(tmp_path, triangle, capsys, p):
    # gamma_prime has no order; only the default --p 1 goes through
    argv = ["gamma", "--space", str(triangle), "--alpha", "2", "--functional", "gamma-prime",
            "--out", str(tmp_path)]
    code, out, err = run(argv + ["--p", p], capsys)
    assert (code, out) == (2, "") and err.startswith("error: --p applies to --functional gamma")
    assert not list(tmp_path.glob("gamma-*.json"))
    assert run(argv + ["--p", "1"], capsys)[0] == 0


@pytest.mark.parametrize("radius", ["inf", "nan"])
def test_cover_refuses_a_non_finite_radius_by_name(tmp_path, triangle, capsys, radius):
    code, out, err = run(["cover", "--space", str(triangle), "--radius", radius,
                          "--out", str(tmp_path)], capsys)
    assert (code, out, err) == (2, "", f"error: --radius must be finite, got {radius}\n")
    assert not list(tmp_path.glob("cover-*"))


@pytest.mark.parametrize("params, named", [
    ({"alpha": 2.0, "u": math.inf, "p": 1.0}, "$.params.u is inf"),
], ids=["infinite u"])
def test_a_non_finite_config_number_is_named_by_its_path(tmp_path, capsys, params, named):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))  # json writes Infinity and NaN, which json.load reads
    code, _, err = run(["bound", "union-probability", "--params", str(path),
                        "--out", str(tmp_path)], capsys)
    assert code == 2 and err.startswith(f"error: {named}, and JSON holds only finite numbers")
    assert not list(tmp_path.glob("bound-*"))


def test_simulate_empty_u_grid_exits_two(tmp_path, capsys):
    cfg = gaussian_sim_config(tmp_path, u_grid=())
    code, _, err = run(["simulate", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2 and "u_grid" in err
    assert not list(tmp_path.glob("simulate-*.json"))


@pytest.mark.parametrize("key, values, named", [
    ("u_grid", ["1.5", True], "u_grid entry must be a real number, got '1.5'"),
    ("u_grid", [1.0, True], "u_grid entry must be a real number, got True"),
    ("u_grid", "2", "u_grid entry must be a real number, got '2'"),
    ("p_list", [True], "moment order p must be a real number, got True"),
    ("p_list", [2.0, "3"], "moment order p must be a real number, got '3'"),
])
def test_simulate_grid_entries_that_are_no_numbers_exit_two(tmp_path, capsys, key, values, named):
    cfg = json.loads(gaussian_sim_config(tmp_path).read_text())
    if key == "p_list":
        del cfg["bound"], cfg["u_grid"]
    cfg[key] = values
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(["simulate", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert code == 2 and f"error: {named}" in err
    assert not list(tmp_path.glob("simulate-*.json"))


@pytest.mark.parametrize("model, named", [
    ({"kind": "gaussian", "covariance": [[True, False], [False, True]]},
     "covariance must hold real numbers, got dtype bool"),
    ({"kind": "martingale-family", "coefficients": [["1", 0.5]]},
     "coefficients must hold real numbers, got dtype <U"),
    ({"kind": "squares", "coefficients": [[1.0, 0.5], [0.5]]},
     "coefficients must be a rectangular array, not ragged"),
    ({"kind": "gaussian", "covariance": [[1.0, 0.0], [0.0, 1.0]], "labels": 5},
     "labels must be a list of point labels, got 5"),
    ({"kind": "gaussian", "covariance": [[1.0, 0.0], [0.0, 1.0]], "labels": [[1], [2]]},
     "index labels must be hashable, got [1]"),
])
def test_simulate_model_arrays_are_checked_as_given(tmp_path, capsys, model, named):
    # the config's arrays reach the model builders unconverted, so booleans and
    # strings are refused by name instead of being read as numbers
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": model, "reps": 20, "seed": 3}))
    code, _, err = run(["simulate", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert code == 2 and f"error: {named}" in err
    assert not list(tmp_path.glob("simulate-*.json"))


@pytest.mark.parametrize("field, value", [("reps", math.inf), ("reps", 10.5), ("reps", 0),
                                          ("seed", math.inf), ("seed", 1.5), ("seed", -1)])
def test_simulate_non_integer_reps_or_seed_exits_two(tmp_path, capsys, field, value):
    cfg = json.loads(gaussian_sim_config(tmp_path).read_text())
    cfg[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))  # json writes inf as Infinity, which json.load reads back
    code, _, err = run(["simulate", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert code == 2 and f"error: {field}" in err
    assert not list(tmp_path.glob("simulate-*.json"))


def test_main_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # The parser is built once per process; the same argv (default --reps
    # included) must give the same bytes and exit code after a different
    # command and after failing ones.
    monkeypatch.chdir(tmp_path)
    argv = ["rip", "curve", "--N", "8", "--s", "2", "--delta", "0.5", "--m-list", "3,4",
            "--seed", "1", "--out", "out"]

    def outcome():
        code, out, err = run(argv, capsys)
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())}
        shutil.rmtree(tmp_path / "out")
        return code, out, err, files

    first = outcome()
    assert first[0] == 0 and len(first[3]) == 2
    assert run(["rip", "exact", "--N", "8", "--m", "4", "--s", "2", "--seed", "3",
                "--out", "other"], capsys)[0] == 0
    assert outcome() == first
    assert run(["rip", "curve", "--N", "8", "--s", "2", "--reps", "5", "--out", "other"],
               capsys)[0] == 2
    assert run(["rip", "curve", "--N", "x", "--s", "2"], capsys)[0] == 2
    assert outcome() == first


def test_fit_constants_not_fit_path_name_the_artifact(tmp_path, capsys):
    # Two runs with different fitted constants under one --fit path used to
    # share a config hash, so the second overwrote the first.
    sim = gaussian_sim_config(tmp_path, u_grid=(1.0,))
    mats = tmp_path / "mats.json"
    mats.write_text(json.dumps([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]]))
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"alpha": 2, "u": 2, "p": 1}))
    fit = tmp_path / "fit.json"
    commands = {  # argv, then the constants and exit code of each run
        "simulate": (["simulate", "--config", str(sim)],
                     [({"C_2": 50.0}, 0), ({"C_2": 1e-6, "D_2": 1e-6}, 1)]),
        "chaos": (["chaos", "--matrices", str(mats), "--reps", "50", "--seed", "4",
                   "--u-grid", "1,2"],
                  [({"chaos_C": 10.0, "chaos_c": 10.0}, 0), ({"chaos_C": 0.2, "chaos_c": 0.2}, 0)]),
        "bound": (["bound", "union-probability", "--params", str(params)],
                  [({"union_c": 10.0}, 0), ({"union_c": 3.0}, 0)]),
    }
    for stem, (argv, runs) in commands.items():
        out = tmp_path / stem
        for constants, code in runs:
            fit.write_text(json.dumps(constants))
            assert run(argv + ["--fit", str(fit), "--out", str(out)], capsys)[0] == code
        reports = [load_json(p) for p in sorted(out.glob(f"{stem}-*.json"))]
        assert len(reports) == 2, stem
        assert sorted(json.dumps(r["config"]["fit"], sort_keys=True) for r in reports) == sorted(
            json.dumps(c, sort_keys=True) for c, _ in runs
        )
        if stem == "simulate":
            assert sorted(r["verdict"] for r in reports) == ["dominated", "violated"]
        assert len({r["config_hash"] for r in reports}) == 2


def test_input_contents_not_input_paths_name_the_artifact(tmp_path, capsys):
    # Two inputs (spaces, matrix families, sample files or simulate configs)
    # read in turn from one path used to share a config hash, so the second
    # overwrote the first; one input read from two paths now gives one artifact.
    spaces = [{"dist": [[0, 1], [1, 0]]}, {"dist": [[0, 2], [2, 0]]}]
    families = [[[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]],
                [[[2.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]]]
    configs = [{"model": {"kind": "gaussian", "covariance": c}, "reps": 50, "seed": 3}
               for c in ([[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 1.0]])]
    commands = {  # argv around the input path, then the two inputs as file text
        "gamma": (["gamma", "--alpha", "2", "--space"], [json.dumps(s) for s in spaces]),
        "cover": (["cover", "--radius", "1", "--space"], [json.dumps(s) for s in spaces]),
        "chaos": (["chaos", "--reps", "50", "--seed", "4", "--matrices"],
                  [json.dumps(f) for f in families]),
        "orlicz": (["orlicz", "--alpha", "2", "--samples"], ["1.0\n-2.0\n", "1.0\n3.0\n"]),
        "simulate": (["simulate", "--config"], [json.dumps(c) for c in configs]),
    }
    for stem, (argv, inputs) in commands.items():
        out = tmp_path / stem
        written = []
        for text, name in zip(inputs + inputs[:1], ("in.json", "in.json", "other.json")):
            (tmp_path / name).write_text(text)
            code, stdout, _ = run(argv + [str(tmp_path / name), "--out", str(out)], capsys)
            assert code == 0
            written.append([line for line in stdout.splitlines() if line.startswith("wrote ")])
        assert written[0] != written[1] and written[0] == written[2], stem
        assert len(list(out.glob(f"{stem}-*.json"))) == 2, stem


def test_runs_without_fit_hash_no_fit_entry(tmp_path, capsys):
    sim = gaussian_sim_config(tmp_path, fit={"C_2": 50.0})
    params = tmp_path / "params.json"
    params.write_text(json.dumps({}))
    assert run(["simulate", "--config", str(sim), "--out", str(tmp_path)], capsys)[0] == 0
    assert load_json(artifact(tmp_path, "simulate"))["config"]["fit"] == {"C_2": 50.0}
    assert run(["bound", "union-constant", "--params", str(params), "--out", str(tmp_path)],
               capsys)[0] == 0
    assert load_json(artifact(tmp_path, "bound"))["config"]["fit"] is None


@pytest.mark.parametrize("value", [True, "3"])
def test_inline_fit_must_hold_numbers(tmp_path, capsys, value):
    sim = gaussian_sim_config(tmp_path, fit={"C_2": value})
    code, out, err = run(["simulate", "--config", str(sim), "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: fitted constant 'C_2' must be a real number, got {value!r}\n"
    assert not list(tmp_path.glob("simulate-*"))


@pytest.mark.parametrize("fit", [{"C2": 1e-6, "D2": 1e-6}, {"C_2.0": 1e-6, "D_2.0": 1e-6}],
                         ids=["no underscore", "alpha not as {alpha:g}"])
def test_simulate_refuses_a_misspelled_fitted_constant(tmp_path, capsys, fit):
    # with the stock constants this config is dominated; C_2 = D_2 = 1e-6 would be violated
    sim = gaussian_sim_config(tmp_path, fit=fit)
    code, out, err = run(["simulate", "--config", str(sim), "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: unknown fitted constant {next(iter(fit))!r}: no bound reads it")
    assert not list(tmp_path.glob("simulate-*"))


@pytest.mark.parametrize(
    "name, params, named",
    [("moments-to-tails", {"a": 1.3, "b": 0.5, "alpha": 0.001}, "threshold factor e^(1/alpha)"),
     ("moments-to-tails-mixed", {"a1": 0.0, "a2": 1.0, "a3": 0.5, "u": math.inf}, "finite u")],
)
def test_bound_out_of_range_alpha_or_u_exits_two_before_printing(tmp_path, capsys, name,
                                                                 params, named):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    code, out, err = run(["bound", name, "--params", str(path), "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and named in err
    assert not list(tmp_path.glob("bound-*.json"))


_CHAOS_MATRICES = [[[1.0, 0.5], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.25]]]
_COEFFICIENTS = [[1.0, 0.5], [0.5, 1.0]]


@pytest.mark.parametrize("model, field", [
    ({"kind": "chaos", "matrices": _CHAOS_MATRICES, "decoupled": "false"}, "decoupled"),
    ({"kind": "chaos", "matrices": _CHAOS_MATRICES, "decoupled": 0}, "decoupled"),
    ({"kind": "chaos", "matrices": _CHAOS_MATRICES, "xi": {"scale": "1.5"}}, "xi.scale"),
    ({"kind": "chaos", "matrices": _CHAOS_MATRICES, "xi": {"scale": True}}, "xi.scale"),
    ({"kind": "empirical", "coefficients": _COEFFICIENTS, "base": {"scale": None}},
     "base.scale"),
    ({"kind": "empirical", "coefficients": _COEFFICIENTS, "base": {"scale": "1.5"}},
     "base.scale"),
    ({"kind": "squares", "coefficients": _COEFFICIENTS, "base": {"scale": True}}, "base.scale"),
    ({"kind": "empirical", "coefficients": _COEFFICIENTS, "base": "gaussian"}, "base"),
    ({"kind": "chaos", "matrices": _CHAOS_MATRICES, "xi": "gaussian"}, "xi"),
])
def test_simulate_model_flags_and_scales_must_be_json_booleans_and_numbers(tmp_path, capsys,
                                                                           model, field):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"model": model, "reps": 20, "seed": 3}))
    code, out, err = run(["simulate", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field} must be ")
    assert not list(tmp_path.glob("simulate-*"))


def test_simulate_model_takes_json_false_and_integer_scales(tmp_path, capsys):
    path = tmp_path / "m.json"
    model = {"kind": "empirical", "coefficients": _COEFFICIENTS, "base": {"scale": 2}}
    path.write_text(json.dumps({"model": model, "reps": 20, "seed": 3}))
    assert run(["simulate", "--config", str(path), "--out", str(tmp_path)], capsys)[0] == 0
    model = {"kind": "chaos", "matrices": _CHAOS_MATRICES, "decoupled": False, "xi": {"scale": 2}}
    path.write_text(json.dumps({"model": model, "reps": 20, "seed": 3}))
    assert run(["simulate", "--config", str(path), "--out", str(tmp_path)], capsys)[0] == 0


_BERNSTEIN = {"m": 50, "sigma": 1.0, "K": 1.0, "u": 2.0}


@pytest.mark.parametrize("name, params, message", [
    ("bernstein", {**_BERNSTEIN, "from": "psi1"},
     "bound 'bernstein' params has unread key 'from'; it reads 'K', 'm', 'sigma', 'u'"),
    ("bernstein", {"m": 50, "form": "psi1", "nu": 0.8, "kappa": 1.1, "u": 2.0},
     "bound 'bernstein' params has unread keys 'form', 'kappa', 'nu'; it reads 'K', 'm', "
     "'sigma', 'u'"),
    ("hanson-wright", {"matrix": [[1.0, 0.5], [0.5, -1.0]], "u": 2.0, "c_fit": 0.3},
     "bound 'hanson-wright' params has unread key 'c_fit'; it reads 'matrix', 'u'"),
    ("union-constant", {"extra": math.nan},
     "bound 'union-constant' params has unread key 'extra'; it reads none"),
    ("union-probability", {"alpha": 2.0, "u": 2.0, "p": 1.0, "extra": math.nan},
     "bound 'union-probability' params has unread key 'extra'; it reads 'alpha', 'p', 'u'"),
    ("psi-alpha", {"gamma": {"alpha": 2, "value": 1, "P": 4}, "diam": 2.0, "u": 2.0},
     "gamma has unread key 'P'; it reads 'alpha', 'p', 'value'"),
    ("gaussian", {"gamma2": {"alpha": 2, "value": 1, "mode": "exact"}, "sigma": 1.0, "u": 2.0},
     "gamma2 has unread key 'mode'; it reads 'alpha', 'p', 'value'"),
    ("chaos", {"matrices": _CHAOS_MATRICES, "u": 2.0,
               "xi_psi2": {"value": 1.2, "source": "analytic"}},
     "xi_psi2 has unread key 'source'; it reads 'alpha', 'value'"),
], ids=["misspelt key", "psi1 form", "c_fit", "union-constant NaN", "union-probability NaN",
        "gamma P", "gamma2 mode", "xi_psi2 source"])
def test_bound_refuses_a_params_key_it_does_not_read(tmp_path, capsys, name, params, message):
    # such a key was ignored: the bound was computed without it, or the report
    # was refused for a NaN no computation read
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    code, out, err = run(["bound", name, "--params", str(path), "--out", str(tmp_path / "out")],
                         capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, message", [
    ({"kind": "empirical", "coefficients": _COEFFICIENTS, "m": 2},
     "model 'empirical' has unread key 'm'; it reads 'base', 'coefficients', 'kind', 'labels'"),
    ({"kind": "squares", "coefficients": _COEFFICIENTS, "m": 2.5},
     "model 'squares' has unread key 'm'; it reads 'base', 'coefficients', 'kind', 'labels'"),
    ({"kind": "empirical", "coefficients": _COEFFICIENTS, "base": {"mean_known": False}},
     "base has unread key 'mean_known'; it reads 'name', 'scale'"),
    ({"kind": "chaos", "matrices": _CHAOS_MATRICES, "xi": {"mean_known": True}},
     "xi has unread key 'mean_known'; it reads 'name', 'scale'"),
    ({"kind": "chaos", "matrices": _CHAOS_MATRICES, "labels": ["a", "b"]},
     "model 'chaos' has unread key 'labels'; it reads 'decoupled', 'kind', 'matrices', 'xi'"),
], ids=["empirical m", "squares m", "base mean_known", "xi mean_known", "chaos labels"])
def test_simulate_refuses_a_model_key_it_does_not_read(tmp_path, capsys, model, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"model": model, "reps": 20, "seed": 3}))
    code, out, err = run(["simulate", "--config", str(path), "--out", str(tmp_path / "out")],
                         capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, params, field", [
    ("gaussian", {"gamma2": {"alpha": 2, "value": "3"}, "sigma": 1.0, "u": 2.0}, "gamma2.value"),
    ("gaussian", {"gamma2": {"alpha": 2, "value": 3, "p": True}, "sigma": 1.0, "u": 2.0},
     "gamma2.p"),
    ("gaussian", {"gamma2": {"alpha": True, "value": 3}, "sigma": 1.0, "u": 2.0}, "gamma2.alpha"),
    ("gaussian", {"gamma2": {"alpha": 2, "value": 3}, "sigma": 1.0, "u": "2"}, "u"),
    ("azuma", {"gamma2": {"alpha": 2, "value": 1.25}, "diam": 1.0, "u": True}, "u"),
    ("chaos", {"matrices": _CHAOS_MATRICES, "u": 2.0, "xi_psi2": {"value": "1.2"}},
     "xi_psi2.value"),
    ("chaos", {"matrices": _CHAOS_MATRICES, "u": 2.0, "xi_psi2": {"value": 1.2, "alpha": "2"}},
     "xi_psi2.alpha"),
    ("kmr", {"matrices": _CHAOS_MATRICES, "gamma_p": True}, "gamma_p"),
])
def test_bound_params_must_be_json_numbers(tmp_path, capsys, name, params, field):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    code, out, err = run(["bound", name, "--params", str(path), "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field} must be a real number, got ")
    assert not list(tmp_path.glob("bound-*"))


_EYE = [[1.0, 0.0], [0.0, 1.0]]
_GAUSSIAN = {"kind": "gaussian", "covariance": _EYE}
_RIP_CURVE = ["rip", "curve", "--N", "8", "--s", "2", "--delta", "0.5", "--seed", "1", "--m-list"]
_CHAOS = ["chaos", "--matrices", "{family}", "--reps", "10", "--seed", "1"]
_CHAOS_MODEL = {"kind": "chaos", "matrices": 5}


# (argv, with {name} for a file of that name among the files below, and the message)
@pytest.mark.parametrize("argv, message", [
    (_RIP_CURVE + ["4,a"], "--m-list must be a comma-separated number list, got '4,a'"),
    (_RIP_CURVE + [","], "--m-list must contain at least one value"),
    (_CHAOS + ["--u-grid", "a"], "--u-grid must be a comma-separated number list, got 'a'"),
    (_CHAOS + ["--u-grid", ","], "--u-grid must contain at least one value"),
    (["cover", "--space", "{space}"], "cover needs --radius, --profile, or --entropy-alpha"),
    (["orlicz", "--alpha", "2", "--family", "gaussian", "--samples", "{samples}"],
     "orlicz needs exactly one of --family or --samples"),
    (["orlicz", "--alpha", "2"], "orlicz needs exactly one of --family or --samples"),
    (["bound", "gaussian", "--params", "{list}"], "--params file must hold a JSON object"),
    (["simulate", "--config", "{list}"], "simulate config must be a JSON object"),
    (["simulate", "--config", "{no_kind}"], 'model config must be an object with a "kind"'),
    (["simulate", "--config", "{bad_kind}"], "unknown model kind 'brownian' in simulate config"),
    (["simulate", "--config", "{scalar_bound}"], "bound 'union-constant' is not validatable"),
    (["simulate", "--config", "{no_grid}"], "tail-bound validation needs a u_grid in the config"),
    (_CHAOS[:2] + ["{five}"] + _CHAOS[3:], "matrices must be a JSON list of matrices, got int"),
    (["bound", "chaos", "--params", "{chaos_params}"],
     "matrices must be a JSON list of matrices, got int"),
    (["simulate", "--config", "{chaos_model}"],
     "matrices must be a JSON list of matrices, got int"),
    (["cover", "--space", "{misspelt_norm}", "--radius", "1"],
     """metric space JSON with "points" has unread key 'nrom'; it reads 'labels', 'norm', """
     "'points'"),
], ids=["m-list entry", "empty m-list", "u-grid entry", "empty u-grid", "cover nothing asked",
        "orlicz both", "orlicz neither", "params list", "simulate list", "simulate no kind",
        "simulate unknown kind", "simulate scalar bound", "simulate no u_grid",
        "chaos family not a list", "bound family not a list", "simulate family not a list",
        "space misspelt norm"])
def test_config_shape_refusals_exit_two(tmp_path, capsys, argv, message):
    files = {
        "family": [_EYE],
        "five": 5,
        "space": {"points": [[0.0], [1.0]]},
        "samples": None,
        "list": [1.0],
        "no_kind": {"model": {}, "seed": 1, "reps": 10},
        "bad_kind": {"model": {"kind": "brownian"}, "seed": 1, "reps": 10},
        "scalar_bound": {"model": _GAUSSIAN, "seed": 1, "reps": 10,
                         "bound": {"name": "union-constant"}},
        "no_grid": {"model": _GAUSSIAN, "seed": 1, "reps": 10,
                    "bound": {"name": "gaussian", "params": {
                        "gamma2": {"alpha": 2, "value": 1.0}, "sigma": 1.0, "u": 1.0}}},
        "chaos_params": {"matrices": 5, "xi_psi2": {"value": 1.0}, "u": 1.0},
        "chaos_model": {"model": _CHAOS_MODEL, "seed": 1, "reps": 10},
        "misspelt_norm": {"points": [[0, 0], [1, 1], [2, 0]], "nrom": "l1"},
    }
    paths = {}
    for name, contents in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text("1.0\n2.0\n" if contents is None else json.dumps(contents))
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out")]
    code, _, err = run(argv, capsys)
    assert (code, err) == (2, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def _computes(*args, **kwargs):
    pytest.fail("computed before every input was read")


@pytest.mark.parametrize("flags, message", [
    (["--u-grid", "1,a"], "--u-grid must be a comma-separated number list, got '1,a'"),
    (["--u-grid", ","], "--u-grid must contain at least one value"),
    (["--fit", "{missing}"], "No such file or directory"),
    (["--fit", "{not_json}"], "Expecting property name"),
    (["--u-grid", "1", "--fit", "{not_json}"], "Expecting property name"),
])
def test_chaos_reads_its_fit_and_u_grid_before_it_computes(tmp_path, capsys, monkeypatch, flags,
                                                           message):
    monkeypatch.setattr(cli, "schatten_radii", _computes)
    monkeypatch.setattr(cli, "simulate_chaos", _computes)
    family = tmp_path / "family.json"
    family.write_text(json.dumps(_CHAOS_MATRICES))
    (tmp_path / "not_json.json").write_text("{")
    files = {"missing": tmp_path / "missing.json", "not_json": tmp_path / "not_json.json"}
    argv = ["chaos", "--matrices", str(family), "--reps", "10", "--seed", "1",
            "--out", str(tmp_path / "out")] + [flag.format(**files) for flag in flags]
    code, out, err = run(argv, capsys)
    assert code == 2 and message in err and out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, message", [
    ({"bound": {"name": "union-constant"}}, "bound 'union-constant' is not validatable"),
    ({"u_grid": None}, "tail-bound validation needs a u_grid in the config"),
    ({"u_grid": []}, "tail-bound validation needs a nonempty u_grid"),
    ({"u_grid": [1.0, "2"]}, "u_grid entry must be a real number, got '2'"),
    ({"bound": {"name": "gaussian", "params": {}}}, "missing config field 'gamma2'"),
    ({"bound": None, "u_grid": None, "p_list": [2.0, True]},
     "moment order p must be a real number, got True"),
    ({"bound": None, "u_grid": None, "p_list": [0.5]},
     "moment order p must be finite and >= 1, got 0.5"),
    ({"bound": None, "u_grid": None, "p_list": []},
     "moment orders need a nonempty p_list"),
    ({"fit": [1]}, "fit must be a JSON object, got [1]"),
    ({"bound": 3}, "bound must be a JSON object, got 3"),
    ({"bound": {"name": "azuma", "params": [1]}}, "bound.params must be a JSON object, got [1]"),
    ({"bound": {"name": [1]}}, "bound name must be a string, got [1]"),
    ({"u_grid": [0.5, 2.0]}, "gaussian-supremum is valid for u >= 1.0, got 0.5"),
    ({"u_grid": [1.0, math.nan]}, "gaussian-supremum is valid for u >= 1.0, got nan"),
    ({"u_grid": [1.0, math.inf]}, "gaussian-supremum needs a finite u, got inf"),
])
def test_simulate_reads_its_bound_and_grids_before_the_model_runs(tmp_path, capsys, monkeypatch,
                                                                  change, message):
    monkeypatch.setattr(cli, "_run_model", _computes)
    cfg = json.loads(gaussian_sim_config(tmp_path).read_text())
    for key, value in change.items():
        if value is None:
            del cfg[key]
        else:
            cfg[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(["simulate", "--config", str(path), "--out", str(tmp_path / "out")],
                         capsys)
    assert code == 2 and message in err and out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--u-grid", "1,2"], "constant 'chaos_C' has no derived value"),
    (["--u-grid", "0.5,2", "--fit", "{fit}"], "chaos-supremum is valid for u >= 1.0, got 0.5"),
    (["--u-grid", "1,nan,2", "--fit", "{fit}"], "chaos-supremum is valid for u >= 1.0, got nan"),
], ids=["no chaos_C", "below u_min", "nan not first"])
def test_chaos_builds_its_bound_and_checks_its_u_grid_before_the_simulation(
        tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.setattr(processes, "_simulate", _computes)
    family, fit = tmp_path / "family.json", tmp_path / "fit.json"
    family.write_text(json.dumps(_CHAOS_MATRICES))
    fit.write_text(json.dumps({"chaos_C": 1.0, "chaos_c": 1.0}))
    argv = ["chaos", "--matrices", str(family), "--reps", "10", "--seed", "1",
            "--out", str(tmp_path / "out")] + [flag.format(fit=fit) for flag in flags]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "") and err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


_RIP = {
    "exact": ["rip", "exact", "--N", "8", "--m", "4", "--s", "2", "--seed", "3"],
    "curve": _RIP_CURVE + ["4", "--reps", "5"],
    "complexity": ["rip", "complexity", "--N", "8", "--s", "2", "--delta", "0.5", "--eta", "0.01",
                   "--d1", "1", "--d2", "1"],
}


@pytest.mark.parametrize("argv", [
    _RIP["exact"] + ["--reps", "5"],
    _RIP["exact"] + ["--K", "3"],
    _RIP["curve"] + ["--m", "4"],
    _RIP["complexity"] + ["--seed", "4"],
    ["rip"] + _RIP["exact"][2:] + ["exact"],
], ids=["exact --reps", "exact --K", "curve --m", "complexity --seed", "action last"])
def test_a_rip_action_takes_only_its_own_options_after_it(tmp_path, capsys, argv):
    # an option only another action reads used to be accepted and ignored
    code, out, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (2, "") and "error: " in err
    assert not (tmp_path / "out").exists()


def _declared(*names) -> set:
    """The option dests of a command's parsers, from the top parser down through names."""
    parser, dests = cli._PARSER, set()
    for name in names:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
        dests |= {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
    return dests - {"out"}


@pytest.mark.parametrize("argv", [
    ["gamma", "--space", "{space}", "--alpha", "2"],
    ["cover", "--space", "{space}", "--radius", "1"],
    ["bound", "union-probability", "--params", "{params}"],
    ["chaos", "--matrices", "{family}", "--reps", "10", "--seed", "1"],
    _RIP["exact"], _RIP["curve"], _RIP["complexity"],
], ids=["gamma", "cover", "bound", "chaos", "rip exact", "rip curve", "rip complexity"])
def test_a_report_config_is_every_declared_option_but_out(tmp_path, capsys, argv):
    files = {"space": {"points": [[0.0], [1.0]]}, "params": {"alpha": 2, "u": 2, "p": 1},
             "family": [_EYE]}
    paths = {}
    for name, contents in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(contents))
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out")]
    assert run(argv, capsys)[0] == 0
    [report] = (tmp_path / "out").glob("*.json")
    command = argv[:2] if argv[0] == "rip" else argv[:1]
    assert set(load_json(report)["config"]) == _declared(*command)


_FINITE_JSON = ", and JSON holds only finite numbers"


@pytest.mark.parametrize("argv, contents, error", [
    (["bound", "union-probability"], {"alpha": 2.0, "u": math.inf, "p": 1.0},
     "$.params.u is inf" + _FINITE_JSON),
    (["simulate"], {"model": _GAUSSIAN, "reps": 10, "seed": 1, "note": math.nan},
     "simulate config has unread key 'note'; it reads 'bound', 'fit', 'model', 'p_list', "
     "'reps', 'seed', 'u_grid'\n"),
    (["bound", "kmr"], {"matrices": [[[1e200, 0], [0, 1]], [[1, 0], [0, 1]]]},
     "$.bound.E is inf" + _FINITE_JSON),
], ids=["union-probability u inf", "simulate unread NaN",
        "kmr report E inf"])
def test_a_command_whose_report_cannot_be_written_prints_nothing(tmp_path, capsys, argv,
                                                                 contents, error):
    # the result used to be printed before the report was encoded; an unread
    # NaN is refused as an unread key before anything runs
    path = tmp_path / "in.json"
    path.write_text(json.dumps(contents))  # json writes Infinity and NaN, which json.load reads
    flag = "--config" if argv[0] == "simulate" else "--params"
    code, out, err = run(argv + [flag, str(path), "--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {error}")
    assert not (tmp_path / "out").exists()


_GAUSSIAN_PARAMS = {"gamma2": {"alpha": 2, "value": 1.0}, "sigma": 1.0, "u": 1.0}


@pytest.mark.parametrize("config, message", [
    ({"model": _GAUSSIAN, "reps": 20, "seed": 3, "p-list": [2.0, 4.0]},
     "simulate config has unread key 'p-list'; it reads 'bound', 'fit', 'model', 'p_list', "
     "'reps', 'seed', 'u_grid'"),
    ({"model": _GAUSSIAN, "reps": 20, "seed": 3, "u_grid": [1.0],
      "bound": {"name": "gaussian", "prams": {"gamma2": {"alpha": 2, "value": 1}}}},
     "bound has unread key 'prams'; it reads 'name', 'params'"),
    ({"model": _GAUSSIAN, "reps": 20, "seed": 3, "u_grid": [1.0], "p_list": [2.0],
      "bound": {"name": "gaussian", "params": _GAUSSIAN_PARAMS}},
     "simulate config with a tail bound has unread key 'p_list'; it reads 'bound', 'fit', "
     "'model', 'reps', 'seed', 'u_grid'"),
    ({"model": _GAUSSIAN, "reps": 20, "seed": 3, "u_grid": [1.0], "p_list": [2.0],
      "bound": {"name": "small-set", "params": {"set_size": 2, "p": 2.0,
                                               "individual_bounds": [2.0, 2.0]}}},
     "simulate config with a moment bound has unread keys 'p_list', 'u_grid'; it reads "
     "'bound', 'fit', 'model', 'reps', 'seed'"),
    ({"model": _GAUSSIAN, "reps": 20, "seed": 3, "u_grid": [1.0], "p_list": [2.0]},
     "simulate config without a bound has unread key 'u_grid'; it reads 'fit', 'model', "
     "'p_list', 'reps', 'seed'"),
], ids=["p-list", "bound prams", "p_list beside a tail bound", "grids beside a moment bound",
        "u_grid without a bound"])
def test_simulate_refuses_a_config_key_it_does_not_read(tmp_path, capsys, monkeypatch, config,
                                                        message):
    # such a key was ignored: the moments were estimated at p = 1, the
    # bound was built from no params, or a grid the branch does not read
    # entered the config hash; each is refused before the model runs
    monkeypatch.setattr(cli, "_run_model", _computes)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    code, out, err = run(["simulate", "--config", str(path), "--out", str(tmp_path / "out")],
                         capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["chaos", "simulate"])
def test_a_sample_whose_sum_passes_the_float_range_reports_its_mean(tmp_path, capsys, command):
    # every value is 1.28e308; their sum overflowed, and the report was refused
    path = tmp_path / "in.json"
    family = [[[8e153, 8e153]]]
    if command == "chaos":
        path.write_text(json.dumps(family))
        argv = ["chaos", "--matrices", str(path), "--reps", "10", "--seed", "1"]
    else:
        path.write_text(json.dumps({"model": {"kind": "chaos", "matrices": family}, "reps": 10,
                                    "seed": 1}))
        argv = ["simulate", "--config", str(path)]
    code, _, err = run(argv + ["--out", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    sample = load_json(artifact(tmp_path, command))["sample"]
    assert (sample["mean"], sample["max"]) == (1.28e308, 1.28e308)


_SQUARES = {"radius": 1.0, "m": 4, "sigma": 1.0, "K": 1.0}
_OVERFLOWS = {
    "squares moment": (["bound", "squares"], {**_SQUARES, "p": 2.0,
                       "gamma2p": {"alpha": 2, "p": 2, "value": 1e200}},
                       "decomposition term 'chaining-squared' must be finite"),
    "squares tail": (["bound", "squares"], {**_SQUARES, "u": 2.0,
                     "gamma2p": {"alpha": 2, "value": 1e200}},
                     "threshold coefficient const must be finite"),
    "chaos moment": (["bound", "chaos"], {"matrices": _CHAOS_MATRICES, "p": 2.0, "gamma_p": 2.0,
                     "xi_psi2": {"value": 1e200}}, "xi_psi2.value^2 is not finite"),
    "chaos tail": (["bound", "chaos"], {"matrices": _CHAOS_MATRICES, "u": 2.0,
                   "xi_psi2": {"value": 1e200}}, "xi_psi2.value^2 is not finite"),
    "tails-to-moments": (["bound", "tails-to-moments"], {"a": 1.0, "b": 1.0, "alpha": 1e4, "p": 2},
                         "Stirling factor e^(alpha/12) is not finite at alpha = 10000"),
    "squares-l2": (["bound", "squares-l2"], {"psi2_distance": 1e300, "m": 10, "u": 1e10},
                   "squares-l2-increment threshold is not finite at u = 1e+10"),
    "rip K": (_RIP["complexity"] + ["--K", "1e200"], None, "s K^2 / delta^2 is not finite"),
    "rip delta": (["rip", "complexity", "--N", "8", "--s", "2", "--delta", "1e-200", "--eta",
                   "0.01", "--d1", "1", "--d2", "1"], None, "s K^2 / delta^2 is not finite"),
}


@pytest.mark.parametrize("argv, params, named", _OVERFLOWS.values(), ids=_OVERFLOWS)
def test_a_float_overflow_exits_two_with_a_named_message(tmp_path, capsys, argv, params, named):
    # each used to end in an OverflowError or ZeroDivisionError traceback with exit 1,
    # or (squares-l2) in a RuntimeWarning and an unnamed refusal
    fit = tmp_path / "fit.json"
    fit.write_text(json.dumps({"squares_C": 1.0, "squares_c": 1.0, "chaos_C": 1.0, "chaos_c": 1.0}))
    if params is not None:
        (tmp_path / "p.json").write_text(json.dumps(params))
        argv = argv + ["--params", str(tmp_path / "p.json"), "--fit", str(fit)]
    code, out, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("params", [{"alpha": 2.0, "u": 1e200, "p": 1.0},
                                    {"alpha": 1000.0, "u": 3.0, "p": 1.0}],
                         ids=["large u", "large alpha"])
def test_union_probability_past_the_float_range_is_zero(tmp_path, capsys, params):
    # u^alpha used to raise OverflowError; the tail is 0 there, as at u = inf
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    code, out, err = run(["bound", "union-probability", "--params", str(path),
                          "--out", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "probability = 0, union_c = 16, fitted = False"
    assert load_json(artifact(tmp_path, "bound"))["bound"]["probability"] == 0.0


_TEN_REPS = {"seed": 1, "reps": 10}
def _bound(kind):
    return ["bound", kind, "--params", "{file}", "--fit", "{fit}"]


# (argv, with {file} for a file of the contents and {fit} for a fit file; the contents; the
# exit code; the message named on stderr, or for exit 0 the first line of stdout)
_PAST_THE_FLOAT_RANGE = {
    "chaos bound, one matrix": (_bound("chaos"),
                                {"matrices": [_EYE], "xi_psi2": {"value": 1e200}, "u": 2},
                                2, "xi_psi2.value^2 is not finite (xi_psi2.value = 1e+200)"),
    "chaos bound, 1e200 family": (_bound("chaos"), {"matrices": [[[1e200, 0], [0, 1]], _EYE],
                                                    "xi_psi2": {"value": 1}, "u": 2},
                                  2, "threshold coefficient const must be finite"),
    "simulate squares": (["simulate", "--config", "{file}"],
                         {**_TEN_REPS, "model": {"kind": "squares",
                                                 "coefficients": [[1, 0.5], [0.2, 1]],
                                                 "base": {"name": "uniform", "scale": 1e200}}},
                         2, "row second moment is not finite"),
    "simulate chaos": (["simulate", "--config", "{file}"],
                       {**_TEN_REPS, "model": {"kind": "chaos", "matrices": _CHAOS_MATRICES,
                                               "xi": {"name": "gaussian", "scale": 1e200}}},
                       2, "row second moment is not finite"),
    "chaos scale": (_CHAOS[:2] + ["{file}"] + _CHAOS[3:] + ["--scale", "1e200"],
                    _CHAOS_MATRICES, 2, "row second moment is not finite"),
    "chaos, 1e200 family": (_CHAOS[:2] + ["{file}"] + _CHAOS[3:], [[[1e200, 0], [0, 1]], _EYE], 2,
                            "$.comparison_parameters.E is inf"),
    "kmr, 1e100 family": (_bound("kmr"), {"matrices": [[[1e100, 0], [0, 1]], _EYE]},
                          0, "E = 2e+200, V = 2e+200, U = 1e+200, fitted = False"),
    "hanson-wright, 1e200 matrix": (_bound("hanson-wright"),
                                    {"matrix": [[1e200, 0], [0, 1]], "u": 2}, 0,
                                    "hanson-wright: threshold(u=2) = 2, envelope = 1, "
                                    "fitted = True"),
}


@pytest.mark.parametrize("argv, contents, code, text", _PAST_THE_FLOAT_RANGE.values(),
                         ids=_PAST_THE_FLOAT_RANGE)
def test_a_value_past_the_float_range_is_refused_by_name_or_computed(tmp_path, capsys, argv,
                                                                     contents, code, text):
    # these used to exit 2 on a NaN term, end in an OverflowError traceback with exit 1, or
    # (the matrices) overflow in a Schatten radius or norm with a RuntimeWarning
    files = {"file": tmp_path / "in.json", "fit": tmp_path / "fit.json"}
    files["file"].write_text(json.dumps(contents))
    files["fit"].write_text(json.dumps({"chaos_C": 1.0, "chaos_c": 1.0, "hanson_wright_c": 1.0}))
    outdir = tmp_path / "out"
    result = run([a.format(**files) for a in argv] + ["--out", str(outdir)], capsys)
    if code == 0:
        assert (result[0], result[1].splitlines()[0], result[2]) == (0, text, "")
        assert load_json(artifact(outdir, "bound"))["config_hash"]
    else:
        assert result[:2] == (2, "")
        assert result[2].startswith("error: ") and text in result[2]
        assert not outdir.exists()
