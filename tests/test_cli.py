"""End-to-end command-line runs: artifacts, exit codes, determinism."""

import inspect
import json
import math
import shutil

import numpy as np
import pytest

from chainbounds import RowDistribution, cli, load_json, simulate_chaos
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
    params.write_text(json.dumps({"alpha": 2}))
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
    assert code == 2 and "exceeds the enumeration cap" in err
    assert out == "" and draws == []


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


@pytest.mark.parametrize("kind", ["empirical", "squares"])
def test_simulate_non_integer_summand_count_exits_two(tmp_path, capsys, kind):
    cfg = {"model": {"kind": kind, "coefficients": [[1.0, 0.5], [0.5, 1.0]], "m": 2.5},
           "reps": 20, "seed": 3}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(["simulate", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert code == 2 and "error: m must be an integer" in err
    assert not list(tmp_path.glob("simulate-*.json"))
    cfg["model"]["m"] = 2.0  # an integral value is the summand count
    path.write_text(json.dumps(cfg))
    code, _, _ = run(["simulate", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert code == 0


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


def test_runs_without_fit_hash_no_fit_entry(tmp_path, capsys):
    sim = gaussian_sim_config(tmp_path, fit={"C_2": 50.0})
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"alpha": 2}))
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
    ({"kind": "empirical", "coefficients": _COEFFICIENTS, "base": {"mean_known": "false"}},
     "base.mean_known"),
    ({"kind": "empirical", "coefficients": _COEFFICIENTS, "base": {"scale": "1.5"}},
     "base.scale"),
    ({"kind": "squares", "coefficients": _COEFFICIENTS, "base": {"scale": True}}, "base.scale"),
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
    model = {"kind": "empirical", "coefficients": _COEFFICIENTS,
             "base": {"scale": 2, "mean_known": False}}
    path.write_text(json.dumps({"model": model, "reps": 20, "seed": 3}))
    code, _, err = run(["simulate", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert code == 2 and "row mean not attested" in err  # refused by the model, by name
    model = {"kind": "chaos", "matrices": _CHAOS_MATRICES, "decoupled": False, "xi": {"scale": 2}}
    path.write_text(json.dumps({"model": model, "reps": 20, "seed": 3}))
    assert run(["simulate", "--config", str(path), "--out", str(tmp_path)], capsys)[0] == 0


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
