"""Self-tests of the benchmark: tiny smoke runs and planted faults.

    python3 -m pytest bench -q

Run from the root of a checkout.  Every workload is built at its "tiny"
size; the planted-fault tests prove that the output checks of every
workload can fail.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

cb = run.import_program()
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def tiny(name, tmp_path):
    return workloads.build(name, SEED, str(tmp_path), size="tiny")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_smoke_run_is_clean_and_reports_every_metric(name, tmp_path):
    wl = tiny(name, tmp_path)
    passes = [run.run_pass(wl, k) for k in range(run.MIN_PASSES)]
    assert [f for p in passes for f in p["failures"]] == []
    metrics, info = run.summarize(wl, passes, [0.5, 0.6, 0.4], trace=False)
    assert set(metrics) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 and m["unit"] == run.E2E_UNITS[k] for k, m in metrics.items())
    assert metrics["ok_ratio"]["value"] == 1.0 and info["error_rate"] == 0.0


def test_traced_pass_reports_every_layer_metric_and_unwraps(tmp_path):
    original = cb.cli.main
    wl = tiny("cli-sweep", tmp_path)
    tracer = spans.Tracer(cb)
    passes = [run.run_pass(wl, 0), run.run_pass(wl, 1, tracer)]
    assert cb.cli.main is original and cb.gamma_greedy is cb.chaining.gamma_greedy
    metrics, _ = run.summarize(wl, passes, [0.5], trace=True)
    names = [entry["name"] for entry in json.loads(
        (Path(run.ROOT) / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(metrics) == sorted(names)
    assert metrics["cli.self_s"]["value"] > 0
    assert metrics["procsim.rng_streams"]["value"] >= metrics["procsim.reps"]["value"] > 0
    assert metrics["serialize.bytes_written"]["value"] > 0
    # every command runs inside cli.main, so the layers cover the whole pass
    assert metrics["trace.coverage"]["value"] > 0.95
    assert len(tracer.spans) > 0


def test_wrong_reference_value_raises_error_rate(tmp_path):
    wl = tiny("metric-scale", tmp_path)
    wl.reference["cloud_diameter"] *= 1.0 + 1e-6
    wl.reference["exact_cover_counts"][0] += 1
    wl.reference["bounds"][3] *= 1.0 + 1e-6
    result = run.run_pass(wl, 0)
    assert len(result["failures"]) == 1
    for key in ("cloud_diameter", "exact_cover_counts", "bounds"):
        assert f"reference {key}" in result["failures"][0]
    metrics, info = run.summarize(wl, [result], [0.5], trace=False)
    assert info["error_rate"] > 0 and metrics["ok_ratio"]["value"] < 1


def _overstated(fn, factor=1.01):
    """fn with its GammaEstimate's value scaled by factor."""
    def wrong(*args, **kwargs):
        est = fn(*args, **kwargs)
        return dataclasses.replace(est, value=est.value * factor)
    return wrong


def test_overstated_gamma_greedy_raises_error_rate_on_mc_validate(tmp_path, monkeypatch):
    wl = tiny("mc-validate", tmp_path)
    monkeypatch.setattr(cb, "gamma_greedy", _overstated(cb.gamma_greedy))
    failures = run.run_pass(wl, 0)["failures"]
    failed = {f.split(":")[0] for f in failures}
    assert failed == {"gaussian", "martingale", "mixed-empirical", "squares-moments"}
    assert all("gamma_greedy" in f for f in failures)


@pytest.mark.parametrize("function, factor", [
    ("gamma_greedy", 1.01),  # differs from the recomputed functional
    ("gamma_exact", 100.0),  # above the greedy functional
    ("gamma_prime", 0.4),  # below the diameter
])
def test_wrong_gamma_raises_error_rate_on_cli_sweep(tmp_path, monkeypatch, function, factor):
    wl = tiny("cli-sweep", tmp_path)
    monkeypatch.setattr(cb.cli, function, _overstated(getattr(cb.cli, function), factor))
    failures = run.run_pass(wl, 0)["failures"]
    assert failures and all(f.startswith("gamma-") for f in failures)


def test_wrong_cover_count_raises_error_rate_on_cli_sweep(tmp_path, monkeypatch):
    wl = tiny("cli-sweep", tmp_path)
    profile = cb.cli.covering_profile

    def wrong(*args, **kwargs):
        prof = profile(*args, **kwargs)
        return dataclasses.replace(prof, counts=(prof.counts[0], *(c + 1 for c in prof.counts[1:])))

    monkeypatch.setattr(cb.cli, "covering_profile", wrong)
    failures = run.run_pass(wl, 0)["failures"]
    assert failures and all(f.startswith("cover-") for f in failures)


def test_wrong_rip_constant_raises_error_rate_on_cli_sweep(tmp_path, monkeypatch):
    wl = tiny("cli-sweep", tmp_path)
    delta = cb.rip.RipInstance.delta

    def wrong(self, s, *args):
        report = delta(self, s, *args)
        return dataclasses.replace(report, delta_s=report.delta_s * 1.01,
                                   witness_value=report.delta_s * 1.01)

    monkeypatch.setattr(cb.rip.RipInstance, "delta", wrong)
    failures = run.run_pass(wl, 0)["failures"]
    assert len(failures) == 1 and "rip exact delta_s" in failures[0]


def test_pass_count_does_not_follow_the_program():
    assert run.pass_count("mc-validate", 20) == 3
    assert run.pass_count("cli-sweep", 1) == run.MIN_PASSES


def _input_with(wl, key):
    for path in sorted(Path(wl.workdir, "inputs").glob("*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and key in data:
            return path, data
    raise AssertionError(f"no input with {key!r}")


def test_unexpected_exit_code_raises_error_rate(tmp_path):
    wl = tiny("cli-sweep", tmp_path)
    path, data = _input_with(wl, "fit")  # the config that must exit 1
    del data["fit"]
    path.write_text(json.dumps(data))
    failures = run.run_pass(wl, 0)["failures"]
    assert len(failures) == 1 and "exit 0, expected 1" in failures[0]


def test_artifacts_that_change_between_passes_raise_error_rate(tmp_path):
    wl = tiny("cli-sweep", tmp_path)
    assert run.run_pass(wl, 0)["failures"] == []
    path, data = _input_with(wl, "points")
    data["points"][0][0] += 1.0
    path.write_text(json.dumps(data))
    failures = run.run_pass(wl, 1)["failures"]
    assert failures and all("differ from the first pass" in f for f in failures)


def test_law_check_rejects_draws_from_another_law():
    law = cb.exact_martingale_distribution(cb.martingale_model([[1.0, 0.5, 0.25]]))
    rng = workloads._rng(SEED, 0)
    assert workloads._law_agreement(rng.choice(law, 5000), law, "same") == []
    assert workloads._law_agreement(rng.choice(law, 5000) + 0.3, law, "shifted") != []


def test_run_exits_nonzero_without_program_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.import_program()
    assert exc.value.code != 0
