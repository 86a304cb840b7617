"""chainbounds benchmark runner.

    python3 bench/run.py --workload mc-validate --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ./src, never
from an installed copy, and everything the run writes goes under
./.bench_out.  One process drives the workload as a sequential closed loop:
each task starts when the previous one has returned.  A run makes a fixed
number of passes over the workload's fixed task list: --seconds divided by
the workload's PASS_SECONDS, at least two (so cli-sweep can compare the
artifacts of two passes).  The count does not depend on how fast the program
is, so runs of a fast and a slow commit take their medians over the same
number of samples.

With --trace 0 the final line reports the end-to-end metrics, measured with
tracing off.  With --trace 1 passes alternate between untraced and traced;
the final line reports the per-layer figures of the traced passes, the
tracing overhead (traced minus untraced wall_s) and the share of wall_s the
layers' self times cover.  Either way the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import os
import sys

# BLAS and OpenMP thread pools are pinned before numpy loads.  One thread is
# within nproc on any machine and keeps timings and reductions steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("mc-validate", "metric-scale", "cli-sweep")
MIN_PASSES = 2
# Share of --seconds allotted to one pass.  A run makes round(seconds /
# PASS_SECONDS) passes: at 20 s, 3, 5 and 5, which take about 20, 22 and 21 s
# with their checks at the seed commit.  Fixed, so that the pass count does
# not follow the program's speed.
PASS_SECONDS = {"mc-validate": 6.5, "metric-scale": 4.0, "cli-sweep": 4.0}
PROBE_TIMEOUT_S = 120

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def import_program():
    """Import chainbounds from this checkout's src/, or exit non-zero."""
    package = SRC / "chainbounds"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no chainbounds sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chainbounds

    if Path(chainbounds.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported chainbounds from {chainbounds.__file__}, not {package}")
    return chainbounds


def setup(workload: str, seed: int, workdir: Path):
    """Import the program and make the workload's inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    wl = workloads.build(workload, seed, str(workdir))
    return wl, time.perf_counter() - t0


def probe_setup(workload: str, seed: int, index: int) -> float:
    """One set-up in a fresh interpreter, so the import is paid again.

    A run makes one probe before each pass and one after the last, and
    setup_s is their median (see median_latencies).  Spread over the run,
    the probes meet the same moments of machine load as the passes.
    """
    workdir = OUT_DIR / "work" / f"probe-{os.getpid()}-{index}"
    try:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe", str(workdir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def run_pass(wl, index: int, tracer=None) -> dict:
    """One pass over the task list; task time excludes the benchmark's checks."""
    state = {"pass": index}
    latencies, failures = [], []
    if tracer is not None:
        tracer.reset_pass()
    for task in wl.tasks:
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = task.run(state)
            error = None
        except Exception as exc:  # a task that raises counts as failed; the loop goes on
            error = f"{task.name}: raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        if error is None:
            try:
                problems = task.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            error = "; ".join(f"{task.name}: {p}" for p in problems) or None
        if error is not None:
            failures.append(error)
    wall = sum(latencies)
    result = {"traced": tracer is not None, "wall_s": wall, "latencies": latencies,
              "attempted": len(wl.tasks), "failures": failures}
    if tracer is not None:
        layers = tracer.pass_metrics()
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        result["layers"] = {**layers, "trace.coverage": self_total / wall}
    return result


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def median_latencies(passes: list) -> list:
    """Each task's median time across the passes.

    On a shared machine, interference slows tasks in short bursts.  A
    task's median over the passes follows those bursts less than its best
    time does, which hangs on the one luckiest pass: over ten seeds the
    run-to-run spread of wall_s was 0.08-0.09 with medians and 0.13-0.24
    with best times (see README.md).
    """
    return [statistics.median(times) for times in zip(*(p["latencies"] for p in passes))]


def summarize(wl, passes: list, setup_times: list, trace: bool) -> tuple[dict, dict]:
    untraced = [p for p in passes if not p["traced"]]
    latencies = median_latencies(untraced)
    wall = sum(latencies)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    info = {
        "attempted": attempted,
        "failures": [f for p in passes for f in p["failures"]],
        "passes": len(passes),
        "traced_passes": len(passes) - len(untraced),
        "tasks_per_pass": len(latencies),
        "error_rate": failed / attempted,
        "mc_reps_per_s": wl.reps_per_pass / wall if wl.reps_per_pass else None,
        "cmd_p50_ms": 1e3 * percentiles[49],
        "cmd_p90_ms": 1e3 * percentiles[89],
        "setup_samples_s": setup_times,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "task_latencies_s": [p["latencies"] for p in passes],
    }
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - failed) / attempted,
        }
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, info

    import spans as tracing

    traced = [p for p in passes if p["traced"]]
    metrics = {}
    for name in tracing.layer_metric_names() + ["trace.coverage"]:
        metrics[name] = statistics.fmean(p["layers"][name] for p in traced)
    metrics["trace.overhead_s"] = sum(median_latencies(traced)) - wall
    units = {name: ("count" if not name.endswith(("_s", "coverage")) else
                    "ratio" if name.endswith("coverage") else "s") for name in metrics}
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe is not None:
        _, seconds = setup(args.workload, args.seed, Path(args.setup_probe))
        print(f"{seconds!r}")
        return 0

    workdir = OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl, own_setup = setup(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            import chainbounds
            import spans as tracing

            tracer = tracing.Tracer(chainbounds)
        passes, setup_times = [], []
        for index in range(pass_count(args.workload, args.seconds)):
            setup_times.append(probe_setup(args.workload, args.seed, index))
            traced = tracer if args.trace and index % 2 == 1 else None
            passes.append(run_pass(wl, index, traced))
        setup_times.append(probe_setup(args.workload, args.seed, len(passes)))
        metrics, info = summarize(wl, passes, setup_times, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    failures, attempted = info.pop("failures"), info["attempted"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "own_setup_s": own_setup,
                   "metrics": metrics, "info": info, "failures": failures[:100]}, fh, indent=1)
    if tracer is not None:
        tracer.save(str(OUT_DIR / "trace" / tag))

    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{args.workload} seed {args.seed}: {info['passes']} passes "
          f"({info['traced_passes']} traced), {info['tasks_per_pass']} tasks a pass")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"error_rate: {info['error_rate']:.6g} ({len(failures)} of {attempted} tasks failed)")
    if info["mc_reps_per_s"] is not None:
        print(f"mc_reps_per_s: {info['mc_reps_per_s']:.6g} 1/s")
    else:
        print("mc_reps_per_s: none (this workload simulates nothing)")
    for name in ("cmd_p50_ms", "cmd_p90_ms"):
        print(f"{name}: {info[name]:.6g} ms (over {info['tasks_per_pass']} task medians)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
