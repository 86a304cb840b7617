"""The benchmark's three workloads: inputs made from a seed, tasks, output checks.

`build(name, seed, workdir, size)` is the workload's set-up: it makes every
input from the seed with numpy alone (the program sees only these inputs)
and returns the fixed task list one pass runs.  Each task has a `run`, whose
time is the program's work, and a `check`, run outside the timed region,
that returns failure messages.  Checks never hash sampled values: a change
of random-stream contract may change every draw, so stochastic outputs are
checked against exact laws and statistical verdicts instead.

size "full" is what the benchmark measures; "tiny" is the smoke size of the
self-tests.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import stats

import chainbounds as cb
import chainbounds.cli

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# Inputs of the reference task do not depend on the workload seed.
REFERENCE_SEED = 13093522
RTOL = 1e-9
LAW_PVALUE = 1e-4
LAW_QUANTILES = (0.5, 0.9)

SIZES = {
    "full": {
        "reps": 20_000,
        "points": 500,
        "cover_points": 150,
        "exact_cover_points": 18,
        "suite_spaces": 100,
        "matrices": 60,
        "cli_scale": 1,
    },
    "tiny": {
        "reps": 2_000,
        "points": 60,
        "cover_points": 30,
        "exact_cover_points": 10,
        "suite_spaces": 10,
        "matrices": 8,
        "cli_scale": 0,
    },
}


@dataclass
class Task:
    name: str
    run: Callable[[dict], object]  # pass state -> output
    check: Callable[[object], list]  # output -> failure messages


@dataclass
class Workload:
    name: str
    workdir: str
    tasks: list
    reps_per_pass: int = 0  # Monte Carlo replications one pass simulates
    reference: dict = field(default_factory=dict)


def build(name: str, seed: int, workdir: str, size: str = "full") -> Workload:
    """Make the workload's inputs from the seed and return its task list."""
    builders = {
        "mc-validate": _mc_validate,
        "metric-scale": _metric_scale,
        "cli-sweep": _cli_sweep,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(builders)}")
    os.makedirs(workdir, exist_ok=True)
    return builders[name](int(seed), workdir, SIZES[size])


# ---------------------------------------------------------------- helpers


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _close(actual, expected, what: str) -> list:
    a, e = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    if a.shape != e.shape or not np.allclose(a, e, rtol=RTOL, atol=1e-12):
        return [f"{what}: {actual!r} != reference {expected!r}"]
    return []


def _law_agreement(values, law, what: str) -> list:
    """Simulated draws vs an exhaustive law: two-sided binomial tests at quantiles."""
    failures = []
    n = values.size
    for q in LAW_QUANTILES:
        thr = float(np.quantile(law, q))
        thr -= 1e-9 * max(1.0, abs(thr))  # atoms are reached through different roundings
        p_exact = float(np.mean(law >= thr))
        k = int(np.count_nonzero(values >= thr))
        if 0.0 < p_exact < 1.0:
            pvalue = float(stats.binomtest(k, n, p_exact).pvalue)
        else:
            pvalue = 1.0 if k == round(p_exact * n) else 0.0
        if pvalue < LAW_PVALUE:
            failures.append(f"{what}: {k}/{n} draws >= q{q:g}, exact law {p_exact:.4f} "
                            f"(p = {pvalue:.2e})")
    return failures


def _verdict(report, expected: str, confirmed: bool, what: str) -> list:
    if report.verdict != expected or report.paper_confirmed != confirmed:
        return [f"{what}: verdict {report.verdict} (paper_confirmed {report.paper_confirmed}), "
                f"expected {expected} ({confirmed})"]
    return []


def _smallest(values, dominates):
    return next((v for v in values if dominates(v)), None)


def _smallest_ok(value, what: str) -> list:
    if value is None or value > 10:
        return [f"{what}: smallest dominating constant {value} (expected <= 10)"]
    return []


# ---------------------------------------------------------------- recomputations
# Independent of the program: the checks compare its outputs with these.


def _pairwise_l2(pts: np.ndarray) -> np.ndarray:
    return np.stack([np.sqrt(((pts - row) ** 2).sum(axis=1)) for row in pts])


def _norm_dist(points, norm: str) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if norm == "l2":
        return _pairwise_l2(pts)
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    return diff.sum(axis=2) if norm == "l1" else diff.max(axis=2)


def _traversal_radii(dist: np.ndarray) -> np.ndarray:
    """r_k = covering radius of the first k farthest-point centers (k = 1, 2, ...)."""
    dmin = dist[int(np.argmin(dist.max(axis=1)))].copy()
    radii = [dmin.max()]
    while radii[-1] > 0:
        dmin = np.minimum(dmin, dist[int(np.argmax(dmin))])
        radii.append(dmin.max())
    return np.array(radii)


def _greedy_counts(dist: np.ndarray, us) -> list:
    radii = _traversal_radii(dist)
    return [int(np.argmax(radii <= u)) + 1 for u in us]


def _breakpoints(dist: np.ndarray) -> np.ndarray:
    return np.unique(np.concatenate(([0.0], dist[np.triu_indices(len(dist), k=1)])))


def _entropy(radii, counts, alpha: float) -> float:
    total = 0.0
    for k in range(len(radii) - 1):
        if counts[k] <= 1:
            break
        total += (radii[k + 1] - radii[k]) * math.log(counts[k]) ** (1.0 / alpha)
    return total


def _greedy_functional(dist: np.ndarray, alpha: float, p: float) -> float:
    """Farthest-point admissible sequence (caps 2^(2^n)) and its order-p functional."""
    n = len(dist)
    first = int(math.floor(math.log2(p)))
    dmin = dist[int(np.argmin(dist.max(axis=1)))].copy()
    per_point = np.zeros(n)
    size, level = 1, 0
    while True:
        if level >= first:
            per_point += 2.0 ** (level / alpha) * dmin
        if dmin.max() == 0.0:
            return float(per_point.max())
        level += 1
        cap = n if level >= 6 else min(1 << (1 << level), n)
        while size < cap and dmin.max() > 0.0:
            dmin = np.minimum(dmin, dist[int(np.argmax(dmin))])
            size += 1


def _gammas_ok(gammas) -> list:
    """Each gamma_greedy estimate equals the farthest-point functional of its space."""
    failures = []
    for space, est in gammas:
        failures += _close(est.value, _greedy_functional(space.dist, est.alpha, est.p),
                           f"gamma_greedy(alpha={est.alpha:g}, p={est.p:g}) on {space.size} points")
    return failures


def _rip_delta(N: int, m: int, rows, s: int) -> float:
    """delta_s of the rescaled DFT rows, over every size-s support at once."""
    k = np.arange(N)
    A = math.sqrt(N / m) * np.exp(2j * np.pi * np.outer(np.asarray(rows), k) / N) / math.sqrt(N)
    gram = A.conj().T @ A
    supports = np.array(list(itertools.combinations(range(N), s)))
    w = np.linalg.eigvalsh(gram[supports[:, :, None], supports[:, None, :]])
    return float(np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0]).max())


# ---------------------------------------------------------------- mc-validate


def _mc_validate(seed: int, workdir: str, size: dict) -> Workload:
    reps = size["reps"]
    rng = _rng(seed, 1)
    gauss_pts = rng.normal(size=(32, 8)) / math.sqrt(8)
    mart = rng.normal(size=(16, 8)) / math.sqrt(8)
    mart[0] = 0.0  # zero row: the raw supremum equals the anchored one
    emp = rng.normal(size=(6, 8))
    increments = {4: rng.normal(size=(5, 4)), 16: rng.normal(size=(5, 16))}
    squares = rng.normal(size=(6, 8))
    chaos = [rng.normal(size=(3, 4)) for _ in range(3)]
    sim = [int(s) for s in rng.integers(0, 2**32, size=8)]
    u_grid = [1.0, 2.0, 3.0]

    def gaussian(state):
        cov = gauss_pts @ gauss_pts.T
        model = cb.gaussian_model(cov)
        space = cb.canonical_metric(model)
        gam = cb.gamma_greedy(space, 2.0)
        sigma = float(np.sqrt(np.diag(cov)).max())
        bound = cb.gaussian_process_bound(gam, sigma, u=1.0)
        sample = cb.simulate_gaussian(model, reps, seed=sim[0], base_point=None)
        return cb.validate_bound(sample, bound, u_grid=u_grid), [(space, gam)]

    def check_gaussian(out):
        report, gammas = out
        return _verdict(report, "dominated", True, "gaussian bound") + _gammas_ok(gammas)

    def martingale(state):
        model = cb.martingale_model(mart)
        space = cb.canonical_metric(model)
        gam = cb.gamma_greedy(space, 2.0)
        bound = cb.azuma_uniform_bound(gam, space.diameter(), u=1.0)
        sample = cb.simulate_martingale_family(model, reps, seed=sim[1])
        report = cb.validate_bound(sample, bound, u_grid=u_grid)
        return report, sample.values, cb.exact_martingale_distribution(model), [(space, gam)]

    def check_martingale(out):
        report, values, law, gammas = out
        return (_verdict(report, "dominated", True, "azuma bound")
                + _law_agreement(values, law, "martingale draws") + _gammas_ok(gammas))

    def mixed_empirical(state):
        m = emp.shape[1]
        model = cb.empirical_model(emp, cb.RowDistribution("rademacher"))
        mm = cb.mixed_metrics(model)
        sigma, K = cb.empirical_parameters(model)
        g2, g1 = cb.gamma_greedy(mm.d2, 2.0), cb.gamma_greedy(mm.d1, 1.0)
        sample = cb.simulate_empirical(model, m, reps, seed=sim[2])
        d2s = cb.build_metric_space(mm.d2.dist / math.sqrt(m), labels=mm.d2.labels)
        d1s = cb.build_metric_space(mm.d1.dist / m, labels=mm.d1.labels)
        g2s, g1s = cb.gamma_greedy(d2s, 2.0), cb.gamma_greedy(d1s, 1.0)

        def averaged(c):
            reg = cb.DEFAULT_REGISTRY.with_fitted(empirical_C=c, empirical_c=c)
            bound = cb.empirical_process_bound(g2, g1, sigma, K, m, u=1.0, registry=reg)
            return cb.validate_bound(sample, bound, u_grid=u_grid).verdict == "dominated"

        def mixed(c):
            reg = cb.DEFAULT_REGISTRY.with_fitted(mixed_C=c, mixed_c=c)
            bound = cb.mixed_tail_supremum_bound(
                g2s, g1s, diam2=d2s.diameter(), diam1=d1s.diameter(), u=1.0, registry=reg)
            return cb.validate_bound(sample, bound, u_grid=u_grid).verdict == "dominated"

        grid = [1.0 + 0.5 * i for i in range(19)]
        smallest = {"averaged": _smallest(grid, averaged), "mixed": _smallest(grid, mixed)}
        gammas = [(mm.d2, g2), (mm.d1, g1), (d2s, g2s), (d1s, g1s)]
        return smallest, sample.values, cb.exact_empirical_distribution(model), gammas

    def check_mixed(out):
        smallest, values, law, gammas = out
        return (_smallest_ok(smallest["averaged"], "averaged route")
                + _smallest_ok(smallest["mixed"], "mixed route")
                + _law_agreement(values, law, "empirical draws") + _gammas_ok(gammas))

    scale = cb.psi_norm_analytic("gaussian", 1.0, 2.0).value
    base = cb.RowDistribution("gaussian")

    def increment(k: int, m: int, coeffs) -> Task:
        def run(state):
            model = cb.squares_model(coeffs, base)
            D = scale * np.abs(coeffs[:, None, :] - coeffs[None, :, :]).max(axis=2)
            s, t = (int(i) for i in np.unravel_index(np.argmax(D), D.shape))
            bound = cb.squares_l2_increment_tail(float(D[s, t]), m, u=1.0)
            sample = cb.simulate_squares_increment(model, s, t, m, reps, seed=sim[3 + k])
            return cb.validate_bound(sample, bound, u_grid=[1.0, 1.5, 2.0])

        def check(report):
            failures = ["bound violated"] if report.verdict == "violated" else []
            return failures + [f"empirical {r['empirical']} > envelope {r['envelope']} at u={r['u']}"
                               for r in report.rows if r["empirical"] > r["envelope"]]

        return Task(f"squares-increment-{m}", run, check)

    def squares_supremum(state):
        model = cb.squares_model(squares, base)
        state["squares"] = cb.simulate_squares(model, squares.shape[1], reps, seed=sim[5])
        return state["squares"]

    def squares_moments(state):
        model = cb.squares_model(squares, base)
        space = cb.canonical_metric(model)
        psi2 = scale * np.abs(squares)
        sigma, K = cb.squares_default_parameters(psi2)
        radius = float(psi2.max())
        m = squares.shape[1]
        orders = (1.0, 2.0, 4.0)
        ests = cb.estimate_moments(state["squares"], list(orders))
        gammas = [cb.gamma_greedy(space, 2.0, p=p) for p in orders]

        def dominates(c):
            reg = cb.DEFAULT_REGISTRY.with_fitted(squares_C=c, squares_c=c)
            return all(
                est.ci_high <= cb.squares_supremum_bound(
                    g, radius, m, sigma, K, p=p, registry=reg).value
                for p, est, g in zip(orders, ests, gammas)
            )

        return _smallest([0.5 * i for i in range(1, 21)], dominates), [(space, g) for g in gammas]

    def check_squares_moments(out):
        smallest, gammas = out
        return _smallest_ok(smallest, "squares moment route") + _gammas_ok(gammas)

    xi = cb.RowDistribution("rademacher")

    def chaos_draws(decoupled: bool) -> Task:
        def run(state):
            sample = cb.simulate_chaos(chaos, xi, reps, seed=sim[6 + decoupled],
                                       decoupled=decoupled)
            return sample.values, cb.exact_chaos_distribution(chaos, decoupled=decoupled)

        what = "decoupled" if decoupled else "plain"
        return Task(f"chaos-{what}", run, lambda out: _law_agreement(*out, f"{what} chaos draws"))

    def chaos_moments(state):
        law = cb.exact_chaos_distribution(chaos)
        xi_psi2 = cb.psi_norm_analytic("symmetric-sign", 1.0, 2.0)
        orders = (1.0, 2.0, 4.0)
        radii = [cb.schatten_radii(chaos, p=p) for p in orders]

        def dominates(c):
            reg = cb.DEFAULT_REGISTRY.with_fitted(chaos_C=c, chaos_c=c)
            return all(
                float(np.mean(law**p) ** (1.0 / p)) <= cb.chaos_supremum_bound(
                    r, xi_psi2, p=p, registry=reg).value
                for p, r in zip(orders, radii)
            )

        return _smallest([0.5 * i for i in range(1, 21)], dominates)

    # One task per simulation (plus the two moment sweeps), so that each
    # task is short and its median time follows few bursts of machine load.
    tasks = [
        Task("gaussian", gaussian, check_gaussian),
        Task("martingale", martingale, check_martingale),
        Task("mixed-empirical", mixed_empirical, check_mixed),
        *(increment(k, m, coeffs) for k, (m, coeffs) in enumerate(increments.items())),
        Task("squares-supremum", squares_supremum, lambda sample: []),
        Task("squares-moments", squares_moments, check_squares_moments),
        chaos_draws(False),
        chaos_draws(True),
        Task("chaos-moments", chaos_moments, lambda c: _smallest_ok(c, "chaos moment route")),
    ]
    return Workload("mc-validate", workdir, tasks, reps_per_pass=8 * reps)


# ---------------------------------------------------------------- metric-scale


def _sqrt_l1(pts: np.ndarray) -> np.ndarray:
    """sqrt of l1 distances: a metric that no norm on the points induces."""
    d = np.zeros((len(pts), len(pts)))
    for col in pts.T:
        d += np.abs(col[:, None] - col[None, :])
    return np.sqrt(d)


def _suite_spaces(rng, count: int) -> list:
    """Small point clouds: sizes 4, 5, 5, 6, 6 and norms in a fixed rotation.

    At these sizes the exact searches do real work on every space.
    """
    clouds = []
    for i in range(count):
        n = (4, 5, 5, 6, 6)[i % 5]
        pts = rng.normal(size=(n, 3))
        if i % 4 == 0:
            pts[1] = pts[0]  # a genuine semi-metric zero
        clouds.append((pts, ("l1", "l2", "linf")[i % 3]))
    return clouds


def reference_inputs() -> dict:
    rng = _rng(REFERENCE_SEED, 0)
    return {
        "cloud": rng.normal(size=(300, 5)),
        "cover": rng.normal(size=(16, 3)),
        "greedy_cover": rng.normal(size=(80, 3)),
        "suite": _suite_spaces(rng, 10),
        "matrices": [rng.normal(size=(4, 4)) for _ in range(5)],
    }


def _bound_numbers(result, u: float) -> list:
    if isinstance(result, float):
        return [result]
    if isinstance(result, cb.TailBound):
        return [result.threshold(u), result.probability(u)]
    return [result.value]


def reference_values(inputs: dict) -> dict:
    """Deterministic outputs on the seed-independent reference inputs."""
    cloud = cb.space_from_points(inputs["cloud"])
    cover = cb.space_from_points(inputs["cover"], norm="l1")
    greedy = cb.space_from_points(inputs["greedy_cover"], norm="l1")
    suite = [cb.space_from_points(pts, norm=norm) for pts, norm in inputs["suite"]]
    radii = cb.schatten_radii(inputs["matrices"])
    g2 = cb.gamma_greedy(cloud, 2.0)
    bounds = [
        cb.union_bound_constant(),
        cb.union_bound_probability(2.0, 2.0, 1.0),
        cb.moments_to_tails(1.3, 0.5, 2.0),
        cb.tails_to_moments(1.3, 1.0, 1.0, 4.0),
        cb.lp_from_tail(1.3, 2.0, 1.5, 2.0, 8.0),
        cb.bernstein_tail(cb.BernsteinParams(m=50, sigma=1.3, K=1.0)),
        cb.psi_alpha_supremum_bound(g2, diam=cloud.diameter(), u=2.0),
        cb.gaussian_process_bound(g2, 1.0, u=2.0),
        cb.azuma_uniform_bound(g2, cloud.diameter(), u=1.5),
        cb.small_set_moment_bound([1.0, 1.3, 2.0], 2.0, set_size=3),
        cb.chaos_supremum_bound(radii, cb.psi_norm_analytic("symmetric-sign", 1.0, 2.0), u=2.0,
                                registry=cb.DEFAULT_REGISTRY.with_fitted(chaos_C=10.0, chaos_c=10.0)),
    ]
    return {
        "cloud_diameter": cloud.diameter(),
        "cloud_gamma_2_1": g2.value,
        "cloud_gamma_1_4": cb.gamma_greedy(cloud, 1.0, p=4.0).value,
        "exact_cover_counts": list(cb.covering_profile(cover, mode="exact").counts),
        "exact_entropy_2": cb.entropy_integral(cover, 2.0, mode="exact").value,
        "greedy_cover_counts": list(cb.covering_profile(greedy, mode="greedy").counts),
        "greedy_entropy_1": cb.entropy_integral(greedy, 1.0, mode="greedy").value,
        "suite_gamma_exact": [[cb.gamma_exact(s, 2.0, p=p).value for p in (1.0, 2.0, 4.0)]
                              for s in suite],
        "suite_gamma_prime": [cb.gamma_prime(s, 2.0).value for s in suite],
        "schatten": [radii.delta_2, radii.delta_4, radii.delta_inf, radii.gamma2_dinf.value],
        "bounds": [x for b in bounds for x in _bound_numbers(b, 2.0)],
        "orlicz": [cb.psi_norm_analytic(family, 1.3, alpha).value
                   for family, alpha in (("gaussian", 2.0), ("bounded", 1.0), ("symmetric-sign", 2.0))],
        "rip_complexity": [cb.sample_complexity(s, 1.0, 0.5, 0.01, 1.2, 0.8, N)
                           for s, N in ((2, 64), (3, 128), (4, 256))],
    }


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def compare_reference(values: dict, reference: dict) -> list:
    """Floats agree to RTOL; integers (counts) must be equal."""
    failures = []
    for key, expected in reference.items():
        if key not in values:
            failures.append(f"reference {key}: missing")
        elif all(isinstance(v, int) for v in np.ravel(expected).tolist()):
            if np.ravel(values[key]).tolist() != np.ravel(expected).tolist():
                failures.append(f"reference {key}: {values[key]} != {expected}")
        else:
            failures += _close(values[key], expected, f"reference {key}")
    failures += [f"reference {key}: not recorded" for key in values if key not in reference]
    return failures


def _metric_scale(seed: int, workdir: str, size: dict) -> Workload:
    rng = _rng(seed, 2)
    n = size["points"]
    cloud = rng.normal(size=(n, 8))
    user_dist = _sqrt_l1(rng.normal(size=(n, 8)))
    bad_dist = _sqrt_l1(rng.normal(size=(40, 3)))
    bad_dist[0, 1] = bad_dist[1, 0] = 3.0 * bad_dist.max()  # planted triangle violation
    cover_pts = rng.normal(size=(size["cover_points"], 4))
    exact_pts = [rng.normal(size=(size["exact_cover_points"], 3)) for _ in range(2)]
    suite = _suite_spaces(rng, size["suite_spaces"])
    matrices = [rng.normal(size=(8, 8)) for _ in range(size["matrices"])]
    ref_inputs = reference_inputs()
    workload = Workload("metric-scale", workdir, [], reference=load_reference())

    def points(state):
        state["cloud"] = cb.space_from_points(cloud)
        return state["cloud"]

    def check_points(space):
        return _close(space.dist, _pairwise_l2(cloud), "l2 distances")

    def user(state):
        return cb.build_metric_space(user_dist)

    def check_user(space):
        return [] if np.array_equal(space.dist, user_dist) else ["user dist altered"]

    def rejects(state):
        try:
            cb.build_metric_space(bad_dist)
        except cb.MetricValidationError as exc:
            return exc
        return None

    def check_rejects(exc):
        return [] if exc is not None else ["planted triangle violation accepted"]

    def greedy(state):
        space = state["cloud"]
        return space, [cb.gamma_greedy(space, 2.0, p=1.0), cb.gamma_greedy(space, 1.0, p=4.0)]

    def check_greedy(out):
        space, (g21, g14) = out
        failures = _close(g21.value, _greedy_functional(space.dist, 2.0, 1.0), "gamma_greedy(2, 1)")
        failures += _close(g14.value, _greedy_functional(space.dist, 1.0, 4.0), "gamma_greedy(1, 4)")
        if g21.value < space.diameter() / 2 - 1e-12:
            failures.append("gamma_greedy(2, 1) below diameter / 2")
        return failures

    def cover(state):
        state["cover"] = cb.space_from_points(cover_pts, norm="l1")
        return cb.covering_profile(state["cover"], mode="greedy")

    def cover_dist():
        return np.abs(cover_pts[:, None, :] - cover_pts[None, :, :]).sum(axis=2)

    def check_cover(profile):
        dist = cover_dist()
        radii = _breakpoints(dist)[: len(profile.radii)]
        failures = _close(profile.radii, radii, "greedy profile radii")
        if list(profile.counts) != _greedy_counts(dist, radii) or profile.counts[-1] != 1:
            failures.append("greedy profile counts differ from one farthest-point traversal")
        return failures

    def entropy(state):
        return cb.entropy_integral(state["cover"], 2.0, mode="greedy")

    def check_entropy(ent):
        dist = cover_dist()
        radii = _breakpoints(dist)
        return _close(ent.value, _entropy(radii, _greedy_counts(dist, radii), 2.0),
                      "greedy entropy integral")

    def exact_cover(state):
        out = []
        for pts in exact_pts:
            space = cb.space_from_points(pts)
            out.append((pts, cb.covering_profile(space, mode="exact"),
                        cb.covering_profile(space, mode="greedy")))
        return out

    def check_exact_cover(out):
        failures = []
        for pts, exact, greedy in out:
            common = min(len(exact.counts), len(greedy.counts))
            if any(e > g for e, g in zip(exact.counts[:common], greedy.counts[:common])):
                failures.append("exact cover count above the greedy one")
            if exact.counts[0] != len(np.unique(pts, axis=0)) or exact.counts[-1] != 1:
                failures.append(f"exact profile ends {exact.counts[0]}..{exact.counts[-1]}")
        return failures

    def gamma_suite(state):
        out = []
        for pts, norm in suite:
            space = cb.space_from_points(pts, norm=norm)
            out.append((
                space.diameter(),
                [cb.gamma_exact(space, 2.0, p=p).value for p in (1.0, 2.0, 4.0)],
                cb.gamma_prime(space, 2.0).value,
                cb.gamma_greedy(space, 2.0).value,
            ))
        return out

    def check_suite(out):
        failures = []
        for i, (diam, exact, prime, greedy) in enumerate(out):
            if greedy < exact[0] - 1e-12:
                failures.append(f"space {i}: greedy {greedy} below exact {exact[0]}")
            if exact[0] < diam / 2 - 1e-12:
                failures.append(f"space {i}: exact {exact[0]} below diameter / 2")
            if any(a < b - 1e-12 for a, b in zip(exact, exact[1:])):
                failures.append(f"space {i}: exact functional not monotone in p")
            if exact[0] > prime + 1e-12:
                failures.append(f"space {i}: exact {exact[0]} above gamma-prime {prime}")
        return failures

    def schatten(state):
        return cb.schatten_radii(matrices)

    def check_schatten(radii):
        s = np.linalg.svd(np.stack(matrices), compute_uv=False)
        failures = _close(
            [radii.delta_2, radii.delta_4, radii.delta_inf],
            [np.sqrt((s**2).sum(axis=1)).max(), ((s**4).sum(axis=1) ** 0.25).max(), s.max()],
            "schatten radii")
        if radii.gamma2_dinf.value < radii.space.diameter() / 2 - 1e-12:
            failures.append("schatten gamma_2 below diameter / 2")
        return failures

    workload.tasks = [
        Task("points-l2", points, check_points),
        Task("user-dist", user, check_user),
        Task("user-dist-rejects", rejects, check_rejects),
        Task("gamma-greedy", greedy, check_greedy),
        Task("cover-greedy", cover, check_cover),
        Task("entropy-greedy", entropy, check_entropy),
        Task("cover-exact", exact_cover, check_exact_cover),
        Task("gamma-suite", gamma_suite, check_suite),
        Task("schatten", schatten, check_schatten),
        Task("reference", lambda state: reference_values(ref_inputs),
             lambda values: compare_reference(values, workload.reference)),
    ]
    return workload


# ---------------------------------------------------------------- cli-sweep


class _ConfigWriter:
    """Writes JSON inputs under one directory and returns their paths."""

    def __init__(self, root: str):
        self.root = root
        self.count = 0
        os.makedirs(root, exist_ok=True)

    def __call__(self, data) -> str:
        self.count += 1
        path = os.path.join(self.root, f"in{self.count:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def text(self, values) -> str:
        self.count += 1
        path = os.path.join(self.root, f"in{self.count:03d}.txt")
        np.savetxt(path, values)
        return path


def _cloud(rng, n: int, norm: str) -> dict:
    return {"points": rng.normal(size=(n, 3)).tolist(), "norm": norm}


def _cli_commands(rng, write: _ConfigWriter, scale: int) -> list:
    """(argv, expected exit code) pairs for one pass; 124 at scale 1."""
    seed = lambda: str(int(rng.integers(0, 2**31)))
    cmds = []
    reps_cycle = (200, 1000, 2000) if scale else (50, 100, 200)
    rounds = 10 if scale else 2

    for i in range(rounds):  # gamma: exact and gamma-prime on 5-6 points
        space = write(_cloud(rng, 5 + i % 2, ("l1", "l2", "linf")[i % 3]))
        cmds.append((["gamma", "--space", space, "--alpha", "2", "--p", "124"[i % 3],
                      "--mode", "exact"], 0))
        cmds.append((["gamma", "--space", space, "--alpha", "2", "--functional", "gamma-prime"], 0))
    for i in range(rounds):  # gamma: greedy (auto) and greedy gamma-prime on 7-16 points
        space = write(_cloud(rng, 7 + i % 10, ("l2", "l1")[i % 2]))
        cmds.append((["gamma", "--space", space, "--alpha", "21"[i % 2]], 0))
        if i % 2 == 0:
            cmds.append((["gamma", "--space", space, "--alpha", "2", "--functional",
                          "gamma-prime", "--mode", "greedy"], 0))
    sizes = (12, 16, 20, 24, 32, 40, 48, 60) if scale else (8, 14)
    for i in range(2 * len(sizes)):  # cover: profile + entropy, exact up to 20 points
        space = write(_cloud(rng, sizes[i % len(sizes)], ("l2", "l1")[i % 2]))
        cmds.append((["cover", "--space", space, "--profile", "--entropy-alpha", "12"[i % 2]], 0))

    for i in range(2 * len(reps_cycle) if scale else len(reps_cycle)):  # simulate
        reps = reps_cycle[i % len(reps_cycle)]
        pts = rng.normal(size=(12, 4)) / 2.0
        cov = pts @ pts.T
        diam = float(np.sqrt(np.clip(np.add.outer(np.diag(cov), np.diag(cov)) - 2 * cov, 0, None)).max())
        gauss = write({
            "model": {"kind": "gaussian", "covariance": cov.tolist(), "base_point": None},
            "reps": reps, "seed": int(rng.integers(0, 2**31)),
            "bound": {"name": "gaussian", "params": {
                "gamma2": {"alpha": 2, "value": diam / 2}, "sigma": float(np.sqrt(cov.diagonal().max())),
                "u": 1.0}},
            "u_grid": [1.0, 2.0, 3.0],
        })
        mart = write({
            "model": {"kind": "martingale-family", "coefficients": rng.normal(size=(8, 6)).tolist()},
            "reps": reps, "seed": int(rng.integers(0, 2**31)), "p_list": [1.0, 2.0, 4.0],
        })
        emp = write({
            "model": {"kind": "empirical", "coefficients": rng.normal(size=(6, 8)).tolist(),
                      "base": {"name": "uniform"}},
            "reps": reps, "seed": int(rng.integers(0, 2**31)), "p_list": [1.0, 2.0],
        })
        cmds += [(["simulate", "--config", gauss], 0), (["simulate", "--config", mart], 0),
                 (["simulate", "--config", emp], 0)]
    violated = write({  # tiny fitted chaining constants: the bound must be violated
        "model": {"kind": "gaussian", "covariance": [[1.0, 0.5], [0.5, 1.0]], "base_point": 0},
        "reps": 300, "seed": int(rng.integers(0, 2**31)),
        "bound": {"name": "gaussian", "params": {"gamma2": {"alpha": 2, "value": 1.0},
                                                 "sigma": 1.0, "u": 1.0}},
        "u_grid": [1.0], "fit": {"C_2": 1e-6, "D_2": 1e-6},
    })
    cmds.append((["simulate", "--config", violated], 1))

    fit = write({"chaos_C": 10.0, "chaos_c": 10.0})
    for i in range(8 if scale else 2):  # chaos, plain and decoupled
        mats = write([rng.normal(size=(3, 4)).tolist() for _ in range(2 + i % 3)])
        argv = ["chaos", "--matrices", mats, "--reps", "500" if scale else "100", "--seed", seed(),
                "--fit", fit, "--u-grid", "1,2,3"]
        cmds.append((argv + (["--decoupled"] if i % 2 else []), 0))

    for _ in range(4 if scale else 1):
        cmds.append((["rip", "exact", "--N", "32", "--m", "16", "--s", "3", "--seed", seed()], 0))
    for _ in range(2 if scale else 1):
        cmds.append((["rip", "curve", "--N", "16", "--s", "2", "--delta", "0.5", "--m-list",
                      "4,8,12,16", "--reps", "200" if scale else "20", "--seed", seed()], 0))
    for i in range(4 if scale else 1):
        cmds.append((["rip", "complexity", "--N", str(64 << i), "--s", str(2 + i), "--delta", "0.5",
                      "--eta", "0.01", "--d1", f"{rng.uniform(0.5, 2):.6f}",
                      "--d2", f"{rng.uniform(0.5, 2):.6f}"], 0))

    # Three rounds of quick bound evaluations: with them, more than half of
    # the commands are dominated by per-call set-up and artifact writing,
    # which is what the median command latency is meant to follow.
    for _ in range(3 if scale else 1):
        g = float(rng.uniform(0.5, 2.0))
        bounds = [
            ("union-constant", None),
            ("union-probability", {"alpha": 2.0, "u": 2.0, "p": 1.0}),
            ("moments-to-tails", {"a": g, "b": 0.5, "alpha": 2.0, "u": 2.0}),
            ("tails-to-moments", {"a": g, "b": 1.0, "alpha": 1.0, "p": 4.0}),
            ("lp-from-tail", {"gamma": g, "c": 2.0, "u_star": 1.5, "alpha": 2.0, "p": 8.0}),
            ("bernstein", {"m": 50, "sigma": g, "K": 1.0, "u": 2.0}),
            ("psi-alpha", {"gamma": {"alpha": 2, "value": g}, "diam": 2.0 * g, "u": 2.0}),
            ("gaussian", {"gamma2": {"alpha": 2, "value": g, "p": 2.0}, "sigma": 1.0, "p": 2.0}),
            ("azuma", {"gamma2": {"alpha": 2, "value": g}, "diam": 2.0 * g, "u": 1.5}),
            ("small-set", {"individual_bounds": [1.0, g, 2.0], "p": 2.0, "set_size": 3}),
        ]
        for name, params in (bounds if scale else bounds[:3]):
            cmds.append((["bound", name] + ([] if params is None else ["--params", write(params)]),
                         0))

    samples = write.text(rng.normal(size=2000 if scale else 100))
    for family, alpha in (("gaussian", "2"), ("bounded", "1"), ("symmetric-sign", "2"),
                          ("constant", "1"))[: 4 if scale else 1]:
        cmds.append((["orlicz", "--alpha", alpha, "--family", family,
                      "--parameter", f"{rng.uniform(0.5, 2):.6f}"], 0))
    for alpha in ("1", "2")[: 2 if scale else 1]:
        cmds.append((["orlicz", "--alpha", alpha, "--samples", samples], 0))
    return cmds


def _below(a: float, b: float) -> bool:
    """a < b beyond rounding."""
    return a < b - 1e-9 * max(1.0, abs(b))


def _report_problems(argv: list, report: dict) -> list:
    """Recompute, independently, what a gamma, cover or rip exact command reports."""
    if argv[0] == "rip":
        cfg = report["config"]
        if cfg["action"] != "exact":
            return []
        delta = _rip_delta(cfg["N"], cfg["m"], report["selected"], cfg["s"])
        return _close(report["delta_s"], delta, "rip exact delta_s")
    if argv[0] not in ("gamma", "cover"):
        return []
    with open(argv[argv.index("--space") + 1], encoding="utf-8") as fh:
        cloud = json.load(fh)
    dist = _norm_dist(cloud["points"], cloud["norm"])
    diam = float(dist.max())
    if argv[0] == "gamma":
        value, alpha, p = report["value"], report["alpha"], report["p"]
        if report["config"]["functional"] == "gamma-prime":
            return [f"gamma-prime {value} below diameter {diam}"] if _below(value, diam) else []
        greedy = _greedy_functional(dist, alpha, p)
        if report["mode"] == "greedy":
            return _close(value, greedy, f"gamma_greedy(alpha={alpha:g}, p={p:g})")
        failures = [f"exact gamma {value} above greedy {greedy}"] if _below(greedy, value) else []
        if p == 1.0 and _below(value, diam / 2):
            failures.append(f"exact gamma {value} below diameter / 2")
        return failures
    profile = report["profile"]
    radii, counts = profile["radii"], profile["counts"]
    breakpoints = _breakpoints(dist)[: len(radii)]
    greedy = _greedy_counts(dist, breakpoints)
    failures = _close(radii, breakpoints, f"{profile['mode']} profile radii")
    if profile["mode"] == "greedy" and counts != greedy:
        failures.append("greedy profile counts differ from one farthest-point traversal")
    if any(e > g for e, g in zip(counts, greedy)):
        failures.append("cover count above the greedy one")
    if counts[0] != len(np.unique(cloud["points"], axis=0)) or counts[-1] != 1:
        failures.append(f"profile ends {counts[0]}..{counts[-1]}")
    ent = report["entropy_integral"]
    return failures + _close(ent["value"], _entropy(radii, counts, ent["alpha"]), "entropy integral")


def _read_tree(root: str) -> dict:
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def _cli_sweep(seed: int, workdir: str, size: dict) -> Workload:
    rng = _rng(seed, 3)
    cmds = _cli_commands(rng, _ConfigWriter(os.path.join(workdir, "inputs")), size["cli_scale"])
    first_pass: dict = {}
    sink = io.StringIO()

    def make(index: int, argv: list, expected: int) -> Task:
        def run(state):
            out = os.path.join(workdir, "out", f"pass{state['pass']}", f"{index:03d}")
            sink.seek(0)
            sink.truncate()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = chainbounds.cli.main(argv + ["--out", out])
            return code, out

        def check(result):
            code, out = result
            failures = [] if code == expected else [
                f"{' '.join(argv[:2])}: exit {code}, expected {expected}"]
            artifacts = _read_tree(out)
            reports = [json.loads(data) for name, data in artifacts.items() if name.endswith(".json")]
            if len(reports) != 1:
                failures.append(f"{' '.join(argv[:2])}: {len(reports)} JSON reports written")
            else:
                failures += [f"{' '.join(argv[:2])}: {p}" for p in _report_problems(argv, reports[0])]
            if first_pass.setdefault(index, artifacts) != artifacts:
                failures.append(f"{' '.join(argv[:2])}: artifacts differ from the first pass")
            return failures

        return Task(f"{argv[0]}-{index:03d}", run, check)

    tasks = [make(i, argv, code) for i, (argv, code) in enumerate(cmds)]
    reps = 0
    for argv, _ in cmds:
        if argv[0] == "simulate":
            with open(argv[2], encoding="utf-8") as fh:
                reps += json.load(fh)["reps"]
        elif argv[0] == "chaos":
            reps += int(argv[argv.index("--reps") + 1])
    return Workload("cli-sweep", workdir, tasks, reps_per_pass=reps)
