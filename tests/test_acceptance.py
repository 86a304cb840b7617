"""End-to-end acceptance checks, one per shipped guarantee.

Every test prints a single "ACCEPTANCE <n>: PASS/FAIL" line (the -rA report
surfaces them in the run log) before asserting.  Stochastic checks build
their result payload through a named builder; the determinism check at the
end re-runs every builder from scratch and demands byte-identical JSON.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import integrate, special, stats

import chainbounds as cb
from decoupling import check_symmetrization_decoupling

P_GRID = [1, 2, 4, 8, 16, 32]
U_GRID = [1, 2, 3, 4, 5]
REPS = 100_000

# Smallest exceedance frequency a 99% Clopper-Pearson interval can certify
# with REPS zero-exceedance replications; envelopes below it are out of
# Monte Carlo reach and only the point estimate can be checked.
CP_FLOOR = cb.exceedance_upper_bound(0, REPS)


def _report(num, passed, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} — {detail}")
    return passed


# ---------------------------------------------------------------------------
# deterministic checks
# ---------------------------------------------------------------------------


def test_acceptance_01_conversion_lemmas_dominate_exact_tails():
    """Moment->tail, tail->moment and truncated-Lp conversions beat oracles.

    Reference variables have closed-form tails (folded gaussian, exponential,
    stretched-exponential with alpha = 3) so every premise constant is exact
    and every conclusion can be compared against quadrature or gamma-function
    values at each (p, u) on the grid.
    """
    t0 = time.monotonic()
    slack_m2t = []
    # folded gaussian: (E|g|^p)^(1/p) <= sqrt(p), so a=1, b=0, alpha=2
    for p in P_GRID:
        mom = math.sqrt(2) * math.exp((special.gammaln((p + 1) / 2) - special.gammaln(0.5)) / p)
        assert mom <= math.sqrt(p) + 1e-12
    for u in U_GRID:
        b = cb.moments_to_tails(1.0, 0.0, 2.0)
        thr = b.threshold(u)
        slack_m2t.append(b.probability(u) - float(special.erfc(thr / math.sqrt(2))))
    # exponential: Gamma(p+1)^(1/p) <= p, so a=1, b=0, alpha=1
    for p in P_GRID:
        assert math.exp(special.gammaln(p + 1) / p) <= p + 1e-12
    for u in U_GRID:
        b = cb.moments_to_tails(1.0, 0.0, 1.0)
        slack_m2t.append(b.probability(u) - math.exp(-b.threshold(u)))
    # stretched exponential, alpha = 3: premise a=1, b=3^(1/3) by quadrature
    al = 3.0
    for p in P_GRID:
        val, _ = integrate.quad(lambda t, p=p: p * t ** (p - 1) * math.exp(-t**al / al), 0, np.inf)
        assert val ** (1 / p) <= p ** (1 / al) + al ** (1 / al) + 1e-12
    for u in U_GRID:
        b = cb.moments_to_tails(1.0, al ** (1 / al), al)
        slack_m2t.append(b.probability(u) - math.exp(-b.threshold(u) ** al / al))

    slack_t2m = []
    for al in (1.0, 2.0, 3.0):
        for p in P_GRID:
            # V with P(V >= v) = exp(-v^al/al): E V^p = (p/al) al^(p/al) Gamma(p/al)
            logint = math.log(p / al) + (p / al) * math.log(al) + special.gammaln(p / al)
            oracle = math.exp(logint / p)
            if p <= 8:
                q, _ = integrate.quad(
                    lambda v, p=p, al=al: p * v ** (p - 1) * math.exp(-(v**al) / al), 0, np.inf)
                assert abs(q ** (1 / p) - oracle) < 1e-9 * max(1, oracle)
            slack_t2m.append(cb.tails_to_moments(math.exp(-1 / al), 1.0, al, p).value - oracle)

    slack_lp = []
    for al in (1.0, 2.0, 3.0):
        for p in P_GRID:
            for us in U_GRID:
                # xi with P(xi > v) = exp(-p v^al/4): closed-form E xi^p
                logm = math.log(p / al) + (p / al) * math.log(4.0 / p) + special.gammaln(p / al)
                oracle = math.exp(logm / p)
                slack_lp.append(cb.lp_from_tail(1.0, 1.0, us, al, p).value - oracle)

    elapsed = time.monotonic() - t0
    worst = min(min(slack_m2t), min(slack_t2m), min(slack_lp))
    ok = worst >= -1e-9 and elapsed < 10
    _report(1, ok, f"conversion slack >= {worst:.2e} over {len(slack_m2t)+len(slack_t2m)+len(slack_lp)} "
                   f"grid points ({elapsed:.1f}s)")
    assert min(slack_m2t) >= -1e-9
    assert min(slack_t2m) >= -1e-9
    assert min(slack_lp) >= -1e-9
    assert elapsed < 10


def test_acceptance_02_union_constant_value():
    """The doubling-union series converges, stays under 16, rounds to 5.83."""
    t0 = time.monotonic()
    v = cb.union_bound_constant()
    rate = 2 * (math.log(2) - 1) + 0.5
    indep = 2 * sum(math.exp(rate * 2.0**n) for n in range(200))
    elapsed = time.monotonic() - t0
    ok = abs(v - indep) < 1e-12 and v <= 16 and abs(v - 5.84) < 0.02 and elapsed < 1
    _report(2, ok, f"value {v:.6f}, independent series gap {abs(v - indep):.1e} ({elapsed:.2f}s)")
    assert abs(v - indep) < 1e-12
    assert v <= 16
    assert abs(v - 5.84) < 0.02  # two-decimal rounding of the series value
    assert elapsed < 1


def _random_spaces(count=100, seed=314159):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        pts = rng.normal(size=(n, 3))
        if n >= 3 and rng.random() < 0.3:
            pts[1] = pts[0]  # duplicate point: a genuine semi-metric zero
        norm = ["l1", "l2", "linf"][int(rng.integers(3))]
        yield cb.space_from_points(pts, norm=norm)


def test_acceptance_03_gamma_functional_suite():
    """Greedy >= exact, exact >= diameter/2, order-p monotone, partition form above."""
    t0 = time.monotonic()
    viol_greedy = viol_half = viol_mono = viol_prime = viol_cap = 0
    for space in _random_spaces():
        exact = cb.gamma_exact(space, 2.0)
        if cb.gamma_greedy(space, 2.0).value < exact.value - 1e-12:
            viol_greedy += 1
        if exact.value < space.diameter() / 2 - 1e-12:
            viol_half += 1
        if space.diameter() > exact.value + 1e-12:
            viol_cap += 1
        vals = [cb.gamma_exact(space, 2.0, p=p).value for p in (1.0, 2.0, 4.0)]
        if not all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])):
            viol_mono += 1
        if exact.value > cb.gamma_prime(space, 2.0).value + 1e-12:
            viol_prime += 1
    elapsed = time.monotonic() - t0
    ok = viol_greedy == viol_half == viol_mono == viol_prime == 0 and elapsed < 120
    _report(3, ok, f"greedy/half-diameter/order-p/partition clauses clean on 100 spaces ({elapsed:.1f}s)")
    _report("3 (diameter-cap clause)", False,
            f"diameter exceeds the exact functional on {viol_cap}/100 spaces "
            f"(3-point path counterexample: diameter 1, functional 1/2); "
            f"carried as a strict expected-failure test")
    assert viol_greedy == 0
    assert viol_half == 0
    assert viol_mono == 0
    assert viol_prime == 0
    assert viol_cap > 0  # the documented counterexample class is real
    assert elapsed < 120


@pytest.mark.xfail(
    strict=True,
    reason="stated upper cap does not hold: the diameter exceeds the exact functional "
    "on most random instances (3-point path 0, 1/2, 1: diameter 1, functional 1/2)",
)
def test_acceptance_03_diameter_capped_by_exact_functional():
    path = cb.build_metric_space([[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]])
    assert cb.gamma_exact(path, 2.0).value >= path.diameter() - 1e-12
    for space in _random_spaces():
        assert cb.gamma_exact(space, 2.0).value >= space.diameter() - 1e-12


def test_acceptance_05_small_set_moment_cap():
    """E sup over |T| standard normals is at most 2^p times the worst moment."""
    t0 = time.monotonic()
    details = []
    for T, p in ((2, 1.0), (4, 2.0), (16, 4.0)):
        lhs, _ = integrate.quad(
            lambda x, p=p, T=T: p * x ** (p - 1) * (1 - special.erf(x / math.sqrt(2)) ** T),
            0, np.inf)
        eg = 2 ** (p / 2) * math.exp(special.gammaln((p + 1) / 2) - special.gammaln(0.5))
        rhs = 2**p * eg
        bound = cb.small_set_moment_bound([eg ** (1 / p)] * T, p, set_size=T)
        assert lhs <= rhs + 1e-9
        assert bound.value >= lhs ** (1 / p) - 1e-9
        details.append(f"|T|={T}: {lhs:.3f}<={rhs:.3f}")
    elapsed = time.monotonic() - t0
    ok = elapsed < 30
    _report(5, ok, "; ".join(details) + f" ({elapsed:.1f}s)")
    assert elapsed < 30


# ---------------------------------------------------------------------------
# stochastic checks: each builds a payload once, cached for the determinism
# test, which re-runs the builder and compares serialized bytes.
# ---------------------------------------------------------------------------

_CACHE = {}


def _built(name):
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]


def _row_dicts(report):
    return [dict(r) for r in report.rows]


def _build_gaussian_check():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(32, 8)) / math.sqrt(8)
    cov = pts @ pts.T
    model = cb.gaussian_model(cov)
    gam = cb.gamma_greedy(cb.canonical_metric(model), 2.0)
    sigma = float(np.sqrt(np.diag(cov)).max())
    bound = cb.gaussian_process_bound(gam, sigma, u=1.0)
    sample = cb.simulate_gaussian(model, REPS, seed=2024, base_point=None)
    report = cb.validate_bound(sample, bound, u_grid=[1.0, 2.0, 3.0])
    return cb.jsonify({
        "check": "gaussian-supremum",
        "model_seed": 42,
        "sim_seed": 2024,
        "gamma2": gam.value,
        "sigma": sigma,
        "verdict": report.verdict,
        "paper_confirmed": report.paper_confirmed,
        "rows": _row_dicts(report),
    })


def _grid_delta_two_sparse(A, n_theta=4001):
    """Grid-search oracle for the 2-sparse distortion, no eigenvalues.

    Unit vectors on a 2-column support are (cos t, e^{i phi} sin t); the
    phase maximum is analytic (+-|G12|), leaving a 1-D search over t that a
    coarse pass plus one refinement pins down far below the 1e-6 target.
    """
    thetas = np.linspace(0.0, math.pi / 2, n_theta)
    c, s = np.cos(thetas), np.sin(thetas)
    best = 0.0
    for (i, j) in itertools.combinations(range(A.shape[1]), 2):
        cols = A[:, [i, j]]
        G = cols.conj().T @ cols
        g11, g22, g12 = G[0, 0].real, G[1, 1].real, abs(G[0, 1])
        base = c**2 * g11 + s**2 * g22
        cross = 2.0 * c * s * g12
        for sign in (1.0, -1.0):
            f = np.abs(base + sign * cross - 1.0)
            k = int(np.argmax(f))
            lo, hi = thetas[max(0, k - 1)], thetas[min(n_theta - 1, k + 1)]
            tt = np.linspace(lo, hi, n_theta)
            cc, ss = np.cos(tt), np.sin(tt)
            ff = np.abs(cc**2 * g11 + ss**2 * g22 + sign * 2 * cc * ss * g12 - 1.0)
            best = max(best, float(ff.max()))
    return best


def _build_rip_check():
    U = cb.build_dft(8)
    inst = cb.subsampled_instance(8, 4, seed=12)
    eig = inst.delta(2).delta_s
    grid = _grid_delta_two_sparse(inst.U_I)
    rng = np.random.default_rng(2718)
    A = (rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))) / math.sqrt(5)
    eig_rand = cb.restricted_isometry_constant(A, 2).delta_s
    grid_rand = _grid_delta_two_sparse(A)
    full = cb.restricted_isometry_constant(U, 2).delta_s
    gap1 = 0.0
    for seed in range(5):
        ins = cb.subsampled_instance(8, 4, seed=seed)
        d1 = cb.restricted_isometry_constant(ins.U_I, 1).delta_s if ins.realized_rows else 1.0
        gap1 = max(gap1, abs(d1 - abs(len(ins.I) / 4 - 1.0)))
    curve = [cb.estimate_failure_probability(16, m, 2, 0.5, 200, seed=101)
             for m in (4, 8, 12, 16)]
    return cb.jsonify({
        "check": "restricted-isometry",
        "subsampled": {"eig": eig, "grid": grid, "gap": abs(eig - grid)},
        "random_matrix": {"eig": eig_rand, "grid": grid_rand, "gap": abs(eig_rand - grid_rand)},
        "full_unitary_delta": full,
        "one_sparse_max_gap": gap1,
        "curve": curve,
    })


def _build_martingale_check():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=(16, 8)) / math.sqrt(8)
    coeffs[0] = 0.0  # zero vector: the raw supremum equals the anchored one
    model = cb.martingale_model(coeffs)
    space = cb.canonical_metric(model)
    gam = cb.gamma_greedy(space, 2.0)
    bound = cb.azuma_uniform_bound(gam, space.diameter(), u=1.0)
    sample = cb.simulate_martingale_family(model, REPS, seed=99)
    report = cb.validate_bound(sample, bound, u_grid=[1.0, 2.0, 3.0])
    exact = cb.exact_martingale_distribution(model)
    comparisons = []
    # at the bound thresholds the exhaustive law must agree with the draws
    for u in (1.0, 2.0, 3.0):
        thr = bound.threshold(u)
        p_exact = float(np.mean(exact >= thr))
        k = int(np.count_nonzero(sample.values >= thr))
        if 0.0 < p_exact < 1.0:
            pvalue = float(stats.binomtest(k, REPS, p_exact).pvalue)
        else:
            pvalue = 1.0 if k == round(p_exact * REPS) else 0.0
        comparisons.append({"kind": "threshold", "at": thr, "p_exact": p_exact,
                            "count": k, "pvalue": pvalue})
    # and again at quantiles where the exhaustive law has interior mass
    for q in (0.25, 0.5, 0.75, 0.9):
        thr = float(np.quantile(exact, q))
        p_exact = float(np.mean(exact >= thr))
        k = int(np.count_nonzero(sample.values >= thr))
        pvalue = float(stats.binomtest(k, REPS, p_exact).pvalue)
        comparisons.append({"kind": "quantile", "at": thr, "p_exact": p_exact,
                            "count": k, "pvalue": pvalue})
    return cb.jsonify({
        "check": "martingale-family",
        "model_seed": 7,
        "sim_seed": 99,
        "gamma2": gam.value,
        "verdict": report.verdict,
        "paper_confirmed": report.paper_confirmed,
        "rows": _row_dicts(report),
        "exhaustive": comparisons,
    })


def _scaled_space(space, factor):
    return cb.build_metric_space(space.dist * factor, labels=space.labels)


def _build_mixed_empirical_check():
    rng = np.random.default_rng(88)
    m = 8
    model = cb.empirical_model(rng.normal(size=(6, m)), cb.RowDistribution("rademacher"))
    mm = cb.mixed_metrics(model)
    sigma, K = cb.empirical_parameters(model)
    g2 = cb.gamma_greedy(mm.d2, 2.0)
    g1 = cb.gamma_greedy(mm.d1, 1.0)
    sample = cb.simulate_empirical(model, m, REPS, seed=505)
    d2s = _scaled_space(mm.d2, 1 / math.sqrt(m))
    d1s = _scaled_space(mm.d1, 1 / m)
    g2s = cb.gamma_greedy(d2s, 2.0)
    g1s = cb.gamma_greedy(d1s, 1.0)

    def emp_verdict(sc):
        reg = cb.DEFAULT_REGISTRY.with_fitted(empirical_C=sc, empirical_c=sc)
        bound = cb.empirical_process_bound(g2, g1, sigma, K, m, u=1.0, registry=reg)
        return cb.validate_bound(sample, bound, u_grid=[1.0, 2.0, 3.0]).verdict

    def mixed_verdict(sc):
        reg = cb.DEFAULT_REGISTRY.with_fitted(mixed_C=sc, mixed_c=sc)
        bound = cb.mixed_tail_supremum_bound(
            g2s, g1s, diam2=d2s.diameter(), diam1=d1s.diameter(), u=1.0, registry=reg)
        return cb.validate_bound(sample, bound, u_grid=[1.0, 2.0, 3.0]).verdict

    grid = [1.0 + 0.5 * i for i in range(19)]
    routes = {}
    for label, verdict_at in (("averaged", emp_verdict), ("mixed", mixed_verdict)):
        at_one = verdict_at(1.0)
        smallest = 1.0 if at_one == "dominated" else next(
            (sc for sc in grid if verdict_at(sc) == "dominated"), None)
        routes[label] = {"verdict_at_unit": at_one, "smallest_dominating": smallest}
    return cb.jsonify({
        "check": "bounded-summand-reference",
        "model_seed": 88,
        "sim_seed": 505,
        "sigma": sigma,
        "K": K,
        "routes": routes,
    })


def _build_squares_check():
    scale = cb.psi_norm_analytic("gaussian", 1.0, 2.0).value
    rng = np.random.default_rng(31)
    base = cb.RowDistribution("gaussian")
    increment = []
    for mval in (4, 16):
        coeffs = rng.normal(size=(5, mval))
        model = cb.squares_model(coeffs, base)
        D = scale * np.abs(coeffs[:, None, :] - coeffs[None, :, :]).max(axis=2)
        s, t = np.unravel_index(np.argmax(D), D.shape)
        bound = cb.squares_l2_increment_tail(float(D[s, t]), mval, u=1.0)
        sample = cb.simulate_squares_increment(model, int(s), int(t), mval, REPS, seed=900 + mval)
        report = cb.validate_bound(sample, bound, u_grid=[1.0, 1.5, 2.0])
        increment.append({"m": mval, "pair": [int(s), int(t)], "distance": float(D[s, t]),
                          "verdict": report.verdict, "rows": _row_dicts(report)})
    coeffs = rng.normal(size=(6, 8))
    model = cb.squares_model(coeffs, base)
    space = cb.canonical_metric(model)
    psi2 = scale * np.abs(coeffs)
    sigma, K = cb.squares_default_parameters(psi2)
    radius = float(psi2.max())
    sample = cb.simulate_squares(model, 8, REPS, seed=911)
    ests = cb.estimate_moments(sample, [1.0, 2.0, 4.0])

    def dominates(C):
        reg = cb.DEFAULT_REGISTRY.with_fitted(squares_C=C, squares_c=C)
        for pv, est in zip((1.0, 2.0, 4.0), ests):
            g = cb.gamma_greedy(space, 2.0, p=pv)
            if est.ci_high > cb.squares_supremum_bound(
                    g, radius, 8, sigma, K, p=pv, registry=reg).value:
                return False
        return True

    smallest = next((0.5 * i for i in range(1, 21) if dominates(0.5 * i)), None)
    return cb.jsonify({
        "check": "squared-averages",
        "model_seed": 31,
        "increment": increment,
        "moment": {
            "smallest_dominating_C": smallest,
            "estimates": [{"p": e.p, "estimate": e.estimate, "ci_high": e.ci_high} for e in ests],
        },
    })


def _build_chaos_check():
    rng = np.random.default_rng(606)
    ordering_violations = 0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        mats = [rng.normal(size=(3, 4))
                + (1j if rng.random() < 0.5 else 0) * rng.normal(size=(3, 4))
                for _ in range(k)]
        r = cb.schatten_radii(mats)
        ok = (r.delta_inf <= r.delta_4 + 1e-12 and r.delta_4 <= r.delta_2 + 1e-12
              and r.delta_4**2 <= r.delta_2 * r.delta_inf + 1e-9
              and r.gamma2_dinf.value >= 0)
        ordering_violations += not ok
    symdec = check_symmetrization_decoupling([rng.normal(size=(3, 8)) for _ in range(2)])

    signs = cb.sign_patterns(8)
    hanson_wright = []
    for i in range(5):
        B = rng.choice([-1.0, 1.0], size=(8, 8))
        quad = np.einsum("ai,ij,aj->a", signs, B, signs)
        vals = np.abs(quad - np.trace(B))
        atoms = np.unique(vals[vals > 0])
        largest = None
        for c in (1 / 2, 1 / 4, 1 / 8, 1 / 16):
            bound = cb.hanson_wright_tail(
                B, u=0.0, registry=cb.DEFAULT_REGISTRY.with_fitted(hanson_wright_c=c))
            if all(np.mean(vals >= a) <= bound.probability(a) for a in atoms):
                largest = c
                break
        hanson_wright.append({"instance": i, "largest_dominating_c": largest})

    mats = [rng.normal(size=(3, 4)) for _ in range(3)]
    exact = cb.exact_chaos_distribution(mats)
    xi = cb.psi_norm_analytic("symmetric-sign", 1.0, 2.0)

    def dominates(C):
        reg = cb.DEFAULT_REGISTRY.with_fitted(chaos_C=C, chaos_c=C)
        for pv in (1.0, 2.0, 4.0):
            emp = float(np.mean(exact**pv) ** (1.0 / pv))
            if emp > cb.chaos_supremum_bound(
                    cb.schatten_radii(mats, p=pv), xi, p=pv, registry=reg).value:
                return False
        return True

    smallest = next((0.5 * i for i in range(1, 21) if dominates(0.5 * i)), None)
    return cb.jsonify({
        "check": "second-order-chaos",
        "seed": 606,
        "ordering_violations": ordering_violations,
        "symmetrization_decoupling": symdec,
        "hanson_wright": hanson_wright,
        "moment_smallest_dominating_C": smallest,
    })


_BUILDERS = {
    "gaussian": _build_gaussian_check,
    "rip": _build_rip_check,
    "martingale": _build_martingale_check,
    "mixed-empirical": _build_mixed_empirical_check,
    "squares": _build_squares_check,
    "chaos": _build_chaos_check,
}


def test_acceptance_04_gaussian_supremum_validated():
    t0 = time.monotonic()
    payload = _built("gaussian")
    elapsed = time.monotonic() - t0
    ok = (payload["verdict"] == "dominated" and payload["paper_confirmed"]
          and elapsed < 120)
    _report(4, ok, f"{REPS} replications dominated at u=1,2,3 with stock constants "
                   f"(gamma2 {payload['gamma2']:.3f}, sigma {payload['sigma']:.3f}, {elapsed:.1f}s)")
    assert payload["verdict"] == "dominated"
    assert payload["paper_confirmed"] is True
    for row in payload["rows"]:
        assert row["ci_upper"] <= row["envelope"]
    assert elapsed < 120


def test_acceptance_06_restricted_isometry_exactness():
    t0 = time.monotonic()
    payload = _built("rip")
    elapsed = time.monotonic() - t0
    curve = payload["curve"]
    mono = all(curve[i + 1]["ci_lower"] <= curve[i]["ci_upper"] + 1e-12
               for i in range(len(curve) - 1))
    ok = (payload["subsampled"]["gap"] < 1e-6 and payload["random_matrix"]["gap"] < 1e-6
          and payload["full_unitary_delta"] < 1e-10 and payload["one_sparse_max_gap"] < 1e-12
          and mono and elapsed < 300)
    _report(6, ok, f"grid-oracle gaps {payload['subsampled']['gap']:.1e}/"
                   f"{payload['random_matrix']['gap']:.1e}, failure curve "
                   f"{[c['estimate'] for c in curve]} ({elapsed:.1f}s)")
    assert payload["subsampled"]["gap"] < 1e-6
    assert payload["random_matrix"]["gap"] < 1e-6
    assert payload["full_unitary_delta"] < 1e-10
    assert payload["one_sparse_max_gap"] < 1e-12
    assert mono
    assert elapsed < 300


def test_acceptance_07_martingale_family_validated():
    t0 = time.monotonic()
    payload = _built("martingale")
    elapsed = time.monotonic() - t0
    pvals = [c["pvalue"] for c in payload["exhaustive"]]
    ok = (payload["verdict"] == "dominated" and payload["paper_confirmed"]
          and min(pvals) >= 1e-4 and elapsed < 120)
    _report(7, ok, f"dominated at u=1,2,3; exhaustive 2^8 law matches draws "
                   f"(min two-sided p {min(pvals):.3f}, {elapsed:.1f}s)")
    assert payload["verdict"] == "dominated"
    assert payload["paper_confirmed"] is True
    assert min(pvals) >= 1e-4
    assert elapsed < 120


def test_acceptance_08_mixed_and_averaged_bounds_with_unit_constants():
    t0 = time.monotonic()
    payload = _built("mixed-empirical")
    elapsed = time.monotonic() - t0
    routes = payload["routes"]
    smalls = [routes[r]["smallest_dominating"] for r in ("averaged", "mixed")]
    ok = all(s is not None and s <= 10 for s in smalls) and elapsed < 180
    _report(8, ok, f"smallest dominating fitted constants: averaged {smalls[0]}, "
                   f"mixed {smalls[1]} (both recorded as fitted, {elapsed:.1f}s)")
    for s in smalls:
        assert s is not None and s <= 10
    assert elapsed < 180


def test_acceptance_09_squared_averages_suite():
    t0 = time.monotonic()
    payload = _built("squares")
    elapsed = time.monotonic() - t0
    point_ok = True
    certified = 0
    for entry in payload["increment"]:
        assert entry["verdict"] != "violated"
        for row in entry["rows"]:
            point_ok &= row["empirical"] <= row["envelope"]
            if row["envelope"] >= CP_FLOOR:
                # resolvable at this replication count: demand CI domination
                certified += row["verdict"] == "dominated"
    smallest = payload["moment"]["smallest_dominating_C"]
    ok = point_ok and certified >= 2 and smallest is not None and smallest <= 10 and elapsed < 300
    _report(9, ok, f"increment tail clean at u=1,1.5,2 for m=4,16 ({certified} rows "
                   f"CI-certified, rest below Monte Carlo reach); moment constant "
                   f"{smallest} ({elapsed:.1f}s)")
    assert point_ok
    assert certified >= 2
    assert smallest is not None and smallest <= 10
    assert elapsed < 300


def test_acceptance_10_chaos_suite():
    t0 = time.monotonic()
    payload = _built("chaos")
    elapsed = time.monotonic() - t0
    cs = [h["largest_dominating_c"] for h in payload["hanson_wright"]]
    smallest = payload["moment_smallest_dominating_C"]
    ok = (payload["ordering_violations"] == 0 and payload["symmetrization_decoupling"]["holds"]
          and all(c is not None and c >= 1 / 16 for c in cs)
          and smallest is not None and smallest <= 10 and elapsed < 300)
    _report(10, ok, f"radii ordering clean on 100 sets; exhaustive factor-2/factor-4 "
                    f"checks hold at n=8; quadratic-tail c >= {min(cs)}; moment constant "
                    f"{smallest} ({elapsed:.1f}s)")
    assert payload["ordering_violations"] == 0
    assert payload["symmetrization_decoupling"]["holds"] is True
    for c in cs:
        assert c is not None and c >= 1 / 16
    assert smallest is not None and smallest <= 10
    assert elapsed < 300


def test_acceptance_11_stochastic_checks_are_byte_deterministic(tmp_path):
    t0 = time.monotonic()
    mismatched = []
    for name, builder in _BUILDERS.items():
        first = tmp_path / f"{name}-a.json"
        second = tmp_path / f"{name}-b.json"
        cb.write_json(first, _built(name))
        cb.write_json(second, builder())
        if first.read_bytes() != second.read_bytes():
            mismatched.append(name)
    elapsed = time.monotonic() - t0
    ok = not mismatched
    _report(11, ok, f"re-running all {len(_BUILDERS)} stochastic checks reproduced "
                    f"byte-identical artifacts ({elapsed:.1f}s)")
    assert mismatched == []
