"""Confidence machinery: exceedance intervals, bootstrap moments, verdicts."""

import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from chainbounds import (
    CapacityError,
    DomainError,
    GammaEstimate,
    MinEnvelope,
    MomentBound,
    MomentEstimate,
    PowerEnvelope,
    SupremumSample,
    TailBound,
    ValidationReport,
    BernsteinParams,
    bernstein_tail,
    check_symmetrization_decoupling,
    estimate_failure_probability,
    estimate_moments,
    exact_chaos_distribution,
    exceedance_lower_bound,
    exceedance_upper_bound,
    gaussian_process_bound,
    replication_rng,
    sign_patterns,
    truncation_level,
    validate_bound,
)
from chainbounds import chaining, processes, validation
from chainbounds.validation import _bootstrap_means, _bootstrap_rng, _verdict


def _sample(values, seed=0):
    values = np.asarray(values, dtype=float)
    return SupremumSample(replications=values.size, seed=seed, values=values)


# ---------------------------------------------------------------------------
# Clopper-Pearson exceedance bounds


def test_exceedance_edge_cases():
    assert exceedance_lower_bound(0, 50) == 0.0
    assert exceedance_upper_bound(50, 50) == 1.0
    # [DERIVED] scipy.stats.beta.ppf oracles
    assert exceedance_upper_bound(0, 1000) == pytest.approx(0.004594582648473037)
    assert exceedance_lower_bound(1000, 1000) == pytest.approx(0.995405417351527)


def test_exceedance_interior_values():
    # [DERIVED] beta.ppf(0.99, 4, 47) and beta.ppf(0.01, 3, 48)
    assert exceedance_upper_bound(3, 50) == pytest.approx(0.18720925616529482)
    assert exceedance_lower_bound(3, 50) == pytest.approx(0.008860761445872545)


def test_exceedance_bounds_bit_equal_to_beta_ppf(monkeypatch):
    # The bounds are betaincinv; stats.beta.ppf is the reference quantile.
    for c in (0.9, 0.95, 0.99, 0.999):
        monkeypatch.setattr(validation, "CONFIDENCE", c)
        for n in (1, 2, 5, 50, 1000, 20000, 100000):
            for k in sorted({0, 1, n // 3, n // 2, n - 1, n} & set(range(n + 1))):
                upper = 1.0 if k == n else float(stats.beta.ppf(c, k + 1, n - k))
                lower = 0.0 if k == 0 else float(stats.beta.ppf(1.0 - c, k, n - k + 1))
                assert exceedance_upper_bound(k, n) == upper, (k, n, c)
                assert exceedance_lower_bound(k, n) == lower, (k, n, c)


def test_exceedance_defining_identities():
    # The one-sided bounds are exact binomial inversions:
    #   P(Binom(n, upper) <= k) = 1 - confidence
    #   P(Binom(n, lower) >= k) = 1 - confidence
    k, n = 7, 200
    up = exceedance_upper_bound(k, n)
    lo = exceedance_lower_bound(k, n)
    assert stats.binom.cdf(k, n, up) == pytest.approx(0.01, rel=1e-9)
    assert stats.binom.sf(k - 1, n, lo) == pytest.approx(0.01, rel=1e-9)
    assert lo < k / n < up


def test_exceedance_rejects_bad_counts():
    with pytest.raises(DomainError):
        exceedance_upper_bound(-1, 10)
    with pytest.raises(DomainError):
        exceedance_upper_bound(11, 10)
    with pytest.raises(DomainError):
        exceedance_lower_bound(0, 0)
    for k, n in ((1.5, 10), (1, 10.5), (math.nan, 10), (True, 10)):
        with pytest.raises(DomainError):
            exceedance_upper_bound(k, n)
        with pytest.raises(DomainError):
            exceedance_lower_bound(k, n)


@given(st.integers(0, 40), st.integers(0, 40))
def test_exceedance_upper_monotone_in_k(k1, k2):
    n = 40
    lo_k, hi_k = sorted((k1, k2))
    assert exceedance_upper_bound(lo_k, n) <= exceedance_upper_bound(hi_k, n) + 1e-12
    assert exceedance_lower_bound(lo_k, n) <= exceedance_lower_bound(hi_k, n) + 1e-12


# ---------------------------------------------------------------------------
# bootstrap moment estimates


def test_estimate_moments_constant_sample():
    est, = estimate_moments(_sample(np.full(64, 3.0)), [2.0])
    assert est.estimate == pytest.approx(3.0)
    assert est.ci_low == pytest.approx(3.0)
    assert est.ci_high == pytest.approx(3.0)
    assert est.resamples == 1000


def test_estimate_moments_monotone_in_p():
    rng = np.random.default_rng(5)
    sample = _sample(rng.exponential(size=500))
    ests = estimate_moments(sample, [1.0, 2.0, 4.0, 8.0])
    vals = [e.estimate for e in ests]
    assert vals == sorted(vals)  # Lyapunov: L^p norms grow with p
    for e in ests:
        assert e.ci_low <= e.estimate <= e.ci_high


def test_estimate_moments_deterministic():
    sample = _sample(np.linspace(0.1, 2.0, 200), seed=11)
    a = estimate_moments(sample, [3.0])[0]
    b = estimate_moments(sample, [3.0])[0]
    assert (a.estimate, a.ci_low, a.ci_high) == (b.estimate, b.ci_low, b.ci_high)


def test_estimate_moments_ci_tracks_seed():
    vals = np.linspace(0.1, 2.0, 200)
    a = estimate_moments(_sample(vals, seed=1), [2.0])[0]
    b = estimate_moments(_sample(vals, seed=2), [2.0])[0]
    assert a.estimate == b.estimate  # point estimate ignores the bootstrap
    assert (a.ci_low, a.ci_high) != (b.ci_low, b.ci_high)


def test_estimate_moments_input_validation():
    with pytest.raises(DomainError):
        estimate_moments(_sample([1.0]), [0.5])
    with pytest.raises(DomainError):
        estimate_moments(_sample([1.0]), [math.inf])
    with pytest.raises(DomainError):
        estimate_moments(_sample([]), [2.0])


def test_estimate_moments_high_order_does_not_overflow():
    # 20**400 overflows a double; the exact root comes from Decimal arithmetic.
    vals = np.linspace(0.4, 20.0, 50)
    est, = estimate_moments(_sample(vals, seed=3), [400.0])
    exact = (sum(Decimal(float(v)) ** 400 for v in vals) / 50) ** (Decimal(1) / 400)
    assert est.estimate == pytest.approx(float(exact), rel=1e-12)
    assert est.ci_low <= est.estimate <= est.ci_high <= 20.0


def test_bootstrap_stream_differs_from_block_streams():
    draws = _bootstrap_rng(5).integers(0, 2**63, 8)
    for b in range(3):
        assert not np.array_equal(draws, replication_rng(5, b).integers(0, 2**63, 8))


def reference_bootstrap(sample, p_list, resamples):
    """The one-resample-per-draw loop that the block draws replaced."""
    values = sample.values
    rng = _bootstrap_rng(sample.seed)
    n = values.size
    top = float(values.max()) or 1.0
    columns = np.stack([(values / top) ** p for p in p_list])
    boot = np.empty((resamples, len(p_list)))
    for b in range(resamples):
        idx = rng.integers(0, n, n)
        boot[b] = columns.take(idx, axis=1).mean(axis=1)
    lo, hi = 100.0 * (1.0 - 0.99), 100.0 * 0.99
    estimates = []
    for j, p in enumerate(p_list):
        root = top * boot[:, j] ** (1.0 / p)
        est = top * float(columns[j].mean()) ** (1.0 / p)
        estimates.append((est, min(float(np.percentile(root, lo)), est),
                          max(float(np.percentile(root, hi)), est)))
    return columns, boot, estimates


# (n, resamples): k = 2^15 // n resamples per draw, and no count below is a
# multiple of its k unless k = 1
BLOCK_CASES = [(1, 1), (1, 1000), (2, 3), (2, 1000), (200, 164), (200, 1000),
               (2**15 - 1, 3), (2**15, 3), (2**15 + 1, 3)]


@pytest.mark.parametrize("n, resamples", BLOCK_CASES)
def test_block_bootstrap_equals_the_per_resample_loop(monkeypatch, n, resamples):
    monkeypatch.setattr(validation, "BOOTSTRAP_RESAMPLES", resamples)
    sample = _sample(np.random.default_rng(n).exponential(size=n), seed=n % 7)
    p_list = [1.0, 2.5, 8.0]
    columns, boot, estimates = reference_bootstrap(sample, p_list, resamples)
    got = _bootstrap_means(columns, _bootstrap_rng(sample.seed), resamples)
    assert got.shape == boot.shape
    assert (got == boot).all()
    ests = estimate_moments(sample, p_list)
    assert [e.resamples for e in ests] == [resamples] * len(p_list)
    assert [(e.estimate, e.ci_low, e.ci_high) for e in ests] == estimates


@pytest.mark.parametrize("block", [5, 6, 7, 64])
def test_block_bootstrap_boundaries(monkeypatch, block):
    # 6-point samples: 0, 1, 1 and 10 resamples per draw, 37 resamples in all
    monkeypatch.setattr(validation, "_RESAMPLE_BLOCK", block)
    monkeypatch.setattr(validation, "BOOTSTRAP_RESAMPLES", 37)
    sample = _sample([0.5, 1.0, 1.5, 2.0, 4.0, 0.25], seed=9)
    columns, boot, estimates = reference_bootstrap(sample, [1.0, 3.0], 37)
    assert (_bootstrap_means(columns, _bootstrap_rng(9), 37) == boot).all()
    ests = estimate_moments(sample, [1.0, 3.0])
    assert [(e.estimate, e.ci_low, e.ci_high) for e in ests] == estimates


def test_moment_estimate_interval_must_contain_estimate():
    with pytest.raises(DomainError):
        MomentEstimate(p=2.0, estimate=1.0, ci_low=1.2, ci_high=1.4, resamples=10)


def test_confidence_inside_half_to_one_is_accepted(monkeypatch):
    bounds = []
    for level in (0.51, 0.999):
        monkeypatch.setattr(validation, "CONFIDENCE", level)
        bounds.append((exceedance_upper_bound(0, 10), exceedance_lower_bound(10, 10)))
    (upper_51, lower_51), (upper_999, lower_999) = bounds
    assert upper_51 < upper_999
    assert lower_51 > lower_999


def test_one_confidence_level_behind_every_interval(monkeypatch):
    # validation.CONFIDENCE, read at call time, sets the tail rows' bound, the
    # bootstrap percentiles of the moment rows and the RIP curves' bounds.
    bound = bernstein_tail(BernsteinParams(sigma=1.0, K=1.0, m=1))
    moment = MomentBound(p=2.0, decomposition=(("all", 2.0),))
    sample = _sample(np.random.default_rng(4).exponential(size=300), seed=4)
    seen = []
    for level in (0.9, 0.99):
        monkeypatch.setattr(validation, "CONFIDENCE", level)
        (row,) = validate_bound(sample, bound, u_grid=[0.5]).rows
        k = round(row["empirical"] * 300)
        assert 0 < k < 300
        assert row["ci_upper"] == float(stats.beta.ppf(level, k + 1, 300 - k))
        (est,) = estimate_moments(sample, [2.0])
        assert validate_bound(sample, moment).rows[0]["ci_upper"] == est.ci_high
        curve = estimate_failure_probability(N=8, m=4, s=2, delta=0.9, reps=40, seed=3)
        f = curve["failures"]
        assert 0 < f < 40
        assert curve["ci_upper"] == float(stats.beta.ppf(level, f + 1, 40 - f))
        seen.append((row["ci_upper"], est.ci_low, est.ci_high, curve["ci_upper"]))
    assert all(a != b for a, b in zip(*seen))


# ---------------------------------------------------------------------------
# validate_bound verdicts


def test_validate_tail_dominated():
    bound = bernstein_tail(BernsteinParams(sigma=1.0, K=1.0, m=1))
    sample = _sample(np.zeros(1000))
    report = validate_bound(sample, bound, u_grid=[1.0, 2.0])
    assert report.verdict == "dominated"
    assert report.paper_confirmed  # Bernstein carries explicit constants
    row = report.rows[0]
    assert set(row) == {"u", "threshold", "envelope", "empirical", "ci_upper", "verdict"}
    assert row["empirical"] == 0.0
    assert row["ci_upper"] == pytest.approx(0.004594582648473037)


def test_validate_tail_violated():
    bound = bernstein_tail(BernsteinParams(sigma=1.0, K=1.0, m=1))
    # threshold(10) = sqrt(20) + 10 < 15; envelope 2e^-10 is tiny
    sample = _sample(np.full(1000, 15.0))
    report = validate_bound(sample, bound, u_grid=[10.0])
    assert report.verdict == "violated"
    assert not report.paper_confirmed
    assert report.rows[0]["empirical"] == 1.0


def test_validate_tail_rejects_an_empty_grid():
    bound = bernstein_tail(BernsteinParams(sigma=1.0, K=1.0, m=1))
    with pytest.raises(DomainError):
        validate_bound(_sample(np.zeros(100)), bound, u_grid=[])


def test_validate_tail_inconclusive():
    bound = bernstein_tail(BernsteinParams(sigma=1.0, K=1.0, m=1))
    # zero exceedances in a sample too small to certify 2e^-10
    sample = _sample(np.zeros(100))
    report = validate_bound(sample, bound, u_grid=[10.0])
    assert report.verdict == "inconclusive"
    assert not report.paper_confirmed


def test_validate_tail_mixed_grid_overall_verdict():
    bound = bernstein_tail(BernsteinParams(sigma=1.0, K=1.0, m=1))
    sample = _sample(np.zeros(100))
    # u=1 certifiable, u=10 not: overall must downgrade to inconclusive
    report = validate_bound(sample, bound, u_grid=[1.0, 10.0])
    verdicts = [r["verdict"] for r in report.rows]
    assert verdicts == ["dominated", "inconclusive"]
    assert report.verdict == "inconclusive"


def test_validate_tail_requires_grid():
    bound = bernstein_tail(BernsteinParams(sigma=1.0, K=1.0, m=1))
    with pytest.raises(DomainError):
        validate_bound(_sample(np.zeros(10)), bound)


def test_validate_moment_paths():
    sample = _sample(np.full(200, 1.0))
    dominated = MomentBound(p=2.0, decomposition=(("all", 2.0),))
    report = validate_bound(sample, dominated)
    assert report.verdict == "dominated"
    assert report.paper_confirmed
    row = report.rows[0]
    assert set(row) == {"p", "threshold", "envelope", "empirical", "ci_upper", "verdict"}
    assert row["threshold"] == 2.0
    assert math.isnan(row["envelope"])
    assert row["empirical"] == pytest.approx(1.0)

    violated = MomentBound(p=2.0, decomposition=(("all", 0.5),))
    assert validate_bound(sample, violated).verdict == "violated"


def test_validate_moment_fitted_never_paper_confirmed():
    sample = _sample(np.full(50, 1.0))
    bound = MomentBound(p=1.0, decomposition=(("all", 2.0),), fitted=True)
    report = validate_bound(sample, bound)
    assert report.verdict == "dominated"
    assert not report.paper_confirmed


def test_validate_rejects_other_objects():
    with pytest.raises(DomainError):
        validate_bound(_sample([1.0]), object())


def test_validation_report_invariants():
    bound = MomentBound(p=1.0, decomposition=(("all", 1.0),), fitted=True)
    with pytest.raises(DomainError):
        ValidationReport(bound=bound, rows=(), verdict="sideways", paper_confirmed=False)
    with pytest.raises(DomainError):
        ValidationReport(bound=bound, rows=(), verdict="dominated", paper_confirmed=True)


def test_tail_bound_direct_construction_roundtrip():
    env = PowerEnvelope(prefactor=2.0, rate=1.0, power=1.0)
    bound = TailBound(factor=1.0, const=0.0, sqrt_coeff=0.0, linear=1.0, envelope=env, u_min=0.0)
    sample = _sample(np.concatenate([np.zeros(90), np.full(10, 5.0)]))
    report = validate_bound(sample, bound, u_grid=[3.0])
    # 10% of draws sit at 5 >= 3; envelope 2e^-3 ~ 0.0996 vs CP upper ~ 0.171
    assert report.rows[0]["empirical"] == pytest.approx(0.1)
    assert report.verdict == "inconclusive"


_NAN = float("nan")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PowerEnvelope(prefactor=_NAN, rate=1.0, power=1.0), "prefactor must be positive"),
        (lambda: PowerEnvelope(prefactor=1.0, rate=_NAN, power=1.0), "rate must be >= 0"),
        (lambda: PowerEnvelope(prefactor=1.0, rate=1.0, power=_NAN), "power > 0"),
        (lambda: MinEnvelope(prefactor=_NAN, c=1.0, s2=1.0, sinf=1.0), "prefactor must be"),
        (lambda: MinEnvelope(prefactor=1.0, c=_NAN, s2=1.0, sinf=1.0), "c >= 0"),
        (lambda: MinEnvelope(prefactor=1.0, c=1.0, s2=_NAN, sinf=1.0), "scales must be positive"),
        (lambda: MinEnvelope(prefactor=1.0, c=1.0, s2=1.0, sinf=_NAN), "scales must be positive"),
        (lambda: MomentBound(p=_NAN, decomposition=(("all", 1.0),)), "moment order must be >= 1"),
    ],
    ids=["power-prefactor", "power-rate", "power-power", "min-prefactor", "min-c", "min-s2",
         "min-sinf", "moment-p"],
)
def test_result_types_reject_nan_fields(build, message):
    with pytest.raises(DomainError, match=message):
        build()


@pytest.mark.parametrize(
    "low, high, limit, verdict",
    [(0.1, 0.2, 0.2, "dominated"), (0.1, 0.2, 0.3, "dominated"), (0.2, 0.3, 0.2, "inconclusive"),
     (0.1, 0.3, 0.2, "inconclusive"), (0.3, 0.4, 0.2, "violated")],
)
def test_one_verdict_rule_for_tail_and_moment_rows(low, high, limit, verdict):
    # ends on the limit count for the bound: high == limit dominates, low == limit is no violation
    assert _verdict(low, high, limit) == verdict


def test_a_nan_u_gets_no_verdict():
    bound = bernstein_tail(BernsteinParams(sigma=1.0, K=1.0, m=1))
    nan = float("nan")
    for u in (nan, [1.0, nan], np.array([nan, 2.0])):
        with pytest.raises(DomainError, match="valid for u"):
            bound.threshold(u)
        with pytest.raises(DomainError, match="valid for u"):
            bound.probability(u)
    with pytest.raises(DomainError, match="valid for u"):
        validate_bound(_sample(np.zeros(100)), bound, u_grid=[nan])
    with pytest.raises(DomainError, match="valid for u"):
        validate_bound(_sample(np.zeros(100)), bound, u_grid=[1.0, nan])
    gamma = GammaEstimate(alpha=2.0, p=1.0, l=truncation_level(1.0), value=1.0, mode="exact",
                          sequence=None)
    with pytest.raises(DomainError, match="valid for u"):
        gaussian_process_bound(gamma, sigma=1.0, u=nan)


_NOT_REALS = ["1.5", True, np.True_, None, np.str_("2.0")]


@pytest.mark.parametrize("entry", _NOT_REALS, ids=repr)
def test_u_grid_entries_must_be_real_numbers(entry):
    # each entry is refused as given, before numpy could read "1.5" or True as a number
    bound = bernstein_tail(BernsteinParams(sigma=1.0, K=1.0, m=1))
    message = f"u_grid entry must be a real number, got {re.escape(repr(entry))}$"
    for grid in ([1.0, entry], (entry, 2.0), entry if entry is not None else [entry]):
        with pytest.raises(DomainError, match=message):
            validate_bound(_sample(np.zeros(100)), bound, u_grid=grid)


@pytest.mark.parametrize("entry", _NOT_REALS, ids=repr)
def test_moment_orders_must_be_real_numbers(entry):
    message = f"moment order p must be a real number, got {re.escape(repr(entry))}$"
    for p_list in ([2.0, entry], [entry], entry):
        with pytest.raises(DomainError, match=message):
            estimate_moments(_sample([1.0, 2.0]), p_list)


def test_ragged_grids_are_refused_by_entry():
    # numpy cannot shape a ragged nest; the entry that is not a number is named
    bound = bernstein_tail(BernsteinParams(sigma=1.0, K=1.0, m=1))
    with pytest.raises(DomainError, match=r"u_grid entry must be a real number, got \[2.0\]$"):
        validate_bound(_sample(np.zeros(100)), bound, u_grid=[1.0, [2.0]])
    with pytest.raises(DomainError, match=r"moment order p must be a real number, got \[2.0\]$"):
        estimate_moments(_sample([1.0, 2.0]), [1.0, [2.0]])


def test_numeric_grids_keep_their_values():
    # integers, numpy scalars and arrays are real numbers, read as before
    bound = bernstein_tail(BernsteinParams(sigma=1.0, K=1.0, m=1))
    sample = _sample(np.linspace(0.0, 4.0, 100), seed=2)
    rows = validate_bound(sample, bound, u_grid=[1.0, 2.0]).rows
    for grid in ([1, 2], np.array([1.0, 2.0]), [np.float32(1.0), np.int64(2)], (1.0, 2.0)):
        assert validate_bound(sample, bound, u_grid=grid).rows == rows
    assert validate_bound(sample, bound, u_grid=1.0).rows == rows[:1]
    ests = estimate_moments(sample, [1.0, 3.0])
    assert estimate_moments(sample, np.array([1, 3])) == ests
    assert estimate_moments(sample, 3) == ests[1:]


# ---------------------------------------------------------------------------
# exhaustive symmetrization / decoupling checks


def test_decoupling_and_symmetrization_hold_small():
    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(3, 4)) for _ in range(3)]
    out = check_symmetrization_decoupling(mats)
    assert out["holds"]
    assert out["dimension"] == 4
    assert out["family_size"] == 3
    for row in out["decoupling"] + out["symmetrization"]:
        assert row["lhs"] <= row["rhs"] * (1 + 1e-12)


def test_decoupling_complex_family():
    rng = np.random.default_rng(3)
    mats = [rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in range(2)]
    out = check_symmetrization_decoupling(mats, p_list=(1.0, 3.0))
    assert out["holds"]
    assert [r["p"] for r in out["decoupling"]] == [1.0, 3.0]


def test_symmetrization_custom_table():
    mats = [np.eye(3)]
    table = np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 0.5]])
    out = check_symmetrization_decoupling(mats, table=table, selector_prob=0.25)
    assert out["holds"]


@pytest.mark.parametrize("prob", ["0.5", None, True, np.str_("0.5")], ids=repr)
def test_selector_prob_is_checked_by_name(prob):
    message = f"selector_prob must be a real number, got {re.escape(repr(prob))}$"
    with pytest.raises(DomainError, match=message):
        check_symmetrization_decoupling([np.eye(2)], selector_prob=prob)


def test_decoupling_capacity_and_domain_checks():
    mats = [np.eye(4)]
    with pytest.raises(CapacityError):
        check_symmetrization_decoupling([np.eye(9)] * 17)  # 17 4^9 > 2^22 entries
    with pytest.raises(CapacityError):
        check_symmetrization_decoupling([np.eye(20)])
    with pytest.raises(DomainError):
        check_symmetrization_decoupling(mats, selector_prob=1.0)
    with pytest.raises(DomainError):
        check_symmetrization_decoupling(mats, table=np.array([[1.0, -1.0, 0.0, 0.0]]))
    with pytest.raises(DomainError):
        check_symmetrization_decoupling(mats, table=np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        check_symmetrization_decoupling(mats, p_list=(0.5,))


def test_decoupling_keeps_its_capacity_error_above_the_sign_cap(monkeypatch):
    # No sign cap: one matrix of dimension 11 needs 4^11 = 2^22 entries, the
    # budget itself, so it is admitted and stopped here at its first
    # enumeration; from n = 12 on the budget refuses.
    assert 4**11 == chaining._TABLE_BUDGET

    class Admitted(Exception):
        pass

    def admitted(n):
        raise Admitted

    with monkeypatch.context() as patched:
        patched.setattr(processes, "sign_patterns", admitted)
        with pytest.raises(Admitted):
            check_symmetrization_decoupling([np.eye(11)])
    for n in (12, 20):
        with pytest.raises(CapacityError, match=rf"k = 1, dimension n = {n}: .* {4**n} entries"):
            check_symmetrization_decoupling([np.eye(n)])


def _family(k, n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(2, n)) for _ in range(k)]


@pytest.mark.parametrize("k, n", [(3, 4), (1, 5), (16, 2)])
def test_pair_tables_have_one_budget(monkeypatch, k, n):
    # k 4^n entries for k matrices of dimension n: the decoupled chaos law
    # and the decoupling check run at the budget and are refused one above it.
    mats, entries = _family(k, n), k * 4**n
    law = exact_chaos_distribution(mats, decoupled=True)
    report = check_symmetrization_decoupling(mats)
    monkeypatch.setattr(chaining, "_TABLE_BUDGET", entries)
    assert (exact_chaos_distribution(mats, decoupled=True) == law).all()
    assert check_symmetrization_decoupling(mats) == report
    monkeypatch.setattr(chaining, "_TABLE_BUDGET", entries - 1)
    message = rf"matrix count k = {k}, dimension n = {n}: .* {entries} entries, .* {entries - 1}$"
    with pytest.raises(CapacityError, match=message):
        exact_chaos_distribution(mats, decoupled=True)
    # the plain law holds 2^n entries per matrix and is not refused
    assert exact_chaos_distribution(mats).size == 2**n
    # nothing is enumerated before the refusal
    monkeypatch.setattr(validation, "sign_patterns", lambda n: pytest.fail("enumerated"))
    with pytest.raises(CapacityError, match=message):
        check_symmetrization_decoupling(mats)


def test_a_large_symmetrization_table_is_refused_first(monkeypatch):
    mats = _family(1, 3)
    monkeypatch.setattr(validation, "sign_patterns", lambda n: pytest.fail("enumerated"))
    with pytest.raises(CapacityError, match=r"table row count k = 65537, dimension n = 3"):
        check_symmetrization_decoupling(mats, table=np.ones((65537, 3)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_decoupling_holds_on_random_families(seed):
    rng = np.random.default_rng(seed)
    mats = [rng.normal(size=(2, 3)) for _ in range(2)]
    assert check_symmetrization_decoupling(mats)["holds"]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_decoupling_rhs_is_the_exact_decoupled_chaos_law(seed, complex_entries):
    # The bilinear side comes from exact_chaos_distribution(decoupled=True);
    # it must equal the sup over all sign-pattern pairs written out here.
    rng = np.random.default_rng(seed)
    mats = [rng.normal(size=(2, 3)) + (1j * rng.normal(size=(2, 3)) if complex_entries else 0)
            for _ in range(3)]
    stack = np.stack([np.asarray(a, dtype=complex) for a in mats])
    grams = np.einsum("kmi,kmj->kij", stack.conj(), stack)
    signs = sign_patterns(3)
    bilinear_sup = np.abs(np.einsum("ai,kij,bj->kab", signs, grams, signs)).max(axis=0).ravel()
    out = check_symmetrization_decoupling(mats)
    for row in out["decoupling"]:
        p = row["p"]
        assert row["rhs"] == 4.0 * (bilinear_sup**p).mean() ** (1.0 / p)
