"""Subsampled-unitary restricted isometry: exact constants and Monte Carlo."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbounds import (
    BosSystem,
    CapacityError,
    ConvergenceError,
    DomainError,
    ModelError,
    RipReport,
    build_dft,
    check_bos,
    estimate_failure_probability,
    restricted_isometry_constant,
    sample_complexity,
    sample_selectors,
    subsample,
    subsampled_instance,
)
from chainbounds import chaining, rip
from chainbounds.cli import main


def test_dft_two_by_two_exact():
    U = build_dft(2)
    np.testing.assert_allclose(
        U * math.sqrt(2), np.array([[1, 1], [1, -1]], dtype=complex), atol=1e-14
    )


@pytest.mark.parametrize("N", [1, 2, 3, 8, 16])
def test_dft_is_unitary_and_flat(N):
    U = build_dft(N)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(N), atol=1e-12)
    # every entry has modulus exactly 1/sqrt(N)
    np.testing.assert_allclose(np.abs(U), 1.0 / math.sqrt(N), atol=1e-12)


def test_dft_rejects_bad_size():
    with pytest.raises(DomainError):
        build_dft(0)


def test_dft_past_the_table_budget_is_refused_before_it_is_built(monkeypatch, tmp_path, capsys):
    # N^2 > _TABLE_BUDGET (N > 2048): one N x N complex matrix at N = 50000
    # alone would take 40 GB, so rip exact and rip curve stop at once.
    monkeypatch.setattr(chaining, "_TABLE_BUDGET", 48)
    monkeypatch.setattr(np, "outer", lambda *args: pytest.fail("built the matrix"))
    with pytest.raises(CapacityError, match=r"N = 7, an N\^2 table of 49 entries, .* 48$"):
        build_dft(7)
    for argv in (["rip", "exact", "--N", "7", "--m", "3", "--s", "1", "--seed", "0"],
                 ["rip", "curve", "--N", "7", "--s", "1", "--delta", "0.5", "--m-list", "3",
                  "--seed", "0"]):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "N = 7, an N^2 table of 49 entries" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# exact restricted isometry constants


def test_delta_of_unitary_is_zero():
    U = build_dft(8)
    for s in (1, 2, 3):
        assert restricted_isometry_constant(U, s).delta_s <= 1e-10


def test_delta_rank_deficient_matrix():
    # Columns e1 and 0: the second support annihilates its unit vector.
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep1 = restricted_isometry_constant(A, 1)
    assert rep1.delta_s == pytest.approx(1.0)
    assert rep1.witness_support == (1,)
    rep2 = restricted_isometry_constant(A, 2)
    assert rep2.delta_s == pytest.approx(1.0)


def test_delta_matches_support_eigenvalue_oracle():
    # [DERIVED] independent route: spectral radius of (gram - I) per support
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    A /= np.linalg.norm(A, axis=0).max()
    for s in (1, 2, 3):
        oracle = max(
            np.abs(np.linalg.eigvalsh(A[:, list(S)].conj().T @ A[:, list(S)]) - 1).max()
            for S in itertools.combinations(range(5), s)
        )
        assert restricted_isometry_constant(A, s).delta_s == pytest.approx(float(oracle))


def test_delta_nondecreasing_in_sparsity():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(4, 6)) / 2.0
    deltas = [restricted_isometry_constant(A, s).delta_s for s in (1, 2, 3, 4)]
    assert all(a <= b + 1e-12 for a, b in zip(deltas, deltas[1:]))


def test_delta_witness_reproduces_value():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(4, 6))
    rep = restricted_isometry_constant(A, 2)
    w = rep.witness_direction
    assert np.linalg.norm(w) == pytest.approx(1.0)
    assert sorted(np.flatnonzero(np.abs(w) > 1e-12)) == sorted(rep.witness_support)
    assert abs(abs(np.linalg.norm(A @ w) ** 2 - 1.0) - rep.delta_s) <= 1e-9


def test_delta_enumeration_cap(monkeypatch):
    monkeypatch.setattr(rip, "ENUMERATION_CAP", 1000)
    A = np.ones((2, 30))
    with pytest.raises(CapacityError):
        restricted_isometry_constant(A, 15)


def test_delta_input_validation():
    with pytest.raises(DomainError):
        restricted_isometry_constant(np.ones((2, 2)), 3)
    with pytest.raises(DomainError):
        restricted_isometry_constant(np.ones((2, 2)), 0)
    with pytest.raises(DomainError):
        restricted_isometry_constant(np.ones((2, 0)), 1)


def test_rip_report_invariants():
    w = np.array([1.0, 0.0])
    with pytest.raises(DomainError):
        RipReport(s=1, delta_s=-0.1, witness_support=(0,), witness_direction=w, witness_value=-0.1)
    with pytest.raises(DomainError):
        RipReport(s=1, delta_s=0.5, witness_support=(0,), witness_direction=w, witness_value=0.9)


# ---------------------------------------------------------------------------
# selectors and subsampled instances


def test_selectors_are_valid_index_sets():
    I = sample_selectors(50, 20, seed=4)
    assert I.dtype.kind == "i"
    assert np.all(np.diff(I) > 0)
    assert I.size == 0 or (I.min() >= 0 and I.max() < 50)
    assert sample_selectors(5, 0, 0).size == 0
    assert sample_selectors(5, 5, 0).size == 5  # Bernoulli(1) keeps everything


def test_selectors_expected_count():
    # |I| ~ Binomial(100, 0.3); the mean over 200 reps should sit within
    # four standard errors of 30.
    sizes = [sample_selectors(100, 30, seed=9, rep=r).size for r in range(200)]
    se = math.sqrt(100 * 0.3 * 0.7 / 200)
    assert abs(np.mean(sizes) - 30.0) <= 4 * se


@pytest.mark.parametrize("rep", [-1, 1.5, 2**64])
def test_selectors_reject_a_bad_rep(rep):
    with pytest.raises(DomainError, match="rep must be"):
        sample_selectors(8, 3, 1, rep=rep)
    with pytest.raises(DomainError, match="rep must be"):
        subsampled_instance(build_dft(8), 3, 1, rep=rep)


def test_selectors_deterministic_per_rep():
    a = sample_selectors(40, 10, seed=3, rep=5)
    b = sample_selectors(40, 10, seed=3, rep=5)
    c = sample_selectors(40, 10, seed=3, rep=6)
    np.testing.assert_array_equal(a, b)
    assert a.size != c.size or not np.array_equal(a, c)


def test_subsample_scaling():
    U = build_dft(4)
    A = subsample(U, [0, 2], m=2)
    np.testing.assert_allclose(A, math.sqrt(2.0) * U[[0, 2]])
    with pytest.raises(DomainError):
        subsample(U, [0, 4], m=2)


def test_subsampled_instance_fields():
    # [DERIVED] frozen draw: seed 3 keeps rows (1, 2, 5, 6, 7) of the 8-point
    # Fourier matrix and attains delta_2 on support (3, 5)
    inst = subsampled_instance(build_dft(8), m=4, seed=3)
    assert inst.I == (1, 2, 5, 6, 7)
    assert inst.realized_rows == 5
    assert inst.K == pytest.approx(1.0)
    np.testing.assert_allclose(inst.U_I, subsample(inst.U, list(inst.I), 4))
    rep = inst.delta(2)
    assert rep.delta_s == pytest.approx(0.8090169943749479)
    assert rep.witness_support == (3, 5)


def test_subsampled_delta_one_closed_form():
    # every column of the rescaled row matrix has squared norm |I| / m
    for seed in (0, 1, 2, 3):
        inst = subsampled_instance(build_dft(8), m=4, seed=seed)
        expected = abs(inst.realized_rows / 4 - 1.0)
        assert inst.delta(1).delta_s == pytest.approx(expected, abs=1e-12)


def test_subsampled_instance_flatness_declaration():
    U = build_dft(4)
    with pytest.raises(DomainError):
        subsampled_instance(U, m=2, seed=0, K=0.5)
    inst = subsampled_instance(U, m=2, seed=0, K=2.0)
    assert inst.K == 2.0


def test_subsampled_instance_rejects_non_unitary():
    with pytest.raises(DomainError):
        subsampled_instance(np.ones((3, 3)), m=2, seed=0)


# ---------------------------------------------------------------------------
# sample-count solver


def test_sample_complexity_matches_linear_scan():
    got = sample_complexity(s=2, K=1.0, delta=0.5, eta=0.01, d1_fit=1.0, d2_fit=1.0, N=8)
    lead = 2 * 1.0 / 0.25

    def satisfied(m):
        return m >= lead * max(math.log(2) ** 2 * math.log(8) * math.log(m), math.log(100))

    scan = next(m for m in range(1, 10_000) if satisfied(m))
    assert got == scan == 37
    assert not satisfied(got - 1)


def test_sample_complexity_monotone():
    base = dict(s=4, K=1.0, eta=0.05, d1_fit=1.0, d2_fit=1.0, N=64)
    assert sample_complexity(delta=0.25, **base) >= sample_complexity(delta=0.5, **base)
    tight = sample_complexity(s=4, K=1.0, delta=0.5, eta=1e-12, d1_fit=1.0, d2_fit=1.0, N=64)
    loose = sample_complexity(s=4, K=1.0, delta=0.5, eta=0.5, d1_fit=1.0, d2_fit=1.0, N=64)
    assert tight >= loose


def test_sample_complexity_validation():
    with pytest.raises(DomainError):
        sample_complexity(s=0, K=1.0, delta=0.5, eta=0.1, d1_fit=1.0, d2_fit=1.0, N=8)
    with pytest.raises(DomainError):
        sample_complexity(s=2, K=1.0, delta=0.0, eta=0.1, d1_fit=1.0, d2_fit=1.0, N=8)
    with pytest.raises(DomainError):
        sample_complexity(s=2, K=1.0, delta=0.5, eta=1.5, d1_fit=1.0, d2_fit=1.0, N=8)


def test_sample_complexity_overflow_guard():
    # ln^2(1) = 0 kills the log branch, so m* = lead * d2 ln(1/eta) > 2^60
    with pytest.raises(ConvergenceError):
        sample_complexity(s=1, K=1e6, delta=1e-6, eta=math.exp(-100), d1_fit=1.0, d2_fit=1.0, N=8)


# ---------------------------------------------------------------------------
# Monte Carlo failure probability


def test_failure_probability_deterministic():
    kwargs = dict(N=8, m=4, s=2, delta=0.7, reps=25, seed=5)
    a = estimate_failure_probability(**kwargs)
    b = estimate_failure_probability(**kwargs)
    assert a == b
    assert a["ci_lower"] <= a["estimate"] <= a["ci_upper"]
    assert 0 < a["mean_realized_rows"] < 8


def test_failure_probability_zero_threshold_always_fails():
    out = estimate_failure_probability(N=6, m=3, s=1, delta=0.0, reps=20, seed=1)
    assert out["estimate"] == 1.0
    assert out["failures"] == 20
    assert out["ci_upper"] == 1.0


def test_failure_probability_monotone_in_delta():
    lo = estimate_failure_probability(N=8, m=4, s=2, delta=0.4, reps=30, seed=2)
    hi = estimate_failure_probability(N=8, m=4, s=2, delta=0.9, reps=30, seed=2)
    assert hi["failures"] <= lo["failures"]


def test_failure_probability_validation():
    with pytest.raises(DomainError):
        estimate_failure_probability(N=8, m=9, s=2, delta=0.5, reps=5, seed=0)
    with pytest.raises(DomainError):
        estimate_failure_probability(N=8, m=4, s=2, delta=-0.5, reps=5, seed=0)
    with pytest.raises(DomainError):
        estimate_failure_probability(N=8, m=4, s=2, delta=0.5, reps=0, seed=0)


# ---------------------------------------------------------------------------
# bounded orthonormal systems


def test_check_bos_accepts_scaled_fourier_rows():
    N = 3
    sys = check_bos(math.sqrt(N) * build_dft(N), K=1.0)
    assert isinstance(sys, BosSystem)
    assert sys.dimension == N
    assert sys.K == 1.0
    np.testing.assert_allclose(sys.weights, np.full(N, 1 / N))


def test_check_bos_flatness_rejection():
    with pytest.raises(ModelError):
        check_bos(math.sqrt(2) * build_dft(2), K=0.5)


def test_check_bos_isotropy_rejection():
    rows = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ModelError):
        check_bos(rows, K=1.0)


def test_check_bos_weight_validation():
    rows = math.sqrt(2) * build_dft(2)
    with pytest.raises(DomainError):
        check_bos(rows, K=1.0, weights=[0.7, 0.7])
    with pytest.raises(DomainError):
        check_bos(rows, K=1.0, weights=[1.5, -0.5])
    with pytest.raises(DomainError):
        check_bos(rows, K=0.0)


def test_check_bos_nonuniform_weights():
    # rows (sqrt(2), 0) and (0, sqrt(2)) with weights 1/2 are isotropic
    rows = math.sqrt(2.0) * np.eye(2)
    sys = check_bos(rows, K=math.sqrt(2.0), weights=[0.5, 0.5])
    assert sys.dimension == 2


def test_bos_sample_matrix():
    N = 3
    sys = check_bos(math.sqrt(N) * build_dft(N), K=1.0)
    M = sys.sample_matrix(4, seed=2)
    assert M.shape == (4, N)
    # each drawn row keeps squared norm N/m
    np.testing.assert_allclose((np.abs(M) ** 2).sum(axis=1), N / 4.0)
    np.testing.assert_allclose(M, sys.sample_matrix(4, seed=2))
    assert not np.allclose(M, sys.sample_matrix(4, seed=3))
    with pytest.raises(DomainError, match="rep must be"):
        sys.sample_matrix(4, seed=2, rep=-1)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 8))
def test_subsampled_delta_bounded_by_gram_norm(seed, N, m):
    """delta_s never exceeds the worst full-Gram deviation ||A^H A - I||."""
    m = min(m, N)
    inst = subsampled_instance(build_dft(N), m=m, seed=seed)
    full = float(np.abs(np.linalg.eigvalsh(inst.U_I.conj().T @ inst.U_I) - 1).max())
    s = min(2, N)
    assert inst.delta(s).delta_s <= full + 1e-10


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_seeds_are_checked_like_the_simulators(seed):
    U = build_dft(8)
    system = check_bos(math.sqrt(8) * U, K=1.0)
    calls = [
        lambda: sample_selectors(8, 4, seed),
        lambda: subsampled_instance(U, 4, seed),
        lambda: estimate_failure_probability(8, 4, 1, 0.5, 2, seed),
        lambda: system.sample_matrix(4, seed),
        lambda: check_bos(math.sqrt(8) * U, K=1.0, seed=seed),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_largest_seed_is_accepted():
    assert sample_selectors(8, 4, 2**64 - 1).size <= 8


# ---------------------------------------------------------------------------
# the batched kernel against the per-support, per-replication loops it replaced


def reference_delta(A, s, batch=4096):
    """The chunked enumeration: one einsum over the selected columns per chunk."""
    A = np.asarray(A, dtype=complex)
    best_delta, best_support = -1.0, None
    combos = itertools.combinations(range(A.shape[1]), s)
    while True:
        chunk = list(itertools.islice(combos, batch))
        if not chunk:
            break
        supports = np.array(chunk, dtype=int)
        cols = A[:, supports]
        w = np.linalg.eigvalsh(np.einsum("rbi,rbj->bij", cols.conj(), cols))
        deltas = np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0])
        k = int(np.argmax(deltas))
        if deltas[k] > best_delta:
            best_delta, best_support = float(deltas[k]), tuple(int(i) for i in supports[k])
    return best_delta, best_support


def reference_replication_deltas(N, m, s, reps, seed, U=None):
    """One exact constant per replication of the rescaled selected rows."""
    U = build_dft(N) if U is None else U
    draws = [sample_selectors(N, m, seed, rep) for rep in range(reps)]
    deltas = [reference_delta(subsample(U, I, m), s)[0] for I in draws]
    return np.array(deltas), sum(I.size for I in draws)


def batched_replication_deltas(N, m, s, reps, seed, U=None):
    U = build_dft(N) if U is None else U
    keep = np.array([rip._selector_mask(rip.replication_rng(seed, rep), N, m)
                     for rep in range(reps)])
    A = math.sqrt(N / m) * U
    supports = rip._supports(N, s)
    rows = np.repeat(np.arange(reps), len(supports))
    blocks = rip._block_deltas(rip._grams(keep, A, s), rows, np.tile(supports, (reps, 1)))
    return blocks.reshape(reps, -1).max(axis=1)


def assert_same_estimate(N, m, s, reps, seed, U=None):
    ref, realized = reference_replication_deltas(N, m, s, reps, seed, U)
    np.testing.assert_array_equal(batched_replication_deltas(N, m, s, reps, seed, U), ref)
    # thresholds at every realized value, and one ulp either side of the
    # first, make every tie count and land inside the screen's margin
    first = float(ref[0])
    thresholds = {0.0, 0.5, float(np.median(ref)), np.nextafter(first, 0.0),
                  np.nextafter(first, np.inf), *map(float, ref)}
    for delta in sorted(thresholds):
        got = estimate_failure_probability(N, m, s, delta, reps, seed, U=U)
        assert got["failures"] == int(np.count_nonzero(ref >= delta))
        assert got["mean_realized_rows"] == realized / reps


def random_unitary(N, seed):
    """A Haar unitary: the Q factor of a complex Gaussian matrix, phases fixed by R."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 24), st.integers(1, 3), st.integers(1, 24), st.integers(0, 2**64 - 1),
       st.integers(1, 6))
def test_batched_monte_carlo_matches_per_replication_loop(N, s, m, seed, reps):
    assert_same_estimate(N, min(m, N), min(s, N), reps, seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.integers(1, 5))
def test_screened_monte_carlo_matches_on_random_unitaries(N, s, m, seed, reps):
    assert_same_estimate(N, min(m, N), min(s, N), reps, seed, U=random_unitary(N, seed))


def assert_brackets_hold(grams, s):
    """low <= the eigvalsh value <= high on every (replication, support) block."""
    N = grams.shape[1]
    supports = rip._supports(N, s)
    low, high = rip._support_brackets(grams, supports)
    R = grams.shape[0]
    rows = np.repeat(np.arange(R), len(supports))
    deltas = rip._block_deltas(grams, rows, np.tile(supports, (R, 1))).reshape(R, -1)
    assert (low <= deltas).all() and (deltas <= high).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.integers(1, 9), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-3, 0.1, 0.5, 1.0, 3.0, 1e3]))
def test_brackets_hold_on_random_matrices(rows, N, s, seed, scale):
    rng = np.random.default_rng(seed)
    A = scale * (rng.normal(size=(rows, N)) + 1j * rng.normal(size=(rows, N)))
    assert_brackets_hold(rip._grams(np.ones((1, rows)), A, min(s, N)), min(s, N))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(1, 4), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_brackets_hold_on_subsampled_unitaries(N, s, m, seed):
    s, m = min(s, N), min(m, N)
    keep = np.random.default_rng(seed).random((4, N)) < m / N
    for U in (random_unitary(N, seed), build_dft(N)):
        assert_brackets_hold(rip._grams(keep, math.sqrt(N / m) * U, s), s)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.integers(1, 24), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.sampled_from([0.1, 0.5, 1.0]))
def test_batched_constant_matches_chunked_enumeration(rows, N, s, seed, scale):
    rng = np.random.default_rng(seed)
    A = scale * (rng.normal(size=(rows, N)) + 1j * rng.normal(size=(rows, N)))
    s = min(s, N)
    report = restricted_isometry_constant(A, s)
    assert (report.delta_s, report.witness_support) == reference_delta(A, s)


@pytest.mark.parametrize("A", [np.zeros((0, 5)), np.zeros((3, 4)), np.ones((2, 6)) / 2])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_batched_constant_on_degenerate_matrices(A, s):
    report = restricted_isometry_constant(A, s)
    assert (report.delta_s, report.witness_support) == reference_delta(A, s)


@pytest.mark.parametrize("N, m, seed", [(8, 4, 0), (8, 2, 1), (8, 2, 4), (12, 4, 3), (16, 8, 2)])
def test_s1_ties_count_like_the_loop(N, m, seed):
    # delta_1 = ||I|/m - 1| lands on 0.5 up to rounding, so the failure count
    # at delta = 0.5 follows the last bit of every column sum
    assert_same_estimate(N, m, 1, 100, seed)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_support_chunk_boundaries(monkeypatch, offset):
    # C(8, 2) = 28 supports; _BATCH one below, at and above the table size
    monkeypatch.setattr(rip, "_BATCH", 28 + offset)
    A = np.random.default_rng(5).normal(size=(6, 8))
    assert restricted_isometry_constant(A, 2).witness_support == reference_delta(A, 2)[1]
    assert restricted_isometry_constant(A, 2).delta_s == reference_delta(A, 2)[0]
    assert_same_estimate(8, 4, 2, 5, 11)


@pytest.mark.parametrize("batch, reps", [(56, 1), (56, 2), (56, 3), (84, 5), (84, 6), (84, 7)])
def test_replication_chunk_boundaries(monkeypatch, batch, reps):
    # _BATCH // 28 replications per chunk: 2 or 3, with reps around it
    monkeypatch.setattr(rip, "_BATCH", batch)
    assert_same_estimate(8, 3, 2, reps, 4)


def test_failure_probability_rejects_before_any_draw(monkeypatch):
    draws = []
    monkeypatch.setattr(rip, "replication_rng", lambda *a: draws.append(a))
    monkeypatch.setattr(rip, "_replication_streams", lambda *a: draws.append(a))
    with pytest.raises(CapacityError):
        estimate_failure_probability(N=30, m=10, s=15, delta=0.5, reps=3, seed=0)
    with pytest.raises(DomainError):
        estimate_failure_probability(N=8, m=4, s=9, delta=0.5, reps=3, seed=0)
    monkeypatch.setattr(rip, "ENUMERATION_CAP", 27)  # C(8, 2) = 28 supports
    with pytest.raises(CapacityError):
        estimate_failure_probability(N=8, m=4, s=2, delta=0.5, reps=3, seed=0)
    assert draws == []


def test_support_table_is_cached_and_read_only():
    table = rip._supports(7, 3)
    assert rip._supports(7, 3) is table
    assert table.dtype == np.intp and table.shape == (math.comb(7, 3), 3)
    assert [tuple(row) for row in table.tolist()] == list(itertools.combinations(range(7), 3))
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 6


def test_only_small_support_tables_stay_cached(monkeypatch):
    # the tables the benchmark's rip commands read stay cached
    for N, s in ((32, 3), (16, 2)):
        assert rip._supports(N, s) is rip._supports(N, s)
    monkeypatch.setattr(rip, "_CACHED_ENTRIES", math.comb(7, 3) * 3)
    assert rip._supports(7, 3) is rip._supports(7, 3)
    monkeypatch.setattr(rip, "_CACHED_ENTRIES", math.comb(7, 3) * 3 - 1)
    table = rip._supports(7, 3)
    assert rip._supports(7, 3) is not table
    assert np.array_equal(rip._supports(7, 3), table) and not table.flags.writeable


def test_large_support_tables_are_not_kept_once_used():
    # C(24, 6) = 134,596 supports of 6 indices are 6.5 MB, C(22, 7) 9.6 MB
    gc.collect()
    tracemalloc.start()
    try:
        for N, s in ((24, 6), (22, 7)):
            assert rip._supports(N, s).shape == (math.comb(N, s), s)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2**20


def test_failure_probability_screens_each_chunk_once(monkeypatch):
    # One bracket pass per chunk of _BATCH // C(N, s) replications, then one
    # eigvalsh pass on exactly the blocks whose high reaches delta in the
    # replications no low has already failed, each block once.
    delta = 0.5
    chunks, blocks = [], []
    brackets, kernel = rip._support_brackets, rip._block_deltas

    def bracket(grams, supports):
        chunks.append((grams, brackets(grams, supports)))
        return chunks[-1][1]

    def deltas(grams, rows, supports):
        blocks.append((len(chunks) - 1, rows, supports))
        return kernel(grams, rows, supports)

    monkeypatch.setattr(rip, "_support_brackets", bracket)
    monkeypatch.setattr(rip, "_block_deltas", deltas)
    estimate_failure_probability(N=16, m=8, s=2, delta=delta, reps=200, seed=1)
    assert [len(grams) for grams, _ in chunks] == [34] * 5 + [30]
    assert [k for k, _, _ in blocks] == list(range(6))
    table = rip._supports(16, 2)
    index = {tuple(S): c for c, S in enumerate(table.tolist())}
    evaluated, open_blocks = [], set()
    for k, rows, supports in blocks:
        low, high = chunks[k][1]
        open_rows = ~(low >= delta).any(axis=1)
        evaluated += [(k, r, index[tuple(S)]) for r, S in zip(rows.tolist(), supports.tolist())]
        open_blocks |= {(k, int(r), int(c)) for r, c in zip(*np.nonzero(high >= delta))
                        if open_rows[r]}
    assert len(evaluated) == len(set(evaluated))
    assert set(evaluated) == open_blocks
    assert len(evaluated) < 200 * len(table) // 50  # under 2% of the 24,000 blocks


def test_batched_constant_matches_up_to_the_einsum_buffer():
    # 8192 rows, numpy's einsum buffer: the documented reach of bit-equality
    A = np.random.default_rng(8).normal(size=(8192, 6)) / 90.0
    for s in (1, 2, 3):
        report = restricted_isometry_constant(A, s)
        assert (report.delta_s, report.witness_support) == reference_delta(A, s)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_rejected(bad):
    A = np.ones((2, 3))
    A[1, 2] = bad
    with pytest.raises(DomainError, match="finite"):
        restricted_isometry_constant(A, 1)
    U = build_dft(4)
    U[0, 0] = bad
    with pytest.raises(DomainError, match="finite"):
        estimate_failure_probability(4, 2, 1, 0.5, 3, 0, U=U)
    with pytest.raises(DomainError, match="finite"):
        subsampled_instance(U, 2, 0)


@pytest.mark.parametrize("N, m, seed", [(1, 1, 0), (8, 3, 4), (17, 16, 2**64 - 1), (64, 5, 12345),
                                        (257, 100, 7)])
def test_reset_streams_draw_every_selector_mask_of_a_new_stream(N, m, seed):
    # one Philox, reset per replication, in and out of order and repeated
    streams = rip._replication_streams(seed)
    reps = list(range(40)) + [2**40, 3, 39, 0, 2**62, 5, 5]
    for rep in reps:
        ours = rip._selector_mask(streams(rep), N, m)
        fresh = rip._selector_mask(rip.replication_rng(seed, rep), N, m)
        np.testing.assert_array_equal(ours, fresh)


def test_reset_stream_forgets_a_half_used_buffer():
    # 32-bit draws leave half a word buffered; the next replication must not see it
    streams = rip._replication_streams(9)
    for rep in (0, 1, 1, 2):
        rng = streams(rep)
        fresh = rip.replication_rng(9, rep)
        np.testing.assert_array_equal(rng.integers(0, 7, 3, dtype=np.int32),
                                      fresh.integers(0, 7, 3, dtype=np.int32))
        np.testing.assert_array_equal(rng.random(5), fresh.random(5))
