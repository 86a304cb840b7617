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
    CapacityError,
    ConvergenceError,
    DomainError,
    RipReport,
    build_dft,
    estimate_failure_probability,
    restricted_isometry_constant,
    sample_complexity,
    sample_selectors,
    subsampled_instance,
)
from chainbounds import errors, rip
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
    # N^2 > _TABLE_BUDGET: build_dft, and rip exact, whose flatness K reads all
    # N^2 entries, stop at once.  rip curve builds no N x N table: its largest
    # is the class table or the N s translates of one class, here the class
    # table of 45 entries for C(6, 2) classes of 3 at N = 7.
    monkeypatch.setattr(errors, "_TABLE_BUDGET", 44)
    with monkeypatch.context() as patched:
        patched.setattr(np, "outer", lambda *args: pytest.fail("built the matrix"))
        with pytest.raises(CapacityError, match=r"N = 7, an N\^2 table of 49 entries, .* 44$"):
            build_dft(7)
        assert main(["rip", "exact", "--N", "7", "--m", "3", "--s", "1", "--seed", "0",
                     "--out", str(tmp_path)]) == 2
        assert "N = 7, an N^2 table of 49 entries" in capsys.readouterr().err
        curve = ["rip", "curve", "--N", "7", "--delta", "0.5", "--m-list", "3", "--seed", "0",
                 "--out", str(tmp_path)]
        assert main(curve + ["--s", "3"]) == 2
        assert ("C(6, 2) supports of 3 indices holding 0, a table of 45 entries, above the "
                "budget of 44") in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
    monkeypatch.setattr(rip, "build_dft", lambda *args: pytest.fail("built the matrix"))
    monkeypatch.setattr(rip, "_gram", lambda *args: pytest.fail("built a Gram"))
    for s in ("1", "2"):  # 7 and max(2 C(6, 1), 2 7) = 14 entries
        assert main(curve + ["--s", s]) == 0


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
    monkeypatch.setattr(errors, "_TABLE_BUDGET", 1000)
    A = np.ones((2, 30))
    # the support table, C(30, 15) x 15 entries, is the largest
    with pytest.raises(CapacityError, match=r"^support enumeration refused: C\(30, 15\) supports "
                                            r"of 15 indices, a table of 2326762800 entries, above "
                                            r"the budget of 1000$"):
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
    # above delta_s = 1 the witness tolerance is relative
    RipReport(s=1, delta_s=1e7, witness_support=(0,), witness_direction=w, witness_value=1e7 + 1e-3)
    with pytest.raises(DomainError):
        RipReport(s=1, delta_s=1e7, witness_support=(0,), witness_direction=w, witness_value=1e7 + 1)


@pytest.mark.parametrize("seed", [0, 2])
def test_witness_check_is_relative_above_one(seed):
    # delta_s above 1e7: the rounding of both ||Ax||^2 - 1 and delta_s grows with ||A||^2
    A = 1e3 * np.random.default_rng(seed).normal(size=(6, 8))
    report = restricted_isometry_constant(A, 2)
    assert (report.delta_s, report.witness_support) == reference_delta(A, 2)


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


def test_selectors_deterministic_per_rep():
    a = sample_selectors(40, 10, seed=3, rep=5)
    b = sample_selectors(40, 10, seed=3, rep=5)
    c = sample_selectors(40, 10, seed=3, rep=6)
    np.testing.assert_array_equal(a, b)
    assert a.size != c.size or not np.array_equal(a, c)


def test_subsampled_instance_fields():
    # [DERIVED] frozen draw: seed 3 keeps rows (1, 2, 5, 6, 7) of the 8-point
    # Fourier matrix and attains delta_2 on support (3, 5)
    inst = subsampled_instance(8, m=4, seed=3)
    assert inst.I == (1, 2, 5, 6, 7)
    assert inst.realized_rows == 5
    assert inst.K == pytest.approx(1.0)
    np.testing.assert_allclose(inst.U_I, math.sqrt(8 / 4) * build_dft(8)[list(inst.I)])
    rep = inst.delta(2)
    assert rep.delta_s == pytest.approx(0.8090169943749479)
    assert rep.witness_support == (3, 5)


def test_subsampled_delta_one_closed_form():
    # every column of the rescaled row matrix has squared norm |I| / m
    for seed in (0, 1, 2, 3):
        inst = subsampled_instance(8, m=4, seed=seed)
        expected = abs(inst.realized_rows / 4 - 1.0)
        assert inst.delta(1).delta_s == pytest.approx(expected, abs=1e-12)


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


@pytest.mark.parametrize("eta", ["0.1", True])
def test_sample_complexity_names_a_non_numeric_eta(eta):
    # a string used to raise a bare TypeError from the range check, and True was taken as 1
    with pytest.raises(DomainError, match="eta must be a real number"):
        sample_complexity(s=2, K=1.0, delta=0.5, eta=eta, d1_fit=1.0, d2_fit=1.0, N=8)


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


def test_failure_probability_is_the_subsampled_dft_only():
    # the curve takes no matrix: a supplied U is an unknown argument
    with pytest.raises(TypeError, match="'U'"):
        estimate_failure_probability(8, 4, 2, 0.5, 10, 0, U=build_dft(8))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 8))
def test_subsampled_delta_bounded_by_gram_norm(seed, N, m):
    """delta_s never exceeds the worst full-Gram deviation ||A^H A - I||."""
    m = min(m, N)
    inst = subsampled_instance(N, m=m, seed=seed)
    full = float(np.abs(np.linalg.eigvalsh(inst.U_I.conj().T @ inst.U_I) - 1).max())
    s = min(2, N)
    assert inst.delta(s).delta_s <= full + 1e-10


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_seeds_are_checked_like_the_simulators(seed):
    calls = [
        lambda: sample_selectors(8, 4, seed),
        lambda: subsampled_instance(8, 4, seed),
        lambda: estimate_failure_probability(8, 4, 1, 0.5, 2, seed),
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


def reference_replication_deltas(N, m, s, reps, seed):
    """One exact constant per replication of the DFT's rescaled selected rows."""
    U = build_dft(N)
    draws = [sample_selectors(N, m, seed, rep) for rep in range(reps)]
    deltas = [reference_delta(math.sqrt(N / m) * U[I], s)[0] for I in draws]
    return np.array(deltas), sum(I.size for I in draws)


def assert_same_estimate(N, m, s, reps, seed):
    ref, realized = reference_replication_deltas(N, m, s, reps, seed)
    # thresholds at every realized value, and one ulp either side of the
    # first, make every tie count and land inside the circulant margin
    first = float(ref[0])
    thresholds = {0.0, 0.5, float(np.median(ref)), np.nextafter(first, 0.0),
                  np.nextafter(first, np.inf), *map(float, ref)}
    for delta in sorted(thresholds):
        got = estimate_failure_probability(N, m, s, delta, reps, seed)
        assert got["failures"] == int(np.count_nonzero(ref >= delta))
        assert got["mean_realized_rows"] == realized / reps


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 24), st.integers(1, 3), st.integers(1, 24), st.integers(0, 2**64 - 1),
       st.integers(1, 6))
def test_batched_monte_carlo_matches_per_replication_loop(N, s, m, seed, reps):
    assert_same_estimate(N, min(m, N), min(s, N), reps, seed)


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
    # C(8, 2) = 28 supports of 2 x 2 blocks; stacks one below, at and above the table size
    monkeypatch.setattr(errors, "_BLOCK_ENTRIES", 4 * (28 + offset))
    A = np.random.default_rng(5).normal(size=(6, 8))
    assert restricted_isometry_constant(A, 2).witness_support == reference_delta(A, 2)[1]
    assert restricted_isometry_constant(A, 2).delta_s == reference_delta(A, 2)[0]
    assert_same_estimate(8, 4, 2, 5, 11)
    # the DFT path's class and column stacks: N = 32 translates per class pass a block
    for s in (3, 4):
        assert_dft_instance_matches(32, 16, s, 7)
    assert estimate_failure_probability(16, 8, 2, 0.5, 200, 12345)["failures"] == 164


@pytest.mark.parametrize("block, reps", [(56, 1), (56, 2), (56, 3), (56, 6), (56, 7), (56, 8),
                                         (56, 15), (84, 5), (84, 6), (84, 7), (84, 9), (84, 10),
                                         (84, 11)])
def test_replication_chunk_boundaries(monkeypatch, block, reps):
    # block // max(N, C) replications per chunk, with N = 8 rows and C = 4
    # classes of size-2 supports: 7 at block 56 and 10 at block 84, with
    # reps on both sides of each
    monkeypatch.setattr(errors, "_BLOCK_ENTRIES", block)
    assert len(rip._classes(8, 2)) == 4
    assert_same_estimate(8, 3, 2, reps, 4)
    chunks, failures = [], rip._circulant_failures
    monkeypatch.setattr(rip, "_circulant_failures",
                        lambda keep, *args: chunks.append(len(keep)) or failures(keep, *args))
    estimate_failure_probability(8, 3, 2, 0.5, reps, 4)
    per_chunk = block // 8
    assert chunks == [min(per_chunk, reps - lo) for lo in range(0, reps, per_chunk)]


def test_failure_probability_rejects_before_any_draw(monkeypatch):
    draws = []
    monkeypatch.setattr(rip, "replication_rng", lambda *a: draws.append(a))
    monkeypatch.setattr(rip, "_replication_streams", lambda *a: draws.append(a))
    with pytest.raises(CapacityError):
        estimate_failure_probability(N=30, m=10, s=15, delta=0.5, reps=3, seed=0)
    with pytest.raises(DomainError):
        estimate_failure_probability(N=8, m=4, s=9, delta=0.5, reps=3, seed=0)
    # the N s = 16 translates of one class of 2 pass 15
    monkeypatch.setattr(errors, "_TABLE_BUDGET", 15)
    with pytest.raises(CapacityError, match=r"^support enumeration refused: C\(7, 1\) supports of "
                                            r"2 indices holding 0, a table of 16 entries, above "
                                            r"the budget of 15$"):
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
    # the class tables the benchmark's rip commands read stay cached, and so
    # do the support tables of a supplied matrix of the same sizes
    for N, s in ((32, 3), (16, 2)):
        assert rip._classes(N, s) is rip._classes(N, s)
        assert rip._supports(N, s) is rip._supports(N, s)
    monkeypatch.setattr(errors, "_BLOCK_ENTRIES", math.comb(7, 3) * 3)
    assert rip._supports(7, 3) is rip._supports(7, 3)
    monkeypatch.setattr(errors, "_BLOCK_ENTRIES", math.comb(7, 3) * 3 - 1)
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


# ---------------------------------------------------------------------------
# the subsampled DFT through its circulant Gram


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_circulant_gram_equals_the_einsum_gram(N, m, seed):
    m = min(m, N)
    keep = np.random.default_rng(seed).random((3, N)) < m / N
    g = rip._circulant_rows(keep, m)
    lags = (np.arange(N)[None, :] - np.arange(N)[:, None]) % N  # G_kl = g[(l - k) mod N]
    A = math.sqrt(N / m) * build_dft(N)
    einsum = np.einsum("ri,ik,il->rkl", keep, A.conj(), A)  # each draw's kept rows' Gram
    # _circulant_margin takes the two Grams' entries to agree within
    # 32 N eps max |g|; 1e-13 floors that bound at small N
    scale = max(1.0, float(np.abs(g).max()))
    bound = max(1e-13, 32 * N * np.finfo(float).eps) * scale
    assert np.abs(g[:, lags] - einsum).max() <= bound


def assert_dft_instance_matches(N, m, s, seed):
    """The instance and its constant are those of the rescaled rows of build_dft(N), bit for bit."""
    ours, I = subsampled_instance(N, m, seed), sample_selectors(N, m, seed)
    A = math.sqrt(N / m) * build_dft(N)[I]
    assert (ours.I, ours.K) == (tuple(I), math.sqrt(N) * float(np.abs(build_dft(N)).max()))
    assert ours.U_I.tobytes() == A.tobytes()
    a, b = ours.delta(s), restricted_isometry_constant(A, s)
    assert (a.delta_s, a.witness_support, a.witness_value) == (
        b.delta_s, b.witness_support, b.witness_value)
    assert a.witness_direction.tobytes() == b.witness_direction.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 32), st.integers(1, 32), st.integers(1, 4), st.integers(0, 2**64 - 1))
def test_dft_constant_is_the_enumeration_bit_for_bit(N, m, s, seed):
    assert_dft_instance_matches(N, min(m, N), min(s, N), seed)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_dft_constant_on_all_and_no_rows(s):
    # every row kept: G = I up to rounding and every class ties within the
    # margin; no row kept: every delta_S is exactly 1
    assert_dft_instance_matches(12, 12, s, 3)
    seed = next(seed for seed in itertools.count() if sample_selectors(12, 1, seed).size == 0)
    assert_dft_instance_matches(12, 1, s, seed)


@pytest.mark.parametrize("N, s", [(N, s) for N in (8, 12, 16, 24, 32, 48, 64) for s in (1, 2, 3)
                                  if s < 3 or N <= 32])
def test_dft_failure_counts_are_the_enumerations(N, s):
    for m in sorted({max(1, N // 4), N // 2, 3 * N // 4, N}):
        ref, realized = reference_replication_deltas(N, m, s, 40, N + m)
        for delta in (0.25, 0.5, 1.0):
            ours = estimate_failure_probability(N, m, s, delta, 40, N + m)
            assert ours["failures"] == int(np.count_nonzero(ref >= delta))
            assert ours["mean_realized_rows"] == realized / 40


def test_dft_failure_counts_through_exact_ties():
    # At N = 16, m = 8 and seed 12345, 11 of 200 draws have a delta_2 within
    # 1e-9 of 0.5, so their counts follow the kernel's last bits.
    streams = rip._replication_streams(12345)
    keep = np.array([rip._selector_mask(streams(rep), 16, 8) for rep in range(200)])
    g = rip._circulant_rows(keep, 8)
    top = rip._class_deltas(g, rip._classes(16, 2)).max(axis=1)
    assert np.count_nonzero(np.abs(top - 0.5) <= 1e-9) == 11
    assert np.count_nonzero(np.abs(top - 0.5) <= rip._circulant_margin(g, 2)) == 11
    ref, _ = reference_replication_deltas(16, 8, 2, 200, 12345)
    assert np.count_nonzero(ref >= 0.5) == 164
    assert estimate_failure_probability(16, 8, 2, 0.5, 200, 12345)["failures"] == 164


def test_the_dft_path_builds_no_n_by_n_table(monkeypatch):
    for name in ("build_dft", "_gram", "_supports"):
        monkeypatch.setattr(rip, name, lambda *args, name=name: pytest.fail(f"called {name}"))
    assert estimate_failure_probability(64, 32, 3, 0.9, 20, 1)["reps"] == 20
    assert subsampled_instance(64, 16, 1).delta(3).s == 3
    # every row kept: every class ties within the margin, and s = 1 has one class
    for N, s in ((32, 2), (12, 2), (16, 1)):
        assert subsampled_instance(N, N, 1).delta(s).s == s
    # past build_dft's N = 2048: one FFT per draw, and a 2 x 4095 class table
    assert estimate_failure_probability(4096, 2048, 2, 0.5, 5, 1)["failures"] == 0


@pytest.mark.parametrize("N, m", [(32, 16), (32, 32)])
def test_the_dft_constant_gathers_its_instance_columns(monkeypatch, N, m):
    # the instance holds U_I, so the kernel reruns read its columns and
    # compute no Fourier entry; every row kept reruns every class
    inst = subsampled_instance(N, m, 1234567)
    full = restricted_isometry_constant(inst.U_I, 3)
    monkeypatch.setattr(rip, "_dft_entries", lambda *args: pytest.fail("computed entries"))
    report = inst.delta(3)
    assert (report.delta_s, report.witness_support, report.witness_value) == (
        full.delta_s, full.witness_support, full.witness_value)
    assert report.witness_direction.tobytes() == full.witness_direction.tobytes()


def test_dft_instance_checks_its_size():
    with pytest.raises(DomainError, match="N must be"):
        subsampled_instance(None, 2, 0)
    with pytest.raises(CapacityError, match="discrete Fourier matrix refused: N = 2049"):
        subsampled_instance(2049, 2, 0)
    with pytest.raises(DomainError, match="s must be"):
        subsampled_instance(4, 2, 0).delta(5)
    # the supplied-unitary call forms are gone, and fail loudly
    with pytest.raises(TypeError):
        subsampled_instance(None, 2, 0, N=8)
    with pytest.raises(DomainError, match="^N must be an integer"):
        subsampled_instance(build_dft(8), 2, 0)


def test_instance_rows_are_read_only():
    # delta reads its supports off I, so rows written in place would be
    # reported under the old draw's supports
    inst = subsampled_instance(32, 16, 1234567)
    with pytest.raises(ValueError, match="read-only"):
        inst.U_I *= 2
    assert inst.delta(3).delta_s == restricted_isometry_constant(inst.U_I, 3).delta_s
