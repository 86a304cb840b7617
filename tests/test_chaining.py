"""Admissible sequences and the order-p chaining functionals."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbounds import (
    DomainError,
    admissible_partitions,
    admissible_sets,
    build_metric_space,
    functional_value,
    gamma_exact,
    gamma_greedy,
    gamma_prime,
    greedy_admissible_sequence,
    level_capacity,
    merge_partitions,
    space_from_points,
    truncation_level,
)
from chainbounds import chaining

TWO = build_metric_space([[0, 1], [1, 0]])
TRIANGLE = build_metric_space([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
SQUARE = space_from_points([[0, 0], [1, 0], [0, 1], [1, 1]])


def random_space(seed, n, dim=3):
    rng = np.random.default_rng(seed)
    return space_from_points(rng.normal(size=(n, dim)))


def test_level_capacity_values():
    assert [level_capacity(n) for n in range(4)] == [1, 4, 16, 256]
    with pytest.raises(DomainError):
        level_capacity(-1)


def test_truncation_level():
    assert truncation_level(1.0) == 0
    assert truncation_level(1.9) == 0
    assert truncation_level(2.0) == 1
    assert truncation_level(4.0) == 2
    assert truncation_level(32.0) == 5
    with pytest.raises(DomainError):
        truncation_level(0.5)


def test_admissible_sets_validation():
    with pytest.raises(DomainError):
        admissible_sets(TRIANGLE, [(0, 1)])  # level 0 cap is 1
    with pytest.raises(DomainError):
        admissible_sets(TRIANGLE, [(0,), ()])
    with pytest.raises(DomainError):
        admissible_sets(TRIANGLE, [(5,)])
    seq = admissible_sets(TRIANGLE, [(0,), (0, 1, 2)])
    assert seq.covers_space()
    assert seq.level(7) == (0, 1, 2)  # repeat-last convention


def test_admissible_partitions_validation():
    ok = admissible_partitions(TRIANGLE, [[(0, 1, 2)], [(0,), (1, 2)]])
    assert ok.depth == 2
    with pytest.raises(DomainError):  # level 0 not trivial
        admissible_partitions(TRIANGLE, [[(0,), (1, 2)]])
    with pytest.raises(DomainError):  # not a refinement
        admissible_partitions(
            TRIANGLE, [[(0, 1, 2)], [(0, 1), (2,)], [(0,), (1, 2)]]
        )
    with pytest.raises(DomainError):  # does not cover
        admissible_partitions(TRIANGLE, [[(0, 1)]])


def test_functional_value_two_points():
    seq = admissible_sets(TWO, [(0,), (0, 1)])
    assert functional_value(TWO, seq, 2.0) == pytest.approx(1.0)
    assert functional_value(TWO, seq, 1.0) == pytest.approx(1.0)
    # truncation at p = 2 skips level 0, and level 1 covers both points
    assert functional_value(TWO, seq, 2.0, p=2.0) == 0.0


def test_functional_value_infinite_when_not_covering():
    seq = admissible_sets(TRIANGLE, [(0,)])
    assert functional_value(TRIANGLE, seq, 2.0) == math.inf


def test_gamma_exact_frozen_values():
    # Two points at distance 1: the only cost is level 0, d(t, T_0) = 1.
    assert gamma_exact(TWO, 2.0).value == pytest.approx(1.0)
    assert gamma_exact(TWO, 1.0).value == pytest.approx(1.0)
    # Unit equilateral triangle: level 1 may hold all 3 points, so only the
    # level-0 singleton contributes and any base point gives sup = 1.
    assert gamma_exact(TRIANGLE, 2.0).value == pytest.approx(1.0)
    # Unit square: the far corner sits at sqrt(2) from any level-0 singleton.
    assert gamma_exact(SQUARE, 2.0).value == pytest.approx(math.sqrt(2.0))
    # Four points fit level 1 entirely, so the order-2 functional vanishes.
    assert gamma_exact(SQUARE, 2.0, p=2.0).value == 0.0


def test_gamma_exact_runs_above_the_auto_threshold():
    # GAMMA_EXACT_CAP only picks the auto mode: an explicit search on 7 points runs
    sp = random_space(0, 7)
    est = gamma_exact(sp, 2.0)
    assert est.mode == "exact"
    assert sp.diameter() / 2 <= est.value <= gamma_greedy(sp, 2.0).value


def test_gamma_exact_six_points_p2_oracle():
    # With |T| = 6 and p = 2 the sum has a single free level (n = 1, at most
    # 4 points); level 2 can hold everything.  Brute force over 4-subsets.
    sp = random_space(42, 6)
    best = math.inf
    for k in range(1, 5):
        for sub in itertools.combinations(range(6), k):
            best = min(best, 2.0 ** 0.5 * sp.point_to_set(sub).max())
    est = gamma_exact(sp, 2.0, p=2.0)
    assert est.value == pytest.approx(best, rel=1e-12)
    assert est.l == 1


def test_gamma_scaling():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(5, 2))
    a = gamma_exact(space_from_points(pts), 2.0).value
    b = gamma_exact(space_from_points(4.0 * pts), 2.0).value
    assert b == pytest.approx(4.0 * a, rel=1e-9)


def test_greedy_sequence_is_admissible_and_covers():
    sp = random_space(7, 23)
    seq = greedy_admissible_sequence(sp)
    assert seq.covers_space()
    for n, lvl in enumerate(seq.levels):
        assert len(lvl) <= level_capacity(n)


@pytest.mark.parametrize(
    "alpha, p, message",
    [
        (math.nan, 1.0, "alpha must be finite and > 0, got nan"),
        (0.0, 1.0, "alpha must be finite and > 0, got 0.0"),
        (-1.0, 1.0, "alpha must be finite and > 0, got -1.0"),
        (2.0, 0.5, "order p must be finite and >= 1, got 0.5"),
        (2.0, math.nan, "order p must be finite and >= 1, got nan"),
        (math.nan, 0.5, "alpha must be finite and > 0, got nan"),
    ],
)
def test_gamma_greedy_rejects_bad_alpha_and_p(alpha, p, message):
    # The greedy sequence takes no alpha or p; gamma_greedy still checks
    # both, alpha first.
    with pytest.raises(DomainError) as exc:
        gamma_greedy(TRIANGLE, alpha, p)
    assert str(exc.value) == message


@given(st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_greedy_upper_bounds_exact(n, seed):
    sp = random_space(seed, n)
    exact = gamma_exact(sp, 2.0).value
    greedy = gamma_greedy(sp, 2.0).value
    assert greedy >= exact - 1e-12


@given(st.integers(2, 6), st.integers(0, 10_000),
       st.sampled_from([1.0, 2.0]))
@settings(max_examples=25, deadline=None)
def test_gamma_nonincreasing_in_p(n, seed, alpha):
    sp = random_space(seed, n)
    vals = [gamma_exact(sp, alpha, p=p).value for p in (1.0, 2.0, 4.0)]
    assert vals[0] >= vals[1] - 1e-12
    assert vals[1] >= vals[2] - 1e-12


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_gamma_below_gamma_prime(n, seed):
    sp = random_space(seed, n)
    g = gamma_exact(sp, 2.0).value
    gp = gamma_prime(sp, 2.0, mode="exact").value
    assert g <= gp + 1e-12


def test_gamma_prime_greedy_upper_bounds_exact():
    for seed in range(5):
        sp = random_space(seed, 5)
        exact = gamma_prime(sp, 2.0, mode="exact").value
        greedy = gamma_prime(sp, 2.0, mode="greedy").value
        assert greedy >= exact - 1e-12


def test_gamma_prime_two_points():
    # Chain {T}, then singletons: cost is diam at level 0 only.
    assert gamma_prime(TWO, 2.0).value == pytest.approx(1.0)


def test_gamma_lower_bound_half_diameter():
    # sup_t d(t, T_0) >= diam/2 for a singleton T_0, and every later level
    # only adds nonnegative terms.
    for seed in range(8):
        sp = random_space(seed, 5)
        assert gamma_exact(sp, 2.0).value >= sp.diameter() / 2.0 - 1e-12


def test_merge_partitions_admissible():
    sp = random_space(3, 6)
    a = gamma_prime(sp, 2.0, mode="greedy").sequence
    b = admissible_partitions(
        sp, [[(0, 1, 2, 3, 4, 5)], [(0, 1, 2), (3, 4, 5)],
             [(0,), (1,), (2,), (3,), (4,), (5,)]]
    )
    merged = merge_partitions(a, b)
    assert merged.kind == "partition"
    for n, lvl in enumerate(merged.levels):
        assert len(lvl) <= level_capacity(n)
    # the merged chain refines both inputs one level later
    for lvl in range(1, merged.depth):
        fine = [set(c) for c in merged.level(lvl)]
        for coarse_seq in (a, b):
            coarse = [set(c) for c in coarse_seq.level(lvl - 1)]
            assert all(any(f <= c for c in coarse) for f in fine)


def test_gamma_estimate_records_witness():
    est = gamma_exact(TRIANGLE, 2.0)
    assert est.sequence is not None
    assert functional_value(TRIANGLE, est.sequence, 2.0) == pytest.approx(est.value)


def reference_greedy_prime_levels(space):
    """The greedy gamma_prime loop that re-measured every cell before each split."""
    levels = [current := (tuple(range(space.size)),)]
    lvl = 0
    while any(space.subset_diameter(c) > 0 for c in current):
        lvl += 1
        cap = min(level_capacity(lvl), space.size)
        cells = [list(c) for c in current]
        while len(cells) < cap:
            widths = [space.subset_diameter(c) for c in cells]
            w = max(widths)
            if w == 0:
                break
            ci = widths.index(w)
            cell = cells[ci]
            d = space.dist[np.ix_(cell, cell)]
            a, b = np.unravel_index(int(np.argmax(d)), d.shape)
            seed_a, seed_b = sorted((cell[a], cell[b]))
            left = [i for i in cell if space.dist[i, seed_a] <= space.dist[i, seed_b]]
            right = [i for i in cell if i not in left]
            cells[ci:ci + 1] = [left, right]
        current = tuple(sorted(tuple(sorted(c)) for c in cells))
        levels.append(current)
    return tuple(levels)


@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from(["l1", "l2", "grid"]))
@settings(max_examples=40, deadline=None)
def test_greedy_gamma_prime_partitions_match_the_remeasuring_loop(n, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "grid":  # many equal widths and equidistant points: ties everywhere
        sp = space_from_points(rng.integers(0, 3, size=(n, 2)).astype(float), norm="l1")
    else:
        sp = space_from_points(rng.normal(size=(n, 3)), norm=kind)
    est = gamma_prime(sp, 2.0, mode="greedy")
    assert est.sequence.levels == reference_greedy_prime_levels(sp)


def test_greedy_gamma_prime_measures_each_cell_once(monkeypatch):
    sp = space_from_points(np.random.default_rng(1).normal(size=(200, 3)))
    calls = []
    diameter = type(sp).subset_diameter
    monkeypatch.setattr(type(sp), "subset_diameter",
                        lambda self, c: calls.append(1) or diameter(self, c))
    gamma_prime(sp, 2.0, mode="greedy")
    # the re-measuring loop made about 20,500 calls here
    assert len(calls) < 3 * 200 * 4


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (9, 2), (200, 1)])
def test_greedy_gamma_prime_measures_each_level_once(n, seed, monkeypatch):
    sp = space_from_points(np.random.default_rng(seed).normal(size=(n, 3)))
    calls = []
    diameter = type(sp).subset_diameter
    monkeypatch.setattr(type(sp), "subset_diameter",
                        lambda self, c: calls.append(1) or diameter(self, c))
    levels = gamma_prime(sp, 2.0, mode="greedy").sequence.levels
    # one for T and two per split; the value is read from those widths, where
    # functional_value measured the final cells and every level's cells again
    splits = len(levels[-1]) - 1
    assert len(calls) == 1 + 2 * splits


def test_admissible_sequences_carry_only_kind_levels_and_space():
    fields = ("kind", "levels", "space")
    assert tuple(f.name for f in dataclasses.fields(admissible_sets(TRIANGLE, [[0]]))) == fields
    partition = admissible_partitions(TRIANGLE, [[[0, 1, 2]]])
    assert tuple(f.name for f in dataclasses.fields(partition)) == fields


@pytest.mark.parametrize("compute", [
    lambda sp, a: gamma_exact(sp, a),
    lambda sp, a: gamma_exact(sp, a, p=2.0),
    lambda sp, a: gamma_prime(sp, a),
    lambda sp, a: gamma_prime(sp, a, mode="greedy"),
    lambda sp, a: gamma_greedy(sp, a),
    lambda sp, a: functional_value(sp, greedy_admissible_sequence(sp), a),
])
def test_level_weights_name_their_overflow(compute):
    # 2^(n/alpha) past the float range: a DomainError, not an OverflowError
    sp = space_from_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [3.0, 1.0]])
    with pytest.raises(DomainError, match=r"level weight 2\^\(n/alpha\) is not finite "
                                          r"at alpha = 0.0005"):
        compute(sp, 0.0005)


# ---------------------------------------------------------------------------
# package-built sequences: valid by construction, checked here instead of at
# run time


@st.composite
def small_spaces(draw):
    """1-16 points under l1, l2 or linf; coordinates rounded or not, and
    possibly one point repeated (a zero off the diagonal)."""
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(n, draw(st.integers(1, 3))))
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        pts = np.round(pts, decimals)
    if n > 1 and draw(st.booleans()):
        pts[0] = pts[-1]
    return space_from_points(pts, norm=draw(st.sampled_from(["l1", "l2", "linf"])))


def assert_canonical(space, seq):
    validate = admissible_sets if seq.kind == "set" else admissible_partitions
    assert validate(space, seq.levels).levels == seq.levels


@given(small_spaces(), st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=60, deadline=None)
def test_builders_return_canonical_admissible_sequences_and_their_values(space, alpha):
    estimates = [gamma_exact(space, alpha, p) for p in (1.0, 2.0, 4.0, 16.0)]
    estimates.append(gamma_prime(space, alpha, mode="greedy"))
    if space.size <= 12:
        estimates.append(gamma_prime(space, alpha))
    estimates.append(gamma_greedy(space, alpha))
    for est in estimates:
        assert_canonical(space, est.sequence)
        assert functional_value(space, est.sequence, est.alpha, est.p) == est.value
    assert_canonical(space, greedy_admissible_sequence(space))


def test_builders_call_no_validator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a package builder called a public validator")

    for name in ("admissible_sets", "admissible_partitions", "functional_value"):
        monkeypatch.setattr(chaining, name, refuse)
    rng = np.random.default_rng(7)
    for n in (1, 3, 6, 9):
        space = space_from_points(rng.normal(size=(n, 2)))  # fresh: nothing memoised
        for p in (1.0, 2.0, 4.0):
            gamma_exact(space, 2.0, p)
        gamma_prime(space, 2.0)
        gamma_prime(space, 2.0, mode="greedy")
        gamma_greedy(space, 2.0)
        greedy_admissible_sequence(space)
