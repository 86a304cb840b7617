"""The exact-profile sweep, the entropy sum and the per-space memo.

covering_profile(mode="exact") sweeps the pairs by distance once instead of
running the set-cover search at each breakpoint; these tests hold it to that
search.  entropy_integral sums its terms in one sequential accumulate, held
here to the per-breakpoint loop it replaced.  The memo keeps what depends
only on the space (traversal, breakpoints, profiles, greedy sequence) on
validated spaces, whose distances are read-only, and nowhere else.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbounds import (
    DomainError,
    FiniteMetricSpace,
    admissible_sets,
    build_metric_space,
    covering_number,
    covering_profile,
    entropy_integral,
    functional_value,
    gamma_greedy,
    greedy_admissible_sequence,
    space_from_points,
)
from chainbounds import metric
from chainbounds.metric import _breakpoints, farthest_point_order


@st.composite
def small_spaces(draw):
    """1-20 points with rounded coordinates (ties) and repeated points."""
    n = draw(st.integers(1, 20))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = np.round(rng.normal(size=(n, dim)), draw(st.integers(0, 2)))
    repeats = draw(st.integers(0, n - 1))
    pts[rng.integers(0, n, repeats)] = pts[rng.integers(0, n, repeats)]
    return space_from_points(pts, norm=draw(st.sampled_from(["l1", "l2", "linf"])))


def searched_profile(space):
    """The exact count at every breakpoint from the set-cover search, up to the first 1."""
    radii, counts = [], []
    for u in _breakpoints(space):
        radii.append(float(u))
        counts.append(covering_number(space, float(u), mode="exact").count)
        if counts[-1] == 1:
            break
    return tuple(radii), tuple(counts)


@given(small_spaces())
@settings(max_examples=200, deadline=None)
def test_sweep_counts_equal_the_search_at_every_breakpoint(space):
    prof = covering_profile(space, mode="exact")
    assert (prof.radii, prof.counts) == searched_profile(space)
    assert prof.mode == "exact"


@pytest.mark.parametrize("dist", [
    [[0.0]],
    [[0.0, 0.0], [0.0, 0.0]],  # one point twice: one ball at 0
    [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
    [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
])
def test_sweep_on_degenerate_spaces(dist):
    space = build_metric_space(dist)
    prof = covering_profile(space, mode="exact")
    assert (prof.radii, prof.counts) == searched_profile(space)


def test_sweep_profile_does_not_call_the_search(monkeypatch):
    space = space_from_points(np.random.default_rng(1).normal(size=(12, 2)))
    monkeypatch.setattr(metric, "covering_number", None)
    monkeypatch.setattr(metric, "_exact_cover", None)
    assert covering_profile(space, mode="exact").counts[-1] == 1


def loop_entropy(prof, alpha):
    """entropy_integral's per-breakpoint loop before the accumulated sum."""
    radii, counts = prof.radii, prof.counts
    total = 0.0
    for k in range(len(radii) - 1):
        if counts[k] <= 1:
            break
        total += (radii[k + 1] - radii[k]) * math.log(counts[k]) ** (1.0 / alpha)
    return total


@given(small_spaces(), st.sampled_from(["exact", "greedy"]),
       st.sampled_from([0.3, 0.5, 1.0, 1.7, 2.0, 4.0]))
@settings(max_examples=150, deadline=None)
def test_entropy_sum_equals_the_loop_bit_for_bit(space, mode, alpha):
    ent = entropy_integral(space, alpha, mode=mode)
    assert ent.value == loop_entropy(ent.profile, alpha)


def test_entropy_sum_equals_the_loop_on_long_profiles():
    rng = np.random.default_rng(6)
    for norm in ("l1", "l2", "linf"):
        space = space_from_points(rng.normal(size=(150, 4)), norm=norm)
        for alpha in (0.5, 1.0, 2.0):
            ent = entropy_integral(space, alpha, mode="greedy")
            assert len(ent.profile.radii) > 1000
            assert ent.value == loop_entropy(ent.profile, alpha)


def test_entropy_power_overflow_is_a_domain_error():
    space = space_from_points([[0.0], [1.0], [2.0], [4.0], [8.0]])  # log 5 ** 2000 overflows
    with pytest.raises(DomainError,
                       match=r"\(log N\)\^\(1/alpha\) is not finite at alpha = 0.0005"):
        entropy_integral(space, 0.0005)
    # (log 2)^(1/alpha) underflows instead, which is no error
    tiny = entropy_integral(space_from_points([[0.0], [1.0]]), 0.0005)
    assert tiny.value == loop_entropy(tiny.profile, 0.0005) < 1e-300


def test_memo_returns_the_same_objects(monkeypatch):
    space = space_from_points(np.random.default_rng(2).normal(size=(14, 2)))
    assert farthest_point_order(space) is farthest_point_order(space)
    assert _breakpoints(space) is _breakpoints(space)
    for mode in ("exact", "greedy"):
        prof = covering_profile(space, mode=mode)
        assert covering_profile(space, mode=mode) is prof
        assert entropy_integral(space, 2.0, mode=mode).profile is prof
    assert covering_profile(space, mode="auto") is covering_profile(space, mode="exact")
    monkeypatch.setattr(metric, "EXACT_COVER_CAP", 5)
    assert covering_profile(space, "auto") is covering_profile(space, "greedy")
    levels = greedy_admissible_sequence(space).levels
    assert greedy_admissible_sequence(space).levels is levels
    assert gamma_greedy(space, 2.0).sequence.levels is levels
    assert gamma_greedy(space, 1.0, p=4.0).sequence.levels is levels


def test_memo_makes_no_reference_cycle():
    # a space must go when its last reference does, not at the next collection
    import gc
    import weakref

    gc.disable()
    try:
        space = space_from_points(np.random.default_rng(3).normal(size=(16, 2)))
        for mode in ("exact", "greedy"):
            entropy_integral(space, 2.0, mode=mode)
        gamma_greedy(space, 2.0)
        greedy_admissible_sequence(space)
        assert space._memo
        gone = weakref.ref(space)
        del space
        assert gone() is None
    finally:
        gc.enable()


def test_memoised_arrays_are_read_only():
    from chainbounds.chaining import _greedy_chain

    space = build_metric_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    order, radii = farthest_point_order(space)
    arrays = [order, radii, _breakpoints(space), _greedy_chain(space)[1]]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 7


def test_memo_is_neither_an_argument_nor_compared_nor_shown():
    (memo,) = [f for f in dataclasses.fields(FiniteMetricSpace) if f.name == "_memo"]
    assert not (memo.init or memo.compare or memo.repr)
    a = build_metric_space([[0, 1], [1, 0]])
    b = build_metric_space([[0, 1], [1, 0]])
    covering_profile(a)
    assert a._memo and not b._memo and repr(a) == repr(b)
    assert dataclasses.replace(a, labels=("x", "y"))._memo == {}


def test_writable_raw_space_is_never_memoised():
    dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    space = FiniteMetricSpace(labels=(0, 1, 2), dist=dist)
    before = covering_profile(space, mode="exact")
    assert before.counts == (3, 1) and entropy_integral(space, 1.0).value == math.log(3.0)
    farthest_point_order(space)
    greedy_admissible_sequence(space)
    assert space._memo == {}
    # the caller may change a writable matrix, and every answer follows it
    dist[:] = [[0.0, 5.0, 5.0], [5.0, 0.0, 5.0], [5.0, 5.0, 0.0]]
    after = covering_profile(space, mode="exact")
    assert before.radii == (0.0, 1.0) and after.radii == (0.0, 5.0)
    assert after.counts == (3, 1)
    assert space._memo == {}


@given(small_spaces(), st.sampled_from([(2.0, 1.0), (1.0, 4.0), (0.7, 2.0), (2.0, 64.0)]))
@settings(max_examples=100, deadline=None)
def test_greedy_value_equals_the_functional_of_a_fresh_sequence(space, alpha_p):
    alpha, p = alpha_p
    fresh = admissible_sets(space, greedy_admissible_sequence(space).levels)
    assert gamma_greedy(space, alpha, p).value == functional_value(space, fresh, alpha, p)
