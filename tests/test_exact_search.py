"""Table-driven exact chaining searches against the loops they replace.

The references below are the combo-at-a-time `gamma_exact` loop and the
recursive `gamma_prime` search with one `subset_diameter` call per cell per
candidate partition.  The library's table-driven searches must return the
same value and the same witness levels, ties included: the first strict
minimum in enumeration order wins.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbounds import (
    admissible_partitions,
    admissible_sets,
    build_metric_space,
    gamma_exact,
    gamma_prime,
    level_capacity,
    space_from_points,
    truncation_level,
)


def reference_gamma_exact(space, alpha, p):
    n = space.size
    l = truncation_level(p)
    n_star = 0
    while level_capacity(n_star) < n:
        n_star += 1
    all_points = tuple(range(n))
    free_levels = list(range(l, n_star))
    if not free_levels:
        return 0.0, admissible_sets(space, [(0,)] * l + [all_points]).levels
    choices_per_level = [
        [sub for k in range(1, min(level_capacity(lvl), n) + 1)
         for sub in itertools.combinations(all_points, k)]
        for lvl in free_levels
    ]
    dists_per_level = [{sub: space.point_to_set(sub) for sub in choices}
                       for choices in choices_per_level]
    weights = [2.0 ** (lvl / alpha) for lvl in free_levels]
    best_val, best_combo = math.inf, None
    for combo in itertools.product(*choices_per_level):
        acc = np.zeros(n)
        for w, sub, table in zip(weights, combo, dists_per_level):
            acc += w * table[sub]
        val = float(acc.max())
        if val < best_val:
            best_val, best_combo = val, combo
    levels = [best_combo[0][:1]] * l + list(best_combo) + [all_points]
    return best_val, admissible_sets(space, levels).levels


def reference_partitions(items, max_blocks):
    def rec(idx, blocks):
        if idx == len(items):
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(items[idx])
            yield from rec(idx + 1, blocks)
            b.pop()
        if len(blocks) < max_blocks:
            blocks.append([items[idx]])
            yield from rec(idx + 1, blocks)
            blocks.pop()

    yield from rec(1, [[items[0]]])


def reference_refinements(coarse, max_blocks):
    options = [list(reference_partitions(cell, len(cell))) for cell in coarse]
    for combo in itertools.product(*options):
        blocks = [b for part in combo for b in part]
        if len(blocks) <= max_blocks:
            yield tuple(sorted(blocks))


def reference_gamma_prime(space, alpha):
    n = space.size
    singletons = tuple((i,) for i in range(n))
    trivial = (tuple(range(n)),)
    best = [math.inf, None]

    def diam_vec(partition):
        out = np.empty(n)
        for cell in partition:
            out[list(cell)] = space.subset_diameter(cell)
        return out

    def rec(level, current, acc, chain):
        if float(acc.max()) >= best[0]:
            return
        if all(space.subset_diameter(c) == 0 for c in current):
            best[:] = float(acc.max()), list(chain)
            return
        nxt_cap = min(level_capacity(level + 1), n)
        if nxt_cap >= n:
            best[:] = float(acc.max()), chain + [singletons]
            return
        w = 2.0 ** ((level + 1) / alpha)
        seen = set()
        for refined in reference_refinements(current, nxt_cap):
            if refined not in seen:
                seen.add(refined)
                rec(level + 1, refined, acc + w * diam_vec(refined), chain + [refined])

    rec(0, trivial, diam_vec(trivial), [trivial])
    return best[0], admissible_partitions(space, best[1]).levels


@st.composite
def small_spaces(draw):
    """1-6 points; integer grids tie often, duplicates give semi-metric zeros."""
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = rng.integers(-1, 2, size=(n, dim)).astype(float)
    else:
        pts = rng.normal(size=(n, dim))
    if n > 1 and draw(st.booleans()):
        pts[rng.integers(1, n)] = pts[0]
    space = space_from_points(pts, norm=draw(st.sampled_from(["l1", "l2", "linf"])))
    if draw(st.booleans()):
        space = build_metric_space(space.dist)  # the user-dist path
    return space


def assert_matches_reference(space):
    for alpha in (1.0, 2.0):
        for p in (1.0, 2.0, 4.0, 8.0):
            est = gamma_exact(space, alpha, p=p)
            assert (est.value, est.sequence.levels) == reference_gamma_exact(space, alpha, p)
        est = gamma_prime(space, alpha)
        assert (est.value, est.sequence.levels) == reference_gamma_prime(space, alpha)


@given(small_spaces())
@settings(max_examples=150, deadline=None)
def test_exact_searches_match_the_loops_they_replace(space):
    assert_matches_reference(space)


def test_exact_searches_on_tied_and_degenerate_spaces():
    spaces = [
        build_metric_space([[0.0]]),
        build_metric_space(np.zeros((5, 5))),  # every distance a semi-metric zero
        space_from_points(np.arange(6.0)[:, None]),  # equally spaced: many ties
        space_from_points([[0, 0], [1, 0], [0, 1], [1, 1], [0, 0], [1, 1]], norm="l1"),
        build_metric_space(np.ones((6, 6)) - np.eye(6)),  # every pair ties
    ]
    for space in spaces:
        assert_matches_reference(space)
