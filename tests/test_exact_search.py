"""Table-driven exact chaining searches against the searches they replace.

The references below are the combo-at-a-time `gamma_exact` loop, the
uncached `_distance_table` it read before its subset tables were cached, the
recursive `gamma_prime` search with one `subset_diameter` call per cell per
candidate partition, and the later recursion (`settle` over
`_refining_partitions`) that ran before the per-size partition table.  The
library's searches must return the same value and the same witness levels,
ties included: the first strict minimum in enumeration order wins.
"""

import itertools
import math
import time
from unittest import mock

import numpy as np
import pytest
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
from chainbounds import chaining
from chainbounds.errors import CapacityError, DomainError


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


def reference_distance_table(space, max_size):
    """_distance_table as it was: the subsets and index arrays rebuilt per call."""
    n = space.size
    subsets, rows = [], []
    for k in range(1, max_size + 1):
        combos = list(itertools.combinations(range(n), k))
        subsets.extend(combos)
        rows.append(space.dist[:, np.array(combos)].min(axis=2).T)
    return subsets, np.concatenate(rows)


def reference_partitions(items, max_blocks):
    """All set partitions of items into at most max_blocks blocks (_partitions_up_to)."""
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
    """All partitions refining coarse with at most max_blocks blocks (_refining_partitions)."""
    options = [list(reference_partitions(cell, len(cell))) for cell in coarse]
    for combo in itertools.product(*options):
        blocks = [b for part in combo for b in part]
        if len(blocks) <= max_blocks:
            yield tuple(sorted(blocks))


def settled_gamma_prime(space, alpha):
    """The recursive exact search as the library last ran it: refining chains
    pruned at the best value so far, each level's candidates evaluated as one
    array of per-point cell diameters, memoized per cell."""
    n = space.size
    singletons = tuple((i,) for i in range(n))
    trivial = (tuple(range(n)),)
    best_val, best_chain = math.inf, None
    cache = {}

    def cell_diameters(partitions):
        rows = []
        for partition in partitions:
            row = [0.0] * n
            for cell in partition:
                if cell not in cache:
                    cache[cell] = space.subset_diameter(cell)
                for i in cell:
                    row[i] = cache[cell]
            rows.append(row)
        return np.array(rows)

    def settle(level, chain, acc, val, width):
        nonlocal best_val, best_chain
        if val >= best_val:
            return
        if width == 0.0:
            best_val, best_chain = val, chain
        elif level_capacity(level + 1) >= n:
            best_val, best_chain = val, chain + [singletons]
        else:
            refined = list(reference_refinements(chain[-1], level_capacity(level + 1)))
            diams = cell_diameters(refined)
            accs = acc + 2.0 ** ((level + 1) / alpha) * diams
            for part, row, v, wdt in zip(refined, accs, accs.max(axis=1).tolist(),
                                         diams.max(axis=1).tolist()):
                settle(level + 1, chain + [part], row, v, wdt)

    acc0 = cell_diameters([trivial])[0]
    settle(0, [trivial], acc0, float(acc0.max()), float(acc0.max()))
    return best_val, admissible_partitions(space, best_chain).levels


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
    """1-8 points; integer grids tie often, duplicates give semi-metric zeros."""
    n = draw(st.integers(1, 8))
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
    for alpha in (2.0, 1.0, 0.7):
        for p in (1.0, 2.0, 4.0, 8.0, 16.0):
            est = gamma_exact(space, alpha, p=p, exact_cap=8)
            found = (est.value, est.sequence.levels)
            assert found == reference_gamma_exact(space, alpha, p)
            with mock.patch.object(chaining, "_distance_table", reference_distance_table):
                est = gamma_exact(space, alpha, p=p, exact_cap=8)
            assert (est.value, est.sequence.levels) == found
        est = gamma_prime(space, alpha, exact_cap=8)
        found = (est.value, est.sequence.levels)
        assert found == settled_gamma_prime(space, alpha) == reference_gamma_prime(space, alpha)


@given(small_spaces())
@settings(max_examples=150, deadline=None)
def test_exact_searches_match_the_loops_they_replace(space):
    assert_matches_reference(space)


def test_exact_searches_on_tied_and_degenerate_spaces():
    spaces = [
        build_metric_space([[0.0]]),
        build_metric_space(np.zeros((5, 5))),  # every distance a semi-metric zero
        build_metric_space(np.zeros((8, 8))),
        space_from_points(np.arange(6.0)[:, None]),  # equally spaced: many ties
        space_from_points(np.arange(8.0)[:, None]),
        space_from_points([[0, 0], [1, 0], [0, 1], [1, 1], [0, 0], [1, 1]], norm="l1"),
        space_from_points([[0, 0], [0, 0], [1, 1], [1, 1], [2, 2], [2, 2], [3, 3]], norm="linf"),
        build_metric_space(np.ones((6, 6)) - np.eye(6)),  # every pair ties
        build_metric_space(np.ones((8, 8)) - np.eye(8)),
    ]
    for space in spaces:
        assert_matches_reference(space)


def _grid_with_repeats():
    pts = np.random.default_rng(16).integers(0, 3, size=(16, 2)).astype(float)
    pts[[5, 11]] = pts[[0, 3]]  # integer ties and repeated points
    return space_from_points(pts, norm="l1")


@pytest.mark.parametrize("build", [
    lambda: space_from_points(np.random.default_rng(12).normal(size=(12, 2))),
    lambda: space_from_points(np.random.default_rng(16).normal(size=(16, 3)), norm="linf"),
    _grid_with_repeats,
], ids=["normal-12-l2", "normal-16-linf", "grid-16-l1"])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_exact_gamma_matches_the_loop_where_its_table_is_largest(build, p):
    # levels 0 and 1 are both free at p = 1, level 1 alone at p = 2
    space = build()
    for alpha in (2.0, 0.7):
        est = gamma_exact(space, alpha, p=p, exact_cap=16)
        assert (est.value, est.sequence.levels) == reference_gamma_exact(space, alpha, p)


@pytest.mark.parametrize("n", range(1, 11))
def test_partition_table_runs_in_search_order(n):
    expected = [tuple(sum(1 << i for i in cell) for cell in part)
                for part in reference_partitions(tuple(range(n)), 4)]
    found = [tuple(m for m in row if m) for row in chaining._level_one_partitions(n).tolist()]
    assert found == expected


def test_subset_diameters_equal_subset_diameter():
    rng = np.random.default_rng(5)
    pts = rng.integers(0, 3, size=(9, 2)).astype(float)  # ties and duplicate points
    for space in (space_from_points(pts, norm="l1"), space_from_points(rng.normal(size=(9, 3)))):
        diam = chaining._subset_diameters(space.dist)
        for mask in range(1 << 9):
            cell = [i for i in range(9) if mask >> i & 1]
            assert diam[mask] == space.subset_diameter(cell)


def test_exact_gamma_prime_refuses_more_than_16_points_at_once(monkeypatch):
    space = space_from_points(np.random.default_rng(17).normal(size=(17, 3)))
    monkeypatch.setattr(chaining, "_level_one_partitions",
                        lambda n: pytest.fail("enumerated past 16 points"))
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="at most 16 points, space has 17"):
        gamma_prime(space, 2.0, exact_cap=17)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(CapacityError, match="capped at 16 points, space has 17"):
        gamma_prime(space, 2.0, exact_cap=16)
    # no search is needed when every point coincides or level 1 holds them all
    assert gamma_prime(build_metric_space(np.zeros((17, 17))), 2.0, exact_cap=17).value == 0.0


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_exact_gamma_refuses_unfinishable_searches_at_once(monkeypatch, p):
    # 17 points leave levels 0..2 (p = 1) or 1..2 (p = 2) free: no table is built
    space = space_from_points(np.random.default_rng(17).normal(size=(17, 3)))
    with monkeypatch.context() as patched:
        patched.setattr(chaining, "_distance_table",
                        lambda space, max_size: pytest.fail("built a distance table"))
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"17 points at p = {p:g}"):
            gamma_exact(space, 2.0, p=p, exact_cap=17)
        assert time.perf_counter() - start < 1.0
        # an overflowing level weight is still named first, as before the refusal
        with pytest.raises(DomainError, match="level weight 2\\^\\(n/alpha\\) is not finite"):
            gamma_exact(space, 0.0005, p=p, exact_cap=17)
    # a single free level >= 2 still runs, and no free level costs nothing
    assert gamma_exact(space, 2.0, p=4.0, exact_cap=17).value > 0.0
    assert gamma_exact(space, 2.0, p=8.0, exact_cap=17).value == 0.0


@pytest.mark.parametrize("search, n", [
    ("gamma", 18), ("gamma", 19), ("gamma", 24), ("prime", 13), ("prime", 16),
])
def test_exact_searches_refuse_tables_above_the_budget_at_once(monkeypatch, search, n):
    # a lone level 2 at p = 4 on 18+ points, level 1's partitions on 13-16
    space = space_from_points(np.random.default_rng(n).normal(size=(n, 3)))
    monkeypatch.setattr(chaining, "_distance_table",
                        lambda space, max_size: pytest.fail("built a distance table"))
    monkeypatch.setattr(chaining, "_level_one_partitions",
                        lambda n: pytest.fail("built a partition table"))
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=f"{n} points at p = .* a table of \\d+ entries"):
        if search == "gamma":
            gamma_exact(space, 2.0, p=4.0, exact_cap=n)
        else:
            gamma_prime(space, 2.0, exact_cap=n)
    assert time.perf_counter() - start < 1.0


def _refused_entries(search):
    with pytest.raises(CapacityError) as refused:
        search()
    return int(str(refused.value).split(" a table of ")[1].split()[0])


@pytest.mark.parametrize("n", range(1, 18))
def test_budget_counts_the_entries_of_the_table_it_would_build(monkeypatch, n):
    monkeypatch.setattr(chaining, "_TABLE_BUDGET", 0)
    space = space_from_points(np.random.default_rng(n).normal(size=(n, 2)))
    for p in (1.0, 2.0, 4.0):
        free = range(truncation_level(p), 3 if n > 16 else 2 if n > 4 else 1 if n > 1 else 0)
        if not free:
            assert gamma_exact(space, 2.0, p=p, exact_cap=n).value == 0.0
            continue
        rows = [len(chaining._subset_index(n, min(level_capacity(lvl), n))[0]) for lvl in free]
        assert _refused_entries(lambda: gamma_exact(space, 2.0, p=p, exact_cap=n)) \
            == n * math.prod(rows)
    if 4 < n <= 12:
        cells = chaining._level_one_partitions(n)
        assert _refused_entries(lambda: gamma_prime(space, 2.0, exact_cap=n)) == cells.size


def test_budget_admits_gamma_prime_on_12_points():
    # the largest gamma_exact searches run above: 16 points at p = 1, 17 at p = 4
    space = space_from_points(np.random.default_rng(12).normal(size=(12, 2)))
    assert gamma_prime(space, 2.0, exact_cap=12).value > 0.0
