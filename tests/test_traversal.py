"""Greedy covers, profiles, entropy integrals and sequences from one traversal.

The reference below re-runs farthest-point traversal from scratch for every
radius, stopping once every point is within that radius: the per-radius
loop the library's single traversal replaces.  Every greedy output must
match it exactly, ties and duplicate points included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbounds import (
    DomainError,
    covering_number,
    covering_profile,
    entropy_integral,
    gamma_greedy,
    greedy_admissible_sequence,
    space_from_points,
)
from chainbounds import metric
from chainbounds.metric import farthest_point_order


def reference_cover(dist, u):
    centers = [int(np.argmin(dist.max(axis=1)))]
    dmin = dist[centers[0]].copy()
    while dmin.max() > u:
        nxt = int(np.argmax(dmin))
        centers.append(nxt)
        dmin = np.minimum(dmin, dist[nxt])
    return tuple(sorted(centers))


def reference_profile(dist):
    iu = np.triu_indices(len(dist), k=1)
    radii, counts, centers = [], [], []
    for u in np.unique(np.concatenate(([0.0], dist[iu]))):
        c = reference_cover(dist, u)
        radii.append(float(u))
        counts.append(len(c))
        centers.append(c)
        if len(c) == 1:
            break
    return tuple(radii), tuple(counts), tuple(centers)


def reference_entropy(radii, counts, alpha):
    total = 0.0
    for k in range(len(radii)):
        if counts[k] <= 1:
            break
        width = radii[k + 1] - radii[k] if k + 1 < len(radii) else 0.0
        total += width * math.log(counts[k]) ** (1.0 / alpha)
    return total


def reference_sequence(dist):
    current = [int(np.argmin(dist.max(axis=1)))]
    dmin = dist[current[0]].copy()
    levels = [tuple(current)]
    n = 0
    while dmin.max() > 0.0:
        n += 1
        cap = min(2 ** (2**n), len(dist))
        while len(current) < cap and dmin.max() > 0.0:
            nxt = int(np.argmax(dmin))
            current.append(nxt)
            dmin = np.minimum(dmin, dist[nxt])
        levels.append(tuple(sorted(current)))
    return tuple(levels)


@st.composite
def point_spaces(draw):
    """Clouds of 1-24 points; integer grids make ties and duplicates common."""
    n = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = rng.integers(-2, 3, size=(n, dim)).astype(float)
    else:
        pts = rng.normal(size=(n, dim))
    return space_from_points(pts, norm=draw(st.sampled_from(["l1", "l2", "linf"])))


@given(point_spaces())
@settings(max_examples=150, deadline=None)
def test_greedy_outputs_match_the_per_radius_loop(space):
    dist = space.dist
    ref_radii, ref_counts, ref_centers = reference_profile(dist)

    prof = covering_profile(space, mode="greedy")
    centers = tuple(covering_number(space, u, mode="greedy").centers for u in prof.radii)
    assert (prof.radii, prof.counts, centers) == (ref_radii, ref_counts, ref_centers)
    assert prof.mode == "greedy"

    for alpha in (1.0, 2.0):
        ent = entropy_integral(space, alpha, mode="greedy")
        assert ent.value == reference_entropy(ref_radii, ref_counts, alpha)

    probes = list(ref_radii) + [0.5 * (a + b) for a, b in zip(ref_radii, ref_radii[1:])]
    for u in probes + [2.0 * space.diameter() + 1.0, math.inf]:
        res = covering_number(space, u, mode="greedy")
        assert res.centers == reference_cover(dist, u)
        assert res.count == len(res.centers)

    assert greedy_admissible_sequence(space).levels == reference_sequence(dist)
    for alpha, p in ((2.0, 1.0), (1.0, 4.0)):
        seq = gamma_greedy(space, alpha, p).sequence
        assert seq.levels == reference_sequence(dist)


def test_traversal_order_ties_and_duplicates():
    # eccentricities 3, 3, 3, 2, 3: the center is point 3 (coordinate 1); the
    # farthest points 2 and 4 tie at 2 and the lower index wins; the
    # duplicates of points 0 and 2 are never inserted
    space = space_from_points([[0.0], [0.0], [3.0], [1.0], [3.0]])
    order, radii = farthest_point_order(space)
    assert order.tolist() == [3, 2, 0]
    assert radii.tolist() == [2.0, 1.0, 0.0]


def test_single_point_space():
    space = space_from_points([[1.0, 2.0]])
    order, radii = farthest_point_order(space)
    assert order.tolist() == [0] and radii.tolist() == [0.0]
    prof = covering_profile(space, mode="greedy")
    assert (prof.radii, prof.counts) == ((0.0,), (1,))
    assert covering_number(space, 0.0, mode="greedy").centers == (0,)
    assert entropy_integral(space, 2.0, mode="greedy").value == 0.0
    assert greedy_admissible_sequence(space).levels == ((0,),)


@pytest.mark.parametrize("mode", ["exact", "greedy", "auto"])
def test_nan_radius_rejected_infinite_radius_is_one_ball(mode):
    space = space_from_points(np.random.default_rng(3).normal(size=(6, 2)))
    with pytest.raises(DomainError):
        covering_number(space, float("nan"), mode=mode)
    with pytest.raises(DomainError):
        covering_number(space, -0.5, mode=mode)
    assert covering_number(space, math.inf, mode=mode).count == 1


def test_covering_number_auto_mode_follows_the_cap(monkeypatch):
    space = space_from_points(np.random.default_rng(4).normal(size=(8, 2)))
    u = float(np.median(space.positive_distances()))
    assert covering_number(space, u, mode="auto").mode == "exact"
    monkeypatch.setattr(metric, "EXACT_COVER_CAP", 7)
    assert covering_number(space, u, mode="auto").mode == "greedy"
    with pytest.raises(DomainError):
        covering_number(space, u, mode="fast")
