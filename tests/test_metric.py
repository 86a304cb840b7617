"""Finite metric spaces, covering numbers, and the entropy integral."""

import itertools
import math
import re
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbounds import (
    CapacityError,
    MetricValidationError,
    build_metric_space,
    covering_number,
    covering_profile,
    entropy_integral,
    gamma_exact,
    space_from_json,
    space_from_points,
)
from chainbounds import errors, metric

TRI = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def random_point_space(rng, n, dim=3):
    return space_from_points(rng.normal(size=(n, dim)))


def test_build_rejects_bad_matrices():
    with pytest.raises(MetricValidationError):
        build_metric_space([[0, 1], [1, 0], [1, 1]])
    with pytest.raises(MetricValidationError):
        build_metric_space([[0, -1], [-1, 0]])
    with pytest.raises(MetricValidationError):
        build_metric_space([[0.5, 1], [1, 0]])
    with pytest.raises(MetricValidationError):
        build_metric_space([[0, 1], [2, 0]])
    # d(0,2) = 10 > d(0,1) + d(1,2) = 2
    with pytest.raises(MetricValidationError, match="triangle"):
        build_metric_space([[0, 1, 10], [1, 0, 1], [10, 1, 0]])
    with pytest.raises(MetricValidationError):
        build_metric_space(np.zeros((0, 0)))


def test_semi_metric_zeros_allowed():
    # Distinct points at distance zero are fine (semi-metric); only the
    # axioms above are enforced.
    sp = build_metric_space([[0, 0], [0, 0]], labels=("a", "b"))
    assert sp.diameter() == 0.0


def test_spaces_compare_and_hash_by_identity():
    a, b = build_metric_space([[0, 1], [1, 0]]), build_metric_space([[0, 1], [1, 0]])
    assert a == a and a != b  # equal contents, distinct spaces
    assert len({a, b, a}) == 2
    # what holds a space compares through it without raising
    ea, eb = gamma_exact(a, 2.0), gamma_exact(b, 2.0)
    assert ea.sequence == gamma_exact(a, 2.0).sequence and ea.sequence != eb.sequence
    assert ea == gamma_exact(a, 2.0) and ea != eb


def test_labels_default_and_mismatch():
    sp = build_metric_space(TRI)
    assert sp.labels == (0, 1, 2)
    with pytest.raises(MetricValidationError):
        build_metric_space(TRI, labels=("a",))


def test_space_from_points_norms():
    pts = [[0.0, 0.0], [3.0, 4.0]]
    assert space_from_points(pts, norm="l2").dist[0, 1] == pytest.approx(5.0)
    assert space_from_points(pts, norm="l1").dist[0, 1] == pytest.approx(7.0)
    assert space_from_points(pts, norm="linf").dist[0, 1] == pytest.approx(4.0)


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_points_without_coordinates_form_the_zero_space(norm):
    sp = space_from_points([[], []], norm=norm)
    assert sp.size == 2
    assert sp.dist.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_helper_geometry():
    sp = build_metric_space([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
    assert sp.diameter() == 2.0
    assert sp.chebyshev_center() == 2
    assert sp.subset_diameter([0, 1]) == 2.0
    np.testing.assert_allclose(sp.point_to_set([2]), [1, 1, 0])


def test_covering_number_triangle():
    sp = build_metric_space(TRI)
    # radius below the pairwise distance: every point is its own ball
    assert covering_number(sp, 0.5, mode="exact").count == 3
    # radius 1: one ball covers everything
    assert covering_number(sp, 1.0, mode="exact").count == 1
    assert covering_number(sp, 1.0, mode="greedy").count == 1


def test_covering_exact_cap_enforced():
    rng = np.random.default_rng(3)
    sp = random_point_space(rng, 25)
    assert covering_number(sp, sp.diameter(), mode="greedy").count == 1
    with pytest.raises(CapacityError, match="exact covering capped at 20 points, space has 25"):
        covering_number(sp, 0.5, mode="exact")


@pytest.mark.parametrize("call", [covering_number, covering_profile])
def test_unknown_cover_mode_gets_the_generic_message(call):
    sp = random_point_space(np.random.default_rng(3), 5)
    args = (sp, 0.5) if call is covering_number else (sp,)
    with pytest.raises(Exception, match="unknown mode 'bogus'; expected exact, greedy or auto"):
        call(*args, mode="bogus")


@pytest.mark.parametrize("n, duplicates", [(1, 0), (2, 1), (6, 0), (6, 3), (12, 2)])
def test_breakpoints_are_zero_plus_the_distinct_positive_distances(n, duplicates):
    rng = np.random.default_rng(n + duplicates)
    pts = np.round(rng.normal(size=(n, 2)), 1)
    pts[:duplicates] = pts[-1]  # repeated points put zeros off the diagonal
    sp = space_from_points(pts)
    iu = np.triu_indices(n, k=1)
    old = np.unique(np.concatenate(([0.0], sp.dist[iu]))) if n > 1 else np.array([0.0])
    new = metric._breakpoints(sp)
    assert new.dtype == old.dtype
    np.testing.assert_array_equal(new, old)


def test_covering_centers_cover():
    rng = np.random.default_rng(11)
    sp = random_point_space(rng, 12)
    u = float(np.median(sp.dist))
    for mode in ("exact", "greedy"):
        res = covering_number(sp, u, mode=mode)
        gaps = sp.point_to_set(res.centers)
        assert gaps.max() <= u * (1 + 1e-12)


@given(st.integers(2, 10), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_greedy_never_beats_exact(n, seed):
    rng = np.random.default_rng(seed)
    sp = random_point_space(rng, n)
    u = float(np.quantile(sp.dist[np.triu_indices(n, 1)], 0.4))
    exact = covering_number(sp, u, mode="exact").count
    greedy = covering_number(sp, u, mode="greedy").count
    assert exact <= greedy


@given(st.integers(2, 8), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_covering_number_nonincreasing_in_radius(n, seed):
    rng = np.random.default_rng(seed)
    sp = random_point_space(rng, n)
    radii = np.linspace(0.0, sp.diameter(), 6)
    counts = [covering_number(sp, float(u), mode="exact").count for u in radii]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 1


def test_covering_profile_consistency():
    rng = np.random.default_rng(5)
    sp = random_point_space(rng, 9)
    prof = covering_profile(sp, mode="exact")
    assert prof.counts[0] == sp.size or sp.positive_distances()[0] > 0
    assert prof.counts[-1] == 1
    # profile radii are breakpoints: count at each radius matches a direct call
    for r, c in zip(prof.radii, prof.counts):
        assert covering_number(sp, float(r), mode="exact").count == c


# ---------------------------------------------------------------------------
# exact covers against the per-bit masks and per-branch counts they replaced


def reference_ball_masks(dist, u):
    masks = []
    for row in dist <= u:
        m = 0
        for j in np.flatnonzero(row):
            m |= 1 << int(j)
        masks.append(m)
    return masks


def reference_exact_cover(masks, n):
    full = (1 << n) - 1
    kept = []
    for i, m in enumerate(masks):
        if any(m | other == other for other, _ in kept if other != m):
            continue
        if any(m == other for other, _ in kept):
            continue
        kept = [(o, c) for o, c in kept if o | m != m or o == m]
        kept.append((m, i))
    cand_masks = [m for m, _ in kept]
    cand_centers = [c for _, c in kept]
    best, covered = [], 0
    while covered != full:
        pick = max(range(len(cand_masks)), key=lambda i: bin(cand_masks[i] & ~covered).count("1"))
        best.append(pick)
        covered |= cand_masks[pick]
    best_len = len(best)

    def search(covered, chosen):
        nonlocal best, best_len
        if covered == full:
            if len(chosen) < best_len:
                best, best_len = list(chosen), len(chosen)
            return
        if len(chosen) + 1 >= best_len:
            for i, m in enumerate(cand_masks):
                if covered | m == full and len(chosen) + 1 < best_len:
                    best, best_len = chosen + [i], len(chosen) + 1
                    return
            return
        uncovered = [j for j in range(n) if not (covered >> j) & 1]
        target = min(uncovered, key=lambda j: sum((m >> j) & 1 for m in cand_masks))
        options = [i for i, m in enumerate(cand_masks) if (m >> target) & 1]
        options.sort(key=lambda i: -bin(cand_masks[i] & ~covered).count("1"))
        for i in options:
            search(covered | cand_masks[i], chosen + [i])

    search(0, [])
    return sorted(cand_centers[i] for i in best)


def reference_exact_profile(sp):
    radii, counts, centers = [], [], []
    for u in metric._breakpoints(sp):
        cover = reference_exact_cover(reference_ball_masks(sp.dist, u), sp.size)
        radii.append(float(u))
        counts.append(len(cover))
        centers.append(tuple(cover))
        if len(cover) == 1:
            break
    return tuple(radii), tuple(counts), tuple(centers)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(0, 2**32 - 1), st.sampled_from(["l1", "l2", "linf"]),
       st.booleans())
def test_exact_profile_matches_the_per_branch_search(n, seed, norm, grid):
    # grid clouds have duplicate points and many equal distances, so equal and
    # nested balls and tied branching counts all occur
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 3, size=(n, 2)) if grid else rng.normal(size=(n, 3))
    sp = space_from_points(points, norm=norm)
    prof = covering_profile(sp, mode="exact")
    centers = tuple(covering_number(sp, u, mode="exact").centers for u in prof.radii)
    assert (prof.radii, prof.counts, centers) == reference_exact_profile(sp)


@pytest.mark.parametrize("seed", [7, 15, 53, 55, 73])
def test_exact_profile_breaks_branching_ties_like_the_per_branch_search(seed):
    # 2-d clouds of 6-16 points on which branching on the last of the points
    # with the fewest balls, instead of the first, changes some centers
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 17))
    sp = space_from_points(rng.normal(size=(n, 2)), norm=("l1", "l2", "linf")[seed % 3])
    prof = covering_profile(sp, mode="exact")
    centers = tuple(covering_number(sp, u, mode="exact").centers for u in prof.radii)
    assert (prof.radii, prof.counts, centers) == reference_exact_profile(sp)


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_ball_masks_are_exact_beyond_64_bits(n):
    sp = space_from_points(np.random.default_rng(n).normal(size=(n, 2)))
    for u in (0.0, float(np.median(sp.dist)), sp.diameter()):
        masks = metric._ball_masks(sp.dist <= u)
        assert masks == reference_ball_masks(sp.dist, u)
    assert metric._ball_masks(sp.dist <= sp.diameter()) == [(1 << n) - 1] * n


def two_clusters(n):
    rng = np.random.default_rng(n)
    near = rng.uniform(-1.0, 1.0, size=(n // 2, 2))
    far = rng.uniform(-1.0, 1.0, size=(n - n // 2, 2)) + [100.0, 0.0]
    return space_from_points(np.vstack([near, far]))


def brute_force_count(sp, u, limit=2):
    """The least k <= limit with k balls covering the space, by trying every k-set."""
    inside = sp.dist <= u
    for k in range(1, limit + 1):
        for centers in itertools.combinations(range(sp.size), k):
            if inside[list(centers)].any(axis=0).all():
                return k
    return None


@pytest.mark.parametrize("n", [64, 70, 100])
def test_exact_cover_beyond_64_points_with_a_raised_cap(monkeypatch, n):
    sp = two_clusters(n)
    halves = (np.arange(n) < n // 2)
    # the larger cluster's Chebyshev radius covers each cluster from one point
    radius = max(float(sp.dist[np.ix_(h, h)].max(axis=1).min()) for h in (halves, ~halves))
    with monkeypatch.context() as raised:
        raised.setattr(metric, "EXACT_COVER_CAP", n)
        for u in (sp.diameter(), 2 * sp.diameter(), radius):
            res = covering_number(sp, u, mode="exact")
            assert res.count == brute_force_count(sp, u)
            assert sp.point_to_set(res.centers).max() <= u
        # below the cluster radius two balls no longer do
        below = float(np.nextafter(radius, 0.0))
        assert brute_force_count(sp, below) is None
        assert covering_number(sp, below, mode="exact").count >= 3
        assert covering_number(sp, 0.0, mode="exact").count == n
    with pytest.raises(CapacityError):
        covering_number(sp, radius, mode="exact")


def test_entropy_integral_two_points():
    # N(u) = 2 for u < 1, so the alpha=2 integrand is sqrt(log 2) on [0, 1):
    # the integral is sqrt(log 2) = 0.8325546111576977.
    sp = build_metric_space([[0, 1], [1, 0]])
    ent = entropy_integral(sp, 2.0)
    assert ent.value == pytest.approx(math.sqrt(math.log(2.0)), rel=1e-12)
    ent1 = entropy_integral(sp, 1.0)
    assert ent1.value == pytest.approx(math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_entropy_integral_of_a_given_profile_is_the_same(mode):
    rng = np.random.default_rng(4)
    for n in (1, 2, 9, 15):
        sp = random_point_space(rng, n)
        prof = covering_profile(sp, mode=mode)
        for alpha in (1.0, 2.0):
            fresh = entropy_integral(sp, alpha, mode=mode)
            assert fresh.profile == prof


def test_entropy_integral_scales_linearly():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(7, 2))
    a = entropy_integral(space_from_points(pts), 2.0).value
    b = entropy_integral(space_from_points(3.0 * pts), 2.0).value
    assert b == pytest.approx(3.0 * a, rel=1e-9)


def test_entropy_integral_singleton_is_zero():
    sp = build_metric_space([[0.0]])
    assert entropy_integral(sp, 2.0).value == 0.0


# ---------------------------------------------------------------------------
# norm-induced spaces: blocked distances and the triangle certificate


def unchunked_distances(pts, norm):
    """The one-shot (n, n, d) formula that blocked construction replaces."""
    diff = pts[:, None, :] - pts[None, :, :]
    if norm == "l2":
        d = np.sqrt((diff ** 2).sum(axis=2))
    elif norm == "l1":
        d = np.abs(diff).sum(axis=2)
    else:
        d = np.abs(diff).max(axis=2)
    d = np.maximum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return d


@st.composite
def point_clouds(draw):
    """1-40 points at scales 1e-150..1e150; integer grids give ties and duplicates."""
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = rng.integers(-2, 3, size=(n, dim)).astype(float)
    else:
        pts = rng.normal(size=(n, dim))
    if n > 1 and draw(st.booleans()):
        pts[-1] = pts[0]  # a duplicate point: a semi-metric zero
    return pts * 10.0 ** draw(st.integers(-150, 150))


@given(point_clouds(), st.sampled_from(["l1", "l2", "linf"]), st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_norm_spaces_are_bitwise_and_pass_the_full_triangle_pass(pts, norm, block):
    # small blocks make construction run over many row blocks
    with mock.patch.object(errors, "_BLOCK_ENTRIES", block):
        space = space_from_points(pts, norm=norm)
    ref = unchunked_distances(pts, norm)
    assert np.array_equal(space.dist.view(np.int64), ref.view(np.int64))
    assert metric._norm_certifies_triangle(pts.shape[1], float(ref.max()))
    metric._check_triangle(space.dist)  # the skipped pass would have passed


def test_certificate_declines_dimensions_too_large_to_certify():
    for max_dist in (0.0, 1e-300, 1.0, 1e300):
        assert metric._norm_certifies_triangle(100, max_dist)
        assert not metric._norm_certifies_triangle(2**52, max_dist)
    # the tolerance is relative from distance 1 up and absolute below it
    for max_dist in (1.0, 1e300):
        assert not metric._norm_certifies_triangle(10**7, max_dist)
    assert metric._norm_certifies_triangle(10**7, 1e-3)


def _count_triangle_passes(monkeypatch) -> list:
    calls = []
    real = metric._check_triangle

    def counted(d):
        calls.append(d.shape[0])
        real(d)

    monkeypatch.setattr(metric, "_check_triangle", counted)
    return calls


def test_triangle_pass_skipped_for_certified_norm_spaces(monkeypatch):
    calls = _count_triangle_passes(monkeypatch)
    rng = np.random.default_rng(12)
    for dim in (1, 8, 100):
        for norm in ("l1", "l2", "linf"):
            space_from_points(rng.normal(size=(30, dim)), norm=norm)
    space_from_json({"points": rng.normal(size=(5, 3)).tolist(), "norm": "l1"})
    assert calls == []


def test_triangle_pass_runs_for_user_dist_and_uncertified_spaces(monkeypatch):
    calls = _count_triangle_passes(monkeypatch)
    dist = space_from_points(np.random.default_rng(13).normal(size=(6, 2))).dist
    build_metric_space(dist)
    space_from_json({"dist": dist.tolist()})
    assert calls == [6, 6]
    monkeypatch.setattr(metric, "_norm_certifies_triangle", lambda dim, max_dist: False)
    space_from_points(np.zeros((4, 2)))
    assert calls == [6, 6, 4]


# ---------------------------------------------------------------------------
# user-supplied distances: the nearest-neighbour certificate


def reference_triangle_pass(d):
    """The full O(n^3) pass alone, as every user dist got it before the certificate."""
    tol = metric._TRIANGLE_RTOL * max(1.0, float(d.max()))
    viol = np.empty_like(d)
    for j in range(d.shape[0]):
        np.add(d[:, j:j + 1], d[j:j + 1, :], out=viol)
        np.subtract(d, viol, out=viol)
        if viol.max() > tol:
            i, k = (int(x) for x in np.argwhere(viol == viol.max())[0])
            raise MetricValidationError(
                f"triangle violation d[{i},{k}] = {d[i, k]} > "
                f"d[{i},{j}] + d[{j},{k}] = {d[i, j] + d[j, k]} (triple {i},{j},{k})"
            )


def rejection(check, d):
    """The message check(d) raises, or None when d is accepted."""
    try:
        check(d)
    except MetricValidationError as exc:
        return str(exc)
    return None


def sqrt_l1(pts):
    """Square roots of l1 distances: a metric that no norm on the points induces."""
    return np.sqrt(np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2))


def plant(d, i, k, where):
    """Set d[i,k] = d[k,i] relative to the largest value the pass accepts there.

    "at" is that value, whose test equals the tolerance when it can; "below"
    is one ulp lower, "above" one ulp higher (the least violation), and a
    number scales the tolerance instead.
    """
    j = [x for x in range(len(d)) if x not in (i, k)]
    shortest = float((d[i, j] + d[j, k]).min())
    rest = d.copy()
    rest[i, k] = rest[k, i] = 0.0

    def tol(v):
        return metric._TRIANGLE_RTOL * max(1.0, float(rest.max()), v)

    v = shortest + (1.0 if isinstance(where, str) else where) * tol(shortest)
    if isinstance(where, str):
        while v - shortest > tol(v):
            v = math.nextafter(v, -math.inf)
        while math.nextafter(v, math.inf) - shortest <= tol(math.nextafter(v, math.inf)):
            v = math.nextafter(v, math.inf)
        if where != "at":
            v = math.nextafter(v, math.inf if where == "above" else -math.inf)
    d[i, k] = d[k, i] = v
    return d


@st.composite
def user_dists(draw):
    """sqrt-l1, integer-grid l1 and all-equal matrices at scales 1e-150..1e150.

    A fifth have 1-3 points, the rest 4-30.  Points may repeat (semi-metric
    zeros), and one pair may be planted at, just below or just above the
    tolerance, or at 0.5 or 3 times it.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 4) if rng.random() < 0.2 else rng.integers(4, 31))
    kind = draw(st.sampled_from(["sqrt-l1", "grid", "equal"]))
    if kind == "equal":
        d = np.ones((n, n))
    else:
        dim = draw(st.integers(1, 8))
        if kind == "grid":
            pts = rng.integers(-2, 3, size=(n, dim)).astype(float)
        else:
            pts = rng.normal(size=(n, dim))
        if n > 1 and draw(st.booleans()):
            pts[-1] = pts[0]
        d = sqrt_l1(pts) if kind == "sqrt-l1" else np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    np.fill_diagonal(d, 0.0)
    d *= 10.0 ** draw(st.integers(-150, 150))
    if n >= 3 and draw(st.booleans()):
        i, k = (int(x) for x in rng.choice(n, 2, replace=False))
        d = plant(d, i, k, draw(st.sampled_from(["below", "at", "above", 0.5, 3.0])))
    return d


@given(user_dists())
@settings(max_examples=400, deadline=None)
def test_certified_check_matches_the_full_pass(d):
    assert rejection(metric._check_triangle, d) == rejection(reference_triangle_pass, d)
    assert rejection(build_metric_space, d) == rejection(reference_triangle_pass, d)


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_planted_pairs_sit_on_either_side_of_the_tolerance(scale):
    for n in (3, 6):
        d = np.full((n, n), scale)
        np.fill_diagonal(d, 0.0)
        for where, rejected in (("below", False), ("at", False), ("above", True), (3.0, True)):
            planted = plant(d.copy(), 0, n - 1, where)
            assert (rejection(metric._check_triangle, planted) is not None) == rejected


def _count_full_passes(monkeypatch) -> list:
    calls = []
    real = metric._full_triangle_pass

    def counted(d, tol):
        calls.append(d.shape[0])
        real(d, tol)

    monkeypatch.setattr(metric, "_full_triangle_pass", counted)
    return calls


def test_full_pass_skipped_on_metric_scale_shaped_input(monkeypatch):
    calls = _count_full_passes(monkeypatch)
    d = sqrt_l1(np.random.default_rng(5).normal(size=(200, 8)))
    assert np.array_equal(build_metric_space(d).dist, d)
    assert calls == []


def test_full_pass_skipped_when_most_pairs_are_suspect(monkeypatch):
    # in two dimensions most pairs stay suspect; their exact check is still
    # cheaper than the full pass, so it settles them all
    calls = _count_full_passes(monkeypatch)
    d = sqrt_l1(np.random.default_rng(6).normal(size=(60, 2)))
    off = d + np.diag(np.full(60, np.inf))
    m = off.min(axis=1)
    tol = metric._TRIANGLE_RTOL * max(1.0, float(d.max()))
    assert np.triu(d - (m[:, None] + m[None, :]) > tol, 1).sum() > 0.5 * 60 * 59 / 2
    build_metric_space(d)
    assert calls == []


def test_full_pass_runs_when_a_suspect_pair_fails(monkeypatch):
    calls = _count_full_passes(monkeypatch)
    d = sqrt_l1(np.random.default_rng(7).normal(size=(40, 3)))
    d[0, 1] = d[1, 0] = 3.0 * d.max()
    expected = rejection(reference_triangle_pass, d)
    assert expected is not None
    with pytest.raises(MetricValidationError, match=re.escape(expected)):
        build_metric_space(d)
    assert calls == [40]


@pytest.mark.parametrize("n", [1, 2])
def test_spaces_without_a_third_point_never_fail(n, monkeypatch):
    calls = _count_full_passes(monkeypatch)
    d = np.full((n, n), 1e308)  # m_i + m_k overflows: the certificate must stay quiet
    np.fill_diagonal(d, 0.0)
    build_metric_space(d)
    assert calls == []


# ---------------------------------------------------------------------------
# input checks: dtypes, coordinates, overflow and size


def test_complex_and_other_non_real_input_is_rejected_before_the_cast():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning from a silent cast
        with pytest.raises(MetricValidationError, match="distances must be real numbers, got dtype complex128"):
            build_metric_space(np.array([[0, 1j], [1j, 0]]))
        with pytest.raises(MetricValidationError, match="coordinates must be real numbers"):
            space_from_points(np.array([[0.0, 1j], [1.0, 0.0]]))
        with pytest.raises(MetricValidationError, match="dtype <U1"):
            build_metric_space([["0", "1"], ["1", "0"]])
        with pytest.raises(MetricValidationError):
            space_from_json({"dist": [[0, 1j], [1j, 0]]})
        # integers and booleans are real: cast as before
        assert build_metric_space(np.array([[0, 2], [2, 0]], dtype=np.int32)).dist[0, 1] == 2.0
        assert space_from_points(np.array([[True], [False]])).dist[0, 1] == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_name_their_point(bad):
    pts = np.zeros((4, 2))
    pts[2, 1] = bad
    with pytest.raises(MetricValidationError,
                       match=re.escape(f"non-finite coordinate {bad} of point 2 (axis 1)")):
        space_from_points(pts)


@pytest.mark.parametrize("norm, pair", [("l2", (0, 1)), ("l1", (1, 2)), ("linf", (1, 2))])
def test_overflowing_distances_name_their_pair(norm, pair):
    # finite coordinates: l2 squares 1e308 past the float range, l1 and linf
    # overflow only between the two far points
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricValidationError,
                           match=f"{norm} distance between points {pair[0]} and {pair[1]} overflows"):
            space_from_points([[0.0], [1e308], [-1e308]], norm=norm)


def test_point_cap_follows_the_array_budget():
    n = metric.MAX_POINTS
    assert n == 5000
    assert 8 * n * n <= metric._ARRAY_BUDGET_BYTES < 8 * (n + 1) ** 2


def test_too_many_points_fail_before_any_n_by_n_allocation():
    pts = np.zeros((metric.MAX_POINTS + 1, 1))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"capped at {metric.MAX_POINTS} points, got {metric.MAX_POINTS + 1}"):
            space_from_points(pts)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # one n x n array would be 200 MB
    assert elapsed < 1.0


def test_build_metric_space_enforces_the_point_cap(monkeypatch):
    monkeypatch.setattr(metric, "MAX_POINTS", 3)
    build_metric_space(TRI)
    with pytest.raises(CapacityError, match="capped at 3 points, got 4"):
        build_metric_space(np.ones((4, 4)) - np.eye(4))


# ---------------------------------------------------------------------------
# the pairwise kernel behind every distance matrix


def broadcast_pairwise(points, reduce):
    """The one-shot (n, n, ...) broadcast the kernel replaces, diagonal zeroed."""
    d = reduce(points[:, None] - points[None, :])
    np.fill_diagonal(d, 0.0)
    return d


@st.composite
def kernel_inputs(draw, complex_entries: bool):
    """n = 1, 2 or 3-30 points of 1-3 x 1-3 entries at scales 1e-300..1e150."""
    n = draw(st.sampled_from([1, 2, draw(st.integers(3, 30))]))
    shape = (n,) + tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=shape)
    if complex_entries and draw(st.booleans()):
        pts = pts + 1j * rng.normal(size=shape)
    return pts * 10.0 ** draw(st.integers(-300, 150))


def flattened(reduce):
    """An lp reduction over every entry of each point, not only the last axis."""
    return lambda diff: reduce(diff.reshape(diff.shape[:2] + (-1,)))


def spectral(diff):
    """The largest singular value of each difference, as matrix_set_space takes it."""
    if diff.ndim == 3:
        diff = diff[..., None]
    return np.linalg.svd(diff, compute_uv=False).max(axis=-1)


def assert_kernel_equals_the_broadcast(pts, reduce, block):
    # a budget below one row of differences forces column blocks as well
    with mock.patch.object(errors, "_BLOCK_ENTRIES", block):
        d = metric._pairwise(pts, reduce)
    ref = broadcast_pairwise(pts, reduce)
    assert d.dtype == np.float64 and ref.dtype == np.float64
    assert np.array_equal(d.view(np.int64), ref.view(np.int64))


@given(kernel_inputs(False), st.sampled_from(sorted(metric._NORMS)), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_pairwise_norms_equal_the_broadcast(pts, norm, block):
    assert_kernel_equals_the_broadcast(pts, flattened(metric._NORMS[norm]), block)


@given(kernel_inputs(True), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_pairwise_spectral_norms_equal_the_broadcast(pts, block):
    assert_kernel_equals_the_broadcast(pts, spectral, block)


def test_pairwise_kernel_blocks_rows_and_columns(monkeypatch):
    seen = []

    def reduce(diff):
        seen.append(diff.shape[:2])
        return np.abs(diff).max(axis=-1)

    pts = np.arange(30.0).reshape(10, 3)
    monkeypatch.setattr(errors, "_BLOCK_ENTRIES", 12)  # 4 columns of 3 coordinates
    d = metric._pairwise(pts, reduce)
    assert max(r * c for r, c in seen) * 3 <= 12
    assert sum(r * c for r, c in seen) < 10 * 10  # the pairs below the diagonal are skipped
    np.testing.assert_array_equal(d, 3.0 * np.abs(np.arange(10)[:, None] - np.arange(10)))
    monkeypatch.setattr(errors, "_BLOCK_ENTRIES", 60)  # whole rows, two at a time
    seen.clear()
    metric._pairwise(pts, reduce)
    assert seen == [(2, 9), (2, 7), (2, 5), (2, 3), (2, 1)]


def test_pairwise_kernel_checks_the_cap_first(monkeypatch):
    monkeypatch.setattr(metric, "MAX_POINTS", 3)
    with pytest.raises(CapacityError, match="capped at 3 points, got 4"):
        metric._pairwise(np.zeros((4, 2)), lambda diff: pytest.fail("reduced past the cap"))


@pytest.mark.parametrize("n, shape", [(2, (3,)), (9, (3,)), (60, (8, 8)), (500, (1,))])
def test_pairwise_kernel_wastes_at_most_n_ceil_n_over_8_half_pairs(n, shape):
    pts = np.random.default_rng(n).normal(size=(n,) + shape)
    given = []

    def counting(reduce):
        def count(diff):
            given.append(diff.shape[0] * diff.shape[1])
            return reduce(diff)
        return count

    per_pair = {
        "l1": flattened(metric._NORMS["l1"]),
        "l2": flattened(metric._NORMS["l2"]),
        "linf": flattened(metric._NORMS["linf"]),
        "operator": spectral,
    }
    for name, reduce in per_pair.items():
        given.clear()
        d = metric._pairwise(pts, counting(reduce))
        assert sum(given) <= n * (n - 1) // 2 + n * -(-n // 8) / 2, name
        loop = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                loop[i, j] = loop[j, i] = reduce((pts[i] - pts[j])[None, None])[0, 0]
        assert np.array_equal(d.view(np.int64), loop.view(np.int64)), name


@pytest.mark.parametrize("call, message", [
    (lambda: build_metric_space([[0, math.nan], [math.nan, 0]]),
     "non-finite distance at entry (0, 1)"),
    (lambda: space_from_points(np.zeros((2, 2, 2))),
     "points must be a 2-d array, got shape (2, 2, 2)"),
    (lambda: space_from_points([[0], [1]], norm="l3"),
     "unknown norm 'l3' (expected l1, l2, or linf)"),
    (lambda: metric.FiniteMetricSpace(labels=(), dist=np.zeros((0, 0))).diameter(),
     "empty space has no diameter"),
    (lambda: build_metric_space(np.zeros((2, 2)), labels=5),
     "labels must be a list of point labels, got 5"),
    (lambda: space_from_points([[0], [1]], labels="ab"),
     "labels must be a list of point labels, got 'ab'"),
    (lambda: build_metric_space([[0, math.nan], [math.nan, 0]], labels=("a",)),
     "1 labels for 2 points"),  # before any pass over the distances
], ids=["non-finite distance", "3-D points", "unknown norm", "empty diameter",
        "labels int", "labels string", "labels before distances"])
def test_metric_refusals(call, message):
    with pytest.raises(MetricValidationError, match=f"^{re.escape(message)}$"):
        call()
