"""Finite metric spaces, covering numbers, and the entropy integral."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbounds import (
    MetricValidationError,
    build_metric_space,
    covering_number,
    covering_profile,
    entropy_integral,
    space_from_json,
    space_from_points,
)
from chainbounds import metric

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


def test_helper_geometry():
    sp = build_metric_space([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
    assert sp.diameter() == 2.0
    assert sp.chebyshev_center() == 2
    assert sp.chebyshev_radius() == 1.0
    assert sp.min_positive_distance() == 1.0
    assert sp.subset_diameter([0, 1]) == 2.0
    np.testing.assert_allclose(sp.point_to_set([2]), [1, 1, 0])
    assert list(sp.nearest_in([0, 1])) == [0, 1, 0]


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
    with pytest.raises(Exception):
        covering_number(sp, 0.5, mode="exact", exact_cap=10)


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
    assert prof.counts[0] == sp.size or sp.min_positive_distance() > 0
    assert prof.counts[-1] == 1
    # profile radii are breakpoints: count at each radius matches a direct call
    for r, c in zip(prof.radii, prof.counts):
        assert covering_number(sp, float(r), mode="exact").count == c


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
            assert entropy_integral(sp, alpha, mode=mode, profile=prof) == fresh
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
    with mock.patch.object(metric, "_BLOCK_ELEMENTS", block):
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
