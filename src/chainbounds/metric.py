"""Finite semi-metric spaces, covering numbers, and entropy integrals.

A space is a finite set of labelled points with a symmetric, nonnegative
distance matrix that has a zero diagonal and satisfies the triangle
inequality.  Zero off-diagonal distances are allowed (semi-metric), which is
what canonical metrics of perfectly correlated processes produce.

Covering numbers count closed balls centered at points of the space.  Every
greedy answer (covers, covering profiles, and through them entropy
integrals and greedy admissible sequences) is read off one farthest-point
traversal (Gonzalez, 1985), computed once per space.  The
entropy integral integrates (log N(T,d,u))^(1/alpha) over u; since N is a
step function whose jumps happen at pairwise distances, the integral is a
finite sum over consecutive breakpoints and is computed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, MetricValidationError, check_real

__all__ = [
    "FiniteMetricSpace",
    "build_metric_space",
    "space_from_points",
    "CoverResult",
    "CoveringProfile",
    "covering_number",
    "covering_profile",
    "entropy_integral",
    "EntropyIntegral",
    "EXACT_COVER_CAP",
]

# Exact set-cover search is feasible well beyond this, but the default keeps
# worst cases comfortably sub-second.
EXACT_COVER_CAP = 20

_TRIANGLE_RTOL = 1e-9


@dataclass(frozen=True)
class FiniteMetricSpace:
    """An immutable finite semi-metric space.

    Use :func:`build_metric_space` or :func:`space_from_points`; the raw
    constructor performs no validation.
    """

    labels: tuple
    dist: np.ndarray

    @property
    def size(self) -> int:
        return self.dist.shape[0]

    def diameter(self) -> float:
        if self.size == 0:
            raise MetricValidationError("empty space has no diameter")
        return float(self.dist.max())

    def eccentricities(self) -> np.ndarray:
        """max_t d(s, t) for each point s."""
        return self.dist.max(axis=1)

    def chebyshev_center(self) -> int:
        """Lowest-index point minimizing the eccentricity."""
        return int(np.argmin(self.eccentricities()))

    def chebyshev_radius(self) -> float:
        return float(self.eccentricities().min())

    def positive_distances(self) -> np.ndarray:
        """Sorted distinct positive pairwise distances."""
        iu = np.triu_indices(self.size, k=1)
        vals = np.unique(self.dist[iu])
        return vals[vals > 0.0]

    def min_positive_distance(self) -> float:
        vals = self.positive_distances()
        if vals.size == 0:
            raise MetricValidationError("space has no positive pairwise distance")
        return float(vals[0])

    def subset_diameter(self, indices) -> float:
        idx = np.asarray(list(indices), dtype=int)
        if idx.size <= 1:
            return 0.0
        return float(self.dist[idx[:, None], idx].max())

    def point_to_set(self, subset) -> np.ndarray:
        """d(t, S) for every point t, S given by indices."""
        idx = np.asarray(list(subset), dtype=int)
        return self.dist[:, idx].min(axis=1)

    def nearest_in(self, subset) -> np.ndarray:
        """Index in `subset` of the nearest point, ties to the lowest index."""
        idx = np.sort(np.asarray(list(subset), dtype=int))
        # argmin picks the first minimum, i.e. the lowest index after sorting
        return idx[np.argmin(self.dist[:, idx], axis=1)]


def build_metric_space(dist, labels=None) -> FiniteMetricSpace:
    """Validate a distance matrix and wrap it as a FiniteMetricSpace.

    Rejects non-square input, negative entries, a nonzero diagonal, asymmetry,
    and triangle-inequality violations, naming the offending entry or triple.
    """
    return _validated(np.array(dist, dtype=float), labels, certified=False)


def _validated(d: np.ndarray, labels, certified: bool) -> FiniteMetricSpace:
    """Run every check on d, skipping the triangle pass when certified."""
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise MetricValidationError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    if n == 0:
        raise MetricValidationError("metric space must contain at least one point")
    if not np.all(np.isfinite(d)):
        bad = tuple(int(k) for k in np.argwhere(~np.isfinite(d))[0])
        raise MetricValidationError(f"non-finite distance at entry {bad}")
    if np.any(d < 0):
        bad = tuple(int(k) for k in np.argwhere(d < 0)[0])
        raise MetricValidationError(f"negative distance {d[bad]} at entry {bad}")
    diag = np.abs(np.diag(d))
    if np.any(diag > 0):
        i = int(np.argmax(diag > 0))
        raise MetricValidationError(f"nonzero diagonal entry d[{i},{i}] = {d[i, i]}")
    if not np.array_equal(d, d.T):
        asym = np.abs(d - d.T)
        i, j = (int(k) for k in np.argwhere(asym == asym.max())[0])
        raise MetricValidationError(
            f"asymmetric pair d[{i},{j}] = {d[i, j]} vs d[{j},{i}] = {d[j, i]}"
        )
    if not certified:
        _check_triangle(d)
    if labels is None:
        labels = tuple(range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise MetricValidationError(
                f"{len(labels)} labels for {n} points"
            )
    d.flags.writeable = False
    return FiniteMetricSpace(labels=labels, dist=d)


def _check_triangle(d: np.ndarray) -> None:
    """The O(n^3) triangle pass, with a relative slack for rounded distances."""
    tol = _TRIANGLE_RTOL * max(1.0, float(d.max()))
    viol = np.empty_like(d)  # reused: one n x n buffer instead of two per intermediate
    for j in range(d.shape[0]):
        # d[i,k] <= d[i,j] + d[j,k] for all i,k; check one intermediate at a time
        np.add(d[:, j:j + 1], d[j:j + 1, :], out=viol)
        np.subtract(d, viol, out=viol)
        if viol.max() > tol:
            i, k = (int(x) for x in np.argwhere(viol == viol.max())[0])
            raise MetricValidationError(
                f"triangle violation d[{i},{k}] = {d[i, k]} > "
                f"d[{i},{j}] + d[{j},{k}] = {d[i, j] + d[j, k]} (triple {i},{j},{k})"
            )


def _norm_certifies_triangle(dim: int, max_dist: float) -> bool:
    """True when rounding cannot make lp distances fail the triangle pass.

    Exact l1, l2 and linf distances satisfy the triangle inequality exactly.
    A computed distance takes at most dim + 3 roundings (a difference, its
    square, dim - 1 additions, a square root), so it is within
    gamma_k * dist + tiny of the exact one, with k = dim + 3,
    gamma_k = k*u / (1 - k*u) (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3-4) and tiny = sqrt(dim * 2^-1074) for squares that
    underflow.  A triple's computed violation d_ik - (d_ij + d_jk) is then
    at most 3 * gamma_k * D + 3 * tiny, plus u * (d_ij + d_jk) for rounding
    the sum, where D bounds the exact distances.  When that is within the
    pass's tolerance, the pass cannot fail and is skipped.
    """
    u = 2.0 ** -53
    k = dim + 3
    if k * u >= 0.5:
        return False
    gamma = k * u / (1.0 - k * u)
    tiny = math.sqrt(dim * 2.0 ** -1074)
    exact_max = (max_dist + tiny) / (1.0 - gamma)
    slack = 3.0 * gamma * exact_max + 3.0 * tiny + 2.0 * u * max_dist
    return slack <= _TRIANGLE_RTOL * max(1.0, max_dist)


# Coordinates differenced at once: bounds the (rows, n, d) temporary.
_BLOCK_ELEMENTS = 1 << 18


def space_from_points(points, norm: str = "l2", labels=None) -> FiniteMetricSpace:
    """Build a space from a point cloud under an lp norm ("l1", "l2", "linf").

    Distances are computed a block of rows at a time.  Every check of
    :func:`build_metric_space` runs except the O(n^3) triangle pass, which
    is skipped when the rounding-error certificate shows it cannot fail.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise MetricValidationError(f"points must be a 2-d array, got shape {pts.shape}")
    if norm not in ("l1", "l2", "linf"):
        raise MetricValidationError(f"unknown norm {norm!r} (expected l1, l2, or linf)")
    n, dim = pts.shape
    d = np.empty((n, n))
    rows = max(1, _BLOCK_ELEMENTS // max(1, n * dim))
    for start in range(0, n, rows):
        diff = pts[start:start + rows, None, :] - pts[None, :, :]
        if norm == "l2":
            d[start:start + rows] = np.sqrt((diff ** 2).sum(axis=2))
        elif norm == "l1":
            d[start:start + rows] = np.abs(diff).sum(axis=2)
        else:
            d[start:start + rows] = np.abs(diff).max(axis=2)
    # exact symmetry despite floating point
    d = np.maximum(d, d.T)
    np.fill_diagonal(d, 0.0)
    # a non-finite maximum fails the certificate or the finiteness check
    certified = n > 0 and _norm_certifies_triangle(dim, float(d.max()))
    return _validated(d, labels, certified)


@dataclass(frozen=True)
class CoverResult:
    """A covering of the space by closed balls of one radius."""

    radius: float
    count: int
    centers: tuple[int, ...]
    mode: str  # "exact" | "greedy"


@dataclass(frozen=True)
class CoveringProfile:
    """Covering numbers at every breakpoint radius, ascending."""

    radii: tuple[float, ...]
    counts: tuple[int, ...]
    centers: tuple[tuple[int, ...], ...]
    mode: str


def _ball_masks(space: FiniteMetricSpace, u: float) -> list[int]:
    """Bitmask of the closed ball around each point."""
    within = space.dist <= u
    masks = []
    for i in range(space.size):
        m = 0
        for j in np.flatnonzero(within[i]):
            m |= 1 << int(j)
        masks.append(m)
    return masks


def farthest_point_order(space: FiniteMetricSpace) -> tuple[np.ndarray, np.ndarray]:
    """Farthest-point traversal started at the Chebyshev center.

    order[0] is the Chebyshev center and order[k] the point farthest from
    order[:k] (ties to the lowest index); radii[k] = max_t d(t, order[:k+1])
    is the covering radius of the first k+1 centers.  The traversal stops
    once that radius is 0, so radii is nonincreasing and ends at 0.
    """
    nxt = space.chebyshev_center()
    order = [nxt]
    dmin = space.dist[nxt].copy()
    radii = [dmin.max()]
    while radii[-1] > 0.0:
        nxt = int(np.argmax(dmin))  # first maximum = lowest index tie-break
        order.append(nxt)
        dmin = np.minimum(dmin, space.dist[nxt])
        radii.append(dmin.max())
    return np.array(order), np.array(radii)


def _greedy_counts(radii: np.ndarray, us) -> np.ndarray:
    """Per radius u, the first k with radii[k-1] <= u: the greedy cover size."""
    ascending = radii[::-1]
    return radii.size - np.searchsorted(ascending, us, side="right") + 1


def _resolve_mode(mode: str, size: int, exact_cap: int) -> str:
    """The one auto rule: exact up to exact_cap points, greedy above."""
    if mode not in ("exact", "greedy", "auto"):
        raise DomainError(f"unknown mode {mode!r}; expected exact, greedy or auto")
    if mode == "auto":
        return "exact" if size <= exact_cap else "greedy"
    return mode


def _exact_cover(masks: list[int], n: int) -> list[int]:
    """Minimum set cover by branch and bound over ball bitmasks.

    Branches on the uncovered point contained in the fewest balls; dominated
    balls (masks contained in another ball) are dropped up front, which keeps
    the optimum because a dominating ball covers at least as much.
    """
    full = (1 << n) - 1
    # deduplicate and drop dominated masks, remembering a center per mask
    kept: list[tuple[int, int]] = []  # (mask, center)
    for i, m in enumerate(masks):
        if any(m | other == other for other, _ in kept if other != m):
            continue
        if any(m == other for other, _ in kept):
            continue
        kept = [(o, c) for o, c in kept if o | m != m or o == m]
        kept.append((m, i))
    cand_masks = [m for m, _ in kept]
    cand_centers = [c for _, c in kept]

    # greedy upper bound
    best: list[int] = []
    covered = 0
    while covered != full:
        pick = max(range(len(cand_masks)), key=lambda i: bin(cand_masks[i] & ~covered).count("1"))
        best.append(pick)
        covered |= cand_masks[pick]
    best_len = len(best)

    def search(covered: int, chosen: list[int]) -> None:
        nonlocal best, best_len
        if covered == full:
            if len(chosen) < best_len:
                best, best_len = list(chosen), len(chosen)
            return
        if len(chosen) + 1 >= best_len:
            # only a single finishing ball could still improve
            for i, m in enumerate(cand_masks):
                if covered | m == full and len(chosen) + 1 < best_len:
                    best, best_len = chosen + [i], len(chosen) + 1
                    return
            return
        # branch on the uncovered point with the fewest candidate balls
        uncovered = [j for j in range(n) if not (covered >> j) & 1]
        target = min(uncovered, key=lambda j: sum((m >> j) & 1 for m in cand_masks))
        options = [i for i, m in enumerate(cand_masks) if (m >> target) & 1]
        options.sort(key=lambda i: -bin(cand_masks[i] & ~covered).count("1"))
        for i in options:
            search(covered | cand_masks[i], chosen + [i])

    search(0, [])
    return sorted(cand_centers[i] for i in best)


def covering_number(
    space: FiniteMetricSpace,
    u: float,
    mode: str = "exact",
    exact_cap: int = EXACT_COVER_CAP,
) -> CoverResult:
    """Smallest (or greedy) number of closed radius-u balls covering the space.

    Ball centers are points of the space.  Exact mode runs a set-cover search
    and requires size <= exact_cap; greedy mode stops the farthest-point
    traversal at radius u, and its count is always >= the exact one.  Auto
    mode is exact up to exact_cap points and greedy above.  u = inf is one
    ball; a NaN radius is rejected.
    """
    if not u >= 0:
        raise DomainError(f"radius must be nonnegative, got {u}")
    mode = _resolve_mode(mode, space.size, exact_cap)
    if mode == "greedy":
        order, radii = farthest_point_order(space)
        k = int(_greedy_counts(radii, u))
        return CoverResult(radius=float(u), count=k, centers=tuple(sorted(order[:k].tolist())),
                           mode="greedy")
    if space.size > exact_cap:
        raise CapacityError(
            f"exact covering capped at {exact_cap} points, space has {space.size}; "
            "use mode='greedy' or raise exact_cap"
        )
    centers = _exact_cover(_ball_masks(space, u), space.size)
    return CoverResult(radius=float(u), count=len(centers), centers=tuple(centers), mode="exact")


def _breakpoints(space: FiniteMetricSpace) -> np.ndarray:
    """Radii where the covering number can change: 0 plus distinct distances."""
    return np.concatenate(([0.0], space.positive_distances()))


def covering_profile(
    space: FiniteMetricSpace,
    mode: str = "exact",
    exact_cap: int = EXACT_COVER_CAP,
) -> CoveringProfile:
    """Covering numbers at every breakpoint radius (exact step function).

    The profile stops at the first breakpoint covered by one ball.  Greedy
    counts are looked up in a single farthest-point traversal.
    """
    mode = _resolve_mode(mode, space.size, exact_cap)
    breakpoints = _breakpoints(space)
    if mode == "exact":
        radii, counts, centers = [], [], []
        for u in breakpoints:
            res = covering_number(space, float(u), mode="exact", exact_cap=exact_cap)
            radii.append(float(u))
            counts.append(res.count)
            centers.append(res.centers)
            if res.count == 1:
                break
        return CoveringProfile(tuple(radii), tuple(counts), tuple(centers), mode)
    order, traversal_radii = farthest_point_order(space)
    all_counts = _greedy_counts(traversal_radii, breakpoints)
    stop = int(np.argmax(all_counts == 1)) + 1  # the largest breakpoint needs one ball
    counts = tuple(int(k) for k in all_counts[:stop])
    prefix = {k: tuple(sorted(order[:k].tolist())) for k in set(counts)}
    return CoveringProfile(
        tuple(float(u) for u in breakpoints[:stop]),
        counts,
        tuple(prefix[k] for k in counts),
        mode,
    )


@dataclass(frozen=True)
class EntropyIntegral:
    """Exact step-integral of (log N(T,d,u))^(1/alpha) over u."""

    value: float
    alpha: float
    mode: str
    profile: CoveringProfile


def entropy_integral(
    space: FiniteMetricSpace,
    alpha: float,
    mode: str = "auto",
    exact_cap: int = EXACT_COVER_CAP,
    profile: CoveringProfile | None = None,
) -> EntropyIntegral:
    """Integrate (log N(T,d,u))^(1/alpha) du exactly over the breakpoints.

    The integrand vanishes for u >= the Chebyshev radius, so the sum is
    finite.  Above the exact-cover cap the greedy profile is used and flagged
    in the result mode.  A caller that already holds
    covering_profile(space, mode, exact_cap) passes it as profile, and it is
    integrated instead of being computed again.
    """
    alpha = check_real("alpha", alpha, 0.0, strict=True)
    prof = covering_profile(space, mode=mode, exact_cap=exact_cap) if profile is None else profile
    radii = list(prof.radii)
    counts = list(prof.counts)
    total = 0.0
    for k in range(len(radii)):
        if counts[k] <= 1:
            break
        if k + 1 < len(radii):
            width = radii[k + 1] - radii[k]
        else:
            # profile stopped early only when N hit 1; guard anyway
            width = 0.0
        total += width * math.log(counts[k]) ** (1.0 / alpha)
    return EntropyIntegral(value=total, alpha=float(alpha), mode=prof.mode, profile=prof)
