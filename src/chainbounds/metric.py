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
    "MAX_POINTS",
]

# Exact set-cover search is feasible well beyond this, but the default keeps
# worst cases comfortably sub-second.
EXACT_COVER_CAP = 20

_TRIANGLE_RTOL = 1e-9

# Memory budget for one n x n float64 array: 200 MB, reached at 5000 points.
_ARRAY_BUDGET_BYTES = 200_000_000
MAX_POINTS = math.isqrt(_ARRAY_BUDGET_BYTES // 8)


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

    Rejects complex or other non-real input, non-square input, more than
    MAX_POINTS points, non-finite or negative entries, a nonzero diagonal,
    asymmetry, and triangle-inequality violations, naming the offending
    entry or triple.  The triangle inequality is settled by an O(n^2)
    nearest-neighbour certificate and an exact check of the pairs it leaves
    suspect; the O(n^3) full pass runs only to report a violation.
    """
    return _validated(np.array(_real(dist, "distances"), dtype=float), labels, certified=False)


def _real(values, what: str) -> np.ndarray:
    """values as an array; MetricValidationError for complex or other non-real dtypes.

    Object arrays pass: the float cast converts their entries one at a time
    and refuses complex ones.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "biufO":
        raise MetricValidationError(f"{what} must be real numbers, got dtype {arr.dtype}")
    return arr


def _check_capacity(n: int) -> None:
    if n > MAX_POINTS:
        raise CapacityError(
            f"metric spaces are capped at {MAX_POINTS} points, got {n}: each n x n "
            f"float64 array must fit a {_ARRAY_BUDGET_BYTES // 10**6} MB budget"
        )


def _validated(d: np.ndarray, labels, certified: bool) -> FiniteMetricSpace:
    """Run every check on d, skipping the triangle pass when certified."""
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise MetricValidationError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    _check_capacity(n)
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
    """Raise on a triangle violation beyond a relative slack for rounded distances.

    The test is d_ik - (d_ij + d_jk) > tol over all triples.  An O(n^2)
    nearest-neighbour certificate and an exact check of the pairs it leaves
    suspect settle an accepted matrix; the O(n^3) full pass runs only when a
    suspect pair fails, so every rejection and reported triple is the full
    pass's own.
    """
    tol = _TRIANGLE_RTOL * max(1.0, float(d.max()))
    if not _neighbours_certify_triangle(d, tol):
        _full_triangle_pass(d, tol)


# Suspect pairs tested at once, times n: 256 KB blocks were fastest, and the
# check beat the full pass even with 99% of pairs suspect (BENCH_user_dist.json).
_PAIR_BLOCK_ELEMENTS = 1 << 15


def _neighbours_certify_triangle(d: np.ndarray, tol: float) -> bool:
    """True when no triple fails the full pass's test.

    Let m_i = min_{j != i} d_ij.  For j outside {i, k}, d_ij + d_jk >=
    m_i + m_k, and correctly rounded addition and subtraction are monotone
    (IEEE 754; Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 2), so fl(d_ik - fl(m_i + m_k)) <= tol settles pair (i, k) for every
    such j.  For j in {i, k} the test is exactly 0, as the diagonal is zero.
    The suspect pairs left over (i < k only: d is exactly symmetric) get the
    pass's own test against every j, a block of pairs at a time.
    """
    n = d.shape[0]
    # sums past the float range round to inf, and then the test reads -inf
    with np.errstate(over="ignore"):
        slack = d.copy()
        np.fill_diagonal(slack, np.inf)
        m = slack.min(axis=1)
        np.add(m[:, None], m[None, :], out=slack)
        np.subtract(d, slack, out=slack)
        suspect_i, suspect_k = np.nonzero(np.triu(slack > tol, 1))
        rows = max(1, _PAIR_BLOCK_ELEMENTS // n)
        viol = np.empty((rows, n))  # reused: no allocation per block
        for start in range(0, suspect_i.size, rows):
            i, k = suspect_i[start:start + rows], suspect_k[start:start + rows]
            block = viol[:i.size]
            # d[k, j] is d[j, k] bit for bit, so this is the full pass's test
            np.add(d[i], d[k], out=block)
            np.subtract(d[i, k][:, None], block, out=block)
            if block.max() > tol:
                return False
    return True


def _full_triangle_pass(d: np.ndarray, tol: float) -> None:
    """The O(n^3) triangle pass, naming the first violating triple it finds."""
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


# Coordinate differences held at once: bounds the (rows, cols, ...) temporary.
_BLOCK_ELEMENTS = 1 << 18


def _pairwise(points, reduce) -> np.ndarray:
    """The symmetric (n, n) matrix of reduce(points[i] - points[j]), zero diagonal.

    reduce maps a (rows, cols, ...) block of differences to (rows, cols).  The
    point cap is checked first.  Only pairs i < j are evaluated and mirrored,
    in blocks of rows, and of columns when one row of differences exceeds
    _BLOCK_ELEMENTS.  Values past the float range become inf without a warning.
    """
    n = len(points)
    _check_capacity(n)
    d = np.zeros((n, n))
    per_pair = max(1, math.prod(points.shape[1:]))
    cols = max(1, min(n, _BLOCK_ELEMENTS // per_pair))
    rows = max(1, _BLOCK_ELEMENTS // (per_pair * cols))
    with np.errstate(over="ignore"):
        for r0 in range(0, n - 1, rows):
            r1 = min(r0 + rows, n)
            for c0 in range(r0 + 1, n, cols):
                c1 = min(c0 + cols, n)
                block = reduce(points[r0:r1, None] - points[None, c0:c1])
                upper = np.arange(c0, c1) > np.arange(r0, r1)[:, None]
                np.copyto(d[r0:r1, c0:c1], block, where=upper)
                np.copyto(d[c0:c1, r0:r1], block.T, where=upper.T)
    return d


_NORMS = {
    "l1": lambda diff: np.abs(diff).sum(axis=-1),
    "l2": lambda diff: np.sqrt((diff ** 2).sum(axis=-1)),
    "linf": lambda diff: np.abs(diff).max(axis=-1),
}


def space_from_points(points, norm: str = "l2", labels=None) -> FiniteMetricSpace:
    """Build a space from a point cloud under an lp norm ("l1", "l2", "linf").

    Coordinates must be real and finite, and at most MAX_POINTS points are
    taken.  Distances come from the blocked pairwise kernel; one that
    overflows the float range is rejected, naming its pair.  Every check of
    :func:`build_metric_space` runs except the triangle check, which is
    skipped when the rounding-error certificate shows it cannot fail.
    """
    pts = np.asarray(_real(points, "coordinates"), dtype=float)
    if pts.ndim != 2:
        raise MetricValidationError(f"points must be a 2-d array, got shape {pts.shape}")
    if norm not in _NORMS:
        raise MetricValidationError(f"unknown norm {norm!r} (expected l1, l2, or linf)")
    n, dim = pts.shape
    finite = np.isfinite(pts)
    if not finite.all():
        i, j = (int(k) for k in np.argwhere(~finite)[0])
        raise MetricValidationError(f"non-finite coordinate {pts[i, j]} of point {i} (axis {j})")
    # finite coordinates can still be too far apart: such distances are inf
    d = _pairwise(pts, _NORMS[norm])
    if not np.isfinite(d).all():
        i, j = (int(k) for k in np.argwhere(~np.isfinite(d))[0])
        raise MetricValidationError(
            f"{norm} distance between points {i} and {j} overflows the float range"
        )
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


def _ball_masks(within: np.ndarray) -> list[int]:
    """Row i of a boolean matrix as an int bitmask (bit j is column j), at any size."""
    packed = np.packbits(within, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _set_bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _maximal_balls(within: np.ndarray) -> np.ndarray:
    """Ascending indices of the inclusion-maximal balls, the first of equal ones.

    within[i, j] says whether ball i holds point j.  Ball i lies inside ball
    j iff none of its points is missing from ball j; the counts of missing
    points are sums of 0/1 products, exact in floating point.
    """
    inside = within.astype(float)
    contained = inside @ (1.0 - inside).T == 0.0
    strictly = contained & ~contained.T
    equal_earlier = np.tril(contained & contained.T, -1)
    return np.flatnonzero(~strictly.any(axis=1) & ~equal_earlier.any(axis=1))


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


def _exact_cover(within: np.ndarray) -> list[int]:
    """Minimum set cover by branch and bound over the balls within[i] (bitmasks).

    Branches on the uncovered point contained in the fewest balls; dominated
    balls (contained in another ball) are dropped up front, which keeps the
    optimum because a dominating ball covers at least as much.  Of equal
    balls the first is kept, as its center.
    """
    n = within.shape[0]
    full = (1 << n) - 1
    keep = _maximal_balls(within)
    cand_masks = _ball_masks(within[keep])
    cand_centers = keep.tolist()

    # greedy upper bound
    best: list[int] = []
    covered = 0
    while covered != full:
        pick = max(range(len(cand_masks)), key=lambda i: (cand_masks[i] & ~covered).bit_count())
        best.append(pick)
        covered |= cand_masks[pick]
    best_len = len(best)

    # The balls containing each point (bit i: ball i) do not change during the
    # search, so the branching order, fewest candidate balls first and ties to
    # the lowest index, is computed once.
    containing = _ball_masks(within[keep].T)
    branch_order = sorted(range(n), key=lambda j: containing[j].bit_count())

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
        target = next(j for j in branch_order if not (covered >> j) & 1)
        options = _set_bits(containing[target])
        options.sort(key=lambda i: -(cand_masks[i] & ~covered).bit_count())
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
    centers = _exact_cover(space.dist <= u)
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
    radii, counts = prof.radii, prof.counts
    total = 0.0
    for k in range(len(radii) - 1):  # the last breakpoint starts no interval
        if counts[k] <= 1:
            break
        total += (radii[k + 1] - radii[k]) * math.log(counts[k]) ** (1.0 / alpha)
    return EntropyIntegral(value=total, alpha=float(alpha), mode=prof.mode, profile=prof)
