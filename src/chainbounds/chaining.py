"""Admissible sequences and generic-chaining complexity functionals.

An admissible set sequence (T_n) has a single point at level 0 and at most
2^(2^n) points at level n.  The order-p functional of a sequence truncates
the weighted sum at level l = floor(log2 p):

    sup_t  sum_{n >= l}  2^(n/alpha) * d(t, T_n).

The partition variant uses refining partitions (A_n), starting from the
trivial partition {T}, and sums cell diameters 2^(n/alpha) * diam(A_n(t)).
Exact values come from exhaustive search over a truncated level range: once
2^(2^n) reaches |T| the optimal tail is the whole space (resp. the singleton
partition) at zero cost, so only finitely many levels are free.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, MetricValidationError, alpha_power, check_real
from .metric import FiniteMetricSpace, _memoised, _read_only, farthest_point_order

__all__ = [
    "AdmissibleSequence",
    "admissible_sets",
    "admissible_partitions",
    "level_capacity",
    "truncation_level",
    "GammaEstimate",
    "functional_value",
    "greedy_admissible_sequence",
    "gamma_exact",
    "gamma_greedy",
    "gamma_prime",
    "merge_partitions",
    "GAMMA_EXACT_CAP",
]

# mode="auto" runs the exact search up to this many points, the greedy one above.
GAMMA_EXACT_CAP = 6
# The most entries any exhaustive table may hold (float64: 32 MB): the gamma
# searches, the sign-pattern laws and pair tables, and rip.build_dft.  It
# admits gamma_exact on up to 16 points and on 17 at a lone free level 2,
# gamma_prime on up to 12 points and sign_patterns on up to 17.
_TABLE_BUDGET = 1 << 22
# Subset and partition tables on up to this many points are kept across
# calls, under 1 MB in all; larger ones are rebuilt on each call, so a search
# on more points keeps nothing once it ends.
_CACHED_POINTS = 10


def _doubly_exponential(l: int) -> int:
    """2^(2^l), saturated at 2^64, which exceeds any feasible finite index set."""
    return 1 << 64 if l >= 6 else 1 << (1 << l)


def level_capacity(n: int) -> int:
    """Cardinality cap at level n: 1 at level 0, else 2^(2^n)."""
    if n < 0:
        raise DomainError(f"level must be nonnegative, got {n}")
    return 1 if n == 0 else _doubly_exponential(n)


def truncation_level(p: float) -> int:
    """l = floor(log2 p); the order-p functional sums levels n >= l."""
    return int(math.floor(math.log2(check_real("order p", p, 1.0))))


@dataclass(frozen=True)
class AdmissibleSequence:
    """An admissible set or partition sequence over a fixed space.

    levels holds, per stored level n, a sorted tuple of point indices (set
    kind) or a tuple of disjoint sorted cells covering the space (partition
    kind); beyond the stored levels the sequence repeats its last level.
    The raw constructor performs no validation: package builders pass it
    levels in this form, and outside input goes through
    :func:`admissible_sets` or :func:`admissible_partitions`.
    """

    kind: str  # "set" | "partition"
    levels: tuple
    space: FiniteMetricSpace

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, n: int):
        """Level n with the repeat-last convention."""
        return self.levels[min(n, self.depth - 1)]

    def covers_space(self) -> bool:
        """True when the final level leaves every point at distance zero."""
        if self.kind == "set":
            return bool(self.space.point_to_set(self.levels[-1]).max() == 0.0)
        return all(self.space.subset_diameter(cell) == 0.0 for cell in self.levels[-1])


def _require_same_space(space: FiniteMetricSpace, seq: AdmissibleSequence) -> None:
    if seq.space is not space and not (
        seq.space.labels == space.labels and np.array_equal(seq.space.dist, space.dist)
    ):
        raise MetricValidationError("sequence was built over a different space")


def admissible_sets(space: FiniteMetricSpace, levels) -> AdmissibleSequence:
    """Validate and wrap a set sequence (|T_0| = 1, |T_n| <= 2^(2^n))."""
    norm_levels = []
    for n, lvl in enumerate(levels):
        pts = tuple(sorted(set(int(i) for i in lvl)))
        if not pts:
            raise DomainError(f"level {n} is empty")
        if any(i < 0 or i >= space.size for i in pts):
            raise DomainError(f"level {n} has an out-of-range point index")
        if len(pts) > level_capacity(n):
            raise DomainError(
                f"level {n} holds {len(pts)} points, cap is {level_capacity(n)}"
            )
        norm_levels.append(pts)
    if not norm_levels:
        raise DomainError("sequence needs at least one level")
    return AdmissibleSequence(kind="set", levels=tuple(norm_levels), space=space)


def _validate_partition(space: FiniteMetricSpace, cells, n: int) -> tuple:
    norm = []
    seen: set[int] = set()
    for cell in cells:
        c = tuple(sorted(set(int(i) for i in cell)))
        if not c:
            raise DomainError(f"level {n} has an empty cell")
        if any(i < 0 or i >= space.size for i in c):
            raise DomainError(f"level {n} has an out-of-range point index")
        if seen & set(c):
            raise DomainError(f"level {n} cells overlap")
        seen |= set(c)
        norm.append(c)
    if seen != set(range(space.size)):
        raise DomainError(f"level {n} does not cover the space")
    cap = level_capacity(n)
    if len(norm) > cap:
        raise DomainError(f"level {n} holds {len(norm)} cells, cap is {cap}")
    return tuple(sorted(norm))


def _refines(finer, coarser) -> bool:
    coarse_sets = [set(c) for c in coarser]
    return all(any(set(c) <= cs for cs in coarse_sets) for c in finer)


def admissible_partitions(space: FiniteMetricSpace, levels) -> AdmissibleSequence:
    """Validate a partition sequence: A_0 = {T}, refining, |A_n| <= 2^(2^n)."""
    norm_levels = [_validate_partition(space, lvl, n) for n, lvl in enumerate(levels)]
    if not norm_levels:
        raise DomainError("sequence needs at least one level")
    if len(norm_levels[0]) != 1:
        raise DomainError("level 0 must be the trivial partition {T}")
    for n in range(1, len(norm_levels)):
        if not _refines(norm_levels[n], norm_levels[n - 1]):
            raise DomainError(f"level {n} does not refine level {n - 1}")
    return AdmissibleSequence(kind="partition", levels=tuple(norm_levels), space=space)


@dataclass(frozen=True)
class GammaEstimate:
    """A value of the order-p chaining functional with its provenance."""

    alpha: float
    p: float
    l: int
    value: float
    mode: str  # "exact" | "greedy" | "supplied" (the CLI's default for a value read from a file)
    sequence: AdmissibleSequence | None = None


def functional_value(
    space: FiniteMetricSpace, seq: AdmissibleSequence, alpha: float, p: float = 1.0
) -> float:
    """sup_t sum_{n >= l} 2^(n/alpha) d(t, T_n), or cell-diameter analog.

    Returns inf when the final stored level does not reduce every point to
    distance zero (the repeated tail would diverge).
    """
    check_real("alpha", alpha, 0.0, strict=True)
    _require_same_space(space, seq)
    l = truncation_level(p)
    if not seq.covers_space():
        return math.inf
    levels = range(max(l, 0), seq.depth)
    if seq.kind == "set":
        rows = [space.point_to_set(seq.level(n)) for n in levels]
    else:
        rows = [_cell_row(space.size, cells, map(space.subset_diameter, cells))
                for cells in map(seq.level, levels)]
    return _weighted_sup(rows, levels, alpha)


def _weighted_sup(rows, levels, alpha: float) -> float:
    """max_t sum_n 2^(n/alpha) rows[n][t] over the given levels, summed in order."""
    per_point = 0.0
    for n, row in zip(levels, rows):
        per_point = per_point + _level_weight(n, alpha) * row
    return float(np.max(per_point))


def _level_weight(n: int, alpha: float) -> float:
    return alpha_power(2.0, n / alpha, "level weight 2^(n/alpha)", alpha)


def _cell_row(n: int, partition, widths) -> np.ndarray:
    """(n,): each point's cell width, the widths given in cell order."""
    row = np.zeros(n)
    for cell, w in zip(partition, widths):
        row[list(cell)] = w
    return row


def greedy_admissible_sequence(space: FiniteMetricSpace) -> AdmissibleSequence:
    """Farthest-point set sequence started at the Chebyshev center.

    Level n holds the first 2^(2^n) points of the farthest-point traversal
    (ties to the lowest index), and the sequence ends at the first level
    holding the whole traversal, where every point is at distance zero.  The
    construction does not depend on alpha or p, which only weight the
    resulting functional.  Its levels are memoised on the space.
    """
    return AdmissibleSequence(kind="set", levels=_greedy_chain(space)[0], space=space)


def _greedy_chain(space: FiniteMetricSpace) -> tuple[tuple, np.ndarray]:
    """The greedy sequence's levels and read-only (depth, n) rows d(t, T_n),
    once per space.  The memo holds no sequence: a sequence holds
    its space, and a cycle would keep the space alive until a collection."""

    def build():
        order = farthest_point_order(space)[0].tolist()
        levels = [tuple(order[:1])]
        while len(levels[-1]) < len(order):
            levels.append(tuple(sorted(order[:level_capacity(len(levels))])))
        levels = tuple(levels)
        return levels, _read_only(np.array([space.point_to_set(lvl) for lvl in levels]))

    return _memoised(space, "greedy_sequence", build)


def gamma_greedy(
    space: FiniteMetricSpace, alpha: float, p: float = 1.0
) -> GammaEstimate:
    """Upper estimate of gamma from the greedy sequence.

    The value is functional_value's, read off the memoised rows: the greedy
    sequence always ends at distance zero.
    """
    check_real("alpha", alpha, 0.0, strict=True)
    l = truncation_level(p)
    chain, rows = _greedy_chain(space)
    levels = range(max(l, 0), len(chain))
    val = _weighted_sup(rows[levels.start:], levels, alpha)
    seq = AdmissibleSequence(kind="set", levels=chain, space=space)
    return GammaEstimate(alpha=float(alpha), p=float(p), l=l,
                         value=val, mode="greedy", sequence=seq)


def _cached_on_few_points(build):
    """Memoise a table builder, whose first argument is a point count, up to
    _CACHED_POINTS points."""
    cached = functools.cache(build)

    @functools.wraps(build)
    def table(n: int, *args):
        return (cached if n <= _CACHED_POINTS else build)(n, *args)

    return table


@_cached_on_few_points
def _subset_index(n: int, max_size: int) -> tuple[tuple, tuple]:
    """Subsets of range(n) with 1..max_size points, by size then
    lexicographically, and one (count, size) index array per size."""
    subsets, index = [], []
    for k in range(1, max_size + 1):
        combos = list(itertools.combinations(range(n), k))
        subsets.extend(combos)
        index.append(np.array(combos))
        index[-1].flags.writeable = False  # shared by every caller
    return tuple(subsets), tuple(index)


def _distance_table(space: FiniteMetricSpace, max_size: int) -> tuple[tuple, np.ndarray]:
    """Subsets of up to max_size points, by size then lexicographically, and
    the (subsets, n) table of d(t, S) for every point t."""
    subsets, index = _subset_index(space.size, max_size)
    return subsets, np.concatenate([space.dist[:, idx].min(axis=2).T for idx in index])


def _check_table_budget(what: str, entries: int) -> None:
    """CapacityError, before anything is built, when the table what describes
    (its message reads on with "of N entries") would pass _TABLE_BUDGET entries."""
    if entries > _TABLE_BUDGET:
        size = entries if entries < 10**15 else f"at least 10^{len(str(entries)) - 1}"
        raise CapacityError(f"{what} of {size} entries, above the budget of {_TABLE_BUDGET}")


def gamma_exact(
    space: FiniteMetricSpace, alpha: float, p: float = 1.0
) -> GammaEstimate:
    """Exact order-p functional by exhaustive admissible-sequence search.

    Levels from the first n with 2^(2^n) >= |T| onward are fixed to the whole
    space (free and optimal), so only levels l..n*-1 are searched.  Each free
    level's weighted table of d(t, S) over its candidate sets S lies along its
    own axis, the tables are added in level order, and the first minimum of
    the per-point maximum, in candidate order, wins.  A search whose table
    would exceed _TABLE_BUDGET entries is refused with CapacityError before
    any table is built.
    """
    check_real("alpha", alpha, 0.0, strict=True)
    n = space.size
    l = truncation_level(p)
    n_star = 0
    while level_capacity(n_star) < n:
        n_star += 1
    all_points = tuple(range(n))

    free_levels = list(range(l, n_star))
    if not free_levels:
        # the truncated sum can start at a level that may hold all of T
        seq = AdmissibleSequence(kind="set", levels=((0,),) * l + (all_points,), space=space)
        return GammaEstimate(alpha=float(alpha), p=float(p), l=l, value=0.0,
                             mode="exact", sequence=seq)
    # an overflowing weight keeps its DomainError ahead of the refusal
    weights = [_level_weight(lvl, alpha) for lvl in free_levels]
    sizes = [min(level_capacity(lvl), n) for lvl in free_levels]
    entries = n * math.prod(sum(math.comb(n, k) for k in range(1, s + 1)) for s in sizes)
    _check_table_budget(f"exact gamma search refused: {n} points at p = {p:g} leave levels "
                        f"{free_levels} free, a table", entries)

    choices, tables = zip(*(_distance_table(space, size) for size in sizes))
    total = weights[0] * tables[0]
    for w, table in zip(weights[1:], tables[1:]):
        total = total[..., None, :] + w * table
    vals = total.max(axis=-1)
    best = np.unravel_index(int(np.argmin(vals)), vals.shape)  # the first minimum
    best_val = float(vals[best])
    best_combo = [c[i] for c, i in zip(choices, best)]
    # levels below l never enter the sum; a singleton keeps them admissible
    levels = [best_combo[0][:1]] * l
    levels.extend(best_combo)
    levels.append(all_points)
    seq = AdmissibleSequence(kind="set", levels=tuple(levels), space=space)
    return GammaEstimate(alpha=float(alpha), p=float(p), l=l, value=best_val,
                         mode="exact", sequence=seq)


@_cached_on_few_points
def _level_one_partitions(n: int) -> np.ndarray:
    """(P, 4) uint16: each partition of range(n) into at most 4 cells, as the
    cells' point bitmasks by first point, 0 past the last cell.  Rows run in
    lexicographic order of the points' cell labels (each at most one above
    the largest before it): depth-first, each point in every open cell, then
    in a new one."""
    labels = np.zeros((1, 1), dtype=np.uint8)
    top = np.zeros(1, dtype=np.uint8)  # each row's largest label
    for _ in range(1, n):
        options = np.minimum(top + 1, 3) + 1  # labels 0..top+1, at most 3
        parent = np.repeat(np.arange(len(labels)), options)
        child = np.arange(len(parent)) - np.repeat(np.cumsum(options) - options, options)
        labels = np.column_stack([labels[parent], child.astype(np.uint8)])
        top = np.maximum(top[parent], labels[:, -1])
    cells = np.zeros((len(labels), 4), dtype=np.uint16)
    for i in range(n):
        cells[np.arange(len(labels)), labels[:, i]] |= np.uint16(1 << i)
    cells.flags.writeable = False
    return cells


def _subset_diameters(dist: np.ndarray) -> np.ndarray:
    """(2^n,): the diameter of the points each bitmask sets, grown by the
    highest bit in O(2^n) time and memory; each equals subset_diameter."""
    n = len(dist)
    sym = np.maximum(dist, dist.T)
    diam = np.zeros(1 << n)
    for h in range(1, n):
        to_h = np.zeros(1 << h)  # to_h[m]: the farthest point of m from point h
        for j in range(h):
            np.maximum(to_h[:1 << j], sym[h, j], out=to_h[1 << j:2 << j])
        np.maximum(diam[:1 << h], to_h, out=diam[1 << h:2 << h])
    return diam


def gamma_prime(
    space: FiniteMetricSpace, alpha: float, mode: str = "exact"
) -> GammaEstimate:
    """Partition-sequence functional sup_t sum_n 2^(n/alpha) diam(A_n(t)).

    Exact mode: once a level may hold |T| cells the singleton partition ends
    the chain at zero cost, so on up to 16 = level_capacity(2) points level
    1 is the only free level.  Its candidates are a cached per-size table of
    partitions into at most 4 cells, read against a per-call table of every
    subset's diameter; a search whose table would exceed _TABLE_BUDGET
    entries (13 or more points) is refused before any table is built.
    Greedy mode repeatedly splits the widest cell by farthest-pair seeding.
    """
    check_real("alpha", alpha, 0.0, strict=True)
    n = space.size
    singletons = tuple((i,) for i in range(n))
    trivial = (tuple(range(n)),)

    if mode == "greedy":
        levels = [trivial]
        current = trivial
        widths = [space.subset_diameter(trivial[0])]  # kept in step with the cells
        rows = [_cell_row(n, current, widths)]
        lvl = 0
        while max(widths) > 0:
            lvl += 1
            cap = min(level_capacity(lvl), n)
            cells = [list(c) for c in current]
            while len(cells) < cap:
                w = max(widths)
                if w == 0:
                    break
                ci = widths.index(w)
                cell = cells[ci]
                d = space.dist[np.ix_(cell, cell)]
                a, b = np.unravel_index(int(np.argmax(d)), d.shape)
                seed_a, seed_b = sorted((cell[a], cell[b]))
                near_a = space.dist[cell, seed_a] <= space.dist[cell, seed_b]
                left = [i for i, k in zip(cell, near_a) if k]
                right = [i for i, k in zip(cell, near_a) if not k]
                cells[ci:ci + 1] = [left, right]
                widths[ci:ci + 1] = [space.subset_diameter(left), space.subset_diameter(right)]
            # the next level starts from sorted cells: the widest-cell tie-break reads that order
            ordered = sorted(zip((tuple(sorted(c)) for c in cells), widths))
            current, widths = tuple(c for c, _ in ordered), [w for _, w in ordered]
            levels.append(current)
            rows.append(_cell_row(n, current, widths))
        seq = AdmissibleSequence(kind="partition", levels=tuple(levels), space=space)
        val = _weighted_sup(rows, range(len(rows)), alpha)
        return GammaEstimate(alpha=float(alpha), p=1.0, l=0, value=val,
                             mode="greedy", sequence=seq)

    if mode != "exact":
        raise DomainError(f"unknown gamma_prime mode {mode!r}")
    val = diam_t = space.subset_diameter(trivial[0])
    if diam_t == 0.0:
        chain = [trivial]
    elif n <= level_capacity(1):
        chain = [trivial, singletons]  # level 1 may hold the singletons
    else:
        # 4 cells for each of the (4^n + 6 * 2^n + 8) / 24 partitions into at most 4
        # cells; refused from 13 points on, so level 1 is the only free level.
        _check_table_budget(f"exact gamma' search refused: {n} points at p = 1 need, "
                            "at level 1 alone, a table", (4**n + 6 * 2**n + 8) // 6)
        # Rounding is monotone, so each partition's largest per-point sum is
        # the one at its widest cell.
        cells = _level_one_partitions(n)
        widest = _subset_diameters(space.dist)[cells].max(axis=1)
        vals = diam_t + _level_weight(1, alpha) * widest
        best = int(np.argmin(vals))  # the first minimum
        chain = [trivial, tuple(tuple(i for i in range(n) if mask >> i & 1)
                                for mask in cells[best].tolist() if mask)]
        if widest[best] > 0.0:
            chain.append(singletons)
        val = float(vals[best])
    seq = AdmissibleSequence(kind="partition", levels=tuple(chain), space=space)
    return GammaEstimate(alpha=float(alpha), p=1.0, l=0, value=val,
                         mode="exact", sequence=seq)


def merge_partitions(
    first: AdmissibleSequence, second: AdmissibleSequence
) -> AdmissibleSequence:
    """Intersect two partition sequences with a one-level shift.

    The merged level n (n >= 1) consists of the nonempty intersections of the
    inputs' level n-1 cells; level 0 is the trivial partition.  The cell count
    is at most 2^(2^(n-1)) * 2^(2^(n-1)) = 2^(2^n), so the result is again
    admissible (revalidated on construction).
    """
    if first.kind != "partition" or second.kind != "partition":
        raise DomainError("merge_partitions expects two partition sequences")
    _require_same_space(first.space, second)
    space = first.space
    depth = max(first.depth, second.depth) + 1
    levels = [(tuple(range(space.size)),)]
    for lvl in range(1, depth):
        cells = []
        for b in first.level(lvl - 1):
            sb = set(b)
            for c in second.level(lvl - 1):
                inter = tuple(sorted(sb & set(c)))
                if inter:
                    cells.append(inter)
        levels.append(tuple(sorted(cells)))
    return admissible_partitions(space, levels)
