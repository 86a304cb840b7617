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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, MetricValidationError, check_real
from .metric import FiniteMetricSpace, farthest_point_order

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

GAMMA_EXACT_CAP = 6


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
    """A validated admissible set or partition sequence over a fixed space.

    levels holds, per stored level n, either a sorted tuple of point indices
    (set kind) or a tuple of disjoint sorted cells covering the space
    (partition kind).  Beyond the stored levels the sequence repeats its last
    level.  projections[n][t] is the chosen representative of t at level n:
    the nearest point of T_n (ties to the lowest index) for set sequences,
    the lowest-index member of t's cell for partition sequences.
    """

    kind: str  # "set" | "partition"
    levels: tuple
    projections: tuple[tuple[int, ...], ...]
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
    projections = tuple(
        tuple(int(i) for i in space.nearest_in(lvl)) for lvl in norm_levels
    )
    return AdmissibleSequence(
        kind="set", levels=tuple(norm_levels), projections=projections, space=space
    )


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
    projections = []
    for lvl in norm_levels:
        rep = [0] * space.size
        for cell in lvl:
            r = min(cell)
            for i in cell:
                rep[i] = r
        projections.append(tuple(rep))
    return AdmissibleSequence(
        kind="partition",
        levels=tuple(norm_levels),
        projections=tuple(projections),
        space=space,
    )


@dataclass(frozen=True)
class GammaEstimate:
    """A value of the order-p chaining functional with its provenance."""

    alpha: float
    p: float
    l: int
    value: float
    mode: str  # "exact" | "greedy" | "entropy"
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
    per_point = np.zeros(space.size)
    for n in range(max(l, 0), seq.depth):
        w = 2.0 ** (n / alpha)
        if seq.kind == "set":
            per_point += w * space.point_to_set(seq.level(n))
        else:
            diam = np.empty(space.size)
            for cell in seq.level(n):
                dval = space.subset_diameter(cell)
                for i in cell:
                    diam[i] = dval
            per_point += w * diam
    return float(per_point.max())


def greedy_admissible_sequence(space: FiniteMetricSpace) -> AdmissibleSequence:
    """Farthest-point set sequence started at the Chebyshev center.

    Level n holds the first 2^(2^n) points of the farthest-point traversal
    (ties to the lowest index), and the sequence ends at the first level
    holding the whole traversal, where every point is at distance zero.  The
    construction does not depend on alpha or p, which only weight the
    resulting functional.
    """
    order = farthest_point_order(space)[0].tolist()
    levels = [order[:1]]
    while len(levels[-1]) < len(order):
        levels.append(order[:level_capacity(len(levels))])
    return admissible_sets(space, levels)


def gamma_greedy(
    space: FiniteMetricSpace, alpha: float, p: float = 1.0
) -> GammaEstimate:
    """Upper estimate of gamma from the greedy sequence (functional_value checks alpha, p)."""
    seq = greedy_admissible_sequence(space)
    val = functional_value(space, seq, alpha, p)
    return GammaEstimate(alpha=float(alpha), p=float(p), l=truncation_level(p),
                         value=val, mode="greedy", sequence=seq)


def _distance_table(space: FiniteMetricSpace, max_size: int) -> tuple[list, np.ndarray]:
    """Subsets of up to max_size points, by size then lexicographically, and
    the (subsets, n) table of d(t, S) for every point t."""
    n = space.size
    subsets, rows = [], []
    for k in range(1, max_size + 1):
        combos = list(itertools.combinations(range(n), k))
        subsets.extend(combos)
        rows.append(space.dist[:, np.array(combos)].min(axis=2).T)
    return subsets, np.concatenate(rows)


def gamma_exact(
    space: FiniteMetricSpace,
    alpha: float,
    p: float = 1.0,
    exact_cap: int = GAMMA_EXACT_CAP,
) -> GammaEstimate:
    """Exact order-p functional by exhaustive admissible-sequence search.

    Levels from the first n with 2^(2^n) >= |T| onward are fixed to the whole
    space (free and optimal), so only levels l..n*-1 are enumerated.  Each
    free level gets one weighted table of d(t, S) over its candidate sets S;
    the last level's table is summed by broadcasting against every choice at
    the earlier levels, and the first minimum in product order wins.
    """
    check_real("alpha", alpha, 0.0, strict=True)
    n = space.size
    if n > exact_cap:
        raise CapacityError(
            f"exact gamma search capped at {exact_cap} points, space has {n}"
        )
    l = truncation_level(p)
    n_star = 0
    while level_capacity(n_star) < n:
        n_star += 1
    all_points = tuple(range(n))

    free_levels = list(range(l, n_star))
    if not free_levels:
        # the truncated sum can start at a level that may hold all of T
        levels = [(0,)] * l + [all_points]
        seq = admissible_sets(space, levels)
        return GammaEstimate(alpha=float(alpha), p=float(p), l=l, value=0.0,
                             mode="exact", sequence=seq)

    choices, tables = [], []
    for lvl in free_levels:
        subsets, table = _distance_table(space, min(level_capacity(lvl), n))
        choices.append(subsets)
        tables.append(2.0 ** (lvl / alpha) * table)

    best_val = math.inf
    best_combo = None
    for head in itertools.product(*(range(len(c)) for c in choices[:-1])):
        acc = tables[-1]
        if head:
            partial = tables[0][head[0]]
            for table, i in zip(tables[1:], head[1:]):
                partial = partial + table[i]
            acc = partial + acc
        vals = acc.max(axis=1)
        last = int(np.argmin(vals))  # first minimum
        if vals[last] < best_val:
            best_val = float(vals[last])
            best_combo = [c[i] for c, i in zip(choices, head + (last,))]
    # levels below l never enter the sum; a singleton keeps them admissible
    levels = [best_combo[0][:1]] * l
    levels.extend(best_combo)
    levels.append(all_points)
    seq = admissible_sets(space, levels)
    return GammaEstimate(alpha=float(alpha), p=float(p), l=l, value=best_val,
                         mode="exact", sequence=seq)


def _partitions_up_to(items: tuple[int, ...], max_blocks: int):
    """All set partitions of items into at most max_blocks blocks."""
    if not items:
        yield ()
        return

    def rec(idx: int, blocks: list[list[int]]):
        if idx == len(items):
            yield tuple(tuple(b) for b in blocks)
            return
        x = items[idx]
        for b in blocks:
            b.append(x)
            yield from rec(idx + 1, blocks)
            b.pop()
        if len(blocks) < max_blocks:
            blocks.append([x])
            yield from rec(idx + 1, blocks)
            blocks.pop()

    yield from rec(1, [[items[0]]])


def gamma_prime(
    space: FiniteMetricSpace,
    alpha: float,
    mode: str = "exact",
    exact_cap: int = GAMMA_EXACT_CAP,
) -> GammaEstimate:
    """Partition-sequence functional sup_t sum_n 2^(n/alpha) diam(A_n(t)).

    Exact mode enumerates refining chains; as soon as a level may hold |T|
    cells the singleton partition finishes the chain at zero cost.  Each
    level's candidate partitions are evaluated as one array of per-point
    cell diameters, read from a per-call table of cell diameters.  Greedy
    mode repeatedly splits the widest cell by farthest-pair seeding.
    """
    check_real("alpha", alpha, 0.0, strict=True)
    n = space.size
    singletons = tuple((i,) for i in range(n))
    trivial = (tuple(range(n)),)

    if mode == "greedy":
        levels = [trivial]
        current = trivial
        lvl = 0
        while any(space.subset_diameter(c) > 0 for c in current):
            lvl += 1
            cap = min(level_capacity(lvl), n)
            cells = [list(c) for c in current]
            widths = [space.subset_diameter(c) for c in cells]  # kept in step with cells
            while len(cells) < cap:
                w = max(widths)
                if w == 0:
                    break
                ci = widths.index(w)
                cell = cells[ci]
                sub = np.ix_(cell, cell)
                d = space.dist[sub]
                a, b = np.unravel_index(int(np.argmax(d)), d.shape)
                seed_a, seed_b = cell[a], cell[b]
                if seed_a > seed_b:
                    seed_a, seed_b = seed_b, seed_a
                near_a = space.dist[cell, seed_a] <= space.dist[cell, seed_b]
                left = [i for i, k in zip(cell, near_a) if k]
                right = [i for i, k in zip(cell, near_a) if not k]
                cells[ci:ci + 1] = [left, right]
                widths[ci:ci + 1] = [space.subset_diameter(left), space.subset_diameter(right)]
            current = tuple(sorted(tuple(sorted(c)) for c in cells))
            levels.append(current)
        seq = admissible_partitions(space, levels)
        val = functional_value(space, seq, alpha, 1.0)
        return GammaEstimate(alpha=float(alpha), p=1.0, l=0, value=val,
                             mode="greedy", sequence=seq)

    if mode != "exact":
        raise DomainError(f"unknown gamma_prime mode {mode!r}")
    if n > exact_cap:
        raise CapacityError(
            f"exact gamma' search capped at {exact_cap} points, space has {n}"
        )

    best_val = math.inf
    best_chain: list | None = None
    cell_diameters: dict[tuple[int, ...], float] = {}

    def diam_rows(partitions) -> np.ndarray:
        """(partitions, n): the diameter of each point's cell."""
        rows = []
        for partition in partitions:
            row = [0.0] * n
            for cell in partition:
                dval = cell_diameters.get(cell)
                if dval is None:
                    dval = cell_diameters[cell] = space.subset_diameter(cell)
                for i in cell:
                    row[i] = dval
            rows.append(row)
        return np.array(rows)

    def settle(level: int, chain: list, acc: np.ndarray, val: float, width: float) -> None:
        """Finish or extend a chain ending at `level`; val = acc.max() and
        width is the widest cell of its last partition."""
        nonlocal best_val, best_chain
        if val >= best_val:
            return
        if width == 0.0:
            best_val, best_chain = val, chain
        elif level_capacity(level + 1) >= n:
            # singletons are admissible and free from here on
            best_val, best_chain = val, chain + [singletons]
        else:
            refined = list(_refining_partitions(chain[-1], level_capacity(level + 1)))
            diams = diam_rows(refined)
            accs = acc + 2.0 ** ((level + 1) / alpha) * diams
            for part, row, v, wdt in zip(refined, accs, accs.max(axis=1).tolist(),
                                         diams.max(axis=1).tolist()):
                settle(level + 1, chain + [part], row, v, wdt)

    acc0 = diam_rows([trivial])[0]  # 2^0 weight
    settle(0, [trivial], acc0, float(acc0.max()), float(acc0.max()))
    seq = admissible_partitions(space, best_chain)
    return GammaEstimate(alpha=float(alpha), p=1.0, l=0, value=best_val,
                         mode="exact", sequence=seq)


def _refining_partitions(coarse, max_blocks: int):
    """All partitions refining `coarse` with at most max_blocks blocks.

    Each is yielded once: the cells of `coarse` are disjoint and each
    cell's partitions are distinct.
    """
    per_cell_options = [list(_partitions_up_to(cell, len(cell))) for cell in coarse]
    for combo in itertools.product(*per_cell_options):
        blocks: list[tuple[int, ...]] = []
        for part in combo:
            blocks.extend(part)
        if len(blocks) <= max_blocks:
            yield tuple(sorted(blocks))


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
