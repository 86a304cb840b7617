"""One size rule, chaining._TABLE_BUDGET, for every exhaustive table.

Each table below is admitted when the budget equals its entry count, and
refused one entry below it, at once and before the table is built.
"""

import time

import numpy as np
import pytest

from chainbounds import (
    CapacityError,
    RowDistribution,
    build_dft,
    check_symmetrization_decoupling,
    empirical_model,
    exact_chaos_distribution,
    exact_empirical_distribution,
    exact_martingale_distribution,
    gamma_exact,
    gamma_prime,
    martingale_model,
    sign_patterns,
    space_from_points,
)
from chainbounds import chaining, processes, validation


def _space(n):
    return space_from_points(np.random.default_rng(n).normal(size=(n, 2)))


def _normal(*shape):
    return np.random.default_rng(sum(shape)).normal(size=shape)


# name: (call, entries of its largest table, (module, name) pairs a refused
# call must not reach: the builders of that table)
_TABLES = {
    # 5 points at p = 1 leave levels 0 and 1 free: 5 x 5 singletons x 30 subsets of <= 4 points
    "gamma_exact": (lambda: gamma_exact(_space(5), 2.0), 5 * 5 * 30,
                    [(chaining, "_distance_table")]),
    # 187 partitions of 6 points into at most 4 cells, 4 cells each
    "gamma_prime": (lambda: gamma_prime(_space(6), 2.0), 4 * 187,
                    [(chaining, "_level_one_partitions"), (chaining, "_subset_diameters")]),
    "sign_patterns": (lambda: sign_patterns(5), 2**5 * 5, [(np, "arange")]),
    # 2^n x max(n, rows): the sign table or the table of sums, whichever is wider
    "martingale law, wide": (lambda: exact_martingale_distribution(martingale_model(
        _normal(7, 4))), 2**4 * 7, [(processes, "sign_patterns")]),
    "martingale law, tall": (lambda: exact_martingale_distribution(martingale_model(
        _normal(2, 5))), 2**5 * 5, [(processes, "sign_patterns")]),
    "empirical law": (lambda: exact_empirical_distribution(empirical_model(
        _normal(6, 3), RowDistribution("rademacher", 0.5))), 2**3 * 6,
        [(processes, "sign_patterns")]),
    # 2^n x max(n, k m): the k m entries of A x for each sign pattern x
    "chaos law": (lambda: exact_chaos_distribution(list(_normal(3, 2, 4))), 2**4 * 3 * 2,
                  [(processes, "sign_patterns")]),
    # k 4^n: every pair of sign patterns, for each of k matrices
    "decoupled chaos law": (lambda: exact_chaos_distribution(list(_normal(3, 2, 3)), True),
                            3 * 4**3, [(processes, "sign_patterns")]),
    "decoupling check, matrices": (lambda: check_symmetrization_decoupling(
        list(_normal(2, 2, 3))), 2 * 4**3,
        [(processes, "sign_patterns"), (validation, "sign_patterns")]),
    # k 4^n for k table rows, when they outnumber the matrices
    "decoupling check, table rows": (lambda: check_symmetrization_decoupling(
        [np.eye(3)], table=np.abs(_normal(5, 3))), 5 * 4**3,
        [(processes, "sign_patterns"), (validation, "sign_patterns")]),
    "build_dft": (lambda: build_dft(6), 6 * 6, [(np, "arange"), (np, "outer")]),
}


@pytest.mark.parametrize("table", _TABLES)
def test_every_exhaustive_table_has_one_budget(monkeypatch, table):
    call, entries, builders = _TABLES[table]
    monkeypatch.setattr(chaining, "_TABLE_BUDGET", entries)
    call()
    monkeypatch.setattr(chaining, "_TABLE_BUDGET", entries - 1)
    with monkeypatch.context() as patched:
        for module, name in builders:
            patched.setattr(module, name, lambda *args, **kwargs: pytest.fail("built a table"))
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f" of {entries} entries, above the budget of "
                                                f"{entries - 1}$"):
            call()
        assert time.perf_counter() - start < 1.0

