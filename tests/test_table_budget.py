"""One size rule, errors._TABLE_BUDGET, for every exhaustive table, and one
block rule, errors.block_step, for every blocked loop.

Each table below is admitted when the budget equals its entry count, and
refused one entry below it, at once and before the table is built.  The
gamma searches' auto mode reads the same count: exact exactly where the
search is admitted.  No blocked loop's output depends on its block.
"""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from chainbounds import (
    CapacityError,
    RowDistribution,
    SupremumSample,
    build_dft,
    empirical_model,
    estimate_failure_probability,
    estimate_moments,
    exact_chaos_distribution,
    exact_empirical_distribution,
    exact_martingale_distribution,
    gamma_exact,
    gamma_greedy,
    gamma_prime,
    martingale_model,
    matrix_set_space,
    restricted_isometry_constant,
    schatten_radii,
    sign_patterns,
    simulate_chaos,
    space_from_points,
    subsampled_instance,
)
from chainbounds import chaining, errors, metric, processes, rip
from chainbounds.cli import main


def _space(n):
    return space_from_points(np.random.default_rng(n).normal(size=(n, 2)))


def _normal(*shape):
    return np.random.default_rng(sum(shape)).normal(size=shape)


_SUPPORT_BUILDERS = [(rip, "_support_table"), (rip, "_cached_support_table"), (rip, "_gram"),
                     (np.linalg, "eigvalsh")]
_CLASS_BUILDERS = [(rip, "_class_table"), (rip, "_cached_class_table"), (np.fft, "fft"),
                   (np.linalg, "eigvalsh")]

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
    "build_dft": (lambda: build_dft(6), 6 * 6, [(np, "arange"), (np, "outer")]),
    # C(22, 5) supports of 5 indices: more than the 22 x 22 Gram
    "RIP constant": (lambda: restricted_isometry_constant(_normal(4, 22), 5), 26334 * 5,
                     _SUPPORT_BUILDERS),
    # The DFT path: the table of the C(21, 4) = 5985 classes of 5, more than
    # the 22 x 5 translates of one class
    "RIP constant, DFT": (lambda: subsampled_instance(22, 11, 0).delta(5), 5985 * 5,
                          _CLASS_BUILDERS),
    "RIP curve, DFT": (lambda: estimate_failure_probability(22, 11, 5, 0.9, 1, 0), 5985 * 5,
                       _CLASS_BUILDERS + [(rip, "_replication_streams")]),
}


@pytest.mark.parametrize("table", _TABLES)
def test_every_exhaustive_table_has_one_budget(monkeypatch, table):
    call, entries, builders = _TABLES[table]
    monkeypatch.setattr(errors, "_TABLE_BUDGET", entries)
    call()
    monkeypatch.setattr(errors, "_TABLE_BUDGET", entries - 1)
    with monkeypatch.context() as patched:
        for module, name in builders:
            patched.setattr(module, name, lambda *args, **kwargs: pytest.fail("built a table"))
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f" of {entries} entries, above the budget of "
                                                f"{entries - 1}$"):
            call()
        assert time.perf_counter() - start < 1.0


def _support_count(N, s):
    """The entry count a support enumeration's refusal names."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(errors, "_TABLE_BUDGET", 0)
        with pytest.raises(CapacityError) as refused:
            rip._supports(N, s)
    return int(re.search(r"a table of (\d+) entries", str(refused.value)).group(1))


@pytest.mark.parametrize("N, s", [(7, 6), (8, 7), (9, 4), (12, 2), (40, 3)])
def test_the_support_count_bounds_every_table_the_rip_kernel_builds(monkeypatch, N, s):
    # With the budget at the count, the support table, the Gram and every
    # eigvalsh stack of the exact constant fit it.
    built = []
    gram, eigvalsh = rip._gram, np.linalg.eigvalsh

    def record(array):
        built.append(array.size)
        return array

    monkeypatch.setattr(rip, "_gram", lambda *args: record(gram(*args)))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(record(a)))
    monkeypatch.setattr(errors, "_TABLE_BUDGET", _support_count(N, s))
    restricted_isometry_constant(_normal(N // 2, N), s)
    assert built and max(built) <= errors._TABLE_BUDGET


def _class_count(N, s):
    """The entry count the DFT path's refusal names."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(errors, "_TABLE_BUDGET", 0)
        with pytest.raises(CapacityError) as refused:
            rip._classes(N, s)
    return int(re.search(r"a table of (\d+) entries", str(refused.value)).group(1))


@pytest.mark.parametrize("N, s", [(7, 6), (8, 7), (9, 4), (12, 2), (40, 3), (64, 1)])
def test_the_class_count_bounds_every_table_the_dft_path_builds(monkeypatch, N, s):
    # With the budget at the DFT path's count, its circulant rows, class
    # blocks and kernel reruns all fit, for the exact constant and a curve
    # of several chunks; thresholds at 0 and 0.5 send draws to the kernel.
    built = []
    fft, eigvalsh, einsum = np.fft.fft, np.linalg.eigvalsh, np.einsum

    def record(array):
        built.append(array.size)
        return array

    monkeypatch.setattr(np.fft, "fft", lambda a, axis: record(fft(record(a), axis=axis)))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(record(a)))
    monkeypatch.setattr(np, "einsum", lambda spec, *ops: record(einsum(spec, *map(record, ops))))
    monkeypatch.setattr(errors, "_TABLE_BUDGET", _class_count(N, s))
    for m in (1, N // 2, N):
        subsampled_instance(N, m, 3).delta(s) if N * N <= errors._TABLE_BUDGET else None
        for delta in (0.0, 0.5):
            estimate_failure_probability(N, m, s, delta, 3 * errors._TABLE_BUDGET // N + 1, 1)
    assert built and max(built) <= errors._TABLE_BUDGET


def _blocked_loop_outputs() -> list:
    """What each blocked loop computes, as bytes or exact reprs."""
    rng = np.random.default_rng(11)
    points = rng.normal(size=(9, 2))
    mats = list(rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)))
    d = space_from_points(points, "l1").dist
    bad = d.copy()
    bad[0, 1] = bad[1, 0] = 3.0 * d.max()  # a triangle violation
    chaos = simulate_chaos([rng.normal(size=(3, 4))], RowDistribution("rademacher"), 40, 5)
    small = SupremumSample(replications=3, seed=4, values=np.array([0.5, 2.0, 1.25]))
    supplied = restricted_isometry_constant(rng.normal(size=(5, 8)), 3)
    inst = subsampled_instance(12, 6, 3)
    dft = inst.delta(3)
    return [
        chaos.values.tobytes(),  # _chaos_sup
        space_from_points(points).dist.tobytes(), matrix_set_space(mats).dist.tobytes(),
        [metric._neighbours_certify_triangle(x, 1e-12) for x in (d, bad)],
        repr(estimate_moments(chaos, [1.0, 3.0])), repr(estimate_moments(small, [2.0])),
        repr((supplied.delta_s, supplied.witness_support)),  # _stacked_deltas
        supplied.witness_direction.tobytes(),
        repr((inst.K, dft.delta_s, dft.witness_support)),  # _dft_flatness, _kernel_reruns
        repr(estimate_failure_probability(12, 6, 3, dft.delta_s, 20, 3)),
        repr(estimate_failure_probability(12, 6, 2, 0.5, 20, 3)),
    ]


def test_every_blocked_loop_gives_the_same_bytes_whatever_its_block(monkeypatch):
    outputs = []
    for block in (1, 7, errors._BLOCK_ENTRIES):
        monkeypatch.setattr(errors, "_BLOCK_ENTRIES", block)
        outputs.append(_blocked_loop_outputs())
    assert outputs[0] == outputs[1] == outputs[2]


def _auto_gamma(capsys, space_file, out, p, prime):
    """The estimate `chainbounds gamma` reports in its default auto mode."""
    argv = ["gamma", "--space", str(space_file), "--alpha", "2", "--p", f"{p:g}", "--out", str(out)]
    assert main(argv + (["--functional", "gamma-prime"] if prime else [])) == 0
    written = capsys.readouterr().out.splitlines()[-1].removeprefix("wrote ")
    return json.loads(Path(written).read_text())


@pytest.mark.parametrize("n", range(1, 18))
def test_auto_mode_is_exact_exactly_where_the_budget_admits_the_search(
        monkeypatch, tmp_path, capsys, n):
    # `chainbounds gamma` (both functionals) and schatten_radii resolve auto
    # through the count the refusal reads, and an auto call is never refused.
    points = np.random.default_rng(n).normal(size=(n, 2))
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps({"points": points.tolist()}))
    space = space_from_points(points)
    matrices = list(_normal(n, 2, 2))
    for prime in (False, True):
        for p in (1.0, 2.0, 4.0, 8.0):
            entries = chaining._prime_entries(n) if prime else chaining._exact_entries(n, p)
            mode = "exact" if entries <= errors._TABLE_BUDGET else "greedy"
            # gamma: up to 16 points, and 17 at a lone free level 2; gamma': up to 12
            assert mode == ("exact" if (n <= 12 if prime else n <= 16 or p >= 4.0) else "greedy")
            assert chaining._gamma_mode("auto", entries) == mode
            with monkeypatch.context() as patched:  # auto follows the budget wherever it is
                patched.setattr(errors, "_TABLE_BUDGET", entries)
                assert chaining._gamma_mode("auto", entries) == "exact"
                if entries:  # a search that builds no table is never refused
                    patched.setattr(errors, "_TABLE_BUDGET", entries - 1)
                    assert chaining._gamma_mode("auto", entries) == "greedy"
                    with pytest.raises(CapacityError, match=f" of {entries} entries, "):
                        gamma_prime(space, 2.0) if prime else gamma_exact(space, 2.0, p)
            if prime and p > 1.0:  # gamma_prime does not read p
                continue
            report = _auto_gamma(capsys, space_file, tmp_path / "out", p, prime)
            if prime:
                greedy = gamma_prime(space, 2.0, "greedy")
                expected = gamma_prime(space, 2.0) if mode == "exact" else greedy
            else:
                greedy = gamma_greedy(space, 2.0, p)
                expected = gamma_exact(space, 2.0, p) if mode == "exact" else greedy
            assert (report["mode"], report["value"]) == (mode, expected.value)
            assert report["value"] <= greedy.value
            if not prime:
                radii = schatten_radii(matrices, p=p)
                greedy = gamma_greedy(radii.space, 2.0, p)
                expected = gamma_exact(radii.space, 2.0, p) if mode == "exact" else greedy
                assert (radii.gamma2_dinf.mode, radii.gamma2_dinf.value) == (mode, expected.value)
                assert radii.gamma2_dinf.value <= greedy.value
