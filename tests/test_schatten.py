"""Schatten norms and matrix-set radii."""

import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbounds import (
    CapacityError,
    DomainError,
    matrix_set_space,
    metric,
    schatten_norm,
    schatten_radii,
)
from chainbounds.schatten import SchattenRadii


def test_schatten_norm_identity():
    assert schatten_norm(np.eye(4), 2) == pytest.approx(2.0)
    assert schatten_norm(np.eye(4), 4) == pytest.approx(4.0**0.25)
    assert schatten_norm(np.eye(4), math.inf) == pytest.approx(1.0)


def test_schatten_norm_rank_one():
    # outer(u, v) has the single singular value |u||v|
    u = np.array([3.0, 4.0])
    a = np.outer(u, u) / 5.0  # singular value 5
    for q in (1, 2, 4, math.inf):
        assert schatten_norm(a, q) == pytest.approx(5.0)


def test_schatten_norm_complex():
    a = np.array([[0.0, 1.0j], [1.0j, 0.0]])
    assert schatten_norm(a, 2) == pytest.approx(math.sqrt(2.0))
    assert schatten_norm(a, math.inf) == pytest.approx(1.0)


def test_schatten_norm_rejects_small_q():
    with pytest.raises(DomainError):
        schatten_norm(np.eye(2), 0.5)


def test_schatten_norm_rejects_nan_q():
    with pytest.raises(DomainError, match="must be >= 1 or inf, got nan"):
        schatten_norm(np.eye(2), float("nan"))


@given(st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_schatten_ordering_random(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    n2 = schatten_norm(a, 2)
    n4 = schatten_norm(a, 4)
    ninf = schatten_norm(a, math.inf)
    assert ninf <= n4 + 1e-12
    assert n4 <= n2 + 1e-12
    # Cauchy-Schwarz interpolation between the three exponents
    assert n4**2 <= n2 * ninf + 1e-10


def test_matrix_set_space_distances():
    a = np.eye(2)
    b = np.zeros((2, 2))
    sp = matrix_set_space([a, b])
    assert sp.dist[0, 1] == pytest.approx(1.0)  # operator norm of I - 0
    with pytest.raises(DomainError):
        matrix_set_space([])
    with pytest.raises(DomainError):
        matrix_set_space([np.eye(2), np.eye(3)])


def per_pair_operator_distances(matrices):
    """The per-pair SVD loop matrix_set_space ran before the pairwise kernel."""
    stack = np.stack([np.asarray(a).astype(complex) for a in matrices])
    n = stack.shape[0]
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.svd(stack[i] - stack[j], compute_uv=False).max(initial=0.0))
            dist[i, j] = dist[j, i] = d
    return dist


@st.composite
def matrix_families(draw):
    """1, 2 or 3-16 real or complex matrices of 1-4 x 1-4 entries at scales 1e-300..1e150."""
    n = draw(st.sampled_from([1, 2, draw(st.integers(3, 16))]))
    shape = (n, draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = rng.normal(size=shape)
    if draw(st.booleans()):
        mats = mats + 1j * rng.normal(size=shape)
    return list(mats * 10.0 ** draw(st.integers(-300, 150)))


@given(matrix_families(), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_matrix_set_space_equals_the_per_pair_loop(mats, block):
    # small budgets run the kernel over row blocks and column blocks
    with mock.patch.object(metric, "_BLOCK_ELEMENTS", block):
        space = matrix_set_space(mats)
    ref = per_pair_operator_distances(mats)
    assert np.array_equal(space.dist.view(np.int64), ref.view(np.int64))


def test_too_many_matrices_fail_before_any_svd(monkeypatch):
    calls = []
    real_svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=f"got {metric.MAX_POINTS + 1}"):
        matrix_set_space(np.zeros((metric.MAX_POINTS + 1, 1, 1)))
    assert calls == []
    assert time.perf_counter() - start < 1.0
    matrix_set_space(np.zeros((3, 1, 1)))
    assert calls  # the counter sees the kernel's SVDs


def test_radii_singleton_identity():
    r = schatten_radii([np.eye(4)])
    assert (r.delta_2, r.delta_4, r.delta_inf) == pytest.approx(
        (2.0, 4.0**0.25, 1.0)
    )
    assert r.gamma2_dinf.value == 0.0
    assert r.gamma2_dinf.p == 1.0


def test_radii_gamma_modes():
    rng = np.random.default_rng(5)
    mats = [rng.normal(size=(3, 3)) for _ in range(4)]
    exact = schatten_radii(mats, gamma_mode="exact")
    greedy = schatten_radii(mats, gamma_mode="greedy")
    skipped = schatten_radii(mats, gamma_mode="none")
    assert greedy.gamma2_dinf.value >= exact.gamma2_dinf.value - 1e-12
    assert skipped.gamma2_dinf is None
    with pytest.raises(DomainError, match="unknown mode 'bogus'; expected exact, greedy or auto"):
        schatten_radii(mats, gamma_mode="bogus")


def test_radii_container_enforces_ordering():
    with pytest.raises(DomainError):
        SchattenRadii(delta_2=1.0, delta_4=2.0, delta_inf=0.5)
    with pytest.raises(DomainError):
        # ordering fine but interpolation violated: 1.9^2 > 2 * 1
        SchattenRadii(delta_2=2.0, delta_4=1.9, delta_inf=1.0)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_radii_random_sets_consistent(seed):
    rng = np.random.default_rng(seed)
    mats = [rng.normal(size=(3, 3)) for _ in range(rng.integers(1, 5))]
    r = schatten_radii(mats, gamma_mode="none")
    assert r.delta_inf <= r.delta_4 <= r.delta_2 + 1e-12
    assert r.delta_4**2 <= r.delta_2 * r.delta_inf + 1e-9
    # radii are the maxima of the per-matrix norms
    assert r.delta_2 == pytest.approx(max(schatten_norm(a, 2) for a in mats))
