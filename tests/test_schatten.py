"""Schatten norms and matrix-set radii."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbounds import DomainError, matrix_set_space, schatten_norm, schatten_radii
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
