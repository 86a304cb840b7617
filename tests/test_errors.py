"""The shared argument validators, and every array and scalar intake that uses them."""

import math
import re

import numpy as np
import pytest

from chainbounds import (
    DomainError,
    ModelError,
    bounds,
    chaining,
    conversions,
    metric,
    orlicz,
    processes,
    results,
    rip,
    schatten,
    space_from_points,
)
from chainbounds.errors import check_array, check_int, check_number, check_real


def test_check_int_accepts_integral_values():
    assert check_int("n", 3, 1) == 3
    assert check_int("n", 3.0, 1) == 3
    assert check_int("n", np.int64(7), 0, 7) == 7
    assert type(check_int("n", np.int64(7), 0)) is int


@pytest.mark.parametrize("v", [True, 2.5, math.nan, math.inf, -math.inf, "3", 0, 9, None, [3]])
def test_check_int_rejects(v):
    with pytest.raises(DomainError):
        check_int("n", v, 1, 8)


@pytest.mark.parametrize("v", [np.True_, np.False_, np.str_("3")])
def test_check_int_rejects_numpy_bools_and_strings(v):
    with pytest.raises(DomainError, match="n must be an integer"):
        check_int("n", v, 0, 8)


def test_check_real_bounds():
    assert check_real("p", 1, 1.0) == 1.0
    assert check_real("alpha", np.float64(0.5), 0.0, strict=True) == 0.5
    with pytest.raises(DomainError):
        check_real("alpha", 0.0, 0.0, strict=True)
    with pytest.raises(DomainError):
        check_real("p", 0.99, 1.0)


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_check_real_rejects_non_finite(v):
    with pytest.raises(DomainError):
        check_real("x", v, 0.0)


@pytest.mark.parametrize(
    "v", [None, "1.5", {"value": 1.0}, [1.0], 1j, True, False, np.True_, np.False_, np.str_("2"),
          np.complex128(2.0), np.complex64(1j)]
)
def test_check_real_names_the_field_of_a_non_number(v):
    # JSON null, strings, objects and booleans are rejected by name, as check_int does
    message = f"^diam must be a real number, got {re.escape(repr(v))}$"
    with pytest.raises(DomainError, match=message):
        check_real("diam", v, 0.0)
    with pytest.raises(DomainError, match=message):
        check_number("diam", v)


def test_check_number_takes_every_real_number():
    # NaN and infinities included: the range is the caller's to check
    for v in (1, -2.5, np.float32(0.5), np.int64(3), math.inf, -math.inf):
        assert check_number("u", v) == float(v)
    assert math.isnan(check_number("u", math.nan))


# ------------------------------------------------------------ array intake

_RADEMACHER = processes.RowDistribution("rademacher")
_ENVELOPE = results.PowerEnvelope(prefactor=1.0, rate=1.0, power=1.0)

# site: (call on the array, a valid array, the error class, the name the message carries)
_ARRAY_SITES = {
    "martingale coefficients": (processes.martingale_model, np.eye(2), ModelError, "coefficients"),
    "empirical coefficients": (lambda a: processes.empirical_model(a, _RADEMACHER), np.eye(2),
                               ModelError, "coefficients"),
    "squares coefficients": (lambda a: processes.squares_model(a, _RADEMACHER), np.eye(2),
                             ModelError, "coefficients"),
    "covariance": (processes.gaussian_model, np.eye(2), ModelError, "covariance"),
    "step_bounds": (lambda a: processes.martingale_model(np.eye(2), step_bounds=a), np.eye(2),
                    ModelError, "step_bounds"),
    "supremum values": (lambda a: processes.SupremumSample(replications=2, seed=0, values=a),
                        np.ones(2), ModelError, "values"),
    "RIP matrix": (lambda a: rip.restricted_isometry_constant(a, 1), np.eye(2), DomainError, "A"),
    "schatten_norm": (lambda a: schatten.schatten_norm(a, 2), np.eye(2), DomainError, "a"),
    "schatten_radii": (lambda a: schatten.schatten_radii([a]), np.eye(2), DomainError,
                       "matrices[0]"),
    "matrix_set_space": (lambda a: schatten.matrix_set_space([np.eye(2), a]), np.eye(2),
                         DomainError, "matrices[1]"),
    "simulate_chaos": (lambda a: processes.simulate_chaos([a], _RADEMACHER, 10, 0), np.eye(2),
                       DomainError, "matrices[0]"),
    "exact_chaos_distribution": (lambda a: processes.exact_chaos_distribution([a]), np.eye(2),
                                 DomainError, "matrices[0]"),
    "hanson_wright_tail": (lambda a: bounds.hanson_wright_tail(a, c_fit=1.0), np.eye(2),
                           DomainError, "B"),
    "psi2_norms": (bounds.squares_default_parameters, np.ones((2, 2)), DomainError,
                   "psi2_norms"),
    "individual_bounds": (lambda a: conversions.small_set_moment_bound(a, 2.0), None,
                          DomainError, "individual_bounds"),
    "orlicz samples": (lambda a: orlicz.psi_norm_empirical(a, 2.0), None, DomainError, "samples"),
}

# a good array of None marks an intake that takes any shape: it has no wrong ndim
_ANY_SHAPE_GOOD = np.ones((2, 2))


def _with_entry(good, value):
    bad = good.tolist()
    row = bad if good.ndim == 1 else bad[-1]
    row[-1] = value
    return bad


def _bad_arrays(good):
    """(case, bad array) for every way an array intake must refuse."""
    shape_free = good is None
    good = _ANY_SHAPE_GOOD if shape_free else good
    rows = good.tolist()
    ragged = rows[:-1] + [rows[-1][:-1]] if good.ndim == 2 else [rows[0], rows[1:]]
    cases = [("nan", _with_entry(good, math.nan)), ("inf", _with_entry(good, math.inf)),
             ("-inf", _with_entry(good, -math.inf)), ("bool", np.ones(good.shape, dtype=bool)),
             ("string", _with_entry(good, "1")), ("ragged", ragged),
             ("empty", [] if shape_free else np.empty((0,) * good.ndim))]
    if not shape_free:
        cases.append(("ndim", good[0] if good.ndim == 2 else good[None]))
    return cases


@pytest.mark.parametrize(
    "site, bad",
    [pytest.param(site, bad, id=f"{site}-{case}")
     for site, (_, good, _, _) in _ARRAY_SITES.items() for case, bad in _bad_arrays(good)],
)
def test_every_array_intake_refuses_a_bad_array_by_name(site, bad):
    # NaN, infinities, bools, strings, ragged rows, the wrong ndim and an empty
    # array: each is this site's own error, naming the argument, before any
    # SVD, draw or warning (the suite runs under -W error)
    call, _, error, name = _ARRAY_SITES[site]
    with pytest.raises(error) as info:
        call(bad)
    assert str(info.value).startswith(f"{name} ")


@pytest.mark.parametrize("call", [schatten.schatten_radii, schatten.matrix_set_space,
                                  processes.exact_chaos_distribution])
def test_an_empty_matrix_family_is_refused_by_name(call):
    with pytest.raises(DomainError, match="^matrices must be a nonempty family$"):
        call([])


_SCALAR_SITES = {
    "row scale": (lambda v: processes.RowDistribution("gaussian", scale=v), "scale"),
    "schatten radius": (lambda v: schatten.SchattenRadii(delta_2=v, delta_4=0.0, delta_inf=0.0),
                        "delta_2"),
    "orlicz value": (lambda v: orlicz.OrliczNorm(2.0, v, "empirical"), "norm value"),
    "threshold coefficient": (lambda v: results.TailBound(
        factor=1.0, const=v, sqrt_coeff=0.0, linear=1.0, envelope=_ENVELOPE), "const"),
    "decomposition term": (lambda v: results.MomentBound(p=2.0, decomposition=(("head", v),)),
                           "head"),
    "covering radius": (lambda v: metric.covering_number(
        space_from_points(np.arange(3.0)[:, None]), v), "radius"),
    "Schatten exponent": (lambda v: schatten.schatten_norm(np.eye(2), v), "Schatten exponent"),
    "union threshold": (lambda v: conversions.union_bound_probability(1.0, v, 1.0), "u"),
}
# sites whose docstring takes inf: one ball, the operator norm, a zero probability
_INF_SITES = {"covering radius", "Schatten exponent", "union threshold"}


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, True, "1"], ids=repr)
@pytest.mark.parametrize("site", sorted(_SCALAR_SITES))
def test_every_scalar_intake_refuses_a_bad_value_by_name(site, v):
    call, name = _SCALAR_SITES[site]
    if site in _INF_SITES and v == math.inf:
        call(v)
        return
    with pytest.raises(DomainError, match=re.escape(name)):
        call(v)


def test_check_array_names_the_first_offending_entry():
    with pytest.raises(DomainError, match=r"^x must be finite, got nan at entry \[1, 0\]$"):
        check_array("x", [[1.0, 2.0], [math.nan, math.inf]], 2)
    with pytest.raises(ModelError, match=r"^y must be finite and >= 0, got -1.0 at entry \[2\]$"):
        check_array("y", [0, 1, -1, math.nan], 1, nonnegative=True, error=ModelError)
    with pytest.raises(DomainError, match=r"^z must be a square 2-D array, got shape \(1, 2\)$"):
        check_array("z", [[1.0, 2.0]], 2, square=True)
    with pytest.raises(DomainError, match=r"^w must hold real numbers, got dtype complex128$"):
        check_array("w", [1j], 1)


def test_check_array_returns_float_input_uncopied():
    a = np.arange(6.0).reshape(2, 3)
    assert check_array("a", a, 2) is a
    c = a.astype(complex)
    assert check_array("c", c, None, complex_ok=True) is c
    ints = check_array("i", [[1, 2]], 2)
    assert ints.dtype == np.float64 and ints.tolist() == [[1.0, 2.0]]
    assert check_array("r", a, 2, complex_ok=True).dtype == np.complex128
    assert check_array("e", np.zeros((0, 3)), 2, empty_ok=True).shape == (0, 3)
    with pytest.raises(DomainError, match=r"^e must be nonempty, got shape \(0, 3\)$"):
        check_array("e", np.zeros((0, 3)), 2)


# ------------------------------------------------------------ index lists


def _line(n):
    return space_from_points(np.arange(float(n))[:, None])


# site: call on an index list (3 points)
_INDEX_SITES = {
    "admissible_sets": (lambda I: chaining.admissible_sets(_line(3), [[0], I]), "level 1"),
    "admissible_partitions": (lambda I: chaining.admissible_partitions(
        _line(3), [[[0, 1, 2]], [I, [0]]]), "level 1 cell 0"),
}


@pytest.mark.parametrize("bad, rule", [
    ([1.7, 2], "must hold integers, got 1.7 at entry [0]"),
    ([True, False], "must hold real numbers, got dtype bool"),
    ([[1, 2]], "must be a 1-D array, got shape (1, 2)"),
    ([1.5, math.nan], "must be finite, got nan at entry [1]"),
    (1, "must be a 1-D array, got shape ()"),
    (["1", "2"], "must hold real numbers, got dtype <U1"),
], ids=["fraction", "bool", "nested", "nan", "scalar", "string"])
@pytest.mark.parametrize("site", sorted(_INDEX_SITES))
def test_every_index_list_refuses_what_is_no_index_by_name(site, bad, rule):
    # no entry is truncated to an index, and no numpy error escapes
    call, name = _INDEX_SITES[site]
    with pytest.raises(DomainError, match=f"^{re.escape(name + ' ' + rule)}$"):
        call(bad)


@pytest.mark.parametrize("site", sorted(_INDEX_SITES))
def test_integral_float_indices_are_taken_as_check_int_takes_them(site):
    call, _ = _INDEX_SITES[site]
    call([1.0, 2.0])
    call(np.array([1, 2]))


def test_out_of_range_indices_keep_their_messages():
    with pytest.raises(DomainError, match="^level 1 has an out-of-range point index$"):
        chaining.admissible_sets(_line(3), [[0], [-1]])
    with pytest.raises(DomainError, match="^level 1 has an out-of-range point index$"):
        chaining.admissible_partitions(_line(3), [[[0, 1, 2]], [[0, 1, 5], [2]]])


# ------------------------------------------------------------ matrix families


@pytest.mark.parametrize("call", [
    schatten.schatten_radii, schatten.matrix_set_space, processes.exact_chaos_distribution,
    lambda family: processes.simulate_chaos(family, _RADEMACHER, 10, 0),
], ids=["schatten_radii", "matrix_set_space", "exact_chaos_distribution", "simulate_chaos"])
@pytest.mark.parametrize("family", [5, 2.5, None])
def test_a_matrix_family_that_is_no_sequence_is_refused_by_name(call, family):
    with pytest.raises(DomainError, match="^matrices must be a family of matrices, got "):
        call(family)


# ------------------------------------------------------------ supremum samples


def test_a_sample_copies_the_arrays_it_is_given_and_the_caller_may_write_them():
    values = np.ones(3)
    sample = processes.SupremumSample(3, 0, values)
    values[0] = 2.0
    assert sample.values.tolist() == [1.0, 1.0, 1.0]
    assert not sample.values.flags.writeable
    view = values[:]
    view.setflags(write=False)  # read-only, but its owner is not
    sample = processes.SupremumSample(3, 0, view)
    values[1] = 3.0
    assert sample.values.tolist() == [2.0, 1.0, 1.0]


def test_a_simulated_sample_keeps_its_rows_uncopied(monkeypatch):
    # values is the kernel's own concatenation of the blocks, not a copy of it
    made, concatenate = [], np.concatenate
    monkeypatch.setattr(np, "concatenate", lambda *a, **k: made.append(concatenate(*a, **k))
                        or made[-1])
    sample = processes.simulate_squares(
        processes.squares_model(np.eye(2), _RADEMACHER), 2, 10, 0)
    assert any(a is sample.values for a in made)
    assert not sample.values.flags.writeable


# ------------------------------------------------------------ power sums past the float range

_HUGE_FAMILY = [np.diag([1e100, 1.0]), np.eye(2)]


def test_schatten_radii_and_norms_are_finite_where_the_true_value_is():
    # the 4th powers overflowed: the family was refused as "radius delta_4 ... got inf"
    radii = schatten.schatten_radii(_HUGE_FAMILY)
    assert (radii.delta_2, radii.delta_4, radii.delta_inf) == (1e100, 1e100, 1e100)
    assert schatten.schatten_norm(_HUGE_FAMILY[0], 4) == 1e100
    assert schatten.schatten_norm(np.diag([1e200, 1e200]), 2) == pytest.approx(2**0.5 * 1e200)
    # radii past 1e154 square to inf in the interpolation check, and are accepted
    assert schatten.schatten_radii([np.diag([1e200, 1.0])], gamma_mode="none").delta_4 == 1e200


def test_power_sum_parameters_are_finite_where_the_true_value_is():
    sigma, K = bounds.squares_default_parameters([[1e80, 1.0]])
    assert (sigma, K) == (pytest.approx(1e160 / math.sqrt(2)), 1e160)
    model = processes.empirical_model([[1e200, 1.0], [1.0, 1.0]], _RADEMACHER)
    top = float(model.psi_norm_matrix(1).max())
    assert processes.empirical_parameters(model) == (pytest.approx(top / math.sqrt(2)), top)
    # where the true value passes the float range the result is inf, with no warning
    assert bounds.squares_default_parameters([[1e200, 1.0]]) == (math.inf, math.inf)


@pytest.mark.parametrize("q", [1100, 2000])
def test_a_power_sum_that_underflows_is_computed_from_the_rescaled_values(q):
    # every s^q underflows, and the root of their sum read 0.0
    assert schatten.schatten_norm(0.5 * np.eye(2), q) == pytest.approx(0.5 * 2 ** (1 / q), rel=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_finite_power_sums_keep_the_bits_of_the_unscaled_expressions(seed):
    # the values are rescaled only where a sum overflows, so every finite
    # result is the unscaled expression's, bit for bit
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((6, 3, 4)) * 10.0 ** rng.uniform(-30, 30, (6, 1, 1))
    svals = np.linalg.svd(stack.astype(complex), compute_uv=False)  # matrices are read as complex
    radii = schatten.schatten_radii(stack, gamma_mode="none")
    assert radii.delta_2 == float(np.sqrt((svals**2).sum(axis=1)).max())
    assert radii.delta_4 == float(((svals**4).sum(axis=1) ** 0.25).max())
    for q in (1, 2, 2.5, 3, 4):
        assert schatten.schatten_norm(stack[0], q) == float(np.sum(svals[0]**q) ** (1.0 / q))
    arr = np.abs(stack[:, 0, :])
    assert bounds.squares_default_parameters(arr) == (
        float(np.sqrt(np.mean(arr**4, axis=1)).max()), float((arr**2).max()))
    model = processes.empirical_model(stack[:, 0, :], _RADEMACHER)
    norms = model.psi_norm_matrix(1)
    assert processes.empirical_parameters(model) == (
        float(np.sqrt((norms**2).mean(axis=1)).max()), float(norms.max()))
