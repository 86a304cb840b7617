"""The shared argument validators."""

import math
import re

import numpy as np
import pytest

from chainbounds import DomainError
from chainbounds.errors import check_int, check_number, check_real


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
