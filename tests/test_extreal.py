import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recurrencelab import INF, ONE, ZERO, ExtReal


def test_parsing_forms():
    assert ExtReal("1/2").fraction == Fraction(1, 2)
    assert ExtReal("0.25").fraction == Fraction(1, 4)
    assert ExtReal(3).fraction == Fraction(3)
    assert ExtReal(Fraction(7, 3)).fraction == Fraction(7, 3)
    assert ExtReal("inf").is_inf
    assert ExtReal(math.inf).is_inf
    assert ExtReal(ExtReal("2/3")) == ExtReal("2/3")


def test_rejects_negative_and_nan():
    with pytest.raises(ValueError):
        ExtReal(-1)
    with pytest.raises(ValueError):
        ExtReal("-1/2")
    with pytest.raises(ValueError):
        ExtReal(math.nan)


@pytest.mark.parametrize("text, reason", [
    ("nan", "NaN is not a rate value"), (" -NaN ", "NaN is not a rate value"),
    ("x", "Invalid literal for Fraction")])
def test_strings_that_fraction_refuses(text, reason):
    with pytest.raises(ValueError, match=reason):
        ExtReal(text)


def test_reciprocal_conventions():
    assert ZERO.reciprocal().is_inf
    assert INF.reciprocal().is_zero
    assert ExtReal(4).reciprocal() == ExtReal("1/4")


def test_multiplication_and_division():
    assert ExtReal(2) * ExtReal("3/2") == ExtReal(3)
    assert (INF * ExtReal(5)).is_inf
    assert (ExtReal(5) * INF).is_inf
    with pytest.raises(ArithmeticError):
        ZERO * INF
    with pytest.raises(ArithmeticError):
        INF * ZERO
    assert ExtReal(3) / ExtReal(2) == ExtReal("3/2")
    assert (INF / ExtReal(7)).is_inf
    with pytest.raises(ArithmeticError):
        ExtReal(1) / ZERO
    with pytest.raises(ArithmeticError):
        ExtReal(1) / INF


def test_ordering():
    assert ZERO < ONE < INF
    assert not INF < INF
    assert ExtReal("1/3") < ExtReal("1/2")
    assert ONE <= ExtReal(1)
    assert INF >= ExtReal("1000000")


def test_float_and_json():
    assert float(INF) == math.inf
    assert float(ExtReal("1/4")) == 0.25
    assert INF.json_value() == "inf"
    assert ExtReal(3).json_value() == 3
    assert ExtReal("1/2").json_value() == 0.5


@given(st.fractions(min_value=0, max_value=10 ** 6))
def test_roundtrip_fraction(fr):
    assert ExtReal(fr).fraction == fr
    assert ExtReal(str(fr)) == ExtReal(fr)


@given(st.fractions(min_value=0, max_value=1000),
       st.fractions(min_value=Fraction(1, 1000), max_value=1000))
def test_mul_div_inverse(a, b):
    x, y = ExtReal(a), ExtReal(b)
    assert (x * y) / y == x
