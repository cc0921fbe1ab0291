"""Extended nonnegative reals [0, inf] with exact rational arithmetic.

Classification decisions hinge on exact boundary comparisons (alpha >= 1/gamma
with 1/0 = inf and 1/inf = 0), so finite values are stored as Fractions and
infinity as a distinguished state.  Floats are admitted on input but converted
exactly; strings like "1/2", "0.75" or "inf" parse to the obvious values.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import Union

RawExt = Union[int, float, str, Fraction, "ExtReal"]


@total_ordering
class ExtReal:
    """A value in [0, inf]; immutable."""

    __slots__ = ("_v",)

    def __init__(self, value: RawExt):
        if isinstance(value, ExtReal):
            self._v = value._v
            return
        if isinstance(value, Fraction):
            if value.numerator < 0:
                raise ValueError(f"negative value {value} is not a rate value")
            self._v = value
            return
        if isinstance(value, str):
            text = value.strip().lower()
            if text in ("inf", "infinity", "oo"):
                self._v = None
                return
            try:
                value = Fraction(text)
            except ValueError:
                if text.lstrip("+-") == "nan":
                    raise ValueError("NaN is not a rate value") from None
                raise
        if isinstance(value, float):
            if math.isinf(value):
                if value < 0:
                    raise ValueError("negative infinity is not a rate value")
                self._v = None
                return
            if math.isnan(value):
                raise ValueError("NaN is not a rate value")
            value = Fraction(value)
        if isinstance(value, int):
            value = Fraction(value)
        if not isinstance(value, Fraction):
            raise TypeError(f"cannot interpret {value!r} as an extended real")
        if value < 0:
            raise ValueError(f"negative value {value} is not a rate value")
        self._v = value

    # -- state ------------------------------------------------------------

    @property
    def is_inf(self) -> bool:
        return self._v is None

    @property
    def is_zero(self) -> bool:
        return self._v == 0

    @property
    def fraction(self) -> Fraction:
        if self._v is None:
            raise ValueError("infinite value has no Fraction form")
        return self._v

    def __float__(self) -> float:
        return math.inf if self._v is None else float(self._v)

    # -- arithmetic --------------------------------------------------------

    def reciprocal(self) -> "ExtReal":
        """1/x with the conventions 1/0 = inf and 1/inf = 0."""
        if self._v is None:
            return ExtReal(0)
        if self._v == 0:
            return INF
        return ExtReal(1 / self._v)

    def __mul__(self, other: RawExt) -> "ExtReal":
        other = ExtReal(other)
        if self.is_inf or other.is_inf:
            if self.is_zero or other.is_zero:
                raise ArithmeticError("0 * inf is undefined here")
            return INF
        return ExtReal(self._v * other._v)

    __rmul__ = __mul__

    def __truediv__(self, other: RawExt) -> "ExtReal":
        other = ExtReal(other)
        if other.is_inf or other.is_zero:
            raise ArithmeticError("division only by finite positive values")
        if self.is_inf:
            return INF
        return ExtReal(self._v / other._v)

    # -- ordering ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtReal):
            try:
                other = ExtReal(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self._v == other._v

    def __lt__(self, other) -> bool:
        if not isinstance(other, ExtReal):
            other = ExtReal(other)
        if self._v is None:
            return False
        if other._v is None:
            return True
        return self._v < other._v

    def __hash__(self):
        return hash(self._v)

    # -- presentation --------------------------------------------------------

    def __repr__(self) -> str:
        return f"ExtReal({str(self)!r})"

    def __str__(self) -> str:
        return "inf" if self._v is None else str(self._v)

    def json_value(self):
        """Number for finite values, the string "inf" otherwise."""
        if self._v is None:
            return "inf"
        if self._v.denominator == 1:
            return int(self._v)
        return float(self._v)


INF = ExtReal("inf")
ZERO = ExtReal(0)
ONE = ExtReal(1)
