"""Positions as 64-bit mantissas: exponential-scale values on a binary grid.

Insertion positions grow like e^{i*phi(i)} and leave floating point range
long before they strain memory.  The construction needs each position
only up to log ell = X + o(phi(n)), and every exponent handed here is
already a rounded double, so a position is a 64-bit mantissa M times a
power of two, the grid of integers M 2^s with M < 2^64 and s >= 0:

* exp_ceil(X) is the least grid value >= e^X, exp_floor(X) the greatest
  grid value <= e^X;
* power_log_ceil(n, A) and nlogn_ceil(n) are the least grid values
  >= n^A ln n.

Every integer below 2^64 lies on the grid, so below 2^63 each of these is
exactly the integer ceiling or floor of its value.  Above it, it lies
within one unit of M's last place of the value, on the side its name
says.

One routine, `_settle`, computes all of them.  It brackets the value at
128 bits, rounds both ends of the bracket to the grid, and doubles the
precision while the two ends round to different grid values (Ziv, "Fast
evaluation of elementary mathematical functions with correctly rounded
last bit", 1991).  None of these values is a grid value (e^X for a
rational X != 0 and n^A ln n for n >= 2 are transcendental), so some
precision decides every one.  An exponent given as a sequence of float
terms is their exact dyadic sum, so nothing is lost before
exponentiation.

mpmath's raw layer, `mpmath.libmp`, supplies exp, ln and the roots; it is
imported on first use (`_LazyLibmp`), so a process that only measures
words never loads mpmath.  Every step passes its precision and rounding
to libmp as arguments, so the module neither reads nor changes mpmath's
global context (`mp.prec`), and two threads can compute at once.
"""
from __future__ import annotations

import math
import numbers
import sys

from .errors import CapacityError


class _LazyLibmp:
    """mpmath.libmp, imported when the first name is read from it.

    Importing it runs all of mpmath's package, about 4 MB of a process's
    peak RSS, which a process that only measures words never needs.  The
    first read puts the module itself in `_libmp`'s place, so every later
    read is a plain module attribute: a name replaced on mpmath.libmp is
    the one the next call takes.
    """

    def __getattr__(self, name):
        global _libmp
        import mpmath.libmp
        _libmp = mpmath.libmp
        return getattr(_libmp, name)


_libmp = _LazyLibmp()

DEFAULT_DIGIT_CAP = 20_000

# Plans serialize positions as decimal digits, in strings and JSON
# integers; CPython's int<->str guard (default 4300 digits, from 3.10.7 and
# 3.11 on; 0 is no limit) would reject them.
if (hasattr(sys, "get_int_max_str_digits")
        and 0 < sys.get_int_max_str_digits() < 2_000_000):
    sys.set_int_max_str_digits(2_000_000)

LOG10 = math.log(10)
LN2 = math.log(2)


def digits_of_exp(log_value: float) -> int:
    """Approximate decimal digit count of e**log_value."""
    return max(1, int(log_value / LOG10) + 1)


def check_digit_cap(log_value: float, digit_cap: int = DEFAULT_DIGIT_CAP) -> None:
    if digits_of_exp(log_value) > digit_cap:
        raise CapacityError(
            f"value of ~{digits_of_exp(log_value)} digits exceeds the "
            f"digit cap of {digit_cap}")


def _terms(log_value) -> tuple:
    """An exponent given as a number or as a sequence of terms, as a tuple."""
    if isinstance(log_value, (float, int)):
        return (log_value,)
    return tuple(log_value)


def _dyadic_sum(terms: tuple) -> tuple:
    """The exact sum of float (or int) terms as (num, s), meaning num/2^s."""
    num = s = 0
    for t in terms:
        p, q = t.as_integer_ratio()
        if q & (q - 1):
            raise TypeError(f"exponent term {t!r} is not a binary fraction")
        k = q.bit_length() - 1
        if k > s:
            num, s = num << (k - s), k
        num += p << (s - k)
    return num, s


def _grid(man: int, exp: int, up: bool) -> int:
    """The least (up) or greatest grid value M 2^s, M < 2^64 and s >= 0,
    at or above (at or below) man 2^exp."""
    if exp >= 0:
        v = man << exp
    else:
        v = -(-man >> -exp) if up else man >> -exp
    cut = max(0, v.bit_length() - 64)
    return (-(-v >> cut) if up else v >> cut) << cut


def _settle(value, up: bool) -> int:
    """The least (up) or greatest grid value on that side of a positive v
    that lies on no grid point, where value(prec) is v within a relative
    2^-prec, as a raw mpf.

    The two ends of that bracket are rounded to the grid, from 128 bits
    on, and the precision doubles until they round alike.
    """
    prec = 128
    while True:
        _, man, exp, bc = value(prec)
        # man of at least prec + 1 bits (an mpz under mpmath's gmpy2
        # backend), so that v lies within man 2^-prec < 2^(bc - prec)
        # units of 2^exp, at least one
        k = max(0, prec + 1 - bc)
        man, exp, bc = int(man) << k, exp - k, bc + k
        d = 1 << (bc - prec)
        lo, hi = _grid(man - d, exp, up), _grid(man + d, exp, up)
        if lo == hi:
            return lo
        prec *= 2


def _exponent_parts(exponent) -> tuple[int, int]:
    """(numerator, denominator) of a rational exponent: an int or a
    Fraction.  A float is refused, since its binary fraction is rarely the
    exponent meant."""
    if not isinstance(exponent, numbers.Rational):
        raise TypeError(f"exponent must be an int or a Fraction, got "
                        f"{type(exponent).__name__} {exponent!r}")
    return exponent.numerator, exponent.denominator


def exp_int(log_value, digit_cap: int = DEFAULT_DIGIT_CAP,
            *, rounding: str = "ceil") -> int:
    """The least ("ceil") or greatest ("floor") grid value on that side of
    e**log_value, as a Python int; anything else is a ValueError.

    log_value is a float, or a sequence of floats whose exact sum is the
    exponent.  A negative exponent gives 1 or 0, and e^0 is 1.
    """
    if rounding not in ("ceil", "floor"):
        raise ValueError(
            f"rounding must be 'ceil' or 'floor', got {rounding!r}")
    up = rounding == "ceil"
    terms = _terms(log_value)
    num, s = _dyadic_sum(terms)
    if num <= 0:
        return 1 if num == 0 or up else 0
    check_digit_cap(math.fsum(terms), digit_cap)
    x = _libmp.from_man_exp(num, -s)
    # mpf_exp is good to an ulp or two; 16 guard bits cover that
    return _settle(lambda prec: _libmp.mpf_exp(x, prec + 16,
                                               _libmp.round_nearest), up)


def exp_ceil(log_value, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    return exp_int(log_value, digit_cap, rounding="ceil")


def exp_floor(log_value, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    return exp_int(log_value, digit_cap, rounding="floor")


def nth_root_floor(v: int, k: int) -> int:
    """floor(v ** (1/k)) for positive ints, by Newton on integers.

    A power of two k = 2^j takes j nested math.isqrt calls, which is
    exact: floor(sqrt(floor(w))) = floor(sqrt(w)) for real w >= 0, since
    an integer x has x^2 <= w exactly when x^2 <= floor(w).  Any other
    root of more than a few hundred bits starts from the root of the top
    half of its bits, so only the last few Newton steps run at full width.
    """
    if v < 0 or k < 1:
        raise ValueError("need v >= 0 and k >= 1")
    if k == 1 or v < 2:
        return v
    if k & (k - 1) == 0:
        for _ in range(k.bit_length() - 1):
            v = math.isqrt(v)
        return v
    if v.bit_length() <= k:   # 2 <= v < 2^k: no power of 4 needs forming
        return 1
    half = v.bit_length() // k // 2
    if half < 256:
        x = 1 << ((v.bit_length() + k - 1) // k + 1)
    else:
        # with a = floor(floor(w)^(1/k)), w = v/2^(k half), the integer
        # (a+1)^k exceeds floor(w), hence w: so x lies above the root,
        # where Newton descends to its floor
        x = (nth_root_floor(v >> (k * half), k) + 1) << half
    while True:
        y = ((k - 1) * x + v // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > v:
        x -= 1
    return x


def power_log_ceil(n: int, exponent, *,
                   digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """The least grid value >= n**exponent * ln(n), exponent an int or a
    Fraction (TypeError otherwise)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    num, den = _exponent_parts(exponent)
    if num < 0:
        raise ValueError("exponent must be nonnegative")
    check_digit_cap(num / den * math.log(n) + math.log(math.log(n)),
                    digit_cap)
    return _power_log_ceil(n, num, den)


def _power_log_ceil(n: int, num: int, den: int) -> int:
    """power_log_ceil(n, num/den) without the digit cap.

    n rounded to the working precision, its num-th power, its den-th root,
    its ln and their product each round once, to within an ulp or so;
    the power multiplies the first rounding by num, so the guard bits
    grow with num's.
    """
    def value(prec):
        wp, rnd = prec + 16 + num.bit_length(), _libmp.round_nearest
        x = _libmp.from_int(n, wp, rnd)
        power = _libmp.mpf_pow_int(x, num, wp, rnd)
        if den > 1:
            power = _libmp.mpf_nthroot(power, den, wp, rnd)
        return _libmp.mpf_mul(power, _libmp.mpf_log(x, wp, rnd), wp, rnd)

    return _settle(value, True)


def nlogn_ceil(n: int) -> int:
    """The least grid value >= n * ln n, for an integer n of any size."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return _power_log_ceil(n, 1, 1)
