"""Exact integer ceilings and floors of exponential-scale quantities.

Insertion positions grow like e^{i*phi(i)} and leave floating point range
long before they strain memory, so plan construction needs exact integers
built from log-space descriptions.  mpmath supplies the arbitrary-precision
exp/ln.  Precision is chosen from the target magnitude plus guard digits, so
results are exact unless the true value sits within ~10^-G of an integer
boundary (G = guard digits), which we accept as a working convention.

`_ln` takes ln n by one of three routes.  Inside mpmath's Taylor range
(below LOG_TAYLOR_PREC bits) it is mpmath's own ln.  Past it, when the
caller passes the exponent x from which n was built (n = ceil(e^x)), it
is x + log1p(n e^-x - 1) by a four-term series; otherwise, or when that
hint is too far off, it is Newton's method on exp.  exp_int and the hinted
ln share `_exp`, a pure function memoized for the last two arguments, so
exp_ceil(x) followed by power_log_ceil(n, 1, near=x) computes e^x once.

Desk-scale note: for values below ~10^15 the same helpers agree with direct
float arithmetic; they exist for the regime where floats cannot.
"""
from __future__ import annotations

import functools
import math
import sys

import mpmath
from mpmath.libmp.libelefun import LOG_TAYLOR_PREC

from .errors import CapacityError

GUARD_DIGITS = 30
DEFAULT_DIGIT_CAP = 20_000

# Plans serialize positions as decimal strings; CPython's int<->str guard
# (default 4300 digits) would reject them.
if sys.get_int_max_str_digits() < 2_000_000:
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


@functools.lru_cache(maxsize=2)
def _exp(terms: tuple, dps: int):
    """e to the exact sum of terms, as an mpf at dps digits.

    Pure, so a memo hit returns the value a fresh call would.  Two entries
    cover exp_int's e^x and the hinted ln of the same x that follows it.
    mpmath takes integer-valued exponents past 600 bits by powering e.
    """
    with mpmath.workdps(dps):
        return mpmath.exp(mpmath.fsum(mpmath.mpf(t) for t in terms))


def exp_int(log_value, digit_cap: int = DEFAULT_DIGIT_CAP,
            *, rounding: str = "ceil") -> int:
    """Exact ceil/floor of e**log_value as a Python int.

    log_value is a float — or a sequence of floats whose exact sum is
    the exponent, summed at working precision so no accuracy is lost
    before exponentiation.  Floats carry ~1e-16 relative uncertainty to
    begin with; the construction is deterministic and self-consistent,
    which is what downstream equality checks rely on.
    """
    terms = _terms(log_value)
    approx = math.fsum(terms)
    if approx < 0:
        return 1 if rounding == "ceil" else 0
    check_digit_cap(approx, digit_cap)
    dps = digits_of_exp(approx) + GUARD_DIGITS
    value = _exp(terms, dps)
    with mpmath.workdps(dps):
        out = mpmath.ceil(value) if rounding == "ceil" else mpmath.floor(value)
        return int(out)


def exp_ceil(log_value, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    return exp_int(log_value, digit_cap, rounding="ceil")


def exp_floor(log_value, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    return exp_int(log_value, digit_cap, rounding="floor")


def nth_root_floor(v: int, k: int) -> int:
    """floor(v ** (1/k)) for positive ints, by Newton on integers."""
    if v < 0 or k < 1:
        raise ValueError("need v >= 0 and k >= 1")
    if k == 1 or v < 2:
        return v
    x = 1 << ((v.bit_length() + k - 1) // k + 1)
    while True:
        y = ((k - 1) * x + v // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > v:
        x -= 1
    return x


def _ln(n: int, near=None, power=1.0):
    """ln n as an mpf.

    Up to LOG_TAYLOR_PREC bits mpmath's own ln reads a cached Taylor table
    and is the faster route; it is taken whatever the hint.  Past it, a
    hint ``near`` (the exponent n was built from) goes to `_ln_near`, with
    e^near at the digits of n^power plus GUARD_DIGITS, and `_ln_newton`
    serves what no hint settles.
    """
    x = mpmath.mpf(n)   # rounded at the working precision, as ln(mpf(n)) was
    if mpmath.mp.prec + 20 <= LOG_TAYLOR_PREC:   # mpf_log's own switch
        return mpmath.ln(x)
    if near is not None:
        terms = _terms(near)
        places = digits_of_exp(power * math.fsum(terms)) + GUARD_DIGITS
        y = _ln_near(x, terms, places)
        if y is not None:
            return y
    return _ln_newton(n, x)


def _ln_near(x, terms: tuple, places: int):
    """ln x from the terms of an exponent t with x close to e^t, or None.

    With u = x e^-t - 1, ln x = t + log1p(u); when |u| < 2^(-prec/4) four
    terms of the series are exact to the working precision.  e^t comes
    from `_exp` at ``places`` digits, so ln x is good to about 10^-places
    absolutely.  A hint off by more than 2^-90 is turned away by a 128-bit
    e^t first, so a float's guess at ln x costs little.
    """
    prec = mpmath.mp.prec
    with mpmath.workprec(128):
        e_t = mpmath.exp(mpmath.fsum(mpmath.mpf(t) for t in terms))
        if mpmath.mag(x / e_t - 1) >= -90:
            return None
    e_t = _exp(terms, places)
    d = x - e_t
    log1p = d   # zero when x is e^t at this precision
    if d:
        # u is needed to the working precision's absolute error only
        with mpmath.workprec(max(53, prec + mpmath.mag(d) - mpmath.mag(e_t))):
            u = d / e_t
            if mpmath.mag(u) >= -(prec // 4):
                return None
            log1p = u * (1 - u * (mpmath.mpf(1) / 2 - u * (
                mpmath.mpf(1) / 3 - u / 4)))
    return mpmath.fsum([*map(mpmath.mpf, terms), log1p])


def _ln_newton(n: int, x):
    """ln n, x = mpf(n), by Newton's method on exp, at least as precise as
    the working precision.

    Past LOG_TAYLOR_PREC mpmath switches to an AGM, which runs pure-Python
    square roots when gmpy is absent.  This iterates y <- y - 1 +
    n*exp(-y) from the float math.log(n) instead.  Each step doubles the
    correct digits, so each runs at about twice the precision of the step
    before; the last runs at the working precision plus 5 digits.
    """
    y0 = math.log(n)
    lead = max(1, math.ceil(math.log10(y0)))   # digits before the point
    # a step at dps digits needs (dps + lead)/2 correct digits on input;
    # the float start has 15
    steps = [mpmath.mp.dps + 5]
    while (steps[-1] + lead) // 2 + 2 > 15:
        steps.append((steps[-1] + lead) // 2 + 2)
    y = mpmath.mpf(y0)
    for dps in reversed(steps):
        with mpmath.workdps(dps):
            y = y - 1 + x * mpmath.exp(-y)
    return y


def power_log_ceil(n: int, exponent, *, times_log: bool = True,
                   digit_cap: int = DEFAULT_DIGIT_CAP, near=None) -> int:
    """Exact ceil(n**exponent * ln(n)) (or of the bare power).

    The power n^(p/q) is anchored in integer arithmetic — n^p, and its
    exact q-th root when one exists — so integer-valued powers never pick
    up a spurious +1 from working-precision fuzz.  The ln factor is
    transcendental and rounds past the guard digits as usual.  ``near`` is
    the exponent n was built from, if any (see `_ln`); ln n is then needed
    only to digits(n^exponent) + GUARD_DIGITS places.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    num = exponent.numerator
    den = getattr(exponent, "denominator", 1)
    if num < 0:
        raise ValueError("exponent must be nonnegative")
    approx_log = (num / den) * math.log(n) + (math.log(math.log(n))
                                              if times_log else 0.0)
    check_digit_cap(approx_log, digit_cap)
    power = n ** num
    root = power if den == 1 else nth_root_floor(power, den)
    exact = den == 1 or root ** den == power
    if not times_log:
        return root if exact else root + 1
    with mpmath.workdps(digits_of_exp(approx_log) + GUARD_DIGITS):
        ln_n = _ln(n, near, num / den)
        if exact:
            value = mpmath.mpf(root) * ln_n
        else:
            value = mpmath.exp(mpmath.mpf(num) / den * ln_n) * ln_n
        return int(mpmath.ceil(value))


def nlogn_ceil(n: int, near=None) -> int:
    """ceil(n * ln n) for an exact integer n of any size; ``near`` as in
    power_log_ceil."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if n <= 1 << 40:
        return math.ceil(n * math.log(n))
    # digits from the bit length: str(n) is quadratic in CPython
    with mpmath.workdps(digits_of_exp(n.bit_length() * LN2) + GUARD_DIGITS):
        return int(mpmath.ceil(mpmath.mpf(n) * _ln(n, near)))


def float_log(n: int) -> float:
    """Natural log of a positive int of any size, as a float."""
    return math.log(n)
