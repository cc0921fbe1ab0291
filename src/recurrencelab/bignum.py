"""Exact integer ceilings and floors of exponential-scale quantities.

Insertion positions grow like e^{i*phi(i)} and leave floating point range
long before they strain memory, so plan construction needs exact integers
built from log-space descriptions.  mpmath supplies the arbitrary-precision
exp/ln, and past the precision where mpmath's ln leaves its Taylor tables,
ln is Newton's method on exp (`_ln`).  Precision is chosen from the target
magnitude plus guard digits, so results are exact unless the true value
sits within ~10^-G of an integer boundary (G = guard digits), which we
accept as a working convention.

Desk-scale note: for values below ~10^15 the same helpers agree with direct
float arithmetic; they exist for the regime where floats cannot.
"""
from __future__ import annotations

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


def digits_of_exp(log_value: float) -> int:
    """Approximate decimal digit count of e**log_value."""
    return max(1, int(log_value / LOG10) + 1)


def check_digit_cap(log_value: float, digit_cap: int = DEFAULT_DIGIT_CAP) -> None:
    if digits_of_exp(log_value) > digit_cap:
        raise CapacityError(
            f"value of ~{digits_of_exp(log_value)} digits exceeds the "
            f"digit cap of {digit_cap}")


def exp_int(log_value, digit_cap: int = DEFAULT_DIGIT_CAP,
            *, rounding: str = "ceil") -> int:
    """Exact ceil/floor of e**log_value as a Python int.

    log_value is a float — or a sequence of floats whose exact sum is
    the exponent, summed at working precision so no accuracy is lost
    before exponentiation.  Floats carry ~1e-16 relative uncertainty to
    begin with; the construction is deterministic and self-consistent,
    which is what downstream equality checks rely on.
    """
    terms = (log_value,) if isinstance(log_value, float) or isinstance(
        log_value, int) else tuple(log_value)
    approx = math.fsum(terms)
    if approx < 0:
        return 1 if rounding == "ceil" else 0
    check_digit_cap(approx, digit_cap)
    with mpmath.workdps(digits_of_exp(approx) + GUARD_DIGITS):
        total = mpmath.fsum(mpmath.mpf(t) for t in terms)
        value = mpmath.exp(total)
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


def _ln(n: int):
    """ln n as an mpf, at least as precise as the working precision.

    Up to LOG_TAYLOR_PREC bits mpmath's own ln reads a cached Taylor table
    and is the faster route.  Past it mpmath switches to an AGM, which runs
    pure-Python square roots when gmpy is absent; there this is Newton's
    method on exp, y <- y - 1 + n*exp(-y), starting from the float
    math.log(n).  Each step doubles the correct digits, so each runs at
    about twice the precision of the step before; the last runs at the
    working precision plus 5 digits.
    """
    x = mpmath.mpf(n)   # rounded at the working precision, as ln(mpf(n)) was
    if mpmath.mp.prec + 20 <= LOG_TAYLOR_PREC:   # mpf_log's own switch
        return mpmath.ln(x)
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
                   digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """Exact ceil(n**exponent * ln(n)) (or of the bare power).

    The power n^(p/q) is anchored in integer arithmetic — n^p, and its
    exact q-th root when one exists — so integer-valued powers never pick
    up a spurious +1 from working-precision fuzz.  The ln factor is
    transcendental and rounds past the guard digits as usual.
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
        ln_n = _ln(n)
        if exact:
            value = mpmath.mpf(root) * ln_n
        else:
            value = mpmath.exp(mpmath.mpf(num) / den * ln_n) * ln_n
        return int(mpmath.ceil(value))


def nlogn_ceil(n: int) -> int:
    """ceil(n * ln n) for an exact integer n of any size."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if n <= 1 << 40:
        return math.ceil(n * math.log(n))
    digits = len(str(n)) + GUARD_DIGITS
    with mpmath.workdps(digits):
        return int(mpmath.ceil(mpmath.mpf(n) * _ln(n)))


def float_log(n: int) -> float:
    """Natural log of a positive int of any size, as a float."""
    return math.log(n)
