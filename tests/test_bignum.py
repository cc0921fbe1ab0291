import decimal
import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recurrencelab import (ExtReal, OscLogPhi, bignum, parse_phi,
                           plan_engine, plan_full_dimension)
from recurrencelab.bignum import (DECIMAL_STR_MIN_SHIFT, DEFAULT_DIGIT_CAP,
                                  LOG10, decimal_str, digits_of_exp,
                                  exp_ceil, exp_floor, exp_int, nlogn_ceil,
                                  nth_root_floor, power_log_ceil)
from recurrencelab.errors import CapacityError

TWO_63 = 1 << 63

# 600 bits past the point of a value's magnitude decide its ceiling and
# floor, and its rounding to 64 bits, unless it lies within 2^-500
# (relatively) of a grid value
REF_PREC = 600


def on_grid(v_mpf, up: bool) -> int:
    """mpmath's own ceiling (up) or floor of v rounded up (down) to 64
    bits: the least (greatest) M 2^s >= v (<= v), M < 2^64."""
    libmp = mpmath.libmp
    rnd = libmp.round_ceiling if up else libmp.round_floor
    return int(libmp.to_int(libmp.mpf_pos(v_mpf._mpf_, 64, rnd), rnd))


def mp_exp(terms):
    # e^X - 1 is about X, so a tiny X takes as many more bits as the exact
    # sum has fraction bits
    with mpmath.workprec(REF_PREC + bignum._dyadic_sum(tuple(terms))[1]):
        return mpmath.exp(mpmath.fsum(mpmath.mpf(t) for t in terms))


def mp_power_log(n, exponent):
    A = Fraction(exponent)
    with mpmath.workprec(REF_PREC):
        x = mpmath.mpf(n)
        return mpmath.root(x ** A.numerator, A.denominator) * mpmath.ln(x)


def assert_contract(got, v, up: bool):
    """got is the least (up) or greatest grid value on that side of v: the
    exact ceiling or floor below 2^63; above it M 2^s with M < 2^64 and
    the next grid value the other way past v; and mpmath's own rounding
    either way."""
    assert type(got) is int
    if v < TWO_63:
        rnd = mpmath.libmp.round_ceiling if up else mpmath.libmp.round_floor
        assert got == int(mpmath.libmp.to_int(v._mpf_, rnd))
    else:
        s = max(0, got.bit_length() - 64)
        assert got >> s << s == got and got >> s < 1 << 64
        # the grid spacing on the side of got that v lies on
        if up:
            step = 1 << max(0, (got - 1).bit_length() - 64)
            assert got - step < v <= got
        else:
            step = 1 << max(0, (got + 1).bit_length() - 64)
            assert got <= v < got + step
    assert got == on_grid(v, up)


def assert_exp_contract(terms):
    terms = tuple(terms)
    v = mp_exp(terms)
    assert_contract(exp_int(terms, rounding="ceil"), v, True)
    assert_contract(exp_int(terms, rounding="floor"), v, False)


def test_exp_ceil_small_values():
    for x in [0.0, 0.5, 1.0, 2.0, 10.0, 43.5, 100.0, 700.0, 1000.0]:
        assert exp_ceil(x) == on_grid(mp_exp((x,)), True), x


def test_exp_floor_small_values():
    assert exp_floor(0.0) == exp_ceil(0.0) == 1   # e^0 is exactly 1
    for x in [0.5, 1.0, 2.0, 10.0]:
        # e**x is never integral, and below 2^63 the grid holds every integer
        assert exp_floor(x) == exp_ceil(x) - 1
    for x in [100.0, 700.0]:
        assert exp_floor(x) == on_grid(mp_exp((x,)), False)


def test_exp_int_negative_exponent():
    assert exp_ceil(-3.0) == 1
    assert exp_floor(-3.0) == 0


def test_exp_int_term_lists():
    # summing as floats first would lose the small term entirely
    for terms in ([1000.0, 1e-14, 2.5], [30.0, 1e-14, 2.5]):
        assert_exp_contract(terms)
    assert exp_ceil([30.0, 1e-14, 2.5]) != exp_ceil(32.5)


def test_exp_ceil_beyond_float_range():
    # e^1000 overflows float arithmetic but not the big-int path
    v = exp_ceil(1000.0)
    assert len(str(v)) == 435
    assert math.log(v) == pytest.approx(1000.0, abs=1e-9)
    s = v.bit_length() - 64
    assert v >> s << s == v


def test_digit_cap_enforced():
    with pytest.raises(CapacityError):
        exp_ceil(1e9, digit_cap=DEFAULT_DIGIT_CAP)
    # raising the cap unlocks the same exponent
    assert exp_ceil(60000.0, digit_cap=30_000) > 0
    with pytest.raises(CapacityError, match="digit cap of 100$"):
        power_log_ceil(10 ** 60, 4, digit_cap=100)


def test_power_log_ceil_matches_exact_rational():
    # n^A for integer A times log n, checked against exact arithmetic
    for n, A in [(4, Fraction(2)), (55, Fraction(2)), (10, Fraction(3))]:
        with mpmath.workdps(60):
            expected = int(mpmath.ceil(mpmath.mpf(n ** A.numerator)
                                       * mpmath.log(n)))
        assert power_log_ceil(n, A) == expected


def test_power_log_ceil_fractional_exponent():
    # 16^(5/4) = 32 exactly; times ln 16
    with mpmath.workdps(60):
        expected = int(mpmath.ceil(32 * mpmath.log(16)))
    assert power_log_ceil(16, Fraction(5, 4)) == expected


def test_nlogn_ceil():
    for n in [3, 10, 1000, 2 ** 40, 2 ** 60]:
        assert_contract(nlogn_ceil(n), mp_power_log(n, 1), True)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
def test_nth_root_floor_around_exact_powers(k):
    # roots of a few bits up to past the 256 bits where the start comes
    # from the root of the top half
    rng = random.Random(k)
    roots = [1, 2, 3, 2 ** 255 - 1, 2 ** 256, 2 ** 600 + 1]
    roots += [rng.getrandbits(b) | 1 << (b - 1) for b in (100, 520, 3000)]
    for r in roots:
        for v in (r ** k - 1, r ** k, r ** k + 1, r ** k + rng.randrange(r)):
            got = nth_root_floor(v, k)
            assert got ** k <= v < (got + 1) ** k, (k, r, v - r ** k)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9), st.integers(1, 10 ** 5),
       st.sampled_from(["random", "below", "power", "above"]),
       st.integers(0, 2 ** 32))
def test_nth_root_floor_brackets_the_root(k, bits, shape, seed):
    # random values of up to 10^5 bits, and values next to a k-th power:
    # nested square roots at k = 2, 4, 8, Newton elsewhere
    rng = random.Random(seed)
    if shape == "random":
        v = rng.getrandbits(bits)
    else:
        r = rng.getrandbits(max(bits // k, 1)) + 1
        v = r ** k + {"below": -1, "power": 0, "above": 1}[shape]
    x = nth_root_floor(v, k)
    assert x ** k <= v < (x + 1) ** k, (k, v.bit_length(), shape)


def test_nth_root_floor_below_two_to_the_k_is_one():
    # a literal like 2^0.000001 asks for a millionth root: 1, found
    # without forming a power of the Newton start
    for k in (3, 64, 10 ** 6):
        assert nth_root_floor(2, k) == nth_root_floor(2 ** k - 1, k) == 1
    assert nth_root_floor(2 ** 64, 64) == 2


# ------------------------------------------------- n^A ln n against mpmath ---

def _power_log_inputs():
    """Integers from 2 to thousands of digits: powers of ten, random ones,
    and positions exp_ceil builds from squares and from fractional
    exponents."""
    rng = random.Random(1510)
    ns = [2, 3] + [10 ** k for k in (1, 2, 5, 12, 15, 40, 300, 2000)]
    ns += [rng.randrange(10 ** (d - 1), 10 ** d)
           for d in (3, 17, 60, 400, 1500, 6000)]
    ns += [exp_ceil(float(i * i)) for i in range(1, 121, 7)]
    ns += [exp_ceil(x) for x in (900.0, 1728.5, 2345.678, 3600.0, 4096.25,
                                 9000.125, 14400.0)]
    return ns


POWER_LOG_INPUTS = _power_log_inputs()


@pytest.mark.parametrize("exponent", [1, 2, Fraction(3, 2), Fraction(5, 4),
                                      Fraction(1, 2)],
                         ids=["1", "2", "3/2", "5/4", "1/2"])
def test_power_log_ceil_matches_mpmath_ln(exponent):
    for n in POWER_LOG_INPUTS:
        if digits_of_exp(float(exponent) * math.log(n)) > DEFAULT_DIGIT_CAP - 100:
            continue
        assert_contract(power_log_ceil(n, exponent),
                        mp_power_log(n, exponent), True)


def test_nlogn_ceil_matches_mpmath_ln():
    for n in POWER_LOG_INPUTS:
        assert_contract(nlogn_ceil(n), mp_power_log(n, 1), True)


def mp_hinted_power_log(n, exponent, x):
    """n^A ln n with ln n taken as x + ln(n e^-x), from a hint x at ln n:
    the exponent that built n, or any float near ln n."""
    A = Fraction(exponent)
    with mpmath.workprec(REF_PREC):
        X, v = mpmath.mpf(x), mpmath.mpf(n)
        ln_n = X + mpmath.ln(v / mpmath.exp(X))
        return mpmath.root(v ** A.numerator, A.denominator) * ln_n


def _hinted_inputs(exponent):
    """(n, x): POWER_LOG_INPUTS with their float log as the hint, right or
    wrong, and positions exp_ceil(x) with the exponent x that built them.
    Positions whose n^exponent ln n would near the digit cap are left
    out."""
    xs = [float(i * i) for i in range(1, 121, 7)] + [
        900.0, 1728.5, 2345.678, 3600.0, 4096.25, 9000.125, 14400.0]
    pairs = [(n, math.log(n)) for n in POWER_LOG_INPUTS]
    pairs += [(exp_ceil(x), x) for x in xs]
    return [(n, x) for n, x in pairs
            if digits_of_exp(float(exponent) * math.log(n))
            <= DEFAULT_DIGIT_CAP - 100]


@pytest.mark.parametrize("exponent", [1, 2, Fraction(3, 2), Fraction(5, 4),
                                      Fraction(1, 2)],
                         ids=["1", "2", "3/2", "5/4", "1/2"])
def test_power_log_ceil_is_the_same_with_a_hint(exponent):
    # the reference ln n taken from a hint instead of from n alone rounds
    # to the same grid value
    for n, x in _hinted_inputs(exponent):
        assert_contract(power_log_ceil(n, exponent),
                        mp_hinted_power_log(n, exponent, x), True)


def test_nlogn_ceil_is_the_same_with_a_hint():
    for n, x in _hinted_inputs(1):
        got = nlogn_ceil(n)
        assert got == power_log_ceil(n, 1), n
        assert_contract(got, mp_hinted_power_log(n, 1, x), True)


def _big_ints(max_bits):
    """Integers of 64 up to max_bits bits, most of them random."""
    return st.builds(lambda bits, seed: random.Random(seed).getrandbits(bits)
                     | 1 << (bits - 1),
                     st.integers(64, max_bits), st.integers(0, 2 ** 32))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, Fraction(3, 2), Fraction(5, 4), Fraction(1, 2)]),
       st.integers(2, TWO_63) | _big_ints(30_000))
@example(1, 2)
@example(2, 3)
@example(Fraction(1, 2), 10 ** 6)
@example(1, 419172408968)            # n ln n just past an integer
@example(1, TWO_63 // 44)            # n ln n next to 2^63
@example(Fraction(5, 4), 2 ** 64 - 1)
def test_power_log_ceil_keeps_the_contract(exponent, n):
    if digits_of_exp(float(exponent) * math.log(n)) > DEFAULT_DIGIT_CAP - 100:
        n = n >> (n.bit_length() // 2)
    v = mp_power_log(n, exponent)
    assert_contract(power_log_ceil(n, exponent), v, True)
    if exponent == 1:
        assert nlogn_ceil(n) == power_log_ceil(n, 1)


# ------------------------------------------------------ e^X against mpmath ---

X_CAP = DEFAULT_DIGIT_CAP * LOG10 - 40   # e^X within the default digit cap
LN_2_63 = 63 * math.log(2)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, X_CAP) | st.floats(0.0, 50.0),
       st.lists(st.floats(-16.0, 16.0), max_size=2))
@example(2345.678, [1e-300, 0.25])      # an exact sum of over 1 000 bits
@example(X_CAP, [0.5])
@example(3.199741958468793e-16, [-5.0])   # an exact sum of 110 bits
def test_exp_kernel_is_good_to_an_ulp(head, rest):
    # exp_ceil and exp_floor are the grid values either side of e^X: the
    # ceiling and floor below 2^63, one unit of a 64-bit mantissa apart
    # above it
    assert_exp_contract((head, *rest))


# exponents with a shape of their own: whole, a few fraction bits or many,
# sums of terms, next to 2^63 and 2^64, and the exponents of positions
# that the plans build
CONTRACT_EXPONENTS = {
    "integer": (3000.0,),
    "N+2^-40": (3000.0, 2.0 ** -40),
    "N+1-2^-30": (3001.0 - 2.0 ** -30,),
    "1+2^-40": (1.0, 2.0 ** -40),
    "below-1": (0.75,),
    "negative": (12.5, -30.0),
    "N+1/2": (3000.5,),
    "tiny": (1e-38,),
    "next-to-2^63-below": (math.nextafter(LN_2_63, 0),),
    "next-to-2^63": (LN_2_63,),
    "next-to-2^64": (64 * math.log(2),),
    "43.5": (43.5,),
    "44": (44.0,),
    "100": (100.0,),
    "400": (400.0,),
    "700": (700.0,),
    "2345": (2345.0,),
    "9000": (9000.0,),
    "12001": (12001.0,),
    "31999": (31999.0,),
    "46000.5": (46000.5,),
    "26779.306": (26779.306,),
    "26779.306640625": (26779.306640625,),
    "12000.5": (12000.5,),
    "12000+0.1": (12000.0, 0.1),
    "5.3": (5.3,),
    "900": (900.0,),
    "1728.5": (1728.5,),
    "2000": (2000.0,),
    "2000.25": (2000.25,),
    "2345.678": (2345.678,),
    "2000+1e-13+1/4": (2000.0, 1e-13, 0.25),
    "3000+1e-13+1/4": (3000.0, 1e-13, 0.25),
    "3600": (3600.0,),
    "4096.25": (4096.25,),
    "9000.125": (9000.125,),
    "14400": (14400.0,),
    "2345.678+1e-9": (2345.678 + 1e-9,),
    "2345.678+ulp": (2345.678 + math.ulp(2345.678),),
    "2345.678+1e-30": (2345.678, 0.0, 1e-30),
    "2345.678+1e-60": (2345.678, 0.0, 1e-60),
}


@pytest.mark.parametrize("terms", CONTRACT_EXPONENTS.values(),
                         ids=CONTRACT_EXPONENTS.keys())
def test_exp_ceil_and_floor_keep_the_contract(terms):
    assert_exp_contract(terms)


# the cut-off between exact integers and 64-bit mantissas: below 2^63
# exp_ceil and exp_floor are the integers either side of e^X, from 2^63 on
# the grid values either side, one unit of a 64-bit mantissa apart.  A
# whole term of 64 puts each exponent shape past it
CUT_OFF_SIDES = {"below": (), "from": (64.0,)}


@pytest.mark.parametrize("side", CUT_OFF_SIDES.values(),
                         ids=CUT_OFF_SIDES.keys())
@pytest.mark.parametrize("terms", [(40.0,), (40.0, 2.0 ** -40),
                                   (41.0 - 2.0 ** -30,), (1.0, 2.0 ** -40),
                                   (0.75,), (12.5, -30.0), (40.5,)],
                         ids=["integer", "N+2^-40", "N+1-2^-30", "1+2^-40",
                              "below-1", "negative", "N+1/2"])
def test_exp_kernel_on_both_sides_of_the_cut_off(terms, side):
    terms = (*terms, *side)
    assert_exp_contract(terms)
    ceil, floor = exp_ceil(terms), exp_floor(terms)
    if side:
        assert floor >= TWO_63
        assert ceil == floor + (1 << (floor.bit_length() - 64))
    elif math.fsum(terms) > 0:
        assert floor + 1 == ceil < TWO_63
    else:
        assert (ceil, floor) == (1, 0)


def double_double_log(v: int) -> tuple:
    """ln v as two floats whose exact sum is within about 2^-106 of it
    (relatively), so e to that sum lies that close to v."""
    with mpmath.workprec(400):
        ln_v = mpmath.ln(v)
        head = float(ln_v)
        return head, float(ln_v - head)


@pytest.mark.parametrize("v", [10 ** 12 + 39, (1 << 62) + 12345,
                               (1 << 63) - 25, ((1 << 64) - 59) << 100,
                               (1 << 63) << 2000, 3 ** 40 << 40000],
                         ids=["10^12+39", "2^62+12345", "2^63-25",
                              "(2^64-59)2^100", "2^2063", "3^40 2^40000"])
def test_exponents_next_to_a_grid_value_round_to_its_side(v):
    # e^X within about 2^-100 of the grid value v: a bracket of 2^-128 is
    # the first to tell which side of v it lies on, and the ceiling and
    # floor are v and its neighbour on the other side
    terms = double_double_log(v)
    assert_exp_contract(terms)
    assert v in (exp_ceil(terms), exp_floor(terms))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, int(X_CAP)), st.integers(1, 45), st.integers(0, 1 << 45))
@example(46000, 1, 1)
@example(46000, 20, 0xABCDE)
@example(46000, 21, 0xABCDE)
@example(27286, 38, 0x1BA5E353F7)
@example(3000, 40, 0x5A5A5A5A5A)
@example(30, 40, 0x5A5A5A5A5A)
def test_fractional_exponents_are_good_to_an_ulp(n, bits, r):
    # X = n + r/2^bits with exactly `bits` fraction bits
    assert_exp_contract((float(n), math.ldexp((r | 1) % (1 << bits), -bits)))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, int(X_CAP)))
@example(1 << 15)
@example((1 << 15) - 1)
@example(int(X_CAP))
def test_integer_exponents_are_mpmaths_exp_bit_for_bit(n):
    # mpmath's e^n rounded up and down to 64 bits, and its ceiling and
    # floor, are exp_ceil's and exp_floor's integers
    v = mp_exp((n,))
    assert exp_ceil(float(n)) == on_grid(v, True)
    assert exp_floor(float(n)) == on_grid(v, False)


def test_exp_kernel_refuses_a_non_binary_fraction():
    with pytest.raises(TypeError):
        exp_ceil((2000.0, Fraction(1, 3)))


@pytest.mark.parametrize("exponent", [1, Fraction(5, 4), Fraction(3, 2), 2, 3],
                         ids=["1", "5/4", "3/2", "2", "3"])
def test_square_ladder_rungs_and_their_ells_keep_the_contract(exponent):
    # the square ladder's rungs n = exp_ceil(k^2) and their ells
    # power_log_ceil(n, A), for k up to each digit cap and past it:
    # e^(k^2) of 20 000 digits is k ~ 215
    raised = ells = 0
    for digit_cap in (DEFAULT_DIGIT_CAP, 3000, 700):
        rng = random.Random(f"squares {digit_cap}")
        top = math.isqrt(int(digit_cap * LOG10)) + 3
        ks = {rng.randrange(1, top + 1) for _ in range(12)}
        ks |= set(range(top - 3, top + 2))
        for k in sorted(ks):
            x = float(k * k)
            if digits_of_exp(x) > digit_cap:
                with pytest.raises(CapacityError,
                                   match=f"digit cap of {digit_cap}$"):
                    exp_ceil(x, digit_cap)
                raised += 1
                continue
            n = exp_ceil(x, digit_cap)
            assert_contract(n, mp_exp((x,)), True)
            if n < 2:
                continue
            v = mp_power_log(n, exponent)
            if digits_of_exp(float(exponent) * math.log(n)
                             + math.log(math.log(n))) > digit_cap:
                with pytest.raises(CapacityError):
                    power_log_ceil(n, exponent, digit_cap=digit_cap)
                continue
            assert_contract(power_log_ceil(n, exponent, digit_cap=digit_cap),
                            v, True)
            ells += 1
    assert raised and ells


@pytest.mark.parametrize("near", [2000.0, 2345.678, (2000.0, 1e-13, 0.25)],
                         ids=["integer", "fractional", "terms"])
@pytest.mark.parametrize("digits", [760, 1500, 3000])
def test_power_log_ceil_of_a_position_built_from_its_exponent(near, digits):
    # n = exp_ceil(X), with A putting n^A ln n at about `digits` digits
    n = exp_ceil(near)
    A = Fraction(digits, len(str(n))).limit_denominator(8)
    assert_contract(power_log_ceil(n, A), mp_power_log(n, A), True)


@pytest.mark.parametrize("digits", [20, 740, 760, 2000, 5000])
def test_nlogn_ceil_keeps_the_contract_at_every_size(digits):
    rng = random.Random(digits)
    for n in (2, 3, 10 ** 9, rng.randrange(10 ** (digits - 1), 10 ** digits)):
        assert_contract(nlogn_ceil(n), mp_power_log(n, 1), True)


def test_an_undecided_rounding_retries_at_more_bits():
    # v = (K + 2^-200) 2^70 lies so close above the grid value K 2^70 that
    # a bracket of relative width 2^-128 or 2^-256 holds both; the routine
    # doubles its precision until the bracket falls on one side
    K = (1 << 63) + 12345

    def tracked(asked):
        def value(prec):
            asked.append(prec)
            return mpmath.libmp.from_man_exp((K << 200) + 1, 70 - 200, prec,
                                             mpmath.libmp.round_nearest)
        return value

    for up, want in ((True, (K + 1) << 70), (False, K << 70)):
        asked = []
        assert bignum._settle(tracked(asked), up) == want
        assert asked == [128, 256, 512]
    # a value far from the grid is decided at the first precision
    asked = []
    exp_ceil_value = bignum._settle(
        lambda prec: asked.append(prec) or mpmath.libmp.mpf_exp(
            mpmath.libmp.from_int(9000), prec + 16, mpmath.libmp.round_nearest),
        True)
    assert asked == [128] and exp_ceil_value == exp_ceil(9000.0)


# ------------------------------------------------ plans against mpmath ---

def _plan(spec, alpha, beta, count):
    if spec.startswith("osc "):
        phi = OscLogPhi(*spec.split()[1:])
    else:
        phi = parse_phi(spec)
    plan = plan_full_dimension(phi, ExtReal(alpha), ExtReal(beta), count=count)
    return plan.to_json_dict()


def mpmath_exp_int(log_value, digit_cap=DEFAULT_DIGIT_CAP, *, rounding="ceil"):
    """exp_int as mpmath alone computes it: the reference."""
    terms = bignum._terms(log_value)
    x = math.fsum(terms)
    if x <= 0:
        return 1 if x == 0 or rounding == "ceil" else 0
    bignum.check_digit_cap(x, digit_cap)
    return on_grid(mp_exp(terms), rounding == "ceil")


# requests whose positions reach every case that takes e^X (i to vi), and
# two whose ladders the digit cap cuts short
EXP_PLANS = [("log(n)", "inf", "inf", 30), ("log(n)", "1", "inf", 30),
             ("n^0.5", "0", "2", 120), ("log(n)", "1", "2", 12),
             ("osc 4/5 6/5", "5/6", "5/4", 120), ("osc 1/2 2", "2", "5/2", 120),
             ("log(n)^1.5", "1", "2", 30), ("log(n)", "1", "3", 12),
             ("log(n)", "1", "2", 30)]


def test_plans_are_unchanged_with_mpmaths_own_exp(monkeypatch):
    calls, real = [], bignum.exp_int
    monkeypatch.setattr(bignum, "exp_int",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    # every request plans: none of them raises
    plans = [_plan(*r) for r in EXP_PLANS]
    assert calls
    monkeypatch.setattr(bignum, "exp_int", mpmath_exp_int)
    assert [_plan(*r) for r in EXP_PLANS] == plans


# the two count-120 case-v ladders, the heaviest users of integer e^N
LADDER_PLANS = [("log(n)", "2", "2", 120), ("osc 4/5 6/5", "5/6", "5/4", 120)]


def test_ladder_plans_are_unchanged_with_mpmaths_own_exp(monkeypatch):
    plans = [_plan(*r) for r in LADDER_PLANS]
    monkeypatch.setattr(bignum, "exp_int", mpmath_exp_int)
    assert [_plan(*r) for r in LADDER_PLANS] == plans


# case-v requests on the geometric ladder (C > 1) with A > 1: log(n) at
# alpha 2, beta 3 has A = 2, C = 3/2, and at alpha 3, beta 4 A = 3, C = 4/3
GEOMETRIC_PLANS = [("log(n)", "2", "3", 24), ("log(n)", "3", "4", 24)]


def test_geometric_ladder_plans_are_unchanged_with_mpmaths_own_exp(
        monkeypatch):
    ladders, real = [], plan_engine._geometric_rungs
    monkeypatch.setattr(plan_engine, "_geometric_rungs",
                        lambda *a: ladders.append(a[1]) or real(*a))
    shared = [_plan(*r) for r in GEOMETRIC_PLANS]
    assert ladders == [Fraction(3, 2), Fraction(4, 3)]
    monkeypatch.setattr(bignum, "exp_int", mpmath_exp_int)
    assert [_plan(*r) for r in GEOMETRIC_PLANS] == shared


@pytest.fixture
def kernel_runs(monkeypatch):
    """The exponent of every e^X a test takes."""
    runs, real = [], bignum.exp_int

    def spy(log_value, *args, **kwargs):
        runs.append(bignum._terms(log_value))
        return real(log_value, *args, **kwargs)

    monkeypatch.setattr(bignum, "exp_int", spy)
    return runs


@pytest.mark.parametrize("plan_request", [
    ("log(n)", "2", "2", 120), ("osc 4/5 6/5", "5/6", "5/4", 120),
    ("log(n)", "2", "3", 24)],
    ids=["log-2-2", "osc-5/6-5/4", "log-2-3"])
def test_case_v_ladders_compute_each_exponent_once(kernel_runs, plan_request):
    _plan(*plan_request)
    assert kernel_runs and len(kernel_runs) == len(set(kernel_runs))


# ------------------------------------------- mpmath's global context ---

def _kernel_integers():
    """exp_int, power_log_ceil and nlogn_ceil on both sides of 2^63."""
    out = []
    for x in (5.3, 43.0, 700.0, 2000.25, 9000.0, 12000.5,
              (3000.0, 1e-13, 0.25)):
        n = exp_ceil(x)
        out += [n, exp_floor(x), nlogn_ceil(n)]
        out += [power_log_ceil(n, exponent)
                for exponent in (1, 2, Fraction(5, 4))]
    return out


@pytest.mark.parametrize("prec", [17, 3000])
def test_the_kernel_neither_reads_nor_changes_mpmaths_precision(prec):
    want = _kernel_integers()
    plans = [_plan(*r) for r in EXP_PLANS]
    with mpmath.workprec(prec):
        assert _kernel_integers() == want
        assert [_plan(*r) for r in EXP_PLANS] == plans
        assert mpmath.mp.prec == prec
        # a plan that raises
        with pytest.raises(CapacityError):
            plan_full_dimension(parse_phi("log(n)"), ExtReal(2), ExtReal(2),
                                count=40, digit_cap=4)
        with pytest.raises(CapacityError):
            exp_ceil(1e9)
        assert mpmath.mp.prec == prec


# case v's two count-60 ladders
THREAD_PLANS = [("log(n)", "2", "2", 60), ("osc 4/5 6/5", "5/6", "5/4", 60)]


def test_threads_plan_as_one_thread_does(monkeypatch):
    # the e^X of each plan, recorded into the list its thread names
    plan_runs, real = {}, bignum.exp_int

    def spy(log_value, *args, **kwargs):
        plan_runs[threading.get_ident()].append(bignum._terms(log_value))
        return real(log_value, *args, **kwargs)

    monkeypatch.setattr(bignum, "exp_int", spy)

    def plan_recording(i):
        runs = plan_runs[threading.get_ident()] = []
        return _plan(*THREAD_PLANS[i]), runs

    serial, serial_runs = zip(*map(plan_recording, range(len(THREAD_PLANS))))
    for runs in serial_runs:
        assert len(set(runs)) == len(runs) and len(runs) > 1
    order = [[k % 2, 1 - k % 2] for k in range(4)]
    got = [None] * 4
    got_runs = [None] * 4

    def plan_both(k):
        got[k], got_runs[k] = zip(*map(plan_recording, order[k]))

    threads = [threading.Thread(target=plan_both, args=(k,))
               for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [tuple(serial[i] for i in ks) for ks in order]
    assert got_runs == [tuple(serial_runs[i] for i in ks) for ks in order]


# ------------------------------------------------------ fresh processes ---

# the modules whose bodies a word-only process runs
WORD_SIDE = ["__init__.py", "bignum.py", "cli.py", "errors.py",
             "rate_dim_analysis.py", "return_time.py", "shift_core.py"]


def _package_env(**extra):
    """The environment of a fresh interpreter that imports the package this
    suite imports, wherever it is."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(bignum.__file__))), **extra)


def test_word_only_work_does_not_load_mpmath():
    # the word pipeline and a word command take no exponential; the first
    # e^X imports mpmath.  Nor do they run the planning layer: no module
    # body of it is executed, though every module of the package is in
    # sys.modules
    code = """if True:
        import contextlib, io, os, sys
        ran = []
        sys.addaudithook(lambda event, args: event == "exec" and ran.append(
            getattr(args[0], "co_filename", None)))
        import recurrencelab, recurrencelab.cli
        from recurrencelab import (Word, bignum, cli, rate_trajectory,
                                   recurrence_witnesses, return_time_prime,
                                   return_times_all)
        symbols = [(i * i + i // 7) % 3 for i in range(3000)]
        word = Word.from_iterable(symbols, 3)
        return_times_all(word)
        rate_trajectory(word)
        recurrence_witnesses(word, 0.5, 0.1)
        for n in range(1, 65):
            return_time_prime(word, n)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["return-times", "--word", "0100101001001",
                             "--m", "2"])
        print(code, "mpmath" in sys.modules)
        here = os.path.dirname(recurrencelab.__file__)
        print(sorted(os.path.basename(f) for f in ran
                     if f and os.path.dirname(f) == here))
        names = {f[:-3] for f in os.listdir(here)
                 if f.endswith(".py") and f != "__init__.py"}
        print(sorted(n for n in names
                     if f"recurrencelab.{n}" not in sys.modules))
        n = bignum.exp_ceil(26779.306640625)
        print("mpmath" in sys.modules, type(n).__name__)
        print(hex(n))
        """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=_package_env()).stdout.splitlines()
    assert out[:3] == ["0 False", repr(sorted(WORD_SIDE)), "[]"]
    assert out[3] == "True int"
    assert int(out[4], 16) == on_grid(mp_exp((26779.306640625,)), True)


def test_the_package_imports_without_the_int_str_guard():
    # sys.get_int_max_str_digits and its setter came with 3.10.7 and 3.11
    code = ("import sys; del sys.get_int_max_str_digits; "
            "del sys.set_int_max_str_digits; "
            "from recurrencelab import bignum; print(bignum.exp_ceil(2.0))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_package_env())
    assert (out.returncode, out.stdout) == (0, "8\n"), out.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int<->str guard before 3.10.7")
@pytest.mark.parametrize("limit, after", [("0", "0"), ("5000", "2000000"),
                                          ("3000000", "3000000")])
def test_importing_only_raises_the_int_str_guard(limit, after):
    # 0 is no limit at all, which the package leaves alone
    code = ("import sys, recurrencelab; "
            "print(sys.get_int_max_str_digits())")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=_package_env(PYTHONINTMAXSTRDIGITS=limit))
    assert out.stdout.split() == [after]


# ------------------------------------------------------ n ln n below 2^40 ---

def mp_nlogn_ceil(n):
    with mpmath.workdps(60):
        return int(mpmath.ceil(n * mpmath.log(n)))


# float n*log(n) lies just under an integer that n ln n just passes
NLOGN_FLOAT_SHORT = [419172408968, 940012962406, 555856193266, 880978201212]


@pytest.mark.parametrize("n", NLOGN_FLOAT_SHORT)
def test_nlogn_ceil_is_not_one_short_near_an_integer(n):
    want = mp_nlogn_ceil(n)
    assert math.ceil(n * math.log(n)) == want - 1
    assert nlogn_ceil(n) == want


def test_nlogn_ceil_matches_mpmath_up_to_2_to_the_40():
    rng = random.Random(40)
    ns = [rng.randrange(1 << 20, (1 << 40) + 1) for _ in range(4000)]
    ns += [rng.randrange(2, 1 << 20) for _ in range(1000)]
    short = [n for n in ns if math.ceil(n * math.log(n)) != mp_nlogn_ceil(n)]
    assert short   # the sweep reaches n where float n*log(n) is one short
    assert [n for n in ns if nlogn_ceil(n) != mp_nlogn_ceil(n)] == []


@pytest.mark.parametrize("rounding", ["Ceil", "up", "", None])
def test_an_unknown_rounding_is_a_value_error(rounding):
    # e^10.5 is not an integer, so its ceiling is one more than its floor
    # and a misspelt rounding that fell back to either would show
    assert exp_int(10.5, rounding="ceil") == 36316
    assert exp_int(10.5, rounding="floor") == 36315
    with pytest.raises(ValueError, match="rounding"):
        exp_int(10.5, rounding=rounding)


@pytest.mark.parametrize("exponent", [1.5, 2.0, "3/2", mpmath.mpf(1.5)])
def test_a_non_rational_exponent_is_a_type_error(exponent):
    with pytest.raises(TypeError, match="exponent"):
        power_log_ceil(10 ** 6, exponent)
    # an int and a Fraction are taken as before
    assert power_log_ceil(10 ** 6, Fraction(3, 2)) == 13815510558
    assert power_log_ceil(10 ** 6, 1) == nlogn_ceil(10 ** 6) == 13815511


@pytest.mark.parametrize("cap", [1, 2, 3, 15, 16, 17, 20, 100, 307, 308,
                                 309, 1000, DEFAULT_DIGIT_CAP])
def test_an_integer_is_held_to_the_cap_by_its_exact_digits(cap):
    # more than cap digits exactly when n >= 10^cap: at 10^k - 1, 10^k and
    # 10^k + 1 around the cap, and at the powers of two beside 10^cap
    near = [10 ** k + d for k in range(max(0, cap - 2), cap + 3)
            for d in (-1, 0, 1)]
    bits = (10 ** cap).bit_length()
    near += [2 ** b + d for b in range(bits - 3, bits + 3) for d in (-1, 0)]
    for n in near:
        if n < 1:
            continue
        if len(str(n)) > cap:
            with pytest.raises(CapacityError,
                               match=f"digits exceeds the digit cap of {cap}$"):
                bignum.check_int_digit_cap(n, cap)
        else:
            bignum.check_int_digit_cap(n, cap)


def test_a_refusal_names_the_digit_count():
    # exact next to the cap, estimated from the log far past it
    with pytest.raises(CapacityError, match="^value of 4 digits exceeds the "
                                            "digit cap of 3$"):
        bignum.check_int_digit_cap(10 ** 3, 3)
    with pytest.raises(CapacityError, match=r"^value of ~\d+ digits exceeds "
                                            "the digit cap of 3$"):
        bignum.check_int_digit_cap(10 ** 1000, 3)


def _held_to_its_digits(compute) -> None:
    """compute(digit_cap) returns the value at a cap of its own digit
    count and raises CapacityError one digit below it."""
    v = compute(10 ** 6)
    digits = len(str(v))
    assert compute(digits) == v
    with pytest.raises(CapacityError, match=f"digit cap of {digits - 1}$"):
        compute(digits - 1)


def _three_doubles_each_side(x: float) -> list[float]:
    xs = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(3):
            y = math.nextafter(y, toward)
            xs.append(y)
    return xs


@pytest.mark.parametrize("rounding", ["ceil", "floor"])
def test_exp_int_is_held_to_the_cap_by_its_exact_digits(rounding):
    # e^X next to 10^k, where the float exponent puts it a digit either
    # side: X = k ln 10 and the three doubles on each side of it
    for k in range(1, 400):
        for x in _three_doubles_each_side(k * LOG10):
            _held_to_its_digits(
                lambda cap: exp_int(x, cap, rounding=rounding))


@pytest.mark.parametrize("exponent", [1, Fraction(3, 2), 2],
                         ids=["1", "3/2", "2"])
def test_power_log_ceil_is_held_to_the_cap_by_its_exact_digits(exponent):
    # n^A ln n next to 10^d: the least n whose value reaches 10^d, found
    # by bisection on the uncapped value, the two n before it and the one
    # after it
    def value(n):
        return power_log_ceil(n, exponent, digit_cap=10 ** 6)

    for d in range(3, 300, 11):
        lo, hi = 2, 4
        while value(hi) < 10 ** d:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if value(mid) < 10 ** d else (lo, mid)
        for n in range(max(2, hi - 2), hi + 2):
            _held_to_its_digits(
                lambda cap: power_log_ceil(n, exponent, digit_cap=cap))


# ------------------------------------------------------ decimal digits ---

def _assert_is_str(n):
    """decimal_str(n) == str(n) with the thread's decimal context at
    prec=3, Inexact and Rounded trapped, so that a conversion that used it
    would raise or round; the context must come back exactly as it was."""
    saved = decimal.getcontext()
    tight = decimal.Context(prec=3, traps=[decimal.Inexact, decimal.Rounded])
    decimal.setcontext(tight)
    try:
        assert decimal_str(n) == str(n)
        assert decimal.getcontext() is tight
        assert tight.prec == 3 and not any(tight.flags.values())
        assert tight.traps[decimal.Inexact] and tight.traps[decimal.Rounded]
    finally:
        decimal.setcontext(saved)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, (1 << 64) - 1), st.integers(0, 70_000))
@example(1, DECIMAL_STR_MIN_SHIFT - 1)
@example(1, DECIMAL_STR_MIN_SHIFT)
@example((1 << 64) - 1, DECIMAL_STR_MIN_SHIFT)
@example((1 << 63) + 1, 38_600)
def test_decimal_str_is_str_on_the_grid(mantissa, shift):
    n = mantissa << shift
    _assert_is_str(n)


@pytest.mark.parametrize("n", [
    0, 1, 2,
    *(1 << k for k in (63, 64, DECIMAL_STR_MIN_SHIFT - 1,
                       DECIMAL_STR_MIN_SHIFT, 20_000, 70_000)),
    *(10 ** k for k in (1, 19, 20, 1233, 1234, 5000, 21_000)),
    *(10 ** k - 1 for k in (1, 19, 20, 1234, 5000, 21_000)),
    # odd parts wider than 64 bits, below and above the cut-off
    (3 ** 200) << 100, (3 ** 200) << DECIMAL_STR_MIN_SHIFT,
    ((1 << 500) - 1) << 9000, (7 ** 3000) << 60_000,
], ids=lambda n: f"{n.bit_length()}bits-{max(0, (n & -n).bit_length() - 1)}zeros")
def test_decimal_str_is_str_at_the_edges(n):
    _assert_is_str(n)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int<->str guard before 3.10.7")
def test_decimal_str_past_the_cut_off_takes_no_int_to_str():
    # under the guard's least limit, str() refuses these 1 238 digits;
    # decimal_str never forms them with int->str
    n = 12345 << DECIMAL_STR_MIN_SHIFT
    want = str(n)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError):
            str(n)
        assert decimal_str(n) == want
    finally:
        sys.set_int_max_str_digits(saved)
