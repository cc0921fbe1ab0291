import contextlib
import functools
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import dps_to_prec, prec_to_dps

from recurrencelab import (ExtReal, OscLogPhi, bignum, parse_phi,
                           plan_engine, plan_full_dimension)
from recurrencelab.bignum import (DEFAULT_DIGIT_CAP, EXP_BURST_PREC,
                                  EXP_POW_PREC, GUARD_DIGITS, LOG10, _exp,
                                  _exp_whole, _ln, digits_of_exp, exp_ceil,
                                  exp_ceil_anchor, exp_floor, exp_int,
                                  nlogn_ceil, nth_root_floor, power_log_ceil)
from recurrencelab.errors import CapacityError

from conftest import per_bit_table_product, table_ladder


def mp_exp_ceil(x: float, extra=None) -> int:
    terms = [x, *(extra or ())]
    dps = int(max(math.fsum(terms), 1) / math.log(10)) + 80
    with mpmath.workdps(dps):
        total = mpmath.fsum(mpmath.mpf(t) for t in terms)
        return int(mpmath.ceil(mpmath.exp(total)))


def test_exp_ceil_small_values():
    for x in [0.0, 0.5, 1.0, 2.0, 10.0, 100.0, 700.0, 1000.0]:
        assert exp_ceil(x) == mp_exp_ceil(x)


def test_exp_floor_small_values():
    assert exp_floor(0.0) == 1  # e^0 is exactly 1
    for x in [0.5, 1.0, 2.0, 10.0, 700.0]:
        assert exp_floor(x) == mp_exp_ceil(x) - 1  # e**x is never integral here



def test_exp_int_negative_exponent():
    assert exp_ceil(-3.0) == 1
    assert exp_floor(-3.0) == 0


def test_exp_int_term_lists():
    # summing as floats first would lose the small term entirely
    terms = [1000.0, 1e-14, 2.5]
    assert exp_int(terms, rounding="ceil") == mp_exp_ceil(0.0, terms)


def test_exp_ceil_beyond_float_range():
    # e^1000 overflows float arithmetic but not the big-int path
    v = exp_ceil(1000.0)
    assert len(str(v)) == 435
    assert math.log(v) == pytest.approx(1000.0, abs=1e-9)


def test_digit_cap_enforced():
    with pytest.raises(CapacityError):
        exp_ceil(1e9, digit_cap=DEFAULT_DIGIT_CAP)
    # raising the cap unlocks the same exponent
    assert exp_ceil(60000.0, digit_cap=30_000) > 0


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
        with mpmath.workdps(60):
            expected = int(mpmath.ceil(n * mpmath.log(n)))
        assert nlogn_ceil(n) == expected


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


# -------------------------------------------------- Newton ln against ln ---

def ln_power_log_ceil(n, exponent):
    """power_log_ceil with mpmath's own ln, the reference for the Newton ln."""
    num = exponent.numerator
    den = getattr(exponent, "denominator", 1)
    approx_log = (num / den) * math.log(n) + math.log(math.log(n))
    power = n ** num
    root = power if den == 1 else nth_root_floor(power, den)
    with mpmath.workdps(digits_of_exp(approx_log) + GUARD_DIGITS):
        ln_n = mpmath.ln(mpmath.mpf(n))
        if den == 1 or root ** den == power:
            value = mpmath.mpf(root) * ln_n
        else:
            value = mpmath.exp(mpmath.mpf(num) / den * ln_n) * ln_n
        return int(mpmath.ceil(value))


def ln_nlogn_ceil(n):
    if n <= 1 << 40:
        return math.ceil(n * math.log(n))
    with mpmath.workdps(len(str(n)) + GUARD_DIGITS):
        return int(mpmath.ceil(mpmath.mpf(n) * mpmath.ln(mpmath.mpf(n))))


def _newton_ln_inputs():
    rng = random.Random(1510)
    ns = [2, 3] + [10 ** k for k in (1, 2, 5, 12, 15, 40, 300, 2000)]
    ns += [rng.randrange(10 ** (d - 1), 10 ** d)
           for d in (3, 17, 60, 400, 1500, 6000)]
    ns += [exp_ceil(float(i * i)) for i in range(1, 121, 7)] + [exp_ceil(120.0 ** 2)]
    return ns


NEWTON_LN_INPUTS = _newton_ln_inputs()


@pytest.mark.parametrize("exponent", [1, 2, Fraction(3, 2), Fraction(5, 4)],
                         ids=["1", "2", "3/2", "5/4"])
def test_power_log_ceil_matches_mpmath_ln(exponent):
    for n in NEWTON_LN_INPUTS:
        if digits_of_exp(float(exponent) * math.log(n)) > DEFAULT_DIGIT_CAP - 100:
            continue
        assert power_log_ceil(n, exponent) == ln_power_log_ceil(n, exponent), n


def test_nlogn_ceil_matches_mpmath_ln():
    for n in NEWTON_LN_INPUTS:
        assert nlogn_ceil(n) == ln_nlogn_ceil(n), n


# 740 digits is the last precision mpmath's ln serves from its Taylor
# tables, 760 the first that takes the Newton iteration
@pytest.mark.parametrize("dps", [20, 740, 760, 2000, 5000])
def test_ln_is_good_to_the_working_precision(dps):
    rng = random.Random(dps)
    for n in (2, 3, 10 ** 9, rng.randrange(10 ** (dps - 1), 10 ** dps)):
        with mpmath.workdps(dps + 20):
            want = mpmath.ln(mpmath.mpf(n))
        got = mpmath.mp.make_mpf(_ln(n, dps))
        if dps <= 740:   # mpmath's own ln, to the last bit
            with mpmath.workdps(dps):
                assert got == mpmath.ln(mpmath.mpf(n)), n
        with mpmath.workdps(dps + 20):
            assert abs(got - want) <= want * mpmath.mpf(10) ** -dps, n


# ---------------------------------------------------------- anchored ln ---


@pytest.mark.parametrize("near", [2000.0, 2345.678, (2000.0, 1e-13, 0.25)],
                         ids=["integer", "fractional", "terms"])
@pytest.mark.parametrize("dps", [760, 1500, 3000])
def test_hinted_ln_is_good_to_the_working_precision(near, dps):
    # the anchored n^A ln n, A putting it at about dps digits, keeps the
    # GUARD_DIGITS places past the point that power_log_ceil works to
    n = exp_ceil(near)
    A = Fraction(dps, len(str(n))).limit_denominator(8)
    m, anchor = exp_ceil_anchor(near, A)
    assert m == n
    # power_log_ceil's working precision, plus 20 digits
    work = digits_of_exp(float(A) * math.log(n) + math.log(math.log(n))) \
        + GUARD_DIGITS + 20
    with mpmath.workdps(work):
        want = mpmath.mpf(n) ** (mpmath.mpf(A.numerator) / A.denominator) \
            * mpmath.ln(mpmath.mpf(n))
    got = bignum._anchored(n, A.numerator, A.denominator, n ** A.numerator,
                           anchor)
    assert got is not None
    with mpmath.workdps(work):
        got = mpmath.mp.make_mpf(got)
        assert abs(got - want) <= mpmath.mpf(10) ** -GUARD_DIGITS


@pytest.mark.parametrize("off", [1e-9, math.ulp(2345.678), (0.0, 1e-30),
                                 (0.0, 1e-60)],
                         ids=["float-far", "one-ulp", "past-128-bits",
                              "series-too-short"])
def test_wrong_hints_fall_back_to_newton(off, monkeypatch):
    # the anchor of an exponent off by 10^-9, by one ulp, by 10^-30 or by
    # 10^-60 is turned away by the bound on the series: n - e^X is so
    # large against n that its series would run to dozens of terms
    x = 2345.678
    near = exp_ceil_anchor((x + off,) if isinstance(off, float)
                           else (x, *off), 1)[1]
    n = exp_ceil(x)
    assert bignum._anchored(n, 1, 1, n, near) is None
    newton, real = [], bignum._ln_newton
    monkeypatch.setattr(bignum, "_ln_newton",
                        lambda n, *a: newton.append(n) or real(n, *a))
    assert power_log_ceil(n, 1, near=near) == power_log_ceil(n, 1)
    assert newton == [n, n]


def _hinted_inputs(exponent):
    """(n, anchor): n = ceil(e^x) with the anchor that built it, and
    NEWTON_LN_INPUTS with the anchor of their float log, right or wrong;
    the anchors at the exponent's digits.  Positions whose n^exponent
    ln n would near the digit cap are left out."""
    ns = NEWTON_LN_INPUTS + [exp_ceil(x) for x in (900.0, 1728.5, 3600.0,
                                                  4096.25, 9000.125, 14400.0)]
    xs = [math.log(n) for n in NEWTON_LN_INPUTS] + [
        900.0, 1728.5, 3600.0, 4096.25, 9000.125, 14400.0]
    return [(n, exp_ceil_anchor(x, exponent)[1]) for n, x in zip(ns, xs)
            if digits_of_exp(float(exponent) * math.log(n))
            <= DEFAULT_DIGIT_CAP - 100]


@pytest.mark.parametrize("exponent", [1, 2, Fraction(3, 2), Fraction(5, 4),
                                      Fraction(1, 2)],
                         ids=["1", "2", "3/2", "5/4", "1/2"])
def test_power_log_ceil_is_the_same_with_a_hint(exponent):
    for n, near in _hinted_inputs(exponent):
        assert power_log_ceil(n, exponent, near=near) == power_log_ceil(n, exponent), n


def test_nlogn_ceil_is_the_same_with_a_hint():
    for n, near in _hinted_inputs(1):
        assert nlogn_ceil(n, near=near) == nlogn_ceil(n) == ln_nlogn_ceil(n), n


# the full-dimension rows of the benchmark's plan mix, each at a count the
# Newton ln serves in well under a second
HINT_PLANS = [("log(n)", "inf", "inf", 30), ("log(n)", "1", "inf", 30),
              ("log(n)^1.5", "1", "2", 30), ("n", "1", "2", 30),
              ("log(n)^2", "0", "1", 120), ("n^0.5", "0", "2", 120),
              ("log(n)", "2", "2", 60), ("osc 4/5 6/5", "5/6", "5/4", 60),
              ("osc 1 3", "1", "1", 30), ("osc 1/2 2", "2", "5/2", 30)]


def _hint_plan(spec, alpha, beta, count):
    if spec.startswith("osc "):
        phi = OscLogPhi(*spec.split()[1:])
    else:
        phi = parse_phi(spec)
    plan = plan_full_dimension(phi, ExtReal(alpha), ExtReal(beta), count=count)
    return plan.to_json_dict()


def test_plans_are_unchanged_without_the_hinted_ln(monkeypatch):
    settled, real = [], bignum._anchored

    def spy(*args):
        y = real(*args)
        settled.append(y is not None)
        return y

    monkeypatch.setattr(bignum, "_anchored", spy)
    hinted = [_hint_plan(*r) for r in HINT_PLANS]
    assert any(settled)
    monkeypatch.setattr(bignum, "_anchored", lambda *args: None)
    assert [_hint_plan(*r) for r in HINT_PLANS] == hinted


def test_no_position_built_from_its_exponent_loses_its_anchor(monkeypatch):
    # a term whose n a plan built as ceil(e^X), or one below it, and whose
    # anchor passes the bounds of the series, has its ell finished from
    # that anchor: ladder rungs and witnesses at min_n (case v), a lower
    # witness one below an OscLogPhi boundary (case v on --osc 4/5 6/5), a
    # candidate at min_n (case ii) and case iv's positions never reach `_ln`
    built, real_anchor = {}, bignum.exp_ceil_anchor
    finished_by_ln, real_ln = [], bignum._ln

    def anchor_spy(x, exponent, digit_cap=DEFAULT_DIGIT_CAP):
        n, anchor = real_anchor(x, exponent, digit_cap)
        built[n] = exponent, anchor
        built.setdefault(n - 1, (exponent, anchor))
        return n, anchor

    monkeypatch.setattr(bignum, "exp_ceil_anchor", anchor_spy)
    monkeypatch.setattr(bignum, "_ln", lambda n, dps: finished_by_ln.append(n)
                        or real_ln(n, dps))
    cases = set()
    for request in HINT_PLANS + [("osc 4/5 6/5", "5/6", "5/4", 120)]:
        built.clear()
        finished_by_ln.clear()
        plan = _hint_plan(*request)
        if any(int(t["n"]) in built for t in plan["terms"]):
            cases.add(plan["case_tag"])
        for n in finished_by_ln:
            if n in built:
                exponent, anchor = built[n]
                A = Fraction(exponent)
                assert bignum._anchored(n, A.numerator, A.denominator,
                                        n ** A.numerator, anchor) is None, (
                    request, n)
    assert cases == {"ii", "iv", "v"}


@pytest.fixture
def kernel_runs(monkeypatch):
    """The (terms, dps) of every run of the exp kernel a test makes."""
    runs, real = [], bignum._exp
    monkeypatch.setattr(bignum, "_exp", lambda terms, dps: runs.append(
        (terms, dps)) or real(terms, dps))
    return runs


def test_exp_power_asks_at_the_hinted_lns_digits(kernel_runs):
    # the anchor takes e^x at the digits of e^(5x/2), and the anchored ln
    # runs no kernel of its own
    x = 2000.25
    n = exp_ceil(x)
    kernel_runs.clear()
    m, near = exp_ceil_anchor(x, Fraction(5, 2))
    assert m == n == mp_exp_ceil(x)
    assert kernel_runs == [((x,), digits_of_exp(2.5 * x) + GUARD_DIGITS)]
    want = power_log_ceil(n, Fraction(5, 2), near=near)
    assert len(kernel_runs) == 1
    assert want == power_log_ceil(n, Fraction(5, 2))
    # past the digit cap the power is ignored, and the integer is the same;
    # an anchor at e^x's own digits is turned away at A = 3
    m, own = exp_ceil_anchor(x, 3, digit_cap=900)
    assert m == n and own.dps == exp_int_dps(x)
    assert bignum._anchored(n, 3, 1, n ** 3, own) is None
    assert bignum._anchored(n, 1, 1, n, own) is not None


@pytest.mark.parametrize("plan_request", [
    ("log(n)", "2", "2", 120), ("osc 4/5 6/5", "5/6", "5/4", 120),
    ("log(n)", "2", "3", 24)],
    ids=["log-2-2", "osc-5/6-5/4", "log-2-3"])
def test_case_v_ladders_compute_each_exponent_once(kernel_runs, plan_request):
    _hint_plan(*plan_request)
    assert kernel_runs and len(kernel_runs) == len(set(kernel_runs))


def test_a_witness_rung_at_min_n_takes_its_exponent_as_the_ln_hint(
        monkeypatch):
    # log(n) 1/3 count 12 ends at an 11 855-digit witness rung; its ln is
    # read from the e^x that built it, with no Newton run
    newton, real = [], bignum._ln_newton
    monkeypatch.setattr(bignum, "_ln_newton",
                        lambda n, *a: newton.append(n) or real(n, *a))
    plan = _hint_plan("log(n)", "1", "3", 12)
    assert max(len(t["ell"]) for t in plan["terms"]) > 10_000
    assert newton == []


# ------------------------------------------------------------ exp kernel ---


def mpmath_exp(terms, dps):
    """The exp kernel as mpmath alone computes it: the reference."""
    with mpmath.workdps(dps):
        return mpmath.exp(mpmath.fsum(mpmath.mpf(t) for t in terms))


def mpmath_exp_mpf(terms, dps):
    """The reference as the raw mpf tuple `_exp` returns."""
    return mpmath_exp(terms, dps)._mpf_


def assert_exp_within_an_ulp(terms, dps):
    """_exp(terms, dps) is within one unit in the last place of e^X, taken
    40 digits further, and has its ceiling and floor unless e^X lies
    within 10^-GUARD_DIGITS (relative) of an integer, as e^X does for a
    tiny X: the module's exactness convention."""
    got = mpmath.mp.make_mpf(_exp(tuple(terms), dps))
    want = mpmath_exp(terms, dps + 40)
    with mpmath.workdps(dps + 40):
        ulp = mpmath.ldexp(1, mpmath.mag(want) - dps_to_prec(dps))
        assert abs(got - want) <= ulp, (terms, dps)
        frac = want - mpmath.floor(want)
        if min(frac, 1 - frac) > want * mpmath.mpf(10) ** -GUARD_DIGITS:
            assert (int(mpmath.ceil(got)), int(mpmath.floor(got))) == (
                int(mpmath.ceil(want)), int(mpmath.floor(want))), (terms, dps)


X_CAP = DEFAULT_DIGIT_CAP * LOG10 - 40   # e^X within the default digit cap

# the shipped table of powers of e, and the same without its fraction
# rows, as a rebuilt table is
SHIPPED = bignum._load_powers_of_e()
NO_FRACTIONS = (SHIPPED[0], 0, SHIPPED[2][SHIPPED[1] // bignum.E_ROW_BITS:])


@contextlib.contextmanager
def powers_of_e(table):
    """bignum's table of powers of e set to `table` inside the block."""
    saved, bignum._e_powers = bignum._e_powers, table
    try:
        yield
    finally:
        bignum._e_powers = saved


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, X_CAP),
       st.lists(st.floats(-16.0, 16.0), max_size=2))
@example(9000.0, [])                    # integer X
@example(9000.0, [2.0 ** -40])          # X = N + 2^-40
@example(9001.0, [-(2.0 ** -30)])       # X = N + 1 - 2^-30
@example(2345.678, [1e-300, 0.25])      # an exact sum of over 1 000 bits
@example(X_CAP, [0.5])
@example(3.199741958468793e-16, [-5.0])   # an exact sum of 110 bits
@example(1e-38, [])                       # e^X within 10^-38 of 1
def test_exp_kernel_is_good_to_an_ulp(head, rest):
    terms = (head, *rest)
    with powers_of_e(SHIPPED):
        assert_exp_within_an_ulp(
            terms, digits_of_exp(math.fsum(terms)) + GUARD_DIGITS)


# the last precision below the bit-burst route and the first on it
BURST_DPS = [prec_to_dps(EXP_BURST_PREC) - 1, prec_to_dps(EXP_BURST_PREC) + 1]


@pytest.mark.parametrize("dps", BURST_DPS, ids=["below", "from"])
@pytest.mark.parametrize("terms", [(3000.0,), (3000.0, 2.0 ** -40),
                                   (3001.0 - 2.0 ** -30,), (1.0, 2.0 ** -40),
                                   (0.75,), (12.5, -30.0), (3000.5,)],
                         ids=["integer", "N+2^-40", "N+1-2^-30", "1+2^-40",
                              "below-1", "negative", "N+1/2"])
def test_exp_kernel_on_both_sides_of_the_cut_off(monkeypatch, terms, dps):
    assert dps_to_prec(BURST_DPS[0]) < EXP_BURST_PREC <= dps_to_prec(BURST_DPS[1])
    monkeypatch.setattr(bignum, "_e_powers", SHIPPED)
    bursts, real = [], bignum._exp_mixed
    monkeypatch.setattr(bignum, "_exp_mixed",
                        lambda *a: bursts.append(a) or real(*a))
    assert_exp_within_an_ulp(terms, dps)
    x = math.fsum(terms)
    takes_burst = (dps_to_prec(dps) >= EXP_BURST_PREC and x > 1
                   and x != int(x))
    assert bool(bursts) == takes_burst
    if not takes_burst:   # mpmath's own exp, bit for bit
        assert _exp(terms, dps) == mpmath_exp(terms, dps)._mpf_


def test_exp_kernel_refuses_a_non_binary_fraction():
    with pytest.raises(TypeError):
        _exp((2000.0, Fraction(1, 3)), 900)


# requests whose positions reach the bit-burst route (case ii, iv, v) or
# pass 400 digits below it (case vi), and two whose ladders the digit cap
# cuts short
EXP_PLANS = [("log(n)", "1", "inf", 30), ("n^0.5", "0", "2", 120),
             ("log(n)", "1", "2", 12), ("osc 4/5 6/5", "5/6", "5/4", 120),
             ("osc 1/2 2", "2", "5/2", 120), ("log(n)", "1", "3", 12),
             ("log(n)", "1", "2", 30)]


def test_plans_are_unchanged_with_mpmaths_own_exp(monkeypatch):
    bursts, real = [], bignum._exp_mixed
    monkeypatch.setattr(bignum, "_exp_mixed",
                        lambda *a: bursts.append(a) or real(*a))
    # every request plans: none of them raises
    burst = [_hint_plan(*r) for r in EXP_PLANS]
    assert bursts
    monkeypatch.setattr(bignum, "_exp", mpmath_exp_mpf)
    assert [_hint_plan(*r) for r in EXP_PLANS] == burst


# the plans whose positions take a fractional e^X past EXP_BURST_PREC:
# case ii, and case v's log(n) 1/3 geometric ladder and oscillating ladder
FRACTION_PLANS = [("log(n)", "1", "inf", 12), ("log(n)", "1", "3", 12),
                  ("osc 4/5 6/5", "5/6", "5/4", 60)]


def test_plans_are_unchanged_without_the_table_fractions(monkeypatch):
    # without fractions bit-burst sums every fraction bit, from bit 0
    starts, real = [], bignum._exp_fraction
    monkeypatch.setattr(bignum, "_exp_fraction",
                        lambda r, s, wp, lo: starts.append(lo)
                        or real(r, s, wp, lo))
    monkeypatch.setattr(bignum, "_e_powers", SHIPPED)
    tabled = [_hint_plan(*r) for r in FRACTION_PLANS]
    assert starts and set(starts) == {bignum.E_FRACTION_BITS}
    monkeypatch.setattr(bignum, "_e_powers", NO_FRACTIONS)
    starts.clear()
    assert [_hint_plan(*r) for r in FRACTION_PLANS] == tabled
    assert starts and set(starts) == {0}


FRACTION_DPS = {"below": BURST_DPS[0], "from": BURST_DPS[1]}


@settings(max_examples=30, deadline=None)
@given(st.integers(2, int(X_CAP)), st.integers(1, 45), st.integers(0, 1 << 45),
       st.sampled_from(["below", "from", "exp_int"]))
@example(46000, 1, 1, "exp_int")          # 46000.5: from the table alone
@example(46000, 20, 0xABCDE, "exp_int")   # the table's last fraction bit
@example(46000, 21, 0xABCDE, "exp_int")   # one bit past it
@example(27286, 38, 0x1BA5E353F7, "exp_int")
@example(3000, 20, 0x5A5A5, "from")
@example(3000, 40, 0x5A5A5A5A5A, "from")
@example(3000, 40, 0x5A5A5A5A5A, "below")
def test_fractional_exponents_are_good_to_an_ulp(n, bits, r, dps):
    # X = n + r/2^bits with exactly `bits` fraction bits: at most
    # E_FRACTION_BITS come from the table alone, more take bit-burst too;
    # without fractions bit-burst takes them all
    terms = (float(n), math.ldexp((r | 1) % (1 << bits), -bits))
    for table in (SHIPPED, NO_FRACTIONS):
        with powers_of_e(table):
            assert_exp_within_an_ulp(
                terms, FRACTION_DPS.get(dps) or exp_int_dps(n))


# ------------------------------------------- mpmath's global context ---

def _kernel_integers():
    """exp_int, power_log_ceil and nlogn_ceil over every route of `_exp`
    and `_ln`: Taylor, anchored and Newton ln; mpmath's exp, the table and
    bit-burst."""
    out = []
    for x in (5.3, 700.0, 2000.25, 9000.0, 12000.5, (3000.0, 1e-13, 0.25)):
        n, near = exp_ceil_anchor(x, 1)
        out += [n, exp_ceil(x), exp_floor(x), nlogn_ceil(n),
                nlogn_ceil(n, near=near)]
        for exponent in (1, 2, Fraction(5, 4)):
            out += [power_log_ceil(n, exponent),
                    power_log_ceil(n, exponent,
                                   near=exp_ceil_anchor(x, exponent)[1])]
    return out


@pytest.mark.parametrize("prec", [17, 3000])
def test_the_kernel_neither_reads_nor_changes_mpmaths_precision(prec):
    want = _kernel_integers()
    plans = [_hint_plan(*r) for r in EXP_PLANS]
    with mpmath.workprec(prec):
        assert _kernel_integers() == want
        assert [_hint_plan(*r) for r in EXP_PLANS] == plans
        assert mpmath.mp.prec == prec
        # a plan that raises
        with pytest.raises(CapacityError):
            plan_full_dimension(parse_phi("log(n)"), ExtReal(2), ExtReal(2),
                                count=40, digit_cap=4)
        with pytest.raises(CapacityError):
            exp_ceil(1e9)
        assert mpmath.mp.prec == prec


# case v's two count-60 ladders, the heaviest users of the table
THREAD_PLANS = [("log(n)", "2", "2", 60), ("osc 4/5 6/5", "5/6", "5/4", 60)]


def test_threads_plan_as_one_thread_does(cold_table, monkeypatch):
    # the kernel runs of each plan, recorded into the list its thread names
    plan_runs, real = {}, bignum._exp
    monkeypatch.setattr(
        bignum, "_exp", lambda terms, dps: plan_runs[threading.get_ident()]
        .append((terms, dps)) or real(terms, dps))

    def plan_recording(i):
        runs = plan_runs[threading.get_ident()] = []
        return _hint_plan(*THREAD_PLANS[i]), runs

    serial, serial_runs = zip(*map(plan_recording, range(len(THREAD_PLANS))))
    # a case v plan asks for some exponents more than once; its scope runs
    # the kernel once for each distinct one
    for runs in serial_runs:
        assert len(set(runs)) == len(runs) and len(runs) > 1
    cold_table()
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
    # no thread's scope shares or closes another's memo: every plan runs
    # the kernel exactly as it does alone
    assert got_runs == [tuple(serial_runs[i] for i in ks) for ks in order]


# ------------------------------------------------------- powers of e ---

N_CAP = int(X_CAP)


def exp_int_dps(n):
    """The digits exp_int asks `_exp` for at e^n."""
    return digits_of_exp(n) + GUARD_DIGITS


@settings(max_examples=25, deadline=None)
@given(st.integers(1, N_CAP), st.sampled_from([1, 2]))
@example(1 << 15, 1)
@example((1 << 15) - 1, 1)
@example(1 << 11, 2)
@example((1 << 11) - 1, 2)
@example(N_CAP, 2)
def test_integer_exponents_are_mpmaths_exp_bit_for_bit(n, mult):
    # mult = 2: the hinted ln of power_log_ceil at A = 2
    dps = mult * exp_int_dps(n)
    assert _exp((float(n),), dps) == mpmath_exp((n,), dps)._mpf_, n


@pytest.fixture
def cold_table(monkeypatch):
    """Empty tables of powers of e, shipped and rebuilt, for one test;
    calling it empties them again."""
    def empty():
        monkeypatch.setattr(bignum, "_e_powers", (0, 0, ()))
        monkeypatch.setattr(bignum, "_e_rebuilt", (0, 0, ()))

    empty()
    return empty


def test_integer_exponents_take_the_table_past_mpmaths_cut_off(
        cold_table, monkeypatch):
    calls, real = [], bignum._exp_whole
    monkeypatch.setattr(bignum, "_exp_whole",
                        lambda n, prec: calls.append((n, prec)) or real(n, prec))
    ns = (100, 400, 9000)
    for n in ns:
        _exp((float(n),), exp_int_dps(n))
    prec = [dps_to_prec(exp_int_dps(n)) for n in ns]
    assert prec[0] <= EXP_POW_PREC < prec[1]
    assert calls == [(400, prec[1]), (9000, prec[2])]


def test_the_table_gives_the_same_value_cold_and_warm(cold_table):
    requests = [(2345, exp_int_dps(2345)), (2345, 2 * exp_int_dps(2345)),
                (12001, exp_int_dps(12001)), (700, exp_int_dps(700)),
                (31999, 2 * exp_int_dps(31999))]
    cold = []
    for n, dps in requests:
        cold_table()
        cold.append(_exp((float(n),), dps))
        assert bignum._e_rebuilt[0] >= dps_to_prec(dps)
    # one warm table, grown by a larger request and then asked a smaller one
    cold_table()
    for (n, dps), want in zip(requests, cold):
        assert _exp((float(n),), dps) == want, (n, dps)
    for (n, dps), want in reversed(list(zip(requests, cold))):
        assert _exp((float(n),), dps) == want, (n, dps)


def test_the_table_stays_bounded(cold_table):
    rng = random.Random(1976)
    top_n = top_prec = 0
    for _ in range(30):
        n = rng.randrange(1, N_CAP)
        prec = dps_to_prec(rng.choice([1, 2]) * exp_int_dps(n))
        if prec <= EXP_POW_PREC:
            continue
        _exp_whole(n, prec)
        top_n, top_prec = max(top_n, n), max(top_prec, prec)
        table_prec, f, rows = bignum._e_rebuilt
        assert len(rows) <= (top_n.bit_length() + 3) // bignum.E_ROW_BITS
        assert f == 0 and {len(row) for row in rows} == {15}
        assert top_prec <= table_prec < 2 * top_prec


def _shipped_bytes():
    with open(bignum.E_POWERS_FILE, "rb") as fh:
        return fh.read()


def test_the_shipped_table_is_the_one_its_helper_builds(tmp_path):
    path = tmp_path / "e_powers.bin"
    bignum._write_powers_of_e(str(path))
    assert path.read_bytes() == _shipped_bytes()
    prec, f, rows = SHIPPED
    assert SHIPPED == bignum._build_powers_of_e(bignum._table_top(SHIPPED),
                                                prec, f)
    # it covers every request under the default digit cap: bit-burst's
    # guard on exp_int's digits, the top bit of any N < e^X there, and
    # the fraction bits down to 2^-E_FRACTION_BITS, in rows of 15
    assert prec >= (dps_to_prec(DEFAULT_DIGIT_CAP + GUARD_DIGITS)
                    + bignum.EXP_GUARD_BITS)
    assert (bignum._table_top(SHIPPED)
            >= int(DEFAULT_DIGIT_CAP * LOG10).bit_length() - 1)
    assert f == bignum.E_FRACTION_BITS == 20
    assert (len(rows), {len(row) for row in rows}) == (9, {15})


def test_the_table_fractions_are_roots_of_e_from_below():
    # e^(2^-j) is the floor of the square root of the value before it, e
    # for j = 1, at w bits; and e^(2^-j) to 4 000 bits
    prec, f, rows = SHIPPED
    w = prec + bignum._pow_guard(bignum._table_top(SHIPPED))
    ladder = table_ladder(rows)
    before = ladder[f]
    for j in range(1, f + 1):
        man, exp = ladder[f - j]
        assert man.bit_length() == w
        square = before[0] << (before[1] - 2 * exp)
        assert man * man <= square < (man + 1) ** 2, j
        with mpmath.workprec(4000):
            want = mpmath.exp(mpmath.ldexp(1, -j))
            got = mpmath.ldexp(int(man) >> (w - 4010), exp + w - 4010)
            assert abs(want - got) <= want * mpmath.ldexp(1, -3990), j
        before = man, exp


def test_every_row_entry_lies_below_its_power_of_e():
    # entry d - 1 of row i is e^D, D = d 16^i 2^-20, from below within
    # (3D + 11) 2^(1-w) relatively (`_build_powers_of_e`).  The reference
    # powers mpmath's e^(2^-20) at 128 bits past w, and its entries for
    # d = 15 are checked against mpmath's own exp
    prec, f, rows = SHIPPED
    w = prec + bignum._pow_guard(bignum._table_top(SHIPPED))
    with mpmath.workprec(w + 128):
        unit = mpmath.ldexp(1, 1 - w)
        base = mpmath.exp(mpmath.ldexp(1, -f))
        for i, row in enumerate(rows):
            want = mpmath.mpf(1)
            for d, (man, exp) in enumerate(row, 1):
                want *= base
                big_d = mpmath.ldexp(d << (4 * i), -f)
                got = mpmath.ldexp(int(man), exp)
                assert man.bit_length() == w
                assert 0 < want - got <= want * (3 * big_d + 11) * unit, (i, d)
            assert abs(want - mpmath.exp(big_d)) < want * unit / 2 ** 64, i
            base = want * base


# exponents below 2^16 with 20 fraction bits, as the shipped rows hold
ROW_WHOLE = st.integers(1, (1 << 16) - 1)
ROW_FRACTION = st.integers(0, (1 << 20) - 1)


class _RecordedRow(tuple):
    """A table row that appends (its index, the entry's) at each read."""

    def __getitem__(self, k):
        self.reads.append((self.index, k))
        return tuple.__getitem__(self, k)


def _recorded_rows(rows, reads):
    out = []
    for i, row in enumerate(rows):
        out.append(_RecordedRow(row))
        out[-1].index, out[-1].reads = i, reads
    return tuple(out)


@settings(max_examples=12, deadline=None)
@given(ROW_WHOLE, ROW_FRACTION, st.integers(800, 66_566))
@example((1 << 16) - 1, (1 << 20) - 1, 66_566)   # every hex digit 15
@example(1, 0, 800)                              # e alone
@example(0x8001, 0x00010, 12_345)                # zero digits between
@example(0x7777, 0x77777, 40_000)                # three bits a digit
def test_the_row_product_is_within_its_bound(whole, fraction, wp):
    # one entry per nonzero hex digit of n; the row product and the
    # per-bit reference both lie within err units of e^(n/2^20)
    prec, f, rows = SHIPPED
    w = prec + bignum._pow_guard(bignum._table_top(SHIPPED))
    n = whole << f | fraction
    reads = []
    got = bignum._table_product(n, _recorded_rows(rows, reads), w, wp, f)
    digits = [(n >> 4 * i) & 15 for i in range(len(rows))]
    assert reads == [(i, d - 1) for i, d in enumerate(digits) if d]
    reference = per_bit_table_product(n, rows, w, wp, f)
    assert got[2] == reference[2]
    with mpmath.workprec(wp + 64):
        want = mpmath.exp(mpmath.ldexp(n, -f))
        for man, exp, err in (got, reference):
            assert man.bit_length() == wp
            assert abs(mpmath.ldexp(want, -exp) - man) <= err, (n, wp)


# case ii's positions and case v's two count-120 ladders
REFERENCE_PLANS = [("log(n)", "1", "inf", 12), ("log(n)", "2", "2", 120),
                   ("osc 4/5 6/5", "5/6", "5/4", 120)]


def test_plans_are_unchanged_with_the_per_bit_product(monkeypatch):
    rowed = [_hint_plan(*r) for r in REFERENCE_PLANS]
    calls = []
    monkeypatch.setattr(bignum, "_table_product",
                        lambda *a: calls.append(a[0])
                        or per_bit_table_product(*a))
    assert [_hint_plan(*r) for r in REFERENCE_PLANS] == rowed
    assert calls


def test_a_rebuild_leaves_the_shipped_rows_to_the_default_cap(monkeypatch):
    # a request past the snapshot is served by a rebuild beside it; a
    # fractional e^X under the default cap still reads the shipped rows,
    # and bit-burst sums only its bits below 2^-20
    monkeypatch.setattr(bignum, "_e_powers", SHIPPED)
    monkeypatch.setattr(bignum, "_e_rebuilt", (0, 0, ()))
    assert exp_ceil(60000.0, digit_cap=30_000) > 0
    assert bignum._e_powers is SHIPPED
    assert bignum._e_rebuilt[0] > SHIPPED[0] and bignum._e_rebuilt[1] == 0
    read, starts = [], []
    product, fraction = bignum._table_product, bignum._exp_fraction
    monkeypatch.setattr(bignum, "_table_product",
                        lambda n, rows, *a: read.append(rows)
                        or product(n, rows, *a))
    monkeypatch.setattr(bignum, "_exp_fraction",
                        lambda r, s, wp, lo: starts.append(lo)
                        or fraction(r, s, wp, lo))
    assert_exp_within_an_ulp((26779.306,), exp_int_dps(26779.306))
    assert len(read) == 1 and read[0] is SHIPPED[2]
    assert starts == [bignum.E_FRACTION_BITS]


def _package_env(**extra):
    """The environment of a fresh interpreter that imports the package this
    suite imports, wherever it is."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(bignum.__file__))), **extra)


def test_a_fresh_process_starts_from_the_shipped_table():
    # the snapshot is loaded by the first exponential that reads a table
    code = ("import sys; from recurrencelab import bignum; "
            "print(bignum._e_powers); bignum.exp_ceil(26779.306640625); "
            "prec, f, rows = bignum._e_powers; "
            "print(prec, f, len(rows), *{len(row) for row in rows}, "
            "'hashlib' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=_package_env()).stdout.split()
    assert out == ["None", str(bignum.E_POWERS_PREC), "20", "9", "15",
                   "False"]


def test_a_fresh_process_plans_without_building_the_table():
    # case ii's positions and case v's square ladder near the digit cap
    code = """if True:
        import mpmath.libmp, mpmath.libmp.libelefun
        from recurrencelab import ExtReal, bignum, parse_phi
        from recurrencelab import plan_full_dimension
        calls = []
        def spy(name, real):
            return lambda *a: calls.append(name) or real(*a)
        bignum._build_powers_of_e = spy("table", bignum._build_powers_of_e)
        # bignum keeps no mpf_e of its own: it reads mpmath.libmp's at
        # each call, so the spies see every call, before the table's
        # first use as after it
        assert not hasattr(bignum, "mpf_e")
        for module in (mpmath.libmp, mpmath.libmp.libelefun):
            module.mpf_e = spy("mpf_e", module.mpf_e)
        print(bignum._e_powers)
        for alpha, beta, count in [("1", "inf", 12), ("2", "2", 170)]:
            plan = plan_full_dimension(parse_phi("log(n)"), ExtReal(alpha),
                                       ExtReal(beta), count=count)
            print(len(plan.terms))
        print(calls, bignum._e_rebuilt, bignum._e_powers[0])
        """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=_package_env()).stdout.splitlines()
    assert out[0] == "None"
    assert int(out[1]) > 1 and int(out[2]) > 120
    assert out[3] == f"[] (0, 0, ()) {bignum.E_POWERS_PREC}"


def test_word_only_work_loads_neither_mpmath_nor_the_table():
    # the word pipeline and a word command take no exponential; the first
    # e^X imports mpmath and reads the shipped table, without building it
    code = """if True:
        import contextlib, io, sys
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
        print(code, "mpmath" in sys.modules, bignum._e_powers)
        calls = []

        def profile(frame, event, arg):
            # e_fixed computes e for mpmath's mpf_e
            if event == "call" and frame.f_code.co_name in (
                    "e_fixed", "_build_powers_of_e"):
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        n = bignum.exp_ceil(26779.306640625)
        sys.setprofile(None)
        prec, f, rows = bignum._e_powers
        print("mpmath" in sys.modules, prec, f, len(rows), calls,
              bignum._e_powers == bignum._load_powers_of_e())
        print(hex(n))
        """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=_package_env()).stdout.splitlines()
    assert out[0] == "0 False None"
    assert out[1] == f"True {bignum.E_POWERS_PREC} 20 9 [] True"
    assert int(out[2], 16) == mp_exp_ceil(26779.306640625)


def test_threads_load_one_snapshot_on_first_use(monkeypatch):
    # four threads, more than the cores, take their first fractional e^X
    # at once; the first to take the lock loads the snapshot, slowly, and
    # the others read what it loaded
    monkeypatch.setattr(bignum, "_e_powers", None)
    monkeypatch.setattr(bignum, "_e_rebuilt", (0, 0, ()))
    loads, load = [], bignum._load_powers_of_e
    monkeypatch.setattr(bignum, "_load_powers_of_e",
                        lambda: loads.append(1) or time.sleep(0.05) or load())
    read, product = [], bignum._table_product
    monkeypatch.setattr(bignum, "_table_product",
                        lambda n, rows, *a: read.append(rows)
                        or product(n, rows, *a))
    k = 4
    start = threading.Barrier(k)
    out = [None] * k

    def first_exp(i):
        start.wait(timeout=60)
        out[i] = exp_ceil(26779.306640625)

    threads = [threading.Thread(target=first_exp, args=(i,))
               for i in range(k)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(loads) == 1
    assert len(read) == k and all(r is bignum._e_powers[2] for r in read)
    assert bignum._e_powers == SHIPPED and bignum._e_rebuilt == (0, 0, ())
    assert out == [mp_exp_ceil(26779.306640625)] * k


def test_the_module_precisions_are_mpmaths():
    # bignum counts bits of decimal digits without importing mpmath
    assert bignum.ANCHOR_BITS == dps_to_prec(GUARD_DIGITS) + 16 == 119
    assert bignum.E_POWERS_PREC == dps_to_prec(
        DEFAULT_DIGIT_CAP + GUARD_DIGITS) + bignum.EXP_GUARD_BITS == 66566
    assert all(bignum._dps_to_prec(dps) == dps_to_prec(dps)
               for dps in range(1, 200_001))


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


def test_a_damaged_table_file_starts_the_table_empty(tmp_path, monkeypatch):
    data = _shipped_bytes()
    path = tmp_path / "e_powers.bin"
    empty = (0, 0, ())
    assert bignum._load_powers_of_e(str(path)) == empty   # missing
    prec, f, rows = SHIPPED
    step = 8 + (prec + bignum._pow_guard(bignum._table_top(SHIPPED)) + 7) // 8
    inside_a_row = 16 + 15 * step + 7 * step + step // 2
    damaged = [data[:n] for n in (0, 3, 12, 16, 20, inside_a_row,
                                  len(data) // 2, len(data) - 1)]
    damaged.append(data[:inside_a_row] + data[-4:])
    for at in (0, 5, 9, 13, inside_a_row, len(data) // 2, len(data) - 1):
        flipped = bytearray(data)
        flipped[at] ^= 1 << (at % 8)
        damaged.append(bytes(flipped))
    for bad in damaged:
        path.write_bytes(bad)
        assert bignum._load_powers_of_e(str(path)) == empty
    # a fractional e^X from an empty table is still within an ulp: a
    # table is rebuilt beside it, without fraction rows
    monkeypatch.setattr(bignum, "_e_powers", empty)
    monkeypatch.setattr(bignum, "_e_rebuilt", empty)
    for terms in [(12000.5,), (12000.0, 0.1), (3001.0 - 2.0 ** -30,)]:
        assert_exp_within_an_ulp(terms, exp_int_dps(math.fsum(terms)))
    assert bignum._e_powers == empty
    assert bignum._e_rebuilt[0] > 0 and bignum._e_rebuilt[1] == 0
    path.write_bytes(data)
    assert bignum._load_powers_of_e(str(path)) == SHIPPED


# case ii, and case v's square ladder near the digit cap
WARM_PLANS = [("1", "inf", 12), ("2", "2", 170)]


def _warm_plans():
    return [plan_full_dimension(parse_phi("log(n)"), ExtReal(alpha),
                                ExtReal(beta), count=count).to_json()
            for alpha, beta, count in WARM_PLANS]


def test_the_shipped_table_serves_plans_under_the_digit_cap(cold_table,
                                                            monkeypatch):
    cold = _warm_plans()
    monkeypatch.setattr(bignum, "_e_powers", bignum._load_powers_of_e())
    builds = []

    def spy(name, real):
        return lambda *a: builds.append(name) or real(*a)

    monkeypatch.setattr(bignum, "_build_powers_of_e",
                        spy("table", bignum._build_powers_of_e))
    # bignum reads mpf_e off mpmath.libmp at each call
    for module in (mpmath.libmp, mpmath.libmp.libelefun):
        monkeypatch.setattr(module, "mpf_e", spy("mpf_e", module.mpf_e))
    warm = _warm_plans()
    assert builds == []
    assert warm == cold
    assert len(json.loads(warm[1])["terms"]) > 120


def test_an_undecided_rounding_falls_back_to_mpmath(cold_table, monkeypatch):
    # with no guard bits the error bound spans many units in the last
    # place, so no rounding is decided from the table
    monkeypatch.setattr(bignum, "_pow_guard", lambda top: 0)
    for n in (700, 5000, 20001):
        dps = exp_int_dps(n)
        assert _exp((float(n),), dps) == mpmath_exp((n,), dps)._mpf_


# the two count-120 case-v ladders, the heaviest users of integer e^N
LADDER_PLANS = [("log(n)", "2", "2", 120), ("osc 4/5 6/5", "5/6", "5/4", 120)]


def test_ladder_plans_are_unchanged_with_mpmaths_own_exp(monkeypatch):
    # the rungs are products of table entries; the reference takes every
    # e^X from mpmath's exp
    products, real = [], bignum._table_product
    monkeypatch.setattr(bignum, "_table_product",
                        lambda n, *a: products.append(n) or real(n, *a))
    tabled = [_hint_plan(*r) for r in LADDER_PLANS]
    assert products
    monkeypatch.setattr(bignum, "_exp", mpmath_exp_mpf)
    assert [_hint_plan(*r) for r in LADDER_PLANS] == tabled


# case-v requests on the geometric ladder (C > 1) with A > 1: log(n) at
# alpha 2, beta 3 has A = 2, C = 3/2, and at alpha 3, beta 4 A = 3, C = 4/3
GEOMETRIC_PLANS = [("log(n)", "2", "3", 24), ("log(n)", "3", "4", 24)]


def test_geometric_ladder_plans_are_unchanged_with_mpmaths_own_exp(
        monkeypatch):
    ladders, real = [], plan_engine._geometric_rungs
    monkeypatch.setattr(plan_engine, "_geometric_rungs",
                        lambda *a: ladders.append((a[1], a[-1])) or real(*a))
    shared = [_hint_plan(*r) for r in GEOMETRIC_PLANS]
    assert ladders == [(Fraction(3, 2), 2), (Fraction(4, 3), 3)]
    monkeypatch.setattr(bignum, "_exp", mpmath_exp_mpf)
    assert [_hint_plan(*r) for r in GEOMETRIC_PLANS] == shared
    # and with every rung's e^x at its own digits, where the anchored ln
    # turns each anchor away
    monkeypatch.undo()
    own, real_anchor = [], bignum.exp_ceil_anchor
    monkeypatch.setattr(bignum, "exp_ceil_anchor",
                        lambda x, exponent, digit_cap=DEFAULT_DIGIT_CAP:
                        own.append(exponent) or real_anchor(x, 1, digit_cap))
    assert [_hint_plan(*r) for r in GEOMETRIC_PLANS] == shared
    assert set(own) == {2, 3}


# ---------------------------------------------- the square ladder's e^(k^2) ---

@functools.lru_cache(maxsize=None)
def mp_square_ceil(k: int) -> int:
    """ceil(e^(k^2)) from mpmath's exp alone."""
    return mp_exp_ceil(float(k * k))


def _square_walk(rng, count):
    """count values of k: mostly k + 1, some skips of 2 to 5, some
    restarts lower down."""
    k = rng.randrange(1, 16)
    for _ in range(count):
        yield k
        step = rng.random()
        if step < 0.08:
            k = rng.randrange(1, k + 1)
        elif step < 0.2:
            k += rng.randrange(2, 6)
        else:
            k += 1


@pytest.mark.parametrize("exponent", [1, Fraction(5, 4), Fraction(3, 2), 2, 3])
def test_a_running_product_of_squares_is_exp_ceil_anchor(exponent):
    # the square ladder's walk of rungs, exp_ceil_anchor(float(k*k), A,
    # cap), against mpmath's ceil(e^(k^2)), up to each digit cap and past
    # it: e^(k^2) of 20 000 digits is k ~ 215.  The anchor takes e^X at
    # the digits of e^(A k^2) while they fit the cap, at e^(k^2)'s own
    # past it
    A = Fraction(exponent)
    raised, at_power = 0, set()
    for digit_cap in (DEFAULT_DIGIT_CAP, 3000, 700):
        rng = random.Random(f"squares {digit_cap}")
        top = math.isqrt(int(digit_cap * LOG10)) + 3
        ks = [min(k, top) for k in _square_walk(rng, 60)]
        ks += list(range(top - 25, top + 2))
        for k in ks:
            x = float(k * k)
            if int(x / math.log(10)) + 1 > digit_cap:
                with pytest.raises(CapacityError,
                                   match=f"digit cap of {digit_cap}$"):
                    exp_ceil_anchor(x, exponent, digit_cap)
                raised += 1
                continue
            n, anchor = exp_ceil_anchor(x, exponent, digit_cap)
            power = digits_of_exp(float(A) * x)
            fits = A > 1 and power <= digit_cap
            want = (power if fits else digits_of_exp(x)) + GUARD_DIGITS
            assert type(n) is int and n == mp_square_ceil(k), (exponent, k)
            assert anchor.terms == (x,) and anchor.dps == want, (exponent, k)
            at_power.add(fits)
    assert raised
    assert at_power == ({True, False} if A > 1 else {False})


def test_a_rung_that_the_table_cannot_decide_takes_mpmaths_exp(monkeypatch):
    # unforced, the table decides every rung of the two ladders; with no
    # guard bits its error bound spans many units in the last place, so
    # every rung past EXP_POW_PREC bits takes mpmath's exp, and the plans
    # do not change
    real_anchor, real_whole = bignum.exp_ceil_anchor, bignum._exp_whole
    real_exp = mpmath.libmp.mpf_exp
    rungs, inside, fallbacks = [], [], []

    def anchor_spy(x, exponent, digit_cap=DEFAULT_DIGIT_CAP):
        n, anchor = real_anchor(x, exponent, digit_cap)
        if (sys._getframe(1).f_code is plan_engine._square_rungs.__code__
                and dps_to_prec(anchor.dps) > EXP_POW_PREC):
            rungs.append(int(x))
        return n, anchor

    def whole_spy(n, prec):
        inside.append(n)
        try:
            return real_whole(n, prec)
        finally:
            inside.pop()

    def exp_spy(x, prec, rnd):
        if inside:
            fallbacks.append(inside[-1])
        return real_exp(x, prec, rnd)

    monkeypatch.setattr(bignum, "exp_ceil_anchor", anchor_spy)
    monkeypatch.setattr(bignum, "_exp_whole", whole_spy)
    # bignum reads mpf_exp off mpmath.libmp at each call
    monkeypatch.setattr(mpmath.libmp, "mpf_exp", exp_spy)
    plans = [_hint_plan(*r) for r in LADDER_PLANS]
    assert rungs and fallbacks == []
    rungs.clear()
    monkeypatch.setattr(bignum, "_pow_guard", lambda top: 0)
    assert [_hint_plan(*r) for r in LADDER_PLANS] == plans
    assert rungs and set(rungs) <= set(fallbacks)


# --------------------------------------------- nlogn_ceil's float path ---

def mp_nlogn(n):
    with mpmath.workdps(60):
        return n * mpmath.log(n)


def mp_nlogn_ceil(n):
    with mpmath.workdps(60):
        return int(mpmath.ceil(mp_nlogn(n)))


# float n*log(n) lies just under an integer that n ln n just passes
NLOGN_FLOAT_SHORT = [419172408968, 940012962406, 555856193266, 880978201212]


@pytest.mark.parametrize("n", NLOGN_FLOAT_SHORT)
def test_nlogn_ceil_is_not_one_short_near_an_integer(n):
    want = mp_nlogn_ceil(n)
    assert math.ceil(n * math.log(n)) == want - 1
    assert nlogn_ceil(n) == want


def test_nlogn_ceil_float_path_matches_mpmath():
    rng = random.Random(40)
    ns = [rng.randrange(1 << 20, (1 << 40) + 1) for _ in range(4000)]
    ns += [rng.randrange(2, 1 << 20) for _ in range(1000)]
    short = [n for n in ns if math.ceil(n * math.log(n)) != mp_nlogn_ceil(n)]
    assert short   # the sweep reaches floats that are one short
    assert [n for n in ns if nlogn_ceil(n) != mp_nlogn_ceil(n)] == []
    # the float error stays within half the margin nlogn_ceil allows
    with mpmath.workdps(60):
        assert [n for n in ns if abs(n * math.log(n) - mp_nlogn(n))
                > bignum.NLOGN_FLOAT_ERR / 2 * n * math.log(n)] == []


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
    with pytest.raises(TypeError, match="exponent"):
        exp_ceil_anchor(10.5, exponent)
    # an int and a Fraction are taken as before
    assert power_log_ceil(10 ** 6, Fraction(3, 2)) == 13815510558
    assert exp_ceil_anchor(10.5, 1)[0] == 36316
    assert exp_ceil_anchor(10.5, Fraction(3, 2))[0] == 36316
