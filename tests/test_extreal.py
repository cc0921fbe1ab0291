import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recurrencelab import INF, ONE, ZERO, ExtReal, GuardError
from recurrencelab.extreal import (Const, cadd, cexp, clog, cmul, cneg, cpow,
                                   csign)


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


# ------------------------------------------------------ exact constants ---


def test_an_irrational_value_compares_with_rationals_on_intervals():
    log3 = ExtReal(clog(Fraction(3)))
    assert log3.is_irrational and not ExtReal("1/2").is_irrational
    assert ExtReal("1.0986") < log3 < ExtReal("1.0987")
    # alpha >= 1/gamma either side of 1/log 3 = 0.91024...
    assert not ExtReal("0.9102") >= log3.reciprocal()
    assert ExtReal("0.9103") >= log3.reciprocal()
    assert log3 != ExtReal(1) and log3 == ExtReal(clog(Fraction(3)))
    assert hash(log3) == hash(ExtReal(clog(Fraction(3))))
    assert float(log3) == math.log(3) and log3.json_value() == math.log(3)
    assert str(log3) == "log(3)"
    with pytest.raises(ValueError, match="no Fraction form"):
        log3.fraction


def test_products_and_ratios_of_one_irrational_reduce_exactly():
    root2 = ExtReal(cpow(Fraction(2), Fraction(1, 2)))
    a, b = ExtReal("1/3") * root2, ExtReal(3) * root2
    assert (b / a).fraction == 9
    assert (root2 * root2).fraction == 2
    assert ExtReal(0) * root2 == ExtReal(0) and INF * root2 == INF


def test_constants_written_two_ways_reduce_to_one_form():
    two = Fraction(2)
    assert cadd(clog(two), clog(Fraction(1, 2))) == 0
    assert cexp(clog(Fraction(3, 7))) == Fraction(3, 7)
    assert cexp(cmul(Fraction(1, 2), clog(two))) == cpow(two, Fraction(1, 2))
    assert clog(cpow(two, Fraction(1, 3))) == cmul(Fraction(1, 3), clog(two))
    assert cpow(Fraction(4), Fraction(1, 2)) == 2
    assert isinstance(cadd(Fraction(1), clog(two)), Const)
    assert csign(cneg(clog(Fraction(5)))) == -1


def test_a_negative_or_uncertifiable_constant_is_refused():
    with pytest.raises(ValueError, match="negative value"):
        ExtReal(clog(Fraction(1, 2)))
    # log 6 - log 2 - log 3 is 0 written as a sum no rule reduces
    zero = cadd(clog(Fraction(6)), cneg(cadd(clog(Fraction(2)),
                                               clog(Fraction(3)))))
    assert isinstance(zero, Const)
    with pytest.raises(GuardError, match="exact cancellation"):
        csign(zero)


def test_intervals_never_touch_mpmaths_shared_precision(monkeypatch):
    # a spy on the interval context's prec property records every
    # assignment to mpmath's shared `iv`; the classifier's intervals run
    # on contexts of their own
    import mpmath

    from recurrencelab import parse_phi
    cls = type(mpmath.iv)
    real = cls.prec
    shared = []

    def set_prec(ctx, value):
        if ctx is mpmath.iv:
            shared.append(value)
        real.fset(ctx, value)

    monkeypatch.setattr(cls, "prec", property(real.fget, set_prec))
    before = mpmath.iv.prec
    gd = parse_phi("log(3)*log(n)").gamma_delta()
    assert gd.gamma == gd.delta and gd.gamma.is_irrational
    assert csign(cadd(clog(Fraction(3)), Fraction(-1))) == 1
    assert float(gd.gamma) == math.log(3)
    assert shared == [] and mpmath.iv.prec == before


def test_threads_classify_as_one_thread_does():
    # four threads certify signs at once, each at precisions of its own,
    # and every one reads what a serial run reads
    import threading

    import mpmath

    from recurrencelab import parse_phi
    consts = [clog(Fraction(k)) for k in (3, 5, 7, 10)]
    # rationals near each constant make the sign escalate to 128 bits
    cases = [(c, -Fraction(k, 7)) for k in range(4, 20) for c in consts]
    cases += [(clog(Fraction(k)), -Fraction(math.log(k)))
              for k in (3, 5, 7, 10)]
    serial = [csign(cadd(c, q)) for c, q in cases]
    profiles = ["log(3)*log(n)", "log(5)*log(n)+n", "log(7)*log(n)^2"]
    serial_gd = [str(parse_phi(p).gamma_delta().gamma) for p in profiles]
    before = mpmath.iv.prec
    got = [None] * 4
    got_gd = [None] * 4
    start = threading.Barrier(4)

    def run(k):
        start.wait(timeout=60)
        got[k] = [csign(cadd(c, q)) for c, q in cases]
        got_gd[k] = [str(parse_phi(p).gamma_delta().gamma) for p in profiles]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [serial] * 4 and got_gd == [serial_gd] * 4
    assert mpmath.iv.prec == before
