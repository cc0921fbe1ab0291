import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurrencelab import (ExtReal, INF, OscLogPhi, PhiDomainError,
                           PhiParseError, PlanValidityError, PowerLog,
                           TablePhi, check_nondecreasing, parse_phi)
from recurrencelab.phi_spec import _gamma_delta_from_monomials


# ---------------------------------------------------------------- parser ---

def test_plus_times_equal_precedence_left_assoc():
    # one precedence level for + and *: 2+3*4 groups as (2+3)*4
    assert parse_phi("2+3*4").value(5) == 20.0
    assert parse_phi("3*4+2").value(5) == 14.0
    assert parse_phi("2*log(n)+1").value(math.e and 3) == pytest.approx(
        2 * math.log(3) + 1)


def test_power_binds_tighter():
    phi = parse_phi("2*log(n)^2")
    assert phi.value(10) == pytest.approx(2 * math.log(10) ** 2)


def test_power_does_not_chain():
    with pytest.raises(PhiParseError):
        parse_phi("log(n)^2^3")


def test_parse_error_carries_position():
    with pytest.raises(PhiParseError) as exc:
        parse_phi("log(n) + $")
    assert exc.value.position == 9
    with pytest.raises(PhiParseError):
        parse_phi("log(n")
    with pytest.raises(PhiParseError):
        parse_phi("")


def test_unknown_name_rejected():
    with pytest.raises(PhiParseError):
        parse_phi("sqrt(n)")
    with pytest.raises(PhiParseError):
        parse_phi("m + 1")


def test_nonpositive_profile_rejected():
    # values must be positive from n = 2 on
    with pytest.raises(PhiParseError):
        parse_phi("log(n) - 5")
    with pytest.raises(PhiParseError):
        parse_phi("0")
    with pytest.raises(PhiParseError):
        parse_phi("log(log(n))")  # negative at n = 2


def test_phi_of_one_fallback():
    phi = parse_phi("log(n)")
    assert phi.value(1) == pytest.approx(math.log(2) / 2)
    # a profile already positive at 1 keeps its own value
    assert parse_phi("log(n)+1").value(1) == pytest.approx(1.0)


def test_value_domain_errors():
    phi = parse_phi("log(n)")
    with pytest.raises(PhiDomainError):
        phi.value(0)
    with pytest.raises(PhiDomainError):
        phi.ratio(1)


# ------------------------------------------------------- analytic extremes ---

@pytest.mark.parametrize("text,gamma,delta", [
    ("log(n)", 1, 1),
    ("2*log(n)", 2, 2),
    ("0.5*log(n)", Fraction(1, 2), Fraction(1, 2)),
    ("log(n^3)", 3, 3),                 # log of a power is a scaled log
    ("log(n)^2", "inf", "inf"),
    ("n^0.5", "inf", "inf"),
    ("n", "inf", "inf"),
])
def test_analytic_gamma_delta(text, gamma, delta):
    gd = parse_phi(text).gamma_delta()
    assert gd.provenance == "analytic"
    assert gd.gamma == ExtReal(gamma)
    assert gd.delta == ExtReal(delta)


def test_estimated_provenance_for_mixed_sums():
    gd = parse_phi("log(n)+log(log(n))").gamma_delta()
    assert gd.provenance == "estimated"
    # the true ratio tends to 1 from above
    assert float(gd.delta) >= 1.0
    assert float(gd.gamma) <= 1.4


def test_powerlog_direct():
    phi = PowerLog(Fraction(3, 2), Fraction(0), Fraction(1))
    assert phi.value(10) == pytest.approx(1.5 * math.log(10))
    gd = phi.gamma_delta()
    assert (gd.gamma, gd.delta) == (ExtReal(Fraction(3, 2)),) * 2


@pytest.mark.parametrize("a,b", [(-1, 3), (0, 0), (0, Fraction(1, 2)), (0, 1),
                                 (0, Fraction(3, 2)), (Fraction(1, 2), -2),
                                 (1, 0)])
def test_powerlog_and_monomial_sums_share_the_extremes_rule(a, b):
    a, b, c = Fraction(a), Fraction(b), Fraction(5, 2)
    single = PowerLog(c, a, b).gamma_delta()
    # a lower-order term does not move the extremes of the dominant one
    summed = _gamma_delta_from_monomials({(a, b): c, (a - 1, b): Fraction(7)})
    assert single.provenance == "analytic"
    assert (single.gamma, single.delta) == (summed.gamma, summed.delta)


def test_powerlog_zero_coefficient_is_analytic_zero():
    for a, b in ((0, 0), (0, 1), (1, 0)):
        gd = PowerLog(Fraction(0), Fraction(a), Fraction(b)).gamma_delta()
        assert (gd.gamma, gd.delta, gd.provenance) == (ExtReal(0), ExtReal(0),
                                                       "analytic")


# ----------------------------------------------------------------- table ---

def test_table_phi():
    t = TablePhi([0.5, 1.0, 1.5, 2.0])
    assert t.value(1) == 0.5 and t.value(4) == 2.0
    assert t.horizon == 4
    with pytest.raises(PhiDomainError):
        t.value(5)
    gd = t.gamma_delta()
    assert gd.provenance == "estimated"
    with pytest.raises(PhiDomainError):
        TablePhi([1.0])
    with pytest.raises(PhiDomainError):
        TablePhi([1.0, -2.0, 3.0])


# ------------------------------------------------------------- monotone ---

def test_check_nondecreasing():
    check_nondecreasing(parse_phi("log(n)"), 400)
    with pytest.raises(PlanValidityError):
        check_nondecreasing(TablePhi([1.0, 2.0, 1.5, 3.0]), 4)


# -------------------------------------------------------------- osc log ---

def test_osc_log_validation():
    with pytest.raises(PhiDomainError):
        OscLogPhi(Fraction(2), Fraction(1, 2))
    with pytest.raises(PhiDomainError):
        OscLogPhi(Fraction(0), Fraction(2))


def test_osc_log_gamma_delta_analytic():
    o = OscLogPhi(Fraction(1, 2), Fraction(2))
    gd = o.gamma_delta()
    assert gd.provenance == "analytic"
    assert gd.gamma == ExtReal(2) and gd.delta == ExtReal(Fraction(1, 2))
    oi = OscLogPhi(Fraction(1), INF)
    gdi = oi.gamma_delta()
    assert gdi.gamma == INF and gdi.delta == ExtReal(1)


@pytest.mark.parametrize("delta,gamma", [
    (Fraction(1, 2), Fraction(2)),
    (Fraction(4, 5), Fraction(6, 5)),
    (Fraction(1), ExtReal("inf")),
])
def test_osc_log_nondecreasing_and_bounded(delta, gamma, horizon=6000):
    o = OscLogPhi(delta, gamma)
    prev = o.value(1)
    top = None if gamma == INF else float(gamma)
    for n in range(2, horizon):
        v = o.value(n)
        assert v >= prev - 1e-12, n
        prev = v
        r = v / math.log(n)
        assert r >= float(delta) - 0.35, n  # dips recover within a cycle
        if top is not None and n > 50:
            assert r <= top + 1e-9, n


def test_osc_log_ratio_attains_extremes():
    o = OscLogPhi(Fraction(1, 2), Fraction(2))
    lows, highs = [], []
    for n in range(2, 200_000):
        r = o.ratio(n)
        lows.append(r)
        highs.append(r)
    assert min(lows) <= 0.5 + 0.02
    assert max(highs) >= 2 - 0.02


def test_osc_log_segment_queries():
    o = OscLogPhi(Fraction(1, 2), Fraction(2))
    s, e, mult = o.climb_segment_at_least(100)
    assert s >= 100 and e >= s
    assert o.ratio(e) == pytest.approx(mult, rel=1e-6)
    ls, le, lm = o.low_segment_at_least(100)
    assert ls >= 100 and le >= ls
    assert lm == pytest.approx(0.5)
    assert o.ratio(ls) == pytest.approx(0.5, abs=0.02)


def test_osc_log_infinite_gamma_multipliers_grow():
    o = OscLogPhi(Fraction(1), INF)
    _, e1, m1 = o.climb_segment_at_least(10)
    _, e2, m2 = o.climb_segment_at_least(e1 + 1)
    assert m2 > m1  # climb targets escalate without bound
