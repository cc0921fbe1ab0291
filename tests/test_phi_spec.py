import dataclasses
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurrencelab import (ExtReal, GuardError, INF, OscLogPhi,
                           PhiDomainError, PhiParseError, PlanValidityError,
                           PowerLog, check_nondecreasing, classify_profile,
                           parse_phi)
from recurrencelab import bignum, phi_spec, plan_full_dimension
from recurrencelab.errors import CapacityError
from recurrencelab.extreal import Const, exact_root
from recurrencelab.phi_spec import (ExprPhi, _Add, _atom, _expand,
                                    _least_int_with_log, _Log, _Mul, _Num,
                                    _ONE, _Pow, _Var)


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


BIG = 10 ** 60


@pytest.mark.parametrize("text,gamma", [
    (f"{BIG}^0.5*log(n)", 10 ** 30),    # 10^30 log(n)
    (f"({3 ** 80}*n)^0.5", "inf"),       # 3^40 n^0.5
])
def test_exact_roots_past_float_precision(text, gamma):
    # integer roots past 2^53 are found exactly, not by a float guess
    phi = parse_phi(text)
    gd = phi.gamma_delta()
    assert isinstance(phi, PowerLog) and gd.provenance == "analytic"
    assert gd.gamma == gd.delta == ExtReal(gamma)


def test_an_inexact_root_leaves_the_monomial_form():
    # (2 10^60)^0.5 is irrational: kept exact, but no PowerLog coefficient
    phi = parse_phi(f"(2*{BIG})^0.5")
    assert not isinstance(phi, PowerLog)
    ((c, mono),), rem = _expand(phi.ast, 2, {})
    assert isinstance(c, Const) and mono == _ONE and rem is None
    assert float(c) == pytest.approx(math.sqrt(2) * 10 ** 30)
    gd = phi.gamma_delta()
    assert (gd.gamma, gd.delta, gd.provenance) == (ExtReal(0), ExtReal(0),
                                                   "analytic")


def test_an_integer_power_of_a_sum_expands_to_its_monomials():
    # (log(n) + 1)^2 = log(n)^2 + 2 log(n) + 1, dominated by log(n)^2
    phi = parse_phi("(log(n)+1)^2")
    assert isinstance(phi, ExprPhi)
    L1 = _atom(1)
    assert _expand(phi.ast, 3, {}) == (
        ((1, L1._replace(e=(0, 2))), (2, L1), (1, _ONE)), None)
    gd = phi.gamma_delta()
    assert gd.provenance == "analytic"
    assert gd.gamma == gd.delta == INF


def test_a_monomial_sum_is_analytic_without_a_scan(monkeypatch):
    phi = parse_phi("2*log(n)+1")
    assert isinstance(phi, ExprPhi)

    def raw(self, n):
        raise AssertionError("the leading term decides the extremes")

    monkeypatch.setattr(ExprPhi, "_raw", raw)
    gd = phi.gamma_delta()
    assert gd.provenance == "analytic"
    assert gd.gamma == gd.delta == ExtReal(2)


def test_a_power_of_a_sum_past_16_is_analytic():
    phi = parse_phi("(log(n)+1)^17")
    assert isinstance(phi, ExprPhi)
    gd = phi.gamma_delta()
    assert gd.provenance == "analytic"
    assert gd.gamma == gd.delta == INF


def test_exact_extremes_for_mixed_sums():
    # the ratio tends to 1 from above: 1.21 to 1.24 on [10^4, 10^5]
    gd = parse_phi("log(n)+log(log(n))").gamma_delta()
    assert (gd.gamma, gd.delta, gd.provenance) == (ExtReal(1), ExtReal(1),
                                                   "analytic")


# profile, exact (gamma, delta), and (alpha, beta) -> (dim, case)
EXACT_TABLE = [
    ("log(n)+log(log(n))", (1, 1), {("0.9", "0.9"): (0, None)}),
    ("2^log(n)", ("inf", "inf"), {("0.01", "0.01"): (1, "iii")}),
    ("log(n)^log(log(n))", ("inf", "inf"), {("0.01", "0.01"): (1, "iii")}),
    ("log(2*n)", (1, 1), {("1", "2"): (1, "v"), ("2", "2"): (1, "v")}),
    ("log(n+1)", (1, 1), {("1", "1"): (1, "v")}),
    ("log(n^2+n)", (2, 2), {("1/2", "1/2"): (1, "v"),
                            ("1/3", "1"): (0, None)}),
    ("(log(n)+1)^17", ("inf", "inf"), {("1", "2"): (1, "iii")}),
    ("log(3)*log(n)", None, {("0.9102", "0.9102"): (0, None),
                             ("0.9103", "0.9103"): (1, "v")}),
]


@pytest.mark.parametrize("text,extremes,verdicts", EXACT_TABLE,
                         ids=[row[0] for row in EXACT_TABLE])
def test_exact_extremes_and_verdicts(text, extremes, verdicts):
    phi = parse_phi(text)
    gd = phi.gamma_delta()
    assert gd.provenance == "analytic"
    if extremes is None:   # log 3, kept exact
        assert gd.gamma.is_irrational and gd.gamma == gd.delta
        assert float(gd.gamma) == math.log(3)
    else:
        assert (gd.gamma, gd.delta) == tuple(map(ExtReal, extremes))
    for (alpha, beta), want in verdicts.items():
        cls = classify_profile(phi, alpha, beta)
        assert (cls.dim, cls.case_tag, cls.provenance) == want + ("analytic",)


def test_a_cancelling_leading_constant_is_a_guard_error():
    # log 10 - log 5 - log 2 is 0, so the leading term is log(n); no
    # interval up to the cap excludes 0 from the coefficient of n
    text = "(log(10)*n)+(log(0.2)*n)+(log(0.5)*n)+log(n)"
    phi = parse_phi(text)
    with pytest.raises(GuardError, match=r"leading term of \(log\(10\)"):
        phi.gamma_delta()


def test_a_vanishing_leading_term_takes_more_terms(monkeypatch):
    # log(1 + 2^-n) tends to 0 and log(1 + 2^-n)^n to 1: the calculus
    # expands past the constant 1 the first order gives
    orders, real = [], phi_spec._deeper
    monkeypatch.setattr(phi_spec, "_deeper",
                        lambda k: orders.append(k) or real(k))
    for text, lim in (("log(0.5^n+1)+1", 0), ("(1+0.5^n)^n+log(n)", 1)):
        gd = parse_phi(text).gamma_delta()
        assert (gd.gamma, gd.delta) == (ExtReal(lim), ExtReal(lim))
    assert orders


def test_an_exponent_past_the_term_cap_is_a_guard_error():
    # (n + log(n) + 1)^5 has 21 terms that do not vanish, all of them
    # needed for the exponent of 2^(...)
    with pytest.raises(GuardError, match="more than 16 terms"):
        parse_phi("2^((n+log(n)+1)^5)").gamma_delta()
    gd = parse_phi("2^((n+log(n)+1)^3)").gamma_delta()   # 10 terms
    assert gd.gamma == gd.delta == INF


def test_a_constant_written_two_ways_cancels_exactly():
    # log(0.5) is -log(2), and 2^0.5 2^0.5 is 2: both cancel structurally
    gd = parse_phi("(log(2)*n)+(log(0.5)*n)+log(n)").gamma_delta()
    assert (gd.gamma, gd.delta) == (ExtReal(1), ExtReal(1))
    phi = parse_phi("2^0.5*2^0.5*log(n)")
    assert isinstance(phi, PowerLog) and phi.coef == 2


@pytest.mark.parametrize("text", ["log(n)+log(log(n))", "log(3)*log(n)",
                                  "2^log(n)", "(log(n)+1)^17",
                                  "n^(1+0.5^n)", "log(n)^log(log(n))"])
def test_extremes_evaluate_phi_a_handful_of_times(monkeypatch, text):
    # parse_phi reads phi(2); the extremes read no value at all
    calls, real = [], ExprPhi._raw
    monkeypatch.setattr(ExprPhi, "_raw",
                        lambda self, n: calls.append(n) or real(self, n))
    parse_phi(text).gamma_delta()
    assert len(calls) <= 2


def _reference_normalize(node):
    """The monomial reduction the extremes once came from: a dict
    {(n_exp, log_exp): coef}, or None where it gave up."""
    zero = Fraction(0)

    def mul(a, b):
        out = {}
        for (a1, b1), c1 in a.items():
            for (a2, b2), c2 in b.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, zero) + c1 * c2
        return out

    if isinstance(node, _Num):
        return {(zero, zero): node.value}
    if isinstance(node, _Var):
        return {(Fraction(1), zero): Fraction(1)}
    if isinstance(node, _Log):
        inner = _reference_normalize(node.child)
        if inner is None or len(inner) != 1:
            return None
        ((a, b), c), = inner.items()
        return {(zero, Fraction(1)): a} if c == 1 and b == 0 and a > 0 else None
    if isinstance(node, (_Add, _Mul)):
        l, r = _reference_normalize(node.left), _reference_normalize(node.right)
        if l is None or r is None:
            return None
        if isinstance(node, _Mul):
            return mul(l, r)
        out = dict(l)
        for key, c in r.items():
            out[key] = out.get(key, zero) + c
        return out
    e_form = _reference_normalize(node.exp)
    base = _reference_normalize(node.base)
    if e_form is None or base is None or set(e_form) - {(zero, zero)}:
        return None
    e = e_form.get((zero, zero), zero)
    if len(base) > 1:
        if e.denominator == 1 and 0 <= e <= 16:
            out = {(zero, zero): Fraction(1)}
            for _ in range(int(e)):
                out = mul(out, base)
            return out
        return None
    ((a, b), c), = base.items()
    ce = exact_root(c, e)
    return None if ce is None else {(a * e, b * e): ce}


_NUMBERS = ["0.5", "1", "2", "3", "0.25", "4", "9"]
_EXPONENTS = ["0", "0.5", "1", "1.5", "2", "3"]
_monomials = st.builds("{}*n^{}*log(n)^{}".format, st.sampled_from(_NUMBERS),
                       st.sampled_from(_EXPONENTS),
                       st.sampled_from(_EXPONENTS))
_profiles = st.recursive(_monomials, lambda inner: st.one_of(
    st.builds("({})+({})".format, inner, inner),
    st.builds("({})*({})".format, inner, inner),
    st.builds("({})^{}".format, inner,
              st.sampled_from(["0.5", "2", "3", "1.5", "0.25"]))),
    max_leaves=5)


@settings(max_examples=300, deadline=None)
@given(_profiles)
def test_the_calculus_keeps_every_extreme_the_monomials_decided(text):
    monos = _reference_normalize(phi_spec._Parser(text).parse())
    live = {k: c for k, c in (monos or {}).items() if c != 0}
    if not live:
        return   # the monomials did not decide this one
    phi = parse_phi(text)
    gd = phi.gamma_delta()
    (a, b) = max(live)
    want = phi_spec._monomial_extremes(a, b, live[(a, b)])
    assert (gd.gamma, gd.delta, gd.provenance) == (want.gamma, want.delta,
                                                   "analytic")
    # a single monomial stays the PowerLog it was, parameter for parameter
    if len(live) == 1:
        ((a, b), c), = live.items()
        assert phi == PowerLog(c, a, b, source=text)
    else:
        assert isinstance(phi, ExprPhi)


def test_powerlog_direct():
    phi = PowerLog(Fraction(3, 2), Fraction(0), Fraction(1))
    assert phi.value(10) == pytest.approx(1.5 * math.log(10))
    gd = phi.gamma_delta()
    assert (gd.gamma, gd.delta) == (ExtReal(Fraction(3, 2)),) * 2


class _PerCall(phi_spec.PhiSpec):
    """A PowerLog's _raw with each parameter converted to float on every
    call, as the profile did before it kept the floats."""

    def __init__(self, phi):
        self.phi = phi

    def _raw(self, n):
        phi = self.phi
        ln = math.log(n)
        val = float(phi.coef)
        if phi.n_exp:
            val *= math.exp(float(phi.n_exp) * ln)
        if phi.log_exp:
            if ln == 0.0:
                return 0.0 if phi.log_exp > 0 else math.inf
            val *= ln ** float(phi.log_exp)
        return val


def _outcome(f, n):
    """f(n) bit for bit, or the error it raises."""
    try:
        return f(n).hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def test_powerlog_values_are_the_per_call_conversion():
    ns = (list(range(1, 200)) + [10 ** k + d for k in range(3, 13)
                                  for d in (-1, 0, 1)]
          + [2 ** 64 + 1, 10 ** 30, 3 ** 400, 10 ** 400])
    fracs = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(7, 10),
             Fraction(-1, 2), Fraction(3, 2), Fraction(1, 10 ** 400),
             Fraction(-1, 10 ** 400))
    profiles = [PowerLog(c, a, b) for c in (Fraction(1), Fraction(5, 2),
                                            Fraction(1, 7))
                for a in fracs for b in fracs]
    for phi in profiles:
        ref = _PerCall(phi)
        for n in ns:
            assert _outcome(phi._raw, n) == _outcome(ref._raw, n), (phi, n)
            assert _outcome(phi.value, n) == _outcome(ref.value, n), (phi, n)
    # a parameter past float range: value() overflows at every n, as before
    for phi in (PowerLog(Fraction(10 ** 400), Fraction(0), Fraction(1)),
                PowerLog(Fraction(1), Fraction(1), Fraction(10 ** 400))):
        assert phi._floats is None
        for n in ns:
            with pytest.raises(OverflowError):
                phi.value(n)
            with pytest.raises(OverflowError):
                _PerCall(phi).value(n)


def test_powerlog_floats_are_no_field():
    phi = PowerLog(Fraction(3, 2), Fraction(0), Fraction(1))
    assert phi._floats == (1.5, None, 1.0)
    assert phi == PowerLog(Fraction(3, 2), Fraction(0), Fraction(1))
    assert "_floats" not in repr(phi)
    assert [f.name for f in dataclasses.fields(phi)] == [
        "coef", "n_exp", "log_exp", "source"]


def _monomial_node(c, a, b):
    return _Mul(_Mul(_Num(c), _Pow(_Var(), _Num(a))),
                _Pow(_Log(_Var()), _Num(b)))


@pytest.mark.parametrize("a,b", [(-1, 3), (0, 0), (0, Fraction(1, 2)), (0, 1),
                                 (0, Fraction(3, 2)), (Fraction(1, 2), -2),
                                 (1, 0)])
def test_powerlog_and_monomial_sums_share_the_extremes_rule(a, b):
    a, b, c = Fraction(a), Fraction(b), Fraction(5, 2)
    single = PowerLog(c, a, b).gamma_delta()
    # a lower-order term does not move the extremes of the dominant one
    summed = ExprPhi(_Add(_monomial_node(c, a, b),
                          _monomial_node(Fraction(7), a - 1, b)),
                     "sum").gamma_delta()
    assert single.provenance == summed.provenance == "analytic"
    assert (single.gamma, single.delta) == (summed.gamma, summed.delta)


def test_powerlog_zero_coefficient_is_analytic_zero():
    for a, b in ((0, 0), (0, 1), (1, 0)):
        gd = PowerLog(Fraction(0), Fraction(a), Fraction(b)).gamma_delta()
        assert (gd.gamma, gd.delta, gd.provenance) == (ExtReal(0), ExtReal(0),
                                                       "analytic")


# ------------------------------------------------------------- monotone ---

def test_check_nondecreasing():
    check_nondecreasing(parse_phi("log(n)"))
    # log(5) + n log(0.9) decreases from the start
    with pytest.raises(PlanValidityError, match="n=2 .* n=3 "):
        check_nondecreasing(parse_phi("log(5*0.9^n)"))


@pytest.fixture
def scans(monkeypatch):
    """The profiles whose values check_nondecreasing reads (the scan)."""
    seen, real = [], phi_spec.PhiSpec.value

    def spy(self, n):
        if sys._getframe(1).f_code.co_name == "check_nondecreasing":
            seen.append(self)
        return real(self, n)

    monkeypatch.setattr(phi_spec.PhiSpec, "value", spy)
    return seen


def _scan_verdict(phi, monkeypatch):
    """check_nondecreasing with the shape verdict withheld: the scan's."""
    with monkeypatch.context() as m:
        m.setattr(type(phi), "nondecreasing_by_shape", lambda self: False)
        try:
            check_nondecreasing(phi)
        except PlanValidityError:
            return False
    return True


def test_the_shape_verdict_is_the_scans(monkeypatch, scans):
    # a PowerLog with a positive coefficient and nonnegative exponents,
    # and every OscLogPhi, is nondecreasing by its shape, which the scan
    # confirms; check_nondecreasing then reads no value
    rng = random.Random(7)
    profiles = [PowerLog(Fraction(rng.randrange(1, 400), rng.randrange(1, 40)),
                         Fraction(rng.randrange(0, 30), rng.randrange(1, 12)),
                         Fraction(rng.randrange(0, 60), rng.randrange(1, 12)))
                for _ in range(40)]
    profiles += [PowerLog(Fraction(1), Fraction(0), Fraction(0))]
    for _ in range(12):
        delta = Fraction(rng.randrange(1, 40), rng.randrange(1, 20))
        gamma = (INF if rng.random() < 0.25
                 else delta + Fraction(rng.randrange(1, 40), rng.randrange(1, 20)))
        profiles.append(OscLogPhi(delta, gamma))
    for phi in profiles:
        assert phi.nondecreasing_by_shape(), phi
        assert _scan_verdict(phi, monkeypatch), phi
    scans.clear()
    for phi in profiles:
        check_nondecreasing(phi)
    assert scans == []


def test_a_profile_with_a_negative_exponent_is_still_scanned(scans):
    # log(n)^2 / n^(1/100) rises over the window, log(n)^2 / n^(1/2) peaks
    # near n = e^4 and falls from n = 55 on; an ExprPhi is always scanned
    rising = PowerLog(Fraction(1), Fraction(-1, 100), Fraction(2))
    falling = PowerLog(Fraction(1), Fraction(-1, 2), Fraction(2))
    expr = parse_phi("log(n)+log(log(n))")
    for phi in (rising, falling, expr):
        assert not phi.nondecreasing_by_shape()
    check_nondecreasing(rising)
    with pytest.raises(PlanValidityError, match="n=55 .* n=56 "):
        check_nondecreasing(falling)
    check_nondecreasing(expr)
    assert set(map(id, scans)) == {id(rising), id(falling), id(expr)}


# ----------------------------------------------------- inverse of log ---

def _log_inverse_inputs():
    """Integers around 2^53 and 2^1024, up to 10^400, and the ties of
    53-bit rounding: m 2^k plus or minus 2^(k-1), m even and odd."""
    rng = random.Random(11)
    ns = [1, 2, 3, 10 ** 6, 2 ** 52, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1,
          2 ** 53 + 2, 2 ** 53 + 3, 10 ** 17, 2 ** 1024 - 2 ** 970 - 1,
          2 ** 1024 - 2 ** 970, 2 ** 1024 - 1, 2 ** 1024, 10 ** 400]
    ns += [rng.randrange(2, 10 ** rng.randrange(2, 401)) for _ in range(60)]
    for k in (1, 2, 30, 970, 971, 972, 1300):
        for m in (2 ** 52, 2 ** 52 + 1, 2 ** 53 - 2, 2 ** 53 - 1,
                  rng.randrange(2 ** 52, 2 ** 53)):
            ns += [(m << k) + d for d in (-(1 << (k - 1)), 1 << (k - 1))]
    return ns


def test_least_int_with_log_is_the_least():
    # y on a value math.log takes, and one double past it: the answer
    # reaches y and the integer before it does not
    for n in _log_inverse_inputs():
        y0 = math.log(n)
        for y in (y0, math.nextafter(y0, math.inf)):
            r = _least_int_with_log(y)
            assert math.log(r) >= y and (r == 1 or math.log(r - 1) < y), n


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


def _first_leg(o, kind, n):
    """(start, end, mult) of the first `kind` leg of o's leg walk from n."""
    start, end, _, mult, _ = next(leg for leg in o._legs_from(n)
                                  if leg[2] == kind)
    return start, end, mult


def test_osc_log_segment_queries():
    o = OscLogPhi(Fraction(1, 2), Fraction(2))
    s, e, mult = _first_leg(o, "climb", 100)
    assert s >= 100 and e >= s
    assert o.ratio(e) == pytest.approx(mult, rel=1e-6)
    ls, le, lm = _first_leg(o, "low", 100)
    assert ls >= 100 and le >= ls
    assert lm == pytest.approx(0.5)
    assert o.ratio(ls) == pytest.approx(0.5, abs=0.02)


def test_osc_log_infinite_gamma_multipliers_grow():
    o = OscLogPhi(Fraction(1), INF)
    _, e1, m1 = _first_leg(o, "climb", 10)
    _, e2, m2 = _first_leg(o, "climb", e1 + 1)
    assert m2 > m1  # climb targets escalate without bound


def test_osc_log_targets_equal_as_doubles():
    # mult = gamma and delta are one double, so each boundary e^(held/delta)
    # rounds to about the climb's end: the next low leg starts just past
    # the climb, with no hold leg, whether or not the boundary needed the
    # guard that moves it past the climb
    o = OscLogPhi("1", "1.00000000000000000001")
    assert o._df == o._gf
    for n in (2, 10 ** 9):
        o.segment_for(n)
    kinds = [seg[2] for seg in o._segments]
    assert "hold" not in kinds
    assert set(kinds[::2]) == {"low"} and set(kinds[1::2]) == {"climb"}
    for climb, low in zip(o._segments[1::2], o._segments[2::2]):
        assert low[0] == climb[1] + 1
        assert o.value(climb[1]) <= o.value(low[0])
    # some boundaries are the guard's, others exp_ceil's
    by_ceiling = [bignum.exp_ceil(o._gf * math.log(climb[1]) / o._df)
                  == low[0]
                  for climb, low in zip(o._segments[1::2], o._segments[2::2])]
    assert any(by_ceiling) and not all(by_ceiling)


def test_a_boundary_past_the_segment_cap_raises_at_every_lookup():
    # delta = 1/1000: the first boundary c has 1205 digits, the second
    # about 1.2 million
    o = OscLogPhi("1/1000", "1")
    c = o.segment_for(17)[1] + 1
    assert len(str(c)) == 1205
    climb_end = 8 * c
    assert o.segment_for(climb_end)[:3] == (4 * c + 1, climb_end, "climb")
    for _ in range(2):
        with pytest.raises(CapacityError, match="digit cap of 100000"):
            o.segment_for(climb_end + 1)
    assert o.value(climb_end) == math.log(climb_end)


def _closed_eagerly(delta, gamma, cycles, digit_cap):
    """The segments of the first cycles of OscLogPhi(delta, gamma), each
    cycle closed as it opens, from the construction's definition; it stops
    before the first closing boundary past digit_cap."""
    df = float(Fraction(delta))
    gf = None if gamma == "inf" else float(Fraction(gamma))
    segments, s = [], 2
    for k in range(1, cycles + 1):
        end_low = 4 * s
        mult = gf if gf is not None else df + k
        held = mult * math.log(2 * end_low)
        try:
            catch = bignum.exp_ceil(held / df, digit_cap=digit_cap)
        except CapacityError:
            break
        segments += [(s, end_low, "low", df, None),
                     (end_low + 1, 2 * end_low, "climb", mult, None)]
        if catch > 2 * end_low + 1:
            segments.append((2 * end_low + 1, catch - 1, "hold", None, held))
        s = catch
    return segments


@pytest.mark.parametrize("delta,gamma", [("4/5", "6/5"), ("1", "3"),
                                         ("1/2", "2"), ("1/2", "inf")])
def test_lazily_closed_profiles_agree_with_eagerly_closed_ones(delta, gamma):
    # the first 12 cycles, or as many as close within the default digit cap
    eager = _closed_eagerly(delta, gamma, 12, bignum.DEFAULT_DIGIT_CAP)
    assert len(eager) >= 12
    points = sorted({n for seg in eager for b in seg[:2]
                     for n in (b - 1, b, b + 1)
                     if 2 <= n <= eager[-1][1]})
    for order in (points, points[::-1]):
        o = OscLogPhi(delta, gamma)
        for n in order:
            seg = next(g for g in eager if g[0] <= n <= g[1])
            assert o.segment_for(n) == seg, n
            want = seg[4] if seg[2] == "hold" else seg[3] * math.log(n)
            assert o.value(n) == want, n


def test_a_plan_closes_no_cycle_past_the_last_one_a_lookup_reached(
        monkeypatch):
    # --osc 4/5 6/5 5/6, 5/4 count 120: the lookups reach into cycle 20
    # but not past its climb, so its closing boundary, an integer of about
    # 10 000 digits, is never computed
    phi = OscLogPhi("4/5", "6/5")
    closed, reached, real = [], [], bignum.exp_ceil

    def spy(*args, **kwargs):
        value = real(*args, **kwargs)
        if sys._getframe(1).f_globals["__name__"] == phi_spec.__name__:
            closed.append(value)
        return value

    monkeypatch.setattr(bignum, "exp_ceil", spy)
    for name in ("segment_for",):
        def lookup(*args, real_lookup=getattr(phi, name), **kwargs):
            seg = real_lookup(*args, **kwargs)
            reached.append(seg[0])
            return seg
        monkeypatch.setattr(phi, name, lookup)
    plan_full_dimension(phi, ExtReal("5/6"), ExtReal("5/4"), count=120)
    # a cycle is closed only when a lookup lands past its climb
    climbs = [seg for seg in phi._segments if seg[2] == "climb"]
    assert closed == [seg[1] + 1 for seg in phi._segments
                      if seg[2] == "hold"]
    assert len(closed) == len(climbs) - 1
    assert all(climb[1] < max(reached) for climb in climbs[:-1])
    assert max(reached) <= climbs[-1][1]
    assert len(str(closed[-1])) < 7_000


# ------------------------------------------ expansions against the loop ---

def loop_gamma_delta(phi, horizon):
    """Sup and inf of phi.ratio(n) over the top decade of [2, horizon], a
    loop over n: it bounds nothing, but it raises where phi fails."""
    lo = max(2, horizon // 10)
    ratios = [phi.ratio(n) for n in range(lo, horizon + 1)]
    return Fraction(max(ratios)), Fraction(min(ratios))


def _mono_log_value(mono, n):
    """log of the monomial at n, as a float."""
    logs = [float(n)]
    for _ in range(len(mono.e)):
        logs.append(math.log(logs[-1]))
    return (sum(float(c) * math.exp(_mono_log_value(m, n))
                for c, m in mono.logs)
            + sum(float(e) * logs[k + 1] for k, e in enumerate(mono.e)))


def expansion_gap(phi, n, k):
    """(|phi(n) - the first k terms at n|, the remainder's monomial at n,
    or 0.0 for a whole expansion)."""
    terms, rem = _expand(phi.ast, k, {})
    approx = sum(float(c) * math.exp(_mono_log_value(m, n)) for c, m in terms)
    bound = 0.0 if rem is None else math.exp(_mono_log_value(rem, n))
    return abs(phi.value(n) - approx), bound


N, LOG_N = _Var(), _Log(_Var())

# trees that between them cover every node: numbers, n, log of n and of a
# subtree, sums, products, and powers with base n, with a subtree base and
# with a zero base
SCAN_TREES = {
    "log(n)+log(log(n))": _Add(LOG_N, _Log(LOG_N)),
    "3/2*n^(1/2)+log(n)": _Add(_Mul(_Num(Fraction(3, 2)),
                                    _Pow(N, _Num(Fraction(1, 2)))), LOG_N),
    "(log(n)+1)^1.5*log(log(n)+n)": _Mul(
        _Pow(_Add(LOG_N, _Num(Fraction(1))), _Num(Fraction(3, 2))),
        _Log(_Add(LOG_N, N))),
    "0^log(n)+n^log(log(n))": _Add(_Pow(_Num(Fraction(0)), LOG_N),
                                   _Pow(N, _Log(LOG_N))),
}

# the depths at which each expansion is read against phi
SCAN_HORIZONS = [4548, 4549, 4551, 9102, 20]


@pytest.mark.parametrize("horizon", SCAN_HORIZONS)
@pytest.mark.parametrize("source", sorted(SCAN_TREES))
def test_block_scan_matches_the_loop(source, horizon):
    """Four terms of each tree's expansion close in on phi from n =
    horizon to horizon^2 and horizon^4, where they meet it within their
    remainder's monomial (that bound holds only for n large enough); a
    whole expansion meets it to rounding at every n."""
    phi = ExprPhi(SCAN_TREES[source], source)
    gaps = []
    for n in (horizon, horizon ** 2, horizon ** 4):
        gap, bound = expansion_gap(phi, n, 4)
        gaps.append(gap / phi.value(n))
    if bound == 0.0:
        assert max(gaps) <= 1e-12
    else:
        assert gaps[0] > gaps[1] > gaps[2]
        assert gap <= bound
    gd = phi.gamma_delta()
    want = ExtReal(1) if source == "log(n)+log(log(n))" else INF
    assert (gd.gamma, gd.delta, gd.provenance) == (want, want, "analytic")


def test_block_scan_matches_the_loop_on_the_default_horizon():
    # D1 is exactly log(n) + log(log(n)): gamma = delta = 1, although the
    # ratio over [10^4, 10^5] runs from 1.21 to 1.24
    phi = parse_phi("log(n)+log(log(n))")
    L1, L2 = _atom(1), _atom(2)
    assert _expand(phi.ast, 4, {}) == (((1, L1), (1, L2)), None)
    assert expansion_gap(phi, 10 ** 5, 4)[0] <= 1e-12
    sup, inf_ = loop_gamma_delta(phi, 10 ** 5)
    assert 1.2 < inf_ < sup < 1.25
    assert phi.gamma_delta().gamma == ExtReal(1)


def test_block_scan_evaluates_each_subtree_once_per_block(monkeypatch):
    # per order k each distinct subtree is expanded once: D1's two copies
    # of log(n) share one expansion
    calls, real = [], phi_spec._expand_once
    monkeypatch.setattr(phi_spec, "_expand_once",
                        lambda node, k, memo: calls.append((node, k))
                        or real(node, k, memo))
    ExprPhi(SCAN_TREES["log(n)+log(log(n))"], "D1").gamma_delta()
    assert len(calls) == len(set(calls)) == 4
    assert calls.count((LOG_N, 1)) == 1


def raising_n(phi, scan, horizon):
    """(type, message, n) of what scan(phi, horizon) raises, n the last
    n phi.ratio was asked for."""
    seen, ratio = [], phi.ratio
    phi.ratio = lambda n: seen.append(n) or ratio(n)
    try:
        with pytest.raises(Exception) as exc:
            scan(phi, horizon)
    finally:
        del phi.ratio
    return type(exc.value), str(exc.value), seen[-1] if seen else None


def failing_profiles():
    """(profile, horizon, extremes): extremes are None where phi fails for
    every large n, so the extremes raise too."""
    return [
        (ExprPhi(_Log(_Log(LOG_N)), "log(log(log(n)))"), 20, 0),
        (parse_phi("n^1000+log(log(n))"), 100_000, "inf"),
        (ExprPhi(_Add(_Pow(_Num(Fraction(0)), _Num(Fraction(0))), LOG_N),
                 "0^0+log(n)"), 300, None),   # not finite at n = 30
        # 3*0.9999^n drops to 1 at n = 10 986: the log fails value()'s
        # positivity there, its root goes negative
        (parse_phi("log(3*0.9999^n)"), 20_000, None),
        (parse_phi("log(3*0.9999^n)^0.5"), 20_000, None),
    ]


@pytest.mark.parametrize("phi,horizon,extremes", failing_profiles(),
                         ids=["logloglog", "overflow", "zero-power",
                              "table-zero", "table-short"])
def test_a_failing_block_raises_what_the_loop_does(phi, horizon, extremes):
    """Where the loop fails for every large n, the extremes raise its
    PhiDomainError; where it fails only at small n or past float range,
    they are still exact."""
    loop_error = raising_n(phi, loop_gamma_delta, horizon)[0]
    if extremes is None:
        assert loop_error is PhiDomainError
        with pytest.raises(PhiDomainError):
            phi.gamma_delta()
    else:
        assert loop_error in (PhiDomainError, OverflowError)
        gd = phi.gamma_delta()
        assert gd.gamma == gd.delta == ExtReal(extremes)


def test_the_failures_named_for_the_scan():
    with pytest.raises(PhiParseError):
        parse_phi("log(log(log(n)))")
    with pytest.raises(PhiDomainError,
                       match=r"^log\(3\*0\.9999\^n\) is eventually negative$"):
        parse_phi("log(3*0.9999^n)").gamma_delta()
    with pytest.raises(PhiDomainError, match=r"^0 under \^"):
        failing_profiles()[2][0].gamma_delta()
