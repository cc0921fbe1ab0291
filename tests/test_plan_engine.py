import hashlib
import itertools
import math
import random
import sys
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recurrencelab import (ExtReal, GuardError, INF, InsertionPlan, OscLogPhi,
                           PhiSpec, RefusalError, check_plan_conditions,
                           classify_profile, classify_thresholds, dichotomy, find_ratio_witness, parse_phi,
                           plan_full_dimension)
from recurrencelab import bignum, phi_spec, plan_engine
from recurrencelab.errors import CapacityError, PhiDomainError, SearchCapError
from recurrencelab.plan_engine import (WITNESS_CAP, _floor_sqrt, _log_rungs,
                                       _truncated, _unit_steps)


# ------------------------------------------------------------- dichotomy ---

def test_dichotomy_interior_points():
    # full dimension exactly when alpha >= 1/gamma and beta >= 1/delta
    assert dichotomy(1, 2, 1, 1) == 1
    assert dichotomy(Fraction(1, 2), 2, 2, 1) == 1
    assert dichotomy(Fraction(1, 3), 2, 2, 1) == 0     # alpha < 1/gamma
    assert dichotomy(1, Fraction(3, 2), 1, Fraction(1, 2)) == 0  # beta < 1/delta
    assert dichotomy(1, 2, 1, Fraction(1, 2)) == 1


def test_dichotomy_boundary_is_inclusive():
    assert dichotomy(Fraction(1, 2), 2, 2, Fraction(1, 2)) == 1
    assert dichotomy(Fraction(1, 2), Fraction(2), 2, Fraction(1, 2)) == 1
    # a hair below either threshold drops to zero
    eps = Fraction(1, 10 ** 9)
    assert dichotomy(Fraction(1, 2) - eps, 2, 2, Fraction(1, 2)) == 0
    assert dichotomy(Fraction(1, 2), 2 - eps, 2, Fraction(1, 2)) == 0


def test_dichotomy_reciprocal_conventions():
    # 1/inf = 0: any alpha passes; 1/0 = inf: only beta = inf passes
    assert dichotomy(0, INF, INF, 0) == 1
    assert dichotomy(0, 100, INF, 0) == 0
    assert dichotomy(0, INF, INF, 5) == 1
    assert dichotomy(Fraction(1, 5), 10, 5, Fraction(1, 10)) == 1


def test_dichotomy_validates_order():
    with pytest.raises(ValueError):
        dichotomy(2, 1, 1, 1)        # alpha > beta
    with pytest.raises(ValueError):
        dichotomy(1, 2, 1, 2)        # delta > gamma


# ------------------------------------------------------------------- A/B ---

def compute_AB(alpha, beta, gamma, delta):
    """The two case-splitting products A = alpha*gamma, B = beta*delta of
    the classification table, over the extended reals."""
    return plan_engine._products(*map(ExtReal, (alpha, beta, gamma, delta)))


def test_compute_AB_finite():
    A, B = compute_AB(1, 2, 2, 1)
    assert (A, B) == (ExtReal(2), ExtReal(2))
    A, B = compute_AB(Fraction(1, 2), Fraction(5, 2), 2, Fraction(1, 2))
    assert (A, B) == (ExtReal(1), ExtReal(Fraction(5, 4)))


def test_compute_AB_infinite_extremes():
    # infinite extreme: 1 if the rate is zero, infinite otherwise
    A, B = compute_AB(0, 2, INF, INF)
    assert A == ExtReal(1) and B == INF
    A, B = compute_AB(Fraction(1, 2), 3, INF, INF)
    assert A == INF and B == INF


def test_compute_AB_guards():
    with pytest.raises(GuardError):
        compute_AB(0, 1, 2, 1)        # zero rate, finite extreme
    with pytest.raises(GuardError):
        compute_AB(1, INF, 2, 1)      # infinite rate, finite extreme
    with pytest.raises(GuardError):
        compute_AB(0, INF, INF, 1)    # B side: infinite rate, finite extreme
    with pytest.raises(GuardError):
        compute_AB(1, 2, 0, 0)        # gamma = 0 with finite rate


# -------------------------------------------------------- classification ---

def test_classification_cases_and_exclusivity():
    cls = classify_thresholds(INF, INF, 1, 1)
    assert cls.case_tag == "i" and cls.dim == 1

    cls = classify_thresholds(1, INF, 1, 1)
    assert cls.case_tag == "ii"

    # beta = inf takes precedence over the product table
    cls = classify_thresholds(Fraction(1, 2), INF, INF, 2)
    assert cls.case_tag == "ii"

    cls = classify_thresholds(Fraction(1, 2), 3, INF, INF)
    assert cls.case_tag == "iii"
    assert cls.A == INF and cls.B == INF

    cls = classify_thresholds(1, 2, 2, 1)
    assert cls.case_tag == "v"
    assert cls.A == ExtReal(2) and cls.B == ExtReal(2)
    assert cls.C == ExtReal(1)

    # oscillating ratio with alpha*gamma > beta*delta: B < A
    cls = classify_thresholds(2, Fraction(5, 2), 2, Fraction(1, 2))
    assert cls.case_tag == "vi"
    assert cls.A == ExtReal(4)
    assert cls.B == ExtReal(Fraction(5, 4))
    # interpolation line through (delta, B) and (gamma, A), exact
    C, D = cls.C.fraction, cls.D.fraction
    assert C * Fraction(1, 2) + D == Fraction(5, 4)
    assert C * 2 + D == 4


def test_classification_case_iv():
    # zero rate against an unbounded ratio: A = 1 while B = inf
    cls = classify_thresholds(0, 1, INF, INF)
    assert cls.case_tag == "iv"
    assert cls.A == ExtReal(1) and cls.B == INF
    assert cls.dim == 1


def test_classification_refuses_nothing_but_tags_dim_zero():
    cls = classify_thresholds(Fraction(1, 3), 2, 2, 1)
    assert cls.dim == 0 and cls.case_tag is None


def test_no_classification_reaches_a_ladder_guard():
    # every valid tuple over the grid classifies without a GuardError, and
    # the preconditions of the case ladders hold exactly: case v's log
    # ladder needs C >= 1 and delta > 0, case iii a positive lower rate
    grid = [ExtReal(v) for v in (0, Fraction(1, 3), Fraction(1, 2), 1, 2, 3,
                                 INF)]
    pairs = [(lo, hi) for lo in grid for hi in grid if lo <= hi]
    tags = []
    for (alpha, beta), (delta, gamma) in itertools.product(pairs, pairs):
        cls = classify_thresholds(alpha, beta, gamma, delta)
        tags.append(cls.case_tag)
        if cls.case_tag == "v":
            assert cls.C >= ExtReal(1) and cls.delta > ExtReal(0), cls
        elif cls.case_tag == "iii":
            assert cls.alpha > ExtReal(0), cls
    assert len(tags) == 784
    assert tags.count("v") > 0 and tags.count("iii") > 0


def test_classify_profile_reads_extremes():
    cls = classify_profile(parse_phi("log(n)"), 1, 2)
    assert cls.gamma == ExtReal(1) and cls.delta == ExtReal(1)
    assert cls.provenance == "analytic"
    assert cls.dim == 1 and cls.case_tag == "v"


def test_classification_json_shape():
    data = classify_thresholds(1, 2, 2, 1).to_json_dict()
    assert data["dim"] == 1 and data["case"] == "v"
    assert data["A"] == 2 and data["B"] == 2 and data["C"] == 1


# --------------------------------------------------------------- witness ---

def test_find_ratio_witness_upper_log():
    phi = parse_phi("log(n)")
    n = find_ratio_witness(phi, 1.0, 10, tol=0.01)
    assert n >= 10
    assert phi.ratio(n) > 1.0 - 0.01


def test_find_ratio_witness_osc_upper_and_lower():
    o = OscLogPhi(Fraction(1, 2), Fraction(2))
    up = find_ratio_witness(o, 2.0, 50, tol=0.05)
    assert up >= 50 and o.ratio(up) > 1.95
    lo = find_ratio_witness(o, 0.5, 50, tol=0.05, eval_shift=1)
    assert lo >= 50 and o.ratio(lo + 1) < 0.55


def test_find_ratio_witness_threshold_mode():
    # unbounded ratio: ask for a point exceeding a hard threshold
    phi = parse_phi("log(n)^2")
    n = find_ratio_witness(phi, math.inf, 5, threshold=3.0)
    assert phi.ratio(n) >= 3.0


def test_a_missed_first_candidate_at_min_n_is_read_once(monkeypatch):
    # log(n)^2 has no candidate of its own: it names min_n = 5, which
    # misses ratio 3, and the scan goes on from 6 to the witness 21
    reads, real = [], PhiSpec.ratio
    monkeypatch.setattr(PhiSpec, "ratio",
                        lambda phi, n: reads.append(n) or real(phi, n))
    assert find_ratio_witness(parse_phi("log(n)^2"), math.inf, 5,
                              threshold=3.0) == 21
    assert reads == list(range(5, 22))


def test_first_candidate_is_tested_past_the_cap():
    phi = parse_phi("log(n)^2")
    assert find_ratio_witness(phi, math.inf, 10 ** 15, threshold=3.0) == 10 ** 15
    # constant ratio: the first candidate hits the finite target too
    assert find_ratio_witness(parse_phi("2*log(n)"), 2, 10 ** 40,
                              tol=0.01) == 10 ** 40


def test_missed_first_candidate_past_the_cap_raises():
    # the scan still stops at WITNESS_CAP once the first candidate misses
    with pytest.raises(SearchCapError):
        find_ratio_witness(parse_phi("log(n)"), 2, WITNESS_CAP + 1, tol=0.01)
    # log(n)^2 first exceeds ratio 21 near 1.3e9, just past the cap
    with pytest.raises(SearchCapError):
        find_ratio_witness(parse_phi("log(n)^2"), math.inf, WITNESS_CAP + 1,
                           threshold=21.0)


def test_unevaluable_first_candidate_raises_like_a_scanned_one():
    with pytest.raises(PhiDomainError):
        # 5*0.9^n underflows to 0 long before n = WITNESS_CAP + 1
        find_ratio_witness(parse_phi("log(5*0.9^n)"), 1, WITNESS_CAP + 1,
                           tol=0.1)


def _first_leg(o, kind, n):
    """The first `kind` leg of o's leg walk from n."""
    return next(leg for leg in o._legs_from(n) if leg[2] == kind)


def test_osc_first_candidate_is_a_segment_start():
    o = OscLogPhi(Fraction(1, 2), Fraction(2))
    up = o.first_witness_candidate(o.gamma, 50)
    assert up == _first_leg(o, "climb", 50)[0] and o.ratio(up) == 2.0
    lo = o.first_witness_candidate(o.delta, 50, eval_shift=1)
    assert lo == _first_leg(o, "low", 51)[0] - 1
    assert o.ratio(lo + 1) == pytest.approx(0.5)
    assert o.first_witness_candidate(ExtReal(1), 50) == 50
    # below the first segment: the first climb, and the low leg from 2
    assert o.first_witness_candidate(o.gamma, 1) == 9
    assert o.first_witness_candidate(o.delta, 1, eval_shift=1) == 1
    # infinite gamma: the first climb whose ratio clears the threshold
    u = OscLogPhi(1, INF)
    c = u.first_witness_candidate(INF, 50, threshold=3.0)
    assert u.ratio(c) > 3.0 and u.ratio(c) == _first_leg(u, "climb", c)[3]


@pytest.mark.parametrize("text,alpha,count", [("n^0.5", 0, 12),
                                              ("log(n)^2", 1, 4)])
def test_slow_rate_plans_with_witnesses_past_the_cap(text, alpha, count):
    # each reaches a witness search whose min_n lies beyond WITNESS_CAP
    plan = plan_full_dimension(parse_phi(text), alpha, INF, count=count)
    assert plan.case_tag == "ii" and 2 <= len(plan.terms) <= count
    check_plan_conditions(plan)


def test_case_ii_checks_the_ell_cap_before_the_candidate(monkeypatch):
    # log(n)^2 1/inf: the third ell = ceil(e^phi(n)) would have about
    # 6*10^7 digits, which phi at the double below min_ln already shows,
    # so the candidates of 3 433 and 5 134 digits are never computed
    runs, real = [], bignum._exp
    monkeypatch.setattr(bignum, "_exp",
                        lambda terms, dps: runs.append(dps) or real(terms, dps))
    plan = plan_full_dimension(parse_phi("log(n)^2"), 1, INF, count=4)
    assert [len(str(v)) for term in plan.terms for v in term] == [2, 8, 23,
                                                                  1135]
    assert max(runs) < 2000
    # a profile that is not nondecreasing by its shape still computes them
    monkeypatch.setattr(phi_spec.PowerLog, "nondecreasing_by_shape",
                        lambda self: False)
    runs.clear()
    again = plan_full_dimension(parse_phi("log(n)^2"), 1, INF, count=4)
    assert again == plan and max(runs) >= 5134


# -------------------------------------------------------------- ladder 1 ---

def _log_ladder(phi, C, gamma, delta, count, *, p=2,
                digit_cap=bignum.DEFAULT_DIGIT_CAP):
    """The first count rungs of `_log_rungs` for A = 1, as the tuples
    (ns, anchors)."""
    rungs = _log_rungs(phi, C, gamma, delta, p=p, digit_cap=digit_cap, A=1)
    ns, nears = zip(*itertools.islice(rungs, count))
    return ns, nears


class Search(NamedTuple):
    target: ExtReal
    min_n: int
    tol: float
    threshold: float
    shift: int
    w: int


@pytest.fixture
def searches(monkeypatch):
    """Every ratio-witness search that plan_engine makes, in order."""
    calls, real = [], plan_engine.find_ratio_witness

    def spy(phi, target, min_n, *, tol=None, threshold=None, eval_shift=0):
        w = real(phi, target, min_n, tol=tol, threshold=threshold,
                 eval_shift=eval_shift)
        calls.append(Search(ExtReal(target), min_n, tol, threshold,
                            eval_shift, w))
        return w

    monkeypatch.setattr(plan_engine, "find_ratio_witness", spy)
    return calls


def _assert_phases(phi, gamma, delta, ns, nears, calls, geometric):
    """The searches alternate an upper witness (ratio read at w) and a
    lower one (read at w + 1), each reaching its side of the ratio within
    its tolerance or above its threshold.  Each witness ends its phase, in
    order, carrying an anchor only when it is the search's min_n or sits
    at (or one below) a boundary the profile built from its exponent; a
    geometric phase of cycle c holds at least c rungs.  Only the last
    search's phase may be cut by the count."""
    assert all(a < b for a, b in zip(ns, ns[1:]))
    assert nears[0] is None
    ends = []
    for j, c in enumerate(calls):
        upper = j % 2 == 0
        assert (c.target, c.shift) == ((ExtReal(gamma), 0) if upper
                                       else (ExtReal(delta), 1)), j
        r = phi.ratio(c.w + c.shift)
        if c.target.is_inf:
            assert r > c.threshold, (j, r)
        else:
            assert abs(r - float(c.target)) < c.tol, (j, r)
        if geometric:
            cycle = j // 2 + 1
            assert c.threshold == cycle and c.tol <= 1 / cycle, j
        if c.w in ns:
            e = ns.index(c.w)
            assert (nears[e] is not None) == (
                c.w == c.min_n or phi.boundary_anchor(c.w) is not None), j
            ends.append(e)
    assert calls and all(c.w in ns for c in calls[:-1])
    lengths = [b - a for a, b in zip([0, *ends], ends)]
    assert all(d >= 1 for d in lengths), lengths
    if geometric:
        assert all(d >= j // 2 + 1 for j, d in enumerate(lengths)), lengths
    # every rung inside a phase is built from its exponent
    assert all(near is not None for i, near in enumerate(nears)
               if i and i not in ends)
    return lengths


def test_log_ladder_geometric_brackets(searches):
    phi = parse_phi("log(n)")  # gamma = delta = 1
    # 13 rungs end on a witness; 11 cut the fifth phase after one rung
    for count in (13, 11):
        searches.clear()
        ns, nears = _log_ladder(phi, 2, 1, 1, count)
        lengths = _assert_phases(phi, 1, 1, ns, nears, searches,
                                 geometric=True)
        # a rung's designed log n: the exponent it was built from, or for
        # n_1 and a witness log n itself
        ends = list(itertools.accumulate(lengths))
        lns = [math.log(n) if i == 0 or i in ends else math.fsum(near.terms)
               for i, (n, near) in enumerate(zip(ns, nears))]
        # within each phase of d rungs the designed log ratio lives in
        # [C, C^(1+1/d)); a phase the count cuts before its witness has
        # d above the rungs it has so far and at least its cycle
        cut = len(ns) - 1 - ends[-1]
        start = 1
        for d, end in zip([*lengths, max(cut + 1, len(lengths) // 2 + 1)],
                          [*ends, len(ns) - 1]):
            for idx in range(start, end + 1):
                r = lns[idx] / lns[idx - 1]
                assert r >= 2 * (1 - 1e-9), (count, idx, r)
                assert r < 2 ** (1 + 1 / d) * (1 + 1e-9), (count, idx, r)
            start = end + 1
        assert ends[-1] >= 9 and cut == (count == 11)


def test_log_ladder_geometric_digit_cap():
    # the doubling of log(n) per phase overruns any finite digit budget;
    # deep requests stop with a capacity signal rather than looping
    with pytest.raises(CapacityError):
        _log_ladder(parse_phi("log(n)"), 2, 1, 1, 30)
    # a raised cap admits more rungs
    ns, _ = _log_ladder(parse_phi("log(n)"), 2, 1, 1, 15, digit_cap=10 ** 5)
    assert len(ns) == 15


def test_log_ladder_square_branch(searches):
    phi = parse_phi("log(n)")
    ns, nears = _log_ladder(phi, 1, 1, 1, 40)
    for i, n in enumerate(ns, start=1):
        assert i * i <= math.log(n) + 1e-9, (i, n)
        assert math.log(n) < (i + 1) ** 2 + 1e-9, (i, n)
    _assert_phases(phi, 1, 1, ns, nears, searches, geometric=False)


def test_log_ladder_square_branch_starts_at_the_rung_of_n1(searches):
    # log(61) lies in [2^2, 3^2): the ladder goes on from log n = 3^2,
    # where it once refused every p >= 54
    phi = parse_phi("log(n)")
    ns, nears = _log_ladder(phi, 1, 1, 1, 10, p=60)
    assert ns[:2] == (61, math.ceil(math.exp(9)))
    assert searches[0].min_n == ns[1]
    _assert_phases(phi, 1, 1, ns, nears, searches, geometric=False)


def test_log_ladder_phase_records(searches):
    # the searches the spy records are the ladder's phases: one witness
    # ends each, upper and lower in turn, after at least cycle rungs
    phi = parse_phi("log(n)")
    ns, nears = _log_ladder(phi, 2, 1, 1, 12)
    lengths = _assert_phases(phi, 1, 1, ns, nears, searches, geometric=True)
    assert len(searches) >= 2 and sum(lengths) <= len(ns) - 1


def test_log_ladder_osc_alternates_sides(searches):
    o = OscLogPhi(Fraction(4, 5), Fraction(6, 5))
    ns, nears = _log_ladder(o, 1, Fraction(6, 5), Fraction(4, 5), 16)
    lengths = _assert_phases(o, Fraction(6, 5), Fraction(4, 5), ns, nears,
                             searches, geometric=False)
    # the square ladder's phases run several rungs here
    assert len(lengths) >= 2 and max(lengths) > 1


def test_log_ladder_osc_geometric_alternates_sides(searches):
    o = OscLogPhi(Fraction(4, 5), Fraction(6, 5))
    ns, nears = _log_ladder(o, Fraction(3, 2), Fraction(6, 5),
                            Fraction(4, 5), 16)
    lengths = _assert_phases(o, Fraction(6, 5), Fraction(4, 5), ns, nears,
                             searches, geometric=True)
    assert len(lengths) >= 2 and max(lengths) > 1


@pytest.mark.parametrize("spec,C,gamma,delta", [
    ("log(n)", Fraction(3, 2), 1, 1),
    ("log(n)", Fraction(1), 1, 1),
    ("osc 4/5 6/5", Fraction(1), Fraction(6, 5), Fraction(4, 5))])
def test_log_ladder_is_a_prefix_of_a_longer_count(searches, spec, C, gamma,
                                                  delta):
    phi = _profile(spec)
    cut_mid_phase = False
    for count in range(2, 14):
        searches.clear()
        short = _log_ladder(phi, C, gamma, delta, count)
        short_ends = [c.w for c in searches if c.w in short[0]]
        searches.clear()
        full = _log_ladder(phi, C, gamma, delta, count + 10)
        assert short == tuple(col[:count] for col in full)
        lengths = _assert_phases(phi, gamma, delta, *full, searches,
                                 geometric=C != 1)
        cut_mid_phase |= short[0][-1] not in short_ends
    # log(n)'s unit-ratio phases are one rung each; the others get cut
    assert cut_mid_phase or all(d == 1 for d in lengths)


@given(st.integers(0, 10 ** 12), st.sampled_from([-1, 0, 1]))
def test_floor_sqrt_is_exact_next_to_perfect_squares(s, side):
    x = float(s * s)
    if side:
        x = math.nextafter(x, side * math.inf)
    if x < 0:
        x = 0.0
    r = _floor_sqrt(x)
    assert r * r <= x < (r + 1) * (r + 1)


# -------------------------------------------------------------- ladder 2 ---

def _step_ladder(phi, count, product, n_start=3):
    """The first count steps of `_unit_steps` from n_start, as the tuples
    (n_start and the indices reached, markers)."""
    steps = _unit_steps(phi, n_start, product,
                        digit_cap=bignum.DEFAULT_DIGIT_CAP)
    ns, ms = zip(*itertools.islice(steps, count))
    return (n_start, *ns), ms


@pytest.mark.parametrize("text", ["log(n)", "log(n)^2", "n^0.5"])
def test_build_subseq2_i_chain(text):
    phi = parse_phi(text)
    ns, ms = _step_ladder(phi, 30, product=False)
    assert len(ns) == 31 and len(ms) == 30
    for i in range(30):
        assert ns[i] <= ms[i] < ns[i + 1]
    # the defining inequalities
    for i in range(len(ms) - 1):
        gap = phi.value(ms[i + 1]) - phi.value(ms[i])
        assert gap > 1 - 1e-12, i
        assert phi.value(ms[i + 1]) - phi.value(ms[i] + 1) <= 3 + 1e-12, i


def test_build_subseq2_ii_chain():
    phi = parse_phi("log(n)")
    _, ms = _step_ladder(phi, 30, product=True)
    for i in range(len(ms) - 1):
        m_i, m_next = ms[i], ms[i + 1]
        grows = m_next >= m_i * math.log(m_i)
        jumps = phi.value(m_next) - phi.value(m_i) > 1 - 1e-12
        assert grows or jumps, i


@pytest.mark.parametrize("text", ["log(n)", "log(n)^2", "n^0.5"])
@pytest.mark.parametrize("product", [False, True])
def test_step_ladder_is_a_prefix_of_a_longer_count(product, text):
    phi = parse_phi(text)
    for count in (1, 2, 7, 20):
        short_ns, short_ms = _step_ladder(phi, count, product)
        full_ns, full_ms = _step_ladder(phi, count + 10, product)
        assert short_ns == full_ns[:count + 1]
        assert short_ms == full_ms[:count]


# ------------------------------------------------------------ generators ---

def test_plan_case_v_log_profile():
    plan = plan_full_dimension(parse_phi("log(n)"), 2, 2, count=12)
    assert plan.case_tag == "v"
    assert plan.ns[:3] == (4, 55, 8104)
    assert plan.ells[:2] == (23, 12123)
    check_plan_conditions(plan)


UNIT_RATIO_PLANS = [("log(n)", "2", "2"), ("osc 4/5 6/5", "5/6", "5/4")]


def _profile(spec):
    if spec.startswith("osc "):
        return OscLogPhi(*spec.split()[1:])
    return parse_phi(spec)


@pytest.mark.parametrize("p", [54, 100, 1000])
@pytest.mark.parametrize("spec,alpha,beta", UNIT_RATIO_PLANS)
def test_unit_ratio_plans_exist_for_large_p(spec, alpha, beta, p):
    plan = plan_full_dimension(_profile(spec), ExtReal(alpha), ExtReal(beta),
                               p=p, count=12)
    assert plan.case_tag == "v" and plan.p == p
    assert len(plan.terms) == 12 and plan.ns[0] == p + 1
    check_plan_conditions(plan)


@pytest.mark.parametrize("p,head", [(3, (4, 55, 8104)), (53, (54, 55, 8104))])
def test_unit_ratio_plans_up_to_p_53_start_at_the_first_rung(p, head):
    plan = plan_full_dimension(parse_phi("log(n)"), 2, 2, p=p, count=12)
    assert plan.ns[:3] == head


def test_plan_case_i_unbounded_rates():
    plan = plan_full_dimension(parse_phi("log(n)"), INF, INF, p=2, count=10)
    assert plan.case_tag == "i"
    assert plan.ns == tuple(range(plan.ns[0], plan.ns[0] + len(plan.ns)))
    check_plan_conditions(plan)


def test_plan_case_vi_oscillating():
    o = OscLogPhi(Fraction(1, 2), Fraction(2))
    plan = plan_full_dimension(o, 2, Fraction(5, 2), count=14)
    assert plan.case_tag == "vi"
    check_plan_conditions(plan)


def test_plan_refuses_dimension_zero():
    with pytest.raises(RefusalError) as exc:
        plan_full_dimension(parse_phi("log(n)"), Fraction(1, 3), Fraction(1, 2))
    assert exc.value.classification["dim"] == 0


def test_plan_head_trim_keeps_conditions():
    # a large p forces early rungs below certification; the generator must
    # still emit a plan whose retained terms satisfy the conditions
    plan = plan_full_dimension(parse_phi("log(n)"), 2, 2, p=50, count=12)
    check_plan_conditions(plan)
    assert len(plan) >= 2


def test_plan_case_iv_zero_rate():
    # zero lower rate against an unbounded ratio: indices are forced by
    # the exponential of beta*phi; digit growth truncates the tail
    plan = plan_full_dimension(parse_phi("log(n)^2"), 0, 1, count=12)
    assert plan.case_tag == "iv"
    assert len(plan) >= 2
    check_plan_conditions(plan)


# --------------------------------------------------------- cut-off rule ---

def _stub_case(good: int, exc: BaseException):
    """A case generator that yields `good` terms and then raises `exc`."""
    @_truncated
    def gen(phi, cls, p, digit_cap):
        for i in range(1, good + 1):
            yield i, 10 * i
        raise exc

    return gen


def _run_stub(good, exc, count=12):
    return _stub_case(good, exc)(None, None, 3, count, 100)


@pytest.mark.parametrize("good", [0, 1])
def test_truncated_reraises_below_two_terms(good):
    with pytest.raises(CapacityError):
        _run_stub(good, CapacityError("stub cap"))


def test_truncated_keeps_two_terms_on_capacity_error():
    assert _run_stub(2, CapacityError("stub cap")) == [(1, 10), (2, 20)]


def test_truncated_keeps_two_terms_on_overflow():
    assert _run_stub(2, OverflowError("stub range")) == [(1, 10), (2, 20)]


@pytest.mark.parametrize("exc", [CapacityError("stub cap"),
                                 RuntimeError("pulled past count")])
def test_truncated_stops_at_count_without_pulling_more(exc):
    # the stub raises on term count + 1, which must never be requested
    assert _run_stub(5, exc, count=5) == [(i, 10 * i) for i in range(1, 6)]


@pytest.mark.parametrize("good", [0, 1])
def test_truncated_reraises_a_search_cap_below_two_terms(good):
    with pytest.raises(SearchCapError):
        _run_stub(good, SearchCapError("stub search"))


def test_truncated_keeps_two_terms_on_search_cap_error():
    assert _run_stub(2, SearchCapError("stub search")) == [
        (1, 10), (2, 20)]


# each ladder hits a cap after some terms: the digit cap on case v's
# geometric ladder (C = 3 and C = 2)
@pytest.mark.parametrize("spec,alpha,beta,count,case", [
    ("log(n)", "1", "3", 12, "v"), ("log(n)", "1", "2", 30, "v")])
def test_a_cap_that_a_ladder_hits_truncates_the_plan(spec, alpha, beta, count,
                                                     case):
    plan = plan_full_dimension(_profile(spec), ExtReal(alpha), ExtReal(beta),
                               count=count)
    assert plan.case_tag == case and 2 <= len(plan.terms) < count
    check_plan_conditions(plan)


def test_a_small_digit_cap_truncates_a_case_vi_plan():
    # at a 60-digit cap --osc 1 3 1/1 stops after 40 terms: the 41st ell
    # would pass the cap (each ell outgrows its n)
    plan = plan_full_dimension(_profile("osc 1 3"), ExtReal(1), ExtReal(1),
                               count=120, digit_cap=60)
    assert plan.case_tag == "vi" and len(plan.terms) == 40
    assert max(len(str(ell)) for _, ell in plan.terms) <= 60
    check_plan_conditions(plan)


def test_the_unit_increase_ladder_reaches_its_count():
    # the search for a unit increase is bounded by the digit cap alone:
    # --osc 1 3 1/1 climbs past 10^100 to a 225-digit n and a 407-digit ell
    plan = plan_full_dimension(_profile("osc 1 3"), ExtReal(1), ExtReal(1),
                               count=120)
    assert plan.case_tag == "vi" and len(plan.terms) == 120
    assert len(str(plan.terms[-1][0])) == 225
    assert max(len(str(ell)) for _, ell in plan.terms) == 407
    check_plan_conditions(plan)


def test_a_bounded_profile_stops_the_unit_increase_search_at_the_digit_cap():
    # phi = 2 never gains a unit: the doubling search gives up once its
    # bound passes 30 digits
    with pytest.raises(CapacityError, match="digit cap of 30"):
        next(_unit_steps(parse_phi("2"), 3, False, digit_cap=30))


# ------------------------------------------- crossings on the log scale ---

CROSSING_PROFILES = ["n", "2*n^2", "log(n)^1.5", "log(n)^3", "n^0.5*log(n)",
                     "osc 1 3", "osc 1/2 2", "osc 4/5 6/5", "osc 1 inf"]
# starts from 2 to 10^400, on both sides of 2^53 and of 2^1024 (where
# math.log turns from a double's log to the frexp form), and where a
# double's rounding of n - 1 crosses a tie
CROSSING_STARTS = [2, 3, 10, 1000, 10 ** 6, 2 ** 52 - 2, 2 ** 53 - 3,
                   2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 53 + 6, 10 ** 17,
                   2 ** 1023 + 1, 2 ** 1024 - 2 ** 971, 2 ** 1024 - 2 ** 970,
                   2 ** 1024 - 1, 2 ** 1024, 2 ** 1024 + 1, 10 ** 308,
                   10 ** 309, 10 ** 400]


def _oracle_crossing(phi, n_lo, t, digit_cap):
    """The doubling search and bisection, or the CapacityError it raises."""
    try:
        return PhiSpec.first_above(phi, t, n_lo, digit_cap)
    except CapacityError as exc:
        return str(exc)


def _crossing_targets(phi, n_lo, rng):
    """phi(n_lo) + 1, and values phi takes past n_lo (so phi's float steps
    decide the crossing), as far as they stay in float range."""
    targets = []
    for m in (n_lo, n_lo + 1, n_lo + rng.randrange(2, 1000),
              n_lo + n_lo // rng.randrange(2, 10 ** 6),
              n_lo * rng.randrange(2, 50)):
        try:
            targets.append(phi.value(m))
        except OverflowError:
            pass
    if targets:
        targets.append(targets[0] + 1.0)
    return targets or [1e300]


@pytest.mark.parametrize("spec", CROSSING_PROFILES)
def test_first_above_is_the_searched_crossing(spec):
    # a PowerLog and an OscLogPhi answer the crossing on the log scale;
    # the doubling search and bisection that an ExprPhi keeps is the
    # oracle, for the crossing and for the CapacityError it raises at
    # the digit cap (default, and a few digits past the start)
    rng = random.Random(spec)
    phi = _profile(spec)
    starts = CROSSING_STARTS + [rng.randrange(2, 10 ** rng.randrange(2, 401))
                                for _ in range(12)]
    for n_lo in starts:
        digits = len(str(n_lo))
        for t in _crossing_targets(phi, n_lo, rng):
            for cap in (bignum.DEFAULT_DIGIT_CAP, digits + 1, digits + 4):
                want = _oracle_crossing(phi, n_lo, t, cap)
                try:
                    got = phi.first_above(t, n_lo, cap)
                except CapacityError as exc:
                    got = str(exc)
                assert got == want, (spec, n_lo, t, cap)


def test_first_above_raises_where_the_doubling_passes_the_cap():
    # phi = 2 never crosses 3: both give up at the first probe past the
    # cap; log(n)^3 crosses 10^9 + 1 near e^1000, past a 30-digit cap
    for spec, n_lo, t in (("2", 3, 3.0), ("log(n)^3", 5, 1e9 + 1)):
        phi = parse_phi(spec)
        with pytest.raises(CapacityError) as exc:
            phi.first_above(t, n_lo, 30)
        assert str(exc.value) == _oracle_crossing(phi, n_lo, t, 30)
    # an ExprPhi's crossing is the search's
    phi = parse_phi("log(n)+log(log(n))")
    assert phi.first_above(3.0, 5, 30) == _oracle_crossing(phi, 5, 3.0, 30)


def test_a_crossing_whose_value_leaves_float_range_is_a_search_cap():
    # 2 n^2 leaves float range as a product (inf, no OverflowError) just
    # before its exp does, past n = 9.4 * 10^153: the search's probe there
    # raises SearchCapError, and so does the log-scale answer, which never
    # returns an n whose value() raises
    phi = parse_phi("2*n^2")
    for first_above in (PhiSpec.first_above, type(phi).first_above):
        with pytest.raises(SearchCapError, match="is not finite"):
            first_above(phi, sys.float_info.max, 9 * 10 ** 153, 20000)


def test_no_profile_with_a_log_scale_inverse_reaches_the_bisection(
        monkeypatch):
    # every crossing that the unit-increase ladders of cases iii and vi
    # ask a PowerLog or an OscLogPhi for is answered by the profile
    searched, real = [], PhiSpec.first_above
    monkeypatch.setattr(PhiSpec, "first_above",
                        lambda phi, *a: searched.append(type(phi).__name__)
                        or real(phi, *a))
    for spec, alpha, beta in (("log(n)^1.5", "1", "2"), ("n", "1", "2"),
                              ("osc 1 3", "1", "1"),
                              ("osc 1/2 2", "2", "5/2")):
        plan = plan_full_dimension(_profile(spec), ExtReal(alpha),
                                   ExtReal(beta), count=120)
        assert plan.case_tag in ("iii", "vi")
    assert searched == []
    # an ExprPhi takes the default search: log(n)^2 + log(n), case iii
    plan = plan_full_dimension(parse_phi("log(n)^2+log(n)"), ExtReal(1),
                               ExtReal(2))
    assert plan.case_tag == "iii"
    assert searched and set(searched) == {"ExprPhi"}


def _digest(plan):
    return hashlib.sha256(plan.to_json().encode()).hexdigest()


# case v with A = 3/2 and 5/4: n^A is an integer root, not mpmath's exp of
# A ln n; the digests of to_json() are those of the exp route
@pytest.mark.parametrize("spec,alpha,beta,count,digest", [
    ("log(n)", "3/2", "3/2", 60,
     "fe7996db305218948ea15180f2c7d9c71c7ec2abcd0de1347345d8715cfed231"),
    ("2*log(n)", "3/4", "3/4", 30,
     "afdc8ba1e637cb2eebf2adb31c879f16bae446046fd58d7272a2edcfb8a2e5fd"),
    ("log(n)", "5/4", "5/4", 60,
     "d6416d4b79a2a02fd23ffea6b64a833bfe029068df8ac24fc605b31145561e5e")])
def test_plans_with_a_rational_exponent_keep_their_terms(spec, alpha, beta,
                                                         count, digest):
    plan = plan_full_dimension(parse_phi(spec), ExtReal(alpha),
                               ExtReal(beta), count=count)
    assert plan.case_tag == "v" and len(plan.terms) == count
    assert _digest(plan) == digest


# the only passing benchmark requests whose plans climb the geometric
# ladder (log(n) at C = 3 and C = 2), both stopped by the digit cap: the
# digests pin their to_json(), which no benchmark check reads
@pytest.mark.parametrize("beta,count,terms,digest", [
    ("3", 12, 10,
     "35857cdaadca66ea790b1a05c18ad4da38312e4b64081359241cb6d57a3ffd5f"),
    ("2", 30, 13,
     "a8b5edae3558852ae5bb8320a98165a2bcc339f29ded69c55c70052b68f33981")])
def test_geometric_ladder_plans_keep_their_terms(monkeypatch, beta, count,
                                                 terms, digest):
    ladders, real = [], plan_engine._geometric_rungs
    monkeypatch.setattr(plan_engine, "_geometric_rungs",
                        lambda *a: ladders.append(a[1]) or real(*a))
    plan = plan_full_dimension(parse_phi("log(n)"), ExtReal(1),
                               ExtReal(beta), count=count)
    assert ladders == [Fraction(beta)]
    assert plan.case_tag == "v" and len(plan.terms) == terms
    assert _digest(plan) == digest


# case v on the square ladder (C = 1) at count 200, each stopped by the
# digit cap but --osc 4/5 6/5: every rung and witness search start is
# exp_ceil_anchor's ceil(e^(k^2))
@pytest.mark.parametrize("spec,alpha,beta,terms,digest", [
    ("log(n)", "2", "2", 151,
     "892f7e4f27d6120c7f61518aa66c7bc945bb165dfa9cefacafa9fbae9da8e4ff"),
    ("log(n)", "3", "3", 123,
     "f7423959501a90c6443ed59f1b6396faeb0d04f70fcc56c5ad4e7ce68d9490db"),
    ("log(n)", "3/2", "3/2", 175,
     "0518f87cef034c501172e51173a9aeb513f906e0878a67bb50e48e25cb839f00"),
    ("log(n)", "5/4", "5/4", 191,
     "4ef49f36879b454f58849fedd3900e9b958ed193f39dd946822649c129884a4e"),
    ("osc 4/5 6/5", "5/6", "5/4", 200,
     "cefabaa4e0ee080889360936886c5829b06edb612833d147ddceedbcebba96d6")])
def test_square_ladder_plans_keep_their_terms(monkeypatch, spec, alpha, beta,
                                              terms, digest):
    asked, real = [], bignum.exp_ceil_anchor

    def spy(x, exponent, digit_cap=bignum.DEFAULT_DIGIT_CAP):
        if sys._getframe(1).f_code is plan_engine._square_rungs.__code__:
            asked.append((x, exponent, digit_cap))
        return real(x, exponent, digit_cap)

    monkeypatch.setattr(bignum, "exp_ceil_anchor", spy)
    phi = (OscLogPhi(*spec.split()[1:]) if spec.startswith("osc ")
           else parse_phi(spec))
    plan = plan_full_dimension(phi, ExtReal(alpha), ExtReal(beta), count=200)
    assert plan.case_tag == "v" and len(plan.terms) == terms
    assert _digest(plan) == digest
    # k goes up by one, and by two past the index of a witness, which the
    # ladder takes from its search instead
    gamma = Fraction(spec.split()[2]) if spec.startswith("osc ") else 1
    ks = [math.isqrt(int(x)) for x, _, _ in asked]
    assert asked == [(float(k * k), Fraction(alpha) * gamma,
                      bignum.DEFAULT_DIGIT_CAP) for k in ks]
    steps = [b - a for a, b in zip(ks, ks[1:])]
    assert set(steps) <= {1, 2} and steps.count(1) > steps.count(2)
    witnesses = {_floor_sqrt(math.log(n)) for n, _ in plan.terms}
    assert all(k + 1 in witnesses for k, step in zip(ks, steps) if step == 2)


def test_a_boundary_past_the_segment_cap_that_no_lookup_reaches():
    # --osc 1/2 3 at A = 1, C = 3: the witness search opens cycle 7, whose
    # closing boundary would have about 388 000 digits, past the profile's
    # segment cap.  While cycles were closed as they opened, that stopped
    # the plan at 7 terms (the digest); it now runs on to the plan's own
    # digit cap
    plan = plan_full_dimension(OscLogPhi("1/2", "3"), ExtReal("1/3"),
                               ExtReal("6"), count=120)
    assert plan.case_tag == "v" and len(plan.terms) == 9
    head = InsertionPlan(plan.p, plan.m, plan.terms[:7], plan.case_tag)
    assert _digest(head) == (
        "078c484ac86be4dae49326d85956d83a8edd61f8f0fa1385503f56f4e24d39c5")
    assert len(str(plan.terms[-1][1])) > 19_000
    check_plan_conditions(plan)


# ---------------------------------------------------- irrational extremes ---

@pytest.mark.parametrize("spec,alpha,beta,case", [
    ("2^0.5*log(n)", "1", "2", "v"), ("2^0.5*log(n)", "1", "inf", "ii"),
    ("log(3)*log(n)", "1", "2", "v")])
def test_power_cases_refuse_an_irrational_gamma(spec, alpha, beta, case):
    # A = alpha*gamma is irrational, so the positions n^A have no exact
    # integer form
    phi = parse_phi(spec)
    cls = classify_profile(phi, ExtReal(alpha), ExtReal(beta))
    assert (cls.provenance, cls.case_tag) == ("analytic", case)
    assert cls.gamma.is_irrational and cls.gamma == cls.delta
    with pytest.raises(GuardError, match=f"case {case} .* irrational gamma"):
        plan_full_dimension(phi, ExtReal(alpha), ExtReal(beta))


def test_case_i_plans_on_an_irrational_gamma():
    # case i never raises n to a power of gamma
    plan = plan_full_dimension(parse_phi("log(3)*log(n)"), INF, INF,
                               count=12)
    assert plan.case_tag == "i" and len(plan.terms) == 12


def test_classify_then_plan_finds_the_extremes_once(monkeypatch):
    found, real = [], phi_spec._limit_ratio
    monkeypatch.setattr(phi_spec, "_limit_ratio",
                        lambda ast, source: found.append(source)
                        or real(ast, source))
    phi = parse_phi("log(n)+log(log(n))")   # D1
    rate = ExtReal("0.9")
    cls = classify_profile(phi, rate, rate)
    with pytest.raises(RefusalError):
        plan_full_dimension(phi, rate, rate, count=12)
    assert found == [phi.source]
    # gamma = delta = 1, so alpha = 0.9 < 1/gamma: dimension zero
    assert (cls.dim, cls.case_tag, cls.provenance) == (0, None, "analytic")
    assert (cls.gamma, cls.delta) == (ExtReal(1), ExtReal(1))
    # another instance finds them afresh
    other = parse_phi("log(n)+log(log(n))")
    assert other.gamma_delta() == phi.gamma_delta()
    assert found == [phi.source] * 2
