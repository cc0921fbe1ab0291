import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from recurrencelab import (ExtReal, GuardError, INF, InsertionPlan, OscLogPhi,
                           RefusalError, check_plan_conditions,
                           classify_profile, classify_thresholds, compute_AB,
                           dichotomy, find_ratio_witness, parse_phi,
                           plan_full_dimension)
from recurrencelab import bignum, phi_spec
from recurrencelab.errors import CapacityError, PhiDomainError, SearchCapError
from recurrencelab.plan_engine import (WITNESS_CAP, _log_rungs, _truncated,
                                       _unit_steps)


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


def test_osc_first_candidate_is_a_segment_start():
    o = OscLogPhi(Fraction(1, 2), Fraction(2))
    up = o.first_witness_candidate(o.gamma, 50)
    assert up == o.climb_segment_at_least(50)[0] and o.ratio(up) == 2.0
    lo = o.first_witness_candidate(o.delta, 50, eval_shift=1)
    assert lo == o.low_segment_at_least(51)[0] - 1
    assert o.ratio(lo + 1) == pytest.approx(0.5)
    assert o.first_witness_candidate(ExtReal(1), 50) == 50
    # infinite gamma: the first climb whose ratio clears the threshold
    u = OscLogPhi(1, INF)
    c = u.first_witness_candidate(INF, 50, threshold=3.0)
    assert u.ratio(c) > 3.0 and u.ratio(c) == u.climb_segment_at_least(c)[2]


@pytest.mark.parametrize("text,alpha,count", [("n^0.5", 0, 12),
                                              ("log(n)^2", 1, 4)])
def test_slow_rate_plans_with_witnesses_past_the_cap(text, alpha, count):
    # each reaches a witness search whose min_n lies beyond WITNESS_CAP
    plan = plan_full_dimension(parse_phi(text), alpha, INF, count=count)
    assert plan.case_tag == "ii" and 2 <= len(plan.terms) <= count
    check_plan_conditions(plan)


# -------------------------------------------------------------- ladder 1 ---

def _log_ladder(phi, C, gamma, delta, count, *, p=2,
                digit_cap=bignum.DEFAULT_DIGIT_CAP):
    """The first count rungs of `_log_rungs` for A = 1, as the tuples
    (ns, designed ln values, phase records)."""
    rungs = _log_rungs(phi, C, gamma, delta, p=p, digit_cap=digit_cap, A=1)
    ns, lns, _, phases = zip(*itertools.islice(rungs, count))
    return ns, lns, phases


def _distinct_records(phases):
    assert phases[0] is None   # the seed rung belongs to no phase
    return list(dict.fromkeys(phases[1:]))


def _assert_records_tile(phases):
    """Every rung past the seed lies in its phase's index range, and the
    phases follow each other without gap or overlap."""
    for i, rec in enumerate(phases[1:], start=2):
        assert rec.first_index <= i <= rec.last_index, (i, rec)
    recs = _distinct_records(phases)
    assert recs[0].first_index == 2
    for a, b in zip(recs, recs[1:]):
        assert b.first_index == a.last_index + 1, (a, b)


def test_log_ladder_geometric_brackets():
    phi = parse_phi("log(n)")  # gamma = delta = 1
    ns, ls, phases = _log_ladder(phi, 2, 1, 1, 13)
    assert all(a < b for a, b in zip(ns, ns[1:]))
    # within each phase the designed log ratio lives in [C, C^(1+1/d))
    for idx in range(2, len(ns) + 1):
        r = ls[idx - 1] / ls[idx - 2]
        assert r >= 2 * (1 - 1e-9), (idx, r)
        assert r < 2 ** (1 + 1 / phases[idx - 1].d) * (1 + 1e-9), (idx, r)


def test_log_ladder_geometric_digit_cap():
    # the doubling of log(n) per phase overruns any finite digit budget;
    # deep requests stop with a capacity signal rather than looping
    with pytest.raises(CapacityError):
        _log_ladder(parse_phi("log(n)"), 2, 1, 1, 30)
    # a raised cap admits more rungs
    ns, _, _ = _log_ladder(parse_phi("log(n)"), 2, 1, 1, 15,
                           digit_cap=10 ** 5)
    assert len(ns) == 15


def test_log_ladder_square_branch():
    phi = parse_phi("log(n)")
    ns, lns, _ = _log_ladder(phi, 1, 1, 1, 40)
    assert all(a < b for a, b in zip(ns, ns[1:]))
    for i, ln in enumerate(lns, start=1):
        assert i * i <= ln + 1e-9, (i, ln)
        assert ln < (i + 1) ** 2 + 1e-9, (i, ln)


def test_log_ladder_square_branch_starts_at_the_rung_of_n1():
    # log(61) lies in [2^2, 3^2): the ladder goes on from log n = 3^2,
    # where it once refused every p >= 54
    phi = parse_phi("log(n)")
    ns, _, phases = _log_ladder(phi, 1, 1, 1, 10, p=60)
    assert ns[:2] == (61, math.ceil(math.exp(9)))
    assert all(a < b for a, b in zip(ns, ns[1:]))
    assert phases[1].first_index == 2


def test_log_ladder_phase_records():
    phi = parse_phi("log(n)")
    ns, _, phases = _log_ladder(phi, 2, 1, 1, 12)
    recs = _distinct_records(phases)
    for j, rec in enumerate(recs):
        assert rec.kind == ("upper" if j % 2 == 0 else "lower")
        assert rec.eval_point == rec.witness + (0 if rec.kind == "upper" else 1)
        assert rec.d >= rec.cycle
        assert rec.last_index - rec.first_index + 1 == rec.d
        if rec.last_index <= len(ns):   # the count may cut the last phase
            assert rec.witness == ns[rec.last_index - 1]
    _assert_records_tile(phases)


def test_log_ladder_osc_alternates_sides():
    o = OscLogPhi(Fraction(4, 5), Fraction(6, 5))
    _, _, phases = _log_ladder(o, 1, Fraction(6, 5), Fraction(4, 5), 16)
    recs = _distinct_records(phases)
    kinds = [r.kind for r in recs]
    assert "upper" in kinds and "lower" in kinds
    # witnesses actually achieve their side of the ratio
    for rec in recs:
        r = o.ratio(rec.eval_point)
        if rec.kind == "upper":
            assert r > 6 / 5 - (rec.tol or 0) - 1e-9
        else:
            assert r < 4 / 5 + (rec.tol or 0) + 1e-9
    _assert_records_tile(phases)


@pytest.mark.parametrize("spec,C,gamma,delta", [
    ("log(n)", Fraction(3, 2), 1, 1),
    ("log(n)", Fraction(1), 1, 1),
    ("osc 4/5 6/5", Fraction(1), Fraction(6, 5), Fraction(4, 5))])
def test_log_ladder_is_a_prefix_of_a_longer_count(spec, C, gamma, delta):
    phi = _profile(spec)
    cut_mid_phase = False
    for count in range(2, 14):
        short = _log_ladder(phi, C, gamma, delta, count)
        full = _log_ladder(phi, C, gamma, delta, count + 10)
        assert short == tuple(col[:count] for col in full)
        cut_mid_phase |= count < short[2][-1].last_index
    # log(n)'s unit-ratio phases are one rung each; the others get cut
    assert cut_mid_phase or all(rec.d == 1 for rec in full[2][1:])


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
        _run_stub(good, SearchCapError("stub search", what="stub"))


def test_truncated_keeps_two_terms_on_search_cap_error():
    assert _run_stub(2, SearchCapError("stub search", what="stub")) == [
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


# ------------------------------------------------------ estimated extremes ---

def test_classify_then_plan_estimates_the_extremes_once(monkeypatch):
    scans, real = [], phi_spec._estimated_gamma_delta
    monkeypatch.setattr(phi_spec, "_estimated_gamma_delta",
                        lambda phi: scans.append(phi) or real(phi))
    phi = parse_phi("log(n)+log(log(n))")   # D1: estimated extremes
    rate = ExtReal("0.9")
    cls = classify_profile(phi, rate, rate)
    plan = plan_full_dimension(phi, rate, rate, count=12)
    assert scans == [phi]
    # still the estimated (wrong) class of the known defect
    assert (cls.dim, cls.case_tag, cls.provenance) == (1, "vi", "estimated")
    assert plan.case_tag == "vi"
    # another instance is scanned afresh
    other = parse_phi("log(n)+log(log(n))")
    assert other.gamma_delta() == phi.gamma_delta()
    assert scans == [phi, other]
