import math
import random
from fractions import Fraction

import pytest

from recurrencelab import (EstimationImpossibleError, InsertionPlan, Word,
                           ZeroFree, apply_insertions, box_dimension,
                           parse_phi, plan_rate_trajectory, rate_trajectory,
                           recurrence_witnesses, running_extremes)
from recurrencelab.rate_dim_analysis import RateEntry, RateTrajectory

from conftest import brute_return_time, random_word


# ------------------------------------------------------------ trajectory ---

def test_rate_trajectory_periodic():
    # 0101... returns after 2 shifts at every depth: ratio log(2)/log(n)
    w = Word.from_digits("01" * 40, 2)
    traj = rate_trajectory(w, max_n=20)
    for e in traj.entries:
        assert e.exact and e.return_time == 2
        assert e.ratio == pytest.approx(math.log(2) / math.log(e.n))
    # n = 1 is dropped: log(1) = 0 has no ratio
    assert traj.entries[0].n >= 2


def test_rate_trajectory_unit_returns_and_bounds():
    # the all-zero word returns in one shift: ratio log(1)/log(n) = 0;
    # the final depth has no room for any recurrence and is dropped
    w = Word.from_digits("0000", 2)
    traj = rate_trajectory(w)
    assert [(e.n, e.return_time, e.ratio) for e in traj.entries] == \
        [(2, 1, 0.0), (3, 1, 0.0)]
    assert all(e.exact for e in traj.entries)


def test_rate_trajectory_custom_phi():
    w = Word.from_digits("01" * 30, 2)
    phi = parse_phi("2*log(n)")
    traj = rate_trajectory(w, phi, max_n=12)
    assert traj.entries
    for e in traj.entries:
        # n = 1 survives under a profile positive at 1 (fallback value)
        assert e.ratio == pytest.approx(math.log(2) / phi.value(e.n))


def test_plan_rate_trajectory_endpoints():
    plan = InsertionPlan(3, 2, ((4, 64), (8, 256), (16, 1024)))
    right = plan_rate_trajectory(plan)
    # brackets (4, 8] -> 256 and (8, 16] -> 1024, right endpoints
    assert [(e.n, e.return_time) for e in right.entries] == \
        [(8, 256), (16, 1024)]
    assert all(e.exact for e in right.entries)
    left = plan_rate_trajectory(plan, endpoints="left")
    assert [(e.n, e.return_time) for e in left.entries] == \
        [(5, 256), (9, 1024)]
    with pytest.raises(ValueError):
        plan_rate_trajectory(plan, endpoints="middle")


def test_plan_rate_trajectory_ratio_matches_formula():
    plan = InsertionPlan(3, 2, ((4, 64), (8, 256), (16, 1024)))
    traj = plan_rate_trajectory(plan)
    for e in traj.entries:
        assert e.ratio == pytest.approx(math.log(e.return_time) /
                                        math.log(e.n))


# -------------------------------------------------------- running extremes ---

def mk_traj(entries):
    return RateTrajectory(tuple(entries), source="test")


def test_running_extremes_tail_asymmetry():
    # lower estimate needs exact values; upper estimate may use bounds
    entries = [
        RateEntry(4, 16, True, 2.0),
        RateEntry(8, 64, True, 2.0),
        RateEntry(16, 200, True, 1.91),
        RateEntry(32, 2000, False, 2.19),
    ]
    lo, hi = running_extremes(mk_traj(entries), tail_fraction=0.5)
    # tail = last 2 entries; min over exact only, max over all
    assert lo == pytest.approx(1.91)
    assert hi == pytest.approx(2.19)


def test_running_extremes_requires_exact_in_tail():
    entries = [
        RateEntry(4, 16, True, 2.0),
        RateEntry(8, 64, False, 2.0),
        RateEntry(16, 200, False, 1.91),
    ]
    with pytest.raises(EstimationImpossibleError):
        running_extremes(mk_traj(entries), tail_fraction=0.5)


def test_running_extremes_empty():
    with pytest.raises(EstimationImpossibleError):
        running_extremes(mk_traj([]))


# ---------------------------------------------------------------- witnesses ---

def brute_witnesses(word, alpha, eps, max_n):
    syms = list(word.symbols)
    out = []
    for n in range(1, max_n + 1):
        v, exact = brute_return_time(syms, n, False)
        if exact and v <= math.exp((alpha + eps) * math.log(n)):
            out.append((n, v))
    return out


def test_recurrence_witnesses_match_brute():
    rng = random.Random(31337)
    for _ in range(25):
        w = random_word(rng, 2, 300)
        got = recurrence_witnesses(w, 0.5, 0.1, max_n=60)
        assert got == brute_witnesses(w, 0.5, 0.1, 60)


def test_recurrence_witnesses_periodic_word():
    w = Word.from_digits("01" * 50, 2)
    ws = recurrence_witnesses(w, 0.5, 0.0, max_n=30)
    # R_n = 2 <= n^(1/2) exactly from n = 4 on
    assert [n for n, _ in ws] == list(range(4, 31))
    assert all(r == 2 for _, r in ws)


# ------------------------------------------------------------ box counting ---

def test_box_dimension_block_family():
    for p in (3, 4, 5):
        fit = box_dimension(p, 2, max_depth=60 * p)
        assert not fit.degenerate
        assert fit.slope == pytest.approx(float(fit.expected), abs=0.05)
        assert fit.expected == Fraction(p - 2, p)


def test_box_dimension_p2_degenerate():
    fit = box_dimension(2, 2, max_depth=100)
    assert fit.degenerate
    assert fit.slope == 0.0
    assert fit.expected == Fraction(0)


def test_box_dimension_json():
    data = box_dimension(3, 2, max_depth=90).to_json_dict()
    assert set(data) == {"slope", "intercept", "expected", "depths",
                         "degenerate"}


# ----------------------------------------------------- end-to-end sanity ---

def test_constructed_point_rates_near_targets():
    # desk plan with ell ~ n^3: trajectory ratios approach 3 from below
    plan = InsertionPlan(3, 2, ((4, 64), (8, 512), (16, 4096),
                                (32, 32768), (64, 262144)))
    traj = plan_rate_trajectory(plan)
    lo, hi = running_extremes(traj, tail_fraction=0.5)
    assert lo == pytest.approx(3.0, abs=0.01)
    assert hi == pytest.approx(3.0, abs=0.01)
    # cross-check the first materializable bracket against a real scan
    seq = apply_insertions(plan, ZeroFree())
    w = Word.from_iterable(seq.prefix(5000), 2)
    traj2 = rate_trajectory(w, max_n=16)
    by_n = {e.n: e for e in traj2.entries}
    assert by_n[8].return_time == 512 and by_n[8].exact
    assert by_n[16].return_time == 4096 and by_n[16].exact
