"""Acceptance gates: ten end-to-end criteria with pinned tolerances.

Each criterion is one test that prints a single verdict line (ACxx PASS or
ACxx FAIL, with the measured quantities) and then asserts it.  The lines are
written past pytest's capture so the gate summary is visible in the terminal
even when everything is green.
"""
import math
import random
import sys
import time
from fractions import Fraction
from itertools import islice

from recurrencelab import (INF, ExtReal, InsertionPlan, OscLogPhi, SeededFree,
                           Word, apply_insertions, box_dimension,
                           certified_brackets, classify_profile, dichotomy,
                           parse_phi, plan_full_dimension,
                           plan_rate_trajectory, recurrence_witnesses,
                           return_times_all, running_extremes, truncate_plan)
from recurrencelab.bignum import DEFAULT_DIGIT_CAP
from recurrencelab.plan_engine import _unit_steps

from conftest import (predicted_return_time, return_time_naive,
                      return_times_naive_all)


# one verdict line per criterion; conftest's terminal-summary hook prints
# them after the run so they survive pytest's output capture
_VERDICTS: list = []


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"AC{num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    _VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


# --------------------------------------------------------------------- AC1

def test_ac01_oracle_equivalence_corpus():
    # 1000 seeded words, m cycling over {2,3,5}, lengths 20..10^4 (the last
    # word is exactly 10^4): the run-length walk batch must equal the
    # per-n find() oracle elementwise, values and exactness flags both, in
    # under 10 s.
    rng = random.Random(20260819)
    t0 = time.perf_counter()
    mismatches = 0
    for i in range(1000):
        m = (2, 3, 5)[i % 3]
        if i < 940:
            length = rng.randrange(20, 501)
        elif i < 990:
            length = rng.randrange(501, 2501)
        else:
            length = 10_000 if i == 999 else rng.randrange(2501, 9000)
        w = Word.from_iterable((rng.randrange(m) for _ in range(length)), m)
        fast = [(r.n, r.value, r.exact) for r in return_times_all(w)]
        slow = [(r.n, r.value, r.exact) for r in return_times_naive_all(w)]
        if fast != slow:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(1, mismatches == 0 and elapsed < 10.0,
            f"1000 words, lengths 20..10^4, m in {{2,3,5}}: "
            f"{mismatches} mismatches, {elapsed:.2f}s")


# --------------------------------------------------------------------- AC2

def _usable_terms(plan: InsertionPlan, ell_max: int) -> InsertionPlan:
    keep = sum(1 for _, ell in plan.terms if ell <= ell_max)
    return truncate_plan(plan, keep)


def test_ac02_materialized_return_times_exact():
    # Five desk-scale plans (three hand-built, two generated with every
    # position <= 10^6).  Materialize each, then require R_n == predicted
    # position for every n inside every certified bracket -- zero tolerance.
    hand = [
        (InsertionPlan(3, 2, ((4, 64), (8, 256), (16, 1024))), None),
        (InsertionPlan(3, 2, ((4, 100), (6, 200), (9, 400), (13, 800),
                              (20, 1600), (30, 3200))), SeededFree(7, 2)),
        (InsertionPlan(4, 3, ((5, 120), (9, 400), (14, 1100), (22, 2600))),
         SeededFree(11, 3)),
    ]
    gen_log = _usable_terms(
        plan_full_dimension(parse_phi("log(n)"), 2, 2, count=12), 10 ** 6)
    osc = OscLogPhi(Fraction(4, 5), Fraction(6, 5))
    gen_osc = _usable_terms(
        plan_full_dimension(osc, Fraction(5, 6), Fraction(5, 4), count=10),
        10 ** 6)
    assert gen_log.case_tag == "v" and gen_osc.case_tag == "v"
    plans = hand + [(gen_log, None), (gen_osc, None)]

    checked = violations = 0
    for plan, free in plans:
        brackets = certified_brackets(plan)
        assert brackets, plan
        horizon = plan.ells[-1] + plan.ns[-1] + 2
        word = apply_insertions(plan, free=free).prefix(horizon)
        real = return_times_all(word)
        depths = [n for lo, hi, _ in brackets for n in range(lo + 1, hi + 1)]
        for lo, hi, ell in brackets:
            for n in range(lo + 1, hi + 1):
                r = real[n - 1]
                if not (r.exact and r.value == ell
                        and predicted_return_time(plan, n) == ell):
                    violations += 1
                checked += 1
        # independent single-n scans: all depths when the word is short,
        # ~150 spread across the brackets (plus both endpoints of each)
        # for the 10^5-symbol materialization
        if len(word) <= 20_000:
            probe = depths
        else:
            probe = depths[::max(1, len(depths) // 150)]
            probe += [lo + 1 for lo, _, _ in brackets]
            probe += [hi for _, hi, _ in brackets]
        for n in sorted(set(probe)):
            r = return_time_naive(word, n)
            if not (r.exact and r.value == predicted_return_time(plan, n)):
                violations += 1
    _report(2, violations == 0,
            f"{len(plans)} plans, {checked} bracket depths re-scanned: "
            f"{violations} violations")


# --------------------------------------------------------------------- AC3

def test_ac03_marker_set_dimension_anchor():
    # the marker set over p-blocks has dimension (p-2)/p exactly; the
    # log-count regression must land within 0.02 of it for p up to 10 at
    # depth 200p, all four fits inside one second
    t0 = time.perf_counter()
    worst = 0.0
    for p in (3, 4, 5, 10):
        fit = box_dimension(p, 2, 200 * p)
        worst = max(worst, abs(fit.slope - (p - 2) / p))
    elapsed = time.perf_counter() - t0
    _report(3, worst <= 0.02 and elapsed < 1.0,
            f"p in {{3,4,5,10}} at depth 200p: max slope error {worst:.1e}, "
            f"{elapsed:.2f}s")


# --------------------------------------------------------------------- AC4

def test_ac04_threshold_grid_log_profile():
    # for the plain log profile both extremes equal 1, so the level set has
    # full dimension exactly when alpha >= 1; sweep alpha x beta >= alpha
    # over {0, 1/2, 99/100, 1, 2, inf} and demand an exact match from both
    # the profile classifier and the raw threshold rule
    phi = parse_phi("log(n)")
    grid = [Fraction(0), Fraction(1, 2), Fraction(99, 100), Fraction(1),
            Fraction(2), INF]
    checked = bad = 0
    for a in grid:
        for b in grid:
            if ExtReal(b) < ExtReal(a):
                continue
            want = 1 if ExtReal(a) >= ExtReal(1) else 0
            cls = classify_profile(phi, a, b)
            if cls.dim != want or dichotomy(a, b, 1, 1) != want:
                bad += 1
            checked += 1
    _report(4, bad == 0 and checked == 21,
            f"{checked} grid points, dim=1 iff alpha>=1: {bad} mismatches")


# --------------------------------------------------------------------- AC5

def test_ac05_unit_step_ladder_inequalities():
    # the unit-step ladder must satisfy, at every emitted index,
    #   phi(m_{i+1}) - phi(m_i)     > 1   (the step is a genuine unit jump)
    #   phi(m_{i+1}) - phi(m_i + 1) <= 3  (and never overshoots)
    # for a slow, a linear, and a fractional-power profile
    bad = steps = 0
    for text in ("log(n)", "n", "2*log(n)^1.5"):
        phi = parse_phi(text)
        ms = [m for _, m in islice(_unit_steps(
            phi, 3, product=False, digit_cap=DEFAULT_DIGIT_CAP), 30)]
        assert len(ms) == 30
        for i in range(len(ms) - 1):
            steps += 1
            jump = phi.value(ms[i + 1]) - phi.value(ms[i])
            shifted = phi.value(ms[i + 1]) - phi.value(ms[i] + 1)
            if not (ms[i + 1] > ms[i] and jump > 1 - 1e-12
                    and shifted <= 3 + 1e-12):
                bad += 1
    _report(5, bad == 0,
            f"3 profiles x 29 consecutive steps = {steps}: {bad} violations")


# --------------------------------------------------------------------- AC6

def test_ac06_growth_disjunction_and_tail_ratios():
    # every step of the multiplicative ladder must be long (m' >= m log m)
    # or big in phi (jump > 1), and over the final third of a 30-term run
    # both phi(m_{i+1})/phi(m_i + 1) and log m_{i+1}/log m_i sit within
    # 10% of 1
    phi = parse_phi("log(n)")
    ms = [m for _, m in islice(_unit_steps(
        phi, 3, product=True, digit_cap=DEFAULT_DIGIT_CAP), 30)]
    bad = 0
    for i in range(len(ms) - 1):
        grows = ms[i + 1] >= ms[i] * math.log(ms[i])
        jumps = phi.value(ms[i + 1]) - phi.value(ms[i]) > 1 - 1e-12
        if not (grows or jumps):
            bad += 1
    off = 0.0
    for i in range(2 * len(ms) // 3, len(ms) - 1):
        off = max(off, abs(phi.value(ms[i + 1]) / phi.value(ms[i] + 1) - 1),
                  abs(math.log(ms[i + 1]) / math.log(ms[i]) - 1))
    _report(6, bad == 0 and off <= 0.1,
            f"29 steps: {bad} disjunction violations; "
            f"tail ratio offset {off:.3f} <= 0.1")


# --------------------------------------------------------------------- AC7

def test_ac07_plan_level_rate_convergence():
    # pinned rates: the alpha=beta=2 log-profile plan's trajectory tail
    # (fraction 0.5) must put both running extremes within 10% of 2;
    # unbounded rates: the ratio sequence must increase strictly and end
    # more than 5x above its start
    phi = parse_phi("log(n)")
    plan = plan_full_dimension(phi, 2, 2, count=20)
    a_hat, b_hat = running_extremes(plan_rate_trajectory(plan, phi), 0.5)
    converges = abs(a_hat - 2.0) <= 0.2 and abs(b_hat - 2.0) <= 0.2

    unbounded = plan_full_dimension(phi, INF, INF, p=2, count=25)
    rs = plan_rate_trajectory(unbounded, phi).ratios()
    diverges = (all(x < y for x, y in zip(rs, rs[1:]))
                and rs[-1] > 5 * rs[0])
    _report(7, converges and diverges,
            f"pinned tail estimates ({a_hat:.3f}, {b_hat:.3f}) ~ 2; "
            f"unbounded ratios {rs[0]:.1f} -> {rs[-1]:.1f} strictly rising")


# --------------------------------------------------------------------- AC8

def test_ac08_oscillating_exponent_band():
    # oscillating profile with extremes (delta, gamma) = (1/2, 2) at rates
    # alpha=2, beta=5/2: each planned position ell = floor(exp(rho log m +
    # log phi(m) + log log m)) must recover rho inside [beta*delta,
    # alpha*gamma] = [5/4, 4].  The floor sandwich brackets the true
    # exponent between the two recovered values.
    phi = OscLogPhi(Fraction(1, 2), Fraction(2))
    plan = plan_full_dimension(phi, 2, Fraction(5, 2), count=20)
    assert plan.case_tag == "vi" and len(plan.terms) == 20
    lo, hi = 1.25, 4.0
    bad = 0
    for n, ell in plan.terms:
        ln_n = math.log(n)
        base = math.log(phi.value(n)) + math.log(ln_n)
        above = (math.log(ell + 1) - base) / ln_n   # > true exponent
        below = (math.log(ell) - base) / ln_n       # <= true exponent
        if not (above > lo - 1e-9 and below < hi + 1e-9):
            bad += 1
    _report(8, bad == 0,
            f"20 terms, recovered exponent within [1.25, 4]: {bad} violations")


# --------------------------------------------------------------------- AC9

def test_ac09_witness_filter_equivalence():
    # 100 seeded binary words of length 10^4: the witness scan at
    # alpha=0.5, eps=0.1 must equal the brute filter R_n <= n^0.6 applied
    # to per-n naive scans, and every witness must pass the definitional
    # recheck (the prefix really reappears at the reported shift).  The
    # depth window 1..400 keeps the cutoff (400^0.6 ~ 36) far inside it.
    rng = random.Random(424241)
    words = filter_mismatches = recheck_failures = total_witnesses = 0
    for _ in range(100):
        w = Word.from_iterable((rng.randrange(2) for _ in range(10_000)), 2)
        found = recurrence_witnesses(w, 0.5, 0.1, max_n=400)
        brute = [(r.n, r.value) for r in return_times_naive_all(w, max_n=400)
                 if r.exact and r.value <= math.exp(0.6 * math.log(r.n))]
        if found != brute:
            filter_mismatches += 1
        syms = w.symbols
        for n, shift in found:
            if syms[shift:shift + n] != syms[:n]:
                recheck_failures += 1
        total_witnesses += len(found)
        words += 1
    _report(9, filter_mismatches == 0 and recheck_failures == 0,
            f"{words} words, {total_witnesses} witnesses: "
            f"{filter_mismatches} filter mismatches, "
            f"{recheck_failures} recheck failures")


# -------------------------------------------------------------------- AC10

def test_ac10_scaling_invariance():
    # the zero-one law is invariant under (alpha, beta, gamma, delta) ->
    # (alpha/c, beta/c, c*gamma, c*delta): verify over 10^4 random exact
    # tuples for c in {1/10, 1, 7}, infinities included
    rng = random.Random(99173)
    pool = [Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2),
            Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 2),
            Fraction(10), INF]
    scales = (Fraction(1, 10), Fraction(1), Fraction(7))

    def ordered(u, v):
        return (u, v) if ExtReal(u) <= ExtReal(v) else (v, u)

    def div(v, c):
        return v if v is INF else v / c

    def mul(v, c):
        return v if v is INF else v * c

    bad = 0
    for _ in range(10_000):
        a, b = ordered(rng.choice(pool), rng.choice(pool))
        d, g = ordered(rng.choice(pool), rng.choice(pool))
        base = dichotomy(a, b, g, d)
        for c in scales:
            if dichotomy(div(a, c), div(b, c), mul(g, c), mul(d, c)) != base:
                bad += 1
    _report(10, bad == 0,
            f"10^4 tuples x 3 scale factors: {bad} mismatches")
