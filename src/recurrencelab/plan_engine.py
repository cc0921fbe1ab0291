"""Rate targets, the zero-one dimension test, and insertion-plan synthesis.

Everything here is driven by four extended reals: the requested lower and
upper recurrence rates (alpha <= beta) and the profile's log-ratio extremes
(delta <= gamma).  The level set of points realizing those rates has
Hausdorff dimension one exactly when alpha >= 1/gamma and beta >= 1/delta
(with 1/0 = inf and 1/inf = 0), and dimension zero otherwise — dichotomy()
decides that with exact rational arithmetic.

In the full-dimension regime the products A = alpha*gamma and B = beta*delta
(read through a small case table that also assigns A or B = 1 when a zero
rate meets an infinite extreme) split the parameter space into six plan
shapes.  plan_full_dimension() synthesizes an InsertionPlan for whichever
shape applies.  Each shape is an endless generator of terms, each built
from the one before, and the index ladders that cases iii, v and vi climb
are generators too, pulled one rung per term.  Only `_truncated` knows the
requested count: it stops there, and when a cap interrupts generation it
keeps the terms found so far if there are at least two.  Every
position is a `bignum` grid value M 2^s, M < 2^64, on a stated side of
its value, so regenerating a plan is deterministic.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import bignum
from .cantor_builder import InsertionPlan, check_plan_conditions
from .errors import (CapacityError, GuardError, PlanValidityError,
                     RefusalError, SearchCapError)
from .extreal import INF, ONE, ExtReal
from .phi_spec import PhiSpec, check_nondecreasing

WITNESS_CAP = 10 ** 9    # ratio-witness scans stop here (not the first candidate)


def _checked(alpha, beta, gamma, delta) -> tuple:
    """The four thresholds as ExtReals, with alpha <= beta and
    delta <= gamma checked."""
    alpha, beta, gamma, delta = map(ExtReal, (alpha, beta, gamma, delta))
    if beta < alpha:
        raise ValueError("rate targets need alpha <= beta")
    if gamma < delta:
        raise ValueError("profile extremes need delta <= gamma")
    return alpha, beta, gamma, delta


def _dim(alpha: ExtReal, beta: ExtReal, gamma: ExtReal,
         delta: ExtReal) -> int:
    full = (alpha >= gamma.reciprocal()) and (beta >= delta.reciprocal())
    return 1 if full else 0


def dichotomy(alpha, beta, gamma, delta) -> int:
    """1 when the level set has full dimension, else 0 (it is never between)."""
    return _dim(*_checked(alpha, beta, gamma, delta))


def _table_product(rate: ExtReal, extreme: ExtReal,
                   rate_name: str, extreme_name: str) -> ExtReal:
    if extreme.is_inf:
        return ONE if rate.is_zero else INF
    if rate.is_inf or rate.is_zero or extreme.is_zero:
        raise GuardError(
            f"outside the proof-case table: {rate_name}={rate}, "
            f"{extreme_name}={extreme}")
    return rate * extreme


def _products(alpha: ExtReal, beta: ExtReal, gamma: ExtReal,
              delta: ExtReal) -> tuple[ExtReal, ExtReal]:
    return (_table_product(alpha, gamma, "alpha", "gamma"),
            _table_product(beta, delta, "beta", "delta"))


@dataclass(frozen=True)
class Classification:
    alpha: ExtReal
    beta: ExtReal
    gamma: ExtReal
    delta: ExtReal
    provenance: str
    dim: int
    case_tag: Optional[str] = None
    A: Optional[ExtReal] = None
    B: Optional[ExtReal] = None
    C: Optional[ExtReal] = None
    D: Optional[ExtReal] = None

    def to_json_dict(self) -> dict:
        def jv(x):
            return None if x is None else x.json_value()

        return {"alpha": jv(self.alpha), "beta": jv(self.beta),
                "gamma": jv(self.gamma), "delta": jv(self.delta),
                "provenance": self.provenance, "dim": self.dim,
                "case": self.case_tag,
                "A": jv(self.A), "B": jv(self.B), "C": jv(self.C),
                "D": jv(self.D)}


def classify_thresholds(alpha, beta, gamma, delta,
                        provenance: str = "given") -> Classification:
    alpha, beta, gamma, delta = _checked(alpha, beta, gamma, delta)
    dim = _dim(alpha, beta, gamma, delta)
    tag = A = B = C = D = None
    if dim == 1:
        if alpha.is_inf and beta.is_inf:
            tag = "i"
        elif beta.is_inf:
            tag = "ii"
        else:
            A, B = _products(alpha, beta, gamma, delta)
            if A.is_inf and B.is_inf:
                tag = "iii"
            elif B.is_inf:
                tag = "iv"
            elif A <= B:
                tag = "v"
                C = B / A
            else:
                tag = "vi"
                Cfr, Dfr = _interpolation_coefficients(alpha, beta, gamma, delta)
                C, D = ExtReal(Cfr), ExtReal(Dfr)
    return Classification(alpha, beta, gamma, delta, provenance, dim, tag,
                          A, B, C, D)


def classify_profile(phi: PhiSpec, alpha, beta) -> Classification:
    gd = phi.gamma_delta()
    return classify_thresholds(alpha, beta, gd.gamma, gd.delta,
                               provenance=gd.provenance)


def _interpolation_coefficients(alpha: ExtReal, beta: ExtReal,
                                gamma: ExtReal, delta: ExtReal
                                ) -> tuple[Fraction, Fraction]:
    """Slope/offset of the affine map sending delta -> B and gamma -> A."""
    a, b, d = alpha.fraction, beta.fraction, delta.fraction
    if gamma.is_inf:
        return a, (b - a) * d
    g = gamma.fraction
    return ((a * g - b * d) / (g - d),
            (b - a) * g * d / (g - d))


# --------------------------------------------------------------------------
# ratio witnesses
# --------------------------------------------------------------------------

def find_ratio_witness(phi: PhiSpec, target, min_n: int, *,
                       tol: Optional[float] = None,
                       threshold: Optional[float] = None,
                       eval_shift: int = 0) -> int:
    """An n >= min_n whose ratio at n + eval_shift approximates the target.

    Finite targets take |ratio - target| < tol; an infinite target takes
    ratio > threshold.  The profile's first candidate is always tested,
    even past WITNESS_CAP; after it the scan runs geometrically from min_n
    up to WITNESS_CAP, from its second probe when the candidate was min_n.
    """
    target = ExtReal(target)
    min_n = max(min_n, 2)
    if target.is_inf:
        if threshold is None:
            raise ValueError("an infinite target needs a threshold")
    elif tol is None:
        raise ValueError("a finite target needs a tolerance")
    tf = None if target.is_inf else float(target)

    def hits(n: int) -> bool:
        r = phi.ratio(n + eval_shift)
        return (r > threshold) if tf is None else abs(r - tf) < tol

    cand = phi.first_witness_candidate(target, min_n, threshold=threshold,
                                       eval_shift=eval_shift)
    if hits(cand):
        return cand
    n = min_n
    if cand == n:
        n += n // 1024 + 1
    while n <= WITNESS_CAP:
        if hits(n):
            return n
        n += n // 1024 + 1
    raise SearchCapError(f"no ratio witness found below {WITNESS_CAP:.2e}")


# --------------------------------------------------------------------------
# ladder 1: prescribed log-ratio C between consecutive indices
# --------------------------------------------------------------------------

def _floor_sqrt(x: float) -> int:
    """The largest s with s*s <= x, exact for floats x >= 0."""
    return math.isqrt(math.floor(x))


def _log_rungs(phi: PhiSpec, C, gamma, delta, *, p: int, digit_cap: int):
    """Check the profile now, then return the endless ladder of indices
    from n_1 = max(3, p + 1), geometric for C > 1 and square for C = 1.
    Its phases alternate a witness near gamma (ratio read at w) and one
    near delta (read at w + 1), each ending its phase.  Case v's
    classification gives C = B/A >= 1 and delta > 0."""
    C = Fraction(C)
    gamma, delta = ExtReal(gamma), ExtReal(delta)
    check_nondecreasing(phi)
    n1 = max(3, p + 1)
    if C == 1:
        return _square_rungs(phi, gamma, delta, n1, digit_cap)
    return _geometric_rungs(phi, C, gamma, delta, n1, digit_cap)


def _geometric_rungs(phi, C: Fraction, gamma: ExtReal, delta: ExtReal,
                     n1: int, digit_cap: int):
    """C > 1: each phase of cycle c searches its witness from log n = C^c
    times the last witness's log n and spreads d >= c rungs geometrically
    in log n up to it."""
    lnC = math.log(C)
    last = math.log(n1)
    yield n1
    for cycle in itertools.count(1):
        tol = 1 / cycle
        for extreme, shift in ((gamma, 0), (delta, 1)):
            start = bignum.exp_ceil(float(C ** cycle) * last, digit_cap)
            w = find_ratio_witness(phi, extreme, start, tol=tol,
                                   threshold=float(cycle), eval_shift=shift)
            ll_w = math.log(w)
            gap = math.log(ll_w) - math.log(last)
            d = max(int(gap // lnC), cycle)
            step = gap / d
            for j in range(1, d):
                yield bignum.exp_ceil(last * math.exp(step * j), digit_cap)
            yield w
            last = ll_w
            tol = 1 / (cycle + d)   # the lower phase's, after the upper


def _square_rungs(phi, gamma: ExtReal, delta: ExtReal, n1: int,
                  digit_cap: int):
    """C = 1 variant: rungs at log n = k^2 for consecutive k, up to the
    next witness, starting from the k with log(n_1) in [k^2, (k+1)^2).
    Every rung and witness search start is `bignum.exp_ceil(k^2)`, as on
    the geometric ladder."""
    yield n1
    k = _floor_sqrt(math.log(n1))
    for extreme, shift in itertools.cycle(((gamma, 0), (delta, 1))):
        x = float((k + 1) ** 2)
        first = bignum.exp_ceil(x, digit_cap)
        w = find_ratio_witness(phi, extreme, first, tol=1 / k,
                               threshold=float(k), eval_shift=shift)
        # w >= exp_ceil(x) >= e^x makes log(w) >= x exact; clamp away
        # float-conversion dust so the sqrt index always advances
        s = _floor_sqrt(max(math.log(w), x))
        for j in range(1, s - k):
            # the first rung is the search's min_n
            yield first if j == 1 else bignum.exp_ceil(float((k + j) ** 2),
                                                       digit_cap)
        yield w
        k = s


# --------------------------------------------------------------------------
# ladder 2: unit increases of phi
# --------------------------------------------------------------------------

def _unit_steps(phi: PhiSpec, n: int, product: bool, *, digit_cap: int):
    """The endless unit-increase ladder from n.  Each step goes to the
    first point where phi exceeds its value at n by more than one; with
    `product` it goes to ceil(n log n) instead whenever that stays within
    a unit increase of phi, so each step is long multiplicatively or large
    in phi (never neither).  Each step yields (the index reached, its
    marker); the marker is n when phi gains at most two over the step,
    else the point just before the step's end.  A search for a step
    that passes digit_cap digits raises CapacityError."""
    check_nondecreasing(phi)
    f = phi.value(n)
    while True:
        nxt = bignum.nlogn_ceil(n) if product else None
        if nxt is None or phi.exceeds(nxt, f + 1.0):
            nxt = phi.first_above(f + 1.0, n, digit_cap)
        f_next = phi.value(nxt)
        yield nxt, n if f_next - f <= 2.0 else nxt - 1
        n, f = nxt, f_next


# --------------------------------------------------------------------------
# plan synthesis
# --------------------------------------------------------------------------

def _valid_suffix(terms: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Maximal suffix on which positions respect the gap condition and the
    prefix lengths strictly increase (generators may violate both for a
    few leading terms before growth takes over)."""
    cut = 0
    for j in range(1, len(terms)):
        n0, l0 = terms[j - 1]
        n1, l1 = terms[j]
        if n1 <= n0 or l1 < l0 + n0 + 3:
            cut = j
    return terms[cut:]


# Each _gen_case_<tag> yields the (n, ell) terms of one proof case, reading
# the rates, extremes and case constants from the Classification.

def _truncated(gen):
    """Collect up to count terms from a case generator.

    This is synthesis's only cut-off rule, and the only code that knows
    count: the generators and their ladders run on without end.  Stop at
    count terms without pulling another, and when a cap interrupts
    generation (the digit cap, a search cap, a profile that runs out, or
    float range), keep the terms found so far if there are at least two.
    """
    @functools.wraps(gen)
    def collect(phi, cls: Classification, p: int, count: int,
                digit_cap: int) -> list[tuple[int, int]]:
        terms: list[tuple[int, int]] = []
        try:
            for term in itertools.islice(gen(phi, cls, p, digit_cap),
                                         max(count, 0)):
                terms.append(term)
        except (CapacityError, SearchCapError, OverflowError):
            if len(terms) < 2:
                raise
        return terms

    return collect


@_truncated
def _gen_case_i(phi, cls, p, digit_cap):
    prev_n, prev_l = 0, 1
    for i in itertools.count(1):
        ell = max(bignum.exp_ceil(i * phi.value(i), digit_cap=digit_cap),
                  prev_l + prev_n + 3,
                  i * i * (i + 3))
        yield i, ell
        prev_n, prev_l = i, ell


def _check_ell_floor(phi: PhiSpec, alpha: float, min_ln: float,
                     digit_cap: int) -> None:
    """CapacityError when even the least ell = exp_ceil(alpha phi(n)) of
    a candidate n >= exp_ceil(min_ln) passes digit_cap digits."""
    try:
        f_lo = phi.at_log(math.nextafter(min_ln, 0.0))
    except OverflowError:
        return   # the candidate's own value raises
    if f_lo is not None:
        bignum.check_digit_cap(alpha * f_lo, digit_cap)


@_truncated
def _gen_case_ii(phi, cls, p, digit_cap):
    alpha, gamma = cls.alpha, cls.gamma
    gf = None if gamma.is_inf else float(gamma)
    # the power of ell = power_log_ceil(n, A); an infinite gamma with
    # alpha > 0 takes ell = exp_ceil(alpha phi(n)) instead
    A = 1 if alpha.is_zero or gamma.is_inf else (alpha * gamma).fraction
    # that ell's exponent is at least alpha phi at the double below min_ln,
    # which a candidate's math.log reaches, when phi is nondecreasing
    cap_first = (gamma.is_inf and not alpha.is_zero
                 and phi.nondecreasing_by_shape())
    n_prev = max(2, p)
    prev_ratio = 0.0
    for i in itertools.count(1):
        t = phi.value(n_prev + 1)
        min_ln = max(i * t, math.log(n_prev) + i * i + 2)
        if gf is not None:
            min_ln = max(min_ln, 1.01 * i * t / gf)
        for _attempt in range(64):
            if cap_first:
                _check_ell_floor(phi, float(alpha), min_ln, digit_cap)
            start = bignum.exp_ceil(min_ln, digit_cap)
            cand = find_ratio_witness(phi, gamma, start, tol=1.0 / i,
                                      threshold=max(float(i), prev_ratio))
            ln_c = math.log(cand)
            f_c = phi.value(cand)
            if (f_c > i * t and ln_c > i * t
                    and ln_c > math.log(n_prev) + i * i + 2):
                break
            min_ln = ln_c * 1.5
        else:
            raise SearchCapError(
                "could not satisfy the growth conditions for this regime")
        if alpha.is_zero:
            ell = bignum.nlogn_ceil(cand)
        elif gamma.is_inf:
            ell = bignum.exp_ceil(float(alpha) * f_c, digit_cap=digit_cap)
        else:
            ell = bignum.power_log_ceil(cand, A, digit_cap=digit_cap)
        yield cand, ell
        prev_ratio = f_c / ln_c
        n_prev = cand


@_truncated
def _gen_case_iii(phi, cls, p, digit_cap):
    a, b = float(cls.alpha), float(cls.beta)
    if a <= 0:   # alpha > 0 exactly, but float() can underflow to 0.0
        raise GuardError("this regime needs a positive lower rate")
    fk = None   # phi at the marker that opened the current cycle
    for _, m in _unit_steps(phi, max(3, p + 1), product=False,
                            digit_cap=digit_cap):
        f = phi.value(m)
        if fk is None:
            fk, cutoff = f, (2 * b / a - 1) * f
            x = b * f
        elif f >= cutoff:
            fk, x = None, a * f
        else:
            x = (b - a / 2) * fk + (a / 2) * f
        yield m, bignum.exp_ceil(x, digit_cap=digit_cap)


@_truncated
def _gen_case_iv(phi, cls, p, digit_cap):
    b = float(cls.beta)
    n_prev = max(2, p)
    while True:
        t = phi.value(n_prev + 1)
        n_prev = max(bignum.exp_ceil(b * t, digit_cap), n_prev + 1)
        yield n_prev, bignum.nlogn_ceil(n_prev)


@_truncated
def _gen_case_v(phi, cls, p, digit_cap):
    A = cls.A.fraction
    for n in _log_rungs(phi, cls.C.fraction, cls.gamma, cls.delta,
                        p=p, digit_cap=digit_cap):
        yield n, bignum.power_log_ceil(n, A, digit_cap=digit_cap)


@_truncated
def _gen_case_vi(phi, cls, p, digit_cap):
    Cf, Df = float(cls.C), float(cls.D)
    lo = float(cls.delta)
    hi = float(cls.gamma)
    for _, m_i in _unit_steps(phi, max(3, p + 1), product=True,
                              digit_cap=digit_cap):
        lnm = math.log(m_i)
        f = phi.value(m_i)
        x = min(max(f / lnm, lo), hi)
        rho = Cf * x + Df
        yield m_i, bignum.exp_floor([rho * lnm, math.log(f), math.log(lnm)],
                                    digit_cap=digit_cap)


def plan_full_dimension(phi: PhiSpec, alpha, beta, *, p: int = 3, m: int = 2,
                        count: int = 12,
                        digit_cap: int = bignum.DEFAULT_DIGIT_CAP
                        ) -> InsertionPlan:
    """Synthesize an insertion plan whose constructed point realizes the
    requested rate pair over the given profile.

    Refuses (with the full classification attached) when the dichotomy
    puts the requested level set at dimension zero.
    """
    cls = classify_profile(phi, ExtReal(alpha), ExtReal(beta))
    return plan_for_classification(phi, cls, p=p, m=m, count=count,
                                   digit_cap=digit_cap)


def plan_for_classification(phi: PhiSpec, cls: Classification, *,
                            p: int = 3, m: int = 2, count: int = 12,
                            digit_cap: int = bignum.DEFAULT_DIGIT_CAP
                            ) -> InsertionPlan:
    """plan_full_dimension for a profile already classified as `cls`."""
    if cls.dim != 1:
        raise RefusalError(
            "these rate targets sit in the dimension-zero regime for this "
            "profile; no full-dimension plan exists", cls.to_json_dict())
    tag = cls.case_tag
    if tag in ("ii", "v") and cls.gamma.is_irrational:
        # an irrational gamma makes A = alpha*gamma irrational, and the
        # positions n^A have no exact integer form
        raise GuardError(
            f"case {tag} builds its positions as exact powers of "
            f"A = alpha*gamma, which the irrational gamma = {cls.gamma} "
            f"does not give")
    # looked up at call time so a rebound module attribute takes effect
    terms = globals()[f"_gen_case_{tag}"](phi, cls, p, count, digit_cap)
    terms = _valid_suffix(terms)
    if len(terms) < 2:
        raise PlanValidityError(
            "generation left fewer than two usable terms; raise count or "
            "the digit cap")
    plan = InsertionPlan(p=p, m=m, terms=tuple(terms), case_tag=tag)
    check_plan_conditions(plan)
    return plan
