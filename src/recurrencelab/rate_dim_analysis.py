"""Observed recurrence rates, rate estimation, and box dimension.

The quantity tracked throughout is the ratio log(R_n)/phi(n): its liminf
and limsup over n are the two rates a constructed point is engineered to
hit.  On a finite window only some return times are observed exactly; the
rest are lower bounds, which still carry one-sided evidence (they can only
push the upper estimate up, never drag the lower one down), and the
estimators here are careful about that asymmetry.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cantor_builder import InsertionPlan, certified_brackets, fp_cylinder_count
from .errors import EstimationImpossibleError
from .phi_spec import PhiSpec
from .return_time import return_times_all
from .shift_core import Word


@dataclass(frozen=True)
class RateEntry:
    n: int
    return_time: int
    exact: bool       # False: return_time is only a lower bound
    ratio: float      # log(return_time)/phi(n), same bound caveat


@dataclass(frozen=True)
class RateTrajectory:
    entries: tuple[RateEntry, ...]
    source: str       # "word" | "plan"

    def __len__(self) -> int:
        return len(self.entries)

    def ratios(self) -> list[float]:
        return [e.ratio for e in self.entries]


def _phi_value(phi: Optional[PhiSpec], n: int) -> float:
    return math.log(n) if phi is None else phi.value(n)


def rate_trajectory(word: Word, phi: Optional[PhiSpec] = None,
                    max_n: Optional[int] = None) -> RateTrajectory:
    """Ratio trajectory read off a concrete word, one entry per n.

    Entries with an uninformative bound (return time below 1) are dropped;
    n = 1 is skipped under the default profile since log(1) = 0.
    """
    rt = return_times_all(word, max_n=max_n)
    exact_depth = rt.exact_depth
    entries = []
    for n in range(1, rt.top + 1):
        exact = n <= exact_depth
        value = rt.values[n - 1] if exact else rt.bound(n)
        if value < 1:
            continue
        f = _phi_value(phi, n)
        if f <= 0:
            continue
        entries.append(RateEntry(n, value, exact, math.log(value) / f))
    return RateTrajectory(tuple(entries), "word")


def plan_rate_trajectory(plan: InsertionPlan, phi: Optional[PhiSpec] = None,
                         *, endpoints: str = "right",
                         ns: Optional[Sequence[int]] = None) -> RateTrajectory:
    """Ratio trajectory predicted by a plan alone, no materialization.

    Within each certified bracket (lo, hi] the return time is the constant
    position ell, so the trajectory can be sampled anywhere; by default it
    is sampled at the right endpoints, where the engineered ratio is
    cleanest.  Pass ns to sample explicit depths instead (depths outside
    every bracket are skipped).
    """
    brackets = certified_brackets(plan)
    entries = []
    if ns is not None:
        for n in ns:
            for lo, hi, ell in brackets:
                if lo < n <= hi:
                    entries.append(RateEntry(n, ell, True,
                                             math.log(ell) / _phi_value(phi, n)))
                    break
    else:
        if endpoints not in ("right", "left"):
            raise ValueError("endpoints must be 'right' or 'left'")
        for lo, hi, ell in brackets:
            n = hi if endpoints == "right" else lo + 1
            entries.append(RateEntry(n, ell, True,
                                     math.log(ell) / _phi_value(phi, n)))
    return RateTrajectory(tuple(entries), "plan")


def running_extremes(traj: RateTrajectory,
                     tail_fraction: float = 0.5) -> tuple[float, float]:
    """(alpha_hat, beta_hat) over the trailing tail_fraction of the
    trajectory.  The lower estimate uses exact entries only — a lower
    bound says nothing about how small the true ratio is — while the upper
    estimate may use bounds as well."""
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    entries = traj.entries
    if not entries:
        raise EstimationImpossibleError("empty trajectory")
    start = int(len(entries) * (1 - tail_fraction))
    tail = entries[start:]
    exact = [e.ratio for e in tail if e.exact]
    if not exact:
        raise EstimationImpossibleError(
            "every tail entry is a lower bound; the window is too short "
            "to estimate the lower rate")
    return min(exact), max(e.ratio for e in tail)


def recurrence_witnesses(word: Word, alpha: float, eps: float, *,
                         phi: Optional[PhiSpec] = None,
                         max_n: Optional[int] = None,
                         with_times: bool = True):
    """Depths n whose prefix returns within exp((alpha+eps)*phi(n)).

    Under the default profile log n the cutoff is n^(alpha+eps).  Every
    hit is re-verified definitionally: the word shifted by the reported
    return time must agree with itself for at least n symbols.  Returns
    (n, R_n) pairs, or bare depths with with_times=False.
    """
    syms = word.symbols
    out = []
    for n, j in enumerate(return_times_all(word, max_n=max_n).values, 1):
        if j > math.exp((alpha + eps) * _phi_value(phi, n)):
            continue
        if syms[j:j + n] != syms[:n]:
            raise RuntimeError(
                f"return-time engine and definition disagree at n={n}")
        out.append((n, j) if with_times else n)
    return out


@dataclass(frozen=True)
class BoxDimensionFit:
    slope: float
    intercept: float
    expected: Fraction
    depths: tuple[int, int]
    degenerate: bool   # all cylinder counts equal; the slope is formal

    def to_json_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "expected": float(self.expected),
                "depths": list(self.depths), "degenerate": self.degenerate}


def box_dimension(p: int, m: int, max_depth: int,
                  min_depth: int = 1) -> BoxDimensionFit:
    """Least-squares slope of log(cylinder count) against depth * log(m)
    for the marker set, alongside its closed-form limit (p - 2)/p."""
    if max_depth <= min_depth:
        raise ValueError("need max_depth > min_depth")
    xs, ys = [], []
    for n in range(min_depth, max_depth + 1):
        xs.append(n * math.log(m))
        ys.append(math.log(fp_cylinder_count(p, n, m)))
    degenerate = len(set(ys)) == 1
    if degenerate:
        return BoxDimensionFit(0.0, ys[0], Fraction(p - 2, p),
                               (min_depth, max_depth), True)
    fit = statistics.linear_regression(xs, ys)
    return BoxDimensionFit(fit.slope, fit.intercept, Fraction(p - 2, p),
                           (min_depth, max_depth), False)
