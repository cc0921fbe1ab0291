"""Observed recurrence rates, rate estimation, and box dimension.

The quantity tracked throughout is the ratio log(R_n)/phi(n): its liminf
and limsup over n are the two rates a constructed point is engineered to
hit.  On a finite window only some return times are observed exactly; the
rest are lower bounds, which still carry one-sided evidence (they can only
push the upper estimate up, never drag the lower one down), and the
estimators here are careful about that asymmetry.

A trajectory is stored as columns (`RateColumns`): depths, return
times, exactness bytes and ratios.  On a word the exact values come
first, held as the runs of the ReturnTimes head (return_time.Runs, two
ints per run of equal R_n), and the bounds after them are a range, and
every column is built by C-level map/chain, with no per-depth Python
statement.  A word trajectory holds depths 2..top under the default
profile, since log(1) = 0, and 1..top under a profile, which is positive
at every depth or raises PhiDomainError there.  `entries` is a read-only
sequence whose RateEntry views are built only on access; `ratios()` and
`running_extremes` read the columns directly.

The ratio column of a length-L word under the default profile is held in
closed form (`LogRatioColumn`): L, the deepest depth and the runs of the
exact head, so building it costs nothing per depth and computes no
logarithm.  An entry is one division, log(R_n)/log(n), with the bound
L - n past the exact head; iteration and slices map math.log in one
C-level pass, the numerators one call per run and then the bounds
log(L - n) in descending order.  Along each run, and along the bounds,
the ratio never increases, so the column answers `running_extremes`
itself (`LogRatioColumn.extremes`) with two ratios per run in the window
and one for the bounds.  Plan trajectories and other profiles hold an
array('d') of ratios and are scanned.

`recurrence_witnesses` works per run of equal R_n = j, read from the
runs of the record, under the default profile with a finite rate
c = alpha + eps > 0.  Within a run the cutoff exp(c*log n) grows with n,
so the depths that pass (j <= cutoff) are a suffix of the run, found by
bisection; and a return at shift j of the deepest of them is a return of
every shallower prefix, so one slice comparison re-checks the whole
suffix.  Every other rate and profile takes one cutoff exp(c*phi(n)) per
depth, and e^0 = 1 where phi(n) = 0 at every rate (c*0 is NaN for an
infinite c; IEEE pow(1, c) is 1 too), and re-checks only the depths that
pass them.  Both read a cutoff past float range as inf (`_cutoff`): it
exceeds every return time.
"""
from __future__ import annotations

import math
import statistics
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, compress, islice, repeat
from operator import attrgetter, gt, not_, truediv
from typing import Optional

from .cantor_builder import InsertionPlan, certified_brackets, fp_cylinder_count
from .errors import EstimationImpossibleError
from .phi_spec import PhiSpec
from .return_time import Runs, return_times_all
from .shift_core import Word

@dataclass(frozen=True)
class RateEntry:
    """One depth of a rate trajectory.  Frozen, and slotted by its own
    __slots__: dataclass(slots=True) rebuilds the class, and the frozen
    __setattr__ it keeps, bound to the old class, raises TypeError for a
    name that is not a field.  Here every assignment raises
    FrozenInstanceError, an AttributeError.  __reduce__ pickles and copies
    it, since a frozen object cannot set its slots back."""

    __slots__ = ("n", "return_time", "exact", "ratio")
    n: int
    return_time: int
    exact: bool       # False: return_time is only a lower bound
    ratio: float      # log(return_time)/phi(n), same bound caveat

    def __reduce__(self):
        return RateEntry, (self.n, self.return_time, self.exact, self.ratio)


class RateColumns(Sequence):
    """The store of a rate trajectory, one column per field.

    Entry i has depth ns[i], exactness exact[i] (a byte, 1 or 0) and ratio
    ratios[i]: an array of doubles, or under the default profile the
    closed-form `LogRatioColumn` of a word.  Its return time is read from two
    parts, `head` then `tail`, so that a word's bound region stays a range:
    head holds the exact values and tail the descending bounds L - n.  A
    word's head is the runs of its ReturnTimes head (return_time.Runs, one
    bisect per index), and may open with values that have no entry (R_1
    under the default profile):
    their count is len(head) + len(tail) - len(ns).  Behaves as a
    read-only sequence of RateEntry views, each built only when indexed
    or iterated.
    """

    __slots__ = ("ns", "head", "tail", "exact", "ratios", "_skip")

    def __init__(self, ns: Sequence[int], head: Sequence[int],
                 tail: Sequence[int], exact: bytes, ratios: Sequence[float]):
        self.ns, self.head, self.tail = ns, head, tail
        self.exact, self.ratios = exact, ratios
        self._skip = len(head) + len(tail) - len(ns)

    @classmethod
    def from_entries(cls, entries) -> "RateColumns":
        fields = attrgetter("n", "return_time", "exact", "ratio")
        ns, times, exact, ratios = tuple(zip(*map(fields, entries))) or ((),) * 4
        return cls(ns, times, (), bytes(map(bool, exact)), array("d", ratios))

    def return_time(self, i: int) -> int:
        k = len(self.head) - self._skip
        return self.head[i + self._skip] if i < k else self.tail[i - k]

    def __len__(self) -> int:
        return len(self.ratios)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"index {i} outside a trajectory of length {len(self)}")
        return RateEntry(self.ns[i], self.return_time(i), bool(self.exact[i]),
                         self.ratios[i])

    def __iter__(self) -> Iterator[RateEntry]:
        return map(RateEntry, self.ns,
                   chain(islice(self.head, self._skip, None), self.tail),
                   map(bool, self.exact), self.ratios)

    def __eq__(self, other):
        if not isinstance(other, RateColumns):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class RateTrajectory:
    entries: Sequence[RateEntry]   # held as RateColumns; other sequences are converted
    source: str       # "word" | "plan"

    def __post_init__(self):
        if not isinstance(self.entries, RateColumns):
            object.__setattr__(self, "entries",
                               RateColumns.from_entries(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def ratios(self) -> list[float]:
        return self.entries.ratios.tolist()


def _phi_value(phi: Optional[PhiSpec], n: int) -> float:
    return math.log(n) if phi is None else phi.value(n)


def _ratio_column(times, fs) -> array:
    """log(return time)/phi(n), entry by entry, as array('d')."""
    return array("d", map(truediv, map(math.log, times), fs))


_NO_EXACT_ENTRY = ("every tail entry is a lower bound; the window is too "
                   "short to estimate the lower rate")


class LogRatioColumn(Sequence):
    """log(R_n)/log(n) for n = 2..top of a length-L word, in closed form.

    R_n is read from the runs of the exact head at the depths
    n <= h = len(runs) and is the bound L - n past them; entry i is depth
    n = i + 2.  The column holds no ratio, and building it computes no
    logarithm.  An index is one division of two math.log calls;
    iteration, slices, tolist() and tobytes() run one C-level pass of
    math.log (`_span`): the numerators one call per run of equal exact
    return times, then the bounds log(L - n) in descending order, and the
    denominators log(n).  Every ratio is therefore the one that math.log
    and a division give at that depth.

    Along each run the numerator is one double and the denominator
    increases (math.log is strictly increasing below 2^40; see
    `_run_witnesses`), and along the bounds the numerator falls as the
    denominator rises, so the ratio never increases within a run or
    within the bounds: division rounds monotonically in both arguments.
    `extremes` reads the window extremes off the runs on that ground.
    """

    __slots__ = ("length", "top", "runs")

    def __init__(self, length: int, top: int, runs: Runs):
        self.length, self.top, self.runs = length, top, runs

    def __len__(self) -> int:
        return max(self.top - 1, 0)

    def __getitem__(self, i):
        size = len(self)
        if isinstance(i, slice):
            r = range(size)[i]
            if not r:
                return array("d")
            lo, hi = min(r[0], r[-1]), max(r[0], r[-1]) + 1
            return array("d", self._span(lo, hi))[::r.step]
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError(f"index {i} outside a column of length {size}")
        n = i + 2
        r = self.runs[n - 1] if n <= len(self.runs) else self.length - n
        return math.log(r) / math.log(n)

    def _span(self, a: int, b: int) -> Iterator[float]:
        """Entries a..b-1 (depths a + 2 .. b + 1), lazily."""
        log, runs, L = math.log, self.runs, self.length
        first = max(a + 2, len(runs) + 1)   # the first bound in the span
        spans = runs.spans(a + 2, b + 1)
        num = chain(chain.from_iterable(repeat(log(j), hi - lo + 1)
                                        for j, lo, hi in spans),
                    map(log, range(L - first, L - b - 2, -1)))
        return map(truediv, num, map(log, range(a + 2, b + 2)))

    def __iter__(self) -> Iterator[float]:
        return self._span(0, len(self))

    def tolist(self) -> list[float]:
        return list(self)

    def tobytes(self) -> bytes:
        return array("d", self).tobytes()

    def extremes(self, start: int) -> tuple[float, float]:
        """(lowest exact ratio, highest ratio) over entries start.., the
        pair running_extremes scans for, one run at a time.

        The ratio never increases along a run or along the bounds, so the
        highest is the first ratio of a run or of the bounds in the window,
        and the lowest exact one the last ratio of a run.  Each ratio is a
        double of at least +0.0, so two that compare equal are the same
        bits, and the pair is the scan's.
        """
        log, runs = math.log, self.runs
        h = len(runs)
        highs, lows = [], []
        # the runs clipped to depths start + 2 .. h
        for j, lo, hi in runs.spans(start + 2, h):
            highs.append(log(j) / log(lo))
            lows.append(log(j) / log(hi))
        if not lows:
            raise EstimationImpossibleError(_NO_EXACT_ENTRY)
        n = max(h + 1, start + 2)       # the first bound in the window
        if n <= self.top:
            highs.append(log(self.length - n) / log(n))
        return min(lows), max(highs)


def rate_trajectory(word: Word, phi: Optional[PhiSpec] = None,
                    max_n: Optional[int] = None) -> RateTrajectory:
    """Ratio trajectory read off a concrete word, one entry per n.

    The entries are depths 2..top under the default profile, since
    log(1) = 0, and 1..top under a profile, whose value is positive at
    every depth or raises PhiDomainError there.  The columns are built
    without a per-depth statement: the runs of the exact head, then the
    bounds as a range; under the default profile the ratios are the
    closed-form `LogRatioColumn`, and under a profile one array('d').
    """
    rt = return_times_all(word, max_n=max_n)
    L, head = rt.length, rt.values
    # an exact R_n is at least 1, and the bound L - n is at least 1 up to
    # n = L - 1, which is therefore the deepest entry; the bounds fall by
    # one per depth, so they form a range
    top = min(rt.top, L - 1)
    first = 2 if phi is None else 1
    ns = range(first, top + 1)
    last = max(len(head), first - 1)      # the last depth before the bounds
    tail = range(rt.bound(last + 1), rt.bound(top + 1), -1)
    exact = (b"\1" * (last + 1 - first)).ljust(len(ns), b"\0")
    if phi is None:
        ratios = LogRatioColumn(L, top, head)
    else:
        ratios = _ratio_column(chain(head, tail), map(phi.value, ns))
    return RateTrajectory(RateColumns(ns, head, tail, exact, ratios), "word")


def plan_rate_trajectory(plan: InsertionPlan, phi: Optional[PhiSpec] = None,
                         *, endpoints: str = "right") -> RateTrajectory:
    """Ratio trajectory predicted by a plan alone, no materialization.

    Within each certified bracket (lo, hi] the return time is the constant
    position ell, so the trajectory can be sampled anywhere; it is sampled
    at the right endpoints, where the engineered ratio is cleanest, or with
    endpoints="left" at the left ones.
    """
    if endpoints not in ("right", "left"):
        raise ValueError("endpoints must be 'right' or 'left'")
    pairs = [(hi if endpoints == "right" else lo + 1, ell)
             for lo, hi, ell in certified_brackets(plan)]
    depths, ells = tuple(zip(*pairs)) or ((), ())
    ratios = _ratio_column(ells, map(partial(_phi_value, phi), depths))
    return RateTrajectory(RateColumns(depths, ells, (), b"\1" * len(ells),
                                      ratios), "plan")


def running_extremes(traj: RateTrajectory,
                     tail_fraction: float = 0.5) -> tuple[float, float]:
    """(alpha_hat, beta_hat) over the trailing tail_fraction of the
    trajectory.  The lower estimate uses exact entries only — a lower
    bound says nothing about how small the true ratio is — while the upper
    estimate may use bounds as well.  A closed-form word column answers
    per run (`LogRatioColumn.extremes`); every other column is scanned."""
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    cols = traj.entries
    if not cols:
        raise EstimationImpossibleError("empty trajectory")
    start = int(len(cols) * (1 - tail_fraction))
    if isinstance(cols.ratios, LogRatioColumn):
        return cols.ratios.extremes(start)
    # the lower estimate stops at the last exact entry: on a word every
    # bound follows the exact head
    last = cols.exact.rfind(b"\1", start) + 1
    if not last:
        raise EstimationImpossibleError(_NO_EXACT_ENTRY)
    low = min(compress(cols.ratios[start:last], cols.exact[start:last]))
    return low, max(cols.ratios[start:])


def _cutoff(x: float) -> float:
    """exp(x), and inf past float range: such a cutoff exceeds every
    return time, as the true e^x does."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _run_witnesses(syms, runs: Runs, c) -> list:
    """Witnesses of the default profile at a finite rate c > 0, one run
    of equal R_n at a time, in depth order.

    Within a run, n < m implies cutoff(n) <= cutoff(m) in floats: the
    computed log(n) is strictly increasing for n < 2^40, since log(n + 1)
    - log(n) > 1/(n + 1) exceeds two ulps there and math.log is within
    one; c*x rounds monotonically for c > 0; and exp is taken to be
    monotone, as PhiSpec.first_above takes the computed values it
    bisects, with every cutoff past float range read as inf (`_cutoff`).
    So the depths with j <= cutoff(n) are a suffix of the run, and
    bisecting the loop's own float test finds its first depth.
    """
    out = []
    for j, lo, end in runs.spans(1, len(runs)):
        a, b = lo, end + 1      # the run is depths lo .. end
        while a < b:
            mid = (a + b) // 2
            if j > _cutoff(c * math.log(mid)):
                a = mid + 1
            else:
                b = mid
        if a <= end:
            # a return at j of the length-end prefix is one of every
            # shorter prefix; on a mismatch, raise at its first depth
            if syms[j:j + end] != syms[:end]:
                n = next(n for n in range(a, end + 1)
                         if syms[j:j + n] != syms[:n])
                raise RuntimeError(
                    f"return-time engine and definition disagree at n={n}")
            out.extend(zip(range(a, end + 1), repeat(j)))
    return out


def recurrence_witnesses(word: Word, alpha: float, eps: float, *,
                         phi: Optional[PhiSpec] = None,
                         max_n: Optional[int] = None):
    """Depths n whose prefix returns within exp((alpha+eps)*phi(n)).

    Under the default profile log n the cutoff is n^(alpha+eps).  Where
    phi(n) = 0 the cutoff is 1 at every rate, infinite ones too.  Every
    hit is re-verified definitionally: the word shifted by the reported
    return time must agree with itself for at least n symbols.  Returns
    (n, R_n) pairs.

    A cutoff past float range is read as inf (`_cutoff`), so it passes
    every depth, as the true cutoff does.  The default profile at a
    finite rate alpha + eps > 0 is decided per run of equal R_n
    (`_run_witnesses`), reading the runs of the record; everything else
    follows the per-depth rule below.
    """
    syms = word.symbols
    runs = return_times_all(word, max_n=max_n).values
    h = len(runs)
    c = alpha + eps
    if phi is None:
        if h and 0 < c < math.inf:
            return _run_witnesses(syms, runs, c)
        fs = map(math.log, range(1, h + 1))
    else:
        fs = map(phi.value, range(1, h + 1))
    cutoffs = (_cutoff(c * f) if f else 1.0 for f in fs)
    out = []
    # lazily, in depth order, so an error surfaces at the depth a loop
    # over n would meet it; a depth is dropped only when j > cutoff (a
    # NaN cutoff, from a NaN phi(n) or rate, keeps it)
    for n, j in compress(enumerate(runs, 1),
                         map(not_, map(gt, runs, cutoffs))):
        if syms[j:j + n] != syms[:n]:
            raise RuntimeError(
                f"return-time engine and definition disagree at n={n}")
        out.append((n, j))
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
    for the marker set, alongside its closed-form limit (p - 2)/p.
    ValueError when p < 2, m < 2 or min_depth < 1."""
    if not 1 <= min_depth < max_depth:
        raise ValueError("need 1 <= min_depth < max_depth")
    xs, ys = [], []
    for n in range(min_depth, max_depth + 1):
        ys.append(math.log(fp_cylinder_count(p, n, m)))   # checks p and m
        xs.append(n * math.log(m))
    degenerate = len(set(ys)) == 1
    if degenerate:
        return BoxDimensionFit(0.0, ys[0], Fraction(p - 2, p),
                               (min_depth, max_depth), True)
    fit = statistics.linear_regression(xs, ys)
    return BoxDimensionFit(fit.slope, fit.intercept, Fraction(p - 2, p),
                           (min_depth, max_depth), False)
