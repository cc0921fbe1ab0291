"""Growth profiles phi: N -> (0, inf) and their log-ratio asymptotics.

A profile enters the library in one of three shapes:

* PowerLog      -- c * n^a * log(n)^b with exact rational c, a, b.
* ExprPhi       -- an arithmetic expression over n, log, +, *, ^.
* OscLogPhi     -- a nondecreasing profile whose ratio phi(n)/log(n)
                   oscillates between two prescribed targets.

The quantity that drives everything downstream is the pair

    gamma = limsup phi(n)/log(n),    delta = liminf phi(n)/log(n),

reported as a GammaDelta with provenance "analytic": every shape pins the
limits down exactly.  A PowerLog reads them off its exponents and an
OscLogPhi off its targets.  An ExprPhi is an exp-log function, so
phi(n)/log(n) has a limit L and gamma = delta = L; a leading-term
calculus over the iterated logs (see "leading terms" below) finds L from
the expression tree.  L may be irrational (log(3)*log(n)), kept exact as
an extreal.Const.  Where a leading constant cannot be certified (an exact
cancellation such as log(10) - log(2) - log(5)) the extremes raise
GuardError, never an estimate.

Expression grammar ('+' and '*' share one precedence level, left
associative; '^' binds tighter and does not chain):

    expr   := term (('+' | '*') term)*
    term   := factor ('^' factor)?
    factor := number | 'n' | 'log' '(' expr ')' | '(' expr ')'

Numbers are decimal literals kept as exact Fractions.  Profiles must be
positive from n = 2 on; phi(1) falls back to phi(2)/2 whenever the raw
formula is undefined or nonpositive there.

Plan synthesis asks a profile three questions on the log scale:
`first_above(t, n_lo, digit_cap)`, the least n > n_lo whose computed
value exceeds t; `nondecreasing_by_shape()`; and `boundary_anchor(n)`,
the `bignum.Anchor` of an exponent the profile built n (or n + 1) from.
A PowerLog and the legs of an OscLogPhi are functions of math.log(n), so
they answer `first_above` from their inverse: the least double y at which
their value passes t, then the least integer whose math.log reaches y.
A PowerLog also gives its value at math.log(n) = y (`at_log`).  Every
other profile (an ExprPhi, a PowerLog that may decrease) takes the base
class's `first_above`: a doubling search from n_lo + 1 and a bisection,
each probe `exceeds(n, t)`.
"""
from __future__ import annotations

import functools
import itertools
import math
import struct
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import bignum
from .errors import (CapacityError, GuardError, PhiDomainError,
                     PhiParseError, PlanValidityError, SearchCapError)
from .extreal import (INF, Const, ExtReal, cadd, cexp, clog, cmul, cneg,
                      cpow, csign)

# check_nondecreasing scans phi on 2..MONOTONE_WINDOW and forgives a
# relative dip of MONOTONE_SLACK (float rounding)
MONOTONE_WINDOW = 256
MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class GammaDelta:
    gamma: ExtReal
    delta: ExtReal
    provenance: str  # "analytic": proven, never scanned

    def __iter__(self):
        return iter((self.gamma, self.delta))


class PhiSpec:
    """Base class: positive profile with the phi(1) fallback rule.

    value(n) is finite and positive at every n >= 1, or raises
    PhiDomainError naming the depth where the profile is not.
    """

    def _raw(self, n: int) -> float:
        raise NotImplementedError

    def value(self, n: int) -> float:
        if n < 1:
            raise PhiDomainError(f"phi is defined for n >= 1, got {n}")
        if n == 1:
            try:
                v = self._raw(1)
            except (PhiDomainError, ValueError, OverflowError, ZeroDivisionError):
                v = None
            if v is None or not math.isfinite(v) or v <= 0:
                return self.value(2) / 2
            return v
        v = self._raw(n)
        if not math.isfinite(v):
            raise PhiDomainError(f"phi({n}) is not finite")
        if v <= 0:
            raise PhiDomainError(f"phi({n}) = {v} is not positive")
        return v

    def ratio(self, n: int) -> float:
        """phi(n)/log(n), the object whose limsup/liminf is (gamma, delta)."""
        if n < 2:
            raise PhiDomainError("ratio needs n >= 2")
        return self.value(n) / math.log(n)

    def gamma_delta(self) -> GammaDelta:
        raise NotImplementedError

    def first_witness_candidate(self, target: ExtReal, min_n: int, *,
                                threshold: Optional[float] = None,
                                eval_shift: int = 0) -> int:
        """First n >= min_n to test as a ratio witness for target (ratio
        read at n + eval_shift); profiles that know better override it."""
        return min_n

    def exceeds(self, n: int, t: float) -> bool:
        """value(n) > t, a value past float range counting as above t;
        SearchCapError where the profile runs out (PhiDomainError)."""
        try:
            return self.value(n) > t
        except OverflowError:
            return True
        except PhiDomainError as exc:
            raise SearchCapError(
                f"profile ran out during the search: {exc}") from exc

    def first_above(self, t: float, n_lo: int, digit_cap: int) -> int:
        """The least n > n_lo whose computed value exceeds t (`exceeds`),
        for a nondecreasing profile: a doubling search from n_lo + 1 and a
        bisection.  CapacityError once the doubling passes digit_cap
        digits; a profile that answers on the log scale raises it where
        this search would (`_check_doubling_cap`)."""
        lo, hi = n_lo, n_lo + 1
        while not self.exceeds(hi, t):
            bignum.check_digit_cap(math.log(hi), digit_cap)
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.exceeds(mid, t):
                hi = mid
            else:
                lo = mid
        return hi

    def nondecreasing_by_shape(self) -> bool:
        """True when the profile's form makes it nondecreasing; False
        when only a scan can tell."""
        return False

    def at_log(self, y: float) -> Optional[float]:
        """_raw(n) for every n >= 2 with math.log(n) == y, when the
        profile is a function of math.log(n) alone; else None."""
        return None

    def boundary_anchor(self, n: int) -> Optional[bignum.Anchor]:
        """The Anchor of the exponent X of a boundary c = ceil(e^X) that
        the profile built, for n = c or c - 1; else None."""
        return None


# --------------------------------------------------------------------------
# inverses on the log scale
# --------------------------------------------------------------------------

_DOUBLE = struct.Struct("<d")
_INT64 = struct.Struct("<q")


def _bits(x: float) -> int:
    """The bit pattern of a double x >= 0, an int ordered as x is."""
    return _INT64.unpack(_DOUBLE.pack(x))[0]


def _double(b: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(b))[0]


_INF_BITS = _bits(math.inf)
_LOG_MAX = math.log(sys.float_info.max)
_MANT = 1 << 52                  # the least 53-bit mantissa
_LOG_EXACT = math.log(2 * _MANT)  # up to 2^53 every integer is a double


def _least(pred: Callable[[int], bool], lo: int, start: int,
           hi: Optional[int] = None) -> int:
    """The least integer x > lo with pred(x), for pred false at lo, true
    at hi (if given) and monotone: false, then true.  The search steps
    away from the estimate start in doubling steps and bisects the
    bracket it finds."""
    x = max(start, lo + 1)
    if hi is not None:
        x = min(x, hi)
    step = 1
    if pred(x):
        hi = x
        while hi - step > lo and pred(hi - step):
            hi -= step
            step *= 2
        lo = max(lo, hi - step)
    else:
        lo = x
        while True:
            x = lo + step
            if hi is not None and x >= hi:
                break
            if pred(x):
                hi = x
                break
            lo, step = x, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _least_int_with_log(y: float) -> int:
    """The least integer n >= 1 whose math.log(n) is at least y.

    math.log takes the log of n rounded to 53 bits, half to even: as a
    double below 2^1024, in frexp form (log(x) + log(2) e) above.  So
    past 2^53 it is a function of that rounding m 2^k, m a 53-bit
    mantissa and k >= 1: find the least k, then the least m, for which
    the log of m 2^k reaches y, and return the least integer that
    rounds to m 2^k.
    """
    if y <= _LOG_EXACT:
        return _least(lambda n: math.log(n) >= y, 0,
                      math.ceil(math.exp(max(y, 0.0))))
    top = 2 * _MANT - 1
    k = max(1, int(y / bignum.LN2) - 53)
    while k > 1 and math.log(top << (k - 1)) >= y:
        k -= 1
    while math.log(top << k) < y:
        k += 1
    # so (_MANT - 1) 2^k, at most top 2^(k-1), lies below y
    m = _least(lambda m: math.log(m << k) >= y, _MANT - 1, _MANT
               + int(_MANT * math.expm1(y - math.log(_MANT << k))), top)
    # the integers that round to m 2^k start at its midpoint with the
    # value below, which a tie rounds to the even mantissa
    below = top << (k - 1) if m == _MANT else (m - 1) << k
    return ((m << k) + below) // 2 + (m & 1)


def _check_doubling_cap(n_lo: int, below: Optional[Callable[[int], bool]],
                        digit_cap: int) -> None:
    """CapacityError where a doubling search for the crossing past n_lo
    raises: it probes (n_lo + 1) 2^k for k = 0, 1, ... while a probe lies
    below the crossing (`below`; None when there is no crossing), and
    gives up at the first probe that passes digit_cap digits."""
    base = n_lo + 1

    def past(k):
        return bignum.digits_of_exp(math.log(base << k)) > digit_cap

    k = max(0, int((digit_cap * bignum.LOG10 - math.log(base))
                   / bignum.LN2) - 1)
    while k > 0 and past(k - 1):
        k -= 1
    while not past(k):
        k += 1
    probe = base << k
    if below is None or below(probe):
        bignum.check_digit_cap(math.log(probe), digit_cap)


def _check_crossing_cap(n_lo: int, c: int, digit_cap: int) -> None:
    """`_check_doubling_cap` for the crossing c."""
    if bignum.digits_of_exp(math.log(c - 1)) > digit_cap:
        _check_doubling_cap(n_lo, lambda probe: probe < c, digit_cap)


def _crossing_on_log(key: Callable[[float], float], t: float, n_lo: int,
                     y_est: Optional[float], digit_cap: Optional[int]) -> int:
    """The least n > n_lo with key(math.log(n)) > t, for a finite t and a
    nondecreasing key, unbounded unless constant, that reads a value past
    float range as inf.  The estimate y_est of the crossing's log steers
    the search; it is None for a constant key.  CapacityError where a
    doubling search from n_lo + 1 would raise, so also when key never
    exceeds t; no check for a digit_cap of None, whose caller bounds the
    crossing."""
    n = n_lo + 1
    y_lo = math.log(n)
    if key(y_lo) > t:
        return n
    if y_est is None:   # never crosses: the doubling gives up, so this raises
        _check_doubling_cap(n_lo, None, digit_cap)
    if y_est <= _LOG_EXACT:   # both searches at once, on the integers
        c = _least(lambda m: key(math.log(m)) > t, n,
                   math.ceil(math.exp(max(y_est, 0.0))))
        if digit_cap is not None:
            _check_crossing_cap(n_lo, c, digit_cap)
        return c
    # the least double y past y_lo with key(y) > t, on the doubles' bit
    # patterns, which are ordered as the doubles are
    y = _double(_least(lambda b: key(_double(b)) > t, _bits(y_lo),
                       _bits(y_est), _INF_BITS))
    if digit_cap is not None and (y == math.inf
                                  or bignum.digits_of_exp(y) > digit_cap):
        _check_doubling_cap(n_lo, lambda probe: math.log(probe) < y,
                            digit_cap)
    return _least_int_with_log(y)


def _monomial_extremes(n_exp: Fraction, log_exp: Fraction,
                       coef: Fraction) -> GammaDelta:
    """Analytic extremes of a profile dominated by coef*n^n_exp*log(n)^log_exp:
    inf above log n, coef at log n, 0 below it or when coef is 0."""
    if coef == 0 or (n_exp, log_exp) < (0, 1):
        g = d = ExtReal(0)
    elif (n_exp, log_exp) == (0, 1):
        g = d = ExtReal(coef)
    else:
        g = d = INF
    return GammaDelta(g, d, "analytic")


@dataclass(frozen=True)
class PowerLog(PhiSpec):
    """phi(n) = coef * n^n_exp * log(n)^log_exp, all parameters exact.

    `_floats` holds the three parameters as _raw multiplies them in,
    converted once (`_float_params`).  It is a plain attribute, not a
    field, so it takes no part in equality, hash, repr or
    dataclasses.fields.  It is None when a parameter lies past float
    range; _raw then converts again on every call, so value() raises
    OverflowError at every n, as a per-call conversion does.  So is
    `_monotone`, the verdict of `nondecreasing_by_shape`.
    """

    coef: Fraction
    n_exp: Fraction
    log_exp: Fraction
    source: Optional[str] = None

    def __post_init__(self):
        try:
            floats = self._float_params()
        except OverflowError:
            floats = None
        object.__setattr__(self, "_floats", floats)
        object.__setattr__(self, "_monotone", self.coef > 0
                           and self.n_exp >= 0 and self.log_exp >= 0)

    def _float_params(self) -> tuple:
        """coef, n_exp and log_exp as floats, a zero exponent as None."""
        return (float(self.coef),
                float(self.n_exp) if self.n_exp else None,
                float(self.log_exp) if self.log_exp else None)

    def _raw(self, n: int) -> float:
        return self.at_log(math.log(n))

    def at_log(self, y: float) -> float:
        val, n_exp, log_exp = self._floats or self._float_params()
        if n_exp is not None:
            val *= math.exp(n_exp * y)
        if log_exp is not None:
            if y == 0.0:
                # 0^positive = 0 triggers the phi(1) fallback upstream
                return 0.0 if self.log_exp > 0 else math.inf
            val *= y ** log_exp
        return val

    def nondecreasing_by_shape(self) -> bool:
        return self._monotone

    def first_above(self, t: float, n_lo: int, digit_cap: int) -> int:
        """Searched on the log scale when the profile is nondecreasing by
        its shape (and n_lo >= 1, past the phi(1) fallback); else the
        default search."""
        if n_lo < 1 or not self._monotone:
            return super().first_above(t, n_lo, digit_cap)
        n = _crossing_on_log(self._key, t, n_lo, self._log_estimate(t),
                             digit_cap)
        # the search's probe of n: SearchCapError where the value there
        # leaves float range as a product, not by an OverflowError
        self.exceeds(n, t)
        return n

    def _key(self, y: float) -> float:
        """at_log, a value past float range read as inf."""
        try:
            return self.at_log(y)
        except OverflowError:
            return math.inf

    def _log_estimate(self, t: float) -> Optional[float]:
        """About the y with coef e^(n_exp y) y^log_exp = t > 0, where a
        search for the crossing of t starts; None for a constant."""
        coef, a, b = self._floats
        r = math.log(t) - math.log(coef)
        if b is None:
            return r / a if a is not None else None
        if a is None:
            return math.exp(min(r / b, _LOG_MAX))
        y = max(r / a, 1.0)   # Newton on a y + b ln y = r, from above
        for _ in range(6):
            y = max(y - (a * y + b * math.log(y) - r) / (a + b / y), 1.0)
        return y

    def gamma_delta(self) -> GammaDelta:
        return _monomial_extremes(self.n_exp, self.log_exp, self.coef)

    def __str__(self) -> str:
        return self.source or (
            f"{self.coef}*n^{self.n_exp}*log(n)^{self.log_exp}")


# --------------------------------------------------------------------------
# expression profiles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Num:
    value: Fraction


@dataclass(frozen=True)
class _Var:
    pass


@dataclass(frozen=True)
class _Log:
    child: object


@dataclass(frozen=True)
class _Add:
    left: object
    right: object


@dataclass(frozen=True)
class _Mul:
    left: object
    right: object


@dataclass(frozen=True)
class _Pow:
    base: object
    exp: object


def _eval_ast(node, n: int) -> float:
    if isinstance(node, _Num):
        return float(node.value)
    if isinstance(node, _Var):
        return float(n)
    if isinstance(node, _Log):
        if isinstance(node.child, _Var):
            return math.log(n)  # big ints are fine here
        v = _eval_ast(node.child, n)
        if v <= 0:
            raise PhiDomainError(f"log of nonpositive value at n={n}")
        return math.log(v)
    if isinstance(node, _Add):
        return _eval_ast(node.left, n) + _eval_ast(node.right, n)
    if isinstance(node, _Mul):
        return _eval_ast(node.left, n) * _eval_ast(node.right, n)
    if isinstance(node, _Pow):
        e = _eval_ast(node.exp, n)
        if isinstance(node.base, _Var):
            # route through exp(e*log n) so huge ints never hit float()
            return math.exp(e * math.log(n))
        b = _eval_ast(node.base, n)
        if b < 0:
            raise PhiDomainError("negative base under ^")
        if b == 0:
            return 0.0 if e > 0 else math.inf
        return math.exp(e * math.log(b))
    raise TypeError(f"unknown node {node!r}")


class ExprPhi(PhiSpec):
    """AST-evaluated profile; its extremes come from its leading term."""

    def __init__(self, ast, source: str):
        self.ast = ast
        self.source = source
        self._extremes: Optional[GammaDelta] = None

    def _raw(self, n: int) -> float:
        return _eval_ast(self.ast, n)

    def gamma_delta(self) -> GammaDelta:
        """gamma = delta = lim phi(n)/log(n), proven from the leading term
        of the expression (`_limit_ratio`) and kept on the profile, whose
        values never change."""
        if self._extremes is None:
            lim = _limit_ratio(self.ast, self.source)
            self._extremes = GammaDelta(lim, lim, "analytic")
        return self._extremes

    def __str__(self) -> str:
        return self.source


# --------------------------------------------------------------------------
# oscillating profiles
# --------------------------------------------------------------------------

class OscLogPhi(PhiSpec):
    """Nondecreasing phi whose ratio to log n sweeps [delta, gamma] forever.

    Built from self-paced cycles.  A cycle starting at s runs three legs:

      low leg    n in [s, E]:        phi = delta * log n     (ratio = delta)
      climb      n in [E+1, 2E]:     phi = mult * log n      (ratio = mult)
      hold       n in [2E+1, c-1]:   phi = mult * log(2E)    (ratio decays)

    with E = 4s, mult = gamma for finite gamma (mult = delta + k
    on the k-th cycle when gamma is infinite), and c the least integer with
    delta * log c >= the held value, so the next low leg continues without
    a decrease.  Ratios over a cycle stay within [delta, mult] and attain
    both endpoints on whole segments, hence liminf = delta exactly and
    limsup = gamma (finite or not).

    Segments come from one lazy generator (`_generate`) and are memoized
    append-only; once created they never change, so lookups may cache
    freely.  A cycle's closing boundary c, an integer of about
    mult/delta times the digits of 2E, and its hold leg are computed only
    when a lookup first reaches past its climb.
    """

    _SEGMENT_DIGIT_CAP = 100_000

    def __init__(self, delta, gamma):
        self.delta = ExtReal(delta)
        self.gamma = ExtReal(gamma)
        if self.delta.is_inf or self.delta.is_zero:
            raise PhiDomainError("the lower target must be finite and positive")
        if not self.delta < self.gamma:
            raise PhiDomainError("need delta < gamma")
        self._df = float(self.delta)
        self._gf = None if self.gamma.is_inf else float(self.gamma)
        # (start, end, kind, mult, hold_value); kind in {"low","climb","hold"}
        self._segments: list[tuple[int, int, str, Optional[float], Optional[float]]] = []
        self._starts: list[int] = []
        self._anchors: dict[int, bignum.Anchor] = {}   # by boundary
        self._pending = self._generate()

    def _generate(self):
        """The segments in order, cycle by cycle.  A cycle's closing
        boundary (its Anchor kept) and hold leg are built when the segment
        after its climb is pulled; a boundary past _SEGMENT_DIGIT_CAP
        digits comes as the CapacityError that building it raised, at that
        pull and every later one."""
        s = 2
        for k in itertools.count(1):
            end_low = 4 * s
            yield s, end_low, "low", self._df, None
            mult = self._gf if self._gf is not None else self._df + k
            climb_end = 2 * end_low
            yield end_low + 1, climb_end, "climb", mult, None
            held = mult * math.log(climb_end)
            while True:
                try:
                    s, anchor = bignum.exp_ceil_anchor(
                        held / self._df, 1, self._SEGMENT_DIGIT_CAP)
                    break
                except CapacityError as exc:
                    yield exc
            # mult > delta can round to mult == delta as doubles: then
            # held/delta is math.log(climb_end), which may lie below the
            # true log, and the boundary comes out as climb_end itself
            if s <= climb_end:
                s = climb_end + 1
            else:
                self._anchors[s] = anchor
            if s > climb_end + 1:
                yield climb_end + 1, s - 1, "hold", None, held

    def segment_for(self, n: int) -> tuple[int, int, str, Optional[float], Optional[float]]:
        if n < 2:
            raise PhiDomainError("segments cover n >= 2")
        while not self._segments or self._segments[-1][1] < n:
            seg = next(self._pending)
            if isinstance(seg, CapacityError):
                raise seg.with_traceback(None)
            self._segments.append(seg)
            self._starts.append(seg[0])
        return self._segments[bisect_right(self._starts, n) - 1]

    def _legs_from(self, n: int):
        """The segments from the one holding n on, the first clipped to
        start at n (at 2, where the segments start, for n < 2)."""
        n = max(n, 2)
        seg = self.segment_for(n)
        yield (n,) + seg[1:]
        while True:
            seg = self.segment_for(seg[1] + 1)
            yield seg

    def _raw(self, n: int) -> float:
        if n < 2:
            raise PhiDomainError("defined from n = 2; n = 1 uses the fallback")
        start, end, kind, mult, held = self.segment_for(n)
        if kind == "hold":
            return held
        return mult * math.log(n)

    def gamma_delta(self) -> GammaDelta:
        return GammaDelta(self.gamma, self.delta, "analytic")

    def nondecreasing_by_shape(self) -> bool:
        return True

    def first_above(self, t: float, n_lo: int, digit_cap: int) -> int:
        """Leg by leg from n_lo + 1: a hold leg crosses t at its start when
        its held value exceeds t, a log leg where mult log n does."""
        if n_lo < 1:
            return super().first_above(t, n_lo, digit_cap)
        for start, end, kind, mult, held in self._legs_from(n_lo + 1):
            if kind == "hold":
                if held > t:
                    n = start
                    break
            elif mult * math.log(end) > t:
                n = _crossing_on_log(lambda y: mult * y, t, start - 1,
                                     t / mult, None)
                break
        _check_crossing_cap(n_lo, n, digit_cap)
        return n

    def boundary_anchor(self, n: int) -> Optional[bignum.Anchor]:
        return self._anchors.get(n + 1) or self._anchors.get(n)

    def first_witness_candidate(self, target: ExtReal, min_n: int, *,
                                threshold: Optional[float] = None,
                                eval_shift: int = 0) -> int:
        """Start of the next climb (ratio gamma, or above threshold when
        gamma is inf) or of the next low leg (ratio delta, read at
        n + eval_shift); min_n for any other target."""
        if target == self.gamma:
            least = threshold + 1e-9 if target.is_inf else -math.inf
            return next(start for start, _, kind, mult, _
                        in self._legs_from(min_n)
                        if kind == "climb" and mult >= least)
        if target == self.delta:
            return next(start for start, _, kind, _, _
                        in self._legs_from(min_n + eval_shift)
                        if kind == "low") - eval_shift
        return min_n

    def __str__(self) -> str:
        return f"osc({self.delta}, {self.gamma})"


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

_TOKEN_CHARS = set("+*^()")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    toks = []
    i, L = 0, len(text)
    while i < L:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < L and text[j].isdigit():
                j += 1
            if j < L and text[j] == ".":
                j += 1
                if j >= L or not text[j].isdigit():
                    raise PhiParseError("digits must follow a decimal point", j)
                while j < L and text[j].isdigit():
                    j += 1
            toks.append(("num", Fraction(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < L and text[j].isalpha():
                j += 1
            name = text[i:j]
            if name == "n":
                toks.append(("n", name, i))
            elif name == "log":
                toks.append(("log", name, i))
            else:
                raise PhiParseError(f"unknown name {name!r}", i)
            i = j
            continue
        raise PhiParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, L))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def take(self, kind: str):
        tok = self.toks[self.pos]
        if tok[0] != kind:
            raise PhiParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() != "end":
            tok = self.toks[self.pos]
            raise PhiParseError(f"unexpected {tok[0]!r}", tok[2])
        return node

    def expr(self):
        # '+' and '*' share one precedence level, left associative
        node = self.term()
        while self.peek() in ("+", "*"):
            op = self.take(self.peek())[0]
            rhs = self.term()
            node = _Add(node, rhs) if op == "+" else _Mul(node, rhs)
        return node

    def term(self):
        base = self.factor()
        if self.peek() == "^":
            self.take("^")
            return _Pow(base, self.factor())
        return base

    def factor(self):
        kind = self.peek()
        if kind == "num":
            return _Num(self.take("num")[1])
        if kind == "n":
            self.take("n")
            return _Var()
        if kind == "log":
            self.take("log")
            self.take("(")
            inner = self.expr()
            self.take(")")
            return _Log(inner)
        if kind == "(":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return inner
        tok = self.toks[self.pos]
        raise PhiParseError(f"unexpected {tok[0]!r}", tok[2])


# --------------------------------------------------------------------------
# leading terms: expansions over the iterated logarithms
# --------------------------------------------------------------------------
#
# Every expression of the grammar is an exp-log function, so it lies in a
# Hardy field (Hardy, Orders of Infinity, 1910): phi(n)/log(n) has a limit,
# which the leading term of phi's expansion gives.  An expansion is a sum
# of terms c M, each M a monomial
#
#     M = exp(P) n^e0 L1^e1 L2^e2 ...,     Lk the k-fold log of n,
#
# where P is a sum of terms above 1 holding no c Lk with k >= 1 (that is
# the exponent c of L(k-1)).  Coefficients and exponents are Fractions, or
# extreal.Consts where irrational.  Monomials compare as their logs do, by
# the sign of the leading term of the difference (Gruntz, On Computing
# Limits in a Symbolic Manipulation System, 1996); without exp parts that
# is the first exponent that differs.  x^y is exp(y log x), and a log takes
# its argument's leading term c M: log x = log c + log M + log(1 + h).
#
# An expansion is a pair (terms, rem): exact terms, decreasing, and a
# monomial rem above everything they leave out, None when they are the
# whole function.  `_expand(node, k)` gives at least k terms or all of them.

class _Mono(NamedTuple):
    logs: tuple   # P as ((coef, _Mono), ...), decreasing
    e: tuple      # (e0, e1, ...), no trailing zero


_F0, _F1 = Fraction(0), Fraction(1)
_ONE = _Mono((), ())
_ZERO = ((), None)

# an expansion that needs more terms than this for its leading term, or
# for the part of an exponent that does not vanish, is not certified
_TERMS_MAX = 16


@functools.lru_cache(maxsize=None)
def _atom(k: int) -> _Mono:
    """Lk, the k-fold log of n; L0 is n."""
    return _Mono((), (_F0,) * k + (_F1,))


def _trim(e) -> tuple:
    e = list(e)
    while e and e[-1] == 0:
        e.pop()
    return tuple(e)


def _mono_cmp(a: _Mono, b: _Mono) -> int:
    """The sign of log a - log b: 1 when a grows faster than b."""
    if a == b:
        return 0
    if not a.logs and not b.logs:
        for x, y in itertools.zip_longest(a.e, b.e, fillvalue=_F0):
            if x != y:
                if type(x) is Fraction and type(y) is Fraction:
                    return 1 if x > y else -1
                sign = csign(cadd(x, cneg(y)))
                if sign:
                    return sign
        return 0
    diff = _collect(_mono_log(a) + [(cneg(c), m) for c, m in _mono_log(b)])
    return csign(diff[0][0]) if diff else 0


_DECREASING = functools.cmp_to_key(lambda s, t: _mono_cmp(t[1], s[1]))


def _collect(terms) -> list:
    """The terms sorted by decreasing monomial, like ones summed and exact
    zeros dropped."""
    terms = list(terms)
    if len(terms) < 2:
        return [t for t in terms if t[0] != 0]
    out = []
    for c, m in sorted(terms, key=_DECREASING):
        if out and _mono_cmp(out[-1][1], m) == 0:
            c = cadd(out.pop()[0], c)
        if c != 0:
            out.append((c, m))
    return out


def _mono_log(m: _Mono) -> list:
    """log m as terms: P and each e_k L(k+1)."""
    return list(m.logs) + [(x, _atom(k + 1)) for k, x in enumerate(m.e)
                           if x != 0]


def _mono_mul(a: _Mono, b: _Mono) -> _Mono:
    logs = tuple(_collect(a.logs + b.logs)) if a.logs or b.logs else ()
    return _Mono(logs, _trim(itertools.starmap(cadd, itertools.zip_longest(
        a.e, b.e, fillvalue=_F0))))


def _mono_pow(m: _Mono, r) -> _Mono:
    return _Mono(tuple((cmul(r, c), mm) for c, mm in m.logs),
                 _trim(cmul(r, x) for x in m.e))


def _mono_exp(terms) -> _Mono:
    """exp of a sum of terms above 1: a term c Lk (k >= 1) adds c to the
    exponent of L(k-1), the others make up the exp part."""
    logs, e = [], []
    for c, m in terms:
        k = len(m.e) - 1
        if not m.logs and k >= 1 and m == _atom(k):
            e += [_F0] * (k - len(e))
            e[k - 1] = cadd(e[k - 1], c)
        else:
            logs.append((c, m))
    return _Mono(tuple(logs), _trim(e))


def _top(rems) -> Optional[_Mono]:
    """The greatest monomial of rems, None entries skipped."""
    out = None
    for r in rems:
        if r is not None and (out is None or _mono_cmp(r, out) > 0):
            out = r
    return out


def _certain(terms, rem) -> tuple:
    """The expansion of the decreasing terms above rem."""
    if rem is not None:
        keep = 0
        while keep < len(terms) and _mono_cmp(terms[keep][1], rem) > 0:
            keep += 1
        terms = terms[:keep]
    return tuple(terms), rem


def _take(s, k: int) -> tuple:
    terms, rem = s
    if len(terms) > k:
        return terms[:k], terms[k][1]
    return s


def _lead_mono(s) -> _Mono:
    return s[0][0][1] if s[0] else s[1]


def _add(a, b) -> tuple:
    return _certain(_collect(a[0] + b[0]), _top((a[1], b[1])))


def _mul(a, b) -> tuple:
    if a == _ZERO or b == _ZERO:
        return _ZERO
    terms = _collect((cmul(c, d), _mono_mul(m, n))
                     for c, m in a[0] for d, n in b[0])
    rems = (None if a[1] is None else _mono_mul(a[1], _lead_mono(b)),
            None if b[1] is None else _mono_mul(b[1], _lead_mono(a)))
    return _certain(terms, _top(rems))


def _scale(s, c, m: _Mono) -> tuple:
    """s times the term c m."""
    terms, rem = s
    return (tuple((cmul(c, d), _mono_mul(m, n)) for d, n in terms),
            None if rem is None else _mono_mul(m, rem))


def _power_series(h, coefs: list, exact: bool, k: int) -> tuple:
    """sum(coefs[j] h^j), h an expansion below 1: the whole sum when
    exact, else up to O(lead(h)^len(coefs)); each power is kept to k
    terms."""
    terms = [(coefs[0], _ONE)]
    if h == _ZERO:
        return _certain(_collect(terms), None)
    rems = []
    power = ((_F1, _ONE),), None
    for a in coefs[1:]:
        power = _take(_mul(power, h), k)
        terms += [(cmul(a, c), m) for c, m in power[0]]
        rems.append(power[1])
    if not exact:
        rems.append(_mono_pow(_lead_mono(h), Fraction(len(coefs))))
    return _certain(_collect(terms), _top(rems))


def _split_lead(s, what: str) -> tuple:
    """(c, M, h): the leading term c M of s, positive, and h = s/(c M) - 1."""
    if not s[0]:
        raise PhiDomainError(f"{what} of an eventually zero value")
    c, m = s[0][0]
    if csign(c) < 0:
        raise PhiDomainError(f"{what} of an eventually negative value")
    if len(s[0]) == 1 and s[1] is None:
        return c, m, _ZERO
    h = _scale((s[0][1:], s[1]), cpow(c, Fraction(-1)),
               _mono_pow(m, Fraction(-1)))
    return c, m, h


def _log(s, k: int) -> tuple:
    """log s = log c + log M + sum((-1)^(j+1) h^j / j)."""
    c, m, h = _split_lead(s, "log")
    terms, rem = (), None
    if h != _ZERO:
        coefs = [_F0] + [Fraction((-1) ** (j + 1), j) for j in range(1, k + 1)]
        terms, rem = _power_series(h, coefs, False, k)
    head = _mono_log(m) + ([(clog(c), _ONE)] if c != 1 else [])
    return _certain(_collect(head + list(terms)), rem)


def _pow_const(s, r, k: int) -> tuple:
    """s^r for a constant r: (c M)^r times the binomial series of h,
    whole for a whole r of at most k."""
    if s == _ZERO:
        if csign(r) > 0:
            return _ZERO
        raise PhiDomainError("0 under ^ to a power that is not positive")
    if r == 0:
        return ((_F1, _ONE),), None
    c, m, h = _split_lead(s, "a base under ^")
    if h == _ZERO:
        return ((cpow(c, r), _mono_pow(m, r)),), None
    whole = (not isinstance(r, Const) and r.denominator == 1
             and 0 < r <= k)
    coefs = [Fraction(1)]
    for j in range(1, int(r) + 1 if whole else k + 1):
        coefs.append(cmul(coefs[-1], cmul(cadd(r, Fraction(1 - j)),
                                          Fraction(1, j))))
    return _scale(_power_series(h, coefs, whole, k), cpow(c, r),
                  _mono_pow(m, r))


def _pow(node: _Pow, k: int, memo: dict) -> tuple:
    """x^y: a power of x's expansion for a constant y, else exp(y log x)
    from y log x down to its vanishing part."""
    y = _expand(node.exp, 1, memo)
    if y[1] is None and all(m == _ONE for _, m in y[0]):
        return _pow_const(_expand(node.base, k, memo),
                          y[0][0][0] if y[0] else _F0, k)
    if _expand(node.base, 1, memo) == _ZERO:
        return _pow_const(_ZERO, y[0][0][0], k)
    kk = k
    while True:
        g = _mul(_expand(node.exp, kk, memo),
                 _log(_expand(node.base, kk, memo), kk))
        if g[1] is None or _mono_cmp(g[1], _ONE) < 0:
            break
        kk = _deeper(kk)
    order = [_mono_cmp(m, _ONE) for _, m in g[0]]
    big = [t for t, o in zip(g[0], order) if o > 0]
    const = next((c for (c, _), o in zip(g[0], order) if o == 0),
                 _F0)
    small = tuple(t for t, o in zip(g[0], order) if o < 0), g[1]
    coefs = [Fraction(1)]
    for j in range(1, k + 1):
        coefs.append(coefs[-1] / j)
    return _scale(_power_series(small, coefs, False, k), cexp(const),
                  _mono_exp(big))


def _deeper(k: int) -> int:
    if 2 * k > _TERMS_MAX:
        raise GuardError(f"more than {_TERMS_MAX} terms of an expansion "
                         f"are needed")
    return 2 * k


def _expand(node, k: int, memo: dict) -> tuple:
    """node's expansion to at least k terms (all of them if fewer),
    through memo, a dict by (node, k)."""
    key = (node, k)
    s = memo.get(key)
    if s is not None:
        return s
    kk = k
    while True:
        s = _expand_once(node, kk, memo)
        if s[1] is None or len(s[0]) >= k:
            break
        kk = _deeper(kk)
    s = memo[key] = _take(s, k)
    return s


def _expand_once(node, k: int, memo: dict) -> tuple:
    if isinstance(node, _Num):
        return _ZERO if node.value == 0 else (((node.value, _ONE),), None)
    if isinstance(node, _Var):
        return ((_F1, _atom(0)),), None
    if isinstance(node, _Log):
        return _log(_expand(node.child, k, memo), k)
    if isinstance(node, _Add):
        return _add(_expand(node.left, k, memo), _expand(node.right, k, memo))
    if isinstance(node, _Mul):
        return _mul(_expand(node.left, k, memo), _expand(node.right, k, memo))
    if isinstance(node, _Pow):
        return _pow(node, k, memo)
    raise TypeError(f"unknown node {node!r}")


def _limit_ratio(ast, source: str) -> ExtReal:
    """lim phi(n)/log(n) of the expression: inf, 0, or the coefficient
    of log(n) in its leading term.  GuardError naming the source where
    the leading term cannot be certified; PhiDomainError where phi is
    eventually 0 or negative."""
    try:
        terms, _ = _expand(ast, 1, {})
        if not terms:
            raise PhiDomainError(f"{source} is eventually 0")
        c, m = terms[0]
        if csign(c) < 0:
            raise PhiDomainError(f"{source} is eventually negative")
        order = _mono_cmp(m, _atom(1))
    except GuardError as exc:
        raise GuardError(f"the leading term of {source} cannot be "
                         f"certified: {exc}") from None
    return INF if order > 0 else ExtReal(c if order == 0 else 0)


def _as_power_log(ast, source: str) -> Optional[PowerLog]:
    """The PowerLog of an expression whose expansion is exactly one term
    c n^a log(n)^b with rational c, a and b (or is 0), else None."""
    try:
        terms, rem = _expand(ast, 2, {})
    except (GuardError, PhiDomainError):
        return None
    if rem is not None or len(terms) > 1:
        return None
    c, m = terms[0] if terms else (_F0, _ONE)
    e = m.e + (_F0,) * (2 - len(m.e))
    if m.logs or len(e) > 2 or any(isinstance(x, Const) for x in (c,) + e):
        return None
    return PowerLog(coef=c, n_exp=e[0], log_exp=e[1], source=source)


def parse_phi(text: str) -> PhiSpec:
    """Parse an expression into a profile.

    An expression whose expansion is exactly one term c * n^a * log(n)^b
    with rational c, a and b comes back as a PowerLog; every other one
    stays AST-backed, and its extremes come from its leading term.
    """
    ast = _Parser(text).parse()
    spec = _as_power_log(ast, text) or ExprPhi(ast, text)
    try:
        v2 = spec.value(2)
    except PhiDomainError as exc:
        raise PhiParseError(f"rejected: {exc}", 0) from exc
    if v2 <= 0:
        raise PhiParseError("rejected: phi(2) must be positive", 0)
    return spec


def check_nondecreasing(phi: PhiSpec) -> None:
    """Verify phi does not decrease: by its shape when that tells
    (`nondecreasing_by_shape`), else on 2..MONOTONE_WINDOW, up to a
    relative MONOTONE_SLACK.

    Raises PlanValidityError at the first violation of the scan.  A
    scan certifies its window and nothing beyond it; callers relying on
    monotonicity at larger n inherit that caveat.
    """
    if phi.nondecreasing_by_shape():
        return
    prev = phi.value(2)
    for n in range(3, MONOTONE_WINDOW + 1):
        cur = phi.value(n)
        if cur < prev * (1 - MONOTONE_SLACK) - 1e-300:
            raise PlanValidityError(
                f"phi decreases between n={n - 1} ({prev}) and n={n} ({cur})")
        prev = max(prev, cur)
