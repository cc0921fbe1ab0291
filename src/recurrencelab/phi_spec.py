"""Growth profiles phi: N -> (0, inf) and their log-ratio asymptotics.

A profile enters the library in one of three shapes:

* PowerLog      -- c * n^a * log(n)^b with exact rational c, a, b.
* ExprPhi       -- an arithmetic expression over n, log, +, *, ^.
* OscLogPhi     -- a nondecreasing profile whose ratio phi(n)/log(n)
                   oscillates between two prescribed targets.

The quantity that drives everything downstream is the pair

    gamma = limsup phi(n)/log(n),    delta = liminf phi(n)/log(n),

reported as a GammaDelta with provenance "analytic" when the shape pins
the limits down exactly and "estimated" (a finite-window scan of an
ExprPhi) otherwise.

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

import itertools
import math
import operator
import struct
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import bignum
from .errors import (CapacityError, PhiDomainError, PhiParseError,
                     PlanValidityError, SearchCapError)
from .extreal import INF, ExtReal

# an ExprPhi without exact extremes is scanned up to this n
ESTIMATE_HORIZON = 100_000

# the estimate scan reads its ratios in blocks of at most this many n
SCAN_BLOCK = 4096

# check_nondecreasing scans phi on 2..MONOTONE_WINDOW and forgives a
# relative dip of MONOTONE_SLACK (float rounding)
MONOTONE_WINDOW = 256
MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class GammaDelta:
    gamma: ExtReal
    delta: ExtReal
    provenance: str  # "analytic" | "estimated"

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


def _estimated_gamma_delta(phi: ExprPhi,
                           horizon: int = ESTIMATE_HORIZON) -> GammaDelta:
    """Sup/inf of the ratio over the top decade of a finite window.

    A scan can only ever bound the limits from one side, so the result
    is tagged "estimated"; callers must not treat it as exact.
    """
    if horizon < 2:
        raise PhiDomainError("estimation horizon must be at least 2")
    lo = max(2, horizon // 10)
    sup = -math.inf
    inf_ = math.inf
    for start in range(lo, horizon + 1, SCAN_BLOCK):
        ns = range(start, min(start + SCAN_BLOCK, horizon + 1))
        ratios = _block_ratios(phi, ns)
        if ratios is not None:
            sup = max(sup, max(ratios))
            inf_ = min(inf_, min(ratios))
            continue
        for n in ns:   # n by n, raising where phi.ratio does
            r = phi.ratio(n)
            if r > sup:
                sup = r
            if r < inf_:
                inf_ = r
    return GammaDelta(ExtReal(Fraction(sup)), ExtReal(Fraction(inf_)), "estimated")


def _block_ratios(phi: ExprPhi, ns: range) -> Optional[list]:
    """phi.ratio(n) for every n of ns (n >= 2), each operation of the
    expression mapped over the block, or None when the block raises or
    fails one of value()'s checks; the caller then replays the block n by
    n, which raises what the ratio loop would, at the same n."""
    logs = list(map(math.log, ns))
    try:
        values = _eval_block(phi.ast, ns, {_LOG_N: logs})
    except Exception:
        return None
    if not all(map(math.isfinite, values)) or min(values) <= 0:
        return None
    return list(map(operator.truediv, values, logs))


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


_LOG_N = _Log(_Var())


def _eval_block(node, ns: range, memo: dict) -> list:
    """_eval_ast at every n of ns, each operation mapped over the block.

    memo holds the block's values of each subtree evaluated so far, by
    node (equal subtrees share an entry); seeded with _LOG_N, log(n) is
    computed once per block.  Where _eval_ast raises at some n this
    raises too, though maybe not the same error: a math domain error
    stands for the PhiDomainError of a nonpositive log, for instance.
    """
    out = memo.get(node)
    if out is not None:
        return out
    if isinstance(node, _Num):
        out = [float(node.value)] * len(ns)
    elif isinstance(node, _Var):
        out = list(map(float, ns))
    elif isinstance(node, _Log):
        out = list(map(math.log, _eval_block(node.child, ns, memo)))
    elif isinstance(node, (_Add, _Mul)):
        op = operator.add if isinstance(node, _Add) else operator.mul
        out = list(map(op, _eval_block(node.left, ns, memo),
                       _eval_block(node.right, ns, memo)))
    elif isinstance(node, _Pow):
        e = _eval_block(node.exp, ns, memo)
        if isinstance(node.base, _Var):
            logs = _eval_block(_LOG_N, ns, memo)
            out = list(map(math.exp, map(operator.mul, e, logs)))
        else:
            # a zero or negative base raises in math.log: replayed n by n
            base = _eval_block(node.base, ns, memo)
            out = list(map(math.exp, map(operator.mul, e,
                                         map(math.log, base))))
    else:
        raise TypeError(f"unknown node {node!r}")
    memo[node] = out
    return out


class ExprPhi(PhiSpec):
    """AST-evaluated profile; keeps an exact monomial form when one exists."""

    def __init__(self, ast, source: str,
                 monomials: Optional[dict] = None):
        self.ast = ast
        self.source = source
        self.monomials = monomials  # {(n_exp, log_exp): coef} or None
        self._extremes: Optional[GammaDelta] = None

    def _raw(self, n: int) -> float:
        return _eval_ast(self.ast, n)

    def gamma_delta(self) -> GammaDelta:
        """Exact from the monomials when they decide it, else the block
        scan; either is kept on the profile, whose values never change, so
        classifying and then planning one profile scans its ratios once."""
        if self._extremes is None:
            gd = None
            if self.monomials is not None:
                gd = _gamma_delta_from_monomials(self.monomials)
            self._extremes = gd or _estimated_gamma_delta(self)
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
# exact normalization to sums of c * n^a * log(n)^b
# --------------------------------------------------------------------------

def _frac_pow(c: Fraction, e: Fraction) -> Optional[Fraction]:
    """c ** e when the result is exactly rational, else None."""
    if e.denominator == 1:
        if c == 0 and e < 0:
            return None
        return c ** e.numerator
    if c < 0:
        return None
    v = e.denominator
    rp = bignum.nth_root_floor(c.numerator, v)
    rq = bignum.nth_root_floor(c.denominator, v)
    if rp ** v != c.numerator or rq ** v != c.denominator:
        return None
    if rp == 0 and e < 0:
        return None
    return Fraction(rp, rq) ** e.numerator


_Monomials = dict  # {(Fraction n_exp, Fraction log_exp): Fraction coef}


def _mono_mul(a: _Monomials, b: _Monomials) -> _Monomials:
    out: _Monomials = {}
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return out


def _normalize(node) -> Optional[_Monomials]:
    if isinstance(node, _Num):
        return {(Fraction(0), Fraction(0)): node.value}
    if isinstance(node, _Var):
        return {(Fraction(1), Fraction(0)): Fraction(1)}
    if isinstance(node, _Log):
        inner = _normalize(node.child)
        if inner is None or len(inner) != 1:
            return None
        ((a, b), c), = inner.items()
        # only log(n^a) reduces exactly: log of anything else leaves the form
        if c == 1 and b == 0 and a > 0:
            return {(Fraction(0), Fraction(1)): a}
        return None
    if isinstance(node, _Add):
        l, r = _normalize(node.left), _normalize(node.right)
        if l is None or r is None:
            return None
        out = dict(l)
        for key, c in r.items():
            out[key] = out.get(key, Fraction(0)) + c
        return out
    if isinstance(node, _Mul):
        l, r = _normalize(node.left), _normalize(node.right)
        if l is None or r is None:
            return None
        return _mono_mul(l, r)
    if isinstance(node, _Pow):
        e_form = _normalize(node.exp)
        if e_form is None:
            return None
        if set(e_form) - {(Fraction(0), Fraction(0))}:
            return None  # exponent depends on n
        e = e_form.get((Fraction(0), Fraction(0)), Fraction(0))
        base = _normalize(node.base)
        if base is None:
            return None
        if len(base) > 1:
            if e.denominator == 1 and 0 <= e <= 16:
                out = {(Fraction(0), Fraction(0)): Fraction(1)}
                for _ in range(int(e)):
                    out = _mono_mul(out, base)
                return out
            return None
        ((a, b), c), = base.items()
        ce = _frac_pow(c, e)
        if ce is None:
            return None
        return {(a * e, b * e): ce}
    return None


def _gamma_delta_from_monomials(monos: _Monomials) -> Optional[GammaDelta]:
    live = {k: c for k, c in monos.items() if c != 0}
    if not live:
        return None
    if any(c < 0 for c in live.values()):
        return None  # cancellation-prone forms get the scan instead
    a_star, b_star = max(live)
    return _monomial_extremes(a_star, b_star, live[(a_star, b_star)])


def parse_phi(text: str) -> PhiSpec:
    """Parse an expression into a profile, normalizing where possible.

    A product that reduces to a single c * n^a * log(n)^b monomial comes
    back as a PowerLog; other expressions stay AST-backed but carry their
    exact monomial decomposition when one exists, which is what makes
    their gamma/delta analytic rather than scanned.
    """
    ast = _Parser(text).parse()
    monos = _normalize(ast)
    spec: PhiSpec
    if monos is not None:
        live = {k: c for k, c in monos.items() if c != 0}
        if len(live) == 1:
            ((a, b), c), = live.items()
            spec = PowerLog(coef=c, n_exp=a, log_exp=b, source=text)
        elif not live:
            spec = PowerLog(coef=Fraction(0), n_exp=Fraction(0),
                            log_exp=Fraction(0), source=text)
        else:
            spec = ExprPhi(ast, text, live)
    else:
        spec = ExprPhi(ast, text, None)
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
