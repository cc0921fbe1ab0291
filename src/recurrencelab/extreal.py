"""Extended nonnegative reals [0, inf] with exact arithmetic.

Classification decisions hinge on exact boundary comparisons (alpha >= 1/gamma
with 1/0 = inf and 1/inf = 0), so finite values are stored as Fractions and
infinity as a distinguished state.  Floats are admitted on input but converted
exactly; strings like "1/2", "0.75" or "inf" parse to the obvious values.

A profile's leading constant can be irrational (log 3, 2^(1/2)).  It is kept
exact as a `Const`: a rational scale times a product of powers of atoms,
each atom the log or the exp of a constant, a sum of constants, or a
positive rational under a fractional power.  Its sign, and so every
comparison with a rational, is read off a certified mpmath interval whose
precision doubles until the interval excludes 0.  Past the precision of
`bignum.DEFAULT_DIGIT_CAP` digits the constant is taken for an exact
cancellation (log(1/2) + log(2) written some other way) and the comparison
raises GuardError.
"""
from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import total_ordering
from typing import Union

from .bignum import DEFAULT_DIGIT_CAP, LN2, LOG10, nth_root_floor
from .errors import GuardError

RawExt = Union[int, float, str, Fraction, "Const", "ExtReal"]

# mpmath is imported where it is used (`_interval`), as bignum imports it:
# importing it with this module would load all of mpmath in a process
# that only measures words


def exact_root(c: Fraction, e: Fraction):
    """c ** e when the result is exactly rational, else None."""
    if e.denominator == 1:
        if c == 0 and e < 0:
            return None
        return c ** e.numerator
    if c < 0:
        return None
    v = e.denominator
    rp = nth_root_floor(c.numerator, v)
    rq = nth_root_floor(c.denominator, v)
    if rp ** v != c.numerator or rq ** v != c.denominator:
        return None
    if rp == 0 and e < 0:
        return None
    return Fraction(rp, rq) ** e.numerator


class Const:
    """An exact real not reduced to a Fraction: scale * prod(atom^exp).

    scale is a nonzero Fraction and core a sorted tuple of (atom, exp)
    pairs, exp a nonzero Fraction.  An atom is ("log", x), ("exp", x),
    ("add", (x, y, ...)) or ("rat", q), the last a positive rational under
    a fractional power; x and y are Fractions or Consts.  Equality and hash
    are structural: two Consts equal in value but built differently compare
    through their certified difference, which raises GuardError.
    """

    __slots__ = ("scale", "core", "_hash", "_text")

    def __init__(self, scale: Fraction, core: tuple):
        self.scale = scale
        self.core = core
        self._hash = hash((scale, core))
        self._text = None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Const) and self.scale == other.scale
                and self.core == other.core)

    def __hash__(self) -> int:
        return self._hash

    def __float__(self) -> float:
        """The midpoint of a 64-bit interval, rounded to a double."""
        from mpmath.libmp import mpi_mid, to_float
        return to_float(mpi_mid(_interval(self, 64)._mpi_, 53))

    def __repr__(self) -> str:
        return f"Const({str(self)!r})"

    def __str__(self) -> str:
        """The constant written out, kept: it also orders atoms and sums."""
        if self._text is None:
            parts = [] if self.scale == 1 else [str(self.scale)]
            for atom, e in self.core:
                text = _atom_text(atom)
                parts.append(text if e == 1 else f"{text}^({e})")
            self._text = "*".join(parts)
        return self._text


def _atom_text(atom: tuple) -> str:
    kind, arg = atom
    if kind == "rat":
        return str(arg)
    if kind == "add":
        return "(" + " + ".join(map(str, arg)) + ")"
    return f"{kind}({arg})"


def _split(x) -> tuple:
    return (x.scale, x.core) if isinstance(x, Const) else (x, ())


def _make(scale: Fraction, core: dict):
    """scale * prod(atom^exp) over core, a rational atom under an integer
    power folded into the scale; a Fraction when no atom is left."""
    atoms = []
    for atom, e in core.items():
        if e == 0:
            continue
        if atom[0] == "rat" and e.denominator == 1:
            scale *= atom[1] ** e.numerator
        else:
            atoms.append((atom, e))
    if not atoms or scale == 0:
        return scale
    return Const(scale, tuple(sorted(atoms, key=lambda a: _atom_text(a[0]))))


def cmul(a, b):
    if not isinstance(a, Const) and not isinstance(b, Const):
        return a * b
    sa, ca = _split(a)
    sb, cb = _split(b)
    core = dict(ca)
    for atom, e in cb:
        core[atom] = core.get(atom, 0) + e
    return _make(sa * sb, core)


def cadd(a, b):
    if not isinstance(a, Const) and not isinstance(b, Const):
        return a + b
    terms: dict = {}
    for x in (a, b):
        s, core = _split(x)
        if len(core) == 1 and core[0][0][0] == "add" and core[0][1] == 1:
            items = [cmul(s, y) for y in core[0][0][1]]
        else:
            items = [x]
        for y in items:
            sy, cy = _split(y)
            terms[cy] = terms.get(cy, 0) + sy
    items = [_make(s, dict(c)) for c, s in terms.items() if s != 0]
    if not items:
        return Fraction(0)
    if len(items) == 1:
        return items[0]
    return Const(Fraction(1), ((("add", tuple(sorted(items, key=str))),
                                Fraction(1)),))


def cneg(a):
    return cmul(Fraction(-1), a)


def cpow(a, r):
    """a ** r for a > 0 (or a = 0 and r > 0), r a Fraction or a Const."""
    if isinstance(r, Const):
        return cexp(cmul(r, clog(a)))
    if not isinstance(a, Const) and (a == 1 or r.denominator == 1):
        return a ** r.numerator
    s, core = _split(a)
    if s < 0 and r.denominator != 1:
        raise ValueError(f"negative base {a} under a fractional power")
    exact = exact_root(s, r)
    if exact is None:
        out = _make(Fraction(1), {("rat", s): r})
    else:
        out = exact
    return cmul(out, _make(Fraction(1), {atom: e * r for atom, e in core}))


def clog(a):
    """log a for a > 0: log(1/q) is -log q and a product's log a sum."""
    s, core = _split(a)
    if s <= 0:
        raise ValueError(f"log of the nonpositive constant {a}")
    if s < 1:
        out = cneg(clog(1 / s))
    elif s == 1:
        out = Fraction(0)
    else:
        out = _make(Fraction(1), {("log", s): Fraction(1)})
    for atom, e in core:
        kind, arg = atom
        if kind == "exp":
            term = arg
        elif kind == "rat":
            term = clog(arg)
        else:
            term = _make(Fraction(1), {("log", Const(Fraction(1),
                                                     ((atom, Fraction(1)),))):
                                       Fraction(1)})
        out = cadd(out, cmul(e, term))
    return out


def cexp(x):
    """e^x: e^(s log q) is q^s and e^(x + y) is e^x e^y."""
    s, core = _split(x)
    if not core:
        if s == 0:
            return Fraction(1)
        return _make(Fraction(1), {("exp", s): Fraction(1)})
    if len(core) == 1 and core[0][1] == 1:
        (kind, arg), _ = core[0]
        if kind == "log" and not isinstance(arg, Const):
            return cpow(arg, s)
        if kind == "add":
            out = Fraction(1)
            for y in arg:
                out = cmul(out, cexp(cmul(s, y)))
            return out
    return _make(Fraction(1), {("exp", x): Fraction(1)})


# one interval context per thread, made on its first interval
_contexts = threading.local()


def _interval(x, prec: int):
    """An mpmath interval holding x, computed at prec bits.

    It runs on this thread's own interval context, never on mpmath's shared
    `iv`, so two threads cannot compute at each other's precision, and
    mpmath's own precision is neither read nor changed.
    """
    ctx = getattr(_contexts, "iv", None)
    if ctx is None:
        from mpmath import iv
        ctx = _contexts.iv = type(iv)()
    ctx.prec = prec
    return _iv(ctx, x)


def _iv(iv, x):
    if not isinstance(x, Const):
        return iv.mpf(x.numerator) / x.denominator
    out = _iv(iv, x.scale)
    for (kind, arg), e in x.core:
        if kind == "log":
            v = iv.log(_iv(iv, arg))
        elif kind == "exp":
            v = iv.exp(_iv(iv, arg))
        elif kind == "add":
            v = sum((_iv(iv, y) for y in arg[1:]), _iv(iv, arg[0]))
        else:
            v = _iv(iv, arg)
        if e.denominator == 1:
            out *= v ** e.numerator
        else:
            out *= iv.exp(iv.log(v) * _iv(iv, e))
    return out


def csign(x) -> int:
    """The sign of x, certified; GuardError when no interval up to the
    precision cap excludes 0."""
    if not isinstance(x, Const):
        return (x > 0) - (x < 0)
    prec = 64
    while prec <= DEFAULT_DIGIT_CAP * LOG10 / LN2:
        v = _interval(x, prec)
        if v.a > 0:
            return 1
        if v.b < 0:
            return -1
        prec *= 2
    raise GuardError(f"cannot certify the sign of the constant {x}: it "
                     f"may be an exact cancellation")


@total_ordering
class ExtReal:
    """A value in [0, inf]; immutable."""

    __slots__ = ("_v",)

    def __init__(self, value: RawExt):
        if isinstance(value, ExtReal):
            self._v = value._v
            return
        if isinstance(value, str):
            text = value.strip()
            # ASCII digits, alone or around one "/", are read without
            # Fraction's regex; every other form takes it
            if text.isascii():
                if text.isdigit():
                    self._v = Fraction(int(text))
                    return
                p, slash, q = text.partition("/")
                if slash and p.isdigit() and q.isdigit():
                    self._v = Fraction(int(p), int(q))
                    return
            text = text.lower()
            if text in ("inf", "infinity", "oo"):
                self._v = None
                return
            try:
                value = Fraction(text)
            except ValueError:
                if text.lstrip("+-") == "nan":
                    raise ValueError("NaN is not a rate value") from None
                raise
        if isinstance(value, Fraction):
            if value.numerator < 0:
                raise ValueError(f"negative value {value} is not a rate value")
            self._v = value
            return
        if isinstance(value, float):
            if math.isinf(value):
                if value < 0:
                    raise ValueError("negative infinity is not a rate value")
                self._v = None
                return
            if math.isnan(value):
                raise ValueError("NaN is not a rate value")
            value = Fraction(value)
        if isinstance(value, int):
            value = Fraction(value)
        if isinstance(value, Const):
            if csign(value) < 0:
                raise ValueError(f"negative value {value} is not a rate value")
            self._v = value
            return
        if not isinstance(value, Fraction):
            raise TypeError(f"cannot interpret {value!r} as an extended real")
        if value < 0:
            raise ValueError(f"negative value {value} is not a rate value")
        self._v = value

    @classmethod
    def _of(cls, v) -> "ExtReal":
        """The ExtReal holding v, already a valid state (None for inf, a
        nonnegative Fraction or a positive Const): nothing is checked."""
        x = object.__new__(cls)
        x._v = v
        return x

    # -- state ------------------------------------------------------------

    @property
    def is_inf(self) -> bool:
        return self._v is None

    @property
    def is_zero(self) -> bool:
        return self._v == 0

    @property
    def exact(self):
        """The value as stored: None for inf, else a Fraction or a Const."""
        return self._v

    @property
    def is_irrational(self) -> bool:
        """True for a finite value kept as an exact `Const`."""
        return isinstance(self._v, Const)

    @property
    def fraction(self) -> Fraction:
        if self._v is None:
            raise ValueError("infinite value has no Fraction form")
        if isinstance(self._v, Const):
            raise ValueError(f"irrational value {self._v} has no Fraction form")
        return self._v

    def __float__(self) -> float:
        return math.inf if self._v is None else float(self._v)

    # -- arithmetic --------------------------------------------------------

    def reciprocal(self) -> "ExtReal":
        """1/x with the conventions 1/0 = inf and 1/inf = 0."""
        if self._v is None:
            return ZERO
        if self._v == 0:
            return INF
        if isinstance(self._v, Const):
            return ExtReal._of(cpow(self._v, Fraction(-1)))
        return ExtReal._of(Fraction(self._v.denominator, self._v.numerator))

    def __mul__(self, other: RawExt) -> "ExtReal":
        other = ExtReal(other)
        if self.is_inf or other.is_inf:
            if self.is_zero or other.is_zero:
                raise ArithmeticError("0 * inf is undefined here")
            return INF
        if isinstance(self._v, Const) or isinstance(other._v, Const):
            return ExtReal._of(cmul(self._v, other._v))
        return ExtReal._of(self._v * other._v)

    __rmul__ = __mul__

    def __truediv__(self, other: RawExt) -> "ExtReal":
        other = ExtReal(other)
        if other.is_inf or other.is_zero:
            raise ArithmeticError("division only by finite positive values")
        if self.is_inf:
            return INF
        if isinstance(self._v, Const) or isinstance(other._v, Const):
            return ExtReal._of(cmul(self._v, cpow(other._v, Fraction(-1))))
        return ExtReal._of(self._v / other._v)

    # -- ordering ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtReal):
            try:
                other = ExtReal(other)
            except (TypeError, ValueError):
                return NotImplemented
        if self._v == other._v:
            return True
        if (isinstance(self._v, Const) or isinstance(other._v, Const)) and (
                self._v is not None and other._v is not None):
            return csign(cadd(self._v, cneg(other._v))) == 0
        return False

    def __lt__(self, other) -> bool:
        if not isinstance(other, ExtReal):
            other = ExtReal(other)
        if self._v is None:
            return False
        if other._v is None:
            return True
        try:
            return self._v < other._v
        except TypeError:   # a Const: compared on its certified sign
            return (self._v != other._v
                    and csign(cadd(self._v, cneg(other._v))) < 0)

    def __hash__(self):
        return hash(self._v)

    # -- presentation --------------------------------------------------------

    def __repr__(self) -> str:
        return f"ExtReal({str(self)!r})"

    def __str__(self) -> str:
        return "inf" if self._v is None else str(self._v)

    def json_value(self):
        """Number for finite values, the string "inf" otherwise."""
        if self._v is None:
            return "inf"
        if isinstance(self._v, Const):
            return float(self._v)
        if self._v.denominator == 1:
            return int(self._v)
        return float(self._v)


INF = ExtReal("inf")
ZERO = ExtReal(0)
ONE = ExtReal(1)
