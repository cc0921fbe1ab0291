"""Exact integer ceilings and floors of exponential-scale quantities.

Insertion positions grow like e^{i*phi(i)} and leave floating point range
long before they strain memory, so plan construction needs exact integers
built from log-space descriptions.  mpmath's raw layer, `mpmath.libmp`,
supplies the arbitrary-precision exp/ln; it is imported on first use
(`_LazyLibmp`), so a process that only measures words never loads
mpmath.  Precision is chosen from the target magnitude plus guard
digits, so results are exact unless the true value sits within ~10^-G
of an integer boundary (G = guard digits), which we accept as a working
convention.

Every value is a raw libmp tuple (sign, man, exp, bc), and every step
passes its precision and rounding to libmp as arguments.  So the module
neither reads nor changes mpmath's global context (`mp.prec`), and two
threads can compute at different precisions at once.  Each step rounds
to nearest at a precision of its own, as mpmath's context arithmetic
would at that precision, so an integer comes out bit for bit as there.

`_exp` takes e^X, X the exact sum of float terms, by one of three routes.
An integer X >= 1 past EXP_POW_PREC bits is a product of cached powers of
e, one per nonzero hex digit of X, rounded to nearest once, where mpmath's
exp powers e afresh on every call; the two agree bit for bit.  From
EXP_BURST_PREC bits of working precision on, a non-integer X > 1 is a
short dyadic N + r/2^s (a float's fraction is one): the same table goes
down to 2^-20, so e^X down to its bit 2^-20 is one product of entries,
and only the bits of r/2^s below it are summed by bit-burst, the Taylor
series of successively longer bit chunks summed exactly by binary
splitting (Brent 1976).  Both carry EXP_GUARD_BITS past the working
precision, so the one rounding of their product leaves e^X within one
unit in the last place.

The table is fixed-base windowing with precomputation (Brickell, Gordon,
McCurley and Wilson, "Fast exponentiation with precomputation", 1992) in
radix 16: row i holds e^(d 16^i 2^-f) for d = 1..15, so a product takes
one entry per nonzero hex digit of 2^f X, where one per set bit took
about twice as many.  The entries for d = 1, 2, 4, 8 are the ladder
e^(2^j) that a per-bit product reads, and every other is a product of at
most four of them, so the per-bit product's error bound holds
(`_table_product`).  A table is one immutable snapshot (prec, f, rows),
so a reader never pairs rows with another prec.  The package ships one,
e_powers.bin (9 rows of 15 entries, f = 20, at 66 566 bits, about 1.1 MB,
read by the first exponential that reads a table, after a zlib.crc32
check): the rows and prec that a request under DEFAULT_DIGIT_CAP asks
for, so such a request never builds.  A request past it is served by a
second snapshot beside it, rebuilt from mpmath's e with integer rows
only (f = 0), and bit-burst then sums every fraction bit, from bit 0; a
missing or corrupt file starts the shipped snapshot empty.
`_write_powers_of_e` regenerates the file.
X <= 1, the other non-integers and smaller precisions take mpmath's own
exp of the exact X, which is as fast there.

power_log_ceil takes ceil(n^A ln n) by one of two routes.  A position
built as n = ceil(e^X) by exp_ceil_anchor comes with an `Anchor`, which
holds X and the e^X that made n; passed on as ``near``, it finishes the
value without taking ln n (`_anchored`).  With d = n - e^X,
ln n = X - ln(1 - d/n), so

    n^A ln n = n^A X + sum_{j>=1} n^A (d/n)^j / j.

n^A X is an integer times a dyadic, exact for an integer A.  The j-th term
is n^(A-j) d^j / j, and the terms shrink by |d|/n each, so for n =
ceil(e^X) only j <= A + 1 reach the guard.  e^X is taken at the digits of
e^(AX) plus GUARD_DIGITS, and it is the one full-width value: a
relative error e in it moves d by e^X e, and the sum by about n^A e,
10^-GUARD_DIGITS at that width.  Every other step carries only the
ANCHOR_BITS fraction bits of the result that it can move, and loses a
few units of the last, so the sum lies within about 10^-GUARD_DIGITS of
n^A ln n.  An anchor taken at fewer digits, or one whose series would
run past floor(A) + 2 terms because n is not ceil(e^X), is turned away.
Without an anchor, or when it is turned away, the value is n^A times
`_ln` n: mpmath's own ln inside its Taylor range (below LOG_TAYLOR_PREC
bits), Newton's method on exp past it.  A rational A = p/q takes n^A 2^g
as the integer q-th root of n^p 2^(q g), exact when the root is, on both
routes.

Desk-scale note: direct float arithmetic does not settle ceilings even at
desk scale.  float n*log(n) is within about 2^-51 of n ln n relatively,
which at n ~ 10^12 is 0.01, and ceil(n*log(n)) is one short for about
one n in a thousand in [2^20, 2^40].  nlogn_ceil keeps the float value
only when it lies farther than twice that bound from an integer.
"""
from __future__ import annotations

import bisect
import math
import numbers
import os
import sys
import threading
import zlib
from typing import NamedTuple

from .errors import CapacityError


class _LazyLibmp:
    """mpmath.libmp, imported when the first name is read from it.

    Importing it runs all of mpmath's package, about 4 MB of a process's
    peak RSS, which a process that only measures words never needs.  The
    first read puts the module itself in `_libmp`'s place, so every later
    read is a plain module attribute: a name replaced on mpmath.libmp is
    the one the next call takes.
    """

    def __getattr__(self, name):
        global _libmp
        import mpmath.libmp
        _libmp = mpmath.libmp
        return getattr(_libmp, name)


_libmp = _LazyLibmp()


def _dps_to_prec(dps: int) -> int:
    """The bits that hold dps decimal digits, as mpmath.libmp.dps_to_prec
    counts them, without importing mpmath."""
    return max(1, round((dps + 1) * 3.3219280948873626))


GUARD_DIGITS = 30
DEFAULT_DIGIT_CAP = 20_000

# the fraction bits `_anchored` carries past the point: GUARD_DIGITS, and
# 16 bits for its few truncations
ANCHOR_BITS = _dps_to_prec(GUARD_DIGITS) + 16

# Plans serialize positions as decimal digits, in strings and JSON
# integers; CPython's int<->str guard (default 4300 digits, from 3.10.7 and
# 3.11 on; 0 is no limit) would reject them.
if (hasattr(sys, "get_int_max_str_digits")
        and 0 < sys.get_int_max_str_digits() < 2_000_000):
    sys.set_int_max_str_digits(2_000_000)

LOG10 = math.log(10)
LN2 = math.log(2)

# nlogn_ceil trusts float n*log(n), n <= 2^40, only this far (relative)
# from an integer: twice the error of its two roundings
NLOGN_FLOAT_ERR = 2.0 ** -50

# `_exp` takes a non-integer exponent from the table and bit-burst
# (`_exp_mixed`) from EXP_BURST_PREC bits on: at about 2 000 bits mpmath's
# own exp of a 40-bit fraction is as fast, at 2 500 it takes 0.18 ms to
# 0.14, at 5 000 0.75 to 0.38 (pure-Python backend).  Without fraction rows
# in the table bit-burst's first chunk is EXP_BURST_FIRST bits wide, and
# binary splitting sums runs of up to EXP_SPLIT_LEAF terms in a plain loop.
EXP_BURST_PREC = 2500
EXP_GUARD_BITS = 24
EXP_BURST_FIRST = 16
EXP_SPLIT_LEAF = 8

# Past EXP_POW_PREC bits mpmath's exp powers e for an integer exponent;
# `_exp` multiplies cached powers e^(2^j) there instead (`_exp_whole`).
EXP_POW_PREC = 600


def digits_of_exp(log_value: float) -> int:
    """Approximate decimal digit count of e**log_value."""
    return max(1, int(log_value / LOG10) + 1)


def check_digit_cap(log_value: float, digit_cap: int = DEFAULT_DIGIT_CAP) -> None:
    if digits_of_exp(log_value) > digit_cap:
        raise CapacityError(
            f"value of ~{digits_of_exp(log_value)} digits exceeds the "
            f"digit cap of {digit_cap}")


def _terms(log_value) -> tuple:
    """An exponent given as a number or as a sequence of terms, as a tuple."""
    if isinstance(log_value, (float, int)):
        return (log_value,)
    return tuple(log_value)


def _exp(terms: tuple, dps: int) -> tuple:
    """e to the exact sum of terms, as a raw mpf at dps digits, within one
    unit in the last place (the routes are in the module docstring)."""
    num, s = _dyadic_sum(terms)
    whole = num >> s
    prec = _dps_to_prec(dps)
    if prec >= EXP_BURST_PREC and whole >= 1 and whole << s != num:
        return _exp_mixed(num, s, prec)
    if prec > EXP_POW_PREC and whole >= 1 and whole << s == num:
        return _exp_whole(whole, prec)
    return _libmp.mpf_exp(_libmp.from_man_exp(num, -s), prec,
                          _libmp.round_nearest)


def _exp_mixed(num: int, s: int, prec: int) -> tuple:
    """e^(num/2^s), num/2^s > 1 and not an integer, as a raw mpf rounded to
    nearest at prec bits, within one unit in the last place.

    With f the fraction bits the table's rows hold, the bits of num/2^s
    down to 2^-f are one product of table entries, one per nonzero hex
    digit of n = floor(num/2^(s-f)) (`_table_product`), and only the bits
    below are summed by bit-burst (`_exp_fraction`, its chunks from bit f
    on).  The product carries _pow_guard bits past wp = prec +
    EXP_GUARD_BITS, the sum wp fraction bits, and their product is rounded
    once: together they are within about 2^-15 units of the last place.
    """
    wp = prec + EXP_GUARD_BITS
    top = (num >> s).bit_length() - 1
    rows, f, w = _powers_of_e(top, wp)
    n = _shift(num, f - s)
    rest = num - _shift(n, s - f)
    man, exp, _ = _table_product(n, rows, w, wp + _pow_guard(top), f)
    if rest:
        man *= _exp_fraction(rest, s, wp, f)
        exp -= wp
    return _libmp.from_man_exp(man, exp, prec, _libmp.round_nearest)


# The tables of powers of e, each one snapshot (prec, f, rows), replaced
# whole.  Row i holds e^(d 16^i 2^-f) for d = 1..15 as entry d - 1, a pair
# (man, exp), man 2^exp, with a man of exactly prec + _pow_guard(top)
# bits, top = _table_top of the snapshot; f is a multiple of E_ROW_BITS.
# `_e_powers` is the snapshot the package ships: None until
# `_powers_of_e` first reads a table and loads it (`_load_powers_of_e`,
# below), then never replaced.  `_e_rebuilt` is what `_powers_of_e`
# builds for requests past it, with f = 0 and prec a power of two.  The
# lock only keeps two threads from loading or building at once.
_e_powers_lock = threading.Lock()

# The shipped snapshot: rows up to the largest j with e^(2^j) and the prec
# that a request under DEFAULT_DIGIT_CAP asks for, N < e^X below
# 10^DEFAULT_DIGIT_CAP and bit-burst's guard on top of exp_int's digits,
# and down to e^(2^-E_FRACTION_BITS), so that bit-burst sums only the
# fraction bits below it.  On float exponents of 7 000-46 000 (37 to 40
# fraction bits) at exp_int's digits, 20 bits from a table of one entry
# per bit took 11.6-11.9 ms a call, against 12.7 at 16, 12.5 at 24, 13.1
# at 28 and 15.9 with none.
E_POWERS_FILE = os.path.join(os.path.dirname(__file__), "e_powers.bin")
E_POWERS_TOP = int(DEFAULT_DIGIT_CAP * LOG10).bit_length() - 1
E_POWERS_PREC = _dps_to_prec(DEFAULT_DIGIT_CAP + GUARD_DIGITS) + EXP_GUARD_BITS
E_FRACTION_BITS = 20   # whole rows: a multiple of E_ROW_BITS
# a row covers this many bits of the exponent: one hex digit
E_ROW_BITS = 4
_ROW_SIZE = (1 << E_ROW_BITS) - 1
# the file: this tag, then prec, f and the count of rows as 4-byte
# little-endian ints, per entry, row by row, exp as 8 bytes signed and man
# in (w + 7) // 8 bytes, then a zlib.crc32 of all of that in 4 bytes
_E_POWERS_TAG = b"eR16"
_NO_POWERS = (0, 0, ())


def _pow_guard(top: int) -> int:
    """Guard bits for e^N, N < 2^(top+1), from the table.  `_exp_whole`
    bounds its error by 2^(top+6) units in the last of them, so only an
    e^N within about 2^-(3 top + 5) ulp of a tie falls back to mpmath."""
    return 4 * (top + 1) + 8


def _table_top(table: tuple) -> int:
    """The largest j such that the snapshot holds e^(2^j): its rows from
    2^0 on hold every e^N, N < 2^(j+1)."""
    _, f, rows = table
    return E_ROW_BITS * (len(rows) - f // E_ROW_BITS) - 1


def _powers_of_e(top: int, prec: int) -> tuple:
    """(rows, f, w): the rows of e^(d 16^i 2^-f), from 2^-f up to 2^top at
    least, with mantissas of w >= prec + _pow_guard(top) bits.

    The shipped snapshot, loaded by the first request, serves every
    request inside its top and prec; any other is served by the rebuilt
    one, rebuilt first when it is short of rows or of bits.  A rebuild
    rounds prec up to a power of two, so a run of growing requests
    rebuilds a logarithmic number of times.  It takes no fraction rows:
    at 131 072 bits they would add about 600 ms, mostly their chain of
    square roots, to the integer rows' 200 ms.
    """
    global _e_powers, _e_rebuilt
    shipped = _e_powers
    if shipped is None:
        with _e_powers_lock:
            if _e_powers is None:
                _e_powers = _load_powers_of_e()
            shipped = _e_powers
    for table in (shipped, _e_rebuilt):
        if top <= _table_top(table) and prec <= table[0]:
            break
    else:
        with _e_powers_lock:
            table = _e_rebuilt
            if top > _table_top(table) or prec > table[0]:
                table = _e_rebuilt = _build_powers_of_e(
                    max(top, _table_top(table)),
                    1 << (max(prec, table[0]) - 1).bit_length(), 0)
    prec, f, rows = table
    return rows, f, prec + _pow_guard(_table_top(table))


def _build_powers_of_e(top: int, prec: int, f: int) -> tuple:
    """The snapshot (prec, f, rows) of e^(d 16^i 2^-f), d = 1..15, from
    2^-f, f a multiple of E_ROW_BITS, up to whole rows past 2^top, with
    mantissas of w = prec + _pow_guard(T) bits, T the snapshot's
    `_table_top`.

    The entries for d = 1, 2, 4, 8 form the ladder e^(2^j), j = -f..T.
    e is mpmath's, rounded down to w bits; the ladder squares it and
    takes square roots of it in turn (math.isqrt), each truncated to w
    bits.  A square root halves the error it is given and adds less than
    2^(1-w), so every root lies within 2^(2-w) of its value, relatively,
    and below it.  Every other entry is the entry for d less its lowest
    set bit times the entry for that bit, truncated to w bits: a product
    of at most four ladder values with at most three truncations.  With
    u = 2^(1-w), e^(2^j) lies within 3 2^j u and a root within 2u, so the
    entry for D = d 16^i 2^-f lies below e^D within (3D + 11)u,
    relatively.
    """
    t = (top // E_ROW_BITS + 1) * E_ROW_BITS - 1
    w = prec + _pow_guard(t)
    _, man, exp, bc = _libmp.mpf_e(w, _libmp.round_floor)
    e = (man << (w - bc), exp - (w - bc))
    ladder = [e]
    for _ in range(t):
        man, exp = ladder[-1]
        man *= man
        cut = man.bit_length() - w
        ladder.append((man >> cut, 2 * exp + cut))
    man, exp = e
    for _ in range(f):
        # man 2^k has 2w - 1 or 2w bits, so its root has w, and exp - k
        # is even
        k = w - ((exp - w) & 1)
        man, exp = _libmp.MPZ(math.isqrt(man << k)), (exp - k) // 2
        ladder.insert(0, (man, exp))
    rows = []
    for i in range(0, len(ladder), E_ROW_BITS):
        row = []
        for d in range(1, _ROW_SIZE + 1):
            low = d & -d
            if d == low:
                row.append(ladder[i + low.bit_length() - 1])
                continue
            (ma, xa), (mb, xb) = row[d - low - 1], row[low - 1]
            man = ma * mb
            cut = man.bit_length() - w
            row.append((man >> cut, xa + xb + cut))
        rows.append(tuple(row))
    return prec, f, tuple(rows)


def _load_powers_of_e(path: str = E_POWERS_FILE) -> tuple:
    """The snapshot (prec, f, rows) that _write_powers_of_e wrote to path,
    or the empty table (0, 0, ()) when the file is missing, short or
    corrupt."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return _NO_POWERS
    body = memoryview(data)[:-4]
    if (len(data) < 20 or data[:4] != _E_POWERS_TAG
            or zlib.crc32(body) != int.from_bytes(data[-4:], "little")):
        return _NO_POWERS
    prec, f, count = (int.from_bytes(body[at:at + 4], "little")
                      for at in (4, 8, 12))
    top = E_ROW_BITS * (count - f // E_ROW_BITS) - 1
    if f % E_ROW_BITS or top < 0:
        return _NO_POWERS
    w = prec + _pow_guard(top)
    step = 8 + (w + 7) // 8
    if len(body) != 16 + count * _ROW_SIZE * step:
        return _NO_POWERS
    # an mpz under the gmpy2 backend, as mpf_e's mantissas are
    MPZ = _libmp.MPZ
    entries = []
    for at in range(16, len(body), step):
        man = int.from_bytes(body[at + 8:at + step], "little")
        if man.bit_length() != w:
            return _NO_POWERS
        entries.append((MPZ(man), int.from_bytes(body[at:at + 8], "little",
                                                 signed=True)))
    return prec, f, tuple(tuple(entries[at:at + _ROW_SIZE])
                          for at in range(0, len(entries), _ROW_SIZE))


def _write_powers_of_e(path: str = E_POWERS_FILE) -> None:
    """Write _build_powers_of_e(E_POWERS_TOP, E_POWERS_PREC,
    E_FRACTION_BITS) to path, by default the shipped file: python3 -c
    "from recurrencelab import bignum; bignum._write_powers_of_e()"
    regenerates it."""
    table = _build_powers_of_e(E_POWERS_TOP, E_POWERS_PREC, E_FRACTION_BITS)
    prec, f, rows = table
    size = (prec + _pow_guard(_table_top(table)) + 7) // 8
    out = bytearray(_E_POWERS_TAG)
    for field in (prec, f, len(rows)):
        out += field.to_bytes(4, "little")
    for row in rows:
        for man, exp in row:
            out += int(exp).to_bytes(8, "little", signed=True)
            out += int(man).to_bytes(size, "little")
    out += zlib.crc32(out).to_bytes(4, "little")
    with open(path, "wb") as fh:
        fh.write(out)


_e_powers = None
_e_rebuilt = _NO_POWERS


def _table_product(n: int, rows: tuple, w: int, wp: int, f: int = 0) -> tuple:
    """(man, exp, err): e^(n/2^f) for an integer n >= 2^f, as man 2^exp,
    man of wp bits within err units of its last place: one product of
    table entries per nonzero hex digit of n, digit d at 16^i taking
    rows[i][d - 1] = e^(d 16^i 2^-f) (`_powers_of_e`, w >= wp bits).

    The per-bit product of the ladder e^(2^j) (`_build_powers_of_e`)
    over the set bits of n/2^f, each entry cut to wp bits and each
    product truncated to wp bits, is within 2^(top+4) + 8f units of its
    last place, top = (n >> f).bit_length() - 1: with u = 2^(1-w), e is
    within u (relatively), e^(2^j), squared j times, within 3 2^j u, a
    root within 2u, and each of the two truncations per set bit within
    2^(1-wp).  The row product takes the same ladder values: an entry for
    a digit of k set bits is their product with k - 1 truncations at w
    bits, and this loop adds two at wp bits, k + 1 <= 2k in all, each
    within 2^(1-wp) as w >= wp.  So the ladder errors add exactly as in
    the per-bit product, the truncations are no more, and the same bound
    holds; err is 2^(top+6) + 8f.  Only shifts, products and bit_length
    touch the mantissas, which are gmpy2 mpz under that backend.
    """
    top = (n >> f).bit_length() - 1
    drop = w - wp
    man, exp = 1, 0
    i = 0
    while n:
        d = n & _ROW_SIZE
        if d:
            m, x = rows[i][d - 1]
            man *= m >> drop
            cut = man.bit_length() - wp
            man >>= cut
            exp += x + drop + cut
        n >>= E_ROW_BITS
        i += 1
    return man, exp, (1 << (top + 6)) + 8 * f


def _exp_whole(n: int, prec: int) -> tuple:
    """e^n for an integer n >= 1, as a raw mpf rounded to nearest at prec
    bits: the product of the table's entries e^(d 16^i) over the nonzero
    hex digits d of n, taken at wp = prec + _pow_guard(top) bits
    (`_table_product`).

    When the values within its error bound either side round alike, that
    is the rounding of e^n itself, whatever state the table was in;
    otherwise (near a tie) the result is mpmath's.
    """
    top = n.bit_length() - 1
    rows, f, w = _powers_of_e(top, prec)
    man, exp, err = _table_product(n, rows[f // E_ROW_BITS:], w,
                                   prec + _pow_guard(top))
    out = _libmp.from_man_exp(man - err, exp, prec, _libmp.round_nearest)
    if out != _libmp.from_man_exp(man + err, exp, prec, _libmp.round_nearest):
        out = _libmp.mpf_exp(_libmp.from_int(n), prec, _libmp.round_nearest)
    return out


def _dyadic_sum(terms: tuple) -> tuple:
    """The exact sum of float (or int) terms as (num, s), meaning num/2^s."""
    num = s = 0
    for t in terms:
        p, q = t.as_integer_ratio()
        if q & (q - 1):
            raise TypeError(f"exponent term {t!r} is not a binary fraction")
        k = q.bit_length() - 1
        if k > s:
            num, s = num << (k - s), k
        num += p << (s - k)
    return num, s


def _exp_fraction(r: int, s: int, wp: int, lo: int) -> int:
    """e^(r/2^s) for 0 <= r < 2^(s-lo) as a fixed-point int with wp
    fraction bits, by bit-burst; short of the true value by less than
    16 log2(wp) units.

    r/2^s is cut at bits 2*lo, 4*lo, ..., or at EXP_BURST_FIRST,
    2*EXP_BURST_FIRST, ... when lo is 0, so the chunk between bits lo and
    hi is a/2^hi with a < 2^(hi-lo), and its Taylor series converges the
    faster the further down it lies.  Each series is summed exactly by binary splitting and
    divided out once; the chunk values, each in [1, e), are multiplied as
    fixed-point numbers.  A chunk loses at most 4 units (2 for the omitted
    terms, 1 per floor) and a product 1, over at most log2(wp) chunks.
    """
    out = 1 << wp
    while r:
        hi = min(s, 2 * lo or EXP_BURST_FIRST)
        a = r >> (s - hi)
        r -= a << (s - hi)
        if a:
            # first omitted term: the least k with (a/2^hi)^k/k! < 2^-wp;
            # the rest of the tail is at most as large again
            x = math.log2(a) - hi
            k = bisect.bisect_right(
                range(2, wp + 2), wp,
                key=lambda k: math.lgamma(k + 1) / LN2 - k * x) + 2
            _, q, t = _exp_split(a, hi, 1, k)
            shift = hi * (k - 1) - wp   # t/q carries 2^(hi(k-1))
            t = t >> shift if shift >= 0 else t << -shift
            out = (out * ((1 << wp) + t // q)) >> wp
        lo = hi
    return out


def _exp_split(a: int, e: int, lo: int, hi: int,
               want_p: bool = False) -> tuple:
    """(P, Q, T) with Q = lo*(lo+1)*...*(hi-1),
    sum_{k=lo}^{hi-1} prod_{j=lo}^{k} a/(j 2^e) = T / (Q 2^(e(hi-lo))),
    and P = a^(hi-lo) when want_p, else None.

    Only a left half's P is read, by T, so a right half takes none, and a
    left half squares its own left half's: the right one is as long, or
    one longer.
    """
    if hi - lo <= EXP_SPLIT_LEAF:
        q = 1
        t = 0
        for j in range(hi - 1, lo - 1, -1):
            t = a * ((q << (e * (hi - 1 - j))) + t)
            q *= j
        return a ** (hi - lo) if want_p else None, q, t
    mid = (lo + hi) // 2
    p1, q1, t1 = _exp_split(a, e, lo, mid, True)
    _, q2, t2 = _exp_split(a, e, mid, hi)
    p = None
    if want_p:
        p = p1 * p1 if hi - mid == mid - lo else p1 * p1 * a
    return p, q1 * q2, ((t1 * q2) << (e * (hi - mid))) + p1 * t2


def _exponent_parts(exponent) -> tuple[int, int]:
    """(numerator, denominator) of a rational exponent: an int or a
    Fraction.  A float is refused, since its binary fraction is rarely the
    exponent meant."""
    if not isinstance(exponent, numbers.Rational):
        raise TypeError(f"exponent must be an int or a Fraction, got "
                        f"{type(exponent).__name__} {exponent!r}")
    return exponent.numerator, exponent.denominator


def exp_int(log_value, digit_cap: int = DEFAULT_DIGIT_CAP,
            *, rounding: str = "ceil") -> int:
    """Exact ceil/floor of e**log_value as a Python int.

    log_value is a float — or a sequence of floats whose exact sum is
    the exponent, summed at working precision so no accuracy is lost
    before exponentiation.  Floats carry ~1e-16 relative uncertainty to
    begin with; the construction is deterministic and self-consistent,
    which is what downstream equality checks rely on.  rounding is
    "ceil" or "floor"; anything else is a ValueError.
    """
    if rounding not in ("ceil", "floor"):
        raise ValueError(
            f"rounding must be 'ceil' or 'floor', got {rounding!r}")
    terms = _terms(log_value)
    approx = math.fsum(terms)
    if approx < 0:
        return 1 if rounding == "ceil" else 0
    check_digit_cap(approx, digit_cap)
    value = _exp(terms, digits_of_exp(approx) + GUARD_DIGITS)
    # the ceiling or floor of a value of prec bits fits in prec bits, so
    # this is mpmath.ceil/floor at the value's own precision
    rnd = _libmp.round_ceiling if rounding == "ceil" else _libmp.round_floor
    return int(_libmp.to_int(value, rnd))


def exp_ceil(log_value, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    return exp_int(log_value, digit_cap, rounding="ceil")


class Anchor(NamedTuple):
    """The exponent X a position n = ceil(e^X) was built from, as its
    terms, with e^X as a raw mpf and the digits it was taken at."""
    terms: tuple
    e_x: tuple
    dps: int


def _anchor_dps(x: float, num: int, den: int) -> int:
    """The digits an anchor at X needs to finish ceil(n^A ln n), A =
    num/den: those of e^(A X), plus GUARD_DIGITS."""
    return digits_of_exp(num / den * x) + GUARD_DIGITS


def exp_ceil_anchor(log_value, exponent,
                    digit_cap: int = DEFAULT_DIGIT_CAP) -> tuple[int, Anchor]:
    """(ceil(e^X), its Anchor) for X = log_value, read as by exp_int.

    Passed as ``near`` to power_log_ceil(n, exponent) or (at exponent 1)
    nlogn_ceil(n), the anchor finishes that value from e^X.  e^X is taken
    at the digits of e^(exponent X) when those fit the digit cap, and at
    the digits of e^X otherwise; the integer is the same either way.
    """
    terms = _terms(log_value)
    x = math.fsum(terms)
    num, den = _exponent_parts(exponent)
    check_digit_cap(x, digit_cap)
    dps = _anchor_dps(x, num, den)
    if num <= den or dps - GUARD_DIGITS > digit_cap:
        dps = digits_of_exp(x) + GUARD_DIGITS
    e_x = _exp(terms, dps)
    n = int(_libmp.to_int(e_x, _libmp.round_ceiling))
    return n, Anchor(terms, e_x, dps)


def exp_floor(log_value, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    return exp_int(log_value, digit_cap, rounding="floor")


def nth_root_floor(v: int, k: int) -> int:
    """floor(v ** (1/k)) for positive ints, by Newton on integers.

    A power of two k = 2^j takes j nested math.isqrt calls, which is
    exact: floor(sqrt(floor(w))) = floor(sqrt(w)) for real w >= 0, since
    an integer x has x^2 <= w exactly when x^2 <= floor(w).  Any other
    root of more than a few hundred bits starts from the root of the top
    half of its bits, so only the last few Newton steps run at full width.
    """
    if v < 0 or k < 1:
        raise ValueError("need v >= 0 and k >= 1")
    if k == 1 or v < 2:
        return v
    if k & (k - 1) == 0:
        for _ in range(k.bit_length() - 1):
            v = math.isqrt(v)
        return v
    if v.bit_length() <= k:   # 2 <= v < 2^k: no power of 4 needs forming
        return 1
    half = v.bit_length() // k // 2
    if half < 256:
        x = 1 << ((v.bit_length() + k - 1) // k + 1)
    else:
        # with a = floor(floor(w)^(1/k)), w = v/2^(k half), the integer
        # (a+1)^k exceeds floor(w), hence w: so x lies above the root,
        # where Newton descends to its floor
        x = (nth_root_floor(v >> (k * half), k) + 1) << half
    while True:
        y = ((k - 1) * x + v // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > v:
        x -= 1
    return x


def _ln(n: int, dps: int) -> tuple:
    """ln n as a raw mpf, good to dps digits: mpmath's own ln up to
    LOG_TAYLOR_PREC bits, where it reads a cached Taylor table, and
    `_ln_newton` past it."""
    prec = _dps_to_prec(dps)
    x = _libmp.from_int(n, prec, _libmp.round_nearest)
    if prec + 20 <= _libmp.libelefun.LOG_TAYLOR_PREC:   # mpf_log's own switch
        return _libmp.mpf_log(x, prec, _libmp.round_nearest)
    return _ln_newton(n, x, dps)


def _ln_newton(n: int, x: tuple, dps: int) -> tuple:
    """ln n, x = n as a raw mpf, by Newton's method on exp, good to at
    least dps digits.

    Past LOG_TAYLOR_PREC mpmath switches to an AGM, which runs pure-Python
    square roots when gmpy is absent.  This iterates y <- y - 1 +
    n*exp(-y) from the float math.log(n) instead.  Each step doubles the
    correct digits, so each runs at about twice the precision of the step
    before; the last runs at dps plus 5 digits.
    """
    y0 = math.log(n)
    lead = max(1, math.ceil(math.log10(y0)))   # digits before the point
    # a step at dps digits needs (dps + lead)/2 correct digits on input;
    # the float start has 15
    steps = [dps + 5]
    while (steps[-1] + lead) // 2 + 2 > 15:
        steps.append((steps[-1] + lead) // 2 + 2)
    rnd = _libmp.round_nearest
    y = _libmp.from_float(y0)
    for step in reversed(steps):
        prec = _dps_to_prec(step)
        e_y = _libmp.mpf_exp(_libmp.mpf_neg(y), prec, rnd)
        y = _libmp.mpf_add(_libmp.mpf_sub(y, _libmp.fone, prec, rnd),
                           _libmp.mpf_mul(x, e_y, prec, rnd), prec, rnd)
    return y


def _anchored(n: int, num: int, den: int, power: int, anchor: Anchor):
    """n^A ln n, A = num/den and power = n^num, as an exact raw mpf within
    about 10^-GUARD_DIGITS, from the Anchor of the exponent X that n was
    built from; None when the anchor holds e^X at fewer digits than A
    needs, or n is not close enough to e^X.

    The route is in the module docstring.  The j-th term of the series
    is n^(A-j) d^j / j, with d^j carried to the bits the term adds:
    integers for an integer A and j <= A, a division by j n^j otherwise.
    A rational A takes n^A 2^g as the floor of the q-th root of
    n^p 2^(q g), exact when the root is.  The sum stops at the first term
    below 2^-ANCHOR_BITS, whose successors shrink by |d|/n each, so every
    step but e^X carries ANCHOR_BITS fraction bits and loses at most a
    few units of the last.  The value is right for any anchor it takes;
    the bounds that turn anchors away only bound its cost.
    """
    terms, e_x, dps = anchor
    x = math.fsum(terms)
    if dps < _anchor_dps(x, num, den):
        return None
    _, man, exp, _ = e_x
    t = max(0, -exp)
    dm = (n << t) - (man << (exp + t))   # d = n - e^X = dm / 2^t
    bl = n.bit_length()
    ld = abs(dm).bit_length() - t        # |d| < 2^ld
    T = ANCHOR_BITS
    # |term j| < 2^(A bl - j drop), so terms j <= last can reach 2^-T
    last = 0
    if dm:
        drop = bl - 1 - ld
        if drop <= 0:
            return None
        last = (num * bl + T * den) // (drop * den)
        if last > num // den + 2:
            return None
    xnum, s = _dyadic_sum(terms)
    if den == 1:
        pa, g = power, 0
    else:
        # n^A X loses less than a unit of 2^-T to the floor of n^A 2^g
        g = T + max(1, int(x)).bit_length() + 1
        pa = nth_root_floor(power << (den * g), den)
    acc = _shift(pa * xnum, T - g - s)   # n^A X
    for j in range(1, last + 1):
        # d^j to w fraction bits: n^(A-j) 2^-w is at most 2^-T
        w = T + max(0, -((j * den - num) * bl // den))
        if j == 1:
            dj = _shift(dm, w - t)
        else:
            v = w + j.bit_length() + 1 + (j - 1) * max(0, ld)
            dj = _shift(_shift(dm, v - t) ** j, w - j * v)
        if den == 1 and j <= num:
            acc += (n ** (num - j) * dj >> (w - T)) // j
        else:
            acc += (pa * dj >> (g + w - T)) // (j * n ** j)
    return _libmp.from_man_exp(acc, -T)


def _shift(v: int, k: int) -> int:
    """floor(v 2^k) for any int v and k."""
    return v << k if k >= 0 else v >> -k


def power_log_ceil(n: int, exponent, *, digit_cap: int = DEFAULT_DIGIT_CAP,
                   near=None) -> int:
    """Exact ceil(n**exponent * ln(n)), exponent an int or a Fraction
    (TypeError otherwise).

    The power n^(p/q) is anchored in integer arithmetic: n^p, or the floor
    of n^(p/q) 2^g as an integer q-th root, exact when the root is, so
    integer-valued powers never pick up a spurious +1 from
    working-precision fuzz.  The ln factor is transcendental and rounds
    past the guard digits as usual.  ``near`` is the Anchor of the
    exponent n was built from (exp_ceil_anchor), if any: the value is
    then finished from its e^X (`_anchored`), and otherwise, or when the
    anchor is turned away, from `_ln`.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    num, den = _exponent_parts(exponent)
    if num < 0:
        raise ValueError("exponent must be nonnegative")
    check_digit_cap(num / den * math.log(n) + math.log(math.log(n)),
                    digit_cap)
    return _power_log_ceil(n, num, den, near)


def _power_log_ceil(n: int, num: int, den: int, near) -> int:
    """power_log_ceil(n, num/den, near=near) without the digit cap."""
    power = n ** num
    if near is not None:
        value = _anchored(n, num, den, power, near)
        if value is not None:
            return int(_libmp.to_int(value, _libmp.round_ceiling))
    ln_n = math.log(n)
    dps = digits_of_exp(num / den * ln_n + math.log(ln_n)) + GUARD_DIGITS
    prec, rnd = _dps_to_prec(dps), _libmp.round_nearest
    if den == 1:
        root = _libmp.from_int(power, prec, rnd)
    else:
        # g bits past the guard, as ln n multiplies the root's error
        g = ANCHOR_BITS + int(ln_n).bit_length()
        root = _libmp.from_man_exp(nth_root_floor(power << (den * g), den),
                                   -g, prec, rnd)
    value = _libmp.mpf_mul(root, _ln(n, dps), prec, rnd)
    return int(_libmp.to_int(value, _libmp.round_ceiling))


def nlogn_ceil(n: int, near=None) -> int:
    """ceil(n * ln n) for an exact integer n of any size; ``near`` an
    Anchor as in power_log_ceil, which serves what the float value does
    not settle."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if n <= 1 << 40:
        # n is exact as a float; log and the product each round within an
        # ulp, so y is within y 2^-51 of n ln n
        y = n * math.log(n)
        frac = y - math.floor(y)
        if NLOGN_FLOAT_ERR * y < frac < 1 - NLOGN_FLOAT_ERR * y:
            return math.ceil(y)
    return _power_log_ceil(n, 1, 1, near)
