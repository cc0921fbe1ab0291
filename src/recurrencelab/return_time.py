"""First return times of prefixes under the shift map.

For a word w (or a long prefix of an infinite sequence), the return time of
its length-n prefix is the least j >= 1 such that w[j+1 .. j+n] equals
w[1 .. n].  The primed variant restricts to j >= n (no self-overlap).

From a word of length L only returns with j + n <= L are observable.  When
no return fits, the result is a certified lower bound rather than a value:
every j with j + n <= L has been ruled out, so R_n > L - n (R'_n > max(L - n,
n - 1) for the primed variant).

Both R_n and R'_n are nondecreasing in n, and once either stops existing
it never exists again: a return of the length-(n+1) prefix at shift j is
also a return of the length-n prefix at j (and j >= n + 1 > n), so the
candidate sets only shrink.  Exactness is therefore a prefix in n: the
whole answer of a batch is the exact head plus L, every deeper depth being
the lower bound.  The exact head is a step function of n, and it is held
as its runs (`Runs`): per distinct value j, the value and the last depth k
with R_n = j.  `ReturnTimes` stores exactly that, and reads a depth by
bisecting the run ends.

Every entry point takes a Word (Word.from_iterable(symbols, m) builds
one); anything else is a TypeError, as is a depth n or max_n that is not
an integer.  A Word keeps one record per kind, plain and primed
(`Word._walks`): the runs of one run-length walk to its end, walked on the
first query of that kind, single depth or batch, and read by every later
one.  A batch to any max_n is the record cut at max_n, and a single depth
is one bisect of its run ends or, past them, the certified bound, read
from `Word._walks` with no batch object in between.

The record is two ints per run, whatever the exact depth: the 176 531
symbols of a Fibonacci word have 101 506 exact depths in 23 runs.  A
single-depth read is the type checks, one bisect of the run ends
(O(log runs)) and the result built by tuple.__new__, with no Python frame
beyond the entry point itself.

The walk, plain or primed, over any store: once R_n = j is known, the
length-n prefix reoccurs at j, so R_{n'} = j for every deeper n' with
j + n' <= L whose next symbols keep agreeing: R_{n'} >= R_n = j
(monotonicity) and j is a return at depth n'.  The primed walk also needs
j >= n', so its runs stop at depth j.  The whole run n..k is therefore one
common-prefix length c of text[n:] and text[j+n:], capped at L - j - n
(and at j - n when primed), with k = n + c, found by galloping and then
bisecting slice comparisons (O(c) symbols compared in C).
At depth k + 1 the return at j fails, so R_{k+1} > j: a return of the
length-(k+1) prefix at shift s is also one of the length-k prefix, so
s >= j, and s = j has just failed.  R_{k+1} is then the first hit of
bytes.find from shift j + 1, and the first depth with no hit ends the
walk (past N*, the last depth whose prefix returns).  A primed run stops
at depth j at the latest, so j + 1 >= k + 1 and every hit is a primed
return.  Each distinct value costs one find and one common-prefix
length, plus the final miss, and is recorded as one run (j, k).

The walk reads bytes.  A bytes store (m <= 256) is its own view, one
byte per symbol.  A tuple store is viewed as fixed-width symbols,
`array("Q", syms).tobytes()`, 8 bytes each, where equal symbols are equal
8-byte words: a find hit whose offset is not a multiple of 8 straddles
two symbols and is searched past, and a common-prefix length in bytes
is divided by 8.  A store that array("Q") refuses, one with a symbol of
2^64 or more (an alphabet past 2^64 symbols), is first mapped to the
rank of each symbol's first occurrence, which keeps equal symbols equal
and distinct ones distinct.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from operator import index, sub
from typing import NamedTuple, Optional, Union

from .shift_core import Word


class ReturnTimeResult(NamedTuple):
    """Either an exact return time or a certified lower bound.

    exact=True: value is R_n itself.
    exact=False: every candidate up to and including `value` was excluded,
    i.e. R_n > value.  (value = L - n for a length-L observation window.)

    A named tuple: immutable, compared and hashed by its fields, and one
    allocation to build (half the cost of a slotted frozen dataclass).
    The readers here build it by tuple.__new__, which skips the Python
    __new__ that the class generates.
    """

    n: int
    value: int
    exact: bool
    prime: bool = False

    def __str__(self) -> str:
        name = "R'" if self.prime else "R"
        rel = "=" if self.exact else ">"
        return f"{name}_{self.n} {rel} {self.value}"


_new = tuple.__new__


class Runs(Sequence):
    """A sequence of values at depths 1..len, held as its runs of equal value.

    Run i holds returns[i] at depths ends[i - 1] + 1 .. ends[i] (the first
    run from depth 1).  The ends strictly increase and adjacent runs hold
    different values, so a sequence has one set of runs, and two Runs are
    equal exactly when their tuples are.  Read-only.

    Behaves as the per-depth tuple it stands for: len(), an index (one
    bisect of the ends), slices (tuples) and iteration; it equals that
    tuple and hashes like it.  Iteration is the one place the runs are
    expanded to depths (slices and the hash go through it); `spans` reads
    them clipped to a window of depths without expanding.
    """

    __slots__ = ("returns", "ends")

    def __init__(self, returns: tuple[int, ...] = (),
                 ends: tuple[int, ...] = ()):
        self.returns, self.ends = returns, ends

    @classmethod
    def from_depths(cls, values) -> "Runs":
        """The runs of a per-depth sequence (values[n - 1] at depth n)."""
        returns, ends = [], []
        for k, v in enumerate(values, 1):
            if returns and returns[-1] == v:
                ends[-1] = k
            else:
                returns.append(v)
                ends.append(k)
        return cls(tuple(returns), tuple(ends))

    def __len__(self) -> int:
        ends = self.ends
        return ends[-1] if ends else 0

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        k, size = index(k), len(self)
        if k < 0:
            k += size
        if not 0 <= k < size:
            raise IndexError(f"index {k} outside runs of length {size}")
        return self.returns[bisect_left(self.ends, k + 1)]

    def __iter__(self) -> Iterator[int]:
        ends = self.ends
        return chain.from_iterable(map(repeat, self.returns,
                                       map(sub, ends, chain((0,), ends))))

    def spans(self, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
        """(j, a, b) for each run that meets depths lo..hi, clipped to
        them, in depth order: the value is j at depths a..b."""
        returns, ends = self.returns, self.ends
        lo, hi = max(lo, 1), min(hi, len(self))
        i = bisect_left(ends, lo)
        while lo <= hi:
            b = min(ends[i], hi)
            yield returns[i], lo, b
            lo, i = b + 1, i + 1

    def cut(self, depth: int) -> "Runs":
        """The runs of depths 1..depth: itself when it ends by then."""
        ends = self.ends
        if depth >= len(self):
            return self
        if depth < 1:
            return _NO_RUNS
        i = bisect_left(ends, depth)
        return Runs(self.returns[:i + 1], ends[:i] + (depth,))

    def __eq__(self, other):
        if isinstance(other, Runs):
            return self.ends == other.ends and self.returns == other.returns
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Runs(returns={self.returns!r}, ends={self.ends!r})"


_NO_RUNS = Runs()


@dataclass(frozen=True)
class ReturnTimes(Sequence):
    """R_n (or R'_n) for n = 1..top of a length-L window, stored as runs.

    `values` is the exact head as its runs (`Runs`; a per-depth sequence
    given here is converted to them): R_n for n <= exact_depth =
    len(values), a read-only per-depth view that equals, and hashes like,
    the tuple of those values.  Every deeper n, up to top, has only the
    lower bound `bound(n)`.  Behaves as a read-only list of `top`
    ReturnTimeResult views: len(), integer and slice indexing (a bisect of
    the run ends per depth) and iteration.
    """

    values: Runs
    length: int
    top: int
    prime: bool = False

    def __post_init__(self):
        if not isinstance(self.values, Runs):
            object.__setattr__(self, "values", Runs.from_depths(self.values))

    @property
    def exact_depth(self) -> int:
        return len(self.values)

    def bound(self, n: int) -> int:
        """The certified lower bound at a depth past exact_depth."""
        return _bound(self.length, n, self.prime)

    def result(self, n: int) -> ReturnTimeResult:
        """The view at depth n (1-based)."""
        if not 1 <= n <= self.top:
            raise IndexError(f"depth {n} outside 1..{self.top}")
        runs = self.values
        i = bisect_left(runs.ends, n)
        if i < len(runs.ends):
            return _new(ReturnTimeResult, (n, runs.returns[i], True,
                                           self.prime))
        return _new(ReturnTimeResult, (n, self.bound(n), False, self.prime))

    def __len__(self) -> int:
        return self.top

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self.result(i + 1) for i in range(*k.indices(self.top))]
        k = index(k)
        if k < 0:
            k += self.top
        if not 0 <= k < self.top:
            raise IndexError(f"index {k} outside a result of length {self.top}")
        return self.result(k + 1)

    def __iter__(self) -> Iterator[ReturnTimeResult]:
        h, top, prime = self.exact_depth, self.top, self.prime
        deep = range(h + 1, top + 1)
        return chain(map(ReturnTimeResult, range(1, min(h, top) + 1),
                         self.values, repeat(True), repeat(prime)),
                     map(ReturnTimeResult, deep, map(self.bound, deep),
                         repeat(False), repeat(prime)))


def _bound(L: int, n: int, prime: bool) -> int:
    """The certified lower bound at depth n of a length-L window that has
    no return there: R_n > L - n, R'_n > max(L - n, n - 1)."""
    return max(L - n, n - 1) if prime else L - n


def _common_prefix(text: bytes, a: int, b: int, cap: int) -> int:
    """Length of the longest common prefix of text[a:] and text[b:], at
    most cap.  Windows of doubling length are compared until one differs
    (or cap is reached); the first mismatch then lies in that window,
    which is halved until it is one symbol wide."""
    done, width = 0, 1
    while done < cap:
        width = min(width, cap - done)
        if text[a + done:a + done + width] != text[b + done:b + done + width]:
            break
        done += width
        width *= 2
    else:
        return cap
    # text[a:a+done] == text[b:b+done]; the first mismatch lies in the
    # next `width` symbols
    while width > 1:
        half = width // 2
        if text[a + done:a + done + half] == text[b + done:b + done + half]:
            done, width = done + half, width - half
        else:
            width = half
    return done


def _byte_view(syms: Union[bytes, tuple]) -> tuple[bytes, int]:
    """(view, width): the bytes the walk reads, width bytes per symbol (see
    the module docstring)."""
    if isinstance(syms, bytes):
        return syms, 1
    try:
        return array("Q", syms).tobytes(), 8
    except OverflowError:   # a symbol of 2^64 or more
        ranks: dict = {}
        return array("Q", [ranks.setdefault(s, len(ranks))
                           for s in syms]).tobytes(), 8


def _walk(text: bytes, width: int, prime: bool) -> Runs:
    """The runs of R_n (R'_n with prime=True) for n = 1, 2, ... while it
    exists, over a view of width bytes per symbol: one find per distinct
    value, whose run of depths is one common-prefix length (see the
    module docstring)."""
    L = len(text) // width
    returns, ends = [], []
    n, j = 1, 0   # the next depth, and R_{n-1} (0 before the first depth)
    while True:
        pat = text[:n * width]
        hit = text.find(pat, (j + 1) * width)
        while hit != -1 and hit % width:   # straddles two symbols
            hit = text.find(pat, hit + width - hit % width)
        if hit == -1:
            return Runs(tuple(returns), tuple(ends))
        j = hit // width
        end = min(L - j, j) if prime else L - j
        k = n + _common_prefix(text, n * width, hit + n * width,
                               (end - n) * width) // width
        returns.append(j)
        ends.append(k)
        n = k + 1


def _word_walk(w: Word, prime: bool) -> Runs:
    """A Word's record of one kind: the runs of its walk to its end,
    walked on the first query of that kind (see the module docstring)."""
    runs = w._walks[prime]
    if runs is None:
        runs = w._walks[prime] = _walk(*_byte_view(w.symbols), prime)
    return runs


def _not_a_word(w) -> TypeError:
    return TypeError(f"return times take a Word, not a {type(w).__name__}:"
                     " build one with Word.from_iterable(symbols, m)")


def _depth(value, name: str) -> int:
    """A depth argument as an int; a TypeError naming it when it is no
    integer (a float, even a whole one, included)."""
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not "
                        f"{type(value).__name__}") from None


def return_times_all(w: Word, max_n: Optional[int] = None,
                     prime: bool = False) -> ReturnTimes:
    """R_n (R'_n with prime=True) for every n in 1..max_n (default: full
    length): the Word's record cut at max_n."""
    if not isinstance(w, Word):
        raise _not_a_word(w)
    L = len(w.symbols)
    top = L if max_n is None else _depth(max_n, "max_n")
    if L == 0:
        return ReturnTimes(_NO_RUNS, 0, 0, prime)
    if not 1 <= top <= L:
        raise ValueError(f"need 1 <= max_n <= {L}")
    return ReturnTimes(_word_walk(w, prime).cut(top), L, top, prime)


# The two single-depth reads are spelled out in full, each one frame: a
# shared helper would cost a second frame on every call.

def return_time(w: Word, n: int) -> ReturnTimeResult:
    """R_n for one depth: a bisect of the Word's plain record."""
    if not isinstance(w, Word):
        raise _not_a_word(w)
    if n.__class__ is not int:
        n = _depth(n, "n")
    L = len(w.symbols)
    if not 1 <= n <= L:
        raise ValueError(f"need 1 <= n <= {L}, got n={n}")
    runs = w._walks[0]
    if runs is None:
        runs = _word_walk(w, False)
    i = bisect_left(runs.ends, n)
    if i < len(runs.ends):
        return _new(ReturnTimeResult, (n, runs.returns[i], True, False))
    return _new(ReturnTimeResult, (n, L - n, False, False))


def return_time_prime(w: Word, n: int) -> ReturnTimeResult:
    """R'_n, the first return at a shift of at least n, for one depth: a
    bisect of the Word's primed record."""
    if not isinstance(w, Word):
        raise _not_a_word(w)
    if n.__class__ is not int:
        n = _depth(n, "n")
    L = len(w.symbols)
    if not 1 <= n <= L:
        raise ValueError(f"need 1 <= n <= {L}, got n={n}")
    runs = w._walks[1]
    if runs is None:
        runs = _word_walk(w, True)
    i = bisect_left(runs.ends, n)
    if i < len(runs.ends):
        return _new(ReturnTimeResult, (n, runs.returns[i], True, True))
    return _new(ReturnTimeResult, (n, max(L - n, n - 1), False, True))
