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
whole answer of a batch is the array of exact values plus L, every deeper
depth being the lower bound.  `ReturnTimes` stores exactly that.

Every entry point takes a Word (Word.from_iterable(symbols, m) builds
one); anything else is a TypeError.  A Word keeps one record per kind,
plain and primed (`Word._walks`): the exact head of one run-length walk
to its end, walked on the first query of that kind, single depth or
batch, and read by every later one.  A batch to any max_n is a slice of
it, and a single depth is its value there or, past it, the certified
bound, read from `Word._walks` with no batch object in between.

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
length, plus the final miss; the values of a run are appended as one
repeat.

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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional, Union

from .shift_core import Word


class ReturnTimeResult(NamedTuple):
    """Either an exact return time or a certified lower bound.

    exact=True: value is R_n itself.
    exact=False: every candidate up to and including `value` was excluded,
    i.e. R_n > value.  (value = L - n for a length-L observation window.)

    A named tuple: immutable, compared and hashed by its fields, and one
    allocation to build (half the cost of a slotted frozen dataclass).
    """

    n: int
    value: int
    exact: bool
    prime: bool = False

    def __str__(self) -> str:
        name = "R'" if self.prime else "R"
        rel = "=" if self.exact else ">"
        return f"{name}_{self.n} {rel} {self.value}"


@dataclass(frozen=True)
class ReturnTimes(Sequence):
    """R_n (or R'_n) for n = 1..top of a length-L window, stored as columns.

    values[n - 1] is the exact return time for n <= exact_depth =
    len(values); every deeper n, up to top, has only the lower bound
    `bound(n)`.  Behaves as a read-only list of `top` ReturnTimeResult
    views: len(), integer and slice indexing, iteration.
    """

    values: tuple[int, ...]
    length: int
    top: int
    prime: bool = False

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
        if n <= len(self.values):
            return ReturnTimeResult(n, self.values[n - 1], True, self.prime)
        return ReturnTimeResult(n, self.bound(n), False, self.prime)

    def __len__(self) -> int:
        return self.top

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self.result(i + 1) for i in range(*k.indices(self.top))]
        if k < 0:
            k += self.top
        if not 0 <= k < self.top:
            raise IndexError(f"index {k} outside a result of length {self.top}")
        return self.result(k + 1)

    def __iter__(self) -> Iterator[ReturnTimeResult]:
        return (self.result(n) for n in range(1, self.top + 1))


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


def _walk(text: bytes, width: int, prime: bool) -> list[int]:
    """R_n (R'_n with prime=True) for n = 1, 2, ... while it exists, over a
    view of width bytes per symbol: one find per distinct value, whose run
    of depths is one common-prefix length (see the module docstring)."""
    L = len(text) // width
    values = []
    n, j = 1, 0   # the next depth, and R_{n-1} (0 before the first depth)
    while True:
        pat = text[:n * width]
        hit = text.find(pat, (j + 1) * width)
        while hit != -1 and hit % width:   # straddles two symbols
            hit = text.find(pat, hit + width - hit % width)
        if hit == -1:
            return values
        j = hit // width
        end = min(L - j, j) if prime else L - j
        k = n + _common_prefix(text, n * width, hit + n * width,
                               (end - n) * width) // width
        values.extend(repeat(j, k - n + 1))
        n = k + 1


def _word_walk(w: Word, prime: bool) -> tuple[int, ...]:
    """A Word's record of one kind: the exact head of its walk to its end,
    walked on the first query of that kind (see the module docstring)."""
    values = w._walks[prime]
    if values is None:
        values = w._walks[prime] = tuple(
            _walk(*_byte_view(w.symbols), prime))
    return values


def _length(w: Word) -> int:
    """The Word's length; TypeError for anything that is no Word."""
    if not isinstance(w, Word):
        raise TypeError(f"return times take a Word, not a {type(w).__name__}:"
                        " build one with Word.from_iterable(symbols, m)")
    return len(w.symbols)


def return_times_all(w: Word, max_n: Optional[int] = None,
                     prime: bool = False) -> ReturnTimes:
    """R_n (R'_n with prime=True) for every n in 1..max_n (default: full
    length): a slice of the Word's record."""
    L = _length(w)
    if L == 0:
        return ReturnTimes((), 0, 0, prime)
    top = L if max_n is None else max_n
    if not 1 <= top <= L:
        raise ValueError(f"need 1 <= max_n <= {L}")
    return ReturnTimes(_word_walk(w, prime)[:top], L, top, prime)


def _single(w: Word, n: int, prime: bool) -> ReturnTimeResult:
    """One depth, read from the Word's record."""
    L = _length(w)
    if not 1 <= n <= L:
        raise ValueError(f"need 1 <= n <= {L}, got n={n}")
    values = w._walks[prime]
    if values is None:
        values = _word_walk(w, prime)
    if n <= len(values):
        return ReturnTimeResult(n, values[n - 1], True, prime)
    return ReturnTimeResult(n, _bound(L, n, prime), False, prime)


def return_time(w: Word, n: int) -> ReturnTimeResult:
    """R_n for one depth."""
    return _single(w, n, False)


def return_time_prime(w: Word, n: int) -> ReturnTimeResult:
    """R'_n, the first return at a shift of at least n, for one depth."""
    return _single(w, n, True)
