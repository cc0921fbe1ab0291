"""First return times of prefixes under the shift map.

For a word w (or a long prefix of an infinite sequence), the return time of
its length-n prefix is the least j >= 1 such that w[j+1 .. j+n] equals
w[1 .. n].  The primed variant restricts to j >= n (no self-overlap).

From a word of length L only returns with j + n <= L are observable.  When
no return fits, the result is a certified lower bound rather than a value:
every j with j + n <= L has been ruled out, so R_n > L - n (R'_n > max(L - n,
n - 1) for the primed variant).

The batch computation runs a single Z-array pass: z[i] = length of the
longest common prefix of w and w[i:], so R_n = min{i >= 1 : z[i] >= n} and
R'_n = min{i >= n : z[i] >= n}.  Both candidate sets shrink as n grows, so
both minima are nondecreasing in n, and both stop existing at once and for
good: past N* = max_{i>=1} z[i] for R_n, past the last n with some i >= n
and z[i] >= n for R'_n.  Exactness is therefore a prefix in n, and one
pointer that only moves forward over z finds every exact value: the
minimum for n + 1 lies at or after the minimum for n (and, primed, at or
after n + 1), because the positions skipped all have z[i] < n.  The whole
answer is that array of exact values plus L; every deeper depth is the
lower bound.  `ReturnTimes` stores exactly that.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Optional, Union

from .shift_core import Word


@dataclass(frozen=True)
class ReturnTimeResult:
    """Either an exact return time or a certified lower bound.

    exact=True: value is R_n itself.
    exact=False: every candidate up to and including `value` was excluded,
    i.e. R_n > value.  (value = L - n for a length-L observation window.)
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
        return max(self.length - n, n - 1) if self.prime else self.length - n

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


def _symbols(w: Union[Word, Sequence[int]]) -> tuple[int, ...]:
    return w.symbols if isinstance(w, Word) else tuple(w)


def _text(w: Union[Word, Sequence[int]]) -> Union[bytes, tuple]:
    """The symbols as bytes when every one fits in a byte, else a tuple."""
    if isinstance(w, Word) and w.data is not None:
        return w.data
    syms = _symbols(w)
    try:
        return bytes(syms)
    except (TypeError, ValueError):
        return syms


def _scan(text: Union[bytes, tuple], n: int, start: int) -> int:
    """First shift j >= start with text[j:j+n] == text[:n], or -1."""
    if isinstance(text, bytes):
        return text.find(text[:n], start)
    pat = text[:n]
    for j in range(start, len(text) - n + 1):
        if text[j:j + n] == pat:
            return j
    return -1


def _lookup(w: Union[Word, Sequence[int]], n: int,
            prime: bool) -> ReturnTimeResult:
    text = _text(w)
    L = len(text)
    if not 1 <= n <= L:
        raise ValueError(f"need 1 <= n <= {L}, got n={n}")
    start = n if prime else 1
    hit = _scan(text, n, start)
    if hit != -1:
        return ReturnTimeResult(n, hit, True, prime)
    return ReturnTimeResult(n, max(L - n, start - 1), False, prime)


def return_time_naive(w: Union[Word, Sequence[int]], n: int,
                      prime: bool = False) -> ReturnTimeResult:
    """Direct scan for the first reoccurrence of the length-n prefix.

    One bytes.find over the word's bytes; a tuple scan only when the
    symbols do not fit in a byte (m > 256).
    """
    return _lookup(w, n, prime)


def z_array(syms: Sequence[int]) -> list[int]:
    """z[i] = longest common prefix of syms and syms[i:]; z[0] = len."""
    L = len(syms)
    z = [0] * L
    if L == 0:
        return z
    z[0] = L
    lo = hi = 0
    for i in range(1, L):
        if i < hi:
            z[i] = min(hi - i, z[i - lo])
        while i + z[i] < L and syms[z[i]] == syms[i + z[i]]:
            z[i] += 1
        if i + z[i] > hi:
            lo, hi = i, i + z[i]
    return z


def _exact_prefix(z: list[int], top: int, prime: bool) -> list[int]:
    """min{i >= start : z[i] >= n} for n = 1, 2, ... while it exists and
    n <= top, where start is n primed and 1 otherwise.  The pointer j only
    moves forward (see the module docstring), so this is O(L + top)."""
    L = len(z)
    values = []
    j = 1
    for n in range(1, top + 1):
        if prime and j < n:
            j = n
        while j < L and z[j] < n:
            j += 1
        if j == L:
            break
        # z[j] >= n forces j + n <= L, so the match sits inside the window
        values.append(j)
    return values


def return_times_all(w: Union[Word, Sequence[int]],
                     max_n: Optional[int] = None,
                     prime: bool = False) -> ReturnTimes:
    """R_n (R'_n with prime=True) for every n in 1..max_n (default: full
    length) from one Z pass, in O(L) total."""
    syms = _symbols(w)
    L = len(syms)
    if L == 0:
        return ReturnTimes((), 0, 0, prime)
    top = L if max_n is None else max_n
    if not 1 <= top <= L:
        raise ValueError(f"need 1 <= max_n <= {L}")
    z = z_array(syms)
    return ReturnTimes(tuple(_exact_prefix(z, top, prime)), L, top, prime)


def return_time(w: Union[Word, Sequence[int]], n: int) -> ReturnTimeResult:
    """R_n via the batch engine (single Z pass, then lookup)."""
    return return_times_all(w, max_n=n)[n - 1]


def return_time_prime(w: Union[Word, Sequence[int]], n: int) -> ReturnTimeResult:
    """R'_n: first return with shift at least n, by one bytes.find."""
    return _lookup(w, n, True)


def return_times_naive_all(w: Union[Word, Sequence[int]],
                           max_n: Optional[int] = None) -> list[ReturnTimeResult]:
    """Oracle-grade batch: one independent naive scan per n.

    The conversion to bytes is hoisted out of the loop (it does not depend
    on n); each n still gets its own full scan, so the per-n decisions stay
    independent of one another and of the Z-array engine.
    """
    text = _text(w)
    L = len(text)
    top = L if max_n is None else max_n
    if not 0 <= top <= L:
        raise ValueError(f"need 0 <= max_n <= {L}")
    out = []
    for n in range(1, top + 1):
        hit = _scan(text, n, 1)
        if hit != -1:
            out.append(ReturnTimeResult(n, hit, True))
        else:
            out.append(ReturnTimeResult(n, L - n, False))
    return out
