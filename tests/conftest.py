"""Shared oracles and sources for the test suite.

Everything here is deliberately independent of the package internals:
plain-list splicing, brute-force scans, and closed-form block logic, so
the fast implementations are checked against something that cannot share
their bugs.  The two symbol sources below read symbol by symbol through
SymbolSource's default fill; they serve as bases that are not an FpBase.
"""
import random
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import pytest

from recurrencelab import (Alphabet, SourceExhaustedError, SymbolSource, Word,
                           certified_brackets)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance-gate verdict lines after capture ends."""
    mod = (sys.modules.get("test_acceptance")
           or sys.modules.get("tests.test_acceptance"))
    verdicts = getattr(mod, "_VERDICTS", None) if mod else None
    if verdicts:
        terminalreporter.section("acceptance gate")
        for line in verdicts:
            terminalreporter.write_line(line)


def marker_base_symbol(p: int, m: int, j: int, free) -> int:
    """Independent definition of the block base: zeros up to p, block
    walls at positions = 0 or 1 mod p, free symbols in the interior."""
    if j <= p:
        return 0
    r = j % p
    if r in (0, 1):
        return 1
    k = (j - 1) // p
    ordinal = (k - 1) * (p - 2) + (r - 1)
    return free(ordinal)


def splice_oracle(p: int, m: int, terms, free, length: int) -> list[int]:
    """Iterative list-insertion construction, the slow reference for
    apply_insertions: build the base, then insert each marker word at its
    position into the current list."""
    pad = length + sum(n + 3 for n, _ in terms) + 16
    x = [marker_base_symbol(p, m, j, free) for j in range(1, pad + 1)]
    for n_k, ell_k in terms:
        if ell_k - 1 <= p:
            continue
        w = [1] + x[:n_k] + [(x[n_k] + 1) % m] + [1]
        x[ell_k - 1:ell_k - 1] = w
    return x[:length]


def brute_return_time(syms, n: int, prime: bool = False):
    """(value, exact) by direct window comparison, no string tricks."""
    L = len(syms)
    start = n if prime else 1
    for j in range(start, L - n + 1):
        if syms[j:j + n] == syms[:n]:
            return j, True
    return max(L - n, start - 1), False


class NaiveResult(NamedTuple):
    """One depth of a naive scan; equal, as a tuple, to the
    ReturnTimeResult of the same fields."""

    n: int
    value: int
    exact: bool
    prime: bool = False


def return_time_naive(w: Word, n: int, prime: bool = False) -> NaiveResult:
    """R_n (R'_n with prime=True) of a Word by one direct scan of its
    store: bytes.find from the first candidate shift, or, for a tuple
    store (m > 256), a slice comparison at each shift.  Without a return
    the value is the bound L - n (max(L - n, n - 1) primed)."""
    syms = w.symbols
    L = len(syms)
    if not 1 <= n <= L:
        raise ValueError(f"need 1 <= n <= {L}, got n={n}")
    start = n if prime else 1
    if isinstance(syms, bytes):
        hit = syms.find(syms[:n], start)
    else:
        hit = next((j for j in range(start, L - n + 1)
                    if syms[j:j + n] == syms[:n]), -1)
    if hit != -1:
        return NaiveResult(n, hit, True, prime)
    return NaiveResult(n, max(L - n, start - 1), False, prime)


def return_times_naive_all(w: Word,
                           max_n: Optional[int] = None) -> list[NaiveResult]:
    """R_n for n = 1..max_n (default: the word's length), one independent
    scan per depth."""
    top = len(w.symbols) if max_n is None else max_n
    if not 0 <= top <= len(w.symbols):
        raise ValueError(f"need 0 <= max_n <= {len(w.symbols)}")
    return [return_time_naive(w, n) for n in range(1, top + 1)]


def predicted_return_time(plan, n: int) -> Optional[int]:
    """R_n of a plan's constructed point as its certified brackets
    promise it, or None when n lies in no bracket."""
    for n_lo, n_hi, ell in certified_brackets(plan):
        if n_lo < n <= n_hi:
            return ell
    return None


@dataclass(frozen=True)
class PeriodicBase(SymbolSource):
    """Infinite periodic repetition of a finite word."""

    word: Word

    def __post_init__(self):
        if len(self.word) == 0:
            raise ValueError("period must be nonempty")

    @property
    def alphabet(self) -> Alphabet:
        return self.word.alphabet

    def symbol_at(self, j: int) -> int:
        if j < 1:
            raise IndexError("positions start at 1")
        return self.word.symbols[(j - 1) % len(self.word)]


@dataclass(frozen=True)
class ExplicitBase(SymbolSource):
    """A finite word used as a base; reads past the end raise."""

    word: Word

    @property
    def alphabet(self) -> Alphabet:
        return self.word.alphabet

    def symbol_at(self, j: int) -> int:
        if j < 1:
            raise IndexError("positions start at 1")
        if j > len(self.word):
            raise SourceExhaustedError(
                f"base of length {len(self.word)} read at position {j}")
        return self.word.symbols[j - 1]


def random_word(rng: random.Random, m: int, length: int) -> Word:
    return Word.from_iterable((rng.randrange(m) for _ in range(length)), m)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

