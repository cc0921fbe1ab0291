"""Symbolic sequences over a finite alphabet, finite and lazily infinite.

The objects here model points of the one-sided full shift on m symbols.
Indexing is 1-based throughout the public API (position 1 is the first
symbol); storage is ordinary 0-based tuples converted at the boundary.

A LazySequence is a base sequence (periodic, explicit, or any SymbolSource)
overlaid with finitely many inserted words at fixed positions.  Positions of
the overlay are expressed in the coordinates of the final sequence: inserting
words left to right at nondecreasing gaps means an inserted word never moves
once placed, so a single sorted table answers random access.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import (AlphabetMismatchError, CapacityError, PlanValidityError,
                     SourceExhaustedError)

DEFAULT_MATERIALIZATION_CAP = 10_000_000


@dataclass(frozen=True)
class Alphabet:
    """The symbol set {0, ..., m-1}, m >= 2."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"alphabet needs at least 2 symbols, got {self.m}")

    def contains(self, symbol: int) -> bool:
        return 0 <= symbol < self.m

    def check(self, symbols: Sequence[int]) -> None:
        for s in symbols:
            if not (0 <= s < self.m):
                raise ValueError(f"symbol {s} outside alphabet of size {self.m}")


@dataclass(frozen=True)
class Word:
    """A finite word; symbols are ints in [0, m).

    For m <= 256 the word also carries `data`, the same symbols as bytes,
    built once, so slicing, comparison and search run in C; it is None for
    larger alphabets and for symbols that are not ints.
    """

    symbols: tuple[int, ...]
    alphabet: Alphabet
    data: Optional[bytes] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = None
        if self.alphabet.m <= 256:
            try:
                data = bytes(self.symbols)
            except (TypeError, ValueError):
                pass  # the full check below names the offending symbol
        # translate() deletes every in-alphabet byte; any byte left over is
        # a symbol >= m
        if data is None or data.translate(None, bytes(range(self.alphabet.m))):
            self.alphabet.check(self.symbols)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_iterable(cls, symbols, m: int) -> "Word":
        return cls(tuple(symbols), Alphabet(m))

    @classmethod
    def from_digits(cls, text: str, m: int) -> "Word":
        """Parse a plain digit string; only alphabets up to 10 symbols."""
        if m > 10:
            raise ValueError("digit-string words require m <= 10")
        return cls(tuple(int(ch) for ch in text), Alphabet(m))

    def at(self, j: int) -> int:
        """Symbol at 1-based position j."""
        if not 1 <= j <= len(self.symbols):
            raise IndexError(f"position {j} outside word of length {len(self.symbols)}")
        return self.symbols[j - 1]

    def sub(self, i: int, j: int) -> "Word":
        """Subword at 1-based positions i..j inclusive."""
        if not (1 <= i and i - 1 <= j <= len(self.symbols)):
            raise IndexError(f"range {i}..{j} outside word of length {len(self.symbols)}")
        return Word(self.symbols[i - 1:j], self.alphabet)

    def prefix(self, n: int) -> "Word":
        return self.sub(1, n)

    def to_digits(self) -> str:
        if self.alphabet.m > 10:
            raise ValueError("digit-string serialization requires m <= 10")
        return "".join(str(s) for s in self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot concatenate across alphabets")
        return Word(self.symbols + other.symbols, self.alphabet)


def agreement_length(x: Word, y: Word) -> int:
    """Length of the common prefix of two words of equal length."""
    if x.alphabet != y.alphabet:
        raise AlphabetMismatchError("distance requires a common alphabet")
    if len(x) != len(y):
        raise ValueError("distance requires words of equal length")
    for k, (a, b) in enumerate(zip(x.symbols, y.symbols)):
        if a != b:
            return k
    return len(x)


def distance(x: Word, y: Word) -> float:
    """m^-k where k symbols agree before the first difference.

    Equal words give 0.0, which on finite data is an upper bound: the
    sequences are indistinguishable at every observed depth.  Underflows
    to 0.0 for very long agreements; compare agreement_length directly
    when exactness matters.
    """
    k = agreement_length(x, y)
    if k == len(x):
        return 0.0
    return float(x.alphabet.m) ** (-k)


class SymbolSource:
    """Positional access to a finite or infinite symbol stream."""

    alphabet: Alphabet
    length: Optional[int] = None  # None means infinite

    def symbol_at(self, j: int) -> int:  # 1-based
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


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

    @property
    def length(self) -> Optional[int]:
        return None

    def symbol_at(self, j: int) -> int:
        if j < 1:
            raise IndexError("positions start at 1")
        return self.word.symbols[(j - 1) % len(self.word)]

    def descriptor(self) -> dict:
        return {"kind": "periodic", "word": self.word.to_digits(),
                "m": self.alphabet.m}


@dataclass(frozen=True)
class ExplicitBase(SymbolSource):
    """A finite word used as a base; reads past the end raise."""

    word: Word

    @property
    def alphabet(self) -> Alphabet:
        return self.word.alphabet

    @property
    def length(self) -> Optional[int]:
        return len(self.word)

    def symbol_at(self, j: int) -> int:
        if j < 1:
            raise IndexError("positions start at 1")
        if j > len(self.word):
            raise SourceExhaustedError(
                f"base of length {len(self.word)} read at position {j}")
        return self.word.symbols[j - 1]

    def descriptor(self) -> dict:
        return {"kind": "explicit", "word": self.word.to_digits(),
                "m": self.alphabet.m}


# populated by modules that define further base kinds (see cantor_builder)
BASE_DECODERS: dict = {}


def _decode_base(desc: dict) -> SymbolSource:
    kind = desc.get("kind")
    if kind == "periodic":
        return PeriodicBase(Word.from_digits(desc["word"], desc["m"]))
    if kind == "explicit":
        return ExplicitBase(Word.from_digits(desc["word"], desc["m"]))
    if kind in BASE_DECODERS:
        return BASE_DECODERS[kind](desc)
    raise ValueError(f"unknown base kind {kind!r}")


@dataclass(frozen=True)
class LazySequence:
    """Base stream overlaid with inserted words, final coordinates.

    Invariants: event positions are >= 1, strictly increasing, and each
    event starts at or after the previous event's end + 1 (no overlap).
    Random access costs O(log #events); prefixes are materialized by a
    single left-to-right walk.
    """

    base: SymbolSource
    events: tuple[tuple[int, Word], ...] = ()
    cap: int = DEFAULT_MATERIALIZATION_CAP
    _starts: tuple[int, ...] = field(init=False, repr=False)
    _ends: tuple[int, ...] = field(init=False, repr=False)
    _inserted_before: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        prev_end = 0
        starts, ends, cum = [], [], [0]
        for pos, word in self.events:
            if pos < 1:
                raise PlanValidityError("event positions start at 1")
            if pos <= prev_end:
                raise PlanValidityError(
                    f"event at {pos} overlaps the previous event ending at {prev_end}")
            if word.alphabet != self.base.alphabet:
                raise AlphabetMismatchError("event word alphabet differs from base")
            if len(word) == 0:
                raise PlanValidityError("event words must be nonempty")
            starts.append(pos)
            ends.append(pos + len(word) - 1)
            cum.append(cum[-1] + len(word))
            prev_end = ends[-1]
        object.__setattr__(self, "_starts", tuple(starts))
        object.__setattr__(self, "_ends", tuple(ends))
        object.__setattr__(self, "_inserted_before", tuple(cum))

    @property
    def alphabet(self) -> Alphabet:
        return self.base.alphabet

    def _check_cap(self, j: int) -> None:
        if j > self.cap:
            raise CapacityError(
                f"position {j} beyond materialization cap {self.cap}")

    def index(self, j: int) -> int:
        """Symbol at 1-based position j of the overlaid sequence."""
        if j < 1:
            raise IndexError("positions start at 1")
        self._check_cap(j)
        k = bisect_right(self._starts, j) - 1
        if k >= 0 and j <= self._ends[k]:
            return self.events[k][1].at(j - self._starts[k] + 1)
        # all events 0..k end before j here; remove their lengths
        base_pos = j - self._inserted_before[k + 1]
        return self.base.symbol_at(base_pos)

    def prefix(self, n: int) -> Word:
        """The first n symbols as a Word."""
        if n < 0:
            raise ValueError("prefix length must be nonnegative")
        self._check_cap(n)
        out: list[int] = []
        pos = 1
        ei = 0
        while pos <= n:
            if ei < len(self._starts) and pos == self._starts[ei]:
                word = self.events[ei][1]
                take = min(len(word), n - pos + 1)
                out.extend(word.symbols[:take])
                pos += take
                ei += 1
                continue
            stop = min(n, self._starts[ei] - 1) if ei < len(self._starts) else n
            offset = self._inserted_before[ei]
            base = self.base
            out.extend(base.symbol_at(bp) for bp in range(pos - offset, stop - offset + 1))
            pos = stop + 1
        return Word(tuple(out), self.alphabet)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.descriptor(),
            "events": [{"pos": str(pos), "word": w.to_digits()}
                       for pos, w in self.events],
            "m": self.alphabet.m,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict,
                       cap: int = DEFAULT_MATERIALIZATION_CAP) -> "LazySequence":
        base = _decode_base(data["base"])
        m = data["m"]
        if base.alphabet.m != m:
            raise AlphabetMismatchError("base alphabet disagrees with declared m")
        events = tuple((int(e["pos"]), Word.from_digits(e["word"], m))
                       for e in data["events"])
        return cls(base=base, events=events, cap=cap)

    @classmethod
    def from_json(cls, text: str,
                  cap: int = DEFAULT_MATERIALIZATION_CAP) -> "LazySequence":
        return cls.from_json_dict(json.loads(text), cap=cap)
