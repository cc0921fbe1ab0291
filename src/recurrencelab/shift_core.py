"""Symbolic sequences over a finite alphabet, finite and lazily infinite.

The objects here model points of the one-sided full shift on m symbols.
Indexing is 1-based throughout the public API (position 1 is the first
symbol); storage is 0-based, converted at the boundary.  A word stores its
symbols once, as bytes whenever they fit; symbol_store alone decides.

A LazySequence is a base sequence (any SymbolSource; in the pipeline the
block base cantor_builder.FpBase) overlaid with finitely many inserted
words at fixed positions.  Positions of the overlay are expressed in the
coordinates of the final sequence: inserting words left to right at
nondecreasing gaps means an inserted word never moves once placed, so a
single sorted table answers random access, and a window is the base's
ranges between events interleaved with the event words.  Those pieces are
written in place into one buffer, each checked against the alphabet where
it is made (SymbolSource.fill), and a prefix's Word is built once from it
without a second scan.

Words travel in JSON as digit strings when m <= 10 and as symbol lists
otherwise; the word reader of the command line accepts either form.  A
LazySequence is written (to_json_dict), never read back.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Optional, Sequence, Union

from .errors import AlphabetMismatchError, CapacityError, PlanValidityError

DEFAULT_MATERIALIZATION_CAP = 10_000_000


@dataclass(frozen=True)
class Alphabet:
    """The symbol set {0, ..., m-1}, m >= 2."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"alphabet needs at least 2 symbols, got {self.m}")

    def contains(self, symbol: int) -> bool:
        return isinstance(symbol, int) and 0 <= symbol < self.m

    def check(self, symbols: Sequence[int]) -> None:
        for s in symbols:
            if not isinstance(s, int):
                raise ValueError(f"symbol {s!r} is not an integer")
            if not (0 <= s < self.m):
                raise ValueError(f"symbol {s} outside alphabet of size {self.m}")


def symbol_store(symbols, m: int = 256) -> Union[bytes, tuple]:
    """Bytes when m <= 256 and every symbol fits in a byte, else a tuple;
    bytes input comes back as is, without a copy.

    A list or tuple is packed through a bytearray, which bytes() then
    copies whole: 1.4-2.6x faster than bytes() of the list itself at
    2*10^5 symbols, with the same bytes, and the same TypeError or
    ValueError (so the same tuple) for a symbol that is not a byte."""
    if not isinstance(symbols, (bytes, tuple, list)):
        symbols = tuple(symbols)   # a failed bytes() must not eat an iterator
    if m <= 256:
        if isinstance(symbols, bytes):
            return bytes(symbols)   # the object itself when exactly bytes
        try:
            return bytes(bytearray(symbols))
        except (TypeError, ValueError):
            pass
    return tuple(symbols)


# symbol s -> ASCII digit s, for the m <= 10 stores (always bytes)
_ASCII_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def join_stores(stores, m: int) -> Union[bytes, tuple]:
    """Concatenate the symbol stores of one alphabet: one bytes.join when
    m <= 256 (every store is bytes then), else one tuple."""
    if m <= 256:
        return b"".join(stores)
    return tuple(chain.from_iterable(stores))


def _check_store(store, alphabet: Alphabet) -> None:
    """ValueError naming the first symbol of the store outside the
    alphabet, or that is not an int.  A bytes store is checked by one
    translate(), which deletes every in-alphabet byte, so any byte left
    over is a symbol >= m; only then, or for a tuple store, are the
    symbols read one by one."""
    if not isinstance(store, bytes) or store.translate(
            None, bytes(range(alphabet.m))):
        alphabet.check(store)


@dataclass(frozen=True)
class Word:
    """A finite word; symbols are ints in [0, m).

    Any iterable is normalized once into the single store `symbols`:
    bytes for m <= 256 (slicing, comparison and search run in C), else a
    tuple.  `data` is that store when it is bytes, None otherwise.

    `_walks` holds the return-time record of the plain (index 0) and
    primed (index 1) kind, each None before its first query and then the
    runs of equal R_n of its exact head (return_time.Runs, two ints per
    run; see return_time).  It is a plain attribute, not a field, so it
    takes no part in equality, hash, repr or dataclasses.fields.
    """

    symbols: Union[bytes, tuple[int, ...]]
    alphabet: Alphabet

    def __post_init__(self):
        store = symbol_store(self.symbols, self.alphabet.m)
        _check_store(store, self.alphabet)
        object.__setattr__(self, "symbols", store)
        object.__setattr__(self, "_walks", [None, None])

    @classmethod
    def _checked(cls, store: Union[bytes, tuple],
                 alphabet: Alphabet) -> "Word":
        """A Word over a store as symbol_store makes it (bytes for
        m <= 256, else a tuple) whose symbols were already checked against
        the alphabet where they were made: no second scan."""
        word = object.__new__(cls)
        object.__setattr__(word, "symbols", store)
        object.__setattr__(word, "alphabet", alphabet)
        object.__setattr__(word, "_walks", [None, None])
        return word

    @property
    def data(self) -> Optional[bytes]:
        return self.symbols if isinstance(self.symbols, bytes) else None

    @classmethod
    def from_iterable(cls, symbols, m: int) -> "Word":
        return cls(symbols, Alphabet(m))

    @classmethod
    def from_digits(cls, text: str, m: int) -> "Word":
        """Parse a plain digit string; only alphabets up to 10 symbols."""
        if m > 10:
            raise ValueError("digit-string words require m <= 10")
        return cls([int(ch) for ch in text], Alphabet(m))

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
        return self.symbols.translate(_ASCII_DIGITS).decode("ascii")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot concatenate across alphabets")
        return Word(self.symbols + other.symbols, self.alphabet)


def _new_buffer(m: int, n: int) -> Union[bytearray, list]:
    """A buffer for n symbols of an m-symbol alphabet, as `fill` writes
    them: a bytearray when m <= 256, else a list."""
    return bytearray(n) if m <= 256 else [0] * n


def _frozen(buf: Union[bytearray, list]) -> Union[bytes, tuple]:
    """The symbol store of a filled buffer: bytes or a tuple."""
    return bytes(buf) if isinstance(buf, bytearray) else tuple(buf)


def _tile(buf: Union[bytearray, list], at: int, stop: int,
          pattern: Union[bytes, tuple]) -> None:
    """Fill buf[at:stop] with the pattern repeated and cut to length: one
    write of the pattern, then copies of the filled head onto the rest,
    doubling it each time (log2((stop - at) / len(pattern)) copies).  A
    bytearray is copied through a memoryview, with no temporary."""
    view = memoryview(buf) if isinstance(buf, bytearray) else buf
    n = stop - at
    done = min(len(pattern), n)
    view[at:at + done] = pattern[:done]
    while done < n:
        step = min(done, n - done)
        view[at + done:at + done + step] = view[at:at + step]
        done += step


class SymbolSource:
    """Positional access to a finite or infinite symbol stream.

    A source implements `symbol_at` and may implement `fill`, its one bulk
    read; `window` is `fill` into a fresh buffer."""

    alphabet: Alphabet

    def symbol_at(self, j: int) -> int:  # 1-based
        raise NotImplementedError

    def fill(self, buf: Union[bytearray, list], at: int, i: int,
             j: int) -> None:
        """Write positions i..j (none when j < i) into
        buf[at:at + j - i + 1], a buffer as _new_buffer makes it, raising
        what reading the positions in order with `symbol_at` would; every
        symbol written is in the alphabet.  This default reads the symbols
        one by one and checks each as it writes it: a symbol outside the
        alphabet, or that is not an int, raises the ValueError a Word over
        it would."""
        contains = self.alphabet.contains
        for k, s in enumerate(map(self.symbol_at, range(i, j + 1)), at):
            if not contains(s):
                self.alphabet.check((s,))
            buf[k] = s

    def window(self, i: int, j: int) -> Union[bytes, tuple]:
        """Symbols at 1-based positions i..j inclusive (empty when j < i),
        as a Word's symbol store: `fill` into a fresh buffer."""
        buf = _new_buffer(self.alphabet.m, max(0, j - i + 1))
        self.fill(buf, 0, i, j)
        return _frozen(buf)

    def descriptor(self) -> dict:
        raise NotImplementedError


def _word_to_json(word: Word) -> Union[str, list]:
    """A digit string when m <= 10, else the list of symbols."""
    return word.to_digits() if word.alphabet.m <= 10 else list(word.symbols)


def _word_from_json(value: Union[str, list], m: int) -> Word:
    """Inverse of _word_to_json: a symbol list at any m, a digit string
    only at m <= 10 (ValueError past it, as Word.from_digits raises)."""
    if isinstance(value, str):
        return Word.from_digits(value, m)
    return Word.from_iterable(value, m)


@dataclass(frozen=True)
class LazySequence:
    """Base stream overlaid with inserted words, final coordinates.

    Invariants: event positions are >= 1, strictly increasing, and each
    event starts at or after the previous event's end + 1 (no overlap).
    Random access costs O(log #events).  A window is one left-to-right
    walk over the events that reach it, one base range per gap and then
    the event word, each written in place into one buffer of the window's
    length (the base's `fill`, which checks what it writes); a prefix is
    the window from position 1.  Its Word is built once from the buffer,
    with no second alphabet scan.  For m <= 256 the buffer is a
    bytearray: over the bases of this package no per-symbol Python runs,
    and the peak is about two bytes per symbol, the bytearray and the
    Word's bytes.  Past 256 symbols it is a list, and the Word's store a
    tuple.
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

    def window(self, i: int, j: int) -> Union[bytes, tuple]:
        """Symbols at 1-based positions i..j inclusive (empty when j < i),
        as a Word's symbol store.  One left-to-right walk over the events
        that reach the window, from the first that ends at or after i: a
        base range per gap and then the part of the event word inside the
        window, each written in place into one buffer of the window's
        length."""
        if j < i:
            return _frozen(_new_buffer(self.alphabet.m, 0))
        if i < 1:
            raise IndexError("positions start at 1")
        self._check_cap(j)
        buf = _new_buffer(self.alphabet.m, j - i + 1)
        starts, before = self._starts, self._inserted_before
        pos = i                                 # next position to write
        k = bisect_right(self._ends, i - 1)     # events 0..k-1 end before i
        while k < len(starts) and starts[k] <= j:
            start, word = self.events[k]
            # the base position of pos, when pos < start, is pos less the
            # lengths of the k events before it
            bp = pos - before[k]
            self.base.fill(buf, pos - i, bp, bp + start - pos - 1)
            lo = max(pos, start)
            syms = word.symbols[lo - start:j - start + 1]
            buf[lo - i:lo - i + len(syms)] = syms
            pos = start + len(word)
            k += 1
        bp = pos - before[k]
        self.base.fill(buf, pos - i, bp, bp + j - pos)
        return _frozen(buf)

    def prefix(self, n: int) -> Word:
        """The first n symbols as a Word: window(1, n)."""
        if n < 0:
            raise ValueError("prefix length must be nonnegative")
        return Word._checked(self.window(1, n), self.alphabet)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.descriptor(),
            "events": [{"pos": str(pos), "word": _word_to_json(w)}
                       for pos, w in self.events],
            "m": self.alphabet.m,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())
