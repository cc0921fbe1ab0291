import dataclasses
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurrencelab import (Alphabet, AlphabetMismatchError, ExplicitFree,
                           FpBase, LazySequence, PlanValidityError,
                           SeededFree, SourceExhaustedError, SymbolSource,
                           Word, make_insertion_word)
from recurrencelab.errors import CapacityError
from recurrencelab.shift_core import _word_from_json, symbol_store

from conftest import ExplicitBase, PeriodicBase, random_word


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(1)
    a = Alphabet(3)
    assert a.contains(2) and not a.contains(3)
    with pytest.raises(ValueError):
        Word.from_iterable([0, 3], 3)


@pytest.mark.parametrize("syms,m,bad", [
    ([0.5, 1, 0.5, 1], 3, "0.5"), ([0, 1.0, 2], 3, "1.0"),
    ([0, 299, 2.0], 300, "2.0"), (["0", "1"], 2, "'0'"),
    ([0, None], 300, "None")])
def test_a_symbol_that_is_not_an_int_is_refused(syms, m, bad):
    # a store of such symbols is a tuple, checked symbol by symbol: every
    # symbol must be an int in [0, m), even where it compares like one
    for make in (lambda: Word(syms, Alphabet(m)),
                 lambda: Word.from_iterable(syms, m),
                 lambda: Word.from_iterable(iter(syms), m)):
        with pytest.raises(ValueError, match=f"symbol {bad} is not an "
                           "integer"):
            make()


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789", max_size=40), st.integers(2, 10))
def test_from_digits_reads_ascii_digits(text, m):
    want = [int(ch) for ch in text]
    if max(want, default=0) < m:
        assert Word.from_digits(text, m) == Word.from_iterable(want, m)
    else:
        with pytest.raises(ValueError, match="outside alphabet"):
            Word.from_digits(text, m)


@pytest.mark.parametrize("text", [
    "\u0660\u0661\u0660\u0661", "\uff11\uff10", "01\u00b2", "0 1", "01a",
    "-01", "+1", "0_1", "\U0001d7ce"],
    ids=["arabic-indic", "fullwidth", "superscript", "space", "letter",
         "minus", "plus", "underscore", "math-bold"])
def test_from_digits_refuses_any_other_character(text):
    # int() reads every Unicode decimal digit; a word takes ASCII 0-9 only
    with pytest.raises(ValueError, match="ASCII digits 0-9 only"):
        Word.from_digits(text, 10)
    with pytest.raises(ValueError, match="ASCII digits 0-9 only"):
        _word_from_json(text, 2)


def test_word_bytes_view():
    assert Word.from_digits("0120", 3).data == bytes([0, 1, 2, 0])
    assert Word.from_iterable([0, 255], 256).data == b"\x00\xff"
    assert Word.from_iterable([0, 299], 300).data is None
    assert Word.from_iterable([], 2).data == b""
    # out-of-alphabet symbols still raise, inside and outside byte range
    for bad, m in (([0, 2], 2), ([0, 256], 256), ([0, -1], 3), ([300], 300)):
        with pytest.raises(ValueError):
            Word.from_iterable(bad, m)


def test_word_has_one_symbol_store():
    fields = [f.name for f in dataclasses.fields(Word)]
    assert fields == ["symbols", "alphabet"]
    assert Word.from_iterable([0, 1, 1], 2).symbols == b"\x00\x01\x01"
    assert Word.from_iterable([0, 255], 256).symbols == b"\x00\xff"
    w = Word.from_iterable([0, 299, 5], 300)
    assert w.symbols == (0, 299, 5) and w.data is None
    # past 256 symbols the store is a tuple even when every symbol fits
    assert Word.from_iterable([0, 1], 300).symbols == (0, 1)
    # the bytes view is the store itself, not a copy
    w2 = Word.from_digits("0110", 2)
    assert w2.data is w2.symbols


@pytest.mark.parametrize("m", [2, 256, 300])
def test_word_equal_across_input_kinds(m):
    syms = [0, 1, m - 1, 1, 0]
    inputs = [syms, tuple(syms), iter(syms), (s for s in syms)]
    if m <= 256:
        inputs.append(bytes(syms))
    words = [Word(x, Alphabet(m)) for x in inputs]
    words.append(Word.from_iterable(syms, m))
    for w in words:
        assert w == words[0] and hash(w) == hash(words[0])
        assert list(w) == syms and [w.at(j) for j in range(1, 6)] == syms


@settings(max_examples=200)
@given(st.sampled_from([2, 3, 5, 256]),
       st.lists(st.integers(0, 255), max_size=300), st.booleans())
def test_symbol_store_packs_like_bytes(m, syms, as_tuple):
    # every symbol fits in a byte, so the store is the bytes of the
    # symbols, whatever m <= 256 says about the alphabet
    store = symbol_store(tuple(syms) if as_tuple else syms, m)
    assert type(store) is bytes and store == bytes(syms)


class _Index:
    """An int-like symbol: only __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_symbol_store_edge_cases():
    assert symbol_store([True, False, True], 2) == b"\x01\x00\x01"
    assert symbol_store((_Index(3), _Index(200)), 256) == b"\x03\xc8"
    # a symbol that is no byte falls back to a tuple of the input
    for bad in ([0, 256], (1, -1), [0, 1.0], ("0", "1")):
        assert symbol_store(bad, 256) == tuple(bad), bad
    data = bytes([0, 1, 1])
    assert symbol_store(data, 2) is data
    assert symbol_store(data, 300) == (0, 1, 1)
    # an iterator is read once, also when the bytes route fails
    pulled = []

    def symbols():
        for s in (0, 1, 300):
            pulled.append(s)
            yield s

    assert symbol_store(symbols(), 256) == (0, 1, 300)
    assert pulled == [0, 1, 300]


@pytest.mark.parametrize("m,store", [(2, bytes), (256, bytes), (300, tuple)])
def test_word_operations_keep_store_type(m, store):
    syms = [0, 1, m - 1, 1, 0, 1]
    w = Word.from_iterable(syms, m)
    seq = LazySequence(PeriodicBase(w), ((3, w.prefix(2)),))
    derived = {"sub": w.sub(2, 4), "prefix": w.prefix(3), "add": w + w,
               "marker": make_insertion_word(w.prefix(3), m - 1),
               "lazy prefix": seq.prefix(20)}
    for name, v in derived.items():
        assert type(v.symbols) is store, name
    assert list(derived["add"]) == syms + syms
    assert list(derived["marker"]) == [1, 0, 1, m - 1, 0, 1]
    base = syms * 4
    assert list(derived["lazy prefix"]) == base[:2] + syms[:2] + base[2:18]


def test_prefix_peak_memory_per_symbol():
    # the million symbols are held once, as bytes; a list plus a tuple plus
    # a bytes copy of them would need about 18 bytes per symbol
    n = 10 ** 6
    seq = LazySequence(FpBase(3, 2), cap=n)
    seq.prefix(1000)
    tracemalloc.start()
    try:
        word = seq.prefix(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 12, f"{peak / n:.1f} bytes per symbol"
    assert len(word) == n and isinstance(word.symbols, bytes)


def test_word_basics():
    w = Word.from_digits("0120", 3)
    assert len(w) == 4
    assert w.at(1) == 0 and w.at(3) == 2
    assert w.sub(2, 3).to_digits() == "12"
    assert w.prefix(2).to_digits() == "01"
    assert (w + w).to_digits() == "01200120"
    with pytest.raises(IndexError):
        w.at(5)
    with pytest.raises(AlphabetMismatchError):
        w + Word.from_digits("01", 2)


def test_periodic_and_explicit_bases():
    per = PeriodicBase(Word.from_digits("01", 2))
    assert [per.symbol_at(j) for j in range(1, 6)] == [0, 1, 0, 1, 0]
    exp = ExplicitBase(Word.from_digits("0110", 2))
    assert exp.symbol_at(4) == 0
    with pytest.raises(SourceExhaustedError):
        exp.symbol_at(5)


def naive_splice(base_syms, events):
    """Independent reference: place each word at its final position,
    fill everything else with base symbols in order."""
    covered = {}
    for pos, w in events:
        for t, s in enumerate(w.symbols):
            covered[pos + t] = s
    out = []
    it = iter(base_syms)
    j = 1
    while len(out) < len(base_syms):
        out.append(covered[j] if j in covered else next(it))
        j += 1
    return out


def test_lazy_sequence_against_naive_splice():
    base = PeriodicBase(Word.from_digits("0110100", 2))
    events = ((5, Word.from_digits("111", 2)),
              (12, Word.from_digits("1001", 2)),
              (30, Word.from_digits("11", 2)))
    seq = LazySequence(base, events)
    want = naive_splice([base.symbol_at(j) for j in range(1, 61)], events)
    got = list(seq.prefix(50))
    assert got == want[:50]
    assert [seq.index(j) for j in range(1, 51)] == got


def test_lazy_sequence_rejects_overlap():
    base = PeriodicBase(Word.from_digits("01", 2))
    with pytest.raises(PlanValidityError):
        LazySequence(base, ((5, Word.from_digits("111", 2)),
                            (7, Word.from_digits("00", 2))))
    # adjacent is fine: first occupies 5..7, next starts at 8
    LazySequence(base, ((5, Word.from_digits("111", 2)),
                        (8, Word.from_digits("00", 2))))


def test_lazy_sequence_cap():
    base = PeriodicBase(Word.from_digits("01", 2))
    seq = LazySequence(base, (), cap=100)
    with pytest.raises(CapacityError):
        seq.prefix(101)
    with pytest.raises(CapacityError):
        seq.index(101)


def test_lazy_sequence_json_roundtrip():
    # the JSON text reads back as the dict it was written from; positions
    # travel as decimal strings, exact past 2^53
    far = 2 ** 60
    seq = LazySequence(FpBase(3, 2, SeededFree(4, 2)),
                       ((4, Word.from_digits("101", 2)),
                        (far, Word.from_digits("1001", 2))), cap=far + 10)
    data = json.loads(seq.to_json())
    assert data == seq.to_json_dict()
    assert [e["pos"] for e in data["events"]] == ["4", str(far)]
    assert data["base"] == {"kind": "fp", "p": 3, "m": 2,
                            "free": {"kind": "seeded", "seed": 4, "m": 2}}


@settings(max_examples=60)
@given(st.data())
def test_lazy_sequence_random_events(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    base = PeriodicBase(random_word(rng, 2, rng.randrange(2, 9)))
    events = []
    pos = 1
    for _ in range(rng.randrange(0, 5)):
        pos += rng.randrange(1, 15)
        w = random_word(rng, 2, rng.randrange(1, 6))
        events.append((pos, w))
        pos += len(w)
    seq = LazySequence(base, tuple(events))
    horizon = pos + 20
    want = naive_splice([base.symbol_at(j) for j in range(1, horizon + 1)],
                        events)
    assert list(seq.prefix(horizon)) == want


# ------------------------------------------------------------ bulk windows ---

@pytest.mark.parametrize("m", [2, 3, 256, 300])
def test_periodic_and_explicit_windows_match_symbol_at(m):
    rng = random.Random(m)
    for period in (1, 2, 7, 40):
        word = random_word(rng, m, period)
        for base in (PeriodicBase(word), ExplicitBase(word)):
            horizon = 3 * period + 5 if isinstance(base, PeriodicBase) else period
            windows = [(1, 0), (3, 2), (1, horizon), (horizon, horizon)]
            for _ in range(40):
                i = rng.randint(1, horizon)
                windows.append((i, rng.randint(i - 1, horizon)))
            for i, j in windows:
                want = [base.symbol_at(x) for x in range(i, j + 1)]
                got = base.window(i, j)
                assert type(got) is type(word.symbols), (i, j)
                assert list(got) == want, (period, i, j)
                # fill at an offset into a larger buffer leaves the
                # neighbours as they were
                at = rng.randint(1, 5)
                pad = 0xAA if m <= 256 else -1
                buf = (bytearray if m <= 256 else list)(
                    [pad] * (at + len(want) + 4))
                base.fill(buf, at, i, j)
                assert list(buf) == [pad] * at + want + [pad] * 4, (i, j)


def test_explicit_window_raises_like_symbol_at():
    base = ExplicitBase(Word.from_digits("01101", 2))
    assert base.window(5, 5) == b"\x01" and base.window(6, 5) == b""
    for i, j in ((1, 6), (4, 9), (6, 6), (8, 12)):
        with pytest.raises(SourceExhaustedError) as bulk:
            base.window(i, j)
        with pytest.raises(SourceExhaustedError) as one:
            for x in range(i, j + 1):
                base.symbol_at(x)
        assert str(bulk.value) == str(one.value), (i, j)


def test_default_window_reads_symbol_at():
    class Squares(SymbolSource):
        alphabet = Alphabet(5)

        def symbol_at(self, j):
            return j * j % 5

    assert Squares().window(2, 6) == bytes([4, 4, 1, 0, 1])
    assert Squares().window(3, 2) == b""


@pytest.mark.parametrize("m", [2, 3, 10])
def test_to_digits_matches_str_join(m):
    w = random_word(random.Random(m), m, 500)
    assert w.to_digits() == "".join(str(s) for s in w.symbols)
    assert Word.from_digits(w.to_digits(), m) == w


@pytest.mark.parametrize("m", [3, 12, 300])
def test_lazy_sequence_json_roundtrip_any_alphabet(m):
    # event words are written as digit strings when m <= 10 and as symbol
    # lists above, and each reads back, in its form, as the word written
    rng = random.Random(m)
    for free in (None, SeededFree(m, m), ExplicitFree([m - 1, 0, 1] * 50)):
        base = FpBase(3, m, free)
        events = ((4, random_word(rng, m, 5)), (30, random_word(rng, m, 9)))
        data = json.loads(LazySequence(base, events).to_json())
        assert data["m"] == m and data["base"] == base.descriptor()
        words = [e["word"] for e in data["events"]]
        assert {type(w) for w in words} == ({str} if m <= 10 else {list})
        assert [_word_from_json(w, m) for w in words] == \
            [w for _, w in events]
    # the word reader of the command line takes the list form at any
    # alphabet size
    assert list(_word_from_json([0, 1, m - 1], m)) == [0, 1, m - 1]


def test_prefix_peak_memory_is_bytes_only():
    # one bytes.join of the base window: the store plus one transient copy
    n = 10 ** 6
    seq = LazySequence(FpBase(3, 2), cap=n)
    seq.prefix(1000)
    tracemalloc.start()
    try:
        word = seq.prefix(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 3, f"{peak / n:.2f} bytes per symbol"
    assert len(word) == n and isinstance(word.symbols, bytes)
