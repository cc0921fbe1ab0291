import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurrencelab import (Alphabet, AlphabetMismatchError, ExplicitBase,
                           LazySequence, PeriodicBase, PlanValidityError,
                           SourceExhaustedError, Word, agreement_length,
                           distance)
from recurrencelab.errors import CapacityError

from conftest import random_word


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(1)
    a = Alphabet(3)
    assert a.contains(2) and not a.contains(3)
    with pytest.raises(ValueError):
        Word.from_iterable([0, 3], 3)


def test_word_bytes_view():
    assert Word.from_digits("0120", 3).data == bytes([0, 1, 2, 0])
    assert Word.from_iterable([0, 255], 256).data == b"\x00\xff"
    assert Word.from_iterable([0, 299], 300).data is None
    assert Word.from_iterable([], 2).data == b""
    # out-of-alphabet symbols still raise, inside and outside byte range
    for bad, m in (([0, 2], 2), ([0, 256], 256), ([0, -1], 3), ([300], 300)):
        with pytest.raises(ValueError):
            Word.from_iterable(bad, m)


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


def test_agreement_and_distance():
    x = Word.from_digits("00110", 2)
    y = Word.from_digits("00101", 2)
    assert agreement_length(x, y) == 3
    assert distance(x, y) == 2.0 ** -3
    assert distance(x, x) == 0.0


@settings(max_examples=200)
@given(st.integers(2, 5), st.data())
def test_distance_ultrametric(m, data):
    length = data.draw(st.integers(1, 24))
    sym = st.integers(0, m - 1)
    def word():
        return Word.from_iterable(
            data.draw(st.lists(sym, min_size=length, max_size=length)), m)
    x, y, z = word(), word(), word()
    dxz = distance(x, z)
    assert dxz <= max(distance(x, y), distance(y, z)) + 1e-15
    assert distance(x, y) == distance(y, x)


def test_periodic_and_explicit_bases():
    per = PeriodicBase(Word.from_digits("01", 2))
    assert [per.symbol_at(j) for j in range(1, 6)] == [0, 1, 0, 1, 0]
    assert per.length is None
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
    base = PeriodicBase(Word.from_digits("011", 2))
    seq = LazySequence(base, ((4, Word.from_digits("101", 2)),))
    data = json.loads(json.dumps(seq.to_json_dict()))
    back = LazySequence.from_json_dict(data)
    assert list(back.prefix(20)) == list(seq.prefix(20))


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
