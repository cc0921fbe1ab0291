import importlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurrencelab import (ReturnTimeResult, Word, return_time,
                           return_time_prime, return_times_all)
from recurrencelab.return_time import Runs, _byte_view

from conftest import (brute_return_time, random_word, return_time_naive,
                      return_times_naive_all)

# the package re-exports the function return_time under the module's name
return_time_module = importlib.import_module("recurrencelab.return_time")


def test_return_time_periodic_word():
    # 010101...: the prefix of length n recurs after 2 shifts
    w = Word.from_digits("01" * 12, 2)
    for n in range(1, 10):
        res = return_time_naive(w, n)
        assert res.value == 2 and res.exact
    # prime variant must wait until the window clears the prefix
    res = return_time_prime(w, 4)
    assert res.value >= 4


def test_return_time_no_recurrence_bound():
    w = Word.from_digits("0111111", 2)
    res = return_time_naive(w, 2)
    # "01" never recurs in the remainder: value is a lower bound
    assert not res.exact
    assert res.value == len(w) - 2


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(1, 60), st.integers(0, 10 ** 6))
def test_naive_matches_brute(m, length, seed):
    rng = random.Random(seed)
    w = random_word(rng, m, length)
    syms = list(w.symbols)
    for n in range(1, min(length, 12) + 1):
        for prime in (False, True):
            want_v, want_e = brute_return_time(syms, n, prime)
            res = (return_time_prime if prime else return_time_naive)(w, n)
            assert (res.value, res.exact) == (want_v, want_e), (
                w.to_digits(), n, prime)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.integers(2, 80), st.integers(0, 10 ** 6))
def test_fast_all_matches_naive_all(m, length, seed):
    rng = random.Random(seed)
    w = random_word(rng, m, length)
    fast = return_times_all(w)
    slow = return_times_naive_all(w)
    assert [(r.n, r.value, r.exact) for r in fast] == \
           [(r.n, r.value, r.exact) for r in slow]


def test_return_time_dispatcher():
    rng = random.Random(7)
    w = random_word(rng, 3, 40)
    for n in (1, 5, 17):
        assert return_time(w, n).value == return_time_naive(w, n).value


def _counting_walks(monkeypatch):
    """Record (width, prime) of every return_time._walk call."""
    walks = []
    real = return_time_module._walk

    def counting(text, width, prime=False):
        walks.append((width, prime))
        return real(text, width, prime)

    monkeypatch.setattr(return_time_module, "_walk", counting)
    return walks


def test_single_depth_runs_no_walk(monkeypatch):
    # after the two batches, a single depth R_n or R'_n reads the Word's
    # record of its kind with no further walk; it matches the batch, exact
    # values and lower bounds alike, as does the naive scan
    w = Word.from_iterable(_fibonacci(300) + [1] * 40, 2)
    batch = return_times_all(w)
    primed = return_times_all(w, prime=True)
    walks = _counting_walks(monkeypatch)
    for n in range(1, len(w) + 1):
        assert return_time(w, n) == batch[n - 1], n
        assert return_time_prime(w, n) == primed[n - 1], n
        assert return_time_naive(w, n) == batch[n - 1], n
    assert walks == []
    assert not batch[-1].exact
    with pytest.raises(ValueError):
        return_time(w, len(w) + 1)


def test_bounds_agree_between_batch_and_lookup():
    for prime in (False, True):
        w = Word.from_digits("0" + "1" * 30, 2)
        rt = return_times_all(w, prime=prime)
        for n in range(1, len(w) + 1):
            single = return_time_naive(w, n, prime=prime)
            assert (rt[n - 1].value, rt[n - 1].exact) == \
                (single.value, single.exact), (n, prime)


@pytest.mark.parametrize("query", [return_time, return_time_prime,
                                   return_times_all])
def test_return_times_take_a_word_only(query):
    # a list, tuple, bytes or str of symbols is refused, whatever its
    # symbols: Word.from_iterable(symbols, m) makes the Word
    for raw in ([0, 1, 1, 0], (0, 1, 1, 0), b"\x00\x01\x01\x00", "0110",
                None):
        with pytest.raises(TypeError, match="Word.from_iterable"):
            query(raw, 2)
    assert query(Word.from_iterable([0, 1, 1, 0], 2), 2)


def test_exact_values_nondecreasing_in_n():
    rng = random.Random(99)
    for _ in range(20):
        w = random_word(rng, 2, 64)
        vals = [r.value for r in return_times_all(w) if r.exact]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_prime_at_least_plain():
    rng = random.Random(5)
    for _ in range(20):
        w = random_word(rng, 2, 48)
        for n in range(1, 13):
            a = return_time_naive(w, n)
            b = return_time_prime(w, n)
            if a.exact and b.exact:
                assert b.value >= a.value


def test_bad_n_rejected():
    w = Word.from_digits("0101", 2)
    with pytest.raises(ValueError):
        return_time_naive(w, 0)
    with pytest.raises(ValueError):
        return_time_naive(w, 5)


# ----------------------------------------------- columnar ReturnTimes ---

def _rows(results):
    return [(r.n, r.value, r.exact, r.prime) for r in results]


def _fibonacci(length):
    prev, cur = "0", "01"
    while len(cur) < length:
        prev, cur = cur, cur + prev
    return [int(ch) for ch in cur[:length]]


def _period7_with_flips(rng, length, m):
    period = [rng.randrange(m) for _ in range(7)]
    period[0] = (period[1] + 1) % m
    syms = [period[i % 7] for i in range(length)]
    for i in range(0, length, 97):
        syms[i] = (syms[i] + 1) % m
    return syms


def _single_depth_words():
    rng = random.Random(34)
    yield "random", [rng.randrange(3) for _ in range(400)], 3
    yield "period7-flips", _period7_with_flips(rng, 600, 3), 3
    yield "fibonacci", _fibonacci(500), 2


@pytest.mark.parametrize("batch_first", [False, True],
                         ids=["before-batch", "after-batch"])
@pytest.mark.parametrize("name,syms,m", list(_single_depth_words()),
                         ids=[w[0] for w in _single_depth_words()])
def test_single_depth_reads_equal_the_record_and_the_oracle(name, syms, m,
                                                            batch_first):
    # every depth of both kinds, read from a Word's record whether the
    # first query of its kind was a batch or a single depth
    w = Word.from_iterable(syms, m)
    depths = range(1, len(w) + 1)
    if batch_first:
        for prime in (False, True):
            return_times_all(w, prime=prime)
    for prime, single in ((False, return_time), (True, return_time_prime)):
        got = [single(w, n) for n in depths]
        assert got == list(return_times_all(w, prime=prime)), prime
        assert got == [return_time_naive(w, n, prime) for n in depths]
        assert any(r.exact for r in got) and not got[-1].exact


def test_a_word_with_an_empty_record_walks_once_per_kind(monkeypatch):
    # "01" has no return at any depth: both records are empty, and an
    # empty record is read as it is, not walked again
    walks = _counting_walks(monkeypatch)
    w = Word.from_digits("01", 2)
    for _ in range(3):
        assert [return_time(w, n) for n in (1, 2)] == [
            ReturnTimeResult(1, 1, False), ReturnTimeResult(2, 0, False)]
        assert [return_time_prime(w, n) for n in (1, 2)] == [
            ReturnTimeResult(1, 1, False, True),
            ReturnTimeResult(2, 1, False, True)]
    assert walks == [(1, False), (1, True)]
    assert w._walks == [Runs(), Runs()]


@pytest.mark.parametrize("single", [return_time, return_time_prime])
def test_depths_outside_the_word_raise(single):
    syms = [0, 1, 1, 0, 1, 1]
    word = Word.from_iterable(syms, 2)
    for w in (word, word):   # before its walk and after
        for n in (0, len(syms) + 1):
            with pytest.raises(ValueError, match="need 1 <= n <= 6"):
                single(w, n)
        single(w, 3)


def test_return_time_result_contract():
    r = ReturnTimeResult(3, 5, False, True)
    with pytest.raises(AttributeError):
        r.value = 6
    with pytest.raises(AttributeError):
        r.extra = 1
    assert str(r) == "R'_3 > 5"
    assert str(ReturnTimeResult(4, 2, True)) == "R_4 = 2"
    assert repr(r) == ("ReturnTimeResult(n=3, value=5, exact=False, "
                       "prime=True)")
    same = ReturnTimeResult(3, 5, False, True)
    assert r == same and hash(r) == hash(same) and r is not same
    assert r != ReturnTimeResult(3, 5, False)
    assert ReturnTimeResult(3, 5, False).prime is False
    assert (r.n, r.value, r.exact, r.prime) == (3, 5, False, True)


@pytest.mark.parametrize("kind", ["fibonacci", "period7", "all-zero"])
def test_columnar_matches_naive_on_low_entropy_words(kind):
    # long self-overlaps push N*, where the run-length walk ends at a
    # miss, deep into the word, so most depths come from the exact head
    # rather than the lower bound
    rng = random.Random(31)
    for length in (1, 2, 13, 200, 1500):
        if kind == "fibonacci":
            syms, m = _fibonacci(length), 2
        elif kind == "period7":
            syms, m = _period7_with_flips(rng, length, 3), 3
        else:
            syms, m = [0] * length, 2
        w = Word.from_iterable(syms, m)
        fast = return_times_all(w)
        assert len(fast) == length
        assert _rows(fast) == _rows(return_times_naive_all(w))
        if kind != "period7" and length >= 13:
            assert fast.exact_depth >= length // 3


def test_columnar_depth_limits():
    w = Word.from_iterable(_fibonacci(300), 2)
    full = return_times_all(w)
    assert full.exact_depth > 20
    short = return_times_all(w, max_n=20)     # max_n < N*
    assert len(short) == 20 and short.exact_depth == 20
    assert _rows(short) == _rows(full)[:20]
    assert len(full) == 300 and full.top == full.length == 300   # max_n == L
    assert _rows(return_times_all(w, max_n=300)) == _rows(full)
    empty = return_times_all(Word.from_iterable([], 2))           # L == 0
    assert len(empty) == 0 and list(empty) == [] and empty.values == ()
    with pytest.raises(ValueError):
        return_times_all(w, max_n=0)
    with pytest.raises(ValueError):
        return_times_all(w, max_n=301)


def test_columnar_indexing():
    w = Word.from_digits("0100101001001", 2)
    rt = return_times_all(w, max_n=10)
    rows = _rows(rt)
    assert rt.exact_depth == 6
    assert [r.n for r in rt] == list(range(1, 11))
    for k in range(-10, 10):
        assert _rows([rt[k]]) == [rows[k]]
    assert _rows(rt[2:8:3]) == rows[2:8:3]
    assert rt[-1] == rt[9] and not rt[-1].exact and rt[-1].value == 13 - 10
    for k in (10, 11, -11):
        with pytest.raises(IndexError):
            rt[k]


# 2^70 symbols: most symbols are 2^64 or more, which array("Q") refuses,
# so the walk reads first-occurrence ranks
LARGE_ALPHABETS = [300, 70_000, 2 ** 70]


def test_large_alphabet_uses_tuple_scan():
    # symbols up to m - 1 do not fit in a byte: a tuple store, walked as
    # 8-byte symbols and scanned as a tuple
    for m in LARGE_ALPHABETS:
        rng = random.Random(300)
        block = [rng.randrange(m) for _ in range(40)]
        syms = block * 3 + [m - 1, 256] + block[:17]
        w = Word.from_iterable(syms, m)
        assert not isinstance(w.symbols, bytes)
        view, width = _byte_view(w.symbols)
        ranked = m > 2 ** 64
        assert width == 8 and (view[:8] == bytes(8)) == ranked, m
        fast = return_times_all(w)
        assert _rows(fast) == _rows(return_times_naive_all(w)), m
        assert fast[0].value == 40 and fast[39].value == 40
        for n in range(1, len(syms) + 1):
            for prime in (False, True):
                want = brute_return_time(syms, n, prime)
                got = (return_time_prime if prime else return_time_naive)(w, n)
                assert (got.value, got.exact) == want, (m, n, prime)
        primed = return_times_all(w, prime=True)
        assert [(r.value, r.exact) for r in primed] == \
            [brute_return_time(syms, n, True)
             for n in range(1, len(syms) + 1)], m


def test_an_unaligned_byte_hit_is_searched_past():
    # the 8 bytes of symbol 1 first reappear at byte 9, straddling symbols
    # 2 and 3; symbol 1 itself returns as symbol 4, so R_1 = 3
    a = b"\x00\x01" + bytes(6)
    x = b"\x05" + a[:7]
    y = a[:1] + b"\x02" + bytes(6)
    syms = [int.from_bytes(s, sys.byteorder) for s in (a, x, y, a, x, y, a)]
    view, width = _byte_view(tuple(syms))
    assert width == 8 and view.find(view[:8], 8) == 9
    w = Word.from_iterable(syms, 70_000)
    for prime in (False, True):
        rt = return_times_all(w, prime=prime)
        assert [(r.value, r.exact) for r in rt] == \
            [brute_return_time(syms, n, prime)
             for n in range(1, len(syms) + 1)], prime


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 4, 5] + LARGE_ALPHABETS), st.integers(1, 200),
       st.integers(0, 10 ** 6))
def test_batched_prime_matches_brute(m, length, seed):
    rng = random.Random(seed)
    # half the words are low-entropy, where primed returns exist deep down
    if seed % 2:
        syms = [rng.randrange(m) for _ in range(length)]
    else:
        syms = _period7_with_flips(rng, length, m)
    rt = return_times_all(Word.from_iterable(syms, m), prime=True)
    assert len(rt) == length
    for n, res in enumerate(rt, start=1):
        assert res.prime and res.n == n
        assert (res.value, res.exact) == brute_return_time(syms, n, True), (
            syms, n)


# ------------------------------------------------- find-driven plain walk ---

def _staircase(length):
    # 0 1 0 0 1 0 0 0 1 ...: every new run of zeros pushes R_n up a step
    out, k = [], 1
    while len(out) < length:
        out += [0] * k + [1]
        k += 1
    return out[:length]


def _walk_words():
    rng = random.Random(77)
    yield "staircase", _staircase(2000), 2
    yield "constant", [0] * 700, 2
    yield "fibonacci", _fibonacci(2500), 2
    yield "periodic-noise", _period7_with_flips(rng, 1800, 3), 3
    for m in (2, 3, 4, 5):
        yield f"random-m{m}", [rng.randrange(m) for _ in range(1500)], m
    # a long early repeat and a return that ends exactly at the last symbol
    block = [rng.randrange(2) for _ in range(60)]
    yield "tail-return", block + [1 - block[0]] + block, 2


@pytest.mark.parametrize("name,syms,m", list(_walk_words()),
                         ids=[w[0] for w in _walk_words()])
def test_plain_bytes_walk_matches_naive(name, syms, m):
    w = Word.from_iterable(syms, m)
    assert isinstance(w.symbols, bytes)
    L = len(w)
    for top in (1, 2, 17, L // 3, L - 1, L):
        fast = return_times_all(w, max_n=top)
        assert _rows(fast) == _rows(return_times_naive_all(w, max_n=top)), top
    full = return_times_all(w)
    assert list(full.values) == sorted(full.values)   # nondecreasing


def test_every_batch_is_one_walk(monkeypatch):
    # one walk per Word and kind, to the end, whatever the batch's max_n
    walks = _counting_walks(monkeypatch)
    fib = _fibonacci(400)
    word = Word.from_iterable(fib, 2)
    return_times_all(word, max_n=50)
    return_times_all(word)
    return_times_all(Word.from_iterable(fib, 2), prime=True)
    return_times_all(Word.from_iterable(fib, 300))   # a tuple store
    return_times_all(Word.from_iterable(fib, 300), prime=True)
    ranked = [2 ** 70 - 1 - s for s in fib]           # read as ranks
    return_times_all(Word.from_iterable(ranked, 2 ** 70), prime=True)
    assert walks == [(1, False), (1, True), (8, False), (8, True), (8, True)]
