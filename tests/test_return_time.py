import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurrencelab import (Word, return_time, return_time_naive,
                           return_time_prime, return_times_all,
                           return_times_naive_all)
from recurrencelab.return_time import z_array

from conftest import brute_return_time, random_word


def test_z_array_known():
    assert z_array("aabxaab") == [7, 1, 0, 0, 3, 1, 0]
    assert z_array("aaaa") == [4, 3, 2, 1]
    assert z_array("") == []


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


@pytest.mark.parametrize("kind", ["fibonacci", "period7", "all-zero"])
def test_columnar_matches_naive_on_low_entropy_words(kind):
    # long self-overlaps push N* = max z[i] deep into the word, so most
    # depths come from the exact prefix rather than the lower bound
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


def test_large_alphabet_uses_tuple_scan():
    # symbols up to 299 do not fit in a byte: no bytes view, tuple scans
    rng = random.Random(300)
    block = [rng.randrange(300) for _ in range(40)]
    syms = block * 3 + [299, 256] + block[:17]
    w = Word.from_iterable(syms, 300)
    assert w.data is None
    fast = return_times_all(w)
    slow = return_times_naive_all(w)
    assert _rows(fast) == _rows(slow)
    assert fast[0].value == 40 and fast[39].value == 40
    for n in range(1, len(syms) + 1):
        for prime in (False, True):
            want = brute_return_time(syms, n, prime)
            got = (return_time_prime if prime else return_time_naive)(w, n)
            assert (got.value, got.exact) == want, (n, prime)
    primed = return_times_all(w, prime=True)
    assert [(r.value, r.exact) for r in primed] == \
        [brute_return_time(syms, n, True) for n in range(1, len(syms) + 1)]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.integers(1, 200), st.integers(0, 10 ** 6))
def test_batched_prime_matches_brute(m, length, seed):
    rng = random.Random(seed)
    # half the words are low-entropy, where primed returns exist deep down
    if seed % 2:
        w = random_word(rng, m, length)
    else:
        w = Word.from_iterable(_period7_with_flips(rng, length, m), m)
    syms = list(w.symbols)
    rt = return_times_all(w, prime=True)
    assert len(rt) == length
    for n, res in enumerate(rt, start=1):
        assert res.prime and res.n == n
        assert (res.value, res.exact) == brute_return_time(syms, n, True), (
            syms, n)
