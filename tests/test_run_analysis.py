"""Word analysis that pays per run of equal R_n or once per word, against
per-depth references.

- Witnesses under the default profile are decided per run of equal R_n:
  one bisection for the suffix that passes, one slice comparison for the
  re-check.  The reference is the loop over depths with math.log and
  math.exp, so agreement is ==, including the errors raised.
- A word's ratio column takes math.log where it reads it, and keeps no
  logarithm once dropped.
- A Word keeps one return-time record per kind, plain and primed, so
  single depths and batches of one Word run at most one walk per kind.
"""
import importlib
import math
import random
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import recurrencelab.rate_dim_analysis as rda
from recurrencelab import (Word, rate_trajectory, recurrence_witnesses,
                           return_time, return_time_prime, return_times_all)
from recurrencelab.return_time import ReturnTimes, Runs

from conftest import (brute_return_time, random_word, return_time_naive,
                      return_times_naive_all)

# the package re-exports the function return_time under the module's name
return_time_module = importlib.import_module("recurrencelab.return_time")


def _fibonacci(length, a=0, b=1):
    prev, cur = "0", "01"
    while len(cur) < length:
        prev, cur = cur, cur + prev
    return [a if ch == "0" else b for ch in cur[:length]]


def _periodic_with_flips(rng, length, m, period, gap):
    base = [rng.randrange(m) for _ in range(period)]
    base[0] = (base[-1] + 1) % m
    syms = [base[i % period] for i in range(length)]
    for i in range(period + 3, length, gap):
        syms[i] = (syms[i] + 1) % m
    return syms


def _long_run_word(kind, length, seed):
    """Words whose exact heads are a few long runs of equal R_n."""
    rng = random.Random(seed)
    m = rng.choice((2, 3, 5))
    if kind == "fibonacci":
        a, b = rng.sample(range(m), 2)
        return Word.from_iterable(_fibonacci(length, a, b), m)
    if kind == "periodic":
        return Word.from_iterable(
            _periodic_with_flips(rng, length, m, rng.choice((2, 3, 7)),
                                 rng.choice((41, 1000))), m)
    return Word.from_iterable(bytes(length), m)


def _longest_run(values):
    """(lo, end) of the longest run of equal values: depths lo + 1 .. end."""
    best, lo = (0, 0), 0
    while lo < len(values):
        end = lo
        while end < len(values) and values[end] == values[lo]:
            end += 1
        if end - lo > best[1] - best[0]:
            best = (lo, end)
        lo = end
    return best


def _exp_or_inf(x):
    """e^x, inf past float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def loop_witnesses(word, alpha, eps, *, max_n=None):
    """The per-depth loop: one log, one exp and one re-check per depth;
    the cutoff at n = 1 is e^0 = 1 at every rate, and one past float
    range is inf."""
    syms = word.symbols
    out = []
    for n, j in enumerate(rda.return_times_all(word, max_n=max_n).values, 1):
        if j > (_exp_or_inf((alpha + eps) * math.log(n)) if n > 1 else 1.0):
            continue
        if syms[j:j + n] != syms[:n]:
            raise RuntimeError(
                f"return-time engine and definition disagree at n={n}")
        out.append((n, j))
    return out


def _outcome(call, *args, **kw):
    try:
        return "ok", call(*args, **kw)
    except (RuntimeError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _overflow_rate(word, max_n):
    """A rate whose cutoff first overflows in the middle of the longest
    run, or None when that run is too short to have a middle."""
    lo, end = _longest_run(return_times_all(word, max_n=max_n).values)
    mid = (lo + 1 + end) // 2
    if end - lo < 3 or mid < 2:
        return None
    return 710.0 / math.log(mid)


RATES = [(0.5, 0.1), (1.0, 0.0), (1e-12, 0.0), (0.0, 0.0), (-0.5, 0.0),
         (math.inf, 0.0), (0.5, -math.inf), (math.nan, 0.0), "overflow"]


@settings(max_examples=60, deadline=None)
@example(kind="fibonacci", length=50_000, seed=1, rate=(0.5, 0.1),
         depth=None)
@example(kind="fibonacci", length=50_000, seed=2, rate=(1.0, 0.0),
         depth=0.4)
@example(kind="periodic", length=50_000, seed=3, rate=(0.5, 0.1),
         depth=None)
@example(kind="zero", length=50_000, seed=4, rate="overflow",
         depth=None)
@given(kind=st.sampled_from(["fibonacci", "periodic", "zero"]),
       length=st.integers(1, 50_000), seed=st.integers(0, 2 ** 16),
       rate=st.sampled_from(RATES),
       depth=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_run_witnesses_equal_the_depth_loop(kind, length, seed, rate,
                                            depth):
    word = _long_run_word(kind, length, seed)
    max_n = None if depth is None else max(1, int(depth * length))
    if rate == "overflow":
        c = _overflow_rate(word, max_n)
        rate = (1.0, 0.0) if c is None else (c, 0.0)
    got = _outcome(recurrence_witnesses, word, *rate, max_n=max_n)
    assert got == _outcome(loop_witnesses, word, *rate, max_n=max_n)


def test_an_overflow_inside_a_run_is_raised_like_the_loop():
    # a cutoff past float range exceeds every return time: it reads as
    # inf, and every depth of the run passes, where exp raised before
    word = Word.from_iterable(bytes(5000), 2)
    c = _overflow_rate(word, None)
    assert math.exp(c * math.log(2400)) < math.inf
    with pytest.raises(OverflowError):
        math.exp(c * math.log(4999))
    want = [(n, 1) for n in range(1, 5000)]
    assert recurrence_witnesses(word, c, 0.0) == want
    assert loop_witnesses(word, c, 0.0) == want


def test_a_run_costs_a_bisection_not_a_cutoff_per_depth():
    # the benchmark's rate, and one where most depths pass, on a
    # 50 000-symbol Fibonacci word: a few dozen runs over some 30 000
    # exact depths, each run decided by a bisection of exp calls
    word = Word.from_iterable(_fibonacci(50_000), 2)
    values = return_times_all(word).values
    runs = len(set(values))
    assert len(values) > 500 * runs
    real_exp = math.exp
    for c in (0.6, 1.0):
        exps = []

        def counting_exp(x):
            exps.append(x)
            return real_exp(x)

        with mock.patch.object(math, "exp", counting_exp):
            got = recurrence_witnesses(word, c, 0.0)
        assert len(exps) <= runs * (math.log2(len(values)) + 1) + 1
        assert got == loop_witnesses(word, c, 0.0)


def _wrong_engine(change):
    real = rda.return_times_all

    def wrong(word, max_n=None):
        rt = real(word, max_n=max_n)
        values = list(rt.values)
        change(values)
        return ReturnTimes(tuple(values), rt.length, rt.top)
    return wrong


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["fibonacci", "periodic", "zero"]),
       length=st.integers(200, 20_000), seed=st.integers(0, 2 ** 16),
       where=st.floats(0.0, 1.0), shape=st.sampled_from(["one", "tail"]),
       rate=st.sampled_from([(1.0, 0.0), (0.5, 0.1), (2.0, 0.0)]))
def test_a_wrong_value_inside_a_long_run_raises_at_the_loops_depth(
        kind, length, seed, where, shape, rate):
    word = _long_run_word(kind, length, seed)
    lo, end = _longest_run(return_times_all(word).values)
    assume(end > lo)
    k = lo + min(int(where * (end - lo)), end - lo - 1)

    def change(values):
        # one value off (the column is no longer nondecreasing), or the
        # rest of the run moved one shift on (it still is)
        for i in range(k, k + 1 if shape == "one" else end):
            values[i] += 1

    with mock.patch.object(rda, "return_times_all", _wrong_engine(change)):
        want = _outcome(loop_witnesses, word, *rate)
        assert _outcome(recurrence_witnesses, word, *rate) == want


def test_a_wrong_value_deep_in_a_run_is_named():
    # the longest run of a Fibonacci word, one value in its middle off
    word = Word.from_iterable(_fibonacci(20_000), 2)
    lo, end = _longest_run(return_times_all(word).values)
    assert end - lo > 1000
    k = (lo + end) // 2

    def change(values):
        values[k] += 1

    with mock.patch.object(rda, "return_times_all", _wrong_engine(change)):
        for call in (recurrence_witnesses, loop_witnesses):
            with pytest.raises(RuntimeError, match=f"n={k + 1}$"):
                call(word, 2.0, 0.0)


# -------------------------------------------------------------- log table ---

def _loop_ratios(word):
    """log(R_n)/log(n) by math.log at every depth, as the trajectory's
    column; bounds past the exact head, values below 1 dropped."""
    rt = return_times_all(word)
    out = array("d")
    for n in range(2, rt.top + 1):
        value = rt.values[n - 1] if n <= rt.exact_depth else rt.bound(n)
        if value >= 1:
            out.append(math.log(value) / math.log(n))
    return out


def test_a_word_column_equals_the_depth_loop_bit_for_bit():
    # longer than the hypothesis test reaches: a Fibonacci word and a
    # random one, every ratio against math.log at its own depth
    rng = random.Random(7)
    for word in (Word.from_iterable(_fibonacci(3000), 2),
                 random_word(rng, 3, 40_000)):
        assert rate_trajectory(word).entries.ratios.tobytes() == \
            _loop_ratios(word).tobytes()


def test_reading_a_whole_column_leaves_nothing_behind():
    # longer than any other test's word; the column reads every logarithm
    # when it runs and keeps none once the trajectory is dropped
    n = 300_000
    word = random_word(random.Random(12), 2, n)
    return_times_all(word)
    tracemalloc.start()
    try:
        traj = rate_trajectory(word)
        rda.running_extremes(traj, 1.0)
        assert len(traj.entries.ratios.tobytes()) == 8 * (n - 2)
        del traj
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current / n < 1, f"{current / n:.2f} bytes per symbol kept"


# ------------------------------------------------- the return-time record ---

def _counting_walks(monkeypatch):
    """Record the arguments after the text, (width, prime), of every call
    of return_time._walk."""
    calls = []
    real = return_time_module._walk

    def counting(text, *args):
        calls.append(args)
        return real(text, *args)

    monkeypatch.setattr(return_time_module, "_walk", counting)
    return calls


@pytest.mark.parametrize("m", [2, 300])
@pytest.mark.parametrize("query", [return_time, return_time_prime])
def test_single_depths_read_one_walk_to_the_end(monkeypatch, query, m):
    word = Word.from_iterable(random_word(random.Random(3), 2, 600), m)
    prime = query is return_time_prime
    walks = _counting_walks(monkeypatch)
    results = [query(word, n) for n in range(600, 0, -1)]
    assert walks == [(1 if m == 2 else 8, prime)]
    assert word._walks[prime] is not None and word._walks[not prime] is None
    assert sum(r.exact for r in results) == len(word._walks[prime])
    for r in results:
        assert (r.value, r.exact) == brute_return_time(word.symbols, r.n,
                                                       prime)
    # every later query of this kind, single depth or batch, reads the record
    assert return_times_all(word, max_n=77, prime=prime)[:] == \
        results[:-78:-1]
    with pytest.raises(ValueError):
        query(word, 601)
    assert len(walks) == 1


@settings(max_examples=80, deadline=None)
@given(syms=st.lists(st.integers(0, 2), min_size=1, max_size=80),
       order=st.data())
def test_queries_in_any_order_equal_the_brute_scan(syms, order):
    word = Word.from_iterable(syms, 3)
    L = len(syms)
    queries = order.draw(st.lists(
        st.tuples(st.integers(1, L), st.booleans(), st.booleans()),
        max_size=3 * L))
    for n, prime, batch in queries:
        if batch:
            rt = return_times_all(word, max_n=n, prime=prime)
            assert (rt.top, rt.prime) == (n, prime)
            assert [(r.value, r.exact) for r in rt] == \
                [brute_return_time(syms, k, prime) for k in range(1, n + 1)]
            continue
        res = (return_time_prime if prime else return_time)(word, n)
        assert (res.n, res.prime) == (n, prime)
        assert (res.value, res.exact) == brute_return_time(syms, n, prime)


def test_the_naive_scan_neither_reads_nor_writes_the_record():
    word = Word.from_digits("0100101001001", 2)
    # a false record: no exact depth, plain and primed
    word._walks[:] = [Runs(), Runs()]
    for n in range(1, len(word) + 1):
        for prime in (False, True):
            res = return_time_naive(word, n, prime)
            assert (res.value, res.exact) == \
                brute_return_time(word.symbols, n, prime)
    assert return_time(word, 2).exact is False      # the record is read
    assert return_times_naive_all(word)[1].exact is True
    fresh = Word.from_digits("0100101001001", 2)
    for n in range(1, len(fresh) + 1):
        return_time_naive(fresh, n)
        return_time_naive(fresh, n, True)
    return_times_naive_all(fresh)
    assert fresh._walks == [None, None]


def test_the_record_leaves_equality_hash_and_repr_alone():
    a = Word.from_digits("0110100110", 2)
    b = Word.from_digits("0110100110", 2)
    return_time(a, 9)
    return_time_prime(a, 6)
    assert a._walks != b._walks
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.symbols, a.alphabet))
    assert repr(a) == repr(b) == \
        "Word(symbols=b'\\x00\\x01\\x01\\x00\\x01\\x00\\x00\\x01\\x01\\x00', " \
        "alphabet=Alphabet(m=2))"
    assert a != Word.from_digits("0110100111", 2)
    assert {a: 1}[b] == 1
