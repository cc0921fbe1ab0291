"""The return-time record as runs of equal R_n.

A Word's record of each kind holds one entry per distinct R_n, the value
and the last depth that has it; ReturnTimes and the single-depth reads
answer every depth from it by a bisect of the run ends.  Each depth is
checked against bytes.find, and the readers of the word pipeline are
checked never to expand the runs to depths.
"""
import importlib
import random

import pytest

from recurrencelab import (ReturnTimes, Word, apply_insertions,
                           bracket_return_times, plan_full_dimension,
                           parse_phi, rate_trajectory, recurrence_witnesses,
                           return_time, return_time_prime, return_times_all,
                           running_extremes, truncate_plan)
from recurrencelab.cli import _mismatched_stretches
from recurrencelab.return_time import Runs

# the package re-exports the function return_time under the module's name
return_time_module = importlib.import_module("recurrencelab.return_time")


def _fibonacci(length):
    prev, cur = "0", "01"
    while len(cur) < length:
        prev, cur = cur, cur + prev
    return [int(ch) for ch in cur[:length]]


def _periodic_with_flips(length):
    syms = [(0, 0, 1, 0, 1, 1, 0)[i % 7] for i in range(length)]
    for i in range(350, length, 373):
        syms[i] = 1 - syms[i]
    return syms


def _words():
    rng = random.Random(41)
    yield "fibonacci", _fibonacci(3000), 2
    yield "fibonacci-tuple", _fibonacci(3000), 300
    yield "periodic-flips", _periodic_with_flips(3000), 2
    yield "random", [rng.randrange(3) for _ in range(3000)], 3
    yield "empty", [], 2


WORDS = list(_words())
IDS = [name for name, _, _ in WORDS]


def _oracle(data: bytes, n: int, prime: bool) -> tuple[int, bool]:
    """(value, exact) of R_n, or R'_n, by one bytes.find."""
    L = len(data)
    j = data.find(data[:n], n if prime else 1)
    if j == -1:
        return (max(L - n, n - 1) if prime else L - n), False
    return j, True


def _counting_walks(monkeypatch):
    calls = []
    real = return_time_module._walk

    def counting(text, width, prime=False):
        calls.append((width, prime))
        return real(text, width, prime)

    monkeypatch.setattr(return_time_module, "_walk", counting)
    return calls


@pytest.mark.parametrize("prime", [False, True])
@pytest.mark.parametrize("name,syms,m", WORDS, ids=IDS)
def test_the_record_holds_one_run_per_distinct_value(name, syms, m, prime):
    w = Word.from_iterable(syms, m)
    rt = return_times_all(w, prime=prime)
    runs = rt.values
    assert isinstance(runs, Runs)
    # a batch to the full length is the record itself; an empty word has
    # none to walk
    assert w._walks[prime] is (runs if syms else None)
    data = bytes(syms)
    exact = tuple(value for value, is_exact in
                  (_oracle(data, n, prime) for n in range(1, len(syms) + 1))
                  if is_exact)
    # R_n is nondecreasing, so its distinct values are its runs
    assert runs.returns == tuple(sorted(set(exact)))
    assert len(runs.ends) == len(runs.returns)
    assert runs == exact and len(runs) == rt.exact_depth == len(exact)


@pytest.mark.parametrize("prime", [False, True])
@pytest.mark.parametrize("name,syms,m", WORDS, ids=IDS)
def test_every_depth_and_single_read_is_the_find_oracle(name, syms, m, prime):
    w = Word.from_iterable(syms, m)
    single = return_time_prime if prime else return_time
    data = bytes(syms)
    L = len(syms)
    want = [(n, *_oracle(data, n, prime), prime) for n in range(1, L + 1)]
    # single depths first, so that they walk, then the batch reads it
    assert [tuple(single(w, n)) for n in range(L, 0, -1)] == want[::-1]
    rt = return_times_all(w, prime=prime)
    assert [tuple(r) for r in rt] == want
    assert [tuple(rt[n - 1]) for n in range(1, L + 1)] == want
    assert [tuple(rt.result(n)) for n in range(1, L + 1)] == want
    assert [tuple(r) for r in rt[::-3]] == want[::-3]
    # batches cut inside runs and at their ends
    for top in sorted({1, 2, 7, L // 3, rt.exact_depth,
                       rt.exact_depth + 1, L} & set(range(1, L + 1))):
        cut = return_times_all(w, max_n=top, prime=prime)
        assert [tuple(r) for r in cut] == want[:top], top
        assert cut.values == tuple(v for _, v, e, _ in want[:top] if e)


@pytest.mark.parametrize("prime", [False, True])
@pytest.mark.parametrize("name,syms,m", WORDS, ids=IDS)
def test_runs_equal_and_hash_like_the_per_depth_tuple(name, syms, m, prime):
    w = Word.from_iterable(syms, m)
    rt = return_times_all(w, prime=prime)
    L = len(syms)
    per_depth = tuple(rt.values)
    from_tuple = ReturnTimes(per_depth, L, L, prime)
    assert isinstance(from_tuple.values, Runs)
    assert from_tuple.values == rt.values
    assert from_tuple == rt and hash(from_tuple) == hash(rt)
    # the hash of the dataclass over the tuple that values used to be
    assert hash(rt) == hash((per_depth, L, L, prime))
    assert rt.values == per_depth and per_depth == rt.values
    assert hash(rt.values) == hash(per_depth)
    assert rt.values != list(per_depth)
    if per_depth:
        assert rt.values != per_depth[:-1]
        assert ReturnTimes(per_depth[:-1], L, L, prime) != rt


def test_runs_read_as_their_tuple():
    rng = random.Random(3)
    for _ in range(200):
        tup = ()
        for _ in range(rng.randrange(6)):
            tup += (rng.randrange(1, 5),) * rng.randint(1, 6)
        runs = Runs.from_depths(tup)
        assert all(a != b for a, b in zip(runs.returns, runs.returns[1:]))
        assert len(runs) == len(tup) and tuple(runs) == tup
        assert [runs[k] for k in range(-len(tup), len(tup))] == \
            [tup[k] for k in range(-len(tup), len(tup))]
        for k in (len(tup), -len(tup) - 1):
            with pytest.raises(IndexError):
                runs[k]
        for s in (slice(None), slice(2, None), slice(None, -3),
                  slice(1, 9, 2), slice(None, None, -1)):
            assert runs[s] == tup[s]
        assert [runs.count(v) for v in range(6)] == \
            [tup.count(v) for v in range(6)]
        assert [v in runs for v in range(6)] == [v in tup for v in range(6)]
        assert list(reversed(runs)) == list(reversed(tup))
        lo, hi = sorted(rng.randint(0, len(tup) + 2) for _ in range(2))
        assert [v for j, a, b in runs.spans(lo, hi) for v in [j] * (b - a + 1)] \
            == list(tup[max(lo, 1) - 1:hi])
        depth = rng.randint(0, len(tup) + 1)
        assert runs.cut(depth) == tup[:depth]
    with pytest.raises(TypeError):
        Runs.from_depths((1, 1, 2))[1.0]


def test_the_word_pipeline_never_expands_the_runs(monkeypatch):
    # the benchmark's low-entropy word: 101 506 exact depths in 23 runs
    syms = _fibonacci(176_531)
    expansions = []
    real_iter = Runs.__iter__

    def counting(self):
        expansions.append(len(self))
        return real_iter(self)

    monkeypatch.setattr(Runs, "__iter__", counting)
    word = Word.from_iterable([4 * s for s in syms], 5)
    results = return_times_all(word)
    traj = rate_trajectory(word)
    running_extremes(traj, 1.0)
    recurrence_witnesses(word, 0.5, 0.1)
    head = Word.from_iterable(syms[:4096], 5)
    primes = [return_time_prime(head, n) for n in range(1, 257)]
    assert expansions == []
    record = word._walks[0]
    assert len(record.returns) == len(record.ends) == 23
    assert len(record) == results.exact_depth == 101_506
    assert len(primes) == 256 and primes[0].exact
    # the counter sees an expansion when one happens
    assert len(tuple(results.values)) == 101_506
    assert expansions == [101_506]


# ------------------------------------------------- depth arguments ---

NOT_INTEGERS = [2.0, 2.5, "2", None]


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_return_time_names_a_depth_that_is_no_integer(monkeypatch, bad):
    walks = _counting_walks(monkeypatch)
    w = Word.from_digits("0100101001001", 2)
    with pytest.raises(TypeError, match=r"^n must be an integer"):
        return_time(w, bad)
    assert walks == [] and w._walks == [None, None]


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_return_time_prime_names_a_depth_that_is_no_integer(monkeypatch, bad):
    walks = _counting_walks(monkeypatch)
    w = Word.from_digits("0100101001001", 2)
    with pytest.raises(TypeError, match=r"^n must be an integer"):
        return_time_prime(w, bad)
    assert walks == [] and w._walks == [None, None]


@pytest.mark.parametrize("bad", [2.0, 2.5, "2"])
def test_return_times_all_names_a_max_n_that_is_no_integer(monkeypatch, bad):
    walks = _counting_walks(monkeypatch)
    for syms in ("0100101001001", ""):
        w = Word.from_digits(syms, 2)
        for prime in (False, True):
            with pytest.raises(TypeError, match=r"^max_n must be an integer"):
                return_times_all(w, max_n=bad, prime=prime)
        assert w._walks == [None, None]
    assert walks == []


@pytest.mark.parametrize("bad", [2.0, 2.5, "2"])
def test_bracket_return_times_names_a_max_n_that_is_no_integer(bad):
    plan = plan_full_dimension(parse_phi("log(n)"), 2, 2, count=12)
    seq = apply_insertions(truncate_plan(plan, 2), cap=20_000)
    with pytest.raises(TypeError, match=r"^max_n must be an integer"):
        bracket_return_times(seq, 12_180, bad)


def test_an_integer_depth_of_another_type_is_read_as_its_index():
    w = Word.from_digits("0100101001001", 2)
    assert return_time(w, True) == return_time(w, 1)
    assert return_times_all(w, max_n=True).top == 1


# ------------------------------------------------- verify's audit count ---

def _depth_loop(rt, lo, hi, ell):
    """The depths of lo+1..hi whose R_n is not exactly ell, one by one."""
    return [n for n in range(lo + 1, hi + 1)
            if not (n <= rt.exact_depth and rt.values[n - 1] == ell)]


def _stretch_depths(stretches):
    return [n for a, b in stretches for n in range(a, b + 1)]


def test_a_bracket_past_the_exact_head_mismatches_at_every_deeper_depth():
    # R_1..R_5 = 1, 1, 4, 4, 4 exact, bounds to depth 12
    rt = ReturnTimes((1, 1, 4, 4, 4), 20, 12)
    assert _mismatched_stretches(rt, 3, 10, 4) == [(6, 10)]
    assert _mismatched_stretches(rt, 0, 10, 4) == [(1, 2), (6, 10)]
    assert _mismatched_stretches(rt, 6, 12, 4) == [(7, 12)]
    assert _mismatched_stretches(rt, 2, 5, 4) == []
    assert _mismatched_stretches(ReturnTimes((), 20, 12), 0, 3, 1) == [(1, 3)]
    for lo, hi, ell in ((3, 10, 4), (0, 12, 1), (5, 12, 4), (1, 4, 1)):
        assert _stretch_depths(_mismatched_stretches(rt, lo, hi, ell)) == \
            _depth_loop(rt, lo, hi, ell)


def test_the_run_count_of_mismatches_is_the_depth_loops():
    rng = random.Random(17)
    for _ in range(500):
        values = []
        for _ in range(rng.randrange(8)):
            values += [rng.choice((3, 5, 7, 9))] * rng.randint(1, 9)
        if rng.random() < 0.5:
            values.sort()
        top = len(values) + rng.randrange(12) or 1
        rt = ReturnTimes(tuple(values), top + 30, top)
        lo = rng.randrange(top)
        hi = rng.randint(lo + 1, top)
        ell = rng.choice((3, 5, 7, 9))
        stretches = _mismatched_stretches(rt, lo, hi, ell)
        assert all(a <= b for a, b in stretches)
        assert _stretch_depths(stretches) == _depth_loop(rt, lo, hi, ell), \
            (values, top, lo, hi, ell)
