"""The columnar rate trajectory against the per-depth loop it replaced.

The reference below is that loop, verbatim in its arithmetic: ratios must
agree with ==, not approximately.
"""
import copy
import dataclasses
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurrencelab import (EstimationImpossibleError, OscLogPhi,
                           PhiDomainError, PhiSpec, Word, parse_phi,
                           rate_trajectory, return_times_all,
                           running_extremes)
from recurrencelab.rate_dim_analysis import (LogRatioColumn, RateColumns,
                                             RateEntry, RateTrajectory)

from conftest import random_word


def loop_trajectory(word, phi=None, max_n=None):
    """The per-depth reference: one RateEntry per depth, drops inline."""
    rt = return_times_all(word, max_n=max_n)
    out = []
    for n in range(1, rt.top + 1):
        exact = n <= rt.exact_depth
        value = rt.values[n - 1] if exact else rt.bound(n)
        if value < 1:
            continue
        f = math.log(n) if phi is None else phi.value(n)
        if f <= 0:
            continue
        out.append(RateEntry(n, value, exact, math.log(value) / f))
    return out


def loop_extremes(entries, tail_fraction):
    tail = entries[int(len(entries) * (1 - tail_fraction)):]
    return (min(e.ratio for e in tail if e.exact),
            max(e.ratio for e in tail))


def _trajectory_words():
    rng = random.Random(8128)
    words = {f"random-m{m}": random_word(rng, m, 700) for m in (2, 3, 5)}
    fib = "0"
    prev = "1"
    while len(fib) < 600:
        fib, prev = fib + prev, fib
    words["fibonacci"] = Word.from_digits(fib[:600], 2)
    noisy = [(0, 1, 1, 0, 2)[i % 5] for i in range(650)]
    for i in range(0, 650, 97):
        noisy[i] = (noisy[i] + 1) % 3
    words["periodic-noise"] = Word.from_iterable(noisy, 3)
    words["constant"] = Word.from_digits("0" * 300, 2)
    words["length-1"] = Word.from_digits("1", 2)
    words["length-2"] = Word.from_digits("00", 2)
    return words


TRAJECTORY_WORDS = _trajectory_words()
PROFILES = {"default": None, "2log": parse_phi("2*log(n)"),
            "osc": OscLogPhi(Fraction(4, 5), Fraction(6, 5)),
            "expr": parse_phi("log(n)^2+log(n)")}


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("name", sorted(TRAJECTORY_WORDS))
def test_columnar_trajectory_matches_the_loop(name, profile):
    word, phi = TRAJECTORY_WORDS[name], PROFILES[profile]
    L = len(word)
    for max_n in (None, L, max(1, L // 3)):
        want = loop_trajectory(word, phi, max_n)
        traj = rate_trajectory(word, phi, max_n=max_n)
        got = list(traj.entries)
        assert [(e.n, e.return_time, e.exact, e.ratio) for e in got] == \
            [(e.n, e.return_time, e.exact, e.ratio) for e in want]
        assert all(type(e.exact) is bool for e in got)
        assert len(traj) == len(want)
        assert traj.ratios() == [e.ratio for e in want]
        assert [traj.entries[i] for i in range(-len(want), len(want))] == \
            want + want
        assert list(traj.entries[1::2]) == want[1::2]
        for tail in (0.25, 0.5, 1.0):
            if any(e.exact for e in want[int(len(want) * (1 - tail)):]):
                assert running_extremes(traj, tail) == loop_extremes(want, tail)
            else:
                with pytest.raises(EstimationImpossibleError):
                    running_extremes(traj, tail)


class _NonpositivePhi(PhiSpec):
    """log(n + 1), but 0 at the depths in `bad`: not a profile, and
    value() says so at the first of them."""

    def __init__(self, bad):
        self.bad = bad

    def _raw(self, n):
        return 0.0 if n in self.bad else math.log(n + 1)


@pytest.mark.parametrize("bad, depth", [({17}, 17), ({2}, 2), ({1, 40}, 40)])
def test_a_profile_nonpositive_at_a_depth_raises_there(bad, depth):
    word = TRAJECTORY_WORDS["periodic-noise"]
    phi = _NonpositivePhi(bad)
    with pytest.raises(PhiDomainError,
                       match=rf"^phi\({depth}\) = 0\.0 is not positive$"):
        rate_trajectory(word, phi)
    # the depths above it have a trajectory, every depth an entry
    traj = rate_trajectory(word, phi, max_n=depth - 1)
    want = loop_trajectory(word, phi, depth - 1)
    assert [e.n for e in traj.entries] == list(range(1, depth))
    assert list(traj.entries) == want


def test_a_profile_nonpositive_at_one_and_two_raises_at_two():
    # phi(1) falls back to phi(2)/2, which raises at 2 even when n = 1 is
    # the only depth asked for
    word = TRAJECTORY_WORDS["periodic-noise"]
    with pytest.raises(PhiDomainError,
                       match=r"^phi\(2\) = 0\.0 is not positive$"):
        rate_trajectory(word, _NonpositivePhi({1, 2}), max_n=1)


def test_tuple_store_with_non_prefix_exactness():
    entries = (RateEntry(2, 3, True, 1.5), RateEntry(3, 90, False, 4.0),
               RateEntry(4, 7, True, 1.25), RateEntry(5, 80, False, 2.75),
               RateEntry(6, 9, True, 1.75))
    traj = RateTrajectory(entries, "test")
    assert tuple(traj.entries) == entries
    assert traj.entries[1:4] == entries[1:4]
    again = RateTrajectory(list(entries), "test")
    assert traj == again and hash(traj) == hash(again)
    for tail in (0.25, 0.5, 1.0):
        assert running_extremes(traj, tail) == loop_extremes(entries, tail)
    assert running_extremes(traj, 0.6) == (1.25, 2.75)


def test_rate_entry_contract():
    e = RateEntry(2, 3, True, 1.5)
    with pytest.raises(AttributeError):
        e.ratio = 2.0
    with pytest.raises(AttributeError):
        e.extra = 1
    with pytest.raises(AttributeError):
        del e.n
    assert repr(e) == "RateEntry(n=2, return_time=3, exact=True, ratio=1.5)"
    same = RateEntry(2, 3, True, 1.5)
    assert e == same and hash(e) == hash(same) and e is not same
    assert e != RateEntry(2, 3, False, 1.5)
    assert (e.n, e.return_time, e.exact, e.ratio) == (2, 3, True, 1.5)
    assert [f.name for f in dataclasses.fields(e)] == [
        "n", "return_time", "exact", "ratio"]
    assert not hasattr(e, "__dict__")
    for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert twin == e and twin is not e


def test_trajectory_peak_memory_per_depth():
    # under a profile: ratios as doubles, exactness as bytes, depths and
    # bounds as ranges: 9.5 bytes per depth measured (about 208 with one
    # object per depth)
    rng = random.Random(99)
    n = 2 * 10 ** 5
    word = random_word(rng, 2, n)
    phi = parse_phi("2*log(n)")
    rate_trajectory(word, phi, max_n=100)
    tracemalloc.start()
    try:
        traj = rate_trajectory(word, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 12, f"{peak / n:.2f} bytes per depth"
    assert len(traj) == n - 1


def test_a_word_trajectory_holds_no_column_of_ratios():
    # the ratios are held in closed form, and the exactness bytes are the
    # one column built per depth: about 1 byte per depth measured (9.5
    # with an array of ratios)
    rng = random.Random(99)
    n = 2 * 10 ** 5
    word = random_word(rng, 2, n)
    rate_trajectory(word, max_n=100)
    tracemalloc.start()
    try:
        traj = rate_trajectory(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 3, f"{peak / n:.2f} bytes per depth"
    assert isinstance(traj.entries.ratios, LogRatioColumn)
    assert len(traj) == n - 2


def test_a_word_trajectory_holds_its_exact_head_by_reference():
    # a 176 531-symbol Fibonacci word, the length of the benchmark's
    # longest, has an exact head of over 10^5 depths; the trajectory holds
    # the ReturnTimes head itself, so the exactness bytes are the one
    # column built: about 1.6 bytes per depth measured, 6.2 with the head
    # copied
    n = 176_531
    word = Word.from_iterable(_word_symbols("fibonacci", 2, n, 0), 2)
    head = return_times_all(word).values
    assert len(head) > n // 2
    rate_trajectory(word, max_n=100)
    tracemalloc.start()
    try:
        traj = rate_trajectory(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 2, f"{peak / n:.2f} bytes per depth"
    assert traj.entries.head is head
    assert len(traj) == n - 2


# ------------------------------------------ run-granular extremes vs scan ---

def _word_symbols(kind, m, length, seed):
    """A random word, a periodic word with flips, or a Fibonacci word over
    two of the m symbols."""
    rng = random.Random(seed)
    if kind == "random":
        return [rng.randrange(m) for _ in range(length)]
    if kind == "periodic":
        block = [rng.randrange(m) for _ in range(rng.randint(1, 9))]
        syms = [block[i % len(block)] for i in range(length)]
        for i in rng.sample(range(length), min(length, rng.randint(0, 6))):
            syms[i] = rng.randrange(m)
        return syms
    a, b = rng.sample(range(m), 2)
    fib, prev = [a], [b]
    while len(fib) < length:
        fib, prev = fib + prev, fib
    return fib[:length]


def _extremes_or_error(traj, tail):
    """running_extremes as bit patterns, or the error it raises."""
    try:
        a_hat, b_hat = running_extremes(traj, tail)
    except EstimationImpossibleError as err:
        return "error", str(err)
    return a_hat.hex(), b_hat.hex()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["random", "periodic", "fibonacci"]),
       st.sampled_from([2, 3, 5, 300]), st.integers(1, 1500),
       st.integers(0, 10 ** 6), st.data())
def test_run_extremes_equal_the_scan(kind, m, length, seed, data):
    word = Word.from_iterable(_word_symbols(kind, m, length, seed), m)
    max_n = data.draw(st.none() | st.integers(1, length), label="max_n")
    traj = rate_trajectory(word, max_n=max_n)
    scanned = RateTrajectory(RateColumns.from_entries(traj.entries), "word")
    assert isinstance(traj.entries.ratios, LogRatioColumn)
    assert not isinstance(scanned.entries.ratios, LogRatioColumn)
    size = len(traj)
    single = 0.5 / size if size else 1.0
    tails = [1.0, 0.5, single, 1e-17,
             data.draw(st.floats(1e-17, 1.0), label="tail")]
    if size:
        assert int(size * (1 - single)) == size - 1
        assert int(size * (1 - 1e-17)) == size     # an empty window
    for tail in tails:
        assert _extremes_or_error(traj, tail) == \
            _extremes_or_error(scanned, tail), tail


# ------------------------------------------- closed-form column vs loop ---

def _hexes(ratios):
    return [float.hex(r) for r in ratios]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["random", "periodic", "fibonacci"]),
       st.sampled_from([2, 3, 5, 300]), st.integers(1, 1500),
       st.integers(0, 10 ** 6), st.data())
def test_closed_form_column_equals_the_loop(kind, m, length, seed, data):
    word = Word.from_iterable(_word_symbols(kind, m, length, seed), m)
    depth = return_times_all(word).exact_depth
    max_n = data.draw(st.sampled_from(
        [None, "below", length - 1 if length > 1 else None,
         min(2, length), 1]), label="max_n")
    if max_n == "below":
        max_n = data.draw(st.integers(1, max(depth - 1, 1)), label="below")
    traj = rate_trajectory(word, max_n=max_n)
    cols = traj.entries
    col = cols.ratios
    assert isinstance(col, LogRatioColumn)
    want = RateColumns.from_entries(loop_trajectory(word, None, max_n))
    ratios = want.ratios.tolist()
    size = len(ratios)
    assert len(col) == len(cols) == size
    assert _hexes(col) == _hexes(ratios)
    assert _hexes(col.tolist()) == _hexes(ratios)
    assert col.tobytes() == want.ratios.tobytes()
    assert _hexes(col[i] for i in range(-size, size)) == _hexes(ratios * 2)
    for i in (size, -size - 1):
        with pytest.raises(IndexError):
            col[i]
        with pytest.raises(IndexError):
            cols[i]
    start = data.draw(st.none() | st.integers(-size - 2, size + 2),
                      label="start")
    stop = data.draw(st.none() | st.integers(-size - 2, size + 2),
                     label="stop")
    step = data.draw(st.none() | st.integers(-5, 5).filter(bool),
                     label="step")
    part = slice(start, stop, step)
    assert _hexes(col[part]) == _hexes(ratios[part])
    assert cols[part] == tuple(want)[part]
    assert cols == want and hash(cols) == hash(want)
    assert tuple(cols) == tuple(want)
