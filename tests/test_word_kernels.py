"""The word-analysis kernels against per-depth references.

The plain return-time walk does one find and one common-prefix length per
distinct R_n; the default-profile ratio column reads every log from the
shared table in one pass; witnesses map their cutoffs in C; the lower rate
estimate stops at the last exact entry.  Each is checked here against a
loop over depths that computes the same floats, so agreement is ==.
"""
import importlib
import json
import math
import random
from fractions import Fraction

import pytest

import recurrencelab.cantor_builder as cantor_builder
import recurrencelab.cli as cli
import recurrencelab.rate_dim_analysis as rda
from recurrencelab import (EstimationImpossibleError, OscLogPhi, Word,
                           parse_phi, plan_full_dimension,
                           plan_rate_trajectory, rate_trajectory,
                           recurrence_witnesses, return_time,
                           return_time_prime, return_times_all,
                           running_extremes)
from recurrencelab.rate_dim_analysis import (RateColumns, RateEntry,
                                             RateTrajectory)
from recurrencelab.return_time import ReturnTimes, _common_prefix

from conftest import random_word, return_times_naive_all

# the package re-exports the function return_time under the module's name
return_time_module = importlib.import_module("recurrencelab.return_time")


def _rows(results):
    return [(r.n, r.value, r.exact) for r in results]


def _fibonacci(length, a=0, b=1):
    prev, cur = "0", "01"
    while len(cur) < length:
        prev, cur = cur, cur + prev
    return [a if ch == "0" else b for ch in cur[:length]]


def _thue_morse(length, m):
    # the generalized Thue-Morse word: digit sum of i in base m, mod m
    def digit_sum(i):
        s = 0
        while i:
            i, r = divmod(i, m)
            s += r
        return s % m
    return [digit_sum(i) for i in range(length)]


def _periodic_with_flips(rng, length, m, period):
    base = [rng.randrange(m) for _ in range(period)]
    base[0] = (base[-1] + 1) % m
    syms = [base[i % period] for i in range(length)]
    for i in range(period + 3, length, 41):
        syms[i] = (syms[i] + 1) % m
    return syms


def _kernel_words(length):
    rng = random.Random(length)
    for m in (2, 3, 5):
        a, b = rng.sample(range(m), 2)
        yield f"fibonacci-m{m}", _fibonacci(length, a, b), m
        yield f"thue-morse-m{m}", _thue_morse(length, m), m
        for period in (2, 3, 7):
            yield (f"period{period}-flips-m{m}",
                   _periodic_with_flips(rng, length, m, period), m)
        yield f"constant-m{m}", [m - 1] * length, m
        yield f"random-m{m}", [rng.randrange(m) for _ in range(length)], m


KERNEL_WORDS = list(_kernel_words(150))


# ------------------------------------------------------- run-length walk ---

@pytest.mark.parametrize("name,syms,m", KERNEL_WORDS,
                         ids=[w[0] for w in KERNEL_WORDS])
def test_run_length_walk_matches_naive_at_every_top(name, syms, m):
    # a Word slices its walk to the end at every top
    w = Word.from_iterable(syms, m)
    assert isinstance(w.symbols, bytes)
    for top in range(1, len(syms) + 1):
        want = _rows(return_times_naive_all(w, max_n=top))
        assert _rows(return_times_all(w, max_n=top)) == want, top


def test_runs_cut_by_top_and_by_the_word_end():
    fib = Word.from_iterable(_fibonacci(400), 2)
    full = return_times_all(fib)
    # a top inside a run: the run is cut there, and the deeper value is
    # the same return
    runs = [n for n in range(2, full.exact_depth)
            if full.values[n - 1] == full.values[n]]
    for top in runs[::7]:
        cut = return_times_all(fib, max_n=top)
        assert cut.exact_depth == top and cut.values == full.values[:top]
        assert _rows(cut) == _rows(return_times_naive_all(fib, max_n=top))
    # a run that ends because the return reaches the last symbol: R_n + n
    # = L at the last exact depth
    rng = random.Random(7)
    block = [rng.randrange(3) for _ in range(50)]
    syms = block + [(block[0] + 1) % 3] + block
    w = Word.from_iterable(syms, 3)
    rt = return_times_all(w)
    assert rt.values[-1] + rt.exact_depth == len(syms)
    assert rt.exact_depth == 50 and len(set(rt.values)) > 1
    assert _rows(rt) == _rows(return_times_naive_all(w))
    # ... and a batch whose top is that last exact depth
    assert _rows(return_times_all(w, max_n=50)) == \
        _rows(return_times_naive_all(w, max_n=50))


def test_one_common_prefix_per_distinct_value(monkeypatch):
    calls = []
    real = return_time_module._common_prefix

    def counting(text, a, b, cap):
        calls.append(cap)
        return real(text, a, b, cap)

    monkeypatch.setattr(return_time_module, "_common_prefix", counting)
    for name, syms, m in list(_kernel_words(900)):
        for prime in (False, True):
            calls.clear()
            # a fresh Word: one walk to its end
            rt = return_times_all(Word.from_iterable(syms, m), prime=prime)
            assert len(calls) == len(set(rt.values)), (name, prime)
    calls.clear()
    rt = return_times_all(Word.from_iterable(_fibonacci(176531), 2))
    assert rt.exact_depth > 10 ** 5 and len(calls) == len(set(rt.values)) < 30


def _counting_walks(monkeypatch):
    walks = []
    real = return_time_module._walk

    def counting(text, width, prime=False):
        walks.append(len(text) // width)   # the symbols the walk reads
        return real(text, width, prime)

    monkeypatch.setattr(return_time_module, "_walk", counting)
    return walks


def test_a_word_walks_once_per_kind_whatever_the_queries(monkeypatch):
    walks = _counting_walks(monkeypatch)
    words = list(_kernel_words(300))
    # a Word keeps its record whatever its store: the same symbols in tuples
    words += [(name + "-tuple", syms, 300) for name, syms, _ in words[:3]]
    rng = random.Random(19)
    for name, syms, m in words:
        L = len(syms)
        full = [return_times_all(Word.from_iterable(syms, m), prime=prime)
                for prime in (False, True)]
        walks.clear()
        w = Word.from_iterable(syms, m)
        asked = set()
        for _ in range(60):
            prime = rng.random() < 0.5
            asked.add(prime)
            if rng.random() < 0.5:
                top = rng.randint(1, L)
                rt = return_times_all(w, max_n=top, prime=prime)
                assert rt == ReturnTimes(full[prime].values[:top], L, top,
                                         prime), (name, top)
            else:
                n = rng.randint(1, L)
                single = (return_time_prime if prime else return_time)(w, n)
                assert single == full[prime][n - 1], (name, n, prime)
        # one walk per kind asked, each to the end of the word
        assert walks == [L] * len(asked), name
        assert [v is not None for v in w._walks] == \
            [False in asked, True in asked], name
        walks.clear()


def test_common_prefix_matches_a_symbol_loop():
    rng = random.Random(2024)
    for _ in range(3000):
        L = rng.randrange(1, 120)
        m = rng.choice((1, 2, 3))
        text = bytes(rng.randrange(m) for _ in range(L))
        a, b = rng.randrange(L + 1), rng.randrange(L + 1)
        cap = rng.randrange(L - max(a, b) + 1)
        want = 0
        while want < cap and text[a + want] == text[b + want]:
            want += 1
        assert _common_prefix(text, a, b, cap) == want, (text, a, b, cap)


# ------------------------------------------------- default-profile ratios ---

def loop_trajectory(word, max_n=None):
    """One ratio per depth under the default profile: log(R_n)/log(n),
    with the bound L - n past the exact head."""
    rt = return_times_all(word, max_n=max_n)
    out = []
    for n in range(2, rt.top + 1):
        exact = n <= rt.exact_depth
        value = rt.values[n - 1] if exact else rt.bound(n)
        if value >= 1:
            out.append(RateEntry(n, value, exact, math.log(value) / math.log(n)))
    return out


def _assert_trajectory_is_the_loop(word, max_n=None):
    want = loop_trajectory(word, max_n)
    traj = rate_trajectory(word, max_n=max_n)
    assert list(traj.entries) == want
    assert traj.ratios() == [e.ratio for e in want]


def _short_words(L):
    rng = random.Random(L)
    yield random_word(rng, 2, L)
    yield random_word(rng, 5, L)
    yield Word.from_iterable(_fibonacci(L), 2)
    yield Word.from_iterable([1] * L, 2)
    yield Word.from_iterable(_periodic_with_flips(rng, L, 3, 4), 3)


def test_paired_ratios_equal_the_loop_at_every_length_and_depth():
    for L in range(2, 81):
        for word in _short_words(L):
            for max_n in range(1, L + 1):
                _assert_trajectory_is_the_loop(word, max_n)


@pytest.mark.parametrize("L", [8191, 8192, 8193, 8197])
def test_paired_ratios_at_the_block_edge(L):
    rng = random.Random(L)
    word = random_word(rng, 2, L)
    for max_n in (None, L // 2, L // 2 + 1, L - 4096, L - 2):
        _assert_trajectory_is_the_loop(word, max_n)
    _assert_trajectory_is_the_loop(Word.from_iterable(_fibonacci(L), 2))


def test_paired_ratios_with_an_exact_head_past_half_the_word():
    L = 30000
    word = Word.from_iterable(_fibonacci(L, 2, 0), 3)
    assert return_times_all(word).exact_depth > L // 2
    for max_n in (None, L // 3, L // 2, L - L // 3):
        _assert_trajectory_is_the_loop(word, max_n)


# ----------------------------------------------- witnesses and extremes ---

def loop_witnesses(word, alpha, eps, *, phi=None, max_n=None):
    """The per-depth loop: one cutoff per depth, dropped when j > cutoff;
    the cutoff is e^0 = 1 where the profile is 0, whatever the rate, and
    inf where it leaves float range."""
    syms = word.symbols
    out = []
    for n, j in enumerate(return_times_all(word, max_n=max_n).values, 1):
        f = math.log(n) if phi is None else phi.value(n)
        if f == 0:
            cutoff = 1.0
        else:
            try:
                cutoff = math.exp((alpha + eps) * f)
            except OverflowError:
                cutoff = math.inf    # past float range: above every R_n
        if j > cutoff:
            continue
        if syms[j:j + n] != syms[:n]:
            raise RuntimeError(f"disagree at n={n}")
        out.append((n, j))
    return out


WITNESS_PROFILES = {"default": None, "2log": parse_phi("2*log(n)"),
                    "osc": OscLogPhi(Fraction(4, 5), Fraction(6, 5))}


@pytest.mark.parametrize("profile", sorted(WITNESS_PROFILES))
def test_witnesses_equal_the_loop(profile):
    phi = WITNESS_PROFILES[profile]
    for name, syms, m in _kernel_words(400):
        w = Word.from_iterable(syms, m)
        for alpha, eps in ((0.5, 0.1), (0.2, 0.0), (1.0, 0.5), (0.0, 0.0)):
            for max_n in (None, 1, 30, 399):
                kw = dict(phi=phi, max_n=max_n)
                assert recurrence_witnesses(w, alpha, eps, **kw) == \
                    loop_witnesses(w, alpha, eps, **kw), (name, alpha, max_n)


def test_a_cutoff_equal_to_the_return_keeps_the_depth():
    # R_n = 1 everywhere and the cutoff is exp(0) = 1.0
    w = Word.from_iterable([0] * 60, 2)
    got = recurrence_witnesses(w, 0.0, 0.0)
    assert got == [(n, 1) for n in range(1, 60)] == loop_witnesses(w, 0.0, 0.0)


class _NanPhi:
    """A profile that is NaN at every third depth."""

    def value(self, n):
        return math.nan if n % 3 == 0 else math.log(n)


class _HugePhi:
    """A profile whose cutoff leaves float range from depth `at` on."""

    def __init__(self, at):
        self.at = at

    def value(self, n):
        return 1e6 if n >= self.at else 0.0


def test_nan_and_overflow_cutoffs_follow_the_loop():
    w = Word.from_iterable(_periodic_with_flips(random.Random(5), 300, 2, 5), 2)
    want = loop_witnesses(w, 0.1, 0.0, phi=_NanPhi())
    assert {n for n, _ in want if n % 3 == 0} == \
        {n for n in range(3, return_times_all(w).exact_depth + 1, 3)}
    assert recurrence_witnesses(w, 0.1, 0.0, phi=_NanPhi()) == want
    # infinite alpha: the cutoff at n = 1 is e^0 = 1, not inf * log(1) =
    # NaN, so depth 1 passes only when R_1 = 1
    for word in (w, Word.from_iterable([0, 1, 1] * 40, 2)):
        inf_want = loop_witnesses(word, math.inf, 0.0)
        r1 = return_times_all(word).values[0]
        assert inf_want[0][0] == (1 if r1 == 1 else 2)
        assert recurrence_witnesses(word, math.inf, 0.0) == inf_want
    # a cutoff past float range is inf: every depth from `at` on passes,
    # and below it only R_n = 1 passes the cutoff e^0 = 1
    values = return_times_all(w).values
    for at in (1, 4, 40):
        huge = [(n, j) for n, j in enumerate(values, 1)
                if n >= at or j == 1]
        assert len(huge) > len(values) - at
        assert recurrence_witnesses(w, 1.0, 0.0, phi=_HugePhi(at)) == huge
        assert loop_witnesses(w, 1.0, 0.0, phi=_HugePhi(at)) == huge


def test_a_wrong_engine_value_still_raises(monkeypatch):
    w = Word.from_iterable([0, 1, 1] * 40, 2)
    real = rda.return_times_all

    def wrong(word, max_n=None):
        rt = real(word, max_n=max_n)
        values = list(rt.values)
        values[20] += 1      # R_21 = 3 reported as 4
        return ReturnTimes(tuple(values), rt.length, rt.top)

    assert (21, 3) in recurrence_witnesses(w, 1.0, 0.0)
    monkeypatch.setattr(rda, "return_times_all", wrong)
    with pytest.raises(RuntimeError, match="n=21"):
        recurrence_witnesses(w, 1.0, 0.0)


def loop_extremes(entries, tail_fraction):
    tail = entries[int(len(entries) * (1 - tail_fraction)):]
    lows = [e.ratio for e in tail if e.exact]
    if not lows:
        return None
    return min(lows), max(e.ratio for e in tail)


def _check_extremes(traj, entries):
    for tail in (0.05, 0.25, 0.5, 0.6, 0.9, 1.0):
        want = loop_extremes(entries, tail)
        if want is None:
            with pytest.raises(EstimationImpossibleError):
                running_extremes(traj, tail)
        else:
            assert running_extremes(traj, tail) == want, tail


def test_extremes_with_exactness_that_is_not_a_prefix():
    rng = random.Random(11)
    for size in (1, 2, 5, 40, 333):
        for density in (0.0, 0.05, 0.5, 1.0):
            entries = [RateEntry(n, rng.randrange(1, 99), rng.random() < density,
                                 rng.uniform(0, 4)) for n in range(2, size + 2)]
            traj = RateTrajectory(entries, "test")
            _check_extremes(traj, entries)
            cols = RateColumns.from_entries(entries)
            _check_extremes(RateTrajectory(cols, "test"), entries)


def test_extremes_on_words_and_plans():
    for name, syms, m in _kernel_words(500):
        traj = rate_trajectory(Word.from_iterable(syms, m))
        _check_extremes(traj, list(traj.entries))
    plan = plan_full_dimension(parse_phi("log(n)"), 2, 2, count=12)
    for endpoints in ("right", "left"):
        traj = plan_rate_trajectory(plan, endpoints=endpoints)
        _check_extremes(traj, list(traj.entries))


# --------------------------------------------------------- verify audit ---

def _old_audit_lines(rt, brackets):
    """The depth-by-depth audit: every mismatch counted, the first 20 named."""
    out, named = [], 0
    for lo, hi, ell in brackets:
        mismatches = 0
        for n in range(lo + 1, hi + 1):
            if n <= rt.exact_depth and rt.values[n - 1] == ell:
                continue
            mismatches += 1
            if named < 20:
                res = rt.result(n)
                out.append({"n": n, "expected": str(ell),
                            "got": res.value, "exact": res.exact})
                named += 1
        out.append({"bracket": [lo, hi], "ell": str(ell),
                    "checked": hi - lo, "mismatches": mismatches})
    return [json.dumps(obj) for obj in out]


@pytest.mark.parametrize("damage", ["none", "one", "scattered", "truncated"])
def test_verify_audit_lines_are_the_depth_loop(capsys, monkeypatch, damage):
    seen = {}
    real = cantor_builder.bracket_return_times

    def damaged(seq, horizon, max_n=None):
        rt = real(seq, horizon, max_n)
        values = list(rt.values)
        if damage == "one":
            values[max_n // 2] += 1
        elif damage == "scattered":
            for i in range(3, len(values), max(1, len(values) // 40)):
                values[i] -= 1
        elif damage == "truncated":
            values = values[:len(values) // 3]
        seen["rt"] = ReturnTimes(tuple(values), rt.length, rt.top)
        return seen["rt"]

    monkeypatch.setattr(cantor_builder, "bracket_return_times", damaged)
    code = cli.main(["verify", "--phi", "log(n)", "--alpha", "2", "--beta", "2",
                     "--count", "12", "--cap", "2000000"])
    out = capsys.readouterr().out.splitlines()
    audit = [ln for ln in out
             if ln.startswith('{"n": ') or ln.startswith('{"bracket": ')]
    brackets = [(b["bracket"][0], b["bracket"][1], int(b["ell"]))
                for b in map(json.loads, audit) if "bracket" in b]
    assert audit == _old_audit_lines(seen["rt"], brackets)
    named = sum(ln.startswith('{"n": ') for ln in audit)
    if damage == "none":
        assert code == 0 and named == 0
    else:
        assert code == 1 and 1 <= named <= 20
        if damage != "one":
            assert named == 20
