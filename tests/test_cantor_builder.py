import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from recurrencelab import (Alphabet, CapacityError, ExplicitFree, ExtReal,
                           FpBase, FreeStream, InsertionPlan, LazySequence,
                           OscLogPhi, PlanValidityError, ReturnTimes,
                           SeededFree, SourceExhaustedError, SymbolSource,
                           Word, ZeroFree, apply_insertions, box_dimension,
                           bracket_return_times, certified_brackets,
                           check_plan_conditions, first_certified_index,
                           fp_cylinder_count, make_insertion_word,
                           materializable_term_count, parse_phi,
                           plan_full_dimension, return_times_all,
                           truncate_plan)

from conftest import (ExplicitBase, PeriodicBase, marker_base_symbol,
                      predicted_return_time, return_times_naive_all,
                      splice_oracle)


def in_family(symbols, p: int, m: int) -> bool:
    """Does a word meet every F_p constraint it is long enough to see?
    The independent block rule, with each free slot taking the word's own
    symbol."""
    return all(s == marker_base_symbol(p, m, j, lambda _, s=s: s)
               for j, s in enumerate(symbols, 1))


# ------------------------------------------------------------ base family ---

@pytest.mark.parametrize("p", [3, 4, 5])
def test_fp_cylinder_count_by_enumeration(p):
    m = 2
    for n in range(1, 17):
        want = sum(in_family(bits, p, m)
                   for bits in itertools.product(range(m), repeat=n))
        assert fp_cylinder_count(p, n, m) == want, (p, n)


def test_fp_cylinder_count_larger_alphabet():
    # free positions contribute a factor of m each
    p, m = 3, 3
    for n in range(1, 13):
        want = sum(in_family(sym, p, m)
                   for sym in itertools.product(range(m), repeat=n))
        assert fp_cylinder_count(p, n, m) == want


def test_fp_cylinder_count_matches_the_per_depth_loop():
    # the closed form FpBase uses for its free slots, against a walk over
    # the positions
    for p in range(2, 9):
        for n in range(301):
            free = sum(1 for j in range(p + 1, n + 1) if j % p not in (0, 1))
            assert fp_cylinder_count(p, n, 2) == 2 ** free, (p, n)
            assert fp_cylinder_count(p, n, 5) == 5 ** free, (p, n)


@pytest.mark.parametrize("p,m", [(1, 2), (0, 2), (-3, 2), (3, 1), (3, 0)])
def test_the_block_family_needs_p_and_m_of_at_least_two(p, m):
    for build in (lambda: FpBase(p, m), lambda: fp_cylinder_count(p, 5, m),
                  lambda: box_dimension(p, m, 5)):
        with pytest.raises(ValueError, match="at least 2"):
            build()
    with pytest.raises(ValueError, match="1 <= min_depth"):
        box_dimension(3, 2, 5, min_depth=0)


def test_fp_base_matches_independent_rule():
    rng = random.Random(21)
    for p, m in ((3, 2), (4, 3), (5, 2)):
        draws = [rng.randrange(m) for _ in range(4000)]
        base = FpBase(p, m, ExplicitFree(draws))

        def free(i, _d=draws):
            return _d[i - 1]
        for j in range(1, 200):
            assert base.symbol_at(j) == marker_base_symbol(p, m, j, free), \
                (p, m, j)
        pref = FpBase(p, m, ExplicitFree(draws)).window(1, 150)
        fresh = FpBase(p, m, ExplicitFree(draws))
        assert list(pref) == [fresh.symbol_at(j) for j in range(1, 151)]


def test_fp_base_prefix_is_member():
    w = LazySequence(FpBase(3, 2, SeededFree(5, 2))).prefix(60)
    assert in_family(w, 3, 2)
    # position 4 is a block wall (4 % 3 == 1): a 0 there breaks membership
    assert not in_family(Word.from_digits("0010", 2), 3, 2)


def test_zero_free_and_seeded_free():
    z = ZeroFree()
    assert [z.symbol(i) for i in (1, 5, 9)] == [0, 0, 0]
    s = SeededFree(9, 4)
    first = [s.symbol(i) for i in range(1, 30)]
    again = [SeededFree(9, 4).symbol(i) for i in range(1, 30)]
    assert first == again  # reproducible
    assert all(0 <= v < 4 for v in first)
    # any access order yields the same stream
    jumbed = SeededFree(9, 4)
    assert jumbed.symbol(20) == first[19] and jumbed.symbol(3) == first[2]
    e = ExplicitFree([1, 0, 1])
    assert e.symbol(3) == 1
    with pytest.raises(SourceExhaustedError):
        e.symbol(4)


# --------------------------------------------------------- insertion word ---

def test_make_insertion_word_shape():
    pref = Word.from_digits("0010", 2)
    w = make_insertion_word(pref, 1)
    # 1 . prefix . flipped-next . 1
    assert w.to_digits() == "1" + "0010" + "0" + "1"
    w3 = make_insertion_word(Word.from_digits("012", 3), 2)
    assert w3.to_digits() == "1" + "012" + "0" + "1"


# ------------------------------------------------------------------ plans ---

def hand_plan():
    return InsertionPlan(3, 2, ((4, 64), (8, 256), (16, 1024)), "desk")


def test_plan_accessors_and_json_roundtrip():
    plan = hand_plan()
    assert plan.ns == (4, 8, 16)
    assert plan.ells == (64, 256, 1024)
    assert len(plan) == 3
    back = InsertionPlan.from_json(plan.to_json())
    assert back == plan
    assert back.case_tag == "desk"
    # ell travels as a decimal string, safe far past 2^53
    big = InsertionPlan(3, 2, ((4, 64), (8, 10 ** 40)))
    data = json.loads(big.to_json())
    assert data["terms"][1]["ell"] == str(10 ** 40)
    assert InsertionPlan.from_json_dict(data) == big


@pytest.mark.parametrize("text", ["1_000", " 7\n", "+5", "\u0663"],
                         ids=["underscore", "whitespace", "plus", "arabic-indic"])
@pytest.mark.parametrize("key", ["n", "ell"])
def test_plan_integers_are_read_strictly(text, key):
    # int() takes each of these strings; a plan file takes only JSON
    # integers and ASCII decimal digits with an optional leading '-'
    data = json.loads(hand_plan().to_json())
    data["terms"][1][key] = text
    with pytest.raises(PlanValidityError, match="must be an integer"):
        InsertionPlan.from_json_dict(data)
    # a leading '-' is read, and the range check refuses the value
    data["terms"][1][key] = "-8"
    with pytest.raises(PlanValidityError, match="positive"):
        InsertionPlan.from_json_dict(data)


# one synthesized plan of each case of the table
CASE_PLANS = [("log(n)", "inf", "inf", "i"), ("log(n)", "1", "inf", "ii"),
              ("n", "1", "2", "iii"), ("n^0.5", "0", "2", "iv"),
              ("log(n)", "2", "2", "v"), ("osc 1 3", "1", "1", "vi")]


def _assert_canonical_json(plan):
    text = plan.to_json()
    assert text == json.dumps(plan.to_json_dict())
    if len(plan) >= 2:
        assert InsertionPlan.from_json(text) == plan


@pytest.mark.parametrize("count", [12, 120])
@pytest.mark.parametrize("spec,alpha,beta,case", CASE_PLANS,
                         ids=[c[3] for c in CASE_PLANS])
def test_plan_json_is_written_as_json_dumps(spec, alpha, beta, case, count):
    # the positions span both sides of decimal_str's cut-off: case ii's
    # seventh ell has 11 635 digits, case v's 120th 12 512
    phi = (OscLogPhi(*spec.split()[1:]) if spec.startswith("osc ")
           else parse_phi(spec))
    plan = plan_full_dimension(phi, ExtReal(alpha), ExtReal(beta),
                               count=count)
    assert plan.case_tag == case
    _assert_canonical_json(plan)


POSITIONS = st.one_of(
    st.integers(1, 1 << 70),
    st.builds(lambda man, shift: man << shift,
              st.integers(1, (1 << 64) - 1), st.integers(0, 40_000)))


@settings(max_examples=100, deadline=None)
@given(p=st.integers(2, 1 << 70), m=st.integers(2, 1 << 70),
       terms=st.lists(st.tuples(POSITIONS, POSITIONS), max_size=6),
       case_tag=st.text(max_size=12))
@example(p=3, m=2, terms=[(1, 2), (5 << 9000, 7 << 5000)],
         case_tag='a"b\\c\u00e9\u2028\U0001f600\x00\n')
def test_any_plan_json_is_written_as_json_dumps(p, m, terms, case_tag):
    _assert_canonical_json(InsertionPlan(p, m, tuple(terms), case_tag))


def test_plan_construction_validation():
    with pytest.raises(PlanValidityError):
        InsertionPlan(1, 2, ((4, 64),))  # p too small
    with pytest.raises(PlanValidityError):
        InsertionPlan(3, 1, ((4, 64),))  # alphabet too small
    with pytest.raises(PlanValidityError):
        InsertionPlan(3, 2, ((0, 64),))  # entries must be positive
    with pytest.raises(PlanValidityError):
        InsertionPlan(3, 2, ((4, 0),))


def test_check_plan_conditions_passes_desk_plan():
    check_plan_conditions(hand_plan())


def test_check_plan_conditions_needs_two_terms():
    with pytest.raises(PlanValidityError):
        check_plan_conditions(InsertionPlan(3, 2, ((4, 64),)))


def test_check_plan_conditions_requires_increasing_n():
    bad = InsertionPlan(3, 2, ((4, 64), (4, 256)))
    with pytest.raises(PlanValidityError, match="increase"):
        check_plan_conditions(bad)


def test_check_plan_conditions_gap_violation():
    # ell_2 < ell_1 + n_1 + 3 breaks the spacing requirement
    bad = InsertionPlan(3, 2, ((4, 64), (8, 70)))
    with pytest.raises(PlanValidityError, match="gap"):
        check_plan_conditions(bad)


def test_check_plan_conditions_final_ratio():
    # gaps all hold, but the overhead i*(n_i+3)/ell_i ends at
    # 3*19/58 = 0.98 >= eps
    slow = InsertionPlan(3, 2, ((4, 40), (8, 47), (16, 58)))
    with pytest.raises(PlanValidityError, match="final ratio"):
        check_plan_conditions(slow)


def test_check_plan_conditions_envelope():
    # every gap condition holds and the final ratio is tiny, yet the
    # overhead envelope grows toward the end: must be rejected
    grow = ((4, 10 ** 7), (8, 2 * 10 ** 7), (16, 4 * 10 ** 7),
            (32, 8 * 10 ** 7), (64, 10 ** 8), (128, 12 * 10 ** 7))
    with pytest.raises(PlanValidityError, match="envelope"):
        check_plan_conditions(InsertionPlan(3, 2, grow))
    # geometric ells give a decaying envelope: accepted
    decay = tuple((2 ** (i + 2), 10 ** 4 * 4 ** i) for i in range(6))
    check_plan_conditions(InsertionPlan(3, 2, decay))


def test_first_certified_and_brackets():
    plan = hand_plan()  # p = 3: need n > 3 and ell - 1 > 3
    assert first_certified_index(plan) == 1
    assert certified_brackets(plan) == [(4, 8, 256), (8, 16, 1024)]
    # a first rung too short for certification is skipped
    plan2 = InsertionPlan(5, 2, ((4, 64), (8, 256), (16, 1024)))
    assert first_certified_index(plan2) == 2
    assert certified_brackets(plan2) == [(8, 16, 1024)]


def test_predicted_return_time():
    plan = hand_plan()
    # inside the bracket (4, 8]: the next marker copy sits at shift ell_2
    assert predicted_return_time(plan, 5) == 256
    assert predicted_return_time(plan, 8) == 256
    assert predicted_return_time(plan, 9) == 1024
    assert predicted_return_time(plan, 16) == 1024
    assert predicted_return_time(plan, 4) is None   # bracket is half-open
    assert predicted_return_time(plan, 3) is None   # below certification
    assert predicted_return_time(plan, 17) is None  # beyond last bracket


def test_predicted_return_time_is_real():
    # materialize and confirm the dictionary against the actual scan
    from recurrencelab import return_time
    plan = hand_plan()
    seq = apply_insertions(plan, ZeroFree())
    w = Word.from_iterable(seq.prefix(1200), 2)
    for n in range(5, 17):
        res = return_time(w, n)
        assert res.exact and res.value == predicted_return_time(plan, n), n


# ----------------------------------------------- materialization vs oracle ---

@pytest.mark.parametrize("p,m,terms,seed", [
    (3, 2, ((4, 64), (8, 256), (16, 1024)), None),
    (3, 2, ((4, 100), (6, 200), (9, 400), (13, 800)), 7),
    (4, 3, ((5, 120), (9, 400), (14, 1100)), 11),
    (5, 2, ((3, 40), (7, 160), (12, 640)), 3),   # first term under-certified
])
def test_apply_insertions_matches_splice_oracle(p, m, terms, seed):
    plan = InsertionPlan(p, m, terms)
    length = terms[-1][1] + terms[-1][0] + 40

    def make_free():
        return ZeroFree() if seed is None else SeededFree(seed, m)

    seq = apply_insertions(plan, make_free())
    got = list(seq.prefix(length))

    src = make_free()
    want = splice_oracle(p, m, terms, src.symbol, length)
    assert got == want


def test_apply_insertions_skips_tiny_rungs():
    # a marker whose position falls inside the constrained opening
    # (ell - 1 <= p) is dropped rather than corrupting the base pattern
    plan = InsertionPlan(5, 2, ((2, 5), (4, 64), (8, 256)))
    seq = apply_insertions(plan, ZeroFree())
    assert [seq.index(j) for j in range(1, 6)] == [0, 0, 0, 0, 0]
    # the surviving marker at 64 reads 1 . 0000 . 1 . 1
    assert [seq.index(j) for j in range(64, 71)] == [1, 0, 0, 0, 0, 1, 1]


def test_marker_over_its_own_copy_is_not_inserted():
    # p = 3: (4, 5) puts the marker at n + 1, over the x_5 it copies, so it
    # is skipped by the construction, by certification and by removal alike
    plan = InsertionPlan(3, 2, ((4, 5), (8, 64), (16, 1024)))
    assert first_certified_index(plan) == 2
    assert certified_brackets(plan) == [(8, 16, 1024)]
    seq = apply_insertions(plan, ZeroFree())
    assert [pos for pos, _ in seq.events] == [64, 1024]
    assert list(seq.prefix(1100)) == splice_oracle(
        3, 2, plan.terms[1:], lambda _: 0, 1100)


def test_oscillating_case_vi_plan_audits_clean():
    # the case vi plan for osc 1/2 2 at rates (2, 5/2) opens with (4, 5);
    # every certified bracket must hold on the materialized prefix
    plan = plan_full_dimension(OscLogPhi("1/2", "2"), 2, "5/2")
    assert plan.case_tag == "vi" and plan.terms[0] == (4, 5)
    cap = 2_000_000
    sub = truncate_plan(plan, materializable_term_count(plan, cap))
    brackets = certified_brackets(sub)
    word = apply_insertions(sub, cap=cap).prefix(
        brackets[-1][2] + brackets[-1][1] + 2)
    oracle = return_times_naive_all(word, max_n=brackets[-1][1])
    for lo, hi, ell in brackets:
        for n in range(lo + 1, hi + 1):
            assert (oracle[n - 1].value, oracle[n - 1].exact) == (ell, True), n
    assert [(lo, hi) for lo, hi, _ in brackets] == [(8, 9), (9, 15), (15, 41)]


def test_apply_insertions_respects_cap():
    plan = hand_plan()
    with pytest.raises(CapacityError):
        apply_insertions(plan, ZeroFree(), cap=100).prefix(101)


def _without_markers(seq: LazySequence, n: int) -> list:
    """The first n symbols of a constructed point with its marker words
    cut out, as far as they reach into the n."""
    syms, keep, cut = list(seq.prefix(n)), [], 0
    for start, word in seq.events:
        keep += syms[cut:start - 1]
        cut = start - 1 + len(word)
    return keep + syms[cut:]


def test_remove_insertions_inverse():
    # the construction only inserts: cutting its markers out of a prefix
    # leaves a prefix of the base
    plan = InsertionPlan(3, 2, ((4, 100), (6, 200), (9, 400)))
    seq = apply_insertions(plan, SeededFree(13, 2))
    recovered = _without_markers(seq, 500)
    assert len(recovered) == 500 - 7 - 9 - 12
    base = FpBase(3, 2, SeededFree(13, 2)).window(1, len(recovered))
    assert recovered == list(base)


def test_materializable_and_truncate():
    plan = InsertionPlan(3, 2, ((4, 64), (8, 256), (16, 10 ** 9)))
    assert materializable_term_count(plan, cap=10 ** 6) == 2
    assert materializable_term_count(plan, cap=10 ** 10) == 3
    assert materializable_term_count(plan, cap=50) == 0
    cut = truncate_plan(plan, 2)
    assert cut.terms == plan.terms[:2]
    assert cut.p == plan.p and cut.m == plan.m
    empty = truncate_plan(plan, 0)
    assert len(empty) == 0
    with pytest.raises(PlanValidityError):
        check_plan_conditions(empty)


# ------------------------------------------------------------ bulk windows ---

def _free_kind(kind, m, rng):
    if kind == "zero":
        return lambda: ZeroFree()
    if kind == "seeded":
        return lambda: SeededFree(17, m)
    draws = [rng.randrange(m) for _ in range(700)]
    return lambda: ExplicitFree(draws)


def _interior_ordinals(p, i, j):
    """Free ordinals of the interior positions in [i, j], by the block rule."""
    return [((x - 1) // p - 1) * (p - 2) + (x % p - 1)
            for x in range(max(i, p + 1), j + 1) if x % p not in (0, 1)]


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["zero", "seeded", "explicit"])
def test_fp_window_matches_symbol_at(kind, p):
    rng = random.Random(100 * p + len(kind))
    horizon = 600
    for m in (2, 3, 256, 300):
        make = _free_kind(kind, m, rng)
        ref_base = FpBase(p, m, make())
        ref = [ref_base.symbol_at(x) for x in range(1, horizon + 1)]
        windows = [(1, 0), (5, 4), (p + 1, p), (1, 1), (1, p), (2, p - 1),
                   (p, p + 1), (1, p + 3), (p - 1, 3 * p), (1, horizon)]
        windows += [(k * p + 1, k * p + p) for k in range(1, 6)]     # one block
        windows += [(k * p + 2, k * p + p - 1) for k in range(1, 4)]  # interior
        for _ in range(60):
            i = rng.randint(1, horizon)
            windows.append((i, rng.randint(i - 1, horizon)))
        base = FpBase(p, m, make())   # windows first, in random order
        rng.shuffle(windows)
        for i, j in windows:
            got = base.window(i, j)
            assert isinstance(got, bytes if m <= 256 else tuple), (i, j)
            assert list(got) == ref[i - 1:j], (m, i, j)
            # fill at an offset into a larger buffer (a list past 256
            # symbols) leaves the neighbours as they were
            at = rng.randint(1, 5)
            pad = 0xAA if m <= 256 else -1
            buf = (bytearray if m <= 256 else list)(
                [pad] * (at + len(got) + 4))
            base.fill(buf, at, i, j)
            assert list(buf) == [pad] * at + ref[i - 1:j] + [pad] * 4, \
                (m, i, j)
    if kind != "explicit":
        return
    # over 300 symbols too, a stream that runs short or holds a symbol
    # outside the alphabet raises in a window what symbol_at raises
    for symbols in ([299, 1] * 20, [1] * 30 + [300] + [2] * 9,
                    [5] * 12 + [-1] + [0] * 40):
        for _ in range(40):
            i = rng.randint(1, 60)
            j = rng.randint(i, 140)
            outcomes = []
            for read in (lambda base: [base.symbol_at(x)
                                       for x in range(i, j + 1)],
                         lambda base: list(base.window(i, j))):
                try:
                    outcomes.append(read(FpBase(p, 300, ExplicitFree(symbols))))
                except (ValueError, SourceExhaustedError) as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], (symbols, i, j)


def test_fp_window_reads_only_its_own_free_ordinals():
    class Recording(ExplicitFree):
        def read(self, first, last):
            reads.append((first, last))
            return super().read(first, last)

    rng = random.Random(5)
    for p in (2, 3, 4, 5, 6):
        base = FpBase(p, 3, Recording([rng.randrange(3) for _ in range(400)]))
        for _ in range(80):
            i = rng.randint(1, 300)
            j = rng.randint(i - 1, 300)
            reads = []
            base.window(i, j)
            ordinals = _interior_ordinals(p, i, j)
            if ordinals:
                assert ordinals == list(range(ordinals[0], ordinals[-1] + 1))
                assert reads == [(ordinals[0], ordinals[-1])], (p, i, j)
            else:
                assert reads == [], (p, i, j)


def test_explicit_free_exactly_covering_a_prefix():
    rng = random.Random(8)
    for p in (3, 4, 5, 6):
        for n in range(p, 5 * p + 3):
            need = len(_interior_ordinals(p, 1, n))
            free = ExplicitFree([rng.randrange(2) for _ in range(need)])
            want = [marker_base_symbol(p, 2, j, free.symbol)
                    for j in range(1, n + 1)]
            assert list(FpBase(p, 2, free).window(1, n)) == want
            assert list(LazySequence(FpBase(p, 2, free)).prefix(n)) == want
            # the next interior position needs one symbol more
            nxt = next(x for x in range(n + 1, n + p + 2) if x % p not in (0, 1))
            with pytest.raises(SourceExhaustedError):
                FpBase(p, 2, free).window(n + 1, nxt)
    # a constructed point whose base prefix uses every free symbol
    plan = hand_plan()
    n = 300
    base_len = len(_without_markers(apply_insertions(plan), n))
    need = len(_interior_ordinals(3, 1, base_len))
    free = ExplicitFree([1, 0] * (need // 2) + [1] * (need % 2))
    seq = apply_insertions(plan, free)
    assert seq.prefix(n) == apply_insertions(
        plan, ExplicitFree(list(free.symbols) + [0] * 50)).prefix(n)
    with pytest.raises(SourceExhaustedError):
        apply_insertions(plan, ExplicitFree(free.symbols[:-1])).prefix(n)


def _outcome(fn):
    try:
        return "ok", bytes(fn())
    except (ValueError, SourceExhaustedError) as exc:
        return type(exc), str(exc)


def test_bulk_read_errors_match_per_symbol():
    class OneByOne(FreeStream):   # the default read: ordinal by ordinal
        def __init__(self, symbols):
            self.inner = ExplicitFree(symbols)

        def symbol(self, ordinal):
            return self.inner.symbol(ordinal)

    rng = random.Random(21)
    streams = [
        [0, 1] * 20,                          # exhausted at 41
        [0, 1, 2, 0, 1] + [1] * 30,           # out of alphabet at 3
        [1] * 10 + [7] + [0] * 5 + [9],       # two bad symbols, then exhausted
        [0] * 12 + [300] + [0] * 8,           # too big for a byte
        [1] * 6 + [-1] + [1] * 3,             # negative
        [0, 1] * 3 + [0.5] + [1] * 5,         # not an int
    ]
    raised = set()
    for symbols in streams:
        for make in (ExplicitFree, OneByOne):
            for p in (3, 5):
                for _ in range(40):
                    i = rng.randint(1, 60)
                    j = rng.randint(i, 140)
                    per_symbol = _outcome(lambda: [
                        FpBase(p, 2, make(symbols)).symbol_at(x)
                        for x in range(i, j + 1)])
                    bulk = _outcome(lambda: FpBase(p, 2, make(symbols))
                                    .window(i, j))
                    assert bulk == per_symbol, (symbols, p, i, j)
                    raised.add(per_symbol[0])
                # through a whole prefix, with events between the windows
                seq = LazySequence(FpBase(p, 2, make(symbols)),
                                   ((20, Word.from_digits("11", 2)),
                                    (45, Word.from_digits("101", 2))))
                per_symbol = _outcome(lambda: [seq.index(x)
                                               for x in range(1, 150)])
                assert _outcome(lambda: seq.prefix(149).symbols) == per_symbol
    assert raised == {"ok", ValueError, SourceExhaustedError}


def test_seeded_read_and_symbol_share_one_stream():
    rng = random.Random(3)
    for m in (2, 5, 256):
        ref = random.Random(44)
        want = [ref.randrange(m) for _ in range(500)]
        s = SeededFree(44, m)
        for _ in range(300):
            if rng.random() < 0.5:
                o = rng.randint(1, 500)
                assert s.symbol(o) == want[o - 1]
            else:
                first = rng.randint(1, 500)
                last = rng.randint(first - 1, 500)
                assert s.read(first, last) == bytes(want[first - 1:last])
    big = SeededFree(2, 300)
    assert list(big.read(1, 50)) == [big.symbol(o) for o in range(1, 51)]


def test_free_reads_stop_short_at_the_stream_end():
    e = ExplicitFree([1, 0, 2, 1])
    assert e.read(2, 3) == bytes([0, 2]) and e.read(3, 9) == bytes([2, 1])
    assert e.read(5, 9) == b"" and e.read(3, 2) == b""
    assert ZeroFree().read(4, 8) == bytes(5) and ZeroFree().read(4, 3) == b""


@pytest.mark.parametrize("m,symbols", [(3, [2, 0, 1, 1]), (12, [10, 0, 3, 1]),
                                       (300, [11, 0, 3, 299])])
def test_explicit_free_json_roundtrip(m, symbols):
    # a digit string or a list, which reads back, item by item, as the
    # symbols
    free = ExplicitFree(symbols * 40)
    seq = LazySequence(FpBase(3, m, free))
    data = json.loads(json.dumps(seq.to_json_dict()))
    desc = data["base"]["free"]
    assert desc["kind"] == "explicit"
    assert isinstance(desc["symbols"], str if m <= 10 else list)
    assert [int(s) for s in desc["symbols"]] == list(free.symbols)


@pytest.mark.parametrize("m", [2, 3, 7, 100, 255])
def test_seeded_bulk_draw_matches_randrange_across_chunks(m):
    # 2^16 words per draw: 3 * 2^16 symbols cross at least two draws
    count = 3 * (1 << 16)
    for seed in (0, 901):
        ref = random.Random(seed)
        want = bytes(ref.randrange(m) for _ in range(count))
        assert SeededFree(seed, m).read(1, count) == want
        s, rng, got = SeededFree(seed, m), random.Random(m), bytearray()
        while len(got) < count:
            if rng.random() < 0.3:
                got.append(s.symbol(len(got) + 1))
            else:
                first = len(got) + 1
                got += s.read(first, min(count, first + rng.randrange(40_000)))
        assert bytes(got) == want


# ------------------------------------------------------ one-buffer prefix ---

def _either(fn):
    """('ok', symbols as a tuple) or (exception type, message)."""
    try:
        return "ok", tuple(fn())
    except (ValueError, SourceExhaustedError) as exc:
        return type(exc), str(exc)


def _walked(seq, n, i=1):
    """Symbols i..n read one by one through index, as a Word: the outcome
    a window (a prefix when i = 1) must have, error included."""
    return Word([seq.index(j) for j in range(i, n + 1)], seq.alphabet).symbols


class LooseSource(SymbolSource):
    """A periodic source with only `symbol_at`, which hands out its
    symbols unchecked."""

    def __init__(self, symbols, m):
        self.symbols = symbols
        self.alphabet = Alphabet(m)

    def symbol_at(self, j):
        return self.symbols[(j - 1) % len(self.symbols)]


@st.composite
def overlays(draw):
    """(seq, n): a random base under a random event table, and a prefix
    length that may end inside an event."""
    m = draw(st.sampled_from([2, 3, 5, 300]))
    kind = draw(st.sampled_from(["fp", "periodic", "explicit"]))
    if kind == "fp":
        p = draw(st.integers(2, 7))
        free = draw(st.sampled_from(["zero", "seeded", "explicit"]))
        if free == "zero":
            free = ZeroFree()
        elif free == "seeded":
            free = SeededFree(draw(st.integers(0, 99)), m)
        else:   # long enough for most prefixes, short for a few
            free = ExplicitFree(draw(st.lists(st.integers(0, m - 1),
                                              min_size=0, max_size=300)))
        base = FpBase(p, m, free)
        reach = 3 * p
    else:
        word = Word(draw(st.lists(st.integers(0, m - 1), min_size=1,
                                  max_size=400 if kind == "explicit" else 9)),
                    Alphabet(m))
        base = (PeriodicBase if kind == "periodic" else ExplicitBase)(word)
        reach = 12
    events, pos = [], 1
    for gap, length in draw(st.lists(st.tuples(st.integers(0, reach),
                                               st.integers(1, 24)),
                                     max_size=8)):
        pos += gap
        symbols = draw(st.lists(st.integers(0, m - 1), min_size=length,
                                max_size=length))
        events.append((pos, Word(symbols, Alphabet(m))))
        pos += length
    seq = LazySequence(base, tuple(events))
    if events and draw(st.booleans()):   # end inside an event
        start, word = draw(st.sampled_from(events))
        n = start + draw(st.integers(0, len(word) - 1))
    else:
        n = draw(st.integers(0, pos + 3 * reach))
    return seq, n


@settings(max_examples=300, deadline=None)
@given(overlays())
# a window starting inside the opening zeros, then one starting mid-block
@example((LazySequence(FpBase(5, 2, SeededFree(3, 2)),
                       ((3, Word.from_digits("11", 2)),
                        (13, Word.from_digits("0110", 2)))), 40))
def test_prefix_is_the_symbols_read_one_by_one(case):
    seq, n = case
    want = _either(lambda: _walked(seq, n))
    got = _either(lambda: seq.prefix(n).symbols)
    assert got == want, (seq, n)
    if want[0] == "ok" and seq.alphabet.m <= 256:
        assert isinstance(seq.prefix(n).symbols, bytes)


@settings(max_examples=300, deadline=None)
@given(overlays(), st.data())
def test_a_window_is_the_symbols_read_one_by_one(case, data):
    # windows that start anywhere: in the opening, mid-block, inside an
    # event or past the end
    seq, n = case
    i = data.draw(st.integers(1, n + 2))
    want = _either(lambda: _walked(seq, n, i))
    assert _either(lambda: seq.window(i, n)) == want, (seq, i, n)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(2, 6),
       st.lists(st.integers(-1, 6), max_size=80), st.integers(0, 160))
def test_a_bad_free_stream_raises_as_reading_one_by_one_does(m, p, symbols, n):
    seq = LazySequence(FpBase(p, m, ExplicitFree(symbols)),
                       ((p + 2, Word.from_digits("1" * (p + 1), m)),))
    assert _either(lambda: seq.prefix(n).symbols) == \
        _either(lambda: _walked(seq, n))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.lists(st.integers(0, 7), min_size=1,
                                             max_size=12),
       st.integers(0, 60))
@example(2, [0, 1, 5], 10)
def test_a_bad_source_window_raises_as_a_word_over_it_does(m, symbols, n):
    seq = LazySequence(LooseSource(symbols, m),
                       ((4, Word.from_digits("10", m)),
                        (11, Word.from_digits("0", m))))
    assert _either(lambda: seq.prefix(n).symbols) == \
        _either(lambda: _walked(seq, n))


@pytest.mark.parametrize("m", [3, 300])
def test_a_symbol_that_is_not_an_int_never_reaches_a_word(m):
    # past 256 symbols the buffers are lists, which would hold a float
    for seq, message in (
            (LazySequence(LooseSource([0, 1.5, 2], m)),
             "symbol 1.5 is not an integer"),
            (LazySequence(FpBase(3, m, ExplicitFree([1, 0.25, 0] * 9))),
             "free stream produced symbol 0.25 outside alphabet")):
        with pytest.raises(ValueError, match=message):
            seq.prefix(20)


@pytest.mark.parametrize("free", ["zero", "seeded"])
def test_one_buffer_prefix_peaks_at_two_bytes_per_symbol(free):
    # the prefix's bytearray and the Word's bytes, with nothing the size of
    # the prefix beside them (a warm seeded cache allocates nothing)
    n = 10 ** 6
    stream = ZeroFree() if free == "zero" else SeededFree(7, 2)
    seq = LazySequence(FpBase(3, 2, stream), ((10, Word.from_digits("1101", 2)),),
                       cap=n)
    seq.prefix(n)
    tracemalloc.start()
    try:
        word = seq.prefix(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 2.01, f"{peak / n:.4f} bytes per symbol"
    assert len(word) == n


def test_fill_writes_exactly_its_window_over_any_bytes():
    rng = random.Random(12)
    word = Word([rng.randrange(3) for _ in range(50)], Alphabet(3))
    sources = [PeriodicBase(word.prefix(7)), ExplicitBase(word),
               LooseSource([2, 0, 1, 1], 3)]
    sources += [FpBase(p, 3, make()) for p in (2, 3, 5)
                for make in (ZeroFree, lambda: SeededFree(4, 3),
                             lambda: ExplicitFree([2, 1] * 40))]
    for source in sources:
        for _ in range(40):
            i = rng.randint(1, 50)
            j = rng.randint(i - 1, 50)
            at = rng.randint(0, 5)
            buf = bytearray(b"\xaa" * (at + j - i + 9))
            source.fill(buf, at, i, j)
            want = bytes(source.symbol_at(x) for x in range(i, j + 1))
            assert buf == b"\xaa" * at + want + b"\xaa" * 8, (source, i, j)


# ------------------------------------------------------------ bracket audit ---

def _returns_or_raises(fn):
    """The ReturnTimes fn returns, or (exception type, message)."""
    try:
        return fn()
    except (ValueError, SourceExhaustedError, CapacityError) as exc:
        return type(exc), str(exc)


@st.composite
def marker_plans(draw):
    """(seq, horizon, max_n): apply_insertions over a random term table
    whose later markers copy earlier ones whole (n past an earlier
    marker's end) or cut off (n inside it), on a zero, seeded or explicit
    stream; the horizon ends at the last marker or anywhere near it."""
    p = draw(st.integers(2, 5))
    m = draw(st.sampled_from([2, 3, 300]))
    kind = draw(st.sampled_from(["zero", "seeded", "explicit"]))
    if kind == "zero":
        free = ZeroFree()
    elif kind == "seeded":
        free = SeededFree(draw(st.integers(0, 99)), m)
    else:   # long enough for most horizons, short for a few
        free = ExplicitFree(draw(st.lists(st.integers(0, m - 1),
                                          max_size=400)))
    n, ell = draw(st.integers(1, 2 * p)), draw(st.integers(p + 2, 4 * p))
    terms = [(n, ell)]
    for _ in range(draw(st.integers(1, 5))):
        n_next = draw(st.integers(n + 1, ell + n + 10))
        ell = draw(st.integers(max(ell + n + 3, n_next + 2),
                               max(ell + n + 3, n_next + 2) + 4 * n_next))
        n = n_next
        terms.append((n, ell))
    try:
        seq = apply_insertions(InsertionPlan(p, m, tuple(terms)), free)
    except (ValueError, SourceExhaustedError):
        assume(False)   # the stream is too short for the markers themselves
    end = ell + n + 2
    horizon = end if draw(st.booleans()) else draw(st.integers(1, end + 20))
    max_n = draw(st.one_of(st.none(), st.integers(1, horizon)))
    return seq, horizon, max_n


@settings(max_examples=300, deadline=None)
@given(marker_plans())
# R_2 = 1 on the opening, then the whole-copy and cut-off candidates
@example((apply_insertions(InsertionPlan(3, 2, ((2, 6), (9, 11), (20, 24))),
                           ZeroFree()), 46, None))
# an empty horizon, a negative one and one past the cap
@example((apply_insertions(InsertionPlan(3, 2, ((2, 6), (9, 11))),
                           ZeroFree(), cap=30), 0, None))
@example((apply_insertions(InsertionPlan(3, 2, ((2, 6), (9, 11))),
                           ZeroFree(), cap=30), -1, None))
@example((apply_insertions(InsertionPlan(3, 2, ((2, 6), (9, 11))),
                           ZeroFree(), cap=30), 31, 20))
def test_bracket_return_times_matches_the_full_rescan(case):
    seq, horizon, max_n = case
    want = _returns_or_raises(lambda: return_times_all(seq.prefix(horizon),
                                                       max_n=max_n))
    got = _returns_or_raises(lambda: bracket_return_times(seq, horizon,
                                                          max_n))
    assert got == want, (seq.events, horizon, max_n)
    if isinstance(want, ReturnTimes):
        assert (got.values, got.length, got.top) == \
            (want.values, want.length, want.top)


@pytest.mark.parametrize("seq,reason", [
    # the opening 0^p, but periodic: its zero runs come back whole
    (LazySequence(PeriodicBase(Word.from_digits("0001101", 2))), "FpBase"),
    (LazySequence(FpBase(3, 2), ((8, Word.from_digits("1100", 2)),)),
     "no marker"),
    (LazySequence(FpBase(3, 2), ((8, Word.from_digits("0011", 2)),)),
     "no marker"),
    # a marker inside the opening splits its zeros
    (LazySequence(FpBase(3, 2), ((2, Word.from_digits("101", 2)),)),
     "no marker"),
])
def test_the_bracket_audit_refuses_a_point_outside_its_premise(seq, reason):
    with pytest.raises(ValueError, match=reason):
        bracket_return_times(seq, 40, 20)


def test_the_bracket_audit_reads_a_sliver_of_its_horizon(monkeypatch):
    # the verify request --osc 1/2 2 --alpha 2 --beta 5/2 at cap 2 000 000
    # (p = 3, m = 2, 12 terms, zero stream): its audit reads a few hundred
    # symbols where the re-scan materializes the whole horizon
    cap = 2_000_000
    phi = OscLogPhi("1/2", "2")
    plan = plan_full_dimension(phi, ExtReal(2), ExtReal("5/2"), count=12)
    sub = truncate_plan(plan, materializable_term_count(plan, cap))
    lo, hi, ell = certified_brackets(sub)[-1]
    horizon = ell + hi + 2
    assert horizon == 1_846_794
    seq = apply_insertions(sub, ZeroFree(), cap=cap)
    read = []
    window = LazySequence.window
    monkeypatch.setattr(LazySequence, "window", lambda self, i, j: (
        read.append(max(0, j - i + 1)), window(self, i, j))[1])
    rt = bracket_return_times(seq, horizon, hi)
    monkeypatch.undo()
    assert sum(read) < horizon / 100, sum(read)
    assert rt == return_times_all(seq.prefix(horizon), max_n=hi)
