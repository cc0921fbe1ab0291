"""Block-constrained base points and prescribed-return-time insertions.

The base family F_p consists of sequences that open with p zeros and then
run in blocks of length p whose first and last symbols are 1; the p-2
interior symbols of each block are unconstrained.  Distinct interior
choices give distinct points, which is what makes the family a positive-
dimension Cantor set inside the full shift.

On top of a base point, an InsertionPlan places marker words: term k
contributes w_k = 1 . (prefix of length n_k) . (next symbol + 1 mod m) . 1
at position ell_k.  Because the plan keeps ell_{k+1} >= ell_k + n_k + 3,
an inserted word occupies [ell_k, ell_k + n_k + 2] in the final sequence
and is never displaced by later insertions, so the whole limit object is
a base stream plus a sorted event table — exactly a LazySequence.

The payoff: for bracket indices i past a small threshold, the first
return time of the length-n prefix equals ell_{i+1} for every n with
n_i < n <= n_{i+1}.  certified_brackets lists those brackets, and
bracket_return_times measures R_n of a constructed point at the few
shifts where a return can start, without materializing it.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Optional, Sequence, Union

from .errors import PlanValidityError, SourceExhaustedError
from .return_time import ReturnTimes, Runs, _common_prefix, _depth
from .shift_core import (DEFAULT_MATERIALIZATION_CAP, Alphabet, LazySequence,
                         SymbolSource, Word, _tile, join_stores, symbol_store)


# --------------------------------------------------------------------------
# free-symbol streams
# --------------------------------------------------------------------------

class FreeStream:
    """Supplies the unconstrained interior symbols, by 1-based ordinal."""

    def symbol(self, ordinal: int) -> int:
        raise NotImplementedError

    def read(self, first: int, last: int) -> Union[bytes, tuple]:
        """Symbols at ordinals first..last as a symbol store, stopping short
        where the stream ends.  This default reads them one by one."""
        out = []
        try:
            for ordinal in range(first, last + 1):
                out.append(self.symbol(ordinal))
        except SourceExhaustedError:
            pass
        return symbol_store(out)

    def within(self, m: int) -> bool:
        """Whether every ordinal holds a symbol below m, so that no read
        can run short or leave an m-symbol alphabet.  This default does
        not know."""
        return False

    def descriptor(self) -> dict:
        raise NotImplementedError


class ZeroFree(FreeStream):
    def symbol(self, ordinal: int) -> int:
        return 0

    def read(self, first: int, last: int) -> bytes:
        return bytes(max(0, last - first + 1))

    def within(self, m: int) -> bool:
        return True

    def descriptor(self) -> dict:
        return {"kind": "zero"}


_DRAW_WORDS = 1 << 16   # 32-bit words per bulk draw of SeededFree


class SeededFree(FreeStream):
    """Deterministic stream drawn once from random.Random(seed).

    The symbols are those of one randrange(m) per ordinal, in order.  The
    cache only ever grows, and always by appending from the same generator
    state, so any access order, one by one or in bulk, yields the same
    symbols.  For m <= 255 it draws 32-bit words in bulk and applies
    randrange's own rule to each: keep the top k = m.bit_length() bits,
    reject values of m or more.  That consumes the generator's words in
    the order randrange would.
    """

    def __init__(self, seed: int, m: int):
        self.seed = seed
        self.m = m
        self._rng = random.Random(seed)
        self._bulk = 0 < m <= 255
        if self._bulk:
            shift = 8 - m.bit_length()
            self._table = bytes(b >> shift for b in range(256))
            self._reject = bytes(b for b in range(256) if b >> shift >= m)
            self._cache = bytearray()
        else:
            self._cache = []

    def _fill(self, ordinal: int) -> None:
        more = ordinal - len(self._cache)
        if more <= 0:
            return
        if not self._bulk:
            self._cache.extend(map(self._rng.randrange, repeat(self.m, more)))
            return
        while more > 0:
            # at least half the words are accepted: m >= 2^(k-1)
            words = min(2 * more + 64, _DRAW_WORDS)
            raw = self._rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            # raw[3::4]: each word's top byte, in draw order
            drawn = raw[3::4].translate(self._table, self._reject)
            self._cache += drawn
            more -= len(drawn)

    def symbol(self, ordinal: int) -> int:
        self._fill(ordinal)
        return self._cache[ordinal - 1]

    def read(self, first: int, last: int) -> Union[bytes, tuple]:
        self._fill(last)
        if self._bulk:
            # one copy, straight from the cache (a bytearray slice is a copy)
            with memoryview(self._cache) as cache:
                return cache[first - 1:last].tobytes()
        return symbol_store(self._cache[first - 1:last], self.m)

    def within(self, m: int) -> bool:
        return 0 < self.m <= m

    def descriptor(self) -> dict:
        return {"kind": "seeded", "seed": self.seed, "m": self.m}


class ExplicitFree(FreeStream):
    def __init__(self, symbols: Sequence[int]):
        self.symbols = symbol_store(symbols)

    def symbol(self, ordinal: int) -> int:
        if ordinal > len(self.symbols):
            raise SourceExhaustedError(
                f"free stream of length {len(self.symbols)} read at {ordinal}")
        return self.symbols[ordinal - 1]

    def read(self, first: int, last: int) -> Union[bytes, tuple]:
        return self.symbols[first - 1:last]

    def descriptor(self) -> dict:
        """Symbols as a digit string when all are below 10, else a list."""
        if max(self.symbols, default=0) < 10:
            return {"kind": "explicit",
                    "symbols": "".join(str(s) for s in self.symbols)}
        return {"kind": "explicit", "symbols": list(self.symbols)}


# --------------------------------------------------------------------------
# the base family
# --------------------------------------------------------------------------

def _free_slots(p: int, j: int) -> int:
    """Number of free slots among positions 1..j of the block base.
    Position j = kp + 1 + t (0 <= t < p) lies in block k; blocks 1..k-1
    hold p - 2 interior slots each, and block k has min(t, p - 2) of its
    own at or before j (a wall at offset 0, interiors at 1..p-2)."""
    if j <= p:
        return 0
    k, t = divmod(j - 1, p)
    return (k - 1) * (p - 2) + min(t, p - 2)


class FpBase(SymbolSource):
    """x_j = 0 for j <= p; blocks [pk+1, pk+p] start and end with 1.

    The interior slot at offset r (1..p-2) of block k >= 1, position
    kp + 1 + r, holds free symbol number (k-1)(p-2) + r.  `symbol_at`
    reads one position and `fill` writes a run of positions in bulk (see
    there), raising exactly what reading them in order would.
    """

    def __init__(self, p: int, m: int, free: Optional[FreeStream] = None):
        if p < 2:
            raise ValueError(f"block length p must be at least 2, got {p}")
        self.p = p
        self._alphabet = Alphabet(m)
        self._symbols = bytes(range(min(m, 256)))
        self._block = b"\x01" + bytes(p - 2) + b"\x01"
        self.free = free if free is not None else ZeroFree()

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    def symbol_at(self, j: int) -> int:
        if j < 1:
            raise IndexError("positions start at 1")
        p = self.p
        if j <= p:
            return 0
        r = j % p
        if r in (0, 1):
            return 1
        # interior slot: block k = (j-1)//p >= 1, offset r-1 in 1..p-2
        k = (j - 1) // p
        return self._free_symbol((k - 1) * (p - 2) + (r - 1))

    def _free_symbol(self, ordinal: int) -> int:
        s = self.free.symbol(ordinal)
        if not self._alphabet.contains(s):
            raise ValueError(f"free stream produced symbol {s} outside alphabet")
        return s

    def _in_alphabet(self, free: Union[bytes, tuple]) -> bool:
        """Whether every symbol of a nonempty free-stream read is in the
        alphabet: an int in [0, m)."""
        if isinstance(free, bytes):
            return not free.translate(None, self._symbols)
        # plain ints only; any other type takes the per-ordinal path
        return (set(map(type, free)) == {int}
                and min(free) >= 0 and max(free) < self._alphabet.m)

    def _free_read(self, first: int, last: int) -> Union[bytes, tuple]:
        """Free symbols first..last (first <= last) as a symbol store: one
        read of the stream, checked once, by bytes.translate for bytes and
        for a tuple by a type scan and C-level min and max.  An
        out-of-alphabet, non-int or missing symbol sends the read through
        _free_symbol ordinal by ordinal,
        which raises what symbol_at would at the first bad one."""
        free = self.free.read(first, last)
        if len(free) != last - first + 1 or not self._in_alphabet(free):
            free = symbol_store(map(self._free_symbol, range(first, last + 1)),
                                self._alphabet.m)
        return free

    def fill(self, buf, at: int, i: int, j: int) -> None:
        """Write positions i..j into buf[at:at + j - i + 1], a bytearray,
        or a list past 256 symbols.

        The opening zeros are one write.  Walls and zero interiors are the
        block template 1 0^(p-2) 1, rotated to the first block position
        and tiled by doubling copies inside the buffer, so nothing the
        size of the window is allocated beside it.  Unless the stream is
        a ZeroFree, whose symbols the template already holds, one checked
        free-stream read of exactly the ordinals inside [i, j]
        (_free_read) is laid down by one strided copy per interior offset.
        """
        if j < i:
            return
        if i < 1:
            raise IndexError("positions start at 1")
        p = self.p
        s = max(i, p + 1)                      # first block position
        if s > i:
            zeros = min(s, j + 1) - i
            buf[at:at + zeros] = bytes(zeros)
        if s > j:
            return
        o = (s - 1) % p                        # offset of s in its block
        _tile(buf, at + s - i, at + j - i + 1,
              self._block[o:] + self._block[:o])
        first, last = _free_slots(p, i - 1) + 1, _free_slots(p, j)
        if first > last or type(self.free) is ZeroFree:
            return
        free = self._free_read(first, last)
        for r in range(1, p - 1):
            # blocks k whose slot r, at kp + 1 + r, lies in [i, j]
            k_lo = max(1, -((r + 1 - i) // p))   # ceil((i - 1 - r) / p)
            k_hi = (j - 1 - r) // p
            if k_lo > k_hi:
                continue
            to = at + k_lo * p + 1 + r - i
            src = (k_lo - 1) * (p - 2) + r - first
            count = k_hi - k_lo + 1
            # a strided bytearray write: through a memoryview it is a
            # per-element copy, several times slower
            buf[to:to + (count - 1) * p + 1:p] = \
                free[src:src + (count - 1) * (p - 2) + 1:p - 2]

    def descriptor(self) -> dict:
        return {"kind": "fp", "p": self.p, "m": self._alphabet.m,
                "free": self.free.descriptor()}


def fp_cylinder_count(p: int, n: int, m: int) -> int:
    """Number of depth-n cylinders meeting the family: m^(#free slots <= n).
    ValueError when p < 2 or m < 2, as FpBase."""
    if p < 2:
        raise ValueError(f"block length p must be at least 2, got {p}")
    return Alphabet(m).m ** _free_slots(p, n)


# --------------------------------------------------------------------------
# insertion plans
# --------------------------------------------------------------------------

def make_insertion_word(prefix: Word, next_symbol: int) -> Word:
    """1 . prefix . (next_symbol + 1 mod m) . 1 — the marker for one term."""
    a = prefix.alphabet
    # 1 and a residue mod m lie in every alphabet; the prefix is checked
    store = join_stores((symbol_store((1,), a.m), prefix.symbols,
                         symbol_store(((next_symbol + 1) % a.m, 1), a.m)),
                        a.m)
    return Word._checked(store, a)


_DECIMAL = re.compile("-?[0-9]+")


def _json_int(obj, key: str, where: str) -> int:
    """obj[key], a JSON integer or a string of ASCII decimal digits with
    an optional leading '-' (ell values travel as strings);
    PlanValidityError when it is missing or anything else."""
    if not isinstance(obj, dict) or key not in obj:
        raise PlanValidityError(f"{where} has no field {key!r}")
    value = obj[key]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise PlanValidityError(f"{where} field {key!r} must be an integer, "
                            f"got {value!r:.40}")


@dataclass(frozen=True)
class InsertionPlan:
    """Ordered (n_i, ell_i) pairs over a p-block base on m symbols."""

    p: int
    m: int
    terms: tuple[tuple[int, int], ...]
    case_tag: str = ""

    def __post_init__(self):
        if self.p < 2 or self.m < 2:
            raise PlanValidityError("need p >= 2 and m >= 2")
        for n, ell in self.terms:
            if n < 1 or ell < 1:
                raise PlanValidityError("term entries must be positive")

    @property
    def ns(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.terms)

    @property
    def ells(self) -> tuple[int, ...]:
        return tuple(ell for _, ell in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    # -- serialization; ell values grow far past 2^53, so they travel
    #    as decimal strings rather than JSON numbers
    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "case_tag": self.case_tag,
            "terms": [{"i": i + 1, "n": n, "ell": str(ell)}
                      for i, (n, ell) in enumerate(self.terms)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "InsertionPlan":
        """PlanValidityError names a missing or ill-typed field, or
        'terms' when there are fewer than the two that
        `check_plan_conditions` and a rate trajectory need."""
        terms = data.get("terms") if isinstance(data, dict) else None
        if not isinstance(terms, list):
            raise PlanValidityError("plan has no list field 'terms'")
        p = _json_int(data, "p", "plan")
        m = _json_int(data, "m", "plan")
        pairs = tuple((_json_int(t, "n", f"term {i}"),
                       _json_int(t, "ell", f"term {i}"))
                      for i, t in enumerate(terms, 1))
        if len(pairs) < 2:
            raise PlanValidityError(
                f"plan field 'terms' needs at least two terms, not "
                f"{len(pairs)}")
        return cls(p=p, m=m, terms=pairs, case_tag=data.get("case_tag", ""))

    @classmethod
    def from_json(cls, text: str) -> "InsertionPlan":
        return cls.from_json_dict(json.loads(text))


# condition (ii) of check_plan_conditions, as checked on finitely many terms
OVERHEAD_EPS = 0.5
OVERHEAD_TAIL = 1 / 3


def check_plan_conditions(plan: InsertionPlan) -> None:
    """Validate the two structural conditions a usable plan must satisfy.

    (i)  ell_{i+1} >= ell_i + n_i + 3 for every consecutive pair (exact),
         with the n_i strictly increasing;
    (ii) i*(n_i+3)/ell_i tends to 0 — finitely checkable only as: the
         final value is below OVERHEAD_EPS, and the maximum over the
         trailing OVERHEAD_TAIL of the terms does not exceed the maximum
         over the earlier terms (the ratio may oscillate when the position
         exponent does, but its envelope must not grow).

    Raises PlanValidityError with the first offending index.
    """
    terms = plan.terms
    if len(terms) < 2:
        raise PlanValidityError("a plan needs at least two terms")
    for i in range(len(terms) - 1):
        n_i, ell_i = terms[i]
        n_next, ell_next = terms[i + 1]
        if n_next <= n_i:
            raise PlanValidityError(
                f"prefix lengths must increase: n_{i + 1}={n_i}, n_{i + 2}={n_next}")
        if ell_next < ell_i + n_i + 3:
            raise PlanValidityError(
                f"gap condition fails at i={i + 1}: "
                f"ell={ell_next} < {ell_i} + {n_i} + 3")
    ratios = [(i + 1) * (n + 3) / ell for i, (n, ell) in enumerate(terms)]
    if ratios[-1] >= OVERHEAD_EPS:
        raise PlanValidityError(
            f"vanishing-overhead condition fails: final ratio "
            f"{ratios[-1]:.4g} >= {OVERHEAD_EPS}")
    tail = max(2, int(len(ratios) * OVERHEAD_TAIL))
    if len(ratios) > tail:
        tail_max = max(ratios[-tail:])
        head_max = max(ratios[:-tail])
        if tail_max > head_max * (1 + 1e-12):
            raise PlanValidityError(
                f"vanishing-overhead condition fails: trailing envelope "
                f"{tail_max:.4g} exceeds the earlier envelope {head_max:.4g}")


def _inserted(p: int, n: int, ell: int) -> bool:
    """Does term (n, ell) insert a marker?  Only past the constrained opening
    and past the n + 1 symbols the marker copies, which it would displace."""
    return ell - 1 > max(p, n)


def first_certified_index(plan: InsertionPlan) -> Optional[int]:
    """1-based least i with n_i > p whose term is inserted.

    From this index on, the return-time dictionary below is exact.
    """
    for i, (n, ell) in enumerate(plan.terms):
        if n > plan.p and _inserted(plan.p, n, ell):
            return i + 1
    return None


def certified_brackets(plan: InsertionPlan) -> list[tuple[int, int, int]]:
    """(n_i, n_{i+1}, ell_{i+1}) triples where R_n = ell_{i+1} is guaranteed
    for all n_i < n <= n_{i+1}."""
    i_min = first_certified_index(plan)
    if i_min is None:
        return []
    out = []
    for i in range(i_min - 1, len(plan.terms) - 1):
        n_lo = plan.terms[i][0]
        n_hi, ell_next = plan.terms[i + 1]
        out.append((n_lo, n_hi, ell_next))
    return out


def apply_insertions(plan: InsertionPlan,
                     free: Optional[FreeStream] = None,
                     cap: int = DEFAULT_MATERIALIZATION_CAP) -> LazySequence:
    """Run the iterative construction and return the limit sequence.

    A term is skipped when its marker would start inside the constrained
    opening or inside the n + 1 symbols it copies (ell - 1 <= max(p, n));
    the construction proper starts at the first term past that, and each
    marker word is read off the sequence built so far, so earlier
    insertions feed later markers.
    """
    base = FpBase(plan.p, plan.m, free)
    events: list[tuple[int, Word]] = []
    seq = LazySequence(base, (), cap=cap)
    for n_k, ell_k in plan.terms:
        if not _inserted(plan.p, n_k, ell_k):
            continue
        pref = seq.prefix(n_k + 1)
        head = Word._checked(pref.symbols[:n_k], pref.alphabet)
        w = make_insertion_word(head, pref.symbols[n_k])
        events.append((ell_k, w))
        seq = LazySequence(base, tuple(events), cap=cap)
    return seq


def _zero_starts(syms: Union[bytes, tuple], p: int) -> Iterator[int]:
    """0-based starts of 0^p in a symbol store, overlapping ones included."""
    text = syms if isinstance(syms, bytes) else bytes(map(bool, syms))
    zeros = bytes(p)
    hit = text.find(zeros)
    while hit != -1:
        yield hit
        hit = text.find(zeros, hit + 1)


def bracket_return_times(seq: LazySequence, horizon: int,
                         max_n: Optional[int] = None) -> ReturnTimes:
    """R_n for n = 1..max_n (default: horizon) of the first `horizon`
    symbols of a constructed point, read only at the shifts where a return
    can start: the ReturnTimes that
    return_times_all(seq.prefix(horizon), max_n=max_n) returns, and what
    it raises.

    The premise is the shape apply_insertions builds: an FpBase, and event
    words that begin and end with 1, all placed past the opening 0^p.
    Past the opening, every zero run of the base is then at most p - 2
    long and bounded by 1s, and the 1s that bound each event word keep its
    zeros apart from the base's.  So for n >= p a return of x_1..x_n,
    which opens with 0^p, starts at a start of 0^p inside an event word:
    those are the candidate shifts.  R_n = 1 for n < p, and for n >= p
    R_n is the least candidate whose agreement with the prefix reaches n.
    An agreement is measured by doubling windows of the sequence
    (LazySequence.window) against a head of the prefix, read once and
    doubled as it is needed.  ValueError when the premise fails.

    A free stream that could run short or leave the alphabet (see
    FreeStream.within) is first read through the horizon, so that it
    raises what the materialized prefix would, before any window.
    """
    base = seq.base
    if not isinstance(base, FpBase):
        raise ValueError("the bracket audit needs an FpBase, not a "
                         f"{type(base).__name__}")
    p = base.p
    for start, word in seq.events:
        if start <= p or word.symbols[0] != 1 or word.symbols[-1] != 1:
            raise ValueError(f"the event at {start} is no marker: the "
                             "audit needs words that begin and end with 1, "
                             f"placed past the opening 0^{p}")
    if horizon < 0:
        raise ValueError("prefix length must be nonnegative")
    seq._check_cap(horizon)
    top = horizon if max_n is None else _depth(max_n, "max_n")
    if horizon == 0:
        return ReturnTimes(Runs(), 0, 0)
    if not 1 <= top <= horizon:
        raise ValueError(f"need 1 <= max_n <= {horizon}")
    if not base.free.within(base.alphabet.m):
        inserted = sum(min(len(word), horizon - start + 1)
                       for start, word in seq.events if start <= horizon)
        last = _free_slots(p, horizon - inserted)
        if last:
            base._free_read(1, last)
    # x_2..x_{n+1} = 0^n for n < p: the run R_n = 1 to depth `best`
    best = min(top, p - 1, horizon - 1)
    returns, ends = ([1], [best]) if best else ([], [])
    if top < p or horizon <= p:
        return ReturnTimes(Runs(tuple(returns), tuple(ends)), horizon, top)
    head = seq.window(1, p)

    def agreement(j: int, cap: int) -> int:
        """Length of the common prefix of x_{j+1}.. and x_1.., at most
        cap; the first p symbols agree, j + 1 being a start of 0^p."""
        nonlocal head
        done = width = p
        while done < cap:
            width = min(width, cap - done)
            if len(head) < done + width:
                head += seq.window(len(head) + 1,
                                   min(top, max(2 * len(head), done + width)))
            got = seq.window(j + done + 1, j + done + width)
            want = head[done:done + width]
            if got != want:
                return done + _common_prefix(got + want, 0, width, width)
            done += width
            width *= 2
        return cap

    # the runs hold R_1..R_best, best = p - 1 here
    for start, word in seq.events:
        if start - 1 + p > horizon:
            break
        for h in _zero_starts(word.symbols, p):
            j = start + h - 1
            cap = min(horizon - j, top)
            if cap <= best:
                continue
            reach = agreement(j, cap)
            if reach > best:
                # no earlier candidate reaches past best, and j reaches
                # every depth up to reach: one run, j above every earlier
                # value, since candidates come in increasing order
                returns.append(j)
                ends.append(reach)
                best = reach
    return ReturnTimes(Runs(tuple(returns), tuple(ends)), horizon, top)


def materializable_term_count(plan: InsertionPlan, cap: int) -> int:
    """How many leading terms fit under the materialization cap.

    A term is usable when its marker region [ell, ell + n + 2] and the
    prefix needed to build the marker both sit below the cap.
    """
    t = 0
    for n, ell in plan.terms:
        if ell + n + 2 > cap or n + 1 > cap:
            break
        t += 1
    return t


def truncate_plan(plan: InsertionPlan, count: int) -> InsertionPlan:
    return InsertionPlan(p=plan.p, m=plan.m, terms=plan.terms[:count],
                         case_tag=plan.case_tag)


