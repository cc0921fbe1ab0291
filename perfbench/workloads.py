"""The three benchmark workloads: seeded inputs, the timed op, output checks.

Each workload builds a deck of requests from the seed; one pass runs every
request of the deck once, in a fixed order (a fixed order keeps the peak
memory of a run independent of the seed).  `run` is the timed op and
calls the library only through module attributes looked up at call time,
so the tracer's rebinding reaches it.  `check` runs outside the timed
region and uses its own oracle, never the engine under test.

A check returns (ok, reason, stats).  `stats` feeds per-layer numbers that
only the workload can see (symbols analysed, brackets audited, plan terms).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import recurrencelab as rl
import recurrencelab.cli as rl_cli


@dataclass(frozen=True)
class Request:
    label: str        # identical across seeds; names the request in reports
    payload: Any


@dataclass(frozen=True)
class Workload:
    name: str
    make_deck: Callable[[int], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], tuple]
    warmup: Callable[[], None]
    pass_budget_s: float         # share of --seconds one pass is budgeted at
    known_defects: dict          # request label -> defect id (README table)


# ---------------------------------------------------------------------------
# measure_words
# ---------------------------------------------------------------------------

WORDS_PER_PASS = 12
LOW_ENTROPY = {3: "fibonacci", 7: "periodic", 11: "fibonacci"}
PERIOD = 7
NOISE_BLOCK = 1000            # one flipped symbol per block of a periodic word
PRIME_WINDOW, PRIME_DEPTH = 4096, 256
WITNESS_ALPHA, WITNESS_EPS = 0.5, 0.1


def _fibonacci_word(rng: random.Random, length: int, m: int) -> list[int]:
    a, b = rng.sample(range(m), 2)
    prev, cur = "0", "01"
    while len(cur) < length:
        prev, cur = cur, cur + prev
    return [a if ch == "0" else b for ch in cur[:length]]


def _periodic_word(rng: random.Random, length: int, m: int) -> list[int]:
    period = [rng.randrange(m) for _ in range(PERIOD)]
    if len(set(period)) == 1:
        period[0] = (period[0] + 1) % m
    word = [period[i % PERIOD] for i in range(length)]
    for start in range(0, length, NOISE_BLOCK):
        i = start + rng.randrange(min(NOISE_BLOCK, length - start))
        word[i] = (word[i] + 1 + rng.randrange(m - 1)) % m
    return word


def _measure_deck(seed: int) -> list:
    """Lengths are the quantiles of a log-uniform law on [1e4, 2e5], so
    every pass has the same size profile; the seed picks the symbols."""
    rng = random.Random(seed)
    deck = []
    for k in range(WORDS_PER_PASS):
        length = round(1e4 * 20 ** ((k + 0.5) / WORDS_PER_PASS))
        m = (2, 3, 5)[k % 3]
        kind = LOW_ENTROPY.get(k, "random")
        if kind == "fibonacci":
            symbols = _fibonacci_word(rng, length, m)
        elif kind == "periodic":
            symbols = _periodic_word(rng, length, m)
        else:
            symbols = [rng.randrange(m) for _ in range(length)]
        deck.append(Request(f"{kind}-m{m}-L{length}",
                            (symbols, m, rng.randrange(1 << 30))))
    return deck


def _measure_run(payload):
    symbols, m = payload[:2]
    word = rl.Word.from_iterable(symbols, m)
    results = rl.return_times_all(word)
    traj = rl.rate_trajectory(word)
    # the trailing half of a max_n = L trajectory holds only lower bounds,
    # so the extremes are taken over the whole trajectory
    extremes = rl.running_extremes(traj, 1.0)
    witnesses = rl.recurrence_witnesses(word, WITNESS_ALPHA, WITNESS_EPS)
    head = rl.Word.from_iterable(symbols[:PRIME_WINDOW], m)
    primes = [rl.return_time_prime(head, n) for n in range(1, PRIME_DEPTH + 1)]
    return results, traj, extremes, witnesses, primes


def _oracle(data: bytes, n: int, start: int) -> tuple[int, bool]:
    """First return of the length-n prefix at a shift >= start, by bytes.find."""
    j = data.find(data[:n], start)
    if j == -1:
        return max(len(data) - n, start - 1), False
    return j, True


def _measure_check(payload, out):
    symbols, m, check_seed = payload
    results, traj, (a_hat, b_hat), witnesses, primes = out
    data = bytes(symbols)
    L = len(data)
    stats = {"symbols": L}
    if len(results) != L:
        return False, f"{len(results)} return times for L={L}", stats
    rng = random.Random(check_seed)
    depths = sorted(set(list(range(1, 33))
                        + [round(math.exp(rng.uniform(math.log(33), math.log(L))))
                           for _ in range(32)] + [L]))
    entries = {e.n: e for e in traj.entries}
    wit = dict(witnesses)
    cutoff = WITNESS_ALPHA + WITNESS_EPS
    for n in depths:
        value, exact = _oracle(data, n, 1)
        res = results[n - 1]
        if (res.n, res.value, res.exact) != (n, value, exact):
            return False, f"R_{n}: engine {res}, oracle {value} exact={exact}", stats
        if exact and data[value:value + n] != data[:n]:
            return False, f"R_{n} = {value} fails the definition", stats
        if n >= 2 and value >= 1:
            e = entries.get(n)
            want = math.log(value) / math.log(n)
            if e is None or e.exact != exact or abs(e.ratio - want) > 1e-12 * want:
                return False, f"trajectory entry at n={n} is {e}", stats
        is_witness = exact and value <= math.exp(cutoff * math.log(n))
        if (n in wit) != is_witness or (is_witness and wit[n] != value):
            return False, f"witness status of n={n} disagrees with the oracle", stats
    for n, j in rng.sample(witnesses, min(32, len(witnesses))):
        if _oracle(data, n, 1) != (j, True):
            return False, f"witness ({n}, {j}) disagrees with the oracle", stats
    exact_ratios = [e.ratio for e in traj.entries if e.exact]
    if (a_hat, b_hat) != (min(exact_ratios), max(e.ratio for e in traj.entries)):
        return False, f"running extremes {a_hat}, {b_hat} off the trajectory", stats
    head = data[:PRIME_WINDOW]
    for n, res in enumerate(primes, start=1):
        value, exact = _oracle(head, n, n)
        if (res.value, res.exact) != (value, exact):
            return False, f"R'_{n}: engine {res}, oracle {value} exact={exact}", stats
    return True, "", stats


def _measure_warmup():
    _measure_run(([0, 1, 1, 0, 1] * 200, 2, 0))


# ---------------------------------------------------------------------------
# verify_cli
# ---------------------------------------------------------------------------

VERIFY_CAP = "2000000"
VERIFY_MIX = [
    (["--phi", "log(n)"], "2", "2"),
    (["--phi", "log(n)"], "3", "3"),
    (["--phi", "log(n)"], "inf", "inf"),
    (["--phi", "log(n)"], "1", "inf"),
    (["--phi", "2*log(n)"], "1", "1"),
    (["--phi", "log(n)^1.5"], "1", "2"),
    (["--phi", "n"], "1", "2"),
    (["--osc", "4/5", "6/5"], "5/6", "5/4"),
    (["--osc", "1", "3"], "1", "1"),
    (["--osc", "1/2", "2"], "2", "5/2"),
]
FREE_VARIANT = (["--phi", "log(n)"], "3", "3")


def _verify_argv(profile, alpha, beta) -> list[str]:
    return ["verify", *profile, "--alpha", alpha, "--beta", beta]


def _verify_deck(seed: int) -> list:
    rng = random.Random(seed)
    cap = ["--cap", VERIFY_CAP]
    deck = [Request(" ".join(_verify_argv(*c)), _verify_argv(*c) + cap)
            for c in VERIFY_MIX]
    argv = _verify_argv(*FREE_VARIANT)
    free = ["--free", f"seed:{rng.randrange(1 << 30)}"]
    deck.append(Request(" ".join(argv) + " --free seed:<s>", argv + cap + free))
    return deck


def _verify_run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = rl_cli.main(argv)
    return code, out.getvalue()


def _full_bracket_count(plan: dict) -> int:
    """Brackets of the untruncated plan: terms after the first with
    n > p and ell - 1 > p, which is where certification starts."""
    p = plan["p"]
    terms = [(int(t["n"]), int(t["ell"])) for t in plan["terms"]]
    for i, (n, ell) in enumerate(terms):
        if n > p and ell - 1 > p:
            return len(terms) - 1 - i
    return 0


def _verify_check(argv, out):
    code, text = out
    stats = {"audited": 0, "full_brackets": 0, "rates_fail": 0}
    if code not in (0, 1):
        return False, f"exit code {code}", stats
    lines = [json.loads(ln) for ln in text.splitlines() if ln.strip()]
    plan = next((ln for ln in lines if "terms" in ln), None)
    brackets = [ln for ln in lines if "bracket" in ln]
    report = lines[-1] if lines and "rates_ok" in lines[-1] else None
    if plan is None or report is None:
        return False, "missing plan or rate report in the output", stats
    stats["audited"] = len(brackets)
    stats["full_brackets"] = _full_bracket_count(plan)
    if not brackets:
        return False, "no bracket audited", stats
    bad = [b for b in brackets if b["mismatches"] != 0]
    if bad:
        return False, "; ".join(f"bracket {b['bracket']} ell={b['ell']}: "
                                f"{b['mismatches']} mismatches" for b in bad), stats
    if report["brackets"] != len(brackets):
        return False, "rate report counts a different number of brackets", stats
    if code == 1:
        if report["rates_ok"]:
            return False, "exit 1 although brackets and rates pass", stats
        # the rate verdict is a finite-count estimate: counted, not failed
        stats["rates_fail"] = 1
    return True, "", stats


def _verify_warmup():
    _verify_run(_verify_argv(["--phi", "log(n)"], "2", "2") + ["--cap", VERIFY_CAP])


# ---------------------------------------------------------------------------
# synthesize_plans
# ---------------------------------------------------------------------------

# profile -> true (gamma, delta), None standing for infinity; pinned by hand
# from the profile's asymptotics, never from the engine's own estimate
TRUE_EXTREMES = {
    "log(n)": (Fraction(1), Fraction(1)),
    "log(n)^1.5": (None, None),
    "log(n)^2": (None, None),
    "n": (None, None),
    "n^0.5": (None, None),
    "log(n)+log(log(n))": (Fraction(1), Fraction(1)),
    "osc 4/5 6/5": (Fraction(6, 5), Fraction(4, 5)),
    "osc 1 3": (Fraction(3), Fraction(1)),
    "osc 1/2 2": (Fraction(2), Fraction(1, 2)),
}
PLAN_COUNTS = (12, 30, 60, 120)
PLAN_MIX = [                           # run at every count in PLAN_COUNTS
    ("log(n)", "inf", "inf"),          # i
    ("log(n)", "1", "inf"),            # ii
    ("log(n)^1.5", "1", "2"),          # iii
    ("n", "1", "2"),                   # iii
    ("log(n)^2", "0", "1"),            # iv
    ("n^0.5", "0", "2"),               # iv
    ("log(n)", "2", "2"),              # v, unit-ratio ladder
    ("osc 4/5 6/5", "5/6", "5/4"),     # v, geometric ladder
    ("osc 1 3", "1", "1"),             # vi
    ("osc 1/2 2", "2", "5/2"),         # vi
    ("log(n)", "1/2", "1"),            # dimension zero: must refuse
]
DEFECT_MIX = [                         # reproduced defects, see README
    ("log(n)+log(log(n))", "0.9", "0.9", 12),   # D1
    ("log(n)", "1", "3", 12),                   # D2
    ("log(n)", "1", "2", 30),                   # D2
    ("n^0.5", "0", "inf", 12),                  # D3
    ("log(n)^2", "1", "inf", 4),                # D3
]
GRID_SIZE = 1000
GRID_VALUES = ["0", "1/3", "1/2", "2/3", "1", "3/2", "2", "3", "inf"]
GRID_LABEL = f"classify_thresholds x{GRID_SIZE}"


def _ext(text: str) -> Optional[Fraction]:
    return None if text == "inf" else Fraction(text)


def _recip(x: Optional[Fraction]) -> Optional[Fraction]:
    if x is None:
        return Fraction(0)
    return None if x == 0 else 1 / x


def _ge(x: Optional[Fraction], y: Optional[Fraction]) -> bool:
    return x is None or (y is not None and x >= y)


def _product(rate: Fraction, extreme: Optional[Fraction]) -> Optional[Fraction]:
    if extreme is None:
        return Fraction(1) if rate == 0 else None
    return rate * extreme


def _expected_class(alpha, beta, gamma, delta) -> tuple:
    """(dim, case, A, B) of the zero-one law and the six-case table, over
    Fractions with None for infinity."""
    if not (_ge(alpha, _recip(gamma)) and _ge(beta, _recip(delta))):
        return 0, None, None, None
    if alpha is None and beta is None:
        return 1, "i", None, None
    if beta is None:
        return 1, "ii", None, None
    A, B = _product(alpha, gamma), _product(beta, delta)
    if A is None and B is None:
        case = "iii"
    elif B is None:
        case = "iv"
    elif A is not None and A <= B:
        case = "v"
    else:
        case = "vi"
    return 1, case, A, B


def _plan_request(profile: str, alpha: str, beta: str, count: int) -> Request:
    return Request(f"{profile} {alpha} {beta} count={count}",
                   ("plan", profile, alpha, beta, count))


def _synth_deck(seed: int) -> list:
    rng = random.Random(seed)
    deck = [_plan_request(*r, c) for r in PLAN_MIX for c in PLAN_COUNTS]
    deck += [_plan_request(*r) for r in DEFECT_MIX]
    grid = []
    for _ in range(GRID_SIZE):
        alpha, beta = sorted(rng.choices(range(len(GRID_VALUES)), k=2))
        delta, gamma = sorted(rng.choices(range(len(GRID_VALUES)), k=2))
        grid.append(tuple(GRID_VALUES[i] for i in (alpha, beta, gamma, delta)))
    deck.append(Request(GRID_LABEL, ("grid", grid)))
    return deck


def _profile(spec: str):
    if spec.startswith("osc "):
        _, delta, gamma = spec.split()
        return rl.OscLogPhi(delta, gamma)
    return rl.parse_phi(spec)


def _synth_run(payload):
    if payload[0] == "grid":
        return [rl.classify_thresholds(*t) for t in payload[1]]
    _, spec, alpha, beta, count = payload
    phi = _profile(spec)
    alpha, beta = rl.ExtReal(alpha), rl.ExtReal(beta)
    cls = rl.classify_profile(phi, alpha, beta)
    try:
        plan = rl.plan_full_dimension(phi, alpha, beta, count=count)
    except rl.RefusalError as exc:
        plan = exc
    return cls, plan


def _ext_json(x: Optional[Fraction]):
    return "inf" if x is None else (int(x) if x.denominator == 1 else float(x))


def _grid_check(grid, out):
    if len(out) != len(grid):
        return False, f"{len(out)} classifications for {len(grid)} tuples", {}
    for t, cls in zip(grid, out):
        dim, case, A, B = _expected_class(*map(_ext, t))
        got = cls.to_json_dict()
        if (got["dim"], got["case"]) != (dim, case) or (
                case in ("iii", "iv", "v", "vi")
                and (got["A"], got["B"]) != (_ext_json(A), _ext_json(B))):
            return False, (f"alpha,beta,gamma,delta={t}: got dim {got['dim']} "
                           f"case {got['case']}, want dim {dim} case {case}"), {}
    return True, "", {}


def _synth_check(payload, out):
    if payload[0] == "grid":
        return _grid_check(payload[1], out)
    _, spec, alpha, beta, count = payload
    cls, plan = out
    dim, case, _A, _B = _expected_class(_ext(alpha), _ext(beta),
                                       *TRUE_EXTREMES[spec])
    stats = {"terms": 0, "requested": count if dim else 0}
    if (cls.dim, cls.case_tag) != (dim, case):
        return False, (f"classified dim {cls.dim} case {cls.case_tag} from "
                       f"{cls.provenance} extremes gamma={cls.gamma} "
                       f"delta={cls.delta}; true dim {dim} case {case}"), stats
    if dim == 0:
        if not isinstance(plan, rl.RefusalError):
            return False, "dimension zero but a plan came back", stats
        return True, "", stats
    if not isinstance(plan, rl.InsertionPlan):
        return False, "refused a full-dimension request", stats
    terms = plan.terms
    stats["terms"] = len(terms)
    if plan.case_tag != case or not 2 <= len(terms) <= count:
        return False, f"plan case {plan.case_tag} with {len(terms)} terms", stats
    for (n0, l0), (n1, l1) in zip(terms, terms[1:]):
        if n1 <= n0 or l1 < l0 + n0 + 3:
            return False, f"terms ({n0}, {l0}), ({n1}, {l1}) break the gap rule", stats
    return True, "", stats


def _synth_warmup():
    _synth_run(("plan", "log(n)", "2", "2", 12))


WORKLOADS = {
    "measure_words": Workload(
        "measure_words", _measure_deck, _measure_run, _measure_check,
        _measure_warmup, pass_budget_s=10.0, known_defects={}),
    "verify_cli": Workload(
        "verify_cli", _verify_deck, _verify_run, _verify_check,
        _verify_warmup, pass_budget_s=7.5,
        known_defects={"verify --osc 1/2 2 --alpha 2 --beta 5/2": "D5"}),
    "synthesize_plans": Workload(
        "synthesize_plans", _synth_deck, _synth_run, _synth_check,
        _synth_warmup, pass_budget_s=15.0,
        known_defects={
            "log(n)+log(log(n)) 0.9 0.9 count=12": "D1",
            "log(n) 1 3 count=12": "D2",
            "log(n) 1 2 count=30": "D2",
            "n^0.5 0 inf count=12": "D3",
            "log(n)^2 1 inf count=4": "D3",
            "osc 1 3 1 1 count=120": "D6",
        }),
}
