"""Command-line front end.

Machine-readable results go to stdout as JSON lines; progress notes and
human summaries go to stderr.  Exit codes:

    0  success
    1  failure (including a verification that ran but did not pass)
    2  usage errors, including malformed profile expressions
    3  a capacity or search limit, or float overflow, stopped the
       computation
    4  the request is refused or falls outside the supported case table
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain, islice
from typing import Optional

from .bignum import DEFAULT_DIGIT_CAP
from .cantor_builder import (ExplicitFree, InsertionPlan, SeededFree,
                             ZeroFree, apply_insertions,
                             bracket_return_times, certified_brackets,
                             materializable_term_count, truncate_plan)
from .errors import (CapacityError, GuardError, PhiParseError,
                     RecurrenceLabError, RefusalError, SearchCapError)
from .extreal import ONE, ExtReal
from .phi_spec import OscLogPhi, PhiSpec, parse_phi
from .plan_engine import (Classification, classify_profile,
                          classify_thresholds, plan_for_classification)
from .rate_dim_analysis import (box_dimension, plan_rate_trajectory,
                                rate_trajectory, recurrence_witnesses,
                                running_extremes)
from .return_time import ReturnTimes, return_times_all
from .shift_core import (DEFAULT_MATERIALIZATION_CAP, Word, _word_from_json,
                         _word_to_json)

_CAP_ENV = "RECURRENCELAB_CAP"
# verify's rate verdict: a finite rate, estimated over this trailing
# fraction of the trajectory, passes within this fraction of
# max(target, 1), and an infinite one when the last ratio exceeds this
# factor times the first
RATE_TAIL = 0.5
RATE_TOL = 0.1
GROWTH_FACTOR = 5.0


def _emit(obj) -> None:
    print(json.dumps(obj))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- shared argument groups --------------------------------------------------

def _add_profile_args(sp: argparse.ArgumentParser, required: bool) -> None:
    g = sp.add_mutually_exclusive_group(required=required)
    g.add_argument("--phi", metavar="EXPR",
                   help="profile expression over n, e.g. 'log(n)', "
                        "'2*log(n)', 'n^0.5', 'log(n)^2+log(n)'")
    g.add_argument("--osc", nargs=2, metavar=("DELTA", "GAMMA"),
                   help="oscillating profile whose ratio to log n sweeps "
                        "[DELTA, GAMMA]; GAMMA may be 'inf'")


def _add_word_args(sp: argparse.ArgumentParser, word_help: str,
                   file_help: Optional[str] = None):
    """--word and --word-file, at most one of them (neither is an error
    when the command runs, exit 1); the group, for a further input."""
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--word", help=word_help)
    g.add_argument("--word-file", help=file_help)
    return g


def _profile_from_args(args) -> Optional[PhiSpec]:
    if getattr(args, "phi", None):
        return parse_phi(args.phi)
    if getattr(args, "osc", None):
        return OscLogPhi(args.osc[0], args.osc[1])
    return None


def _rate(text: str) -> ExtReal:
    """A rate or ratio extreme: a nonnegative fraction, decimal or 'inf',
    checked before any output."""
    try:
        return ExtReal(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"a rate is a nonnegative fraction, decimal or 'inf', got {text!r}"
        ) from None


def _add_rate_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alpha", type=_rate, required=True,
                    help="lower rate target (fraction, decimal, or 'inf')")
    sp.add_argument("--beta", type=_rate, required=True,
                    help="upper rate target (fraction, decimal, or 'inf')")


def _tail_fraction(text: str) -> float:
    """--tail: a fraction in (0, 1], checked before any output."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(
            f"tail fraction must lie in (0, 1], got {text!r}")
    return value


def _int_at_least(least: int, rule: str):
    """An argument type: an integer of at least `least`, checked before
    any output; `rule` names it in the usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return parse


_cap = _int_at_least(1, "cap must be a positive integer")
_count = _int_at_least(2, "count must be an integer of at least 2")
_block = _int_at_least(2, "block length must be an integer of at least 2")
_symbols = _int_at_least(2, "alphabet size must be an integer of at least 2")
_digit_cap = _int_at_least(1, "digit cap must be a positive integer")
_prefix = _int_at_least(0, "prefix length must be a nonnegative integer")
_max_n = _int_at_least(1, "max-n must be a positive integer")
_depth = _int_at_least(2, "depth must be an integer of at least 2")
_min_depth = _int_at_least(1, "min-depth must be a positive integer")


def _cap_from_env(parser: argparse.ArgumentParser) -> int:
    """RECURRENCELAB_CAP when set and nonempty, held to the --cap rule
    (a usage error otherwise), else the default."""
    raw = os.environ.get(_CAP_ENV)
    if not raw:
        return DEFAULT_MATERIALIZATION_CAP
    try:
        return _cap(raw)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"{_CAP_ENV}: {exc}")


def _add_plan_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=_block, default=3)
    sp.add_argument("--m", type=_symbols, default=2)
    sp.add_argument("--count", type=_count, default=12)
    sp.add_argument("--digit-cap", type=_digit_cap, default=DEFAULT_DIGIT_CAP)


def _free_spec(text: str):
    """--free: zero | seed:<int> | digits:<symbols>, checked before any
    output.  Returns the function of the plan's m that builds the stream."""
    kind, _, arg = text.partition(":")
    try:
        if text == "zero":
            return lambda m: ZeroFree()
        if kind == "seed":
            return functools.partial(SeededFree, int(arg))
        if kind == "digits":
            free = ExplicitFree([int(c) for c in arg])
            return lambda m: free
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("use zero, seed:<int> or "
                                     f"digits:<symbols>, got {text!r}")


def _word_from_args(args) -> Word:
    if getattr(args, "word_file", None):
        with open(args.word_file, "r", encoding="ascii") as fh:
            text = fh.read().strip()
        if text.startswith("{"):
            # the line `build --prefix` emits: digits, or symbols past m = 10
            rec = json.loads(text)
            text = rec.get("digits", rec.get("symbols"))
    else:
        text = args.word
    if not text:
        raise ValueError("no input word: pass --word or --word-file")
    return _word_from_json(text, args.m)


def _load_plan(path: str) -> InsertionPlan:
    if path == "-":
        return InsertionPlan.from_json(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return InsertionPlan.from_json(fh.read())


# -- subcommands ---------------------------------------------------------------

def _cmd_classify(args) -> int:
    phi = _profile_from_args(args)
    if phi is not None:
        cls = classify_profile(phi, args.alpha, args.beta)
    elif args.gamma is not None and args.delta is not None:
        cls = classify_thresholds(args.alpha, args.beta, args.gamma,
                                  args.delta)
    else:
        _note("classify needs a profile (--phi/--osc) or both --gamma and --delta")
        return 2
    _emit(cls.to_json_dict())
    _note(f"dimension {cls.dim}"
          + (f", case {cls.case_tag}" if cls.case_tag else "")
          + f" (extremes {cls.provenance})")
    return 0


def _plan_from_args(args) -> tuple[InsertionPlan, PhiSpec, Classification]:
    phi = _profile_from_args(args)
    cls = classify_profile(phi, args.alpha, args.beta)
    plan = plan_for_classification(phi, cls, p=args.p, m=args.m,
                                   count=args.count, digit_cap=args.digit_cap)
    return plan, phi, cls


def _cmd_plan(args) -> int:
    plan, _, cls = _plan_from_args(args)
    _emit(cls.to_json_dict())
    data = plan.to_json_dict()
    _emit(data)
    # the positions' decimal strings, already made once for the JSON
    digits = max(len(t["ell"]) for t in data["terms"])
    _note(f"case {plan.case_tag}: {len(plan)} terms, deepest position has "
          f"{digits} digits")
    return 0


def _cmd_build(args) -> int:
    plan = _load_plan(args.plan_file)
    cap = args.cap
    free = args.free(plan.m)
    usable = materializable_term_count(plan, cap)
    if usable < len(plan):
        _note(f"cap {cap}: materializing {usable} of {len(plan)} terms")
        plan = truncate_plan(plan, usable)
    seq = apply_insertions(plan, free, cap=cap)
    # materialized before any output, so a free stream that runs short
    # fails with nothing on stdout
    word = _word_to_json(seq.prefix(args.prefix)) if args.prefix else None
    _emit(seq.to_json_dict())
    if word is not None:
        _emit({"n": args.prefix,
               "digits" if isinstance(word, str) else "symbols": word})
    return 0


def _cmd_return_times(args) -> int:
    rt = return_times_all(_word_from_args(args), max_n=args.max_n,
                          prime=args.prime)
    for n, value in enumerate(rt.values, 1):
        _emit({"n": n, "value": value, "exact": True, "prime": rt.prime})
    for n in range(rt.exact_depth + 1, rt.top + 1):
        _emit({"n": n, "value": rt.bound(n), "exact": False,
               "prime": rt.prime})
    return 0


def _cmd_rates(args) -> int:
    phi = _profile_from_args(args)
    if args.plan_file:
        plan = _load_plan(args.plan_file)
        traj = plan_rate_trajectory(plan, phi, endpoints=args.endpoints)
    else:
        word, max_n = _word_from_args(args), args.max_n
        if max_n is None:
            # the window ends at the exact head, so that its tail holds
            # exact entries; a head of one depth has no ratio to hold
            depth = return_times_all(word).exact_depth
            if depth >= 2:
                max_n = depth
        traj = rate_trajectory(word, phi, max_n=max_n)
    # estimated first, so that a window it cannot estimate writes nothing
    a_hat, b_hat = running_extremes(traj, args.tail)
    for e in traj.entries:
        _emit({"n": e.n, "return_time": e.return_time, "exact": e.exact,
               "ratio": e.ratio})
    _emit({"alpha_hat": a_hat, "beta_hat": b_hat, "tail": args.tail,
           "entries": len(traj)})
    _note(f"rates over the trailing {args.tail:.0%}: "
          f"[{a_hat:.4f}, {b_hat:.4f}]")
    return 0


def _cmd_witnesses(args) -> int:
    if math.isnan(args.alpha + args.eps):
        _note(f"witnesses: the rate alpha + eps = {args.alpha} + {args.eps} "
              "is not a number")
        return 2
    word = _word_from_args(args)
    phi = _profile_from_args(args)
    hits = recurrence_witnesses(word, args.alpha, args.eps, phi=phi,
                                max_n=args.max_n)
    for n, r in hits:
        _emit({"n": n, "return_time": r})
    _note(f"{len(hits)} witnesses at rate {args.alpha} + {args.eps}")
    return 0


def _cmd_dim(args) -> int:
    fit = box_dimension(args.p, args.m, args.depth, min_depth=args.min_depth)
    _emit(fit.to_json_dict())
    _note(f"slope {fit.slope:.5f} vs (p-2)/p = {float(fit.expected):.5f}"
          + (" [degenerate]" if fit.degenerate else ""))
    return 0


def _rel_ok(measured: float, target: float, tol: float) -> bool:
    return abs(measured - target) <= tol * max(target, 1.0)


def _grew(ratios: list[float], factor: float) -> bool:
    return len(ratios) >= 2 and ratios[-1] > factor * max(ratios[0], 1e-12)


def _mismatched_stretches(rt: ReturnTimes, lo: int, hi: int,
                          ell: int) -> list[tuple[int, int]]:
    """The depths n in lo+1..hi where R_n is not exactly ell, as stretches
    (a, b) of depths a..b in depth order, read off the runs: each run of
    another value, clipped to the bracket, and then every depth past the
    exact head."""
    wrong = [(a, b) for j, a, b in rt.values.spans(lo + 1, hi) if j != ell]
    depth = rt.exact_depth
    if depth < hi:
        wrong.append((max(lo, depth) + 1, hi))
    return wrong


def _cmd_verify(args) -> int:
    plan, phi, cls = _plan_from_args(args)
    cap = args.cap
    usable = materializable_term_count(plan, cap)
    sub = truncate_plan(plan, usable)
    brackets = certified_brackets(sub)
    if not brackets:
        _emit(plan.to_json_dict())
        _note(f"no certified bracket fits under cap {cap}; raise it "
              f"(positions start at {plan.ells[0]})")
        return 3
    free = args.free(plan.m)
    seq = apply_insertions(sub, free, cap=cap)
    horizon = brackets[-1][2] + brackets[-1][1] + 2
    # audited before any output: a free stream that could run short or
    # leave the alphabet is read through the horizon first, so it fails
    # with nothing on stdout
    rt = bracket_return_times(seq, horizon, brackets[-1][1])
    _emit(plan.to_json_dict())
    ok = True
    mismatch_lines = 0
    for lo, hi, ell in brackets:
        wrong = _mismatched_stretches(rt, lo, hi, ell)
        mismatches = sum(b - a + 1 for a, b in wrong)
        if mismatches:
            ok = False
            # only the first 20 mismatches overall are named, depth by depth
            named = chain.from_iterable(range(a, b + 1) for a, b in wrong)
            for n in islice(named, 20 - mismatch_lines):
                res = rt.result(n)
                _emit({"n": n, "expected": str(ell),
                       "got": res.value, "exact": res.exact})
                mismatch_lines += 1
        _emit({"bracket": [lo, hi], "ell": str(ell),
               "checked": hi - lo, "mismatches": mismatches})
    # plan-level rate check against the targets, on the full (untruncated)
    # plan.  The lower rate always reads cleanest at bracket right
    # endpoints.  The upper rate is pinned at left endpoints when brackets
    # are wide (consecutive log sizes separated by a factor), and at right
    # endpoints otherwise — at a left edge of a narrow bracket the sample
    # carries an (n_{i+1}/n_i)-sized bias that decays too slowly to test.
    wide = cls.case_tag in ("ii", "iv") or (
        cls.case_tag == "v" and cls.C is not None and ONE < cls.C)
    right = plan_rate_trajectory(plan, phi, endpoints="right")
    upper = plan_rate_trajectory(plan, phi, endpoints="left") if wide else right
    rate_report: dict = {}
    if cls.alpha.is_inf:
        ok_a = _grew(right.ratios(), GROWTH_FACTOR)
        rate_report["alpha_growth"] = ok_a
    else:
        a_hat, _ = running_extremes(right, RATE_TAIL)
        ok_a = _rel_ok(a_hat, float(cls.alpha), RATE_TOL)
        rate_report["alpha_hat"] = a_hat
    if cls.beta.is_inf:
        ok_b = _grew(upper.ratios(), GROWTH_FACTOR)
        rate_report["beta_growth"] = ok_b
    else:
        _, b_hat = running_extremes(upper, RATE_TAIL)
        ok_b = _rel_ok(b_hat, float(cls.beta), RATE_TOL)
        rate_report["beta_hat"] = b_hat
    ok = ok and ok_a and ok_b
    rate_report.update({"rates_ok": ok_a and ok_b, "ok": ok,
                        "brackets": len(brackets),
                        "depth_checked": brackets[-1][1]})
    _emit(rate_report)
    _note(("PASS" if ok else "FAIL")
          + f": {len(brackets)} brackets to depth {brackets[-1][1]}, "
          f"rates {rate_report}")
    return 0 if ok else 1


# -- parser -------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, and the subcommands it dispatches to read this module's
    globals when they run."""
    parser = argparse.ArgumentParser(
        prog="recurrencelab",
        description="Plan, build, and audit shift-space points with "
                    "prescribed recurrence rates.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("classify", help="dimension and case for rate targets")
    _add_profile_args(sp, required=False)
    _add_rate_args(sp)
    sp.add_argument("--gamma", type=_rate,
                    help="upper ratio extreme, if no profile is given")
    sp.add_argument("--delta", type=_rate,
                    help="lower ratio extreme, if no profile is given")
    sp.set_defaults(func=_cmd_classify)

    sp = subs.add_parser("plan", help="synthesize an insertion plan")
    _add_profile_args(sp, required=True)
    _add_rate_args(sp)
    _add_plan_args(sp)
    sp.set_defaults(func=_cmd_plan)

    sp = subs.add_parser("build", help="materialize a plan's sequence")
    sp.add_argument("--plan-file", required=True,
                    help="plan JSON path, or - for stdin")
    sp.add_argument("--free", type=_free_spec, default="zero",
                    help="free-slot stream: zero | seed:<int> | digits:<sym>")
    sp.add_argument("--cap", type=_cap, default=None,
                    help=f"materialization cap (default {_CAP_ENV} or "
                         f"{DEFAULT_MATERIALIZATION_CAP})")
    sp.add_argument("--prefix", type=_prefix, default=0,
                    help="also print this many leading symbols")
    sp.set_defaults(func=_cmd_build)

    sp = subs.add_parser("return-times", help="first return times of a word")
    _add_word_args(sp, "symbol digits, e.g. 00101101",
                   "file containing the digits, or the JSON line of "
                   "build --prefix")
    sp.add_argument("--m", type=_symbols, required=True)
    sp.add_argument("--max-n", type=_max_n, default=None)
    sp.add_argument("--prime", action="store_true",
                    help="restrict candidate shifts to j >= n")
    sp.set_defaults(func=_cmd_return_times)

    sp = subs.add_parser("rates", help="ratio trajectory and rate estimates")
    _add_profile_args(sp, required=False)
    g = _add_word_args(sp, "symbol digits")
    g.add_argument("--plan-file", help="estimate from a plan instead")
    sp.add_argument("--m", type=_symbols, default=2)
    sp.add_argument("--endpoints", choices=("right", "left"), default="right")
    sp.add_argument("--max-n", type=_max_n, default=None,
                    help="deepest n of a word's trajectory (default: the "
                         "word's exact depth, the last n whose R_n returns "
                         "inside the word, when it is at least 2; else the "
                         "word's length)")
    sp.add_argument("--tail", type=_tail_fraction, default=0.5)
    sp.set_defaults(func=_cmd_rates)

    sp = subs.add_parser("witnesses", help="depths that return unusually fast")
    _add_profile_args(sp, required=False)
    _add_word_args(sp, "symbol digits")
    sp.add_argument("--m", type=_symbols, required=True)
    sp.add_argument("--alpha", type=float, required=True,
                    help="rate; 'inf' allowed, and a negative infinite "
                         "rate is written attached: --alpha=-inf")
    sp.add_argument("--eps", type=float, required=True,
                    help="slack added to --alpha; 'inf' allowed, and a "
                         "negative infinite one is written attached: "
                         "--eps=-inf (a bare -inf reads as an option)")
    sp.add_argument("--max-n", type=_max_n, default=None)
    sp.set_defaults(func=_cmd_witnesses)

    sp = subs.add_parser("dim", help="box-dimension fit of the marker set")
    sp.add_argument("--p", type=_block, required=True)
    sp.add_argument("--m", type=_symbols, default=2)
    sp.add_argument("--depth", type=_depth, required=True)
    sp.add_argument("--min-depth", type=_min_depth, default=1)
    sp.set_defaults(func=_cmd_dim)

    sp = subs.add_parser("verify",
                         help="plan, build, and audit in one pipeline")
    _add_profile_args(sp, required=True)
    _add_rate_args(sp)
    _add_plan_args(sp)
    sp.add_argument("--cap", type=_cap, default=None)
    sp.add_argument("--free", type=_free_spec, default="zero")
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cap", 0) is None:   # build or verify without --cap
        args.cap = _cap_from_env(parser)
    try:
        return args.func(args)
    except PhiParseError as exc:
        _note(f"profile: {exc}")
        return 2
    except (CapacityError, SearchCapError) as exc:
        _note(f"capacity: {exc}")
        return 3
    except OverflowError as exc:
        _note(f"capacity: a value left float range ({exc})")
        return 3
    except RefusalError as exc:
        _emit({"refused": True, "reason": str(exc),
               "classification": exc.classification})
        _note(f"refused: {exc}")
        return 4
    except GuardError as exc:
        _note(f"unsupported: {exc}")
        return 4
    except (RecurrenceLabError, ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
