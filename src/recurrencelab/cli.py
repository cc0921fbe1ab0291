"""Command-line front end.

Machine-readable results go to stdout as JSON lines; progress notes and
human summaries go to stderr.  Exit codes:

    0  success
    1  failure (including a verification that ran but did not pass)
    2  usage errors, including malformed profile expressions
    3  a capacity or search limit stopped the computation
    4  the request is refused or falls outside the supported case table
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .bignum import DEFAULT_DIGIT_CAP
from .cantor_builder import (ExplicitFree, FreeStream, InsertionPlan, SeededFree,
                             ZeroFree, apply_insertions, certified_brackets,
                             materializable_term_count, truncate_plan)
from .errors import (CapacityError, GuardError, PhiParseError,
                     RecurrenceLabError, RefusalError, SearchCapError)
from .extreal import ONE, ExtReal
from .phi_spec import DEFAULT_ESTIMATE_HORIZON, OscLogPhi, PhiSpec, parse_phi
from .plan_engine import classify_profile, classify_thresholds, plan_full_dimension
from .rate_dim_analysis import (box_dimension, plan_rate_trajectory,
                                rate_trajectory, recurrence_witnesses,
                                running_extremes)
from .return_time import return_times_all
from .shift_core import DEFAULT_MATERIALIZATION_CAP, Word

_CAP_ENV = "RECURRENCELAB_CAP"


def _emit(obj) -> None:
    print(json.dumps(obj))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _default_cap() -> int:
    raw = os.environ.get(_CAP_ENV)
    return int(raw) if raw else DEFAULT_MATERIALIZATION_CAP


# -- shared argument groups --------------------------------------------------

def _add_profile_args(sp: argparse.ArgumentParser, required: bool) -> None:
    g = sp.add_mutually_exclusive_group(required=required)
    g.add_argument("--phi", metavar="EXPR",
                   help="profile expression over n, e.g. 'log(n)', "
                        "'2*log(n)', 'n^0.5', 'log(n)^2+log(n)'")
    g.add_argument("--osc", nargs=2, metavar=("DELTA", "GAMMA"),
                   help="oscillating profile whose ratio to log n sweeps "
                        "[DELTA, GAMMA]; GAMMA may be 'inf'")


def _profile_from_args(args) -> Optional[PhiSpec]:
    if getattr(args, "phi", None):
        return parse_phi(args.phi)
    if getattr(args, "osc", None):
        return OscLogPhi(args.osc[0], args.osc[1])
    return None


def _add_rate_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alpha", required=True,
                    help="lower rate target (fraction, decimal, or 'inf')")
    sp.add_argument("--beta", required=True,
                    help="upper rate target (fraction, decimal, or 'inf')")


def _free_from_args(args, m: int) -> FreeStream:
    spec = getattr(args, "free", None) or "zero"
    if spec == "zero":
        return ZeroFree()
    if spec.startswith("seed:"):
        return SeededFree(int(spec[5:]), m)
    if spec.startswith("digits:"):
        return ExplicitFree([int(c) for c in spec[7:]])
    raise ValueError(f"unknown free-stream spec {spec!r}; "
                     "use zero, seed:<int>, or digits:<symbols>")


def _word_from_args(args) -> Word:
    if getattr(args, "word_file", None):
        with open(args.word_file, "r", encoding="ascii") as fh:
            text = fh.read().strip()
    else:
        text = args.word
    if not text:
        raise ValueError("no input word: pass --word or --word-file")
    return Word.from_digits(text, args.m)


def _load_plan(path: str) -> InsertionPlan:
    if path == "-":
        return InsertionPlan.from_json(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return InsertionPlan.from_json(fh.read())


# -- subcommands ---------------------------------------------------------------

def _cmd_classify(args) -> int:
    phi = _profile_from_args(args)
    alpha, beta = ExtReal(args.alpha), ExtReal(args.beta)
    if phi is not None:
        cls = classify_profile(phi, alpha, beta, horizon=args.horizon)
    elif args.gamma is not None and args.delta is not None:
        cls = classify_thresholds(alpha, beta, ExtReal(args.gamma),
                                  ExtReal(args.delta))
    else:
        _note("classify needs a profile (--phi/--osc) or both --gamma and --delta")
        return 2
    _emit(cls.to_json_dict())
    _note(f"dimension {cls.dim}"
          + (f", case {cls.case_tag}" if cls.case_tag else "")
          + f" (extremes {cls.provenance})")
    return 0


def _plan_from_args(args) -> tuple[InsertionPlan, PhiSpec]:
    phi = _profile_from_args(args)
    plan = plan_full_dimension(phi, ExtReal(args.alpha), ExtReal(args.beta),
                               p=args.p, m=args.m, count=args.count,
                               horizon=args.horizon, digit_cap=args.digit_cap)
    return plan, phi


def _cmd_plan(args) -> int:
    plan, phi = _plan_from_args(args)
    cls = classify_profile(phi, ExtReal(args.alpha), ExtReal(args.beta),
                           horizon=args.horizon)
    _emit(cls.to_json_dict())
    _emit(plan.to_json_dict())
    digits = max(len(str(ell)) for ell in plan.ells)
    _note(f"case {plan.case_tag}: {len(plan)} terms, deepest position has "
          f"{digits} digits")
    return 0


def _cmd_build(args) -> int:
    plan = _load_plan(args.plan_file)
    cap = args.cap or _default_cap()
    free = _free_from_args(args, plan.m)
    usable = materializable_term_count(plan, cap)
    if usable < len(plan):
        _note(f"cap {cap}: materializing {usable} of {len(plan)} terms")
        plan = truncate_plan(plan, usable)
    seq = apply_insertions(plan, free, cap=cap)
    _emit(seq.to_json_dict())
    if args.prefix:
        word = seq.prefix(args.prefix)
        rec: dict = {"n": args.prefix}
        if plan.m <= 10:
            rec["digits"] = word.to_digits()
        else:
            rec["symbols"] = list(word.symbols)
        _emit(rec)
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
        traj = rate_trajectory(_word_from_args(args), phi, max_n=args.max_n)
    for e in traj.entries:
        _emit({"n": e.n, "return_time": e.return_time, "exact": e.exact,
               "ratio": e.ratio})
    a_hat, b_hat = running_extremes(traj, args.tail)
    _emit({"alpha_hat": a_hat, "beta_hat": b_hat, "tail": args.tail,
           "entries": len(traj)})
    _note(f"rates over the trailing {args.tail:.0%}: "
          f"[{a_hat:.4f}, {b_hat:.4f}]")
    return 0


def _cmd_witnesses(args) -> int:
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


def _cmd_verify(args) -> int:
    plan, phi = _plan_from_args(args)
    alpha, beta = ExtReal(args.alpha), ExtReal(args.beta)
    _emit(plan.to_json_dict())
    cap = args.cap or _default_cap()
    usable = materializable_term_count(plan, cap)
    sub = truncate_plan(plan, usable)
    brackets = certified_brackets(sub)
    if not brackets:
        _note(f"no certified bracket fits under cap {cap}; raise it "
              f"(positions start at {plan.ells[0]})")
        return 3
    free = _free_from_args(args, plan.m)
    seq = apply_insertions(sub, free, cap=cap)
    horizon = brackets[-1][2] + brackets[-1][1] + 2
    word = seq.prefix(horizon)
    rt = return_times_all(word, max_n=brackets[-1][1])
    ok = True
    mismatch_lines = 0
    for lo, hi, ell in brackets:
        mismatches = 0
        for n in range(lo + 1, hi + 1):
            if n <= rt.exact_depth and rt.values[n - 1] == ell:
                continue
            mismatches += 1
            ok = False
            if mismatch_lines < 20:
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
    cls = classify_profile(phi, alpha, beta, horizon=args.horizon)
    wide = cls.case_tag in ("ii", "iv") or (
        cls.case_tag == "v" and cls.C is not None and ONE < cls.C)
    right = plan_rate_trajectory(plan, phi, endpoints="right")
    upper = plan_rate_trajectory(plan, phi, endpoints="left") if wide else right
    rate_report: dict = {}
    if alpha.is_inf:
        ok_a = _grew(right.ratios(), args.growth_factor)
        rate_report["alpha_growth"] = ok_a
    else:
        a_hat, _ = running_extremes(right, args.tail)
        ok_a = _rel_ok(a_hat, float(alpha), args.tol)
        rate_report["alpha_hat"] = a_hat
    if beta.is_inf:
        ok_b = _grew(upper.ratios(), args.growth_factor)
        rate_report["beta_growth"] = ok_b
    else:
        _, b_hat = running_extremes(upper, args.tail)
        ok_b = _rel_ok(b_hat, float(beta), args.tol)
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recurrencelab",
        description="Plan, build, and audit shift-space points with "
                    "prescribed recurrence rates.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("classify", help="dimension and case for rate targets")
    _add_profile_args(sp, required=False)
    _add_rate_args(sp)
    sp.add_argument("--gamma", help="upper ratio extreme, if no profile is given")
    sp.add_argument("--delta", help="lower ratio extreme, if no profile is given")
    sp.add_argument("--horizon", type=int, default=DEFAULT_ESTIMATE_HORIZON)
    sp.set_defaults(func=_cmd_classify)

    sp = subs.add_parser("plan", help="synthesize an insertion plan")
    _add_profile_args(sp, required=True)
    _add_rate_args(sp)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--count", type=int, default=12)
    sp.add_argument("--horizon", type=int, default=DEFAULT_ESTIMATE_HORIZON)
    sp.add_argument("--digit-cap", type=int, default=DEFAULT_DIGIT_CAP)
    sp.set_defaults(func=_cmd_plan)

    sp = subs.add_parser("build", help="materialize a plan's sequence")
    sp.add_argument("--plan-file", required=True,
                    help="plan JSON path, or - for stdin")
    sp.add_argument("--free", default="zero",
                    help="free-slot stream: zero | seed:<int> | digits:<sym>")
    sp.add_argument("--cap", type=int, default=None,
                    help=f"materialization cap (default {_CAP_ENV} or "
                         f"{DEFAULT_MATERIALIZATION_CAP})")
    sp.add_argument("--prefix", type=int, default=0,
                    help="also print this many leading symbols")
    sp.set_defaults(func=_cmd_build)

    sp = subs.add_parser("return-times", help="first return times of a word")
    sp.add_argument("--word", help="symbol digits, e.g. 00101101")
    sp.add_argument("--word-file", help="file containing the digits")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--max-n", type=int, default=None)
    sp.add_argument("--prime", action="store_true",
                    help="restrict candidate shifts to j >= n")
    sp.set_defaults(func=_cmd_return_times)

    sp = subs.add_parser("rates", help="ratio trajectory and rate estimates")
    _add_profile_args(sp, required=False)
    sp.add_argument("--word", help="symbol digits")
    sp.add_argument("--word-file")
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--plan-file", help="estimate from a plan instead")
    sp.add_argument("--endpoints", choices=("right", "left"), default="right")
    sp.add_argument("--max-n", type=int, default=None)
    sp.add_argument("--tail", type=float, default=0.5)
    sp.set_defaults(func=_cmd_rates)

    sp = subs.add_parser("witnesses", help="depths that return unusually fast")
    _add_profile_args(sp, required=False)
    sp.add_argument("--word", help="symbol digits")
    sp.add_argument("--word-file")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--max-n", type=int, default=None)
    sp.set_defaults(func=_cmd_witnesses)

    sp = subs.add_parser("dim", help="box-dimension fit of the marker set")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--min-depth", type=int, default=1)
    sp.set_defaults(func=_cmd_dim)

    sp = subs.add_parser("verify",
                         help="plan, build, and audit in one pipeline")
    _add_profile_args(sp, required=True)
    _add_rate_args(sp)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--count", type=int, default=12)
    sp.add_argument("--horizon", type=int, default=DEFAULT_ESTIMATE_HORIZON)
    sp.add_argument("--digit-cap", type=int, default=DEFAULT_DIGIT_CAP)
    sp.add_argument("--cap", type=int, default=None)
    sp.add_argument("--free", default="zero")
    sp.add_argument("--tol", type=float, default=0.1)
    sp.add_argument("--tail", type=float, default=0.5)
    sp.add_argument("--growth-factor", type=float, default=5.0)
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PhiParseError as exc:
        _note(f"profile: {exc}")
        return 2
    except (CapacityError, SearchCapError) as exc:
        _note(f"capacity: {exc}")
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
