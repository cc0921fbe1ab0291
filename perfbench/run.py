"""recurrencelab benchmark: seeded closed-loop workloads, checked outputs.

Run one workload:

    python3 perfbench/run.py --workload measure_words --seed 1 --seconds 30 --trace 0

One client, one thread: the next op starts when the previous one has
returned and its output has been checked.  --seconds sets the amount of
work, not a deadline: a run is max(2, round(seconds / pass_budget_s)) whole
passes over the workload's deck, so both sides of a comparison time the
same ops.  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 every op runs untraced and traced and it carries
the per-layer metrics.  The line before it is a JSON detail record.

Compare two result sets written with --out:

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

See perfbench/README.md for workloads, metrics and the baseline.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
RUNAWAY_FACTOR = 3     # stop after a pass once the run exceeds 3x --seconds


@dataclass
class Op:
    traced: bool
    pass_index: int
    label: str
    raw_s: float         # seconds, as measured
    scale: float         # machine-speed factor, see speed.py
    ok: bool
    reason: str
    stats: dict

    @property
    def latency(self) -> float:
        return self.raw_s * self.scale


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append this run's record to a JSON-lines file")
    ap.add_argument("--spans", help="write the traced spans as JSON lines")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two result sets written with --out")
    args = ap.parse_args(argv)
    if args.compare is None and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _measure_setup(workload: str) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first op being
    ready, once per probe, rescaled like op times (see speed.py)."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = speed.reference_seconds()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"),
                               workload], stdout=subprocess.PIPE,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != b"ready" or code != 0:
            _fail(f"set-up probe for {workload} failed with exit code {code}")
        samples.append(elapsed * speed.scale(before, speed.reference_seconds()))
    return samples


def _pin_to_one_cpu() -> None:
    """Keep this process and the probes it spawns on one CPU, so that the
    speed reference is timed on the CPU the measured work runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as exc:
        print(f"perfbench: not pinned to one CPU ({exc})", file=sys.stderr)


def _run_op(wl, req, pass_index: int, tracer, op_id: int) -> Op:
    gc.collect()
    before = speed.reference_seconds()
    out, error = None, None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run(req.payload)
        else:
            with tracer.op(op_id):
                out = wl.run(req.payload)
    except Exception as exc:  # a failed op is scored, not fatal
        error = f"{type(exc).__name__}: {exc}"
    raw_s = time.perf_counter() - t0
    factor = speed.scale(before, speed.reference_seconds())
    if error is None:
        ok, reason, stats = wl.check(req.payload, out)
    else:
        ok, reason, stats = False, error, {}
    return Op(tracer is not None, pass_index, req.label, raw_s, factor, ok,
              reason, stats)


def _run_passes(wl, deck, passes: int, tracer, seconds: int) -> list[Op]:
    """Whole passes over the deck.  With a tracer every request runs twice,
    untraced and traced, in an order that alternates along the deck."""
    ops: list[Op] = []
    start = time.perf_counter()
    for p in range(passes):
        for i, req in enumerate(deck):
            if tracer is None:
                order = (None,)
            else:
                order = (None, tracer) if i % 2 == 0 else (tracer, None)
            for t in order:
                ops.append(_run_op(wl, req, p, t, len(ops)))
        if p + 1 < passes and time.perf_counter() - start > RUNAWAY_FACTOR * seconds:
            print(f"perfbench: stopping after {p + 1} of {passes} passes, "
                  f"the run exceeded {RUNAWAY_FACTOR}x --seconds", file=sys.stderr)
            break
    return ops


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the median when that percentile would be below 50."""
    s = sorted(values)
    n = len(s)
    if n < 20:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def _end_to_end(ops: list[Op], setup: list[float]) -> tuple:
    """Metrics from the untraced ops; and the detail entries, with the same
    statistics before the machine-speed rescaling."""
    timed = [o for o in ops if not o.traced]
    correct = sum(o.ok for o in timed)
    lat = [o.latency for o in timed]
    raw = [o.raw_s for o in timed]
    tail, pct = _tail(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "throughput_ops_s": correct / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unscaled = {"latency_p50_s": statistics.median(raw),
                "latency_tail_s": _tail(raw)[0],
                "throughput_ops_s": correct / sum(raw)}
    return metrics, {"samples": len(lat), "tail_percentile": pct,
                     "speed_scale": statistics.fmean(o.scale for o in timed),
                     "unscaled": unscaled}


def _per_layer(ops: list[Op], tracer) -> dict:
    traced = [o for o in ops if o.traced]
    n_ops = len(traced)
    untraced_s = sum(o.latency for o in ops if not o.traced)
    self_s = tracer.self_times([o.scale for o in ops])
    calls = tracer.counts

    def per_op(x):
        return x / n_ops

    def self_per_op(name):
        return per_op(self_s.get(name, 0.0))

    def count(name):
        return calls.get(name, 0)

    def ratio(num, den, unit=1.0):
        return unit * num / den if den else 0.0

    def stat(key, which=traced):
        return sum(o.stats.get(key, 0) for o in which)

    # symbols analysed by the op, else symbols materialized by prefix; the
    # untraced twins of the traced ops did the same work
    symbols = stat("symbols") or count("shift_core.prefix_symbols")
    metrics = {
        "trace_overhead_ratio": sum(o.latency for o in traced) / untraced_s - 1.0,
        "symbols_per_s": symbols / untraced_s,
        "failed_ratio": sum(not o.ok for o in ops) / len(ops),
        "shift_core.word_s": self_per_op("shift_core.word"),
        "shift_core.word_symbols": per_op(count("shift_core.word_symbols")),
        "shift_core.prefix_s": self_per_op("shift_core.prefix"),
        "shift_core.prefix_symbols": per_op(count("shift_core.prefix_symbols")),
        "shift_core.prefix_ns_per_symbol": ratio(
            self_s.get("shift_core.prefix", 0.0),
            count("shift_core.prefix_symbols"), 1e9),
        "return_time.z_array_s": self_per_op("return_time.z_array"),
        "return_time.z_array_ns_per_symbol": ratio(
            self_s.get("return_time.z_array", 0.0),
            count("return_time.z_array_symbols"), 1e9),
        "return_time.all_self_s": self_per_op("return_time.all"),
        "return_time.results": per_op(count("return_time.results")),
        "return_time.ns_per_result": ratio(
            self_s.get("return_time.all", 0.0), count("return_time.results"), 1e9),
        "return_time.all_calls": per_op(count("return_time.all.calls")),
        "return_time.naive_s": self_per_op("return_time.naive"),
        "return_time.naive_calls": per_op(count("return_time.naive.calls")),
        "rate_dim_analysis.trajectory_self_s":
            self_per_op("rate_dim_analysis.trajectory"),
        "rate_dim_analysis.witnesses_self_s":
            self_per_op("rate_dim_analysis.witnesses"),
        "rate_dim_analysis.plan_trajectory_s":
            self_per_op("rate_dim_analysis.plan_trajectory"),
        "cantor_builder.apply_insertions_self_s":
            self_per_op("cantor_builder.apply_insertions"),
        "cantor_builder.events": per_op(count("cantor_builder.events")),
        "cantor_builder.audit_coverage": ratio(stat("audited"),
                                               stat("full_brackets")),
        "plan_engine.classify_s": self_per_op("plan_engine.classify"),
        "plan_engine.witness_s": self_per_op("plan_engine.witness"),
        "plan_engine.witness_calls": per_op(count("plan_engine.witness.calls")),
        "plan_engine.ladder_s": self_per_op("plan_engine.ladder"),
        "plan_engine.terms_ratio": ratio(stat("terms"), stat("requested")),
        "phi_spec.parse_s": self_per_op("phi_spec.parse"),
        "phi_spec.gamma_delta_s": self_per_op("phi_spec.gamma_delta"),
        "phi_spec.estimated_calls": per_op(count("phi_spec.estimated_calls")),
        "phi_spec.check_nondecreasing_s":
            self_per_op("phi_spec.check_nondecreasing"),
        "bignum.exp_int_s": self_per_op("bignum.exp_int"),
        "bignum.exp_int_calls": per_op(count("bignum.exp_int.calls")),
        "bignum.exp_int_ms_per_call": ratio(self_s.get("bignum.exp_int", 0.0),
                                            count("bignum.exp_int.calls"), 1e3),
        "bignum.max_digits": tracer.max_digits,
        "bignum.power_log_s": self_per_op("bignum.power_log_ceil"),
        "cli.main_self_s": self_per_op("cli.main"),
        "verify.rates_fail": stat("rates_fail") / len({o.pass_index for o in ops}),
    }
    for tag in ("i", "ii", "iii", "iv", "v", "vi"):
        metrics[f"plan_engine.plan_case_{tag}_s"] = self_per_op(
            f"plan_engine.case_{tag}")
    return metrics


def _failures(ops: list[Op], known: dict) -> list[dict]:
    seen: dict = {}
    for o in ops:
        if not o.ok:
            rec = seen.setdefault(o.label, {"request": o.label,
                                            "defect": known.get(o.label),
                                            "error": o.reason, "count": 0})
            rec["count"] += 1
    return list(seen.values())


def _per_request(ops: list[Op]) -> dict:
    """Median unscaled latency of each request of the deck."""
    by: dict = {}
    for o in ops:
        if not o.traced:
            by.setdefault(o.label, []).append(o.raw_s)
    return {k: statistics.median(v) for k, v in sorted(by.items())}


def _write_spans(path: str, tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, op, _child) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start,
                                 "end": end, "parent": parent, "op": op}) + "\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = _load_spec()
    if args.compare:
        import compare
        return compare.main(spec, *args.compare)
    if not os.path.isfile(os.path.join(SRC, "recurrencelab", "__init__.py")):
        _fail(f"no recurrencelab sources under {SRC}")
    sys.path.insert(0, SRC)
    import workloads
    import recurrencelab
    if not os.path.abspath(recurrencelab.__file__).startswith(SRC + os.sep):
        _fail(f"imported recurrencelab from {recurrencelab.__file__}, not {SRC}")
    from tracing import Tracer

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")
    started = time.time()
    _pin_to_one_cpu()
    setup = _measure_setup(wl.name)
    deck = wl.make_deck(args.seed)
    wl.warmup()
    passes = max(2, round(args.seconds / wl.pass_budget_s))
    tracer = None
    if args.trace:
        tracer = Tracer()
        passes = max(1, round(passes / 2))   # every op runs twice
    ops = _run_passes(wl, deck, passes, tracer, args.seconds)

    e2e, tail_info = _end_to_end(ops, setup)
    values = _per_layer(ops, tracer) if args.trace else e2e
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[group]}
    failures = _failures(ops, wl.known_defects)
    result = {
        "correct": all(f["defect"] for f in failures),
        "attempted": len(ops),
        "failed": sum(f["count"] for f in failures),
        "metrics": metrics,
    }
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "passes": len({o.pass_index for o in ops}), "ops_per_pass": len(deck),
        **tail_info, "setup_samples_s": setup, "failures": failures,
        "latency_p50_by_request_s": _per_request(ops),
    }
    if args.trace and args.spans:
        _write_spans(args.spans, tracer)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": wl.name, "seed": args.seed,
                                 "trace": args.trace, "seconds": args.seconds,
                                 "started": started, "result": result,
                                 "detail": detail}) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
