"""One-shot layer timings at the sizes of the ROADMAP open-items table.

    python3 perfbench/baseline.py

Each row runs once, traced with the benchmark's own wrappers, and prints
the layer's self time and its per-item cost.  These are single wall-clock
samples on a shared machine: a guide to where time goes, not a result to
compare across commits (use run.py for that).
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import recurrencelab as rl  # noqa: E402
import recurrencelab.cli as rl_cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def _traced(tracer: Tracer, fn):
    with tracer.op(0):
        fn()
    self_s = tracer.self_times([1.0])
    tracer.spans.clear()
    counts = dict(tracer.counts)
    tracer.counts.clear()
    return self_s, counts


def main() -> int:
    rng = random.Random(1)
    tracer = Tracer()
    rows = []
    L = 10 ** 6
    symbols = [rng.randrange(2) for _ in range(L)]

    s, c = _traced(tracer, lambda: rl.Word.from_iterable(symbols, 2))
    rows.append(("Word.from_iterable (alphabet check)", "1e6 symbols",
                 s["shift_core.word"], 1e9 * s["shift_core.word"] / L, "ns/symbol"))
    word = rl.Word.from_iterable(symbols, 2)
    s, c = _traced(tracer, lambda: rl.return_times_all(word))
    rows.append(("z_array", "random binary, L = 1e6", s["return_time.z_array"],
                 1e9 * s["return_time.z_array"] / L, "ns/symbol"))
    rows.append(("return_times_all self (sweep + packaging)", "L = 1e6",
                 s["return_time.all"], 1e9 * s["return_time.all"] / L, "ns/result"))
    total = s["return_time.all"] + s["return_time.z_array"]
    rows.append(("return_times_all total", "L = 1e6", total, 1e9 * total / L,
                 "ns/result"))
    del word

    plan = rl.plan_full_dimension(rl.OscLogPhi(1, 3), 1, 1)
    seq = rl.apply_insertions(plan, cap=3_000_000)
    n = 2 * 10 ** 6
    s, c = _traced(tracer, lambda: seq.prefix(n))
    prefix_s = s["shift_core.prefix"] + s.get("shift_core.word", 0.0)
    rows.append(("LazySequence.prefix (incl. its Word)", "2e6 symbols",
                 prefix_s, 1e9 * prefix_s / n, "ns/symbol"))

    phi = rl.parse_phi("log(n)+log(log(n))")
    s, c = _traced(tracer, lambda: phi.gamma_delta(10 ** 5))
    rows.append(("estimated gamma/delta", "horizon 1e5",
                 s["phi_spec.gamma_delta"], 1e6 * s["phi_spec.gamma_delta"] / 10 ** 5,
                 "us/step"))

    for spec, a, b in (("log(n)", "2", "2"), ("log(n)", "1", "inf"),
                       ("n", "1", "2"), ("osc 1 3", "1", "1")):
        phi = rl.OscLogPhi(1, 3) if spec == "osc 1 3" else rl.parse_phi(spec)
        t0 = time.perf_counter()
        s, c = _traced(tracer, lambda: rl.plan_full_dimension(phi, a, b))
        calls = c.get("bignum.exp_int.calls", 0)
        rows.append((f"plan_full_dimension {spec} {a}/{b}", "count 12",
                     time.perf_counter() - t0,
                     1e3 * s.get("bignum.exp_int", 0.0) / calls if calls else 0.0,
                     "ms/exp_int"))

    argv = ["verify", "--osc", "1", "3", "--alpha", "1", "--beta", "1",
            "--cap", "2000000"]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        s, c = _traced(tracer, lambda: rl_cli.main(argv))
    rows.append(("cli verify --osc 1 3 (argparse, JSON, glue)", "cap 2e6",
                 s["cli.main"], s["cli.main"] / sum(s.values()), "share of op"))

    for name, size, seconds, per_item, unit in rows:
        print(f"{name:46s} {size:24s} {seconds:8.3f} s  {per_item:10.3f} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
