"""Compare two result sets and give a verdict per metric and workload.

A result set is a JSON-lines file that run.py --out appended to, one
record per run.  Runs of the parent and of the change pair up by
(workload, trace, seed).  The rules are those for claiming a gain in a
small shared sandbox:

* improved   -- at least ten pairs, the change wins at least 9 in 10 of
                them (ties count for neither side), and the medians differ
                by more than the parent's own quartile spread; and the
                change fails no more ops than the parent.
* worse      -- the change's median is worse than the parent's by more
                than the metric's bound (metrics without a bound: the
                mirror image of "improved").
* unresolved -- the parent's quartile spread is wider than the bound, so
                "no worse by more than the bound" cannot be shown, unless
                every change run reads better than every parent run.
* unchanged  -- otherwise.

Pairs should alternate which side ran first; the report counts the order.
"""
from __future__ import annotations

import json
import statistics


def _load(path: str) -> dict:
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["trace"], rec["seed"])] = rec
    return runs


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, better: str, bound,
            more_failures: bool) -> str:
    sign = 1.0 if better == "higher" else -1.0
    n = len(parent)
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(d > 0 for d in diffs)
    losses = sum(d < 0 for d in diffs)
    q1, med_p, q3 = _quartiles(parent)
    spread = q3 - q1
    gain = sign * (statistics.median(change) - med_p)
    if n >= 10 and wins >= 0.9 * n and gain > spread and not more_failures:
        return "improved"
    if bound is None:
        if n >= 10 and losses >= 0.9 * n and -gain > spread:
            return "worse"
        return "unchanged" if not wins and not losses else "unresolved"
    limit = bound * abs(med_p)
    if spread > limit:
        ahead = (min(change) > max(parent) if sign > 0
                 else max(change) < min(parent))
        return "unchanged" if ahead else "unresolved"
    if -gain > limit:
        return "worse"
    return "unchanged"


def main(spec: dict, parent_path: str, change_path: str) -> int:
    parent, change = _load(parent_path), _load(change_path)
    groups = sorted({k[:2] for k in parent} & {k[:2] for k in change})
    if not groups:
        print("no workload appears in both result sets")
        return 1
    for workload, trace in groups:
        seeds = sorted(k[2] for k in parent
                       if k[:2] == (workload, trace) and k in change)
        pairs = [(parent[(workload, trace, s)], change[(workload, trace, s)])
                 for s in seeds]
        parent_first = sum(p["started"] < c["started"] for p, c in pairs)
        failed_p = sum(p["result"]["failed"] for p, _ in pairs)
        failed_c = sum(c["result"]["failed"] for _, c in pairs)
        print(f"== {workload} (trace {trace}): {len(pairs)} pairs, parent ran "
              f"first in {parent_first}; failed ops {failed_p} -> {failed_c}")
        if abs(2 * parent_first - len(pairs)) > 1:
            print("   warning: the pairs did not alternate which side ran first")
        if len(pairs) < 10:
            print("   warning: fewer than 10 pairs; no gain can be claimed")
        group = spec["per_layer"] if trace else spec["end_to_end"]
        for m in group:
            name = m["name"]
            if any(name not in r["result"]["metrics"] for pair in pairs for r in pair):
                print(f"   {name:42s} not in every run of both sets")
                continue
            a = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
            b = [c["result"]["metrics"][name]["value"] for _, c in pairs]
            v = verdict(a, b, m["better"], m.get("bound"), failed_c > failed_p)
            qa, qb = _quartiles(a), _quartiles(b)
            print(f"   {name:42s} {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] -> "
                  f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']}: {v}")
    return 0
