#!/usr/bin/env python3
"""Spread of benchmark results, and agreement between two sets of runs.

    python3 bench/spread.py SET_A [--against SET_B]

A set is a directory of result files written by ``run.py`` (or the files
themselves).  For each workload and metric the helper prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the relative spread (q3 - q1) / median, beside the metric's bound from
``BENCHMARK.json``; a spread above a third of the bound is flagged.  Detail
figures (candidates/s, recovery percentiles, per-command CLI times) are
listed too, without a bound.

With ``--against``, each end-to-end median of SET_B is compared with SET_A:
the change in the metric's worse direction must stay within the bound, and
the share of failed operations must be identical.  The exit code is 1 when
any end-to-end spread exceeds its bound (setup_s excepted) or the sets
disagree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in BENCH["end_to_end"]}


def load(paths) -> dict:
    """{(workload, trace): [record, ...]} from result files or directories."""
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("*_trace[01].json")) if p.is_dir() else [p]
    out = defaultdict(list)
    for f in files:
        if f.name.startswith("spans_"):
            continue
        rec = json.loads(f.read_text())
        out[(rec["workload"], rec["trace"])].append(rec)
    return out


def values(records) -> dict:
    """{metric: [value per run]} for the result metrics and numeric details."""
    vals = defaultdict(list)
    for rec in records:
        for name, m in rec["metrics"].items():
            vals[name].append(m["value"])
        for name, v in rec["detail"].items():
            if isinstance(v, (int, float)) and name != "rounds":
                vals[f"detail:{name}"].append(v)
    return vals


def summary(xs):
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def fail_share(records):
    return sorted({r["failed"] / r["attempted"] for r in records})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="+", help="result directories or files (set A)")
    ap.add_argument("--against", nargs="+", help="result directories or files (set B)")
    args = ap.parse_args(argv)
    a = load(args.sets)
    b = load(args.against) if args.against else {}
    bad = False
    for key in sorted(a):
        workload, trace = key
        recs = a[key]
        print(f"\n{workload} (trace {trace}): {len(recs)} runs, seeds "
              f"{sorted(r['seed'] for r in recs)}, failed share {fail_share(recs)}, "
              f"all correct: {all(r['correct'] for r in recs)}")
        bad |= not all(r["correct"] for r in recs)
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, xs in values(recs).items():
            med, q1, q3, spread = summary(xs)
            bound = E2E.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  spread > bound/3"
                bad |= spread > bound
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                  f"{'' if bound is None else f'{bound:.2f}':>6}{flag}")
        if key not in b:
            continue
        other = b[key]
        if fail_share(other) != fail_share(recs):
            print(f"  failed share differs: {fail_share(recs)} vs {fail_share(other)}")
            bad = True
        ob = values(other)
        for name, m in E2E.items():
            if name not in ob:
                continue
            ma, mb = statistics.median(values(recs)[name]), statistics.median(ob[name])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = worse <= m["bound"]
            bad |= not ok
            print(f"  against: {name:25} {ma:12.6g} -> {mb:12.6g} "
                  f"worse by {worse:+.2%} (bound {m['bound']:.0%}) {'ok' if ok else 'EXCEEDED'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
