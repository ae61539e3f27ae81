#!/usr/bin/env python3
"""mdsrepair benchmark: one workload per process, whole rounds for --seconds.

    python3 bench/run.py --workload search-gf2 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

The program under test is imported from ``src/`` of the checkout the script
sits in; it receives only the inputs generated from ``--seed``.  A run:

1. sets up ``SETUPS`` times (fresh import of ``mdsrepair``, fields, codes,
   bundled loads, search configs) and reports the median as ``setup_s``;
2. repeats the workload's fixed job in whole rounds until ``--seconds``
   have passed, timing each operation;
3. checks the outputs of every round (see ``workloads.py``), untimed and
   with tracing off;
4. writes ``bench/results/<workload>_seed<n>_trace<t>.json`` (and the
   spans of a traced run), prints a detail line, then as the last line the
   JSON result: end-to-end metrics with ``--trace 0``, per-layer metrics
   with ``--trace 1``.

Set-up, round and operation times are rescaled to a fixed machine speed
with the reference loop of ``pace.py``, timed before and after each of
them.  A traced run alternates traced and untraced rounds; per-layer
figures come from the traced ones and ``trace.overhead_s`` is the
difference of the two median round times.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

from pace import reference_s, speed
from tracing import (EVALUATE, FEASIBLE, RANK_IN_EVALUATE, Tracer,
                     merge_stats)
from workloads import BENCH_DIR, ROOT, SRC, WORKLOADS, Checks

perf = time.perf_counter
RESULTS = BENCH_DIR / "results"
SETUPS = 5
LAYERS = ("gf", "linalg", "codes", "repair", "clique", "search", "bundled")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}
# the operations whose latency op_p50_ms reports
LATENCY_KINDS = {
    "search-gf2": {"random"},
    "search-gf81": {"random"},
    "repair-sim": {"recover"},
    "cli": {"list-codes", "verify", "report", "clique", "selftest",
            "search-exhaustive", "search-random"},
}
CLI_LABELS = sorted(LATENCY_KINDS["cli"])

PER_LAYER = {
    "gf.field_build_ms": "ms",
    "gf.operator_calls": "count",
    "gf.operator_us": "us",
    "linalg.bit_rank_calls": "count",
    "linalg.bit_rank_ns": "ns",
    "linalg.bit_rank_busy_s": "s",
    "linalg.rank_mod_p_calls": "count",
    "linalg.rank_mod_p_us": "us",
    "linalg.rref_mod_p_calls": "count",
    "linalg.rref_mod_p_us": "us",
    "linalg.solve_mod_p_us": "us",
    "codes.encode_us": "us",
    "codes.verify_mds_ms": "ms",
    "repair.evaluate_us": "us",
    "repair.evaluate_busy_s": "s",
    "repair.rank_calls_per_candidate": "count",
    "repair.feasible_ratio": "ratio",
    "repair.gamma_ranks_us": "us",
    "repair.realize_matrices_ms": "ms",
    "repair.gamma_ranks_matrix_ms": "ms",
    "repair.recover_node_ms": "ms",
    "clique.generate_clique_ms": "ms",
    "clique.find_repair_ms": "ms",
    "search.random_search_s": "s",
    "search.exhaustive_search_s": "s",
    "search.self_s": "s",
    "bundled.load_ms": "ms",
    "cli.import_s": "s",
    **{f"cli.{label}_s": "s" for label in CLI_LABELS},
    "trace.overhead_s": "s",
}


def fresh_import():
    """Import mdsrepair from the checkout's src/, dropping any earlier copy
    so each set-up pays for the import again."""
    for name in [n for n in sys.modules if n == "mdsrepair" or n.startswith("mdsrepair.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mdsrepair")
    if not os.path.realpath(pkg.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"mdsrepair imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{n: importlib.import_module(f"mdsrepair.{n}") for n in LAYERS})


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "commit": commit}


def percentile(values, q):
    """The q-quantile of values, interpolated between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def detail_metrics(name, rounds, round_times):
    """The workload-specific figures behind the end-to-end metrics."""
    ops = [op for rd in rounds for op in rd.ops]
    d = {"rounds": len(rounds), "round_s": round_times}
    if name.startswith("search"):
        search_s = sum(op.seconds for op in ops if op.kind in ("random", "exhaustive"))
        d["candidates_per_s"] = sum(rd.candidates for rd in rounds) / search_s
        d["search_best_bits"] = rounds[0].best_bits
    elif name == "repair-sim":
        rec = [op.seconds for op in ops if op.kind == "recover"]
        orc = [op.seconds for op in ops if op.kind == "oracle"]
        d["recoveries"] = len(rec)
        d["recoveries_per_s"] = len(rec) / sum(rec)
        d["recover_p50_ms"] = statistics.median(rec) * 1e3
        # the highest percentile with at least ten samples beyond it
        if len(rec) >= 1000:
            d["recover_p99_ms"] = percentile(rec, 0.99) * 1e3
        d["oracle_checks_per_s"] = len(orc) / sum(orc)
    else:
        lat = [op.seconds for op in ops if op.kind in LATENCY_KINDS["cli"]]
        d["cli_p50_s"] = statistics.median(lat)
        for label in CLI_LABELS:
            d[f"cli.{label}_s"] = statistics.median(
                op.seconds for op in ops if op.kind == label)
    return d


def layer_metrics(workload, tracer, traced, untraced, child_imports, setups):
    """Per-layer figures: counts and busy time per traced round, time per
    call over set-up and traced rounds together."""
    R, S = tracer.stats["rounds"], tracer.stats["setup"]
    n = len(traced)
    empty = (0, 0.0)

    def calls(name):
        return R.get(name, empty)[0] / n

    def busy(name):
        return R.get(name, empty)[1] / n

    def per_call(name, scale):
        c = R.get(name, empty)[0] + S.get(name, empty)[0]
        b = R.get(name, empty)[1] + S.get(name, empty)[1]
        return b / c * scale if c else 0.0

    spans = tracer.spans
    bundled_s = sum(t1 - t0 for key, t0, t1, parent, rnd in spans
                    if rnd is None and key.startswith("bundled.")
                    and (parent is None or not spans[parent][0].startswith("bundled.")))
    evals = R.get(EVALUATE, empty)[0]
    m = {
        "gf.field_build_ms": per_call("gf.FieldSpec.__init__", 1e3),
        "gf.operator_calls": calls("gf.FieldElement.operator"),
        "gf.operator_us": per_call("gf.FieldElement.operator", 1e6),
        "linalg.bit_rank_calls": calls("linalg.bit_rank"),
        "linalg.bit_rank_ns": per_call("linalg.bit_rank", 1e9),
        "linalg.bit_rank_busy_s": busy("linalg.bit_rank"),
        "linalg.rank_mod_p_calls": calls("linalg.rank_mod_p"),
        "linalg.rank_mod_p_us": per_call("linalg.rank_mod_p", 1e6),
        "linalg.rref_mod_p_calls": calls("linalg.rref_mod_p"),
        "linalg.rref_mod_p_us": per_call("linalg.rref_mod_p", 1e6),
        "linalg.solve_mod_p_us": per_call("linalg.solve_mod_p", 1e6),
        "codes.encode_us": per_call("codes.encode", 1e6),
        "codes.verify_mds_ms": per_call("codes.verify_mds", 1e3),
        "repair.evaluate_us": per_call(EVALUATE, 1e6),
        "repair.evaluate_busy_s": busy(EVALUATE),
        "repair.rank_calls_per_candidate":
            R.get(RANK_IN_EVALUATE, empty)[0] / evals if evals else 0.0,
        "repair.feasible_ratio": R.get(FEASIBLE, empty)[0] / evals if evals else 0.0,
        "repair.gamma_ranks_us": per_call("repair.gamma_ranks", 1e6),
        "repair.realize_matrices_ms": per_call("repair.realize_matrices", 1e3),
        "repair.gamma_ranks_matrix_ms": per_call("repair.gamma_ranks_matrix", 1e3),
        "repair.recover_node_ms": per_call("repair.recover_node", 1e3),
        "clique.generate_clique_ms": per_call("clique.generate_clique", 1e3),
        "clique.find_repair_ms": per_call("clique.find_repair", 1e3),
        "search.random_search_s": busy("search.random_search"),
        "search.exhaustive_search_s": busy("search.exhaustive_search"),
        "search.self_s": busy("search.random_search") + busy("search.exhaustive_search")
                         - busy(EVALUATE),
        "bundled.load_ms": bundled_s / setups * 1e3,
        "cli.import_s": statistics.median(child_imports) if child_imports else 0.0,
        "trace.overhead_s": statistics.median(t for t, _ in traced)
                            - statistics.median(t for t, _ in untraced),
    }
    for label in CLI_LABELS:
        walls = [op.seconds for _, rd in untraced for op in rd.ops
                 if workload == "cli" and op.kind == label]
        m[f"cli.{label}_s"] = statistics.median(walls) if walls else 0.0
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name]
    work = RESULTS / f"work-{name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        setup_times, setup_refs = [], [reference_s()]
        for _ in range(SETUPS):
            t0 = perf()
            mods = fresh_import()
            if tracer:
                tracer.uninstall()
                tracer.install()
            state = wl.setup(mods, seed, work)
            setup_times.append(perf() - t0)
            setup_refs.append(reference_s())

        rounds, round_times, refs = [], [], [reference_s()]
        traced, untraced, child_imports = [], [], []
        checks = Checks()
        deadline = perf() + seconds
        while True:
            on = tracer is not None and len(rounds) % 2 == 0
            if on:
                tracer.install()
                tracer.set_phase("rounds", len(rounds))
            state["traced"] = on
            t0 = perf()
            rd = wl.round(state)
            dt = perf() - t0
            refs.append(reference_s())
            if tracer:
                tracer.uninstall()
            # rescale to the machine speed around this round
            for op in rd.ops:
                op.seconds /= op.speed or speed(refs[-2:])
            dt /= speed(refs[-2:])
            wl.check(state, rd, rounds[0] if rounds else None, checks)
            if rounds:
                rd.out = None       # only the first round's outputs are kept
            rounds.append(rd)
            round_times.append(dt)
            (traced if on else untraced).append((dt, rd))
            # per-layer records of traced CLI children
            children = state.get("child_stats", [])
            for child in children:
                merge_stats(tracer.stats["rounds"], child["stats"]["rounds"])
                child_imports.append(child["import_s"])
                base = len(tracer.spans)
                tracer.spans.extend(
                    (sname, t0_, t1_, None if par is None else base + par, len(rounds) - 1)
                    for sname, t0_, t1_, par, _ in child["spans"])
            children.clear()
            if perf() >= deadline and (tracer is None or untraced):
                break
        fails = checks.failures
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for rd in rounds for op in rd.ops]
    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    setup_times = [t / speed(setup_refs[i:i + 2]) for i, t in enumerate(setup_times)]
    detail = detail_metrics(name, rounds, round_times)
    detail["reference_s"] = statistics.median(refs)
    if tracer:
        values = layer_metrics(name, tracer, traced, untraced, child_imports, SETUPS)
        units = PER_LAYER
    else:
        lat = [op.seconds for op in ops if op.kind in LATENCY_KINDS[name]]
        values = {
            "setup_s": statistics.median(setup_times),
            # the job op by op: each operation's median over the rounds
            "wall_s": sum(statistics.median(rd.ops[j].seconds for rd in rounds)
                          for j in range(len(rounds[0].ops))),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "peak_rss_mib": peak_rss_mib(name),
        }
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {"correct": not fails and checks.ran > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(), "setup_s": setup_times, "checks_run": checks.ran,
              "failures": fails[:50],
              "detail": detail, **result}
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{name}_seed{seed}_trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (RESULTS / f"spans_{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "round"],
             "spans": tracer.spans_json()}) + "\n")
    for msg in fails[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"workload": name, "env": record["env"], "checks_run": checks.ran,
                      "detail": detail}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload as its own process, one after another."""
    rc = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            rc = 1
            continue
        res, info = json.loads(lines[-1]), json.loads(lines[-2])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} checks={info['checks_run']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric} = {v['value']:.6g} {v['unit']}")
        for key, v in info["detail"].items():
            if isinstance(v, (int, float)):
                print(f"  detail {key} = {v:.6g}")
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mdsrepair" / "__init__.py").is_file():
        print(f"error: no mdsrepair sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Keep this process, its CLI children and the reference loop on one
    # core, so the reference measures the core the work runs on.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"warning: running unpinned: {exc}", file=sys.stderr)
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
