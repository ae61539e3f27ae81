#!/usr/bin/env python3
"""Fast self-check of the benchmark.

    python3 bench/selfcheck.py

Runs every workload for one second (one round or two), untraced and
traced, and confirms that the last output line is the result object with
exactly the metrics ``BENCHMARK.json`` names, with the same units, that
the output checks ran and passed, and that end-to-end values are nonzero.
Exits 1 on the first workload that does not.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for wl in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, *bench["command"][1:], "--workload", wl["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            where = f"{wl['name']} trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result, info = json.loads(lines[-1]), json.loads(lines[-2])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if units != expected[trace]:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                                f"{set(units.items()) ^ set(expected[trace].items())}")
            if not result["correct"] or info["checks_run"] < 1:
                problems.append(f"{where}: correct={result['correct']}, "
                                f"{info['checks_run']} checks ran\n{proc.stderr[-2000:]}")
            if trace == 0 and not all(v["value"] > 0 for v in result["metrics"].values()):
                problems.append(f"{where}: a zero end-to-end metric {result['metrics']}")
            if result["attempted"] < 1:
                problems.append(f"{where}: attempted {result['attempted']}")
            print(f"{where}: {info['checks_run']} checks, attempted "
                  f"{result['attempted']}, failed {result['failed']}")
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print("selfcheck " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
