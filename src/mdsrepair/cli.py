"""Command-line frontend.

Subcommands: verify, clique, search, report, list-codes, selftest.
Exit codes: 0 ok, 1 infeasible scheme or failed check, 2 bad input
(including a file that cannot be read or written).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
from pathlib import Path

from . import __version__
from .bundled import (
    BUNDLED_CODES,
    GOLDEN_TOTAL_BITS,
    bundled_code,
    bundled_scheme_dir,
    bundled_schemes,
    load_code,
    load_scheme,
    load_schemes,
)
from .clique import clique_bound, find_repair, generate_clique
from .codes import verify_mds
from .errors import (
    InfeasibleScheme,
    MdsRepairError,
    MissingScheme,
    NoFeasibleFound,
    clip,
)
from .repair import (RepairReport, RepairScheme, SubpacketizationSpec, baselines,
                     gamma_ranks)
from .search import SearchConfig, exhaustive_search, random_search

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2


def _manifest(command: str, inputs: dict, outputs: dict) -> dict:
    return {"command": command, "inputs": inputs, "outputs": outputs,
            "version": __version__}


def _replay(args: list) -> str:
    return "mdsrepair " + " ".join(str(a) for a in args)


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _elements_str(scheme: RepairScheme) -> str:
    return " | ".join(" ".join(str(e) for e in row) for row in scheme.elements)


def _report_json(scheme: RepairScheme, report: RepairReport) -> dict:
    naive, cutset = baselines(report.sub)
    return {
        "code": scheme.sub.code.name,
        "failed": scheme.failed,
        "s": scheme.sub.s,
        "gammas": list(report.gammas),
        "feasible": report.feasible,
        "total_bw": report.total_bw,
        "interference_bw": report.interference_bw,
        "naive_bw": naive,
        "cutset_bw": cutset,
        "symbol_bits": report.sub.bits(1),
        "total_bits": report.total_bits,
    }


def _print_report(scheme: RepairScheme, report: RepairReport) -> None:
    sub = scheme.sub
    naive, cutset = baselines(sub)
    print(f"node {scheme.failed}: elements [{_elements_str(scheme)}]")
    gam = " ".join(f"g{u + 1}={g}" for u, g in enumerate(report.gammas))
    print(f"  gamma: {gam}")
    unit = f"GF({sub.code.field.p}^{sub.s})"
    print(f"  total {report.total_bw} / naive {naive} / cutset {cutset} {unit} symbols "
          f"({report.total_bits} bits), "
          f"{'FEASIBLE' if report.feasible else 'INFEASIBLE'}")


def cmd_verify(args) -> int:
    code = load_code(args.code)
    if os.path.isdir(args.scheme):
        schemes = [scheme for _, scheme in load_schemes(args.scheme, code)]
    else:
        schemes = [load_scheme(args.scheme, code)]
    print(f"code {clip(code.name or '')} ({code.n},{code.k}) over {code.field!r}")
    reports = []
    for scheme in schemes:
        report = gamma_ranks(scheme)
        reports.append((scheme, report))
        _print_report(scheme, report)
    if len(reports) > 1:
        mean = sum(r.total_bits for _, r in reports) / len(reports)
        print(f"mean over {len(reports)} schemes: {mean:g} bits")
    replay = _replay(["verify", "--code", args.code, "--scheme", args.scheme])
    print(f"replay: {replay}")
    if args.json or args.out:
        payload = {
            "manifest": _manifest("verify",
                                  {"code": args.code, "scheme": args.scheme},
                                  {"out": args.out}),
            "reports": [_report_json(s, r) for s, r in reports],
        }
        _emit_json(payload, args.out)
    return EXIT_OK if all(r.feasible for _, r in reports) else EXIT_INFEASIBLE


def cmd_clique(args) -> int:
    code = load_code(args.code)
    part = generate_clique(code)
    print(f"code {clip(code.name or '')} ({code.n},{code.k}) over {code.field!r}, "
          f"vectorized over GF({code.field.p}^{part.sub.s})")
    print("cliques: " + " ".join("{" + ",".join(map(str, c)) + "}"
                                 for c in part.cliques))
    rows = []
    degenerate = len(part.cliques) == 1
    for i in range(1, code.k + 1):
        cr = find_repair(part, i)
        rows.append({"node": i, "C_i": len(cr.chosen_clique or ()), "bound": cr.bound,
                     "bound_bits": part.sub.bits(cr.bound),
                     "mu": str(cr.mu), "degenerate": cr.degenerate})
    print(f"{'node':>4} {'C_i':>4} {'bound':>6} {'bits':>5}  mu")
    for r in rows:
        print(f"{r['node']:>4} {r['C_i']:>4} {r['bound']:>6} "
              f"{r['bound_bits']:>5}  {r['mu']}")
    if degenerate:
        print("single clique: no gain over naive repair")
    if args.json or args.out:
        payload = {
            "manifest": _manifest("clique", {"code": args.code, "s": part.sub.s},
                                  {"out": args.out}),
            "cliques": [list(c) for c in part.cliques],
            "nodes": rows,
        }
        _emit_json(payload, args.out)
    return EXIT_OK


def _default_out(name: str | None, node: int) -> str:
    """best_<name>_node<i>.json in the working directory: the code name cut
    to 40 characters, each character outside [A-Za-z0-9._-] replaced by _,
    so no name makes a path or an over-long file name."""
    stem = re.sub(r"[^A-Za-z0-9._-]", "_", (name or "code")[:40])
    return f"best_{stem}_node{node}.json"


def _check_out(out: str) -> None:
    """Raise the OSError that writing ``out`` would, for a missing parent
    directory or a directory at ``out``, before a command prints or runs
    anything."""
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    if os.path.isdir(out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)


def cmd_search(args) -> int:
    code = load_code(args.code)
    sub = SubpacketizationSpec(code, args.subfield_degree)
    cfg = SearchConfig(sub, args.node, mode=args.mode, samples=args.samples,
                       seed=args.seed)
    out = args.out or _default_out(code.name, args.node)
    if not args.out:  # main checked the path the user gave
        _check_out(out)
    if args.mode == "exhaustive":
        result = exhaustive_search(cfg)
    else:
        result = random_search(cfg)
    report = result.best_report
    print(f"searched {result.evaluated} candidates "
          f"({'exhaustive' if result.proven_optimal else f'random, seed {args.seed}'})")
    _print_report(result.best, report)
    print(f"proven optimal: {result.proven_optimal}")
    with open(out, "w") as f:
        json.dump(result.best.to_json(), f, indent=1)
        f.write("\n")
    print(f"best scheme written to {out}")
    if args.json:
        payload = {
            "manifest": _manifest(
                "search",
                {"code": args.code, "node": args.node, "s": args.subfield_degree,
                 "mode": args.mode, "samples": args.samples, "seed": args.seed},
                {"scheme": out}),
            "evaluated": result.evaluated,
            "feasible": result.feasible,
            "proven_optimal": result.proven_optimal,
            "report": _report_json(result.best, report),
            "best_elements": [[e.to_json() for e in row]
                              for row in result.best.elements],
        }
        _emit_json(payload, None)
    return EXIT_OK


def cmd_report(args) -> int:
    code = load_code(args.code)
    if args.scheme_dir:
        directory = args.scheme_dir
    elif code.name in BUNDLED_CODES:
        directory = bundled_scheme_dir(code.name)
    else:
        raise MissingScheme(f"no bundled schemes for {code!r}; pass --scheme-dir")
    rows = []
    for path, scheme in load_schemes(directory, code):
        report = gamma_ranks(scheme)
        if not report.feasible:
            raise InfeasibleScheme(
                f"{path}: the scheme for node {scheme.failed} is infeasible")
        elements = " ".join(str(e) for row in scheme.elements for e in row)
        rows.append((scheme.failed, elements, report))
    sub = rows[0][2].sub
    naive_bits, cutset_bits = (sub.bits(bw) for bw in baselines(sub))
    mean = sum(r.total_bits for _, _, r in rows) / len(rows)
    saved = 100.0 * (naive_bits - mean) / naive_bits
    footer = (f"mean {mean:g} bits, {saved:g}% saved vs naive {naive_bits:g}"
              f" (cut-set {cutset_bits:g})")
    if args.format == "csv":
        lines = ["node,elements,bandwidth_bits"]
        lines += [f"{n},{e},{r.total_bits}" for n, e, r in rows]
        lines.append(f"mean,,{mean:g}")
    else:
        lines = ["| node | repair field elements | bandwidth (bits) |",
                 "|---:|---|---:|"]
        lines += [f"| {n} | {e} | {r.total_bits} |" for n, e, r in rows]
        lines.append("")
        lines.append(footer)
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"written to {args.out}")
    missing = [str(i) for i in range(1, code.k + 1)
               if i not in {n for n, _, _ in rows}]
    if missing:
        print(f"note: no schemes for nodes {', '.join(missing)}")
    return EXIT_OK


def cmd_list_codes(args) -> int:
    for name in BUNDLED_CODES:
        code = bundled_code(name)
        sub = SubpacketizationSpec(code, 1)
        print(f"{name}: ({code.n},{code.k}) over {code.field!r}, "
              f"beta={sub.beta} alpha={sub.alpha} M={sub.bits(sub.file_size)} bits, "
              f"bundled schemes for nodes "
              f"{sorted(GOLDEN_TOTAL_BITS[name])}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        failures += 0 if ok else 1

    for name in BUNDLED_CODES:
        code = bundled_code(name)
        check(f"{name} is MDS", verify_mds(code))
        schemes = bundled_schemes(name)
        for node, expect in sorted(GOLDEN_TOTAL_BITS[name].items()):
            report = gamma_ranks(schemes[node]) if node in schemes else None
            check(f"{name} node {node}: feasible at {expect} bits",
                  report is not None and report.feasible
                  and report.total_bits == expect)
    part = generate_clique(bundled_code("rs64"))
    check("rs64 cliques {1,4} {2} {3}", part.cliques == ((1, 4), (2,), (3,)))
    check("rs64 bounds (7,6,6,7)",
          tuple(clique_bound(part, i) for i in range(1, 5)) == (7, 6, 6, 7))
    print(f"{'PASS' if not failures else 'FAIL'}: "
          f"{failures} failure(s)")
    return EXIT_OK if not failures else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdsrepair",
        description="Repair-bandwidth toolkit for scalar MDS storage codes "
                    "vectorized over subfields.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="evaluate a repair scheme")
    p.add_argument("--code", required=True,
                   help=f"bundled name {BUNDLED_CODES} or code JSON path")
    p.add_argument("--scheme", required=True,
                   help="scheme JSON file, or a directory of node*.json files")
    p.add_argument("--json", action="store_true", help="print JSON payload")
    p.add_argument("--out", help="write JSON payload to this file")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("clique", help="clique partition and optimal "
                                       "2-parity repair")
    p.add_argument("--code", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_clique)

    p = subs.add_parser("search", help="search repair field elements")
    p.add_argument("--code", required=True)
    p.add_argument("--node", required=True, type=int)
    p.add_argument("--mode", choices=("exhaustive", "random"),
                   default="exhaustive")
    p.add_argument("-s", "--subfield-degree", type=int, default=1)
    p.add_argument("--samples", type=int, default=100_000,
                   help="random mode: candidates to draw")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="path for the best-scheme JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("report", help="tabulate per-node schemes")
    p.add_argument("--code", required=True)
    p.add_argument("--scheme-dir",
                   help="directory of node*.json files (default: bundled)")
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = subs.add_parser("list-codes", help="show bundled codes")
    p.set_defaults(func=cmd_list_codes)

    p = subs.add_parser("selftest", help="verify bundled codes and schemes")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args)
    except (InfeasibleScheme, NoFeasibleFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (MdsRepairError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
