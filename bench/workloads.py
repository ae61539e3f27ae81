"""The four benchmark workloads.

Each workload has three parts:

* ``setup(mods, seed, work)`` builds everything a round needs (fields,
  codes, bundled loads, configs) from freshly imported modules and the
  seed; ``work`` is a scratch directory for files the CLI reads or writes;
* ``round(state)`` runs the fixed job once and returns a ``Round`` with one
  ``Op`` per operation and the outputs the checks need;
* ``check(state, round, first, checks)`` runs after every round, untimed.
  It compares the outputs with values worked out apart from the code under
  test (published figures, the matrix oracle, the regenerated random
  stream, the message the benchmark encoded); ``first`` is the first round,
  or None when this is the first, and later rounds of a fixed job must
  repeat its outputs.  Each comparison is recorded in a ``Checks``.

Every round of a workload attempts the same operations, so the share of
failed operations is the same in every run.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from pace import reference_s, speed

perf = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Published per-node repair bandwidths (bits) of the bundled fb1410 schemes,
# and the clique bounds of rs64 at s=2 (GF(4) symbols), from the paper.
FB1410_PUBLISHED_BITS = (65, 64, 64, 64, 63, 64, 64, 65, 65, 64)
RS53_OPTIMUM_BITS = 10
RS64_OPTIMUM_BITS = 12
RS64_CLIQUES = ((1, 4), (2,), (3,))
RS64_CLIQUE_BOUNDS = (7, 6, 6, 7)

# RS(6,4) over GF(3^4): x^4 + x^3 + 2 is primitive over GF(3); evaluation
# points z^0..z^5 split the systematic nodes into cliques {1} {2,3} {4}.
GF81_POLY = (2, 0, 0, 1, 1)
GF81_CLIQUES = ((1,), (2, 3), (4,))

FB1410_RANDOM_SAMPLES = 2000      # per node, all ten nodes
GF81_RANDOM_SAMPLES = 1000        # per node at s=1, all four nodes
STREAM_SPOT_DRAWS = 24            # earlier draws re-scored by the matrix oracle
MESSAGES_PER_SCHEME = 2           # repair-sim recoveries per scheme per round
ORACLE_SCHEMES = 4                # repair-sim random schemes per (code, s)
CLI_RANDOM_SAMPLES = 2000


@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool = True
    speed: float | None = None    # own slowdown factor, else the round's


@dataclass
class Round:
    ops: list = field(default_factory=list)
    out: dict = field(default_factory=dict)
    candidates: int = 0
    best_bits: float = 0.0


def _timed(ops, kind, fn, *args, **kwargs):
    t0 = perf()
    result = fn(*args, **kwargs)
    ops.append(Op(kind, perf() - t0))
    return result


def _valid_s(code) -> list:
    m = code.field.m
    return [s for s in range(1, m + 1) if m % s == 0 and (m // s) % code.r == 0]


def _scheme(mods, sub, failed, flat):
    f = sub.code.field
    rows = tuple(tuple(f.element(flat[l * sub.beta + j]) for j in range(sub.beta))
                 for l in range(sub.code.r))
    return mods.repair.RepairScheme(sub, failed, rows)


def _matrix_report(mods, scheme):
    mat = mods.repair.realize_matrices(scheme)
    return mods.repair.gamma_ranks_matrix(scheme.sub, scheme.failed, mat)


def _message(code, rng):
    return [code.field.element(rng.randrange(code.field.q - 1))
            if rng.random() > 0.05 else code.field.zero()
            for _ in range(code.k)]


class Checks:
    """Failure messages of the output checks, and how many checks ran."""

    def __init__(self):
        self.ran = 0
        self.failures: list = []

    def expect(self, ok, msg) -> bool:
        """Count one check; record msg (a string or a callable giving one)
        when it fails."""
        self.ran += 1
        if not ok:
            self.failures.append(msg() if callable(msg) else msg)
        return bool(ok)


def _check_winner(mods, res, rng, ck, label):
    """Feasible, between the cut-set bound and naive, equal under the matrix
    oracle, and recoverable on a fresh message with the reported bits."""
    rep, best = res.best_report, res.best
    sub = best.sub
    naive = sub.code.k * sub.alpha
    cutset = (sub.code.n - 1) * sub.beta
    ck.expect(rep.feasible and cutset <= rep.total_bw <= naive,
              f"{label}: winner infeasible or {rep.total_bw} outside [{cutset}, {naive}]")
    mrep = _matrix_report(mods, best)
    ck.expect((mrep.gammas, mrep.feasible) == (rep.gammas, rep.feasible),
              f"{label}: element route {rep.gammas} != matrix route {mrep.gammas}")
    msg = _message(sub.code, rng)
    rec = mods.repair.recover_node(mods.codes.encode(sub.code, msg), best)
    ck.expect(rec.element == msg[best.failed - 1],
              f"{label}: recover_node returned {rec.element}, erased {msg[best.failed - 1]}")
    ck.expect(rec.total_bits == rep.total_bits,
              f"{label}: {rec.total_bits} bits on the wire, reported {rep.total_bits}")
    downloads = {u + 1: g for u, g in enumerate(rep.gammas) if u != best.failed - 1}
    downloads.update({sub.code.k + 1 + l: sub.beta for l in range(sub.code.r)})
    ck.expect(rec.downloads == downloads,
              f"{label}: downloads {rec.downloads} != gammas {downloads}")


def _stream_check(mods, res, seed, samples, ck, label):
    """Regenerate the documented random stream: the winner must occur in it,
    and no spot-checked earlier draw may match or beat it under the matrix
    oracle (only strictly better draws replace the incumbent)."""
    sub, failed = res.best.sub, res.best.failed
    q1 = sub.code.field.q - 1
    free = sub.code.r * sub.beta - 1
    winner = tuple(res.best.flat_exps())
    rng = random.Random(seed)
    draws = []
    for _ in range(samples):
        d = (0,) + tuple(rng.randrange(q1) for _ in range(free))
        if d == winner:
            break
        draws.append(d)
    if not ck.expect(len(draws) < samples,
                     f"{label}: winner {list(winner)} not in the seeded stream"):
        return
    spot = random.Random(len(draws)).sample(range(len(draws)),
                                            min(STREAM_SPOT_DRAWS, len(draws)))
    for i in spot:
        rep = _matrix_report(mods, _scheme(mods, sub, failed, draws[i]))
        ck.expect(not rep.feasible or rep.total_bw > res.best_report.total_bw,
                  f"{label}: earlier draw {i} scores {rep.total_bw} "
                  f"<= winner {res.best_report.total_bw}")


def _space(code, s):
    """Exhaustive candidates: (q-1)^(slots-1) with the first element pinned."""
    beta = code.field.m // (s * code.r)
    return (code.field.q - 1) ** (code.r * beta - 1)


def _json_tail(text):
    """The indented JSON payload a CLI command prints after its human lines."""
    lines = text.splitlines()
    return json.loads("\n".join(lines[lines.index("{"):]))


def _winners(r):
    return {k: (tuple(v.best.flat_exps()), v.best_report.total_bw, v.evaluated)
            for k, v in r.out.items() if hasattr(v, "best")}


def _search_round(mods, jobs, rd):
    for key, cfg in jobs:
        fn = (mods.search.random_search if cfg.mode == "random"
              else mods.search.exhaustive_search)
        res = _timed(rd.ops, cfg.mode, fn, cfg)
        rd.out[key] = res
        rd.candidates += res.evaluated
        rd.best_bits += res.best_report.total_bits


# ---------------------------------------------------------------------------
# search-gf2
# ---------------------------------------------------------------------------

class SearchGF2:
    name = "search-gf2"

    def setup(self, mods, seed, work):
        rng = random.Random(f"search-gf2:{seed}")
        b, r, s = mods.bundled, mods.repair, mods.search
        codes = {n: b.bundled_code(n) for n in ("rs53", "rs64", "fb1410")}
        fb = codes["fb1410"]
        jobs = [(("fb1410", node, 1),
                 s.SearchConfig(r.SubpacketizationSpec(fb, 1), node, mode="random",
                                samples=FB1410_RANDOM_SAMPLES,
                                seed=rng.randrange(2 ** 31)))
                for node in range(1, fb.k + 1)]
        for name, svals in (("rs53", (1,)), ("rs64", (1, 2))):
            for sv in svals:
                sub = r.SubpacketizationSpec(codes[name], sv)
                jobs += [((name, node, sv), s.SearchConfig(sub, node))
                         for node in range(1, codes[name].k + 1)]
        return {"mods": mods, "codes": codes, "jobs": jobs, "rng": rng}

    def round(self, st):
        rd = Round()
        _search_round(st["mods"], st["jobs"], rd)
        return rd

    def check(self, st, rd, first, ck):
        if first is not None:
            ck.expect(_winners(rd) == _winners(first), f"{self.name}: winners changed")
            return
        mods = st["mods"]
        rs64_part = mods.clique.generate_clique(st["codes"]["rs64"])
        for (name, node, sv), cfg in st["jobs"]:
            res = rd.out[(name, node, sv)]
            bits = res.best_report.total_bits
            label = f"{name} node {node} s={sv}"
            _check_winner(mods, res, st["rng"], ck, label)
            if cfg.mode == "random":
                ck.expect(res.evaluated == cfg.samples,
                          f"{label}: evaluated {res.evaluated} != {cfg.samples}")
                _stream_check(mods, res, cfg.seed, cfg.samples, ck, label)
                continue
            space = _space(st["codes"][name], sv)
            ck.expect(res.evaluated == space,
                      f"{label}: evaluated {res.evaluated} != (q-1)^free = {space}")
            if name == "rs53":
                ck.expect(bits == RS53_OPTIMUM_BITS, f"{label}: optimum {bits} bits != 10")
            elif sv == 1:
                ck.expect(bits == RS64_OPTIMUM_BITS, f"{label}: optimum {bits} bits != 12")
            else:
                bound = mods.clique.clique_bound(rs64_part, node)
                ck.expect(res.best_report.total_bw == bound == RS64_CLIQUE_BOUNDS[node - 1],
                          f"{label}: optimum {res.best_report.total_bw}, clique bound "
                          f"{bound}, published {RS64_CLIQUE_BOUNDS[node - 1]}")


# ---------------------------------------------------------------------------
# search-gf81
# ---------------------------------------------------------------------------

def build_gf81_code(mods):
    f = mods.gf.FieldSpec(3, list(GF81_POLY))
    rs = mods.codes.rs_systematic(f, [f.element(i) for i in range(6)], 4, "rs64gf81")
    return mods.codes.normalize_parity(rs)


class SearchGF81:
    name = "search-gf81"

    def setup(self, mods, seed, work):
        rng = random.Random(f"search-gf81:{seed}")
        r, s = mods.repair, mods.search
        code = build_gf81_code(mods)
        sub1, sub2 = r.SubpacketizationSpec(code, 1), r.SubpacketizationSpec(code, 2)
        jobs = [((node, 2), s.SearchConfig(sub2, node)) for node in range(1, code.k + 1)]
        jobs += [((node, 1), s.SearchConfig(sub1, node, mode="random",
                                            samples=GF81_RANDOM_SAMPLES,
                                            seed=rng.randrange(2 ** 31)))
                 for node in range(1, code.k + 1)]
        return {"mods": mods, "code": code, "jobs": jobs, "rng": rng,
                "scale": rng.randrange(1, code.field.q - 1)}

    def round(self, st):
        mods, code = st["mods"], st["code"]
        cl = mods.clique
        rd = Round()
        part = _timed(rd.ops, "clique", cl.generate_clique, code)
        rd.out["cliques"] = part.cliques
        for node in range(1, code.k + 1):
            t0 = perf()
            bound = cl.clique_bound(part, node)
            cr = cl.find_repair(part, node)
            rd.ops.append(Op("clique", perf() - t0))
            rd.out[("clique", node)] = (bound, cr)
        _search_round(mods, st["jobs"], rd)
        return rd

    def check(self, st, rd, first, ck):
        if first is not None:
            ck.expect(_winners(rd) == _winners(first), f"{self.name}: winners changed")
            return
        mods, code = st["mods"], st["code"]
        out = rd.out
        ck.expect(out["cliques"] == GF81_CLIQUES,
                  f"gf81 cliques {out['cliques']} != {GF81_CLIQUES}")
        # the bound M - C_i * alpha / 2 = 2k - C_i (alpha = 2), worked out
        # from the expected partition
        expected = [2 * code.k - max(len(c) for c in GF81_CLIQUES if node not in c)
                    for node in range(1, code.k + 1)]
        for node in range(1, code.k + 1):
            bound, cr = out[("clique", node)]
            label = f"gf81 node {node}"
            ck.expect(bound == expected[node - 1],
                      f"{label}: clique bound {bound} != {expected[node - 1]}")
            for route, rep in (("element", mods.repair.gamma_ranks(cr.scheme)),
                               ("matrix", _matrix_report(mods, cr.scheme))):
                ck.expect(rep.feasible and rep.total_bw == bound,
                          f"{label}: find_repair scheme ({route} route) gives "
                          f"{rep.total_bw}, bound {bound}")
        for (node, sv), cfg in st["jobs"]:
            res = out[(node, sv)]
            rep = res.best_report
            label = f"gf81 node {node} s={sv}"
            _check_winner(mods, res, st["rng"], ck, label)
            if cfg.mode == "exhaustive":
                ck.expect(res.evaluated == _space(code, sv),
                          f"{label}: evaluated {res.evaluated} != {_space(code, sv)}")
                ck.expect(rep.total_bw == expected[node - 1],
                          f"{label}: exhaustive optimum {rep.total_bw} "
                          f"!= clique bound {expected[node - 1]}")
                continue
            _stream_check(mods, res, cfg.seed, cfg.samples, ck, label)
            c = code.field.element(st["scale"])
            scaled = mods.repair.RepairScheme(
                res.best.sub, node,
                tuple(tuple(e * c for e in row) for row in res.best.elements))
            srep = mods.repair.gamma_ranks(scaled)
            ck.expect((srep.gammas, srep.total_bw) == (rep.gammas, rep.total_bw),
                      f"{label}: scaling by z^{st['scale']} changed the report")


# ---------------------------------------------------------------------------
# repair-sim
# ---------------------------------------------------------------------------

class RepairSim:
    name = "repair-sim"

    def setup(self, mods, seed, work):
        rng = random.Random(f"repair-sim:{seed}")
        b, r, cl = mods.bundled, mods.repair, mods.clique
        codes = {n: b.bundled_code(n) for n in ("rs53", "rs64", "fb1410")}
        schemes = [sch for n in codes for sch in b.bundled_schemes(n).values()]
        rs64_part = cl.generate_clique(codes["rs64"])
        schemes += [r.lift_scheme(cl.find_repair(rs64_part, i).scheme, 2) for i in (2, 3)]
        gf81 = build_gf81_code(mods)
        gf81_part = cl.generate_clique(gf81)
        for i in range(1, gf81.k + 1):
            sch = cl.find_repair(gf81_part, i).scheme
            schemes += [sch, r.lift_scheme(sch, 2)]
        combos = [(c, r.SubpacketizationSpec(c, sv))
                  for c in codes.values() for sv in _valid_s(c)]
        # element-route reports the recovered download counts must match
        reports = [r.gamma_ranks(sch) for sch in schemes]
        return {"mods": mods, "schemes": schemes, "reports": reports,
                "combos": combos, "rng": rng}

    def round(self, st):
        mods, rng = st["mods"], st["rng"]
        encode, recover = mods.codes.encode, mods.repair.recover_node
        rd = Round()
        recs = []
        for idx, sch in enumerate(st["schemes"]):
            code = sch.sub.code
            for _ in range(MESSAGES_PER_SCHEME):
                msg = _message(code, rng)
                cw = _timed(rd.ops, "encode", encode, code, msg)
                rec = _timed(rd.ops, "recover", recover, cw, sch)
                recs.append((idx, msg[sch.failed - 1], rec))
        oracle = []
        for code, sub in st["combos"]:
            for _ in range(ORACLE_SCHEMES):
                failed = rng.randrange(1, code.k + 1)
                flat = [rng.randrange(code.field.q - 1) for _ in range(code.r * sub.beta)]
                sch = _scheme(mods, sub, failed, flat)
                t0 = perf()
                erep = mods.repair.gamma_ranks(sch)
                mrep = _matrix_report(mods, sch)
                rd.ops.append(Op("oracle", perf() - t0))
                oracle.append((sch, erep, mrep))
        rd.out = {"recoveries": recs, "oracle": oracle}
        return rd

    def check(self, st, rd, first, ck):
        for idx, want, rec in rd.out["recoveries"]:
            sch, rep = st["schemes"][idx], st["reports"][idx]
            label = f"{sch.sub.code.name} node {sch.failed} s={sch.sub.s}"
            ck.expect(rec.element == want,
                      lambda: f"{label}: recovered {rec.element}, erased {want}")
            ck.expect(all(rec.downloads[u + 1] == g for u, g in enumerate(rep.gammas)
                          if u != sch.failed - 1),
                      lambda: f"{label}: downloads {rec.downloads} != gammas {rep.gammas}")
            ck.expect(rec.total_symbols == rep.total_bw and rec.total_bits == rep.total_bits,
                      lambda: f"{label}: {rec.total_bits} bits on the wire, "
                              f"element route {rep.total_bits}")
        for sch, erep, mrep in rd.out["oracle"]:
            ck.expect((erep.gammas, erep.feasible) == (mrep.gammas, mrep.feasible),
                      lambda: f"{sch.sub.code.name} s={sch.sub.s} {sch.flat_exps()}: "
                              f"element {erep.gammas} != matrix {mrep.gammas}")


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

class Cli:
    name = "cli"

    def setup(self, mods, seed, work):
        rng = random.Random(f"cli:{seed}")
        b = mods.bundled
        codes = {n: b.bundled_code(n) for n in ("rs53", "rs64", "fb1410")}
        work.mkdir(parents=True, exist_ok=True)
        rs64 = json.loads((SRC / "mdsrepair/data/codes/rs64.json").read_text())
        rs64["k"] = 4.0
        hostile = work / "rs64_k4.json"
        hostile.write_text(json.dumps(rs64))
        ex_node = rng.randrange(1, 4)
        rnd_node = rng.randrange(1, 11)
        rnd_seed = rng.randrange(2 ** 31)
        scheme_dir = str(SRC / "mdsrepair/data/schemes/fb1410")
        script = [
            ("list-codes", ["list-codes"]),
            ("verify", ["verify", "--code", "fb1410", "--scheme", scheme_dir, "--json"]),
            ("report", ["report", "--code", "fb1410"]),
            ("clique", ["clique", "--code", "rs64", "--json"]),
            ("selftest", ["selftest"]),
            ("search-exhaustive", ["search", "--code", "rs53", "--node", str(ex_node),
                                   "--mode", "exhaustive", "--json",
                                   "--out", str(work / "ex.json")]),
            ("search-random", ["search", "--code", "fb1410", "--node", str(rnd_node),
                               "--mode", "random", "--samples", str(CLI_RANDOM_SAMPLES),
                               "--seed", str(rnd_seed), "--json",
                               "--out", str(work / "rnd.json")]),
        ]
        hostile_cmds = [
            ["search", "--code", str(hostile), "--node", "1",
             "--out", str(work / "hostile.json")],
            ["clique", "--code", str(hostile)],
        ]
        return {"mods": mods, "codes": codes, "work": work, "script": script,
                "hostile": hostile_cmds, "traced": False, "child_stats": []}

    def _invoke(self, st, args, idx):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        if st["traced"]:
            stats = st["work"] / f"child{idx}.json"
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(stats)] + args
        else:
            stats = None
            cmd = [sys.executable, "-m", "mdsrepair.cli"] + args
        t0 = perf()
        proc = subprocess.run(cmd, cwd=st["work"], env=env, capture_output=True,
                              text=True, timeout=150)
        dt = perf() - t0
        if stats is not None and stats.exists():
            st["child_stats"].append(json.loads(stats.read_text()))
            stats.unlink()
        return proc, dt

    def round(self, st):
        rd = Round()
        # each invocation is rescaled by the machine speed around it
        ref = reference_s()
        for i, (label, args) in enumerate(st["script"]):
            proc, dt = self._invoke(st, args, i)
            refs = [ref, reference_s()]
            ref = refs[1]
            rd.ops.append(Op(label, dt, proc.returncode == 0, speed(refs)))
            rd.out[label] = (proc.returncode, proc.stdout, proc.stderr)
        # hostile input: a code file with "k": 4.0 must be refused with exit 2
        # and a one-line error, by search and by clique alike
        ok, dt = True, 0.0
        for j, args in enumerate(st["hostile"]):
            proc, t = self._invoke(st, args, len(st["script"]) + j)
            err = proc.stderr.strip().splitlines()
            ok = ok and proc.returncode == 2 and len(err) == 1 and err[0].startswith("error:")
            dt += t
        refs = [ref, reference_s()]
        rd.ops.append(Op("hostile", dt, ok, speed(refs)))
        return rd

    def check(self, st, rd, first, ck):
        mods = st["mods"]
        for label, _ in st["script"]:
            rc, _, err = rd.out[label]
            ck.expect(rc == 0, f"{label}: exit {rc}: {err.strip()[-300:]}")
        if first is not None:
            ck.expect(all(rd.out[k][:2] == first.out[k][:2] for k, _ in st["script"]),
                      f"{self.name}: output changed from the first round")
            return
        if ck.failures:
            return
        out = {k: v[1] for k, v in rd.out.items()}
        bits = tuple(r["total_bits"] for r in _json_tail(out["verify"])["reports"])
        ck.expect(bits == FB1410_PUBLISHED_BITS,
                  f"verify fb1410 totals {bits} != published {FB1410_PUBLISHED_BITS}")
        clique = _json_tail(out["clique"])
        cliques = tuple(tuple(c) for c in clique["cliques"])
        bounds = tuple(r["bound"] for r in clique["nodes"])
        ck.expect(cliques == RS64_CLIQUES and bounds == RS64_CLIQUE_BOUNDS,
                  f"clique rs64: cliques {cliques}, bounds {bounds}")
        ck.expect(any(line.startswith("PASS") for line in out["selftest"].splitlines()),
                  "selftest did not report PASS")
        ck.expect("mean 64.2 bits" in out["report"],
                  "report fb1410 does not give the published mean 64.2 bits")
        ck.expect(out["list-codes"].count("bundled schemes") == 3,
                  "list-codes does not list three codes")
        for label, path in (("search-exhaustive", "ex.json"), ("search-random", "rnd.json")):
            reported = _json_tail(out[label])["report"]
            scheme = mods.bundled.load_scheme(str(st["work"] / path),
                                              st["codes"][reported["code"]])
            rep = _matrix_report(mods, scheme)
            bits = rep.total_bw * scheme.sub.s
            ck.expect(rep.feasible and bits == reported["total_bits"],
                      f"{label}: written scheme re-scores to {bits} bits, "
                      f"reported {reported['total_bits']}")
            if label == "search-exhaustive":
                ck.expect(bits == RS53_OPTIMUM_BITS, f"{label}: rs53 optimum {bits} != 10")


WORKLOADS = {w.name: w for w in (SearchGF2(), SearchGF81(), RepairSim(), Cli())}
