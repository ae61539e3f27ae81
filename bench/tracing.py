"""In-memory tracing of mdsrepair's public functions, installed from outside.

The tracer replaces the public functions and methods of each layer
(``gf``, ``linalg``, ``codes``, ``repair``, ``clique``, ``search``,
``bundled``, ``cli``) with timing wrappers, in every loaded ``mdsrepair``
module that holds a reference to them (``from .repair import gamma_ranks``
copies the name, so patching only the defining module would miss callers).
Nothing inside the package changes; ``uninstall`` puts the originals back.

Two kinds of wrapper:

* kernels that run once per candidate or per matrix (``HOT``) only add to a
  call count and a busy time, because one span per call would cost more
  than the call;
* every other function records a span (name, start, end, parent span,
  round) kept in memory until the run writes them out.

Statistics are kept per phase (``setup`` or ``rounds``) so per-round figures
are not mixed with one-off set-up work.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

perf = time.perf_counter

TARGETS = {
    "gf": ("FieldSpec.__init__", "FieldElement.operator", "rank_over_subfield",
           "subfield_coords", "find_left_operator"),
    "linalg": ("bit_rank", "rank_mod_p", "rref_mod_p", "solve_mod_p",
               "matmul_mod_p"),
    "codes": ("rs_systematic", "normalize_parity", "verify_mds", "encode"),
    "repair": ("SchemeEvaluator.evaluate", "gamma_ranks", "lift_scheme",
               "realize_matrices", "gamma_ranks_matrix", "recover_node",
               "scheme_from_json"),
    "clique": ("generate_clique", "clique_bound", "find_repair"),
    "search": ("exhaustive_search", "random_search"),
    "bundled": ("bundled_code", "bundled_scheme", "load_code", "load_scheme"),
    "cli": ("main",),
}

HOT = frozenset({
    "gf.FieldElement.operator",
    "linalg.bit_rank", "linalg.rank_mod_p", "linalg.rref_mod_p",
    "linalg.solve_mod_p", "linalg.matmul_mod_p",
    "repair.SchemeEvaluator.evaluate",
})
RANK_KERNELS = frozenset({"linalg.bit_rank", "linalg.rank_mod_p"})
EVALUATE = "repair.SchemeEvaluator.evaluate"
# extra counters kept next to the per-function [calls, busy_s] records
RANK_IN_EVALUATE = "repair.rank_calls_in_evaluate"
FEASIBLE = "repair.feasible_candidates"


def _new_stats():
    return defaultdict(lambda: [0, 0.0])


class Tracer:
    def __init__(self):
        self.stats = {"setup": _new_stats(), "rounds": _new_stats()}
        self.cur = self.stats["setup"]
        self.spans: list = []
        self.stack: list = []
        self.round_id = None
        self.in_evaluate = 0
        self._patches: list = []

    def set_phase(self, phase: str, round_id=None) -> None:
        self.cur = self.stats[phase]
        self.round_id = round_id

    # -- wrappers ------------------------------------------------------

    def _hot(self, name, fn):
        tracer = self
        counts_rank = name in RANK_KERNELS

        if name == EVALUATE:
            def wrapper(*args, **kwargs):
                tracer.in_evaluate += 1
                t0 = perf()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.in_evaluate -= 1
                    rec = tracer.cur[name]
                    rec[0] += 1
                    rec[1] += perf() - t0
                if out[0]:
                    tracer.cur[FEASIBLE][0] += 1
                return out
        else:
            def wrapper(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec = tracer.cur[name]
                    rec[0] += 1
                    rec[1] += perf() - t0
                    if counts_rank and tracer.in_evaluate:
                        tracer.cur[RANK_IN_EVALUATE][0] += 1
        return wrapper

    def _span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.spans.append(None)
            tracer.stack.append(sid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer.stack.pop()
                tracer.spans[sid] = (name, t0, t1, parent, tracer.round_id)
                rec = tracer.cur[name]
                rec[0] += 1
                rec[1] += t1 - t0
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target of every loaded mdsrepair module (once)."""
        if self._patches:
            return
        loaded = {name: mod for name, mod in list(sys.modules.items())
                  if name == "mdsrepair" or name.startswith("mdsrepair.")}
        for short, attrs in TARGETS.items():
            mod = loaded.get(f"mdsrepair.{short}")
            if mod is None:
                continue
            for attr in attrs:
                owner_name, _, fname = attr.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                orig = owner.__dict__[fname] if owner_name else getattr(mod, fname)
                name = f"{short}.{attr}"
                wrapped = (self._hot if name in HOT else self._span)(name, orig)
                self._patch(owner, fname, wrapped)
                if owner_name:
                    continue
                for other in loaded.values():
                    for key, val in list(vars(other).items()):
                        if val is orig and other is not mod:
                            self._patch(other, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output ----------------------------------------------------------

    def stats_json(self) -> dict:
        return {phase: {k: list(v) for k, v in st.items()}
                for phase, st in self.stats.items()}

    def spans_json(self) -> list:
        return [list(s) for s in self.spans if s is not None]


def merge_stats(into: dict, other: dict) -> None:
    """Add one phase's {name: [calls, busy]} records into another."""
    for name, (calls, busy) in other.items():
        rec = into[name]
        rec[0] += calls
        rec[1] += busy
