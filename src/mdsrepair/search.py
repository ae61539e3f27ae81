"""Exhaustive and randomized search over repair field elements.

Candidates are tuples of (n-k)*beta nonzero elements, one per downloaded
equation, in parity-major order.  Scaling every element by one nonzero
constant leaves all gamma ranks unchanged, so the first element is pinned
to 1 and only the remaining slots are enumerated or sampled.
Infeasible tuples (useful block not full rank) are skipped, not scored.

Random draws use the stdlib Mersenne Twister (``random.Random(seed)``),
one ``randrange(q-1)`` exponent per free slot in slot order, so a run is
reproducible from its seed on any platform.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import NoFeasibleFound, SearchSpaceTooLarge
from .repair import (
    RepairReport,
    RepairScheme,
    SchemeEvaluator,
    SubpacketizationSpec,
    gamma_ranks,
)

EXHAUSTIVE_CAP = 10 ** 8


@dataclass(frozen=True)
class SearchConfig:
    sub: SubpacketizationSpec
    failed: int
    mode: str = "exhaustive"            # "exhaustive" | "random"
    samples: int = 100_000              # random mode only
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1 <= self.failed <= self.sub.code.k:
            raise ValueError(
                f"failed node {self.failed} not in [1,{self.sub.code.k}]")

    @property
    def slots(self) -> int:
        """Number of repair field elements in a candidate."""
        return self.sub.code.r * self.sub.beta

    @property
    def free_slots(self) -> int:
        """Slots after the first, which is pinned to 1."""
        return self.slots - 1

    @property
    def space_size(self) -> int:
        return (self.sub.code.field.q - 1) ** self.free_slots


@dataclass(frozen=True)
class SearchResult:
    best: RepairScheme
    best_report: RepairReport
    evaluated: int
    proven_optimal: bool


def _scheme_from_flat(cfg: SearchConfig, flat_exps) -> RepairScheme:
    field = cfg.sub.code.field
    beta = cfg.sub.beta
    elements = tuple(
        tuple(field.element(flat_exps[l * beta + j]) for j in range(beta))
        for l in range(cfg.sub.code.r))
    return RepairScheme(cfg.sub, cfg.failed, elements)


def _run(cfg: SearchConfig, candidates, proven: bool) -> SearchResult:
    """Evaluate candidate exponent tuples, keeping the feasible minimum.

    Candidates arrive in a deterministic order and only strictly better
    totals replace the incumbent, so with lexicographic enumeration the
    winner is the lexicographically smallest optimum.  (The min-by-total /
    first-in-order reduction is associative, so chunked or parallel
    evaluation would produce the same result.)
    """
    ev = SchemeEvaluator(cfg.sub, cfg.failed)
    best_total = None
    best_flat = None
    evaluated = 0
    for flat in candidates:
        evaluated += 1
        feasible, total = ev.evaluate(flat)
        if feasible and (best_total is None or total < best_total):
            best_total = total
            best_flat = flat
    if best_flat is None:
        raise NoFeasibleFound(
            f"no feasible scheme among {evaluated} candidates "
            f"(naive repair at {cfg.sub.file_size} symbols always remains available)")
    best = _scheme_from_flat(cfg, best_flat)
    return SearchResult(best, gamma_ranks(best), evaluated, proven)


def exhaustive_search(cfg: SearchConfig) -> SearchResult:
    """Enumerate every candidate tuple in lexicographic exponent order and
    return the feasible minimum; requires the space to fit under the cap."""
    if cfg.space_size > EXHAUSTIVE_CAP:
        raise SearchSpaceTooLarge(
            f"{cfg.space_size} candidates exceed the cap {EXHAUSTIVE_CAP}")
    q1 = cfg.sub.code.field.q - 1
    candidates = ((0,) + tail
                  for tail in itertools.product(range(q1), repeat=cfg.free_slots))
    return _run(cfg, candidates, proven=True)


def random_search(cfg: SearchConfig) -> SearchResult:
    """Sample cfg.samples candidate tuples uniformly (seeded) and return
    the best feasible one found."""
    if cfg.samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(cfg.seed)
    q1 = cfg.sub.code.field.q - 1
    free = cfg.free_slots

    def draws():
        for _ in range(cfg.samples):
            yield (0,) + tuple(rng.randrange(q1) for _ in range(free))

    return _run(cfg, draws(), proven=False)
