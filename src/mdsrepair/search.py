"""Exhaustive and randomized search over repair field elements.

Candidates are tuples of (n-k)*beta nonzero elements, one per downloaded
equation, in parity-major order.  Scaling every element by one nonzero
constant leaves all gamma ranks unchanged, so the first element is pinned
to 1 and only the remaining slots are enumerated or sampled.
Infeasible tuples (useful block not full rank) are counted, not scored.

Candidates are produced and scored in chunks of at most ``CHUNK`` tuples,
as (N, slots) exponent arrays for ``SchemeEvaluator.evaluate_batch``
(a batched elimination: over GF(2) for p = 2, in the log domain for odd
p).  Exhaustive chunks are slices of the flat index range read in mixed
radix q-1, which is lexicographic order.  A chunk's cost is mostly a fixed
number of NumPy calls, so one chunk covers the usual search.

Memory: a chunk of N candidates holds its exponent rows (8 * slots * N
bytes, slots <= m) and, while one block set is ranked, about
(3b + 1) * m + 9 bytes per candidate and node of the set for p = 2, b the
bytes of a key (1 up to GF(2^8), 2 up to GF(2^16)), or 33 * m + 9 for odd
p, plus at most 64 KiB of gather indices.  For m <= 16 and p = 2 a full
chunk of 4,096 stays under about 0.75 MiB plus 0.5 MiB per systematic
node; measured peaks are 0.8 MiB for fb1410 (k = 10) and 2.2 MiB for an
RS(14,12) code over GF(2^16).

Random draws use the stdlib Mersenne Twister (``random.Random(seed)``),
one ``randrange(q-1)`` exponent per free slot in slot order, so a run is
reproducible from its seed on any platform.  The draws are taken in bulk
(``_draw``) but are identical to that stdlib stream.
"""

from __future__ import annotations

import random

from ._numpy import np
from ._value import Value
from .errors import NoFeasibleFound, SearchSpaceTooLarge, as_int, as_node, short_repr
from .repair import (
    INFEASIBLE,
    RepairReport,
    RepairScheme,
    SchemeEvaluator,
    SubpacketizationSpec,
    gamma_ranks,
)

EXHAUSTIVE_CAP = 10 ** 8
# candidates scored per batch: one batch for the 2,000-sample and the
# 3,375-candidate searches, and at most about 0.75 MiB + 0.5 MiB per
# systematic node of working arrays for m <= 16, p = 2 (module docstring)
CHUNK = 4096


class SearchConfig(Value):
    sub: SubpacketizationSpec
    failed: int
    mode: str = "exhaustive"            # "exhaustive" | "random"
    samples: int = 100_000              # random mode only
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        as_node(self.failed, self.sub.code.k, "failed node")
        # random.seed takes abs() of an int, so seed -5 would replay seed 5
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(
                f"seed must be a non-negative integer, got {short_repr(self.seed)}")

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


class SearchResult(Value):
    best: RepairScheme
    best_report: RepairReport
    evaluated: int
    feasible: int
    proven_optimal: bool


def _pin_first(free: np.ndarray) -> np.ndarray:
    """The (n, slots) int64 candidates of the (n, free_slots) ``free``
    slots, behind a first slot pinned to 0 (the element 1).

    ``free`` is drawn before the candidates are allocated and is released
    on return, so its memory is a hole below them that the evaluator's
    arrays reuse, not a top of the heap that free() trims and the next
    chunk has to fault back in.
    """
    flats = np.zeros((len(free), free.shape[1] + 1), dtype=np.int64)
    flats[:, 1:] = free
    return flats


def _run(cfg: SearchConfig, count: int, tails, proven: bool) -> SearchResult:
    """Score ``count`` candidates in stream order, ``CHUNK`` at a time,
    keeping the feasible minimum; ``tails(start, n)`` gives the free slots
    of candidates start .. start+n-1 as an (n, free_slots) array.

    Each chunk contributes its first minimum, and only strictly better
    totals replace the incumbent, so the winner is the first optimum in
    stream order: with lexicographic enumeration, the lexicographically
    smallest optimum.
    """
    ev = SchemeEvaluator(cfg.sub, cfg.failed)
    best_total = INFEASIBLE
    best_flat = None
    feasible = 0
    for start in range(0, count, CHUNK):
        n = min(CHUNK, count - start)
        flats = _pin_first(tails(start, n))
        totals = ev.evaluate_batch(flats)
        feasible += int(np.count_nonzero(totals != INFEASIBLE))
        i = int(totals.argmin())
        if totals[i] < best_total:
            best_total = totals[i]
            best_flat = flats[i].tolist()
    if best_flat is None:
        raise NoFeasibleFound(
            f"no feasible scheme among {count} candidates "
            f"(naive repair at {cfg.sub.file_size} symbols always remains available)")
    best = RepairScheme.from_flat(cfg.sub, cfg.failed, best_flat)
    return SearchResult(best, gamma_ranks(best), count, feasible, proven)


def exhaustive_search(cfg: SearchConfig) -> SearchResult:
    """Enumerate every candidate tuple in lexicographic exponent order and
    return the feasible minimum; requires the space to fit under the cap."""
    if cfg.mode != "exhaustive":
        raise ValueError(f"a {cfg.mode}-mode config given to exhaustive_search")
    if cfg.space_size > EXHAUSTIVE_CAP:
        raise SearchSpaceTooLarge(
            f"{cfg.space_size} candidates exceed the cap {EXHAUSTIVE_CAP}")
    q1 = cfg.sub.code.field.q - 1
    # place values of the free slots, most significant first
    places = q1 ** np.arange(cfg.free_slots - 1, -1, -1, dtype=np.int64)

    def tails(start, n):
        return np.arange(start, start + n, dtype=np.int64)[:, None] // places % q1

    return _run(cfg, cfg.space_size, tails, proven=True)


def _draw(rng: random.Random, q1: int, count: int) -> np.ndarray:
    """``[rng.randrange(q1) for _ in range(count)]`` as a ``uint32`` array,
    drawn in bulk.

    ``randrange(q1)`` takes the top ``q1.bit_length()`` bits of one 32-bit
    Mersenne Twister word and rejects values >= q1, drawing again;
    ``getrandbits(32 * n)`` returns n such words, the first as the least
    significant.  Every value takes at least one word, so asking for as many
    words as values are still missing never reads past the stdlib stream.
    The values stay ``uint32``, which keeps the draw's temporaries small.
    """
    shift = 32 - q1.bit_length()
    parts = [np.zeros(0, dtype=np.uint32)]
    missing = count
    while missing:
        words = np.frombuffer(
            rng.getrandbits(32 * missing).to_bytes(4 * missing, "little"),
            dtype="<u4")
        values = words >> shift
        values = values[values < q1]
        parts.append(values)
        missing -= len(values)
    return np.concatenate(parts)


def random_search(cfg: SearchConfig) -> SearchResult:
    """Sample cfg.samples candidate tuples uniformly (seeded) and return
    the best feasible one found."""
    if cfg.mode != "random":
        raise ValueError(f"a {cfg.mode}-mode config given to random_search")
    if as_int(cfg.samples, "samples") < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(cfg.seed)
    q1 = cfg.sub.code.field.q - 1
    free = cfg.free_slots

    def tails(start, n):
        return _draw(rng, q1, n * free).reshape(n, free)

    return _run(cfg, cfg.samples, tails, proven=False)
