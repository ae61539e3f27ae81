"""Exhaustive and randomized search over repair field elements.

Candidates are tuples of (n-k)*beta nonzero elements, one per downloaded
equation, in parity-major order.  Scaling every element by one nonzero
constant leaves all gamma ranks unchanged, so the first element is pinned
to 1 and only the remaining slots are enumerated or sampled.
Infeasible tuples (useful block not full rank) are counted, not scored.

Candidates are scored in chunks of at most ``CHUNK`` tuples (a batched
elimination: over GF(2) for p = 2, in the log domain for odd p): random
ones as (N, slots) exponent arrays (``SchemeEvaluator.evaluate_batch``),
exhaustive ones as heads, the first slots-1 exponents, read in mixed radix
q-1, each with a range of last exponents (``evaluate_completions``):
row-major, that is lexicographic order.  A chunk's cost is mostly a fixed
number of NumPy calls, so one chunk covers the usual search.  Both scorers
return the ascending indices of a chunk's feasible candidates and their
totals; the search counts them, takes the first minimum, and reads that
candidate's exponents and gammas from the chunk's own layout.  It keeps
the winner's gammas as its report: every candidate is ranked once, the
winner included.

Memory: a random chunk of N candidates holds its exponent columns (8 * slots
* N bytes, slots <= m, again for the feasible ones), the failed node's
gamma of each and the k-1 other gammas and total of each feasible one (8
bytes each) and, while one block set is ranked, about (3b + 1) * m + 9
bytes per candidate and node of the set for p = 2, b the bytes of a key (1
up to GF(2^8), 2 up to GF(2^16)), or 33 * m + 9 for odd p.  The keys come
from ``SubpacketizationSpec.node_keys``, (n-k) * s * (q-1) * k keys per
spec: 10 KiB for fb1410 at s = 1, 3 MiB for an RS(14,12) code over
GF(2^16).  A random search reads them split (``split_keys``), as many keys
once per failed node searched: 5,120 bytes for RS(6,4) over GF(3^4) and
10,200 for fb1410 at s = 1, 3 MiB and 24 MiB for that RS(14,12) code at
s = 1 and 8, and keeps ``node_keys`` only if something else holds it.
For m <= 16 and p = 2 a full chunk of 4,096 stays under about 0.75 MiB
plus 0.5 MiB per systematic node; measured peaks, tables
built before, are 0.6 MiB for fb1410 (k = 10), 1.1 MiB for that GF(3^4)
code and 2.0 MiB for that RS(14,12) code (4.2 MiB at s = 8).  An
exhaustive chunk ranks its heads' blocks and then one key per completion
and node, the last element's: it peaks at 0.2 MiB for fb1410 at s = 2
(about 5 bytes per completion and node) and 0.5 MiB for RS(6,4) over
GF(3^4) at s = 1 (about 32 bytes).  When q-1 > ``CHUNK``, each head's last
exponents are split in ranges of ``CHUNK``, so a chunk stays bounded: 0.3
MiB for that RS(14,12) code at s = 8, tracemalloc's peak over a search
whose node keys (24 MiB at s = 8) were built before.

Random draws use the stdlib Mersenne Twister (``random.Random(seed)``),
one ``randrange(q-1)`` exponent per free slot in slot order, so a run is
reproducible from its seed on any platform.  The draws are taken in bulk,
one or two ``getrandbits`` calls per chunk (``_stream``), but are identical
to that stdlib stream.
"""

from __future__ import annotations

import random

from ._numpy import np
from ._value import Value
from .errors import NoFeasibleFound, SearchSpaceTooLarge, as_int, as_node, short_repr
from .repair import RepairReport, RepairScheme, SchemeEvaluator, SubpacketizationSpec

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
        # set once: slots repair field elements per candidate, the free ones
        # after the first, which is pinned to 1, and the candidates they span
        slots = self.sub.code.r * self.sub.beta
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "free_slots", slots - 1)
        object.__setattr__(self, "space_size", (self.sub.code.field.q - 1) ** (slots - 1))


class SearchResult(Value):
    best: RepairScheme
    best_report: RepairReport
    evaluated: int
    feasible: int
    proven_optimal: bool


def _pin_first(free: np.ndarray) -> np.ndarray:
    """The (n, slots) int64 candidates of the (n, free_slots) ``free``
    slots behind a first slot pinned to 0 (the element 1), a view of (slots,
    n) evaluator columns.  Allocated after the draw, so that its temporaries
    leave a hole below them for the evaluator's arrays rather than a heap
    top that free() trims and the next chunk faults back in."""
    cols = np.zeros((free.shape[1] + 1, len(free)), dtype=np.int64)
    cols[1:] = free.T
    return cols.T


def _run(cfg: SearchConfig, count: int, chunks, proven: bool) -> SearchResult:
    """Keep the feasible minimum of ``count`` candidates scored in stream
    order: ``chunks(ev)`` yields, chunk by chunk, the totals of the chunk's
    feasible candidates, in stream order, as the evaluator ``ev`` scored
    them, and ``winner``, which gives the exponents and gammas of the
    candidate of totals[i] before the next chunk is scored.

    The first minimum of a chunk replaces the incumbent only with a
    strictly better total, so the winner is the first optimum in stream
    order: with lexicographic enumeration, the lexicographically smallest
    optimum.  The winner's report is its gammas, so no candidate is ranked
    twice.
    """
    ev = SchemeEvaluator(cfg.sub, cfg.failed)
    best_total, best, feasible = float("inf"), None, 0
    for totals, winner in chunks(ev):
        feasible += len(totals)
        if len(totals):
            i = int(totals.argmin())
            if totals[i] < best_total:
                best_total, best = int(totals[i]), winner(i)
    if best is None:
        raise NoFeasibleFound(
            f"no feasible scheme among {count} candidates "
            f"(naive repair at {cfg.sub.file_size} symbols always remains available)")
    flat, gammas = best
    return SearchResult(RepairScheme.from_flat(cfg.sub, cfg.failed, flat),
                        RepairReport(cfg.sub, cfg.failed, tuple(gammas)),
                        count, feasible, proven)


def exhaustive_search(cfg: SearchConfig) -> SearchResult:
    """Enumerate every candidate tuple in lexicographic exponent order and
    return the feasible minimum; requires the space to fit under the cap.
    A chunk holds max(1, ``CHUNK`` // (q-1)) heads, each with every last
    exponent, or, when q-1 > ``CHUNK``, one head with ``CHUNK`` consecutive
    last exponents; with no free slot, the one head is empty and its one
    completion the pinned 0."""
    if cfg.mode != "exhaustive":
        raise ValueError(f"a {cfg.mode}-mode config given to exhaustive_search")
    if cfg.space_size > EXHAUSTIVE_CAP:
        raise SearchSpaceTooLarge(
            f"{cfg.space_size} candidates exceed the cap {EXHAUSTIVE_CAP}")
    q1 = cfg.sub.code.field.q - 1
    values = q1 if cfg.free_slots else 1  # last exponents per head
    head_count = cfg.space_size // values
    step = max(1, CHUNK // values)
    width = min(values, CHUNK)  # last exponents per chunk
    # place values of the free head slots, most significant first
    places = q1 ** np.arange(cfg.free_slots - 2, -1, -1, dtype=np.int64)

    def chunks(ev):
        for start in range(0, head_count, step):
            index = np.arange(start, min(start + step, head_count), dtype=np.int64)
            heads = np.zeros((cfg.slots - 1, len(index)), dtype=np.int64)
            heads[1:] = index // places[:, None] % q1
            for low in range(0, values, width):
                lasts = range(low, min(low + width, values))
                ok, totals, gammas = ev.evaluate_completions(heads.T, lasts)

                def winner(i):
                    h, v = divmod(int(ok[i]), len(lasts))
                    return [*heads[:, h].tolist(), lasts[v]], gammas[h, :, v].tolist()

                yield totals, winner

    return _run(cfg, cfg.space_size, chunks, proven=True)


def _stream(rng: random.Random, q1: int):
    """``take(count)``: the next ``count`` values of the stream
    ``rng.randrange(q1), ...`` as a ``uint32`` array.  ``randrange(q1)`` takes
    the top ``b = q1.bit_length()`` bits of one 32-bit Mersenne Twister word,
    drawing again while they are >= q1, and ``getrandbits(32 * w)`` returns w
    such words, least significant first.  Each such call asks for the
    ceil(missing * 2^b / q1) words the missing values take on average; the
    values past ``count`` are kept for the next take."""
    bits = q1.bit_length()
    surplus = np.zeros(0, dtype=np.uint32)

    def take(count: int) -> np.ndarray:
        nonlocal surplus
        parts = [surplus]
        missing = count - len(surplus)
        while missing > 0:
            words = -(-(missing << bits) // q1)
            drawn = np.frombuffer(
                rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
                dtype="<u4") >> (32 - bits)
            drawn = drawn[drawn < q1]
            parts.append(drawn)
            missing -= len(drawn)
        values = np.concatenate(parts)
        surplus = values[count:]
        return values[:count]

    return take


def random_search(cfg: SearchConfig) -> SearchResult:
    """Sample cfg.samples candidate tuples uniformly (seeded) and return
    the best feasible one found."""
    if cfg.mode != "random":
        raise ValueError(f"a {cfg.mode}-mode config given to random_search")
    if as_int(cfg.samples, "samples") < 1:
        raise ValueError("samples must be >= 1")
    take = _stream(random.Random(cfg.seed), cfg.sub.code.field.q - 1)
    free = cfg.free_slots

    def chunks(ev):
        for start in range(0, cfg.samples, CHUNK):
            n = min(CHUNK, cfg.samples - start)
            flats = _pin_first(take(n * free).reshape(n, free))
            ok, totals, gammas = ev.evaluate_batch(flats)

            def winner(i):
                # the rows leave out the failed node, whose gamma is alpha
                row = gammas[i].tolist()
                row.insert(ev.failed - 1, cfg.sub.alpha)
                return flats[ok[i]].tolist(), row

            yield totals, winner

    return _run(cfg, cfg.samples, chunks, proven=False)
