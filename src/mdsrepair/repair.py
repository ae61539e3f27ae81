"""Single-node repair of scalar MDS codes vectorized over a subfield.

A scalar code over GF(p^m) is treated as a vector code by splitting every
symbol into m/s sub-symbols over GF(p^s).  A repair scheme for systematic
node i assigns one nonzero *repair field element* M to each of the beta
equations downloaded from each parity node.  The number of sub-symbols
that must then be fetched from surviving node u is

    gamma_u = rank over GF(p^s) of { M * P_u : every downloaded equation },

where P_u is node u's coefficient at the element's parity.  The scheme is
feasible iff gamma_i is full (= alpha), and its bandwidth is the sum of
all gamma_u (the failed node's own gamma counts the parity downloads).

Bandwidth is counted in GF(p^s) sub-symbols.  ``SubpacketizationSpec.bits``
is the one conversion to bits: the exact GF(p) digit count symbols * s,
times log2 p for odd p.  A ``RepairReport`` stores only its gammas and
derives feasibility, totals and bits from them, so re-expressing a scheme
over a smaller subfield (``lift_scheme``) keeps its bit count exactly.

Two independent routes evaluate a scheme: ``gamma_ranks`` ranks its field
elements, and ``realize_matrices`` + ``gamma_ranks_matrix`` rank the GF(p)
equation blocks realized from a reference row r.  ``SchemeEvaluator``
ranks exponent tuples in batches and returns their gammas, so a search
ranks each candidate once and takes its winner's report from that batch.
``recover_node`` runs the download / interference-cancellation / solve
pipeline on a codeword.
The matrix route realizes every equation from one table per field,
``FieldSpec.unit_functional`` of e_0 . coords(x) at the powers of z: row L
is the equation of z^L, row L + log P_u what that sees of node u, and a
reference r = e_0 . operator(nu) shifts every row by log nu.  It
eliminates mod p (``linalg``) only and reads none of the element
route's tables (``rank_keys``, ``node_keys``, ``slot_shifts``) or kernels.
"""

from __future__ import annotations

import math
from operator import add, mul

from . import linalg
from ._numpy import freeze, np, table
from ._value import Value
from .codes import CodeSpec, Codeword
from .errors import (
    DimensionMismatch,
    IncompatibleLift,
    IncompatibleSubfield,
    InfeasibleScheme,
    InvalidMatrix,
    ParseError,
    ZeroReference,
    as_int,
    as_node,
)
from .gf import FieldElement, SubfieldSpec, coordinate_vector, subfield_coords


class SubpacketizationSpec(Value):
    """A code together with the subfield degree used to vectorize it.

    Derived quantities: beta equations per parity node, alpha = m/s
    sub-symbols stored per node, file size M = k * alpha (all counted in
    GF(p^s) symbols).  ``alpha`` and ``beta`` are attributes, set once on
    construction, as are ``subfield`` and ``slot_shifts``.
    """

    code: CodeSpec
    s: int

    def __post_init__(self):
        object.__setattr__(self, "s", as_int(self.s, "s"))
        # IncompatibleSubfield unless s | m
        object.__setattr__(self, "subfield", self.code.field.subfield(self.s))
        alpha = self.code.field.m // self.s
        if alpha % self.code.r != 0:
            raise IncompatibleSubfield(
                f"n-k={self.code.r} does not divide m/s={alpha}")
        beta = alpha // self.code.r
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        # the slot layout, k rows of slots entries: slot_shifts[u][j] = log
        # P_u at the parity of slot j, slots in parity-major order like
        # ``RepairScheme.flat_exps()``, beta per parity
        object.__setattr__(self, "slot_shifts", tuple(
            tuple(e for e in row for _ in range(beta))
            for row in self.code.parity_exps()))
        # ``node_keys``, filled by ``table`` on first read
        object.__setattr__(self, "_tables", {})

    @property
    def file_size(self) -> int:
        return self.code.k * self.alpha

    @table
    def node_keys(self) -> np.ndarray:
        """Read-only (n-k, s, q-1, k) C-ordered table of the batch keys:
        node_keys[l, t, e, u] = ``FieldSpec.rank_keys``[e + log(P_u^l * w^t)],
        the kernel key of z^e * P_u^l * w^t, with P_u^l node u's coefficient
        at parity l, w^t the t-th subfield basis element and the log reduced
        mod q-1; row [l, t, e] holds every node's.  Built on first read."""
        field = self.code.field
        shifts = ((np.array(self.code.parity_exps(), dtype=np.int64).T[:, None, None]
                   + np.array(self.subfield.offsets)[:, None, None]) % (field.q - 1))
        return np.ascontiguousarray(field.rank_keys[shifts + np.arange(field.q - 1)[:, None]])

    def bits(self, symbols: int):
        """Bits in ``symbols`` GF(p^s) sub-symbols: the GF(p) digit count
        symbols * s (an int for p = 2), times log2 p for odd p.  The count is
        formed first, so equal counts give equal floats at every s."""
        digits = symbols * self.s
        p = self.code.field.p
        return digits if p == 2 else digits * math.log2(p)


def baselines(sub: SubpacketizationSpec) -> tuple:
    """(naive, cutset) download counts in GF(p^s) symbols: the full file
    M versus the cut-set bound (n-1) * beta."""
    return sub.file_size, (sub.code.n - 1) * sub.beta


class RepairScheme(Value):
    """Repair field elements for one failed systematic node.

    elements[l][j] is the element for equation j downloaded from parity
    node k+1+l; all entries must be nonzero.
    """

    sub: SubpacketizationSpec
    failed: int
    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "failed",
                           as_node(self.failed, self.sub.code.k, "failed node"))
        elements = tuple(tuple(row) for row in self.elements)
        object.__setattr__(self, "elements", elements)
        if (len(elements) != self.sub.code.r
                or any(len(row) != self.sub.beta for row in elements)):
            raise DimensionMismatch(
                f"elements must be (n-k) x beta = {self.sub.code.r} x {self.sub.beta}")
        for row in elements:
            for e in row:
                if e not in self.sub.code.field:
                    raise ValueError("elements must belong to the code's field")
                if e.is_zero:
                    raise ValueError("repair field elements must be nonzero")

    def flat_exps(self) -> list:
        """Element discrete logs in parity-major order."""
        return [e.exp for row in self.elements for e in row]

    @classmethod
    def from_flat(cls, sub: SubpacketizationSpec, failed: int, flat_exps) -> "RepairScheme":
        """The scheme whose ``flat_exps()`` is ``flat_exps``; a length other
        than (n-k) * beta raises DimensionMismatch."""
        flat = list(map(sub.code.field.element, flat_exps))
        beta = sub.beta
        return cls(sub, failed, [flat[i:i + beta] for i in range(0, len(flat), beta)])

    def to_json(self) -> dict:
        code = self.sub.code
        return {
            "code": code.name if code.name else code.to_json(),
            "s": self.sub.s,
            "failed": self.failed,
            "elements": [[e.to_json() for e in row] for row in self.elements],
        }


def scheme_from_json(obj: dict, code: CodeSpec) -> RepairScheme:
    """Build a scheme of ``code`` from its JSON form.

    The "code" entry is not read: ``bundled.load_scheme`` resolves it and
    checks it against the code it passes here.
    """
    try:
        sub = SubpacketizationSpec(code, obj["s"])
        elements = tuple(
            tuple(code.field.element(e) for e in row) for row in obj["elements"])
        return RepairScheme(sub, as_int(obj["failed"], "failed"), elements)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad scheme JSON: {exc}") from exc


class RepairReport(Value):
    """Per-node download counts (gammas) of one repair scheme, in GF(p^s)
    symbols; everything else is derived from them."""

    sub: SubpacketizationSpec
    failed: int
    gammas: tuple

    @property
    def feasible(self) -> bool:
        """The failed node's own block is full rank."""
        return self.gammas[self.failed - 1] == self.sub.alpha

    @property
    def total_bw(self) -> int:
        return sum(self.gammas)

    @property
    def interference_bw(self) -> int:
        """Downloads from the surviving systematic nodes only."""
        return self.total_bw - self.gammas[self.failed - 1]

    @property
    def total_bits(self):
        return self.sub.bits(self.total_bw)


def _gammas(sub: SubpacketizationSpec, flat_exps) -> tuple:
    """Gammas of one exponent tuple, one ``rank_exps`` call for the k
    nodes' sets; DimensionMismatch for a tuple that is not one per slot."""
    if len(flat_exps) != len(sub.slot_shifts[0]):
        raise DimensionMismatch(
            f"{len(flat_exps)} exponents for {len(sub.slot_shifts[0])} slots")
    return sub.subfield.rank_exps([map(add, flat_exps, row) for row in sub.slot_shifts])


class SchemeEvaluator:
    """The scoring policy for raw element-exponent tuples of one (code,
    subfield, failed node) context.

    ``evaluate_batch`` is the search module's inner loop: two
    ``SubfieldSpec.rank_batch`` calls on keys gathered from ``sub.node_keys``
    straight into the kernels' column layout, one ``np.take`` per (slot,
    offset) row, first of the failed node's block for the whole batch, then
    of all k blocks of the feasible tuples (leaving the failed one out
    measured no cheaper than ranking it again).  It and
    ``evaluate_completions`` return one triple (ok, totals, gammas): the
    ascending indices of the feasible candidates, their totals, and gammas
    in the scorer's own layout, from which a search reads its winner's
    report.
    ``evaluate`` scores one tuple on ``gamma_ranks``'s scalar route
    (``SubfieldSpec.rank_exps``).  For p = 2 that ranks on python ints and
    is an independent oracle of ``evaluate_batch`` in the tests; for odd p
    it runs the same kernel, and the matrix route (``gamma_ranks_matrix``)
    is the independent oracle.  The evaluator holds no table: ``sub`` owns
    the slot layout (``slot_shifts``, and ``node_keys`` for the batch
    rows), and the field and its subfield own every rank table and kernel.
    """

    def __init__(self, sub: SubpacketizationSpec, failed: int):
        self.sub = sub
        self.failed = as_node(failed, sub.code.k, "failed node")

    def evaluate(self, flat_exps):
        """(feasible, total).  total is None for infeasible tuples."""
        report = RepairReport(self.sub, self.failed, _gammas(self.sub, flat_exps))
        return (True, report.total_bw) if report.feasible else (False, None)

    def _columns(self, tuples, width: int) -> np.ndarray:
        """The C-ordered int64 (width, N) transpose of the (N, width) integer
        exponent tuples, reduced mod q-1 only where an entry needs it (a
        negative one reads above q-1 as uint64): the division is the dearest
        pass over a batch, and a search's tuples, reduced views of such
        arrays, are not even copied.  Unsigned tuples are reduced in their
        own dtype first, as an int64 cast wraps entries from 2^63.
        DimensionMismatch for another shape, ParseError for entries that are
        not integers."""
        tuples, q1 = np.asarray(tuples), self.sub.code.field.q - 1
        if tuples.ndim != 2 or tuples.shape[1] != width:
            raise DimensionMismatch(f"exponent tuples of shape {tuples.shape}, not (N, {width})")
        if tuples.dtype.kind not in "iu":
            raise ParseError(f"exponents must be integers, got {tuples.dtype}")
        if tuples.dtype.kind == "u":
            tuples = tuples % np.uint64(q1)
        cols = np.ascontiguousarray(tuples.T, dtype=np.int64)
        return cols % q1 if cols.size and cols.view(np.uint64).max() >= q1 else cols

    def _keys(self, cols: np.ndarray, node=slice(None)) -> np.ndarray:
        """The keys of the (slots, N) reduced exponent columns ``cols`` in the
        kernels' (slots * s, N * K) layout, sets tuple-major: of the 0-based
        node ``node`` (K = 1), or of all k nodes.  One ``np.take`` per (slot
        j, offset t) row gathers node_keys[l, t] at cols[j], l the parity of
        slot j: its rows, or its column ``node``, copied first (q-1 keys)."""
        sub, tables = self.sub, self.sub.node_keys[..., node]
        keys = np.empty((len(cols), sub.s, cols.shape[1], *tables.shape[3:]), tables.dtype)
        for j, exps in enumerate(cols):
            for t in range(sub.s):
                # exponents < q-1: "wrap" moves none, writes to out directly
                np.take(tables[j // sub.beta, t], exps, axis=0, out=keys[j, t], mode="wrap")
        return keys.reshape(len(cols) * sub.s, math.prod(keys.shape[2:]))

    def evaluate_completions(self, heads, lasts: range) -> tuple:
        """(ok, totals, gammas) of the completions of the (H, slots-1)
        exponent heads ``heads`` by each of the V last exponents of
        ``lasts``, a range in [0, q-1) of step 1: the ascending indices h * V
        + v of the feasible completions, in row-major order, their totals,
        and the (H, k, V) gammas of every completion, infeasible ones
        included.  Each head's k blocks are eliminated once, and the last
        slot's t = 0 key, which no head changes, is reduced against their
        pivots (``SubfieldSpec.rank_extend_batch``)."""
        sub, k = self.sub, self.sub.code.k
        if not isinstance(lasts, range) or lasts.step != 1:
            raise ParseError(f"last exponents must be a range of step 1, got {lasts!r}")
        if not 0 <= lasts.start <= lasts.stop < sub.code.field.q:
            raise DimensionMismatch(f"last exponents {lasts} not in [0, q-1)")
        cols = self._columns(heads, len(sub.slot_shifts[0]) - 1)
        h, v = cols.shape[1], len(lasts)
        if not h * v:
            return np.zeros(0, np.int64), np.zeros(0, np.uint32), np.zeros((h, k, v), np.uint8)
        # rows[h * k + u]: the last slot's t = 0 keys of node u
        rows = np.tile(sub.node_keys[-1, 0, lasts.start:lasts.stop].T, (h, 1))
        gammas = sub.subfield.rank_extend_batch(self._keys(cols), rows).reshape(h, k, v)
        # summed over a node-major copy: reducing the middle axis took twice
        # as long for q-1 = 15; a total is at most k * alpha < 2^21, so uint32
        nodes = np.ascontiguousarray(gammas.swapaxes(0, 1)).reshape(k, -1)
        ok = (nodes[self.failed - 1] == sub.alpha).nonzero()[0]
        return ok, np.add.reduce(nodes, axis=0, dtype=np.uint32).take(ok), gammas

    def evaluate_batch(self, flats) -> tuple:
        """(ok, totals, gammas) of the (N, slots) exponent tuples in
        ``flats``: the ascending indices of the F feasible tuples, their
        totals, and their (F, k) gammas, row f the k nodes' of tuple ok[f].
        The other nodes of an infeasible tuple are not ranked."""
        sub, k = self.sub, self.sub.code.k
        cols = self._columns(flats, len(sub.slot_shifts[0]))
        rank = sub.subfield.rank_batch
        ok = (rank(self._keys(cols, self.failed - 1)) == sub.alpha).nonzero()[0]
        gammas = rank(self._keys(cols.take(ok, axis=1))).reshape(-1, k)
        # the row sums: a product is faster than sum(axis=1) on k-wide rows
        return ok, gammas @ np.ones(k, dtype=gammas.dtype), gammas


def gamma_ranks(scheme: RepairScheme) -> RepairReport:
    """Evaluate a scheme on its field elements: the gamma of every
    systematic node, from which feasibility and bandwidth follow."""
    return RepairReport(scheme.sub, scheme.failed,
                        _gammas(scheme.sub, scheme.flat_exps()))


def lift_scheme(scheme: RepairScheme, a: int) -> RepairScheme:
    """Re-express a scheme over the smaller subfield GF(p^(s/a)).

    Every element M becomes the block M, M*g, ..., M*g^(a-1) with g the
    generator of the original GF(p^s); beta scales by a and every gamma
    scales by exactly a, so bandwidth in bits is unchanged.
    """
    a = as_int(a, "lift factor")
    if a < 1 or scheme.sub.s % a != 0:
        raise IncompatibleLift(f"lift factor {a} does not divide s={scheme.sub.s}")
    if a == 1:
        return scheme
    g = scheme.sub.subfield.generator
    new_sub = SubpacketizationSpec(scheme.sub.code, scheme.sub.s // a)
    elements = tuple(
        tuple(e * g ** t for e in row for t in range(a))
        for row in scheme.elements)
    return RepairScheme(new_sub, scheme.failed, elements)


# ---------------------------------------------------------------------------
# explicit repair-matrix realization (the independent rank oracle)
# ---------------------------------------------------------------------------

class MatrixScheme(Value):
    """Explicit repair matrices over GF(p).

    matrices[l] has shape m x (s * beta): one column per downloaded GF(p)
    equation from parity node k+1+l, grouped in blocks of s columns per
    GF(p^s) sub-symbol equation.  The failed node is checked here as in
    ``RepairScheme``, the reference as ``realize_matrices`` checks it
    (``_reference``), the matrices by ``gamma_ranks_matrix``.  Reference
    and matrices are stored as given, read-only, a writable array as a
    copy, and two schemes are equal, with equal hashes, when their entries
    are.
    """

    sub: SubpacketizationSpec
    failed: int
    reference: np.ndarray
    matrices: tuple

    def __post_init__(self):
        object.__setattr__(self, "failed",
                           as_node(self.failed, self.sub.code.k, "failed node"))
        _reference(self.sub.code.field, self.reference)
        object.__setattr__(self, "reference", freeze(self.reference, copy=True))
        object.__setattr__(self, "matrices", freeze(self.matrices, copy=True))

    def _key(self) -> tuple:
        return (self.sub, self.failed, _entries(self.reference),
                _entries(self.matrices))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _entries(value):
    """``value`` as nested tuples: each NumPy array in it, or in a tuple or
    list of it, replaced by its entries, and each tuple or list by a tuple."""
    if isinstance(value, (tuple, list)):
        return tuple(map(_entries, value))
    tolist = getattr(value, "tolist", None)
    return value if tolist is None else _entries(tolist())


def _reference(field, reference) -> np.ndarray:
    """The reference row as m GF(p) coordinates, a new int64 array reduced
    mod p: it must pass ``coordinate_vector`` (ParseError,
    DimensionMismatch) and be nonzero (ZeroReference)."""
    reference = coordinate_vector(field, reference, "reference")
    if not reference.any():
        raise ZeroReference("reference vector must be nonzero")
    return reference


def _equations(scheme: RepairScheme, reference) -> tuple:
    """(reference, logs): the reference row r reduced mod p (e_0 by
    default), checked by ``_reference``, and the row L of
    ``FieldSpec.unit_functional`` of each downloaded equation, parity-major
    with t fastest.  Its equation r . operator(e * w^t) is e_0 .
    operator(nu * e * w^t) for the nu with e_0 . operator(nu) = r, looked up
    in ``FieldSpec.unit_logs``, so L = log(nu * e * w^t) mod q-1."""
    field = scheme.sub.code.field
    if reference is None:
        reference, shift = field.coords_table[1], 0
    else:
        reference = _reference(field, reference)
        shift = field.unit_logs[field.from_coords(reference).index]
    return reference, [(e + off + shift) % (field.q - 1)
                       for e in scheme.flat_exps() for off in scheme.sub.subfield.offsets]


def realize_matrices(scheme: RepairScheme, reference=None) -> MatrixScheme:
    """Construct the repair matrices from a reference row: the column for
    element M is (reference^T . operator(M))^T, expanded over the subfield
    basis when s > 1, all gathered at once from ``FieldSpec.unit_functional``
    at the rows of ``_equations``, which checks the reference."""
    reference, logs = _equations(scheme, reference)
    sub, field = scheme.sub, scheme.sub.code.field
    # the (n-k, s * beta, m) stack of the transposed matrices (R^l)^T
    equations = field.unit_functional[0][np.array(logs).reshape(sub.code.r, -1, 1)
                                         + np.arange(field.m)]
    # each array new or read-only: frozen in place, so MatrixScheme copies neither
    return MatrixScheme(sub, scheme.failed, freeze(reference),
                        tuple(freeze(equations).swapaxes(1, 2)))


def gamma_ranks_matrix(sub: SubpacketizationSpec, failed: int,
                       mat: MatrixScheme) -> RepairReport:
    """Rank the stacked interference blocks (R^l)^T . operator(P_u^l) of an
    explicit matrix scheme over GF(p); counts are converted to GF(p^s)
    symbols.  The k blocks come from one operator product and leave NumPy
    in one ``tolist()``: for p = 2 as bit-rows (bit c for column c), each
    ranked by the basis size of ``linalg.echelon_bits``, for odd p as lists,
    each by the pivot count of ``linalg.rref_rows``: about 0.09 ms for an
    fb1410 scheme with ``realize_matrices``.  This route never touches
    element-level rank computations.  ``sub`` and ``failed`` must be the
    ones ``mat`` was realized for; NumPy integer arrays only (ParseError
    otherwise, nothing is coerced), their entries read mod p."""
    if (sub, failed) != (mat.sub, mat.failed):
        raise ValueError(
            f"matrices realize node {mat.failed} of {mat.sub}, "
            f"not node {failed} of {sub}")
    field = sub.code.field
    m = field.m
    cols = sub.s * sub.beta
    if len(mat.matrices) != sub.code.r:
        raise DimensionMismatch(
            f"expected {sub.code.r} repair matrices, got {len(mat.matrices)}")
    for R in mat.matrices:
        if not isinstance(R, np.ndarray):
            raise ParseError(
                f"repair matrices must be integer arrays, got {type(R).__name__}")
        if R.shape != (m, cols):
            raise DimensionMismatch(
                f"repair matrix shape {R.shape} != ({m},{cols})")
        if R.dtype.kind not in "iu":
            raise ParseError(f"repair matrix entries must be integers, got {R.dtype}")
    # entries are judged mod p: unsigned ones reduced in their own dtype, as
    # an int64 cast wraps them from 2^63, and all before the product overflows
    equations = np.array([R % np.uint64(field.p) if R.dtype.kind == "u"
                          else R.astype(np.int64) % field.p for R in mat.matrices],
                         dtype=np.int64)
    if not equations.any(axis=1).all():
        raise InvalidMatrix("repair matrix has a zero column")
    # node u's blocks (R^l)^T . operator(P_u^l), parities l stacked: k
    # blocks of m rows
    blocks = linalg.matmul_mod_p(
        equations.swapaxes(1, 2), field.operators(sub.code.parity_exps()), field.p
    ).reshape(sub.code.k, m, m)
    if field.p == 2:
        ranks = [len(linalg.echelon_bits(rows)[0])
                 for rows in (blocks << np.arange(m)).sum(-1).tolist()]
    else:
        ranks = [len(linalg.rref_rows(rows, field.p)) for rows in blocks.tolist()]
    gammas = []
    for u, r in enumerate(ranks):
        if r % sub.s:
            raise InvalidMatrix(
                f"rank {r} of node {u + 1} block is not a multiple of s={sub.s}")
        gammas.append(r // sub.s)
    return RepairReport(sub, failed, tuple(gammas))


# ---------------------------------------------------------------------------
# end-to-end repair simulation
# ---------------------------------------------------------------------------

class RecoveryResult(Value):
    """Outcome of a simulated repair."""

    element: FieldElement            # the regenerated symbol
    symbols: tuple                   # its alpha GF(p^s) sub-symbols
    downloads: dict                  # node (1-based) -> sub-symbols fetched
    total_symbols: int
    total_bits: float                # sub.bits(total_symbols)


def recover_node(codeword: Codeword, scheme: RepairScheme,
                 reference=None) -> RecoveryResult:
    """Simulate the repair of the failed node from the other n-1 nodes.

    Each parity sends its beta realized equations applied to its stored
    vector; each surviving systematic node sends the echelon basis of its
    interference block applied to its own vector, from which the repairer
    rebuilds the interference and subtracts it; the useful block is solved
    for the lost coordinates.  That block is eliminated once, together with
    the signal: the pivots left of the signal column give its rank, and
    ``InfeasibleScheme`` is raised unless it is full.

    Every equation is a row of ``FieldSpec.unit_functional`` read on python
    ints: row L (``_equations``) for the equation, and row L + log P_u^l,
    mod q-1, for what it sees of node u at parity l.  For p = 2 the rows
    are bit-rows and the stored vectors ``x.index``, eliminated forward
    only by ``linalg.echelon_bits`` (``_solve_bits``); for odd p tuples and
    ``x.coords()``, by ``linalg.rref_rows`` (``_solve_mod_p``).  No
    operator is built and no element rank kernel runs.
    """
    sub, failed = scheme.sub, scheme.failed
    code = sub.code
    field = code.field
    p, m, k, q1 = field.p, field.m, code.k, field.q - 1
    if codeword.code != code:
        raise ValueError("codeword and scheme use different codes")
    _, logs = _equations(scheme, reference)
    rows = field.unit_functional[1]
    width = m // code.r  # equation i comes from parity i // width
    blocks = [[rows[(L + shifts[i // width]) % q1] for i, L in enumerate(logs)]
              for shifts in code.parity_exps()]
    vectors = [x.index if p == 2 else x.coords() for x in codeword.symbols]
    # each parity sends its equations applied to its stored vector
    sent = [(rows[L], vectors[k + i // width]) for i, L in enumerate(logs)]
    if p == 2:
        ranks, useful, solution = _solve_bits(blocks, vectors, sent, failed - 1)
    else:
        ranks, useful, solution = _solve_mod_p(blocks, vectors, sent, failed - 1, p)
    if useful != m:
        raise InfeasibleScheme(
            f"gamma_{failed} = {useful // sub.s} < alpha = {sub.alpha}")
    downloads = {k + 1 + l: sub.beta for l in range(code.r)}
    downloads.update((u, rank // sub.s) for u, rank in ranks.items())
    element = field.from_coords(solution)
    total = sum(downloads.values())
    return RecoveryResult(element, tuple(subfield_coords(element, sub.subfield)),
                          downloads, total, sub.bits(total))


def _solve_bits(blocks: list, vectors: list, sent: list, failed: int) -> tuple:
    """``recover_node``'s eliminations over GF(2) by ``linalg.echelon_bits``
    on bit-rows, bit c for column c, of the k interference ``blocks`` of m
    rows, the n stored ``vectors`` and the m (equation, parity vector) pairs
    ``sent``, whose products are the signal, bit j for equation j.  Returns
    (ranks, rank, solution): each surviving node's block rank, 1-based, the
    failed block's rank, and the coordinates solved for, read only when
    that rank is m."""
    m = len(sent)
    signal = sum(((row & vector).bit_count() & 1) << j
                 for j, (row, vector) in enumerate(sent))
    ranks = {}
    for u, (block, vector) in enumerate(zip(blocks, vectors)):
        if u == failed:
            continue
        basis, combos = linalg.echelon_bits(block)
        # node u sends basis . vector, one bit per basis row; block[j] is the
        # XOR of the basis rows in combos[j], so that is its interference
        fetched = 0
        for i, row in enumerate(basis):
            fetched |= ((row & vector).bit_count() & 1) << i
        for j, combo in enumerate(combos):
            signal ^= ((combo & fetched).bit_count() & 1) << j
        ranks[u + 1] = len(basis)
    # the basis rows of [A | signal] with a lowest bit below m count A's rank
    # and at full rank hold the pivots 0..m-1: from the last pivot c down, x_c
    # is the row's signal bit plus its bits of x above c
    system = [row | (signal >> j & 1) << m for j, row in enumerate(blocks[failed])]
    mask = (1 << m) - 1
    pivots = sorted((row for row in linalg.echelon_bits(system)[0] if row & mask),
                    key=lambda row: row & -row, reverse=True)
    x = 0
    for row in pivots:
        if (row >> m ^ (row & mask & x).bit_count()) & 1:
            x |= row & -row
    return ranks, len(pivots), [x >> c & 1 for c in range(m)]


def _solve_mod_p(blocks: list, vectors: list, sent: list, failed: int,
                 p: int) -> tuple:
    """``_solve_bits`` for odd p, on rows of ints in [0, p) by
    ``linalg.rref_rows``."""
    m = len(sent)
    signal = [sum(map(mul, row, vector)) % p for row, vector in sent]
    ranks = {}
    for u, (block, vector) in enumerate(zip(blocks, vectors)):
        if u == failed:
            continue
        basis = list(block)
        pivots = linalg.rref_rows(basis, p)
        # node u sends basis . vector, one GF(p) value per pivot column c.
        # The basis rows have unit pivots, so block = block[:, pivots] . basis
        # and the interference is block[:, pivots] . fetched: block . fetched
        # with the fetched values scattered to their pivot columns
        fetched = [0] * m
        for c, row in zip(pivots, basis):
            fetched[c] = sum(map(mul, row, vector)) % p
        signal = [(x - sum(map(mul, row, fetched))) % p
                  for x, row in zip(signal, block)]
        ranks[u + 1] = len(pivots)
    # one elimination of [A | signal] gives the rank of the failed block A
    # (its pivots left of column m) and, when that is full, the solution
    system = [[*row, x] for row, x in zip(blocks[failed], signal)]
    pivots = linalg.rref_rows(system, p)
    return ranks, sum(c < m for c in pivots), [row[m] for row in system]
