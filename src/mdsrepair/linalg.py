"""Dense linear algebra over prime fields GF(p).

Five representations are used:

* python rows (lists or tuples) of ints in [0, p) for the one general
  elimination mod p (`rref_rows`), which beats numpy row operations at
  these sizes: ``repair.gamma_ranks_matrix`` and a scheme's recovery plan
  (``repair._plan``, once per scheme) for odd p and
  ``SubfieldSpec.tower_inverse`` run it directly, and
  `rref_mod_p`, `rank_mod_p` and `solve_mod_p` wrap it for int64 arrays;
* python ints as bit-rows, bit c for column c, for the forward-only GF(2)
  elimination of the same two callers (`echelon_bits`), by XOR;
* python ints as bit-rows for the scalar GF(2) element rank (`bit_rank`);
* numpy arrays of packed coordinates, one set of rows per column, for the
  batched GF(2) elimination (`bit_echelon_batch`) that the p = 2 search
  ranks whole candidate chunks with, in the smallest unsigned dtype that
  holds q-1 (``uint8`` up to GF(2^8), ``uint16`` above);
* numpy int64 arrays of discrete logs of GF(p^m) elements, one set per
  column, for the odd-p elimination (`zech_echelon_batch`), reduced
  through the field's Zech-logarithm tables: the odd-p search ranks whole
  candidate chunks with it, and a report its k sets in one call.

Both batch kernels take N sets of r rows in the column layout, an (r, N)
C-ordered array, so that every elimination step runs over contiguous
length-N vectors, and eliminate in that array: it is overwritten.  Each
step records its pivot row in a (steps, N) array, which the kernel
returns, a set's rank being its number of nonzero pivots; the extend step
(`bit_extend_batch`, `zech_extend_batch`) reduces V more keys per set
against them, one at a time, and tells which leave the set's span, with
no further elimination.

``repair.gamma_ranks_matrix`` ranks the ten 8x8 blocks of an fb1410
scheme by ``echelon_bits`` in about 0.03 ms (0.065 ms when each was
brought to reduced form), and the four 4x4 blocks of an RS(6,4) scheme
over GF(3^4) by ``rref_rows`` in about 0.03 ms.

``bit_rank`` is the kernel behind ``SubfieldSpec.rank_exps``, the element
rank of the scalar routes, for p = 2, kept on python ints so that those
routes load no NumPy; for odd p ``rank_exps`` calls ``zech_rank_batch``
once.  The batch kernels are the ones behind ``SubfieldSpec.rank_batch``
and ``rank_extend_batch``.
``rref_rows`` and ``echelon_bits`` belong to the explicit-matrix route and
share no code with them, so the two routes stay independent checks of each
other.  Matrices here are tiny (at most 16x16 for the fields this package
supports), so clarity beats asymptotics throughout.
"""

from __future__ import annotations

from ._numpy import np
from .errors import DimensionMismatch


def bit_rank(rows) -> int:
    """GF(2) rank of bitmask rows, via an XOR basis keyed by leading bit."""
    basis: dict[int, int] = {}
    rank = 0
    for v in rows:
        while v:
            h = v.bit_length() - 1
            if h in basis:
                v ^= basis[h]
            else:
                basis[h] = v
                rank += 1
                break
    return rank


def _count(nonzero: np.ndarray) -> np.ndarray:
    """The uint8 number of True entries in each column of the (steps, N)
    bool array ``nonzero`` (steps <= 16), several times faster than int64."""
    return np.add.reduce(nonzero, axis=0, dtype=np.uint8)


def _bit_step(cols: np.ndarray, pivot: np.ndarray, scratch: np.ndarray) -> None:
    """XOR ``pivot`` into every row of ``cols`` that holds its leading bit."""
    np.bitwise_xor(cols, pivot, out=scratch)
    np.minimum(cols, scratch, out=cols)


def bit_echelon_batch(cols: np.ndarray, m: int) -> np.ndarray:
    """GF(2) echelon pivots of N sets of bitmask rows at once.

    ``cols`` is an (r, N) C-ordered array of packed coordinates below 2^m,
    column c the rows of set c, in any unsigned dtype
    (``FieldSpec.rank_keys`` uses the smallest that holds q-1); the
    elimination overwrites it.  Returns the (min(m, r), N) pivots.  Each
    step takes the largest row of every set as its pivot.  XORing the pivot
    into a row clears the pivot's leading bit, and makes the row smaller,
    exactly when the row holds that bit; so replacing every row by the
    minimum of itself and its XOR with the pivot is one elimination step
    (``_bit_step``), and it turns the pivot into 0.  A set's nonzero pivots
    lead at falling bits and span its rows; min(m, r) steps exhaust every
    set, and the last step only records its pivot.
    """
    steps = min(m, len(cols))
    pivots = np.empty((steps, cols.shape[1]), dtype=cols.dtype)
    scratch = np.empty_like(cols)
    for i, pivot in enumerate(pivots, 1):
        np.maximum.reduce(cols, axis=0, out=pivot)
        if i < steps:
            _bit_step(cols, pivot, scratch)
    return pivots


def bit_rank_batch(cols: np.ndarray, m: int) -> np.ndarray:
    """The int64 GF(2) ranks of ``bit_echelon_batch``'s sets."""
    return _count(bit_echelon_batch(cols, m) != 0).astype(np.int64)


def bit_extend_batch(rows: np.ndarray, pivots: np.ndarray) -> tuple:
    """(ranks, grows) for set n's ``bit_echelon_batch`` pivots and the keys
    rows[n, v] of the (N, V) C-ordered array ``rows``, one key each: the
    (N,) uint8 GF(2) ranks of the pivots, and an (N, V) bool array that is
    True where the key leaves their span, so that the pivots with key v
    have rank ranks[n] + grows[n, v].  Each pivot in turn reduces the keys
    by ``_bit_step``, which clears its leading bit; the pivots lead at
    falling bits, so a key ends at zero iff it lay in their span.  ``rows``
    is overwritten."""
    scratch = np.empty_like(rows)
    for pivot in pivots:
        _bit_step(rows, pivot[:, None], scratch)
    return _count(pivots != 0), rows != 0


def _zech_step(cols, index, factor, zech, product) -> None:
    """Multiply every row z^x of ``cols`` by z^zech[index], a 1 + z^y, in
    place; an index past the end of ``zech`` reads 0 = log 1, keeping x."""
    zech.take(index, out=factor, mode="clip")
    factor += cols
    product.take(factor, out=cols, mode="clip")


def zech_echelon_batch(cols: np.ndarray, m: int, lead, zech, product) -> np.ndarray:
    """Echelon pivots, p odd, of N sets of nonzero elements of GF(p^m).

    ``cols`` is an (r, N) C-ordered int64 array of discrete logs in
    [0, 2(q-1)), with 2(q-1) for zero, as ``FieldSpec.rank_keys`` holds
    them (other values are not checked), column c the elements of set c;
    the elimination overwrites it.  Returns the (min(m, r), N) ``lead``
    keys of the pivots.  The tables are ``FieldSpec.zech_arrays``, in which
    the log 2(q-1) is zero and the ``lead`` key of z^x packs the position of
    its leading coordinate above monic[x], its log scaled to a unit leading
    digit.  Each step takes the row of every set with the largest ``lead``,
    the highest leading position, as its pivot, and reduces every row x at
    that position by z^x -> z^x (1 + z^(log(-1) + monic[pivot] - monic[x]))
    (``_zech_step``), which clears the leading digit and turns the pivot
    into zero; a lower row, zero included, reads past the end of ``zech``
    and is kept.  A set's nonzero pivots (``lead`` >= 0) lead at falling
    positions, and min(m, r) steps exhaust every set; the last only
    records its pivot.
    """
    steps = min(m, len(cols))
    pivots = np.empty((steps, cols.shape[1]), dtype=np.int64)
    keys = np.empty_like(cols)
    factor = np.empty_like(cols)
    q1 = len(product) // 4
    # zech's index of log(-1) + monic[pivot] - monic[x] is 3(q-1)/2 + pivot -
    # lead[x]: the lead positions cancel for the rows that share the pivot's
    shifted = zech[q1 + q1 // 2:]
    for i, pivot in enumerate(pivots, 1):
        lead.take(cols, out=keys, mode="clip")
        np.maximum.reduce(keys, axis=0, out=pivot)
        if i < steps:
            np.subtract(pivot, keys, out=keys)
            _zech_step(cols, keys, factor, shifted, product)
    return pivots


def zech_rank_batch(cols: np.ndarray, m: int, lead, zech, product) -> np.ndarray:
    """The int64 GF(p) ranks of ``zech_echelon_batch``'s sets."""
    return _count(zech_echelon_batch(cols, m, lead, zech, product) >= 0).astype(np.int64)


def zech_extend_batch(rows: np.ndarray, pivots: np.ndarray, lead, zech, product) -> tuple:
    """``bit_extend_batch`` for p odd, on ``zech_echelon_batch`` pivots and
    int64 logs.  A key may lead above a pivot, or the pivot be zero
    (``lead`` -2q), so the key difference d may be negative: zech is read
    at 3(q-1)/2 + d, moved past the end where |d| >= q-1 and the positions
    differ.  A key that leads where no pivot does keeps that lead, so it
    ends at zero (the log 2(q-1)) iff it lay in the pivots' span."""
    q1 = len(product) // 4
    keys = np.empty_like(rows)
    factor = np.empty_like(rows)
    for pivot in pivots:
        lead.take(rows, out=keys, mode="clip")
        np.subtract((pivot + (q1 + q1 // 2))[:, None], keys, out=keys)
        np.putmask(keys, keys <= q1 // 2, len(zech))
        _zech_step(rows, keys, factor, zech, product)
    return _count(pivots >= 0), rows != 2 * q1


def rref_rows(rows: list, p: int) -> list[int]:
    """Bring ``rows``, a list of equal-length rows of ints in [0, p), to
    reduced row echelon form over GF(p), in place; returns the pivot
    columns.

    The first len(pivots) rows end up as the canonical basis of the row
    space (each has a 1 in its pivot column and 0 in every other pivot
    column) and the rest are zero.  Rows are swapped and replaced in
    ``rows`` but never written, so rows may be tuples and a shallow copy
    ``list(rows)`` keeps the input.  This is the one elimination mod p.
    """
    n = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot = rows[r]
        if pivot[c] != 1:
            inv = pow(pivot[c], -1, p)
            pivot = rows[r] = [v * inv % p for v in pivot]
        for i in range(n):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], pivot)]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


def echelon_bits(rows) -> tuple[list[int], list[int]]:
    """Forward-only GF(2) elimination of ``rows``, ints whose bit c is
    column c; returns (basis, combos), len(basis) the rank.

    Each row is reduced by the basis row of its lowest set bit, which
    clears that bit and sets only higher ones, until it is zero or its
    lowest bit is new and it joins the basis; nothing above a pivot is
    cleared.  combos[j] is the bitmask of the basis rows, bit i for
    basis[i], whose XOR is rows[j].  ``rows`` is only read.
    """
    basis: list[int] = []
    combos: list[int] = []
    index: dict[int, int] = {}  # lowest bit (a power of 2) -> its basis row
    for v in rows:
        combo = 0
        while v:
            i = index.setdefault(v & -v, len(basis))
            combo ^= 1 << i
            if i == len(basis):
                basis.append(v)
                break
            v ^= basis[i]
        combos.append(combo)
    return basis, combos


def _reduced(M, p: int) -> np.ndarray:
    """M as an int64 array with entries reduced mod p; DimensionMismatch
    unless it is a matrix."""
    A = np.asarray(M, dtype=np.int64) % p
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {A.shape}")
    return A


def rref_mod_p(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of M over GF(p), by ``rref_rows``.

    Returns (R, pivot_cols). R has the same shape as M; the first
    len(pivot_cols) rows of R are the canonical basis of the row space
    (each has a 1 in its pivot column and 0 in every other pivot column).
    """
    A = _reduced(M, p)
    R = A.tolist()
    pivots = rref_rows(R, p)
    return np.array(R, dtype=np.int64).reshape(A.shape), pivots


def rank_mod_p(M: np.ndarray, p: int) -> int:
    """Rank of M over GF(p): the pivot count of ``rref_rows``, with no
    array built from the echelon form."""
    return len(rref_rows(_reduced(M, p).tolist(), p))


def solve_mod_p(A: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Solve A x = b over GF(p); A must be square and invertible.

    b may be a vector or a matrix of stacked right-hand-side columns; x has
    b's shape.  [A | b] is eliminated once by ``rref_rows``.

    Raises:
        DimensionMismatch: if A is not square or b has not A's row count.
        ValueError: if A is singular.
    """
    A = _reduced(A, p)
    b = np.asarray(b, dtype=np.int64) % p
    n = A.shape[0]
    if A.shape != (n, n) or b.shape[:1] != (n,):
        raise DimensionMismatch(
            f"cannot solve A x = b for A of shape {A.shape} and b of shape {b.shape}")
    rhs = b.reshape(n, -1).tolist() if n else []
    rows = [a + extra for a, extra in zip(A.tolist(), rhs)]
    if rref_rows(rows, p)[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return np.array([row[n:] for row in rows], dtype=np.int64).reshape(b.shape)


def matmul_mod_p(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Matrix product over GF(p)."""
    return (np.asarray(A, dtype=np.int64) @ np.asarray(B, dtype=np.int64)) % p
