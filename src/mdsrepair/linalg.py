"""Dense linear algebra over prime fields GF(p).

Five representations are used:

* python lists of ints in [0, p), one list per row, for the one general
  elimination mod p (`rref_rows`), which beats numpy row operations at
  these sizes.  ``repair.recover_node`` runs it on lists directly; the
  array routines that the explicit-matrix repair route and the subfield
  tables use (`rref_mod_p`, `rank_mod_p`, `solve_mod_p`) reduce an int64
  array mod p, call ``tolist()`` once and wrap it;
* python ints as bit-rows for the GF(2) element rank (`bit_rank`);
* numpy arrays of packed coordinates, one set of rows per column, for the
  batched GF(2) rank (`bit_rank_batch`) that the p = 2 search ranks whole
  candidate chunks with, in the smallest unsigned dtype that holds q-1
  (``uint8`` up to GF(2^8), ``uint16`` above);
* discrete logs of GF(p^m) elements for the odd-p element rank
  (`zech_rank`), reduced through the field's Zech-logarithm tables;
* numpy int64 arrays of such logs, one set per column, for the batched odd-p
  rank (`zech_rank_batch`) that the odd-p search ranks whole candidate
  chunks with, through array forms of the same tables.

Both batch kernels take N sets of r rows in the column layout, an (r, N)
C-ordered array, so that every elimination step runs over contiguous
length-N vectors, and eliminate in that array: it is overwritten.  Each
step records its pivot row in a preallocated (steps, N) array, and a
set's rank is the number of nonzero pivots, counted once at the end.

``bit_rank`` and ``zech_rank`` are the kernels behind
``SubfieldSpec.rank_exps``, the scalar element rank, and ``bit_rank_batch``
and ``zech_rank_batch`` the ones behind ``SubfieldSpec.rank_batch``.
Matrices here are tiny (at most 16x16 for the fields this package
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
    """The int64 number of True entries in each column of the (steps, N)
    bool array ``nonzero``, summed in uint8 (steps <= 16), which is several
    times faster than a count in int64."""
    return nonzero.sum(axis=0, dtype=np.uint8).astype(np.int64)


def bit_rank_batch(cols: np.ndarray, m: int) -> np.ndarray:
    """GF(2) ranks of N sets of bitmask rows at once.

    ``cols`` is an (r, N) C-ordered array of packed coordinates below 2^m,
    column c the rows of set c, in any unsigned dtype
    (``FieldSpec.rank_keys`` uses the smallest that holds q-1); the
    elimination overwrites it.  Returns the N ranks.  Each step takes the
    largest row of every set as its pivot.  XORing the pivot into a row
    clears the pivot's leading bit, and makes the row smaller, exactly when
    the row holds that bit; so replacing every row by the minimum of itself
    and its XOR with the pivot is one elimination step, and it turns the
    pivot into 0.  A set's rank is the number of nonzero pivots, and
    min(m, r) steps exhaust every set; the last step only records its
    pivot.
    """
    steps = min(m, len(cols))
    pivots = np.empty((steps, cols.shape[1]), dtype=cols.dtype)
    scratch = np.empty_like(cols)
    for i, pivot in enumerate(pivots, 1):
        cols.max(axis=0, out=pivot)
        if i < steps:
            np.bitwise_xor(cols, pivot, out=scratch)
            np.minimum(cols, scratch, out=cols)
    return _count(pivots != 0)


def zech_rank(exps, lead, zech, product) -> int:
    """GF(p) rank, p odd, of the nonzero elements z^x of GF(p^m), x in exps.

    The same basis keyed by leading digit as ``bit_rank``, kept in the log
    domain on the tables ``FieldSpec.zech_lists``, where the log 2(q-1) is
    zero.  Each basis entry is stored as its ``lead`` key, which packs its
    leading position above monic[b], its log scaled to a unit leading
    digit.  Reducing x by the entry b of its leading position is

        z^x -> z^x (1 + z^(log(-1) + monic[b] - monic[x])),

    which clears that digit; x is dependent when it reaches zero.
    """
    q1 = len(product) // 4
    zero, width = 2 * q1, 2 * q1 + 2  # lead[x] = position * width + monic[x]
    # zech's index of log(-1) + monic[b] - monic[x] is base + b - lead[x]
    base = q1 + q1 // 2
    basis: dict[int, int] = {}
    for x in exps:
        while x != zero:
            key = lead[x]
            h = key // width
            if h in basis:
                x = product[x + zech[base + basis[h] - key]]
            else:
                basis[h] = key
                break
    return len(basis)


def zech_rank_batch(cols: np.ndarray, m: int, lead, zech, product) -> np.ndarray:
    """GF(p) ranks, p odd, of N sets of nonzero elements of GF(p^m) at once.

    ``cols`` is an (r, N) C-ordered int64 array of discrete logs in
    [0, 2(q-1)), with 2(q-1) for zero, as ``FieldSpec.rank_keys`` holds
    them (other values are not checked), column c the elements of set c;
    the elimination overwrites it.  Returns the N ranks.  The tables are
    ``FieldSpec.zech_arrays``, the array forms of ``zech_rank``'s, and this
    is its elimination, one leading position at a time.  Each step takes
    the row with the largest ``lead`` of every set, which has the highest
    leading position, as its pivot, and reduces every row x that shares
    that position by it:

        z^x -> z^x (1 + z^(log(-1) + monic[pivot] - monic[x])),

    which clears the leading digit and turns the pivot itself into zero.
    A row with a lower leading position, zero included, reads an index past
    the end of ``zech``, which clips to its last entry, 0 = log 1, and
    leaves the row as it is.  A set's rank is the number of nonzero pivots
    (a nonnegative ``lead``), and min(m, r) steps exhaust every set; the
    last step only records its pivot.
    """
    steps = min(m, len(cols))
    pivots = np.empty((steps, cols.shape[1]), dtype=np.int64)
    keys = np.empty_like(cols)
    factor = np.empty_like(cols)
    q1 = len(product) // 4
    # zech's index of log(-1) + monic[pivot] - monic[x] is base + pivot -
    # lead[x]: the lead positions cancel for the rows that share the pivot's
    shifted = zech[q1 + q1 // 2:]
    for i, pivot in enumerate(pivots, 1):
        lead.take(cols, out=keys, mode="clip")
        keys.max(axis=0, out=pivot)
        if i < steps:
            np.subtract(pivot, keys, out=keys)
            shifted.take(keys, out=factor, mode="clip")
            factor += cols
            product.take(factor, out=cols, mode="clip")
    return _count(pivots >= 0)


def rref_rows(rows: list, p: int) -> list[int]:
    """Bring ``rows``, a list of equal-length lists of ints in [0, p), to
    reduced row echelon form over GF(p), in place; returns the pivot
    columns.

    The first len(pivots) rows end up as the canonical basis of the row
    space (each has a 1 in its pivot column and 0 in every other pivot
    column) and the rest are zero.  Rows are swapped and replaced in
    ``rows`` but the row lists themselves are never written, so a shallow
    copy ``list(rows)`` keeps the input.  This is the one elimination mod p:
    ``rref_mod_p``, ``rank_mod_p`` and ``solve_mod_p`` wrap it for arrays,
    and ``repair.recover_node`` runs it on lists directly.
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
