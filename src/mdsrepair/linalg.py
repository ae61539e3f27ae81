"""Dense linear algebra over prime fields GF(p).

Five representations are used:

* numpy int64 arrays with entries reduced mod p, for the general routines
  (echelon form, rank, solving) that the explicit-matrix repair route uses;
  the elimination itself runs on python lists, which beat numpy row
  operations at these sizes;
* python ints as bit-rows for the GF(2) element rank (`bit_rank`);
* numpy ``uint16`` arrays of shape (N, rows), one set of packed coordinate
  rows per line, for the batched GF(2) rank (`bit_rank_batch`) that the
  p = 2 search ranks whole candidate chunks with;
* discrete logs of GF(p^m) elements for the odd-p element rank
  (`zech_rank`), reduced through Zech-logarithm tables;
* numpy int64 arrays of shape (N, rows) of such logs, one set per line,
  for the batched odd-p rank (`zech_rank_batch`) that the odd-p search
  ranks whole candidate chunks with, through array forms of the same
  tables.

``bit_rank`` and ``zech_rank`` are the kernels behind
``SubfieldSpec.rank_exps``, the scalar element rank; ``bit_rank_batch`` and
``zech_rank_batch`` are their vectorized counterparts.  Matrices here are
tiny (at most 16x16 for the fields this package supports), so clarity
beats asymptotics throughout.
"""

from __future__ import annotations

import numpy as np


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


def bit_rank_batch(rows: np.ndarray, m: int) -> np.ndarray:
    """GF(2) ranks of N sets of bitmask rows at once.

    ``rows`` is an (N, r) array of packed coordinates below 2^m (``uint16``
    for the fields this package supports); returns the N ranks.  Each step
    takes the largest row of every set as its pivot.  XORing the pivot into
    a row clears the pivot's leading bit, and makes the row smaller, exactly
    when the row holds that bit; so replacing every row by the minimum of
    itself and its XOR with the pivot is one elimination step, and it turns
    the pivot into 0.  A set's rank is the number of nonzero pivots, and
    min(m, r) steps exhaust every set.  The rows are transposed first, so
    that every step runs over contiguous length-N vectors.
    """
    cols = np.array(np.asarray(rows).T, order="C")
    ranks = np.zeros(cols.shape[1], dtype=np.int64)
    for _ in range(min(m, len(cols))):
        pivot = cols.max(axis=0)
        ranks += pivot != 0
        np.minimum(cols, cols ^ pivot, out=cols)
    return ranks


def zech_rank(exps, lead_pos, lead_log, zech) -> int:
    """GF(p) rank, p odd, of the nonzero elements z^x of GF(p^m), x in exps.

    The same basis keyed by leading digit as ``bit_rank``, kept in the log
    domain: the tables are ``FieldSpec``'s (``lead_pos[x]`` and
    ``lead_log[x]`` give the position and discrete log of the highest
    nonzero coordinate of z^x, ``zech[x]`` = log(1 + z^x) or None).  Basis
    entries are stored with a unit leading digit; reducing x by entry b is
    z^x - c z^b = z^x (1 + z^(log c + b + log(-1) - x)) with c the leading
    digit of z^x, which clears that digit, and a zero result means x was
    dependent.
    """
    q1 = len(zech)
    neg = q1 // 2  # log(-1)
    basis: dict[int, int] = {}
    for x in exps:
        while True:
            h = lead_pos[x]
            b = basis.get(h)
            if b is None:
                basis[h] = (x - lead_log[x]) % q1
                break
            y = zech[(lead_log[x] + b + neg - x) % q1]
            if y is None:
                break
            x = (x + y) % q1
    return len(basis)


def zech_rank_batch(logs: np.ndarray, m: int, lead, zech, product) -> np.ndarray:
    """GF(p) ranks, p odd, of N sets of nonzero elements of GF(p^m) at once.

    ``logs`` is an (N, r) array of discrete logs in [0, q-1); returns the N
    ranks.  The tables are ``FieldSpec.zech_arrays``, in which the log
    2(q-1) stands for zero: ``lead[x]`` packs the leading position of z^x
    above monic[x], the log of z^x scaled to a unit leading digit; ``zech``
    is log(1 + z^x), offset and tiled so that no index needs a reduction
    mod q-1; ``product[x + y]`` is the log of z^x * z^y.  This is
    ``zech_rank``'s elimination, one leading position at a time.  Each step
    takes the row with the largest ``lead`` of every set, which has the
    highest leading position, as its pivot, and reduces every row x that
    shares that position by it:

        z^x -> z^x (1 + z^(log(-1) + monic[pivot] - monic[x])),

    which clears the leading digit and turns the pivot itself into zero.
    A row with a lower leading position, zero included, reads an index past
    the end of ``zech``, which clips to its last entry, 0 = log 1, and
    leaves the row as it is.  A set's rank is the number of nonzero pivots, and
    min(m, r) steps exhaust every set.  The rows are transposed first, so
    that every step runs over contiguous length-N vectors.
    """
    cols = np.array(np.asarray(logs, dtype=np.int64).T, order="C")
    ranks = np.zeros(cols.shape[1], dtype=np.int64)
    q1 = len(product) // 4
    # zech's index of log(-1) + monic[pivot] - monic[x] is base + pivot -
    # lead[x]: the lead positions cancel for the rows that share the pivot's
    base = q1 + q1 // 2
    for _ in range(min(m, len(cols))):
        keys = lead[cols]
        pivot = keys.max(axis=0)
        ranks += pivot >= 0
        factor = zech.take((base + pivot) - keys, mode="clip")
        factor += cols
        product.take(factor, out=cols)
    return ranks


def rref_mod_p(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of M over GF(p).

    Returns (R, pivot_cols). R has the same shape as M; the first
    len(pivot_cols) rows of R are the canonical basis of the row space
    (each has a 1 in its pivot column and 0 in every other pivot column).
    """
    A = np.asarray(M, dtype=np.int64) % p
    rows, cols = A.shape
    R = A.tolist()
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        for i in range(r, rows):
            if R[i][c]:
                break
        else:
            continue
        R[r], R[i] = R[i], R[r]
        inv = pow(R[r][c], -1, p)
        pivot = R[r] = [v * inv % p for v in R[r]]
        for i in range(rows):
            f = R[i][c]
            if f and i != r:
                R[i] = [(v - f * w) % p for v, w in zip(R[i], pivot)]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    return np.array(R, dtype=np.int64).reshape(rows, cols), pivot_cols


def rank_mod_p(M: np.ndarray, p: int) -> int:
    """Rank of M over GF(p)."""
    M = np.asarray(M)
    if M.size == 0:
        return 0
    _, pivots = rref_mod_p(M, p)
    return len(pivots)


def solve_mod_p(A: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Solve A x = b over GF(p); A must be square and invertible.

    b may be a vector or a matrix of stacked right-hand-side columns.

    Raises:
        ValueError: if A is singular.
    """
    A = np.asarray(A, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    n = A.shape[0]
    rhs = b.reshape(n, -1)
    aug = np.hstack([A, rhs])
    R, pivots = rref_mod_p(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    x = R[:n, n:]
    return x.reshape(b.shape)


def matmul_mod_p(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Matrix product over GF(p)."""
    return (np.asarray(A, dtype=np.int64) @ np.asarray(B, dtype=np.int64)) % p
