"""Dense linear algebra over prime fields GF(p).

Two representations are used:

* numpy int64 arrays with entries reduced mod p, for the general routines
  (echelon form, rank, solving);
* python ints as bit-rows for the GF(2) fast path (`bit_rank`), which the
  search hot loops rely on.

Matrices here are tiny (at most 16x16 for the fields this package
supports), so clarity beats asymptotics throughout.
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


def rref_mod_p(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of M over GF(p).

    Returns (R, pivot_cols). R has the same shape as M; the first
    len(pivot_cols) rows of R are the canonical basis of the row space
    (each has a 1 in its pivot column and 0 in every other pivot column).
    """
    R = np.asarray(M, dtype=np.int64) % p
    rows, cols = R.shape
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        pivot = -1
        for i in range(r, rows):
            if R[i, c]:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != r:
            R[[r, pivot]] = R[[pivot, r]]
        R[r] = (R[r] * pow(int(R[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and R[i, c]:
                R[i] = (R[i] - R[i, c] * R[r]) % p
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    return R, pivot_cols


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
