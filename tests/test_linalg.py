"""The elimination mod p (``linalg.rref_rows``) and its array wrappers
``rref_mod_p``, ``rank_mod_p`` and ``solve_mod_p``, against brute force over
GF(p) for p in {2, 3, 5, 7}: row spaces and solutions are enumerated.  The
forward-only GF(2) elimination on bit-rows (``echelon_bits``) is checked
against ``rref_rows(rows, 2)``."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdsrepair import linalg
from mdsrepair.errors import DimensionMismatch

PRIMES = (2, 3, 5, 7)
# empty, zero, wide, tall and square shapes, then random ones
SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (3, 4), (4, 3)]


def row_space(M, p):
    """Every GF(p) combination of M's rows, as a set of tuples."""
    rows, cols = M.shape
    coeffs = np.array(list(itertools.product(range(p), repeat=rows)),
                      dtype=np.int64).reshape(p ** rows, rows)
    return set(map(tuple, (coeffs @ (M % p) % p).tolist())) if cols else {()}


def brute_rank(M, p):
    size = len(row_space(M, p))
    rank = round(np.log(size) / np.log(p))
    assert p ** rank == size
    return rank


def matrices(p, rng, shapes=None):
    """Test matrices over GF(p), entries also outside [0, p): zero, random
    and rank-deficient ones of each shape, by default of ``SHAPES`` and of
    random shapes up to 5 x 5."""
    if shapes is None:
        shapes = SHAPES + [(rng.randrange(6), rng.randrange(6)) for _ in range(12)]
    for rows, cols in shapes:
        yield np.zeros((rows, cols), dtype=np.int64)
        yield np.array([[rng.randrange(-p, 2 * p) for _ in range(cols)]
                        for _ in range(rows)], dtype=np.int64).reshape(rows, cols)
        # rank-deficient: a combination of the other rows repeated
        if rows > 1:
            M = np.array([[rng.randrange(p) for _ in range(cols)]
                          for _ in range(rows)], dtype=np.int64).reshape(rows, cols)
            M[-1] = (2 * M[0] + M[-2]) % p
            yield M


def assert_rref(M, R, pivots, p):
    """R is the reduced row echelon form of M over GF(p), pivots its pivot
    columns."""
    assert R.shape == M.shape and R.dtype == np.int64
    assert ((0 <= R) & (R < p)).all()
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert R[i, c] == 1
        assert not R[i, :c].any()
        assert R[:, c].tolist() == [int(j == i) for j in range(len(R))]
    assert not R[len(pivots):].any()
    assert row_space(R, p) == row_space(M, p)
    assert len(pivots) == brute_rank(M, p)


@pytest.mark.parametrize("p", PRIMES)
def test_rref_and_rank_match_brute_force(p):
    rng = random.Random(p)
    for M in matrices(p, rng):
        before = M.copy()
        R, pivots = linalg.rref_mod_p(M, p)
        assert_rref(M, R, pivots, p)
        assert linalg.rank_mod_p(M, p) == len(pivots)
        assert (M == before).all()


@pytest.mark.parametrize("p", PRIMES)
def test_list_kernel_is_rref_mod_p(p):
    rng = random.Random(10 + p)
    for M in matrices(p, rng):
        rows = (M % p).tolist()
        copy = list(rows)
        pivots = linalg.rref_rows(copy, p)
        R, want = linalg.rref_mod_p(M, p)
        assert pivots == want
        assert copy == R.tolist()
        # the row lists themselves are not written: a shallow copy kept them
        assert rows == (M % p).tolist()


def assert_echelon(rows, width):
    """``echelon_bits(rows)`` has the rank of ``rref_rows``, basis rows with
    distinct lowest bits, and combos whose basis rows XOR to each row."""
    copy = list(rows)
    basis, combos = linalg.echelon_bits(rows)
    assert rows == copy
    bits = [[v >> c & 1 for c in range(width)] for v in rows]
    assert len(basis) == len(linalg.rref_rows(bits, 2))
    assert 0 not in basis
    assert len({v & -v for v in basis}) == len(basis)
    assert len(combos) == len(rows)
    for v, combo in zip(rows, combos):
        assert combo < 1 << len(basis)
        xor = 0
        for i, b in enumerate(basis):
            if combo >> i & 1:
                xor ^= b
        assert xor == v


def test_bit_kernel_is_rref_rows():
    rng = random.Random(2)
    # wide, tall and square shapes up to 16 columns, the largest m
    shapes = SHAPES + [(1, 16), (16, 1), (3, 16), (16, 3), (16, 16)]
    shapes += [(rng.randrange(17), rng.randrange(17)) for _ in range(40)]
    for M in matrices(2, rng, shapes):
        assert_echelon([sum(b << c for c, b in enumerate(row)) for row in (M % 2).tolist()],
                       M.shape[1])


@given(st.integers(0, 16).flatmap(lambda width: st.tuples(
    st.lists(st.integers(0, (1 << width) - 1), max_size=20), st.just(width))))
def test_bit_kernel_properties(case):
    # random bit-row sets of every width up to 16, repeats and zeros included
    assert_echelon(*case)


@pytest.mark.parametrize("p", PRIMES)
def test_solve_matches_brute_force(p):
    rng = random.Random(20 + p)
    for _ in range(60):
        n = rng.randrange(4)
        A = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                     dtype=np.int64).reshape(n, n)
        B = np.array([[rng.randrange(-p, 2 * p) for _ in range(2)] for _ in range(n)],
                     dtype=np.int64).reshape(n, 2)
        xs = [np.array(x, dtype=np.int64)
              for x in itertools.product(range(p), repeat=n)]
        for b in (B[:, 0], B):
            if brute_rank(A, p) < n:
                with pytest.raises(ValueError, match="^singular matrix$"):
                    linalg.solve_mod_p(A, b, p)
                continue
            x = linalg.solve_mod_p(A, b, p)
            assert x.shape == b.shape and x.dtype == np.int64
            columns = x[:, None] if x.ndim == 1 else x
            for col, rhs in zip(columns.T, (b % p).reshape(columns.shape).T):
                solutions = [y for y in xs if ((A @ y - rhs) % p == 0).all()]
                assert len(solutions) == 1
                assert (col == solutions[0]).all()


def test_solve_shape_checks():
    with pytest.raises(DimensionMismatch, match=r"A of shape \(2, 3\)"):
        linalg.solve_mod_p(np.ones((2, 3), dtype=np.int64), np.ones(2), 3)
    # a tall A of full column rank is refused for its shape, not as singular
    with pytest.raises(DimensionMismatch, match=r"A of shape \(3, 2\)"):
        linalg.solve_mod_p(np.eye(3, 2, dtype=np.int64), np.ones(3), 3)
    with pytest.raises(DimensionMismatch, match=r"b of shape \(3,\)"):
        linalg.solve_mod_p(np.eye(2, dtype=np.int64), np.ones(3), 3)
    with pytest.raises(DimensionMismatch, match=r"b of shape \(\)"):
        linalg.solve_mod_p(np.eye(2, dtype=np.int64), 1, 3)
    with pytest.raises(ValueError, match="^singular matrix$"):
        linalg.solve_mod_p(np.array([[1, 2], [2, 4]]), np.ones(2), 5)
