"""Systematic (n,k) MDS codes over extension fields.

A code is its k x (n-k) parity-coefficient matrix: node j stores
``y_j = x_j`` for j <= k and ``y_j = sum_i P[i][j-k-1] * x_i`` for parity
nodes.  Reed-Solomon codes are built from evaluation points through
Lagrange basis coefficients; arbitrary parity matrices (like the deployed
Hadoop (14,10) code) can be supplied directly.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations
from operator import xor

from ._value import Value
from .errors import (
    DuplicateEvalPoints,
    LengthMismatch,
    ParseError,
    TooManySubsets,
    as_int,
    as_node,
    clip,
    short_repr,
)
from .gf import FieldElement, FieldSpec

SUBSET_CAP = 10 ** 6  # node subsets ``verify_mds`` enumerates at most


class CodeSpec(Value):
    """A systematic (n,k) code given by its parity matrix.

    parity[i][j] is the coefficient applied to message symbol i+1 by
    parity node k+1+j.  All entries must be nonzero (a zero entry breaks
    the MDS property).
    """

    n: int
    k: int
    field: FieldSpec
    parity: tuple
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n, "n"))
        object.__setattr__(self, "k", as_int(self.k, "k"))
        if not 0 < self.k < self.n:
            raise ValueError(f"need 0 < k < n, got ({self.n},{self.k})")
        if self.name is not None and not isinstance(self.name, str):
            raise ValueError(
                f"code name must be a string or null, got {short_repr(self.name)}")
        parity = tuple(tuple(row) for row in self.parity)
        object.__setattr__(self, "parity", parity)
        if len(parity) != self.k or any(len(r) != self.n - self.k for r in parity):
            raise ValueError("parity matrix must be k x (n-k)")
        for row in parity:
            for e in row:
                if not isinstance(self.field, FieldSpec) or e not in self.field:
                    raise ValueError("parity entries must belong to the code's field")
                if e.is_zero:
                    raise ValueError("parity entries must be nonzero")

    @property
    def r(self) -> int:
        return self.n - self.k

    def parity_exps(self) -> list:
        """Discrete logs of the parity entries, k rows x (n-k) cols."""
        return [[e.exp for e in row] for row in self.parity]

    def __repr__(self) -> str:
        label = clip(self.name) if self.name else f"({self.n},{self.k})"
        return f"CodeSpec({label} over {self.field!r})"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "k": self.k,
            "field": self.field.to_json(),
            "parity": [[e.to_json() for e in row] for row in self.parity],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CodeSpec":
        try:
            field = FieldSpec.from_json(obj["field"])
            parity = tuple(
                tuple(field.element(e) for e in row) for row in obj["parity"])
            return cls(obj["n"], obj["k"], field, parity, obj.get("name"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad code JSON: {exc}") from exc


class Codeword(Value):
    """n coded symbols; the first k are the message itself.  The symbols are
    stored as a tuple and must be n elements of the code's field."""

    code: CodeSpec
    symbols: tuple

    def __post_init__(self):
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if len(symbols) != self.code.n:
            raise LengthMismatch(f"codeword length {len(symbols)} != n={self.code.n}")
        field = self.code.field
        for x in symbols:
            if x not in field:
                raise ValueError("codeword symbols must belong to the code's field")

    def __getitem__(self, i: int) -> FieldElement:
        return self.symbols[i]

    def __len__(self) -> int:
        return len(self.symbols)


def rs_systematic(field: FieldSpec, eval_points, k: int,
                  name: str | None = None) -> CodeSpec:
    """Systematic Reed-Solomon code from n distinct nonzero evaluation points.

    Parity coefficient of message i at parity node j is the Lagrange basis
    polynomial through the first k points, evaluated at point j:
    ``prod_{t != i} (a_j - a_t) / (a_i - a_t)``.
    """
    pts = list(eval_points)
    n, k = len(pts), as_int(k, "k")
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got n={n}, k={k}")
    for a in pts:
        if not isinstance(field, FieldSpec) or a not in field:
            raise ValueError("evaluation points must belong to the field")
        if a.is_zero:
            raise ValueError("evaluation points must be nonzero")
    if len({a.exp for a in pts}) != n:
        raise DuplicateEvalPoints("evaluation points must be distinct")
    parity = []
    for i in range(k):
        row = []
        for j in range(k, n):
            acc = field.one()
            for t in range(k):
                if t == i:
                    continue
                acc = acc * (pts[j] - pts[t]) / (pts[i] - pts[t])
            row.append(acc)
        parity.append(tuple(row))
    return CodeSpec(n, k, field, tuple(parity), name)


def normalize_parity(code: CodeSpec) -> CodeSpec:
    """Scale each parity row by the inverse of its first entry, so the
    first parity column is all ones.  Row scaling changes neither the MDS
    property nor any repair bandwidth."""
    parity = tuple(
        tuple(e / row[0] for e in row) for row in code.parity)
    return CodeSpec(code.n, code.k, code.field, parity, code.name)


def _echelon(a, t: int) -> bool:
    """Forward elimination, in place, of ``a``, t equal-length lists of
    field elements, on its first t columns: the entries below each pivot
    cleared.  False, stopped at the first column with no pivot, when those
    columns are singular."""
    for c in range(t):
        piv = next((i for i in range(c, t) if not a[i][c].is_zero), None)
        if piv is None:
            return False
        a[c], a[piv] = a[piv], a[c]
        inv = a[c][c].inverse()
        for i in range(c + 1, t):
            f = a[i][c] * inv
            if not f.is_zero:
                for j in range(c, len(a[c])):
                    a[i][j] = a[i][j] - f * a[c][j]
    return True


def _singular(rows) -> bool:
    """Whether a small square matrix of field elements is singular
    (``_echelon`` on a copy)."""
    return not _echelon([list(r) for r in rows], len(rows))


def systematic_on(code: CodeSpec, info) -> tuple:
    """(CodeSpec, order): ``code`` made systematic on the k nodes ``info``
    (1-based), and the original nodes in the new code's node order, info as
    given, then the rest in increasing order.  With G = [I | P] and G_S its
    columns at info, the new parity is P' = G_S^-1 G_rest, so an original
    codeword with its symbols in that order is a codeword of the new code.
    P' is not normalized (``normalize_parity``): scaling its rows keeps
    every gamma but changes the codewords.  ValueError unless info is k
    distinct nodes with G_S nonsingular and P' has no zero entry, as for
    every k nodes of an MDS code; the new code has no name."""
    n, k, field = code.n, code.k, code.field
    info = [as_node(u, n, "information node") for u in info]
    if len(info) != k or len(set(info)) != k:
        raise ValueError(f"an information set is {k} distinct nodes, got {info}")
    order = (*info, *(u for u in range(1, n + 1) if u not in info))
    one, zero = field.one(), field.zero()
    # [G_S | G_rest]: node u's column of G = [I | P] is e_u, or P's column u-k
    a = [[row[u - k - 1] if u > k else (one if u == i + 1 else zero) for u in order]
         for i, row in enumerate(code.parity)]
    if not _echelon(a, k):
        raise ValueError(f"the generator columns of nodes {info} are singular")
    # back substitution on the parity columns, last pivot first
    for c in range(k - 1, -1, -1):
        inv = a[c][c].inverse()
        a[c][k:] = [x * inv for x in a[c][k:]]
        for i in range(c):
            f = a[i][c]
            a[i][k:] = [x - f * y for x, y in zip(a[i][k:], a[c][k:])]
    return CodeSpec(n, k, field, tuple(tuple(row[k:]) for row in a)), order


def verify_mds(code: CodeSpec) -> bool:
    """True iff every k of the n nodes can reconstruct the message.

    The generator [I | P] of a systematic code is MDS iff every square
    submatrix of the k x (n-k) parity matrix P is nonsingular: the k x k
    minor of a node subset is, up to sign, the t x t submatrix of P on the
    missing systematic rows and the chosen parity columns.  So the t x t
    submatrices for t = 1..min(k, n-k) are checked directly, the C(n,k) - 1
    minors of the subsets that hold a parity node.  ``TooManySubsets`` when
    C(n,k) exceeds ``SUBSET_CAP``.
    """
    n, k = code.n, code.k
    if math.comb(n, k) > SUBSET_CAP:
        raise TooManySubsets(
            f"C({n},{k}) = {math.comb(n, k)} exceeds the cap {SUBSET_CAP}")
    for t in range(1, min(k, n - k) + 1):
        for rows in combinations(code.parity, t):
            for cols in combinations(range(n - k), t):
                if _singular([[row[j] for j in cols] for row in rows]):
                    return False
    return True


def encode(code: CodeSpec, message) -> Codeword:
    """Encode k message symbols into an n-symbol codeword.

    Each parity symbol sum_i P_ij * x_i is summed on packed indices, with no
    element arithmetic: the term P_ij * x_i of a nonzero x_i is
    ``exp_table[(log P_ij + log x_i) mod (q-1)]``, and the terms are XORed
    for p = 2 and added digit by digit mod p otherwise.  One
    ``FieldElement`` is built per parity symbol: an fb1410 codeword takes
    about 14 us.
    """
    msg = list(message)
    if len(msg) != code.k:
        raise LengthMismatch(f"message length {len(msg)} != k={code.k}")
    field = code.field
    for x in msg:
        if x not in field:
            raise ValueError("message symbols must belong to the code's field")
    p, q1, exp_table = field.p, field.q - 1, field.exp_table
    weights = [p ** d for d in range(field.m)]  # digit d of index t: t // p^d % p
    # (parity logs of message symbol i, log x_i) for the nonzero x_i
    terms = [(row, x.exp) for row, x in zip(code.parity_exps(), msg)
             if x.exp is not None]
    symbols = list(msg)
    for j in range(code.r):
        packed = [exp_table[(row[j] + e) % q1] for row, e in terms]
        idx = (reduce(xor, packed, 0) if p == 2 else
               sum(sum(t // w % p for t in packed) % p * w for w in weights))
        symbols.append(field.from_index(idx))
    return Codeword(code, symbols)
