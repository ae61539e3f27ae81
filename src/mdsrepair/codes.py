"""Systematic (n,k) MDS codes over extension fields.

A code is its k x (n-k) parity-coefficient matrix: node j stores
``y_j = x_j`` for j <= k and ``y_j = sum_i P[i][j-k-1] * x_i`` for parity
nodes.  Reed-Solomon codes are built from evaluation points through
Lagrange basis coefficients; arbitrary parity matrices (like the deployed
Hadoop (14,10) code) can be supplied directly.
"""

from __future__ import annotations

import math
from itertools import combinations

from ._value import Value
from .errors import (
    DuplicateEvalPoints,
    LengthMismatch,
    ParseError,
    TooManySubsets,
    as_int,
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
                if e not in self.field:
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
        if a not in field:
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


def _det(field: FieldSpec, rows) -> FieldElement:
    """Determinant of a small square matrix of field elements (in-place
    elimination on a copy)."""
    a = [list(r) for r in rows]
    t = len(a)
    det = field.one()
    for c in range(t):
        piv = next((i for i in range(c, t) if not a[i][c].is_zero), None)
        if piv is None:
            return field.zero()
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c]
        inv = a[c][c].inverse()
        for i in range(c + 1, t):
            f = a[i][c] * inv
            if not f.is_zero:
                for j in range(c, t):
                    a[i][j] = a[i][j] - f * a[c][j]
    return det


def verify_mds(code: CodeSpec) -> bool:
    """True iff every k of the n nodes can reconstruct the message,
    checked by enumerating all C(n,k) node subsets.

    For a subset the k x k generator minor reduces (up to sign) to the
    square parity submatrix indexed by the missing systematic rows and
    the chosen parity columns, so only a t x t determinant with
    t <= n-k is evaluated per subset.
    """
    n, k = code.n, code.k
    if math.comb(n, k) > SUBSET_CAP:
        raise TooManySubsets(
            f"C({n},{k}) = {math.comb(n, k)} exceeds the cap {SUBSET_CAP}")
    systematic = set(range(k))
    for subset in combinations(range(n), k):
        par_cols = [j - k for j in subset if j >= k]
        if not par_cols:
            continue  # identity minor
        missing = sorted(systematic - set(subset))
        sub = [[code.parity[i][j] for j in par_cols] for i in missing]
        if _det(code.field, sub).is_zero:
            return False
    return True


def encode(code: CodeSpec, message) -> Codeword:
    """Encode k message symbols into an n-symbol codeword."""
    msg = list(message)
    if len(msg) != code.k:
        raise LengthMismatch(f"message length {len(msg)} != k={code.k}")
    for x in msg:
        if x not in code.field:
            raise ValueError("message symbols must belong to the code's field")
    symbols = list(msg)
    for j in range(code.r):
        acc = code.field.zero()
        for i in range(code.k):
            acc = acc + code.parity[i][j] * msg[i]
        symbols.append(acc)
    return Codeword(code, symbols)
