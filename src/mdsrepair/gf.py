"""Extension-field arithmetic GF(p^m) with vector and matrix representations.

A field is defined by a primitive polynomial
``P(x) = a_0 + a_1 x + ... + a_{m-1} x^{m-1} + x^m`` over GF(p) and a fixed
primitive root ``z = x mod P(x)``.  A polynomial is validated by the walk
over the powers of x that fills the log tables: q-1 distinct powers make P
primitive and so irreducible; trial division runs only to tell a reducible
P from an irreducible, non-primitive one.  Nonzero elements are stored as
discrete logs (powers of z), so multiplication and inversion are exponent
arithmetic and addition goes through precomputed log/antilog tables.

``x in field`` (``FieldSpec.__contains__``) is the package's one test that
x is an element of a field; each caller raises its own ValueError.

Beyond plain arithmetic this module provides the vectorization machinery:
every element has a coordinate vector over GF(p) (``x.coords()``, the
base-p digits of its packed index, and row ``x.index`` of the q x m table
``FieldSpec.coords_table``), acts on those vectors through an m x m matrix
over GF(p) (``FieldSpec.operators``, one gather through ``coords_table``
for a whole array of discrete logs, a power of the companion matrix of P),
and sets of elements have a rank over any subfield GF(p^s).  One table
(``FieldSpec.unit_functional``) gives every row e_0 . operator(z^e), and,
shifted by a log, every row r . operator(z^e).  The element rank belongs
to ``SubfieldSpec``: ``rank_exps`` ranks sets of discrete logs,
``rank_batch`` sets of kernel keys, each with a kernel chosen by p, a
bitmask basis for p = 2 and a basis kept in the log domain otherwise
(``FieldSpec.rank_keys``, and for odd p the Zech-logarithm tables
``zech_arrays``).  p = 2 has a scalar kernel on python ints beside its
batch kernel; odd p has the batch kernel only.  A field builds only its
exp/log tables at construction; ``_numpy.table`` builds each array table on
first read, so element arithmetic and the scalar p = 2 routes never load
NumPy.
"""

from __future__ import annotations

import itertools
from operator import mul

from . import linalg
from ._numpy import np, table
from .errors import (
    DimensionMismatch,
    DivisionByZero,
    IncompatibleSubfield,
    InvalidMatrix,
    NotIrreducible,
    NotPrimitive,
    ParseError,
    ZeroVector,
    as_int,
)

MAX_FIELD_SIZE = 1 << 16


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), little-endian coefficient lists
# ---------------------------------------------------------------------------

def _poly_mod(a, mod, p):
    """Remainder of a modulo the monic mod, as deg(mod) coefficients."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return a[:dm]


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _has_factor(poly, p):
    """True if a monic polynomial of degree 1..m/2 divides poly."""
    for d in range(1, (len(poly) - 1) // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not any(_poly_mod(poly, list(low) + [1], p)):
                return True
    return False


# ---------------------------------------------------------------------------
# field and elements
# ---------------------------------------------------------------------------

class FieldSpec:
    """GF(p^m) defined by a primitive polynomial.

    Args:
        p: prime characteristic.
        poly: m+1 coefficients a_0..a_m over GF(p), monic (a_m = 1).

    The walk over the powers of x that builds the log tables is the only
    check a valid polynomial pays: P is primitive, hence irreducible,
    exactly when x (with P(0) != 0) has q-1 distinct powers.  Only after
    that walk fails does trial division by the monic polynomials of degree
    1..m/2 decide which error to raise.

    Raises:
        NotIrreducible: the polynomial factors over GF(p) (x | P included).
        NotPrimitive: irreducible, but x has multiplicative order < p^m - 1.
    """

    def __init__(self, p: int, poly) -> None:
        p = as_int(p, "p")
        if p > MAX_FIELD_SIZE:  # q = p^m >= p; refused before trial division
            raise ValueError(f"field size {p}^m exceeds {MAX_FIELD_SIZE}")
        if not _is_prime(p):
            raise ValueError(f"p={p} is not prime")
        poly = [as_int(c, "poly coefficient") % p for c in poly]
        if len(poly) < 2:
            raise ValueError("polynomial must have degree >= 1")
        if poly[-1] != 1:
            raise ValueError("polynomial must be monic")
        self.p = p
        self.poly = tuple(poly)
        self.m = len(poly) - 1
        self.q = p ** self.m
        if self.q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {self.q} exceeds {MAX_FIELD_SIZE}")
        if poly[0] == 0:
            raise NotIrreducible(f"x divides {self._poly_str()}")
        self._build_tables()

    def _poly_str(self) -> str:
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.poly) if c]
        return " + ".join(terms)

    def _build_tables(self) -> None:
        p, m = self.p, self.m
        exp_table = []
        cur = [0] * m
        cur[0] = 1
        for _ in range(self.q - 1):
            idx = 0
            for c in reversed(cur):
                idx = idx * p + c
            exp_table.append(idx)
            carry = cur[m - 1]
            cur = [((cur[i - 1] if i else 0) - carry * self.poly[i]) % p
                   for i in range(m)]
        # x is primitive iff its q-1 powers are distinct, and this alone
        # proves P irreducible: a reducible P with P(0) != 0 leaves fewer
        # than q-1 units.  Trial division only names the failure.
        if len(set(exp_table)) != self.q - 1:
            if _has_factor(self.poly, p):
                raise NotIrreducible(f"{self._poly_str()} is reducible over GF({p})")
            raise NotPrimitive(
                f"{self._poly_str()} is irreducible but not primitive over GF({p})")
        log_table: list = [None] * self.q
        for e, idx in enumerate(exp_table):
            log_table[idx] = e
        self.exp_table = exp_table
        self.log_table = log_table
        self._tables = {}  # the array tables, filled by ``table`` on first read

    # -- array tables, built on first use ------------------------------

    @table
    def coords_table(self) -> np.ndarray:
        """Read-only (q, m) table: row idx holds the GF(p) coordinates of
        the element packed as idx."""
        return (np.arange(self.q, dtype=np.int64)[:, None]
                // self.p ** np.arange(self.m)) % self.p

    @table
    def exp_array(self) -> np.ndarray:
        """``exp_table`` as a read-only int64 array: entry e is the packed
        index of z^e, 0 <= e < q-1."""
        return np.array(self.exp_table, dtype=np.int64)

    def operators(self, exps) -> np.ndarray:
        """The (..., m, m) multiplication matrices over GF(p) of z^e for the
        int array of discrete logs ``exps``, reduced mod q-1 or not: column j
        of the matrix of z^e is the coordinate vector of z^(e+j).  One gather
        through ``coords_table`` builds them all."""
        logs = (np.asarray(exps, dtype=np.int64)[..., None]
                + np.arange(self.m)) % (self.q - 1)
        return np.swapaxes(self.coords_table[self.exp_array[logs]], -1, -2)

    @table
    def unit_functional(self) -> tuple:
        """(values, rows), the one repair-equation table: ``values`` the
        int64 array of e_0 . coords(z^(x mod q-1)), digit 0 of its packed
        index, for x < q-1 + m-1, and the tuple ``rows``, rows[e] =
        values[e:e+m] = e_0 . operator(z^e) for e < q-1 on python: a bit-row
        int (bit c for column c) for p = 2, a tuple otherwise.  Row e + log nu
        is r . operator(z^e) for r = e_0 . operator(nu) (``unit_logs``)."""
        p, m, q1 = self.p, self.m, self.q - 1
        values = self.exp_array[np.arange(q1 + m - 1) % q1] % p
        columns = [values[c:c + q1] for c in range(m)]  # column c of every row
        if p == 2:
            return values, tuple(sum(col << c for c, col in enumerate(columns)).tolist())
        return values, tuple(zip(*(col.tolist() for col in columns)))

    @table
    def unit_logs(self) -> tuple:
        """The inverse of ``unit_functional``'s rows, a tuple indexed by
        packed index: unit_logs[x.index] is the e < q-1 with e_0 .
        operator(z^e) = x.coords(), None at x = 0.  The rows run over every
        nonzero vector once, so a nonzero reference r is e_0 . operator(nu)
        for the one nu = z^unit_logs[from_coords(r).index], a lookup in
        place of ``find_left_operator``'s linear solve."""
        q1 = self.q - 1
        values = self.unit_functional[0]
        packed = sum(values[c:c + q1] * self.p ** c for c in range(self.m))
        logs = [None] * self.q
        for e, index in enumerate(packed.tolist()):
            logs[index] = e
        return tuple(logs)

    @table
    def rank_keys(self) -> np.ndarray:
        """Read-only table of the batched kernels' key of z^e, 0 <= e <
        2(q-1), so a log plus a shift needs no reduction mod q-1: the packed
        coordinates for p = 2, in the smallest unsigned dtype that holds
        q-1 (``uint8`` up to GF(2^8), ``uint16`` above), the reduced log (the
        ``product`` table of ``zech_arrays``) otherwise."""
        if self.p == 2:
            return np.tile(np.array(self.exp_table,
                                    dtype=np.min_scalar_type(self.q - 1)), 2)
        return self.zech_arrays[-1]

    @table
    def zech_arrays(self) -> tuple:
        """Log-domain tables (lead, zech, product) of
        ``linalg.zech_rank_batch``, read-only arrays, odd p only, in which
        the log 2(q-1) stands for zero:

        * ``lead[x]`` = h * 2q + monic[x] for x < 2(q-1), where h is the
          position of the highest nonzero coordinate of z^x and monic[x] is
          the log of z^x scaled to a unit leading digit; -2q at zero;
        * ``zech``: log(1 + z^x) (2(q-1) where 1 + z^x = 0) repeated to
          length 5(q-1)/2, so that index 3(q-1)/2 + d holds the entry of
          (q-1)/2 + d mod q-1 for |d| < q-1, then one 0 (log 1);
        * ``product[x + y]``: the log of z^x * z^y, zero from 2(q-1) on.
        """
        p, q1 = self.p, self.q - 1
        if p == 2:
            raise AttributeError("the Zech-logarithm tables serve odd p only")
        exps = self.exp_array
        logs = np.zeros(self.q, dtype=np.int64)
        logs[exps] = np.arange(q1)
        coords = self.coords_table[exps]
        lead_pos = self.m - 1 - np.argmax(coords[:, ::-1] != 0, axis=1)
        lead_log = logs[coords[np.arange(q1), lead_pos]]
        # adding 1 bumps the constant coordinate (digit 0 of the packed index)
        zech = logs[exps - coords[:, 0] + (coords[:, 0] + 1) % p]
        zech[q1 // 2] = 2 * q1  # z^((q-1)/2) = -1, so 1 + z^x = 0
        lead = lead_pos * 2 * self.q + (np.arange(q1) - lead_log) % q1
        return (
            np.append(np.tile(lead, 2), -2 * self.q),
            np.append(np.tile(zech, 3)[:2 * q1 + q1 // 2], 0),
            np.append(np.arange(2 * q1) % q1, np.full(2 * q1 + 1, 2 * q1)),
        )

    # -- element constructors ------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, None)

    def one(self) -> "FieldElement":
        return FieldElement(self, 0)

    def element(self, exp) -> "FieldElement":
        """Element from its integer discrete log; None (or the string "0")
        is zero.  Anything else that is not an integer raises ParseError."""
        if exp is None or exp == "0":
            return self.zero()
        return FieldElement(self, as_int(exp, "element exponent") % (self.q - 1))

    def from_index(self, idx: int) -> "FieldElement":
        """Element from its packed coordinate index (base-p digits)."""
        if idx == 0:
            return self.zero()
        return FieldElement(self, self.log_table[idx])

    def from_coords(self, coords) -> "FieldElement":
        """Element with the given GF(p) coordinates b_0..b_{m-1}."""
        idx = 0
        for c in reversed(list(coords)):
            idx = idx * self.p + int(c) % self.p
        return self.from_index(idx)

    def nonzero_elements(self):
        for e in range(self.q - 1):
            yield FieldElement(self, e)

    def subfield(self, s: int) -> "SubfieldSpec":
        return SubfieldSpec(self, s)

    # -- membership and structural equality ----------------------------

    def __contains__(self, x) -> bool:
        """True iff x is a ``FieldElement`` of this field or of an equal one
        (``__eq__`` runs only when the two objects differ)."""
        return isinstance(x, FieldElement) and (x.field is self or x.field == self)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldSpec)
                and self.p == other.p and self.poly == other.poly)

    def __hash__(self) -> int:
        return hash((self.p, self.poly))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.m})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "poly": list(self.poly)}

    @classmethod
    def from_json(cls, obj: dict) -> "FieldSpec":
        return cls(obj["p"], obj["poly"])


class FieldElement:
    """One element of a FieldSpec, stored as a discrete log (None = zero)."""

    __slots__ = ("field", "exp")

    def __init__(self, field: FieldSpec, exp) -> None:
        self.field = field
        self.exp = exp if exp is None else exp % (field.q - 1)

    @property
    def is_zero(self) -> bool:
        return self.exp is None

    @property
    def index(self) -> int:
        """Packed base-p coordinate index."""
        return 0 if self.exp is None else self.field.exp_table[self.exp]

    def coords(self) -> list:
        """The GF(p) coordinates b_0..b_{m-1}: the base-p digits of the
        packed index, least significant first (``from_coords`` inverts)."""
        f = self.field
        idx = self.index
        digits = []
        for _ in range(f.m):
            idx, digit = divmod(idx, f.p)
            digits.append(digit)
        return digits

    def operator(self) -> np.ndarray:
        """The m x m multiplication matrix over GF(p): column j is the
        coordinate vector of self * z^j.  These are exactly the powers of
        the companion matrix of the defining polynomial (zero maps to the
        zero matrix)."""
        f = self.field
        if self.exp is None:
            return np.zeros((f.m, f.m), dtype=np.int64)
        return f.operators(self.exp)

    def _check(self, other) -> "FieldElement":
        if other not in self.field:
            raise ValueError(f"elements of different fields: {self!r}, {other!r}")
        return other

    def _add(self, other, sign: int) -> "FieldElement":
        other = self._check(other)
        f = self.field
        if f.p == 2:
            return f.from_index(self.index ^ other.index)
        return f.from_coords(
            [(a + sign * b) % f.p for a, b in zip(self.coords(), other.coords())])

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __neg__(self):
        return self.field.zero() - self

    def __mul__(self, other):
        other = self._check(other)
        if self.exp is None or other.exp is None:
            return self.field.zero()
        return FieldElement(self.field, self.exp + other.exp)

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def inverse(self) -> "FieldElement":
        if self.exp is None:
            raise DivisionByZero("inverse of zero")
        return FieldElement(self.field, -self.exp)

    def __pow__(self, e: int) -> "FieldElement":
        e = as_int(e, "exponent")
        if self.exp is None:
            if e > 0:
                return self.field.zero()
            if e == 0:
                return self.field.one()
            raise DivisionByZero("negative power of zero")
        return FieldElement(self.field, self.exp * e)

    def __eq__(self, other) -> bool:
        return other in self.field and self.exp == other.exp

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.poly, self.exp))

    def __str__(self) -> str:
        if self.exp is None:
            return "0"
        if self.exp == 0:
            return "1"
        return f"z^{self.exp}"

    def __repr__(self) -> str:
        return f"{self.field!r}:{self}"

    def to_json(self):
        return "0" if self.exp is None else self.exp


class SubfieldSpec:
    """The subfield GF(p^s) inside GF(p^m), s | m.

    Its multiplicative group is generated by ``generator = z^((p^m-1)/(p^s-1))``
    and ``generator^0 .. generator^(s-1)`` is a GF(p)-basis of the subfield.
    """

    def __init__(self, field: FieldSpec, s: int) -> None:
        s = as_int(s, "s")
        if s < 1 or field.m % s != 0:
            raise IncompatibleSubfield(
                f"subfield degree {s} does not divide m={field.m}")
        self.field = field
        self.s = s
        self.order = field.p ** s
        self.exp_step = (field.q - 1) // (self.order - 1)
        self.generator = FieldElement(field, self.exp_step)
        # discrete logs of the basis generator^0 .. generator^(s-1)
        self.offsets = [t * self.exp_step for t in range(s)]
        self._tables = {}  # ``tower_inverse``, filled by ``table`` on first read

    def contains(self, x: FieldElement) -> bool:
        """True iff x = 0 or x^(p^s) = x."""
        if x not in self.field:
            raise ValueError("element from a different field")
        return x.exp is None or x.exp % self.exp_step == 0

    @table
    def tower_inverse(self) -> tuple:
        """The inverse over GF(p) of the tower basis z^j * w^t (j < m/s, t <
        s), composed with the GF(p) coordinates of the basis w^t: entry j is
        a tuple of m row tuples, row d mapping the coordinates of x to digit
        d of its coefficient c_j = sum_t a_jt w^t of z^j, a subfield
        element.  One ``linalg.rref_rows`` of [tower | I] on lists gives the
        rows of the a_jt, and each row d is sum_t coords(w^t)[d] * (row of
        a_jt) mod p."""
        field, m, s, p = self.field, self.field.m, self.s, self.field.p
        tower = zip(*(FieldElement(field, j + off).coords()
                      for j in range(m // s) for off in self.offsets))
        rows = [[*col, *(int(i == c) for i in range(m))] for c, col in enumerate(tower)]
        linalg.rref_rows(rows, p)
        inverse = [row[m:] for row in rows]  # row j * s + t: x -> a_jt
        basis = [FieldElement(field, off).coords() for off in self.offsets]
        return tuple(
            tuple(tuple(sum(map(mul, w_d, a_i)) % p for a_i in zip(*inverse[j:j + s]))
                  for w_d in zip(*basis))
            for j in range(0, m, s))

    def rank_exps(self, sets) -> tuple:
        """The dimensions over GF(p^s) of the spans of K sets of nonzero
        elements z^e, each set an iterable of the discrete logs e, all of
        one length r: each the GF(p)-rank of the expanded set {z^e * w^t}
        for the basis w^0..w^(s-1), divided by s.  This is the element rank
        of the scalar routes: ``linalg.bit_rank`` on packed coordinates, set
        by set, for p = 2, so NumPy stays unloaded; otherwise one
        ``rank_batch`` call on the (r * s, K) column array of the expanded
        logs reduced mod q-1, their ``FieldSpec.rank_keys``."""
        field, offsets = self.field, self.offsets
        q1 = field.q - 1
        if field.p != 2:
            logs = [[(e + off) % q1 for e in exps for off in offsets] for exps in sets]
            return tuple(self.rank_batch(np.array(logs, dtype=np.int64).T.copy()).tolist())
        exp_table = field.exp_table
        ranks = []
        for exps in sets:
            r = linalg.bit_rank([exp_table[(e + off) % q1] for e in exps for off in offsets])
            if r % self.s:
                raise InvalidMatrix(
                    f"GF({field.p})-rank {r} is not a multiple of s={self.s}")
            ranks.append(r // self.s)
        return tuple(ranks)

    def rank_batch(self, cols: np.ndarray) -> np.ndarray:
        """The GF(p^s)-ranks of N sets at once, from the (r, N) C-ordered
        column array of their ``FieldSpec.rank_keys`` entries, expanded as
        in ``rank_exps`` and set c in column c, which the kernel
        (``linalg.bit_rank_batch`` for p = 2, ``zech_rank_batch``
        otherwise) overwrites."""
        field = self.field
        if field.p == 2:
            return self._symbols(linalg.bit_rank_batch(cols, field.m))
        return self._symbols(linalg.zech_rank_batch(cols, field.m, *field.zech_arrays))

    def rank_extend_batch(self, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(N, V) GF(p^s)-ranks of set n of ``cols``, laid out as for
        ``rank_batch``, with the element whose key is rows[n, v], of the (N,
        V) array ``rows``: each set is eliminated once, and each key reduced
        against its pivots.  A set's expanded span is a GF(p^s)-subspace,
        and the element adds its GF(p^s)-line, so the rank grows by one
        exactly when the key itself, its t = 0 row, leaves that span; the
        other s-1 rows of its expansion need no reduction.  Both arrays are
        overwritten."""
        field, m = self.field, self.field.m
        if field.p == 2:
            ranks, grows = linalg.bit_extend_batch(rows, linalg.bit_echelon_batch(cols, m))
        else:
            tables = field.zech_arrays
            ranks, grows = linalg.zech_extend_batch(
                rows, linalg.zech_echelon_batch(cols, m, *tables), *tables)
        return self._symbols(ranks)[:, None] + grows

    def _symbols(self, r: np.ndarray) -> np.ndarray:
        """GF(p)-ranks as GF(p^s)-ranks; InvalidMatrix unless multiples of s."""
        if self.s == 1:
            return r
        symbols = r // self.s  # faster than r % s
        bad = symbols * self.s != r
        if bad.any():
            raise InvalidMatrix(
                f"GF({self.field.p})-rank {r[bad][0]} is not a multiple of s={self.s}")
        return symbols

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubfieldSpec)
                and self.field == other.field and self.s == other.s)

    def __hash__(self) -> int:
        return hash((self.field, self.s))

    def __repr__(self) -> str:
        return f"GF({self.field.p}^{self.s}) in {self.field!r}"


# ---------------------------------------------------------------------------
# ranks, left operators, subfield coordinates
# ---------------------------------------------------------------------------

def rank_over_subfield(elems, sub: SubfieldSpec) -> int:
    """Dimension over GF(p^s) of the span of the given field elements.

    Computed as the GF(p)-rank of the expanded set {w^t * a_i} for the
    subfield basis w^0..w^(s-1), divided by s.  Zero elements contribute
    nothing; an empty list has rank 0.
    """
    exps = []
    for a in elems:
        if a not in sub.field:
            raise ValueError("elements from different fields")
        if a.exp is not None:
            exps.append(a.exp)
    return sub.rank_exps([exps])[0]


def coordinate_vector(field: FieldSpec, vector, name: str) -> np.ndarray:
    """``vector`` as m GF(p) coordinates, an int64 array reduced mod p, with
    nothing coerced: DimensionMismatch unless its shape is (m,), ParseError
    unless its entries are integers; each message starts with ``name``."""
    vector = np.asarray(vector)
    if vector.shape != (field.m,):
        raise DimensionMismatch(
            f"{name} vector has shape {vector.shape}, need ({field.m},)")
    if vector.dtype.kind not in "iu":
        raise ParseError(f"{name} vector entries must be integers, got {vector.dtype}")
    return (vector % field.p).astype(np.int64)


def find_left_operator(field: FieldSpec, source, target) -> FieldElement:
    """The unique nonzero element b with source^T . operator(b) = target^T.

    source and target are nonzero ``coordinate_vector`` inputs.  Existence and
    uniqueness hold because the p^m - 1 products source^T . operator(.)
    are pairwise distinct, hence exhaust the nonzero row vectors.

    Returns the element b; its matrix is ``b.operator()``.
    """
    source = coordinate_vector(field, source, "source")
    target = coordinate_vector(field, target, "target")
    if not source.any() or not target.any():
        raise ZeroVector("source and target must be nonzero")
    # row i of L is source^T . operator(z^i); solving x^T L = target^T gives
    # the coordinates of b = sum x_i z^i, nonzero because target is
    L = source @ field.operators(np.arange(field.m)) % field.p
    return field.from_coords(linalg.solve_mod_p(L.T, target, field.p))


def subfield_coords(x: FieldElement, sub: SubfieldSpec) -> list:
    """Coordinates of x over GF(p^s) in the basis 1, z, ..., z^(m/s - 1).

    Returns m/s subfield elements c_j with x = sum c_j z^j (at s = 1 the
    GF(p) digits of x), on python ints with no element arithmetic: digit d
    of c_j is the dot product of row d of ``tower_inverse``[j] with the
    digits of x, mod p.  ValueError unless x is an element of ``sub``'s
    field.
    """
    field = sub.field
    if x not in field:
        raise ValueError(f"subfield_coords needs an element of {field!r}")
    digits = x.coords()
    if sub.s == 1:
        return list(map(field.from_index, digits))
    return [field.from_coords(sum(map(mul, row, digits)) for row in rows)
            for rows in sub.tower_inverse]
