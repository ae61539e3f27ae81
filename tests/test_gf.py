import itertools
import time

import numpy as np
import pytest

from mdsrepair.codes import CodeSpec, Codeword, encode, rs_systematic, verify_mds
from mdsrepair.errors import (
    DimensionMismatch,
    DivisionByZero,
    IncompatibleSubfield,
    InvalidMatrix,
    NotIrreducible,
    NotPrimitive,
    ParseError,
    ZeroVector,
)
from mdsrepair.gf import (
    FieldElement,
    FieldSpec,
    find_left_operator,
    rank_over_subfield,
    subfield_coords,
)
from mdsrepair.repair import RepairScheme, SubpacketizationSpec
from mdsrepair import gf, linalg

# odd-characteristic fields for the log-domain rank kernel
ODD_FIELDS = [(3, [2, 1, 1]), (3, [2, 0, 0, 1, 1]), (5, [2, 1, 1]), (7, [3, 1, 1]),
              (5, [2, 0, 0, 0, 0, 1, 1])]


class TestConstruction:
    def test_gf16(self, f16):
        assert f16.q == 16 and f16.m == 4
        assert len(set(f16.exp_table)) == 15
        assert f16.exp_table[0] == 1  # z^0 = 1

    def test_gf256(self, f256):
        assert f256.q == 256
        assert len(set(f256.exp_table)) == 255

    def test_reducible_rejected(self):
        # (x+1)(x^2+x+1) = x^3 + 1
        with pytest.raises(NotIrreducible):
            FieldSpec(2, [1, 0, 0, 1])

    def test_x_divides_rejected(self):
        with pytest.raises(NotIrreducible):
            FieldSpec(2, [0, 1, 0, 1])

    def test_irreducible_but_not_primitive_rejected(self):
        # x^4+x^3+x^2+x+1 divides x^5 - 1, so its root has order 5 != 15
        with pytest.raises(NotPrimitive):
            FieldSpec(2, [1, 1, 1, 1, 1])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            FieldSpec(4, [1, 1, 1])  # p not prime
        with pytest.raises(ValueError):
            FieldSpec(2, [1])  # degree 0
        with pytest.raises(ValueError):
            FieldSpec(2, [1, 1, 0, 1, 0])  # not monic
        with pytest.raises(ValueError):
            FieldSpec(2, [1, 1] + [0] * 15 + [1])  # 2^17 too large

    def test_large_prime_refused_before_primality_test(self):
        # q = p^m >= p, so p = 2^61 - 1 is too large before any trial division
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds"):
            FieldSpec(2 ** 61 - 1, [1, 1])
        assert time.perf_counter() - start < 1.0

    def test_degree_one_gives_prime_field(self):
        f3 = FieldSpec(3, [1, 1])  # x + 1: root 2, order 2 = q - 1
        assert f3.q == 3
        assert f3.element(1) * f3.element(1) == f3.one()
        with pytest.raises(NotPrimitive):
            FieldSpec(5, [1, 1])  # root -1 has order 2, not 4

    def test_json_roundtrip(self, f16):
        assert FieldSpec.from_json(f16.to_json()) == f16

    @pytest.mark.parametrize("p, poly", [(2, [1.7, 1, 1]), (2, [1, True, 1]),
                                         (3.0, [2, 1, 1]), (True, [1, 1])])
    def test_non_integers_rejected(self, p, poly):
        with pytest.raises(ParseError):
            FieldSpec(p, poly)

    def test_numpy_integers_accepted(self):
        f9 = FieldSpec(np.int64(3), np.array([2, 1, 1]))
        assert f9 == FieldSpec(3, [2, 1, 1])
        assert type(f9.p) is int and all(type(c) is int for c in f9.poly)

    @pytest.mark.parametrize("p, poly", [(2, [1, 1, 0, 0, 1]), (3, [2, 0, 0, 1, 1])])
    def test_array_tables_built_on_first_use(self, p, poly, monkeypatch):
        # construction of a field and a subfield walks the exp/log tables
        # only and reads nothing of NumPy; each array table is built once,
        # then the same read-only object on every access, and no read adds
        # an attribute to the instance
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} read while building the field")

        monkeypatch.setattr(gf, "np", NoNumpy())
        field = FieldSpec(p, poly)
        sub = field.subfield(2)
        monkeypatch.undo()
        layouts = [(obj, set(vars(obj))) for obj in (field, sub)]
        names = ["coords_table", "exp_array", "rank_keys", "unit_functional", "unit_logs"]
        if p == 2:
            assert not hasattr(field, "zech_arrays")
        else:
            names += ["zech_arrays"]
            assert field.rank_keys is field.zech_arrays[-1]
        for obj, name in [(field, name) for name in names] + [(sub, "tower_inverse")]:
            assert getattr(obj, name) is getattr(obj, name)
        arrays = [field.coords_table, field.exp_array, field.rank_keys,
                  field.unit_functional[0], *getattr(field, "zech_arrays", ())]
        assert not any(table.flags.writeable for table in arrays)
        # the list tables are immutable by construction
        assert all(type(rows) is tuple and all(type(row) is tuple for row in rows)
                   for rows in sub.tower_inverse)
        assert all(set(vars(obj)) == keys for obj, keys in layouts)

    def test_odd_p_arithmetic_without_numpy(self, monkeypatch):
        # coords() reads the base-p digits of the packed index on ints, so
        # building RS(6,4) over GF(3^4), encoding and verify_mds read nothing
        # of NumPy; the results match coordinate arithmetic on coords_table
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} read by element arithmetic")

        monkeypatch.setattr(gf, "np", NoNumpy())
        f81 = FieldSpec(3, [2, 0, 0, 1, 1])
        code = rs_systematic(f81, [f81.element(i) for i in range(6)], 4)
        message = [f81.element(e) for e in (0, 17, None, 61)]
        word = encode(code, message)
        assert verify_mds(code)
        elements = [f81.zero(), *f81.nonzero_elements()]
        coords = [x.coords() for x in elements]
        monkeypatch.undo()
        table = f81.coords_table
        assert coords == table[[x.index for x in elements]].tolist()
        for j in range(code.r):
            vector = sum(code.parity[i][j].operator() @ table[x.index]
                         for i, x in enumerate(message)) % 3
            assert word[code.k + j] == f81.from_coords(vector)
        for a, b in itertools.product(elements[::7], repeat=2):
            difference = (table[a.index] - table[b.index]) % 3
            assert table[(a - b).index].tolist() == difference.tolist()


def _monic(p, m):
    """Every monic polynomial of degree m over GF(p), little-endian."""
    return [tuple(low) + (1,) for low in itertools.product(range(p), repeat=m)]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def _x_order(poly, p):
    """Multiplicative order of x mod the monic poly (P(0) != 0), found by
    multiplying by x until the constant 1 comes back."""
    m = len(poly) - 1
    one = (1,) + (0,) * (m - 1)
    cur, order = one, 0
    while True:
        top = cur[-1]
        cur = tuple(((cur[i - 1] if i else 0) - top * poly[i]) % p
                    for i in range(m))
        order += 1
        if cur == one:
            return order


class TestClassification:
    # every small monic polynomial against a brute-force oracle: reducible
    # iff some product of two monic polynomials of positive degree equals
    # it; primitive iff irreducible and x has order q-1.  FieldSpec refuses
    # every P with x | P as reducible, P = x included (there x is 0).
    @pytest.mark.parametrize("p, max_m", [(2, 6), (3, 4), (5, 2), (7, 2)])
    def test_every_small_polynomial(self, p, max_m):
        for m in range(1, max_m + 1):
            products = {_poly_mul(a, b, p)
                        for d in range(1, m)
                        for a in _monic(p, d) for b in _monic(p, m - d)}
            for poly in _monic(p, m):
                if poly in products or poly[0] == 0:
                    expected = NotIrreducible
                elif _x_order(poly, p) != p ** m - 1:
                    expected = NotPrimitive
                else:
                    expected = None
                try:
                    FieldSpec(p, list(poly))
                    got = None
                except (NotIrreducible, NotPrimitive) as exc:
                    got = type(exc)
                assert got is expected, (p, poly)


class TestArithmetic:
    def test_mul_is_exponent_addition(self, f16):
        z = f16.element(1)
        assert z ** 3 * z ** 13 == z ** 1

    def test_defining_relation(self, f16):
        z = f16.element(1)
        assert z ** 4 + z == f16.one()

    def test_inverse(self, f16):
        z = f16.element(1)
        assert (z ** 2).inverse() == z ** 13
        assert z ** 2 / z ** 2 == f16.one()
        with pytest.raises(DivisionByZero):
            f16.zero().inverse()

    def test_zero_behaviour(self, f16):
        z = f16.element(1)
        assert (f16.zero() * z).is_zero
        assert f16.zero() + z == z
        assert f16.zero() ** 0 == f16.one()
        with pytest.raises(DivisionByZero):
            f16.zero() ** -1

    def test_cross_field_rejected(self, f16, f4):
        with pytest.raises(ValueError):
            f16.one() + f4.one()

    @pytest.mark.parametrize("e", [1.5, True, "2", None], ids=repr)
    @pytest.mark.parametrize("base", [1, None], ids=["zeta", "zero"])
    def test_non_integer_exponent_rejected(self, f16, base, e):
        # z ** 1.5 was an element with a float log, and z ** True was z
        with pytest.raises(ParseError, match=r"^exponent must be an integer, got "):
            f16.element(base) ** e

    def test_numpy_integer_exponent_accepted(self, f16):
        assert f16.element(1) ** np.int64(3) == f16.element(3)
        assert f16.zero() ** np.uint8(0) == f16.one()

    def test_nonbinary_field(self):
        f9 = FieldSpec(3, [2, 1, 1])  # x^2 + x + 2, primitive over GF(3)
        z = f9.element(1)
        assert z ** 8 == f9.one()
        a, b = z ** 3, z ** 5
        assert (a + b) - b == a
        table = f9.coords_table
        assert table[(a * b).index].tolist() == ((a.operator() @ table[b.index]) % 3).tolist()
        assert (-a + a).is_zero


class TestVectorRep:
    def test_examples(self, f16):
        z = f16.element(1)
        table = f16.coords_table
        assert table[(z ** 2 + f16.one()).index].tolist() == [1, 0, 1, 0]
        assert table[f16.zero().index].tolist() == [0, 0, 0, 0]
        # repeated reduction by z^4 = z + 1
        assert table[(z ** 12).index].tolist() == [1, 1, 1, 1]

    def test_roundtrip(self, f16):
        for e in [f16.zero(), *f16.nonzero_elements()]:
            assert f16.from_coords(e.coords()) == e


class TestMultOperator:
    def test_companion_matrix_gf4(self, f4):
        z = f4.element(1)
        assert z.operator().tolist() == [[0, 1], [1, 1]]
        assert (z ** 2).operator().tolist() == [[1, 1], [1, 0]]

    def test_identity(self, f16):
        assert f16.one().operator().tolist() == np.eye(4, dtype=int).tolist()
        assert not f16.zero().operator().any()

    def test_companion_structure(self, f16):
        # subdiagonal ones, last column -a_i
        C = f16.element(1).operator()
        for i in range(1, 4):
            assert C[i, i - 1] == 1
        assert C[:, 3].tolist() == [1, 1, 0, 0]

    @pytest.mark.parametrize("fieldname", ["f4", "f16"])
    def test_homomorphism_exhaustive(self, fieldname, request):
        field = request.getfixturevalue(fieldname)
        p, table = field.p, field.coords_table
        elements = [field.zero(), *field.nonzero_elements()]
        for a in elements:
            ga = a.operator()
            for b in elements:
                assert ((a * b).operator() == (ga @ b.operator()) % p).all()
                assert ((a + b).operator() == (ga + b.operator()) % p).all()
                assert (table[(a * b).index] == (ga @ table[b.index]) % p).all()

    def test_operator_set_closed_and_commutes(self, f16):
        ops = [e.operator() for e in [f16.zero(), *f16.nonzero_elements()]]
        op_set = {op.tobytes() for op in ops}
        assert len(op_set) == 16
        for A in ops:
            for B in ops:
                assert ((A + B) % 2).tobytes() in op_set  # additivity
                assert ((A @ B) % 2 == (B @ A) % 2).all()  # commutativity


@pytest.mark.parametrize("p,poly", [(2, [1, 1, 0, 0, 1]), (3, [2, 0, 0, 1, 1]),
                                    (5, [2, 1, 1])], ids=["gf16", "gf81", "gf25"])
class TestOperators:
    def test_columns_are_shifted_powers(self, p, poly):
        field = FieldSpec(p, poly)
        ops = field.operators(np.arange(field.q - 1))
        for e, op in enumerate(ops):
            for j in range(field.m):
                assert op[:, j].tolist() == field.coords_table[field.element(e + j).index].tolist()

    def test_powers_of_companion_matrix(self, p, poly):
        field = FieldSpec(p, poly)
        C = field.element(1).operator()
        power = np.eye(field.m, dtype=np.int64)
        for op in field.operators(np.arange(field.q - 1)):
            assert (op == power).all()
            power = C @ power % p
        assert (power == np.eye(field.m, dtype=np.int64)).all()

    def test_logs_reduce(self, p, poly):
        field = FieldSpec(p, poly)
        q1 = field.q - 1
        logs = np.array([-1, -q1, q1, q1 + 3, 2 * q1 + 5, -5 * q1 - 2])
        assert (field.operators(logs) == field.operators(logs % q1)).all()

    def test_shapes_broadcast(self, p, poly):
        field = FieldSpec(p, poly)
        m = field.m
        assert field.operators(3).shape == (m, m)
        assert (field.operators(3) == field.element(3).operator()).all()
        assert field.operators([1, 2, 3]).shape == (3, m, m)
        grid = field.operators([[0, 1, 2], [3, 4, 5]])
        assert grid.shape == (2, 3, m, m)
        for i in range(2):
            for j in range(3):
                assert (grid[i, j] == field.element(3 * i + j).operator()).all()

    def test_functional_rows_are_operator_rows(self, p, poly):
        # the one repair-equation table: rows[e] and values[e:e+m] are
        # e_0 . operator(z^e), the row a bit-row int for p = 2 and a tuple
        # otherwise (any other reference is a shift of it, pinned in
        # test_repair against the operator product)
        field = FieldSpec(p, poly)
        m, q1 = field.m, field.q - 1
        expect = (field.coords_table[1] @ field.operators(np.arange(q1)) % p).tolist()
        values, rows = field.unit_functional
        assert values.dtype == np.int64
        assert len(rows) == q1 and len(values) == q1 + m - 1
        assert [values[e:e + m].tolist() for e in range(q1)] == expect
        if p == 2:
            assert [[r >> c & 1 for c in range(m)] for r in rows] == expect
        else:
            assert list(map(list, rows)) == expect
        # unit_logs inverts the rows, by packed index
        logs = field.unit_logs
        assert len(logs) == field.q and logs[0] is None
        assert [logs[field.from_coords(row).index] for row in expect] == list(range(q1))


class TestFindLeftOperator:
    def test_identity_case(self, f16):
        v = np.array([1, 0, 1, 1])
        assert find_left_operator(f16, v, v) == f16.one()

    def test_gf4_example(self, f4):
        b = find_left_operator(f4, np.array([0, 1]), np.array([1, 0]))
        assert b == f4.element(1) ** 2

    def test_contract(self, f16, rng):
        for _ in range(50):
            src = f16.coords_table[f16.element(rng.randrange(15)).index]
            tgt = f16.coords_table[f16.element(rng.randrange(15)).index]
            b = find_left_operator(f16, src, tgt)
            assert ((src @ b.operator()) % 2 == tgt).all()

    @pytest.mark.parametrize("fieldname", ["f4", "f16"])
    def test_bijection_exhaustive(self, fieldname, request):
        # for fixed nonzero source, products with all nonzero operators are
        # pairwise distinct, hence cover every nonzero row vector
        field = request.getfixturevalue(fieldname)
        for src_el in field.nonzero_elements():
            src = field.coords_table[src_el.index]
            rows = {tuple((src @ b.operator()) % field.p)
                    for b in field.nonzero_elements()}
            assert len(rows) == field.q - 1
            assert tuple([0] * field.m) not in rows

    def test_zero_vector_rejected(self, f16):
        with pytest.raises(ZeroVector):
            find_left_operator(f16, np.zeros(4, dtype=int), np.array([1, 0, 0, 0]))
        with pytest.raises(ZeroVector):
            find_left_operator(f16, np.array([1, 0, 0, 0]), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("vector, error, message", [
        ([1.5, 0, 0, 0], ParseError, "entries must be integers, got float64"),
        ([1.0, 0, 0, 0], ParseError, "entries must be integers, got float64"),
        ([True, False, False, False], ParseError, "entries must be integers, got bool"),
        (["1", "0", "0", "0"], ParseError, "entries must be integers, got <U1"),
        ([1, 0, 0], DimensionMismatch, r"has shape \(3,\), need \(4,\)"),
        ([[1, 0, 0, 0]], DimensionMismatch, r"has shape \(1, 4\), need \(4,\)"),
    ], ids=["fraction", "float", "bool", "string", "short", "matrix"])
    def test_hostile_vectors_rejected(self, f16, vector, error, message):
        # neither vector is coerced: each gets the error the reference row
        # of the repair route gets, named after it
        e0 = f16.coords_table[1]
        with pytest.raises(error, match=f"^source vector {message}"):
            find_left_operator(f16, vector, e0)
        with pytest.raises(error, match=f"^target vector {message}"):
            find_left_operator(f16, e0, vector)


class TestSubfield:
    def test_membership(self, f16):
        z = f16.element(1)
        sub = f16.subfield(2)
        assert sub.contains(z ** 5)
        assert not sub.contains(z ** 3)
        assert sub.contains(f16.zero())
        # x^(p^s) == x characterization
        for e in [f16.zero(), *f16.nonzero_elements()]:
            assert sub.contains(e) == (e ** 4 == e)

    def test_generator(self, f16):
        sub = f16.subfield(2)
        assert sub.generator == f16.element(5)
        assert sub.generator ** 3 == f16.one()

    def test_degree_must_divide(self, f16):
        with pytest.raises(IncompatibleSubfield):
            f16.subfield(3)

    def test_full_and_prime_degrees(self, f16):
        assert f16.subfield(4).exp_step == 1      # whole field
        assert f16.subfield(1).generator == f16.one()  # GF(2) = {0,1}

    @pytest.mark.parametrize("s", [2.0, True])
    def test_non_integer_degree_rejected(self, rs64, s):
        with pytest.raises(ParseError, match="^s must be an integer"):
            rs64.field.subfield(s)

    def test_numpy_integer_degree_accepted(self, f16):
        sub = f16.subfield(np.int64(2))
        assert sub == f16.subfield(2) and type(sub.s) is int


class TestRankOverSubfield:
    def test_published_full_rank_set(self, f16):
        # node-1 rank pattern of the (5,3) example: four elements that are
        # independent over GF(2)
        z = f16.element(1)
        els = [z ** 10, z ** 11, z ** 7 * z ** 8, z ** 13 * z ** 8]
        assert rank_over_subfield(els, f16.subfield(1)) == 4

    def test_trivial_cases(self, f16):
        sub = f16.subfield(2)
        assert rank_over_subfield([f16.one()], sub) == 1
        assert rank_over_subfield([f16.one(), f16.element(5)], sub) == 1
        assert rank_over_subfield([], sub) == 0
        assert rank_over_subfield([f16.zero()], sub) == 0

    def test_s1_equals_matrix_rank(self, f16, rng):
        sub = f16.subfield(1)
        for _ in range(100):
            els = [f16.element(rng.randrange(15)) for _ in range(rng.randrange(1, 7))]
            stacked = f16.coords_table[[e.index for e in els]]
            assert rank_over_subfield(els, sub) == linalg.rank_mod_p(stacked, 2)

    def test_s_equals_m_rank_one(self, f16, rng):
        sub = f16.subfield(4)
        for _ in range(20):
            els = [f16.element(rng.randrange(15)) for _ in range(rng.randrange(1, 5))]
            assert rank_over_subfield(els, sub) == 1

    def test_scaling_invariance(self, f16, rng):
        for s in (1, 2, 4):
            sub = f16.subfield(s)
            for _ in range(100):
                els = [f16.element(rng.randrange(15)) for _ in range(4)]
                c = f16.element(rng.randrange(15))
                scaled = [c * e for e in els]
                assert rank_over_subfield(els, sub) == rank_over_subfield(scaled, sub)

    def test_nonbinary_rank(self):
        f9 = FieldSpec(3, [2, 1, 1])
        sub = f9.subfield(1)
        z = f9.element(1)
        assert rank_over_subfield([f9.one(), z], sub) == 2
        assert rank_over_subfield([z, z * f9.from_coords([2, 0])], sub) == 1

    def test_rank_not_multiple_of_s_rejected(self, f16, monkeypatch):
        monkeypatch.setattr(linalg, "bit_rank", lambda rows: 3)
        with pytest.raises(InvalidMatrix):
            rank_over_subfield([f16.one(), f16.element(1)], f16.subfield(2))

    def test_rank_not_multiple_of_s_rejected_odd_p(self, monkeypatch):
        f81 = FieldSpec(3, [2, 0, 0, 1, 1])
        monkeypatch.setattr(linalg, "zech_rank_batch",
                            lambda cols, *tables: np.full(cols.shape[1], 3))
        with pytest.raises(InvalidMatrix):
            rank_over_subfield([f81.one(), f81.element(1)], f81.subfield(2))

    @pytest.mark.parametrize("p, poly", ODD_FIELDS)
    def test_zech_tables(self, p, poly):
        # every entry the kernels can read, against field arithmetic; the
        # log 2(q-1) stands for zero
        field = FieldSpec(p, poly)
        q1 = field.q - 1
        zero = 2 * q1
        lead, zech, product = (table.tolist() for table in field.zech_arrays)
        assert not any(table.flags.writeable for table in field.zech_arrays)
        assert field.rank_keys is field.zech_arrays[-1]
        assert (len(lead), len(zech), len(product)) == (zero + 1, 5 * q1 // 2 + 1, 4 * q1 + 1)
        for x in range(q1):
            z_x = field.element(x)
            coords = z_x.coords()
            h, monic = divmod(lead[x], 2 * field.q)
            assert lead[x + q1] == lead[x]
            assert coords[h] and not any(coords[h + 1:])
            scalar = field.from_coords([coords[h]] + [0] * (field.m - 1))
            assert monic < q1 and field.element(monic) * scalar == z_x
            one_plus = field.one() + z_x
            assert zech[q1 + x] == (zero if one_plus.is_zero else one_plus.exp)
            for y in (x, q1 - 1):
                assert product[x + y] == (z_x * field.element(y)).exp
        assert lead[zero] == -2 * field.q
        assert all(zech[i] == zech[q1 + i % q1] for i in range(len(zech) - 1))
        assert zech[-1] == 0
        assert product[zero:] == [zero] * (zero + 1)

    @pytest.mark.parametrize("p, poly", ODD_FIELDS)
    def test_zech_kernel_matches_coordinate_rank(self, p, poly, rng):
        # the log-domain kernel against elimination of coords_table rows,
        # on all sets of a size at once, directly and through rank_exps
        field = FieldSpec(p, poly)
        m, q1 = field.m, field.q - 1
        for s in (d for d in range(1, m + 1) if m % d == 0):
            sub = field.subfield(s)
            drawn = [[rng.randrange(q1) for _ in range(rng.randrange(1, m + 3))]
                     for _ in range(200)]
            # empty, repeated exponents, the tower basis z^j w^t (full rank),
            # and sets with a multiple of their first element by a GF(p)
            # scalar or a subfield element
            cases = [[], [7, 7], *(e + e for e in drawn[:20]), list(range(m // s)),
                     *([e[0], (e[0] + q1 // (p - 1)) % q1] for e in drawn[:20]),
                     *(e + [(e[0] + sub.exp_step * len(e)) % q1] for e in drawn[:20]),
                     *drawn]
            by_size = {}
            for exps in cases:
                xs = [(e + off) % q1 for e in exps for off in sub.offsets]
                rows = field.coords_table[[field.exp_table[x] for x in xs]]
                rank = linalg.rank_mod_p(rows.reshape(-1, m), p)
                by_size.setdefault(len(xs), []).append((exps, xs, rank))
            for r, sets in by_size.items():
                # the kernels' column layout: (r, N), set c in column c
                cols = np.array([xs for _, xs, _ in sets], dtype=np.int64).reshape(
                    len(sets), r).T.copy()
                ranks = linalg.zech_rank_batch(cols, m, *field.zech_arrays)
                assert ranks.tolist() == [rank for _, _, rank in sets]
                symbols = sub.rank_exps([exps for exps, _, _ in sets])
                assert [rank * s for rank in symbols] == ranks.tolist()
                exps, _, rank = sets[0]
                assert sub.rank_exps([exps]) == (rank // s,) and rank % s == 0
            assert sub.rank_exps([list(range(m // s))]) == (m // s,)
        for r, n in ((3, 0), (0, 4), (0, 0)):
            cols = np.zeros((r, n), dtype=np.int64)
            ranks = linalg.zech_rank_batch(cols, m, *field.zech_arrays)
            assert ranks.tolist() == [0] * n and ranks.dtype == np.int64


class TestBatchKernels:
    @pytest.mark.parametrize("m", [2, 4, 8, 9, 16])
    def test_bit_rank_batch_matches_bit_rank(self, m, rng):
        # every row count from 0 to m+2, in each unsigned key dtype that
        # holds 2^m - 1, with zero rows and repeated rows mixed in
        dtypes = [d for d in (np.uint8, np.uint16) if np.iinfo(d).max >= (1 << m) - 1]
        for r in range(m + 3):
            sets = []
            for _ in range(60):
                rows = [rng.randrange(1 << m) for _ in range(r)]
                if r >= 2 and rng.random() < 0.5:
                    rows[rng.randrange(r)] = 0
                if r >= 2 and rng.random() < 0.5:
                    rows[rng.randrange(r)] = rows[rng.randrange(r)]
                sets.append(rows)
            want = [linalg.bit_rank(rows) for rows in sets]
            for dtype in dtypes:
                # the kernels' column layout: (r, N), set c in column c
                cols = np.array(sets, dtype=dtype).reshape(len(sets), r).T.copy()
                assert linalg.bit_rank_batch(cols, m).tolist() == want
        for r, n in ((3, 0), (0, 4), (0, 0)):
            ranks = linalg.bit_rank_batch(np.zeros((r, n), dtype=np.uint8), m)
            assert ranks.tolist() == [0] * n and ranks.dtype == np.int64

    @pytest.mark.parametrize("p, poly", [(2, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
                                         (3, [2, 0, 0, 1, 1])])
    def test_batch_kernels_rank_in_place(self, p, poly, rng):
        # the (r, N) column array is the working array: with r > 1 the first
        # pivot of every set is eliminated to zero in the array itself, and a
        # read-only array is refused by NumPy's out= check
        field = FieldSpec(p, poly)
        zero = 0 if p == 2 else 2 * (field.q - 1)  # the key of the element 0
        keys = field.rank_keys[:2 * (field.q - 1)]  # the keys of z^0 .. z^(2q-3)
        sub = field.subfield(1)
        for r, n in ((field.m, 200), (1, 200), (field.m, 1), (1, 1)):
            cols = keys[[rng.randrange(len(keys)) for _ in range(r * n)]].reshape(r, n)
            # a key is the packed index for p = 2, the log itself otherwise
            logs = [[field.log_table[k] if p == 2 else k for k in col]
                    for col in cols.T.tolist()]
            if r > 1:
                frozen = cols.copy()
                frozen.setflags(write=False)
                with pytest.raises(ValueError):
                    sub.rank_batch(frozen)
            ranks = sub.rank_batch(cols)
            # against elimination mod p of the coordinate rows, which for odd
            # p shares no code with rank_exps, itself a rank_batch call
            assert ranks.tolist() == [
                linalg.rank_mod_p(field.coords_table[field.exp_array[xs]], p) for xs in logs]
            if r > 1:
                assert (cols == zero).any(axis=0).all()


    @pytest.mark.parametrize("p, poly", [(2, [1, 1, 0, 0, 1]),
                                         (2, [1, 0, 1, 1, 1, 0, 0, 0, 1]), *ODD_FIELDS])
    def test_extend_matches_coordinate_rank(self, p, poly, rng):
        # a set's echelon pivots, extended by the expansion of one more
        # element over a subfield, against rref_rows on coords_table rows of
        # the union: heads of every size with zero and repeated elements
        # (rank-deficient, so zero pivots), and last elements that lead
        # above some pivot
        field = FieldSpec(p, poly)
        m, q1 = field.m, field.q - 1
        if p == 2:
            echelon, extend, tables = linalg.bit_echelon_batch, linalg.bit_extend_batch, ()
        else:
            echelon, extend, tables = (linalg.zech_echelon_batch, linalg.zech_extend_batch,
                                       field.zech_arrays)
        zero = 0 if p == 2 else 2 * q1
        keys = field.rank_keys.tolist()

        def coords(x):
            return [0] * m if x is None else field.coords_table[field.exp_table[x]].tolist()

        for s in (d for d in range(1, m + 1) if m % d == 0):
            sub = field.subfield(s)

            def expand(exps):
                return [None if e is None else (e + off) % q1
                        for e in exps for off in sub.offsets]

            for h in range(m // s + 2):
                heads = []
                for _ in range(10):
                    head = [rng.randrange(q1) for _ in range(h)]
                    if h >= 2 and rng.random() < 0.5:
                        head[rng.randrange(h)] = head[0]
                    if h and rng.random() < 0.3:
                        head[rng.randrange(h)] = None
                    if h and rng.random() < 0.3:
                        # the prime field: every pivot at position 0
                        head = [rng.randrange(p - 1) * (q1 // (p - 1)) for _ in range(h)]
                    heads.append(head)
                # every last element where the field is small
                lasts = [range(q1) if q1 <= 80 else [rng.randrange(q1) for _ in range(8)]
                         for _ in heads]
                cols = np.array([[zero if x is None else keys[x] for x in expand(head)]
                                 for head in heads], dtype=field.rank_keys.dtype)
                cols = cols.reshape(len(heads), h * s).T.copy()
                rows = np.array([[[keys[x] for x in expand([e])] for e in last]
                                 for last in lasts], dtype=cols.dtype).transpose(2, 0, 1).copy()
                pivots = echelon(cols, m, *tables)
                got = extend(rows, pivots, m, *tables)
                want = [[len(linalg.rref_rows([coords(x) for x in expand(head + [e])], p))
                         for e in last] for head, last in zip(heads, lasts)]
                assert got.tolist() == want
                # the nonzero pivots come first and lead at falling positions
                head_ranks = [len(linalg.rref_rows([coords(x) for x in expand(head)], p))
                              for head in heads]
                nonzero = pivots != 0 if p == 2 else pivots >= 0
                assert nonzero.sum(axis=0).tolist() == head_ranks
                for n, rank in enumerate(head_ranks):
                    lead = pivots[:rank, n].tolist()
                    assert nonzero[:rank, n].all() and lead == sorted(set(lead), reverse=True)

    @pytest.mark.parametrize("m", [4, 8])
    def test_bit_extend_takes_any_rows(self, m, rng):
        # over GF(2) the reduced rows' rank adds to the pivots' for any
        # extra rows, not only an element's expansion
        for r in range(m + 2):
            for extra in (1, 2, 3):
                sets = [[rng.randrange(1 << m) for _ in range(r)] for _ in range(40)]
                more = [[[rng.randrange(1 << m) for _ in range(extra)] for _ in range(3)]
                        for _ in sets]
                cols = np.array(sets, dtype=np.uint8).reshape(len(sets), r).T.copy()
                rows = np.array(more, dtype=np.uint8).transpose(2, 0, 1).copy()
                got = linalg.bit_extend_batch(rows, linalg.bit_echelon_batch(cols, m), m)
                assert got.tolist() == [[linalg.bit_rank(rows_ + tail) for tail in tails]
                                        for rows_, tails in zip(sets, more)]


class TestSubfieldCoords:
    def test_roundtrip(self, f16, rng):
        z = f16.element(1)
        for s in (1, 2, 4):
            sub = f16.subfield(s)
            for _ in range(30):
                x = f16.element(rng.randrange(15))
                coords = subfield_coords(x, sub)
                assert len(coords) == 4 // s
                assert all(sub.contains(c) for c in coords)
                acc = f16.zero()
                for j, c in enumerate(coords):
                    acc = acc + c * z ** j
                assert acc == x

    def test_s1_matches_vector(self, f16):
        x = f16.element(12)
        coords = subfield_coords(x, f16.subfield(1))
        assert [c.index for c in coords] == f16.coords_table[x.index].tolist()

    @pytest.mark.parametrize("x", ["z^3", "z^200", "zero", "int"])
    def test_foreign_element_rejected(self, f16, f256, x):
        # z^3 of GF(2^8) was read as an element of GF(16), and z^200 indexed
        # past GF(16)'s tables
        x = {"z^3": f256.element(3), "z^200": f256.element(200),
             "zero": f256.zero(), "int": 3}[x]
        with pytest.raises(ValueError, match=r"needs an element of GF\(2\^4\)$"):
            subfield_coords(x, f16.subfield(2))


# every check that an argument is an element of a given field, each fed x
# where an element of rs53's field GF(2^4) belongs, with the message it
# raises on anything else
def _entry_points():
    def scheme(code, x):
        one = code.field.one()
        return RepairScheme(SubpacketizationSpec(code, 1), 1, ((x, one), (one, one)))

    def with_parity(code, x):
        return CodeSpec(code.n, code.k, code.field,
                        ((x, *code.parity[0][1:]), *code.parity[1:]))

    def points(code, x):
        return [x] + [code.field.element(i) for i in range(1, code.n)]

    ops = "elements of different fields"
    return {
        "add": (lambda c, x: c.field.one() + x, ops),
        "sub": (lambda c, x: c.field.one() - x, ops),
        "mul": (lambda c, x: c.field.one() * x, ops),
        "div": (lambda c, x: c.field.one() / x, ops),
        "SubfieldSpec.contains": (lambda c, x: c.field.subfield(2).contains(x),
                                  "^element from a different field$"),
        "rank_over_subfield": (lambda c, x: rank_over_subfield([x], c.field.subfield(2)),
                               "^elements from different fields$"),
        "subfield_coords": (lambda c, x: subfield_coords(x, c.field.subfield(2)),
                            r"^subfield_coords needs an element of GF\(2\^4\)$"),
        "CodeSpec": (with_parity, "^parity entries must belong to the code's field$"),
        "Codeword": (lambda c, x: Codeword(c, [x] * c.n),
                     "^codeword symbols must belong to the code's field$"),
        "rs_systematic": (lambda c, x: rs_systematic(c.field, points(c, x), c.k),
                          "^evaluation points must belong to the field$"),
        "encode": (lambda c, x: encode(c, [x] * c.k),
                   "^message symbols must belong to the code's field$"),
        "RepairScheme": (scheme, "^elements must belong to the code's field$"),
    }


ENTRY_POINTS = _entry_points()


class TestMembership:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("x", ["int", "None", "GF(2^8)"])
    def test_non_members_rejected(self, rs53, f256, entry, x):
        # an int or None used to reach ``.field`` and die with AttributeError
        # in SubfieldSpec.contains, rank_over_subfield and rs_systematic
        x = {"int": 3, "None": None, "GF(2^8)": f256.element(3)}[x]
        call, message = ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=message):
            call(rs53, x)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_equal_field_accepted(self, rs53, entry):
        # a separately built GF(2^4) with the same polynomial is the same field
        twin = FieldSpec(rs53.field.p, rs53.field.poly)
        assert twin is not rs53.field and twin == rs53.field
        call, _ = ENTRY_POINTS[entry]
        call(rs53, twin.one())

    def test_in_and_equality(self, rs53, f256):
        field = rs53.field
        twin = FieldSpec(field.p, field.poly)
        assert field.one() in field and twin.one() in field and field.one() in twin
        assert field.one() == twin.one() and field.zero() == twin.zero()
        for x in (3, None, "z^0", f256.one(), f256.zero(), field):
            assert x not in field
            assert field.one() != x and not field.one() == x
