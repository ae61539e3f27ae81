import itertools

import numpy as np
import pytest

from mdsrepair import codes, linalg
from mdsrepair.bundled import BUNDLED_CODES, bundled_code
from mdsrepair.codes import (
    CodeSpec,
    Codeword,
    encode,
    normalize_parity,
    rs_systematic,
    systematic_on,
    verify_mds,
)
from mdsrepair.errors import (
    DuplicateEvalPoints,
    LengthMismatch,
    ParseError,
    TooManySubsets,
)
from mdsrepair.gf import FieldElement, FieldSpec


class TestRsSystematic:
    def test_53_reproduces_published_matrix(self, f16, rs53):
        # points are the powers of the fifth root of unity w = z^3
        w = f16.element(3)
        raw = rs_systematic(f16, [w ** i for i in range(1, 6)], 3)
        assert normalize_parity(raw).parity == rs53.parity

    def test_64_reproduces_published_matrix(self, f16, rs64):
        raw = rs_systematic(f16, [f16.element(i) for i in range(1, 7)], 4)
        assert normalize_parity(raw).parity == rs64.parity

    def test_parity_check_code(self, f16):
        # k = n-1 with two points: single parity column, all ones after
        # normalization
        code = rs_systematic(f16, [f16.element(1), f16.element(2)], 1)
        assert code.n == 2 and code.k == 1
        norm = normalize_parity(code)
        assert all(row[0] == f16.one() for row in norm.parity)

    def test_duplicate_points_rejected(self, f16):
        pts = [f16.element(1), f16.element(1), f16.element(2)]
        with pytest.raises(DuplicateEvalPoints):
            rs_systematic(f16, pts, 2)

    def test_zero_point_rejected(self, f16):
        with pytest.raises(ValueError):
            rs_systematic(f16, [f16.zero(), f16.element(1)], 1)

    def test_k_bounds(self, f16):
        pts = [f16.element(i) for i in range(1, 4)]
        with pytest.raises(ValueError):
            rs_systematic(f16, pts, 3)  # k = n
        with pytest.raises(ValueError):
            rs_systematic(f16, pts, 0)

    @pytest.mark.parametrize("k", [True, 3.0, "3"], ids=repr)
    def test_non_integer_k_rejected(self, f16, k):
        # k=True built a code with k=True, and k=3.0 died inside range()
        pts = [f16.element(i) for i in range(1, 6)]
        with pytest.raises(ParseError, match=f"^k must be an integer, got {k!r}$"):
            rs_systematic(f16, pts, k)

    def test_always_mds(self, f16, rng):
        for _ in range(5):
            exps = rng.sample(range(15), 6)
            code = rs_systematic(f16, [f16.element(e) for e in exps], 3)
            assert verify_mds(code)


class TestNormalize:
    def test_idempotent(self, rs53):
        assert normalize_parity(rs53).parity == rs53.parity

    def test_first_column_ones(self, f16):
        raw = rs_systematic(f16, [f16.element(i) for i in range(1, 6)], 3)
        norm = normalize_parity(raw)
        assert all(row[0] == f16.one() for row in norm.parity)
        assert normalize_parity(norm).parity == norm.parity

    def test_preserves_mds(self, f16, fb1410):
        raw = rs_systematic(f16, [f16.element(i) for i in range(1, 7)], 4)
        assert verify_mds(raw) == verify_mds(normalize_parity(raw)) is True


def _random_code(field, n, k, rng):
    """An (n,k) code with uniform random nonzero parity entries."""
    return CodeSpec(n, k, field, [
        [field.element(rng.randrange(field.q - 1)) for _ in range(n - k)]
        for _ in range(k)])


def _singular_subsets(code):
    """The numbers of parity nodes in the k-node subsets that cannot rebuild
    the message, found without ``verify_mds``: the generator [I | P] expanded
    over GF(p) entry by entry through ``FieldSpec.operators`` (an extension
    matrix is singular iff its expansion is), and the km x km expansion of
    each subset's k columns ranked by ``linalg.rref_rows``."""
    field, n, k, m = code.field, code.n, code.k, code.field.m
    exps = np.zeros((k, n), dtype=np.int64)
    exps[:, k:] = code.parity_exps()
    nonzero = np.hstack([np.eye(k, dtype=np.int64), np.ones((k, n - k), dtype=np.int64)])
    blocks = field.operators(exps) * nonzero[..., None, None]  # (k, n, m, m)
    singular = set()
    for subset in itertools.combinations(range(n), k):
        expanded = blocks[:, subset].transpose(0, 2, 1, 3).reshape(k * m, k * m)
        if len(linalg.rref_rows(expanded.tolist(), field.p)) < k * m:
            singular.add(sum(j >= k for j in subset))
    return singular


class TestVerifyMds:
    def test_bundled_codes(self, rs53, rs64, fb1410):
        assert verify_mds(rs53)
        assert verify_mds(rs64)
        assert verify_mds(fb1410)  # all 1001 subsets

    def test_detects_singular_minor(self, f16):
        one = f16.one()
        z = f16.element(1)
        # two identical parity columns: nodes {3,4} cannot recover
        bad = CodeSpec(4, 2, f16, [[one, one], [z, z]])
        assert not verify_mds(bad)

    @pytest.mark.parametrize("field", [FieldSpec(2, [1, 1, 0, 0, 1]),
                                       FieldSpec(3, [2, 0, 0, 1, 1])], ids=repr)
    def test_matches_generator_rank_oracle(self, field, rng):
        answers = []
        for n, k in ((5, 2), (6, 3), (7, 4), (6, 4)):
            for _ in range(12):
                code = _random_code(field, n, k, rng)
                answers.append(verify_mds(code))
                assert answers[-1] == (not _singular_subsets(code))
        assert True in answers and False in answers

    def test_singular_only_at_3x3(self, f16, rng):
        # every 1x1 and 2x2 parity minor nonsingular, the 3x3 one singular:
        # only the subset of the three parity nodes fails
        for _ in range(1000):
            code = _random_code(f16, 6, 3, rng)
            if _singular_subsets(code) == {3}:
                break
        else:
            pytest.fail("no (6,3) code over GF(16) is singular at 3x3 only")
        assert not verify_mds(code)

    def test_subset_cap(self, fb1410, monkeypatch):
        monkeypatch.setattr(codes, "SUBSET_CAP", 100)
        with pytest.raises(TooManySubsets):
            verify_mds(fb1410)

    def test_zero_parity_entry_rejected_at_construction(self, f16):
        with pytest.raises(ValueError):
            CodeSpec(4, 2, f16, [[f16.one(), f16.zero()], [f16.one(), f16.one()]])


def _reordered(codeword, order):
    """The symbols of ``codeword`` in ``order``, 1-based original nodes."""
    return [codeword[u - 1] for u in order]


class TestSystematicOn:
    @pytest.mark.parametrize("name", ["rs53", "rs64", "rs64_gf81", "fb1410"])
    def test_reordered_codewords_are_codewords(self, request, name, rng):
        # an original codeword, its symbols in the returned order, is the
        # new code's codeword of its first k symbols: messages with zero
        # symbols, on information sets in and out of increasing order
        code = request.getfixturevalue(name)
        field, n, k = code.field, code.n, code.k
        for _ in range(6):
            info = rng.sample(range(1, n + 1), k)
            new, order = systematic_on(code, info)
            assert order[:k] == tuple(info) and sorted(order) == list(range(1, n + 1))
            assert order[k:] == tuple(sorted(order[k:]))
            assert (new.n, new.k, new.field, new.name) == (n, k, field, None)
            assert verify_mds(new)
            for _ in range(3):
                message = [field.element(None if rng.random() < 0.3
                                         else rng.randrange(field.q - 1)) for _ in range(k)]
                symbols = _reordered(encode(code, message), order)
                assert list(encode(new, symbols[:k]).symbols) == symbols
        # the deployed information set gives the code back, unnormalized
        assert systematic_on(code, range(1, k + 1)) == (
            CodeSpec(n, k, field, code.parity), tuple(range(1, n + 1)))

    def test_parity_is_not_normalized(self, rs64):
        # rs64 is normalized; a role choice is not, or an original
        # codeword would no longer be a codeword of the new code
        new, _ = systematic_on(rs64, [3, 4, 5, 6])
        assert normalize_parity(new).parity != new.parity

    def test_rejects_bad_information_sets(self, rs53, f16):
        for info in ([1, 2], [1, 2, 3, 4], [1, 1, 2], [0, 1, 2], [1, 2, 6]):
            with pytest.raises(ValueError):
                systematic_on(rs53, info)
        for info in ([1, 2, 3.0], [True, 2, 3], "123"):
            with pytest.raises(ParseError):
                systematic_on(rs53, info)
        # two equal parity columns: nodes {3, 4} are no information set
        one, z = f16.one(), f16.element(1)
        bad = CodeSpec(4, 2, f16, [[one, one], [z, z]])
        with pytest.raises(ValueError, match="singular"):
            systematic_on(bad, [3, 4])
        # {1, 3} is one, but the new parity holds a zero, as no MDS code's does
        with pytest.raises(ValueError, match="nonzero"):
            systematic_on(bad, [1, 3])


class TestEncode:
    def test_zero_message(self, rs53, f16):
        cw = encode(rs53, [f16.zero()] * 3)
        assert all(s.is_zero for s in cw.symbols)

    def test_unit_message_gives_parity_column(self, rs53, f16):
        for i in range(3):
            msg = [f16.zero()] * 3
            msg[i] = f16.one()
            cw = encode(rs53, msg)
            assert list(cw.symbols[3:]) == list(rs53.parity[i])

    def test_53_all_ones_regression(self, rs53, f16):
        # y5 = (w^2+w+1) + w + (w^2+1) = 0; a zero coordinate is fine
        cw = encode(rs53, [f16.one()] * 3)
        assert cw[3] == f16.one()
        assert cw[4].is_zero

    def test_linearity(self, rs53, f16, rng):
        for _ in range(20):
            x = [f16.element(rng.randrange(15)) for _ in range(3)]
            y = [f16.element(rng.randrange(15)) for _ in range(3)]
            a = f16.element(rng.randrange(15))
            b = f16.element(rng.randrange(15))
            combo = [a * xi + b * yi for xi, yi in zip(x, y)]
            expect = [a * s + b * t
                      for s, t in zip(encode(rs53, x).symbols,
                                      encode(rs53, y).symbols)]
            assert list(encode(rs53, combo).symbols) == expect

    def test_length_mismatch(self, rs53, f16):
        with pytest.raises(LengthMismatch):
            encode(rs53, [f16.one()] * 2)

    def test_matches_element_arithmetic(self, rs64_gf81, rs64_gf15625, monkeypatch, rng):
        # every parity symbol is sum_i P_ij * x_i by FieldElement * and +, on
        # every bundled code and on RS codes over GF(3^4), GF(5^2) and GF(5^6),
        # for messages with zero symbols, unit messages and the zero message;
        # with * and + refused, encoding still gives the same codewords
        f25 = FieldSpec(5, [2, 1, 1])
        cases = [bundled_code(name) for name in BUNDLED_CODES]
        cases += [rs64_gf81, rs64_gf15625,
                  rs_systematic(f25, [f25.element(i) for i in range(4)], 2)]
        expected = []
        for code in cases:
            field, k = code.field, code.k
            messages = [[field.zero()] * k]
            messages += [[field.one() if i == j else field.zero() for i in range(k)]
                         for j in range(k)]
            messages += [[field.zero() if rng.random() < 0.3
                          else field.element(rng.randrange(field.q - 1)) for _ in range(k)]
                         for _ in range(10)]
            for msg in messages:
                parity = []
                for j in range(code.r):
                    acc = field.zero()
                    for i in range(k):
                        acc = acc + code.parity[i][j] * msg[i]
                    parity.append(acc)
                expected.append((code, msg, [*msg, *parity]))
                assert list(encode(code, msg).symbols) == expected[-1][-1]

        def refuse(self, other):
            raise AssertionError("element arithmetic in encode")
        monkeypatch.setattr(FieldElement, "__mul__", refuse)
        monkeypatch.setattr(FieldElement, "__add__", refuse)
        for code, msg, symbols in expected:
            assert list(encode(code, msg).symbols) == symbols


class TestCodeword:
    def test_symbols_stored_as_tuple(self, rs53, f16):
        cw = encode(rs53, [f16.one()] * 3)
        again = Codeword(rs53, list(cw.symbols))
        assert again.symbols == cw.symbols and isinstance(again.symbols, tuple)
        assert again == cw and hash(again) == hash(cw)

    @pytest.mark.parametrize("edit", [lambda s: s[:-1], lambda s: s + s[:1]],
                             ids=["short", "long"])
    def test_length_checked(self, rs64, edit):
        cw = encode(rs64, [rs64.field.element(i) for i in range(4)])
        with pytest.raises(LengthMismatch, match=r"^codeword length \d != n=6$"):
            Codeword(rs64, edit(cw.symbols))

    @pytest.mark.parametrize("symbol", ["foreign", 1, None])
    def test_symbols_checked(self, rs64, f256, symbol):
        symbol = f256.element(3) if symbol == "foreign" else symbol
        symbols = list(encode(rs64, [rs64.field.one()] * 4).symbols)
        for wrong in ([symbol] + symbols[1:], symbols[:-1] + [symbol], [symbol] * 6):
            with pytest.raises(ValueError,
                               match="^codeword symbols must belong to the code's field$"):
                Codeword(rs64, wrong)


class TestCodeSpec:
    @pytest.mark.parametrize("name, value", [("n", 5.0), ("n", True), ("k", 3.0)])
    def test_non_integer_length_rejected(self, rs53, name, value):
        # CodeSpec(5.0, 3, ...) built a code whose repr read (5.0,3)
        args = {"n": rs53.n, "k": rs53.k, name: value}
        with pytest.raises(ParseError, match=f"^{name} must be an integer, got {value!r}$"):
            CodeSpec(args["n"], args["k"], rs53.field, rs53.parity)

    def test_numpy_integer_length_accepted(self, rs53):
        code = CodeSpec(np.int64(5), np.int16(3), rs53.field, rs53.parity, rs53.name)
        assert code == rs53 and type(code.n) is int and type(code.k) is int

    @pytest.mark.parametrize("field", ["none", "elements"])
    def test_field_not_a_fieldspec_rejected(self, rs53, field):
        # None raised a TypeError from ``in``, and a list of elements was
        # searched as a list and accepted as the field
        field = {"none": None,
                 "elements": [e for row in rs53.parity for e in row]}[field]
        with pytest.raises(ValueError,
                           match="^parity entries must belong to the code's field$"):
            CodeSpec(rs53.n, rs53.k, field, rs53.parity)
        points = [rs53.field.element(i) for i in range(rs53.n)]
        with pytest.raises(ValueError,
                           match="^evaluation points must belong to the field$"):
            rs_systematic(field if field is None else points, points, rs53.k)


class TestJson:
    def test_roundtrip(self, rs53, fb1410):
        for code in (rs53, fb1410):
            again = CodeSpec.from_json(code.to_json())
            assert again == code

    def test_bad_json(self):
        with pytest.raises(ParseError):
            CodeSpec.from_json({"n": 5, "k": 3})
