import numpy as np
import pytest

from mdsrepair import codes
from mdsrepair.codes import (
    CodeSpec,
    Codeword,
    encode,
    normalize_parity,
    rs_systematic,
    verify_mds,
)
from mdsrepair.errors import (
    DuplicateEvalPoints,
    LengthMismatch,
    ParseError,
    TooManySubsets,
)


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


class TestVerifyMds:
    def test_bundled_codes(self, rs53, rs64, fb1410):
        assert verify_mds(rs53)
        assert verify_mds(rs64)
        assert verify_mds(fb1410)  # all 1001 subsets

    def test_detects_singular_minor(self, f16):
        one = f16.one()
        z = f16.zeta()
        # two identical parity columns: nodes {3,4} cannot recover
        bad = CodeSpec(4, 2, f16, [[one, one], [z, z]])
        assert not verify_mds(bad)

    def test_subset_cap(self, fb1410, monkeypatch):
        monkeypatch.setattr(codes, "SUBSET_CAP", 100)
        with pytest.raises(TooManySubsets):
            verify_mds(fb1410)

    def test_zero_parity_entry_rejected_at_construction(self, f16):
        with pytest.raises(ValueError):
            CodeSpec(4, 2, f16, [[f16.one(), f16.zero()], [f16.one(), f16.one()]])


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


class TestJson:
    def test_roundtrip(self, rs53, fb1410):
        for code in (rs53, fb1410):
            again = CodeSpec.from_json(code.to_json())
            assert again == code

    def test_bad_json(self):
        with pytest.raises(ParseError):
            CodeSpec.from_json({"n": 5, "k": 3})
