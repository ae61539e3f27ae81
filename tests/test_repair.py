import ast
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mdsrepair.bundled import (
    BUNDLED_CODES,
    GOLDEN_TOTAL_BITS,
    bundled_code,
    bundled_scheme,
    bundled_schemes,
    load_scheme,
)
from mdsrepair.clique import find_repair, generate_clique
from mdsrepair.codes import (CodeSpec, Codeword, encode, normalize_parity, rs_systematic,
                             systematic_on, verify_mds)
from mdsrepair.errors import (
    DimensionMismatch,
    IncompatibleLift,
    IncompatibleSubfield,
    InfeasibleScheme,
    InvalidMatrix,
    ParseError,
    ZeroReference,
)
from mdsrepair.gf import FieldElement, FieldSpec, SubfieldSpec, find_left_operator
from mdsrepair import gf, linalg, repair
from mdsrepair.repair import (
    MatrixScheme,
    RepairScheme,
    SchemeEvaluator,
    SubpacketizationSpec,
    baselines,
    gamma_ranks,
    gamma_ranks_matrix,
    lift_scheme,
    realize_matrices,
    recover_node,
    scheme_from_json,
)
from mdsrepair.search import SearchConfig, exhaustive_search


def random_scheme(code, s, failed, rng):
    sub = SubpacketizationSpec(code, s)
    q1 = code.field.q - 1
    elements = tuple(
        tuple(code.field.element(rng.randrange(q1)) for _ in range(sub.beta))
        for _ in range(code.r))
    return RepairScheme(sub, failed, elements)


class TestSubpacketization:
    def test_examples(self, rs53, rs64, fb1410):
        sub = SubpacketizationSpec(rs53, 1)
        assert (sub.beta, sub.alpha, sub.file_size) == (2, 4, 12)
        sub = SubpacketizationSpec(rs64, 2)
        assert (sub.beta, sub.alpha, sub.file_size) == (1, 2, 8)
        sub = SubpacketizationSpec(fb1410, 1)
        assert (sub.beta, sub.alpha, sub.file_size) == (2, 8, 80)

    def test_incompatible(self, rs53, fb1410):
        with pytest.raises(IncompatibleSubfield):
            SubpacketizationSpec(rs53, 4)  # n-k = 2 does not divide m/s = 1
        with pytest.raises(IncompatibleSubfield):
            SubpacketizationSpec(rs53, 3)  # 3 does not divide m = 4
        with pytest.raises(IncompatibleSubfield):
            SubpacketizationSpec(fb1410, 4)  # n-k = 4 does not divide 8/4 = 2

    @pytest.mark.parametrize("s", [True, 1.0, "1", None])
    def test_non_integer_s_rejected(self, rs53, s):
        with pytest.raises(ParseError):
            SubpacketizationSpec(rs53, s)

    def test_numpy_integer_s_accepted(self, rs53):
        sub = SubpacketizationSpec(rs53, np.int64(1))
        assert sub == SubpacketizationSpec(rs53, 1) and type(sub.s) is int

    @pytest.mark.parametrize("name, s", [("fb1410", 1), ("rs64", 2), ("rs64_gf81", 2)])
    def test_derived_tables_keep_the_instance_layout(self, request, name, s, monkeypatch):
        # subfield, slot_shifts and node_keys are built on first read into
        # attributes that construction made: no read adds a key to the
        # instance __dict__, each returns the same object every time, and
        # only node_keys reads NumPy
        sub = SubpacketizationSpec(request.getfixturevalue(name), s)
        keys = set(vars(sub))

        class NoNumpy:
            def __getattr__(self, attr):
                raise AssertionError(f"np.{attr} read for a scalar table")

        monkeypatch.setattr(repair, "np", NoNumpy())
        scalar = [sub.subfield, sub.slot_shifts]
        monkeypatch.undo()
        first = [*scalar, sub.node_keys]
        assert set(vars(sub)) == keys
        again = [sub.subfield, sub.slot_shifts, sub.node_keys]
        assert all(a is b for a, b in zip(first, again))
        assert sub == SubpacketizationSpec(sub.code, s)

    @pytest.mark.parametrize("name", ["rs64", "fb1410", "rs64_gf81"])
    def test_node_keys(self, request, name, monkeypatch):
        # GF(2^4), GF(2^8), GF(3^4) at every valid s: entry [l, t, e, u] is
        # the rank key of z^(e + log P_u^l + offset t), the log reduced mod
        # q-1, from the field's rank_keys and the spec's slot_shifts; row
        # [l, t, e] holds every node's key, the candidate-major layout
        code = request.getfixturevalue(name)
        field = code.field
        q1 = field.q - 1
        rank_keys = field.rank_keys.tolist()
        valid = []
        for s in range(1, field.m + 1):
            try:
                sub = SubpacketizationSpec(code, s)
            except IncompatibleSubfield:
                continue
            valid.append(s)
            attrs = set(vars(sub))
            keys = sub.node_keys
            assert keys.shape == (code.r, s, q1, code.k)
            assert keys.flags.c_contiguous
            assert keys.dtype == field.rank_keys.dtype
            assert not keys.flags.writeable
            for l, t, u in itertools.product(range(code.r), range(s), range(code.k)):
                shift = sub.slot_shifts[u][l * sub.beta] + sub.subfield.offsets[t]
                assert keys[l, t, :, u].tolist() == [rank_keys[e + shift % q1]
                                                     for e in range(q1)]
            # built once: a second read is the same array and reads no table
            with monkeypatch.context() as patch:
                patch.setattr(FieldSpec, "rank_keys", property(
                    lambda field: pytest.fail("rank_keys read again")))
                assert sub.node_keys is keys
            assert set(vars(sub)) == attrs
        assert valid == [1, 2]

    def test_baselines(self, rs53, rs64, fb1410):
        assert baselines(SubpacketizationSpec(rs53, 1)) == (12, 8)
        assert baselines(SubpacketizationSpec(fb1410, 1)) == (80, 26)
        assert baselines(SubpacketizationSpec(rs64, 2))[1] == 5


class TestGammaRanks:
    def test_53_node1_pattern(self, rs53):
        report = gamma_ranks(bundled_scheme("rs53", 1))
        assert report.gammas == (4, 3, 3)
        assert report.feasible
        assert report.total_bw == 10
        assert baselines(report.sub) == (12, 8)
        assert report.sub.bits(1) == 1 and report.total_bits == 10
        assert report.interference_bw == 6

    def test_all_ones_infeasible(self, rs53, f16):
        sub = SubpacketizationSpec(rs53, 1)
        one = f16.one()
        report = gamma_ranks(RepairScheme(sub, 1, ((one, one), (one, one))))
        assert report.gammas == (2, 2, 2)
        assert not report.feasible

    def test_fb_node1(self, fb1410):
        report = gamma_ranks(bundled_scheme("fb1410", 1))
        assert report.total_bw == 65 and report.feasible

    def test_builds_no_evaluator(self, rs64_gf81, monkeypatch):
        # the scalar route reads the spec's slot layout: fb1410 node 1, rs53,
        # and RS(6,4) over GF(3^4) clique schemes, against the matrix route
        part = generate_clique(rs64_gf81)
        schemes = [bundled_scheme("fb1410", 1), *bundled_schemes("rs53").values(),
                   *(find_repair(part, i).scheme for i in range(1, 5))]

        def refuse(self, sub, failed):
            raise AssertionError("gamma_ranks built a SchemeEvaluator")

        monkeypatch.setattr(SchemeEvaluator, "__init__", refuse)
        for scheme in schemes:
            assert gamma_ranks(scheme) == gamma_ranks_matrix(
                scheme.sub, scheme.failed, realize_matrices(scheme))

    def test_validation(self, rs53, f16):
        sub = SubpacketizationSpec(rs53, 1)
        one = f16.one()
        with pytest.raises(ValueError):
            RepairScheme(sub, 1, ((one, f16.zero()), (one, one)))
        with pytest.raises(DimensionMismatch):
            RepairScheme(sub, 1, ((one,), (one,)))
        with pytest.raises(ValueError):
            RepairScheme(sub, 4, ((one, one), (one, one)))

    @pytest.mark.parametrize("failed", [True, 1.0, 2.5, "1"])
    def test_non_integer_node_rejected(self, rs53, f16, failed):
        one = f16.one()
        with pytest.raises(ParseError, match="failed node"):
            RepairScheme(SubpacketizationSpec(rs53, 1), failed, ((one, one), (one, one)))

    @pytest.mark.parametrize("failed", [0, -1, 4, True, 1.0, "1"], ids=repr)
    def test_evaluator_checks_failed_node(self, rs53, failed):
        # 0 and -1 scored node k's block as the failed one, True passed as
        # node 1, and k+1 raised a bare IndexError
        error = ValueError if type(failed) is int else ParseError
        with pytest.raises(error, match="failed node"):
            SchemeEvaluator(SubpacketizationSpec(rs53, 1), failed)

    def test_evaluator_reads_the_report(self, rs53):
        scheme = bundled_scheme("rs53", 1)
        ev = SchemeEvaluator(scheme.sub, np.int64(1))
        report = gamma_ranks(scheme)
        assert type(ev.failed) is int
        assert ev.evaluate(scheme.flat_exps()) == (True, report.total_bw)
        assert ev.evaluate([0] * 4) == (False, None)

    def test_numpy_integer_node_accepted(self, rs53, f16):
        one = f16.one()
        scheme = RepairScheme(SubpacketizationSpec(rs53, 1), np.int64(2),
                              ((one, one), (one, one)))
        assert type(scheme.failed) is int and scheme.to_json()["failed"] == 2

    def test_global_scaling_invariance(self, rs53, rs64, rng):
        for code, s in ((rs53, 1), (rs53, 2), (rs64, 1), (rs64, 2)):
            for _ in range(25):
                failed = rng.randrange(1, code.k + 1)
                scheme = random_scheme(code, s, failed, rng)
                c = code.field.element(rng.randrange(code.field.q - 1))
                scaled = RepairScheme(
                    scheme.sub, failed,
                    tuple(tuple(c * e for e in row) for row in scheme.elements))
                assert gamma_ranks(scheme) == gamma_ranks(scaled)

    def test_feasible_bounds(self, rs53, rs64, rng):
        # feasible => beta <= gamma_u <= alpha and cutset <= total <= naive
        seen = 0
        for code in (rs53, rs64):
            for _ in range(300):
                scheme = random_scheme(code, 1, rng.randrange(1, code.k + 1), rng)
                report = gamma_ranks(scheme)
                if not report.feasible:
                    continue
                seen += 1
                sub = scheme.sub
                assert all(sub.beta <= g <= sub.alpha for g in report.gammas)
                naive, cutset = baselines(report.sub)
                assert cutset <= report.total_bw <= naive
        assert seen > 50


class TestLift:
    def test_identity(self, rs53):
        scheme = bundled_scheme("rs53", 1)
        assert lift_scheme(scheme, 1) is scheme

    def test_64_clique_lift(self, rs64, f16):
        sub = SubpacketizationSpec(rs64, 2)
        scheme = RepairScheme(sub, 2, ((f16.one(),), (f16.element(3),)))
        assert gamma_ranks(scheme).total_bw == 6
        lifted = lift_scheme(scheme, 2)
        assert lifted.sub.s == 1 and lifted.sub.beta == 2
        report = gamma_ranks(lifted)
        assert report.total_bw == 12 and report.feasible
        # elements are M, M*g with g the GF(4) generator z^5
        assert lifted.elements[1] == (f16.element(3), f16.element(8))

    def test_gamma_scaling_property(self, rs53, rs64, rs64_gf81, rng):
        for code in (rs53, rs64, rs64_gf81):
            for _ in range(50):
                scheme = random_scheme(code, 2, rng.randrange(1, code.k + 1), rng)
                base = gamma_ranks(scheme)
                lifted = gamma_ranks(lift_scheme(scheme, 2))
                assert lifted.gammas == tuple(2 * g for g in base.gammas)
                assert lifted.feasible == base.feasible
                assert lifted.total_bits == base.total_bits

    def test_incompatible(self, rs53):
        with pytest.raises(IncompatibleLift):
            lift_scheme(bundled_scheme("rs53", 1), 2)  # s = 1

    @pytest.mark.parametrize("factor", [True, 2.0])
    def test_non_integer_factor_rejected(self, rs64, factor):
        # True would pass for a factor of 1 and 2.0 would fail on s = 1.0
        scheme = find_repair(generate_clique(rs64), 2).scheme
        assert scheme.sub.s == 2
        with pytest.raises(ParseError, match="^lift factor must be an integer"):
            lift_scheme(scheme, factor)


class TestMatrixOracle:
    def test_reference_e1_columns_are_operator_rows(self, rs53, fb1410, rs64_gf81, rng):
        scheme = bundled_scheme("rs53", 1)
        mat = realize_matrices(scheme)
        for l, row in enumerate(scheme.elements):
            for j, e in enumerate(row):
                assert (mat.matrices[l][:, j] == e.operator()[0]).all()
        # the unit table, shifted by the reference, realizes every equation as
        # the operator product it stands for, reference . operator(e * w^t),
        # at every valid s and for integer references with entries >= p and
        # negative ones
        f25 = FieldSpec(5, [2, 1, 1])
        rs42 = rs_systematic(f25, [f25.element(i) for i in range(4)], 2)
        for code in (rs53, fb1410, rs64_gf81, rs42):
            field = code.field
            p, m = field.p, field.m
            for s in [s for s in range(1, m + 1) if m % s == 0 and m // s % code.r == 0]:
                offsets = np.array(field.subfield(s).offsets)
                for _ in range(6):
                    scheme = random_scheme(code, s, rng.randrange(1, code.k + 1), rng)
                    reference = np.array([rng.randrange(-2 * p, 3 * p) for _ in range(m)])
                    if not (reference % p).any():
                        reference[rng.randrange(m)] = -1
                    mat = realize_matrices(scheme, reference)
                    for l, row in enumerate(scheme.elements):
                        logs = (np.array([e.exp for e in row])[:, None] + offsets).reshape(-1)
                        expect = (reference % p) @ field.operators(logs) % p
                        assert (mat.matrices[l].T == expect).all()

    def test_reference_is_a_scaling(self, rs53, rs64_gf81, rng):
        # every reference r is e_0 . operator(nu) for the one nu that
        # find_left_operator returns, so the unit table's row log nu is r,
        # realizing with r is realizing the scheme scaled by nu, and a
        # recovery with r is one of the scaled scheme: for every nonzero r
        # over GF(2^4), GF(5^2) and GF(3^4)
        f25 = FieldSpec(5, [2, 1, 1])
        rs42 = normalize_parity(rs_systematic(f25, [f25.element(i) for i in range(4)], 2))
        schemes = [bundled_scheme("rs53", 1), find_repair(generate_clique(rs42), 1).scheme,
                   find_repair(generate_clique(rs64_gf81), 2).scheme]
        for scheme in schemes:
            sub, failed = scheme.sub, scheme.failed
            field = sub.code.field
            values = field.unit_functional[0]
            cw = encode(sub.code, [field.element(rng.randrange(field.q - 1))
                                   for _ in range(sub.code.k)])
            for reference in field.coords_table[1:]:
                nu = find_left_operator(field, field.coords_table[1], reference)
                assert (values[nu.exp:nu.exp + field.m] == reference).all()
                scaled = RepairScheme(sub, failed,
                                      [[e * nu for e in row] for row in scheme.elements])
                mat = realize_matrices(scheme, reference)
                assert (mat.reference == reference).all()
                assert all((a == b).all() for a, b in
                           zip(mat.matrices, realize_matrices(scaled).matrices, strict=True))
                got, expect = recover_node(cw, scheme, reference), recover_node(cw, scaled)
                assert got.element == expect.element == cw[failed - 1]
                assert got.downloads == expect.downloads

    def test_equivalence_small(self, rs53, rs64, rs64_gf81, rng):
        for code, s in ((rs53, 1), (rs64, 1), (rs64, 2),
                        (rs64_gf81, 1), (rs64_gf81, 2)):
            for _ in range(40):
                failed = rng.randrange(1, code.k + 1)
                scheme = random_scheme(code, s, failed, rng)
                expect = gamma_ranks(scheme)
                ref = code.field.coords_table[
                    code.field.element(rng.randrange(code.field.q - 1)).index]
                mat = realize_matrices(scheme, ref)
                got = gamma_ranks_matrix(scheme.sub, failed, mat)
                assert got == expect

    def test_reference_choice_immaterial(self, rs53, rng):
        scheme = bundled_scheme("rs53", 2)
        reports = set()
        for _ in range(10):
            ref = rs53.field.coords_table[rs53.field.element(rng.randrange(15)).index]
            reports.add(gamma_ranks_matrix(
                scheme.sub, 2, realize_matrices(scheme, ref)))
        assert len(reports) == 1

    def test_naive_full_download_matrices(self, f16):
        # single-parity code: downloading the parity's entire content makes
        # every gamma full
        code = CodeSpec(3, 2, f16, [[f16.one()], [f16.element(1)]])
        sub = SubpacketizationSpec(code, 1)
        mat = MatrixScheme(sub, 1, np.eye(4, dtype=np.int64)[0],
                           (np.eye(4, dtype=np.int64),))
        report = gamma_ranks_matrix(sub, 1, mat)
        assert report.gammas == (4, 4)
        assert report.feasible

    def test_arguments_must_match_matrices(self, rs64):
        lifted = lift_scheme(find_repair(generate_clique(rs64), 2).scheme, 2)
        mat = realize_matrices(lifted)
        assert gamma_ranks_matrix(lifted.sub, 2, mat) == gamma_ranks(lifted)
        for sub, failed in ((lifted.sub, 0), (lifted.sub, 3),
                            (SubpacketizationSpec(rs64, 2), 2)):
            with pytest.raises(ValueError, match="realize node 2"):
                gamma_ranks_matrix(sub, failed, mat)

    @pytest.mark.parametrize("failed, error", [(0, ValueError), (-1, ValueError),
                                                (7, ValueError), (True, ParseError)])
    def test_failed_node_checked(self, rs53, failed, error):
        # as RepairScheme checks it: out of range, or not an integer
        mat = realize_matrices(bundled_scheme("rs53", 1))
        with pytest.raises(error, match="failed node"):
            MatrixScheme(mat.sub, failed, mat.reference, mat.matrices)

    def test_zero_reference(self, rs53):
        scheme = bundled_scheme("rs53", 1)
        with pytest.raises(ZeroReference):
            realize_matrices(scheme, np.zeros(4, dtype=int))
        # a hand-built scheme's reference is checked alike, on construction
        with pytest.raises(ZeroReference):
            MatrixScheme(scheme.sub, 1, [0, 2, 0, -2], realize_matrices(scheme).matrices)

    def test_realizations_compare_by_content(self, rs53):
        scheme = bundled_scheme("rs53", 1)
        a, b = realize_matrices(scheme), realize_matrices(scheme)
        assert a == b and hash(a) == hash(b)
        assert a.reference is not b.reference
        other = realize_matrices(scheme, rs53.field.coords_table[rs53.field.element(3).index])
        assert a != other and not a == other
        # both are stored read-only; a writable array given is copied
        for array in (a.reference, *a.matrices):
            assert not array.flags.writeable
        reference = np.array(a.reference)
        mat = MatrixScheme(scheme.sub, 1, reference, tuple(map(np.array, a.matrices)))
        assert mat == a and hash(mat) == hash(a)
        assert reference.flags.writeable and mat.reference is not reference
        with pytest.raises(ValueError, match="read-only"):
            mat.reference[0] = 0

    @pytest.mark.parametrize("shape", [(5,), (1, 4), (3,), ()])
    def test_reference_not_m_coordinates(self, rs53, shape):
        scheme = bundled_scheme("rs53", 1)
        reference = np.ones(shape, dtype=np.int64)
        message = rf"reference vector has shape \({', '.join(map(str, shape))},?\)"
        with pytest.raises(DimensionMismatch, match=message):
            realize_matrices(scheme, reference)
        cw = encode(rs53, [rs53.field.one()] * rs53.k)
        with pytest.raises(DimensionMismatch, match=r"need \(4,\)"):
            recover_node(cw, scheme, reference)
        with pytest.raises(DimensionMismatch, match=message):
            MatrixScheme(scheme.sub, 1, reference, realize_matrices(scheme).matrices)

    @pytest.mark.parametrize("reference", [[1.5, 0, 0, 0], [1.0, 0, 0, 0],
                                           [True, False, False, False],
                                           ["1", "0", "0", "0"]],
                             ids=["fraction", "float", "bool", "string"])
    def test_reference_not_integers(self, rs53, reference):
        scheme = bundled_scheme("rs53", 1)
        cw = encode(rs53, [rs53.field.one()] * rs53.k)
        matrices = realize_matrices(scheme).matrices
        for realize in (lambda: realize_matrices(scheme, reference),
                        lambda: recover_node(cw, scheme, reference),
                        lambda: MatrixScheme(scheme.sub, 1, reference, matrices)):
            with pytest.raises(ParseError,
                               match="^reference vector entries must be integers, got"):
                realize()

    def test_eliminations_by_characteristic(self, rs64_gf81, monkeypatch, rng):
        # gamma_ranks_matrix ranks each of its k blocks once, as bit-rows by
        # linalg.echelon_bits for p = 2 and as lists by linalg.rref_rows for
        # odd p, and never through rank_mod_p
        schemes = [bundled_scheme("rs53", 1), bundled_scheme("fb1410", 3),
                   lift_scheme(find_repair(generate_clique(bundled_code("rs64")), 2).scheme, 2),
                   random_scheme(rs64_gf81, 1, 2, rng), random_scheme(rs64_gf81, 2, 3, rng)]
        mats = [realize_matrices(scheme) for scheme in schemes]
        reports = [gamma_ranks(scheme) for scheme in schemes]
        calls = []
        rref_rows, echelon_bits = linalg.rref_rows, linalg.echelon_bits

        def rows_spy(rows, p):
            calls.append(("rref_rows", p))
            return rref_rows(rows, p)

        def bits_spy(rows):
            calls.append(("echelon_bits", 2))
            return echelon_bits(rows)

        def refuse(*args):
            raise AssertionError("rank_mod_p called")
        monkeypatch.setattr(linalg, "rref_rows", rows_spy)
        monkeypatch.setattr(linalg, "echelon_bits", bits_spy)
        monkeypatch.setattr(linalg, "rank_mod_p", refuse)
        for scheme, mat, report in zip(schemes, mats, reports):
            calls.clear()
            assert gamma_ranks_matrix(scheme.sub, scheme.failed, mat) == report
            code = scheme.sub.code
            p = code.field.p
            assert calls == [("echelon_bits" if p == 2 else "rref_rows", p)] * code.k

    def test_gammas_are_block_ranks(self, rng):
        # each gamma is rank_mod_p of its node's block, built here one
        # operator at a time, divided by s: on every bundled scheme and on
        # random schemes over GF(2^4), GF(2^8), GF(3^4) and GF(5^2) at every
        # valid s
        fields = [FieldSpec(2, [1, 1, 0, 0, 1]), FieldSpec(2, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
                  FieldSpec(3, [2, 0, 0, 1, 1]), FieldSpec(5, [2, 1, 1])]
        codes = [rs_systematic(f, [f.element(i) for i in range(n)], k)
                 for f in fields for n, k in ((3, 2), (4, 2), (6, 4))]
        schemes = [s for name in BUNDLED_CODES for s in bundled_schemes(name).values()]
        for code in codes:
            m = code.field.m
            for s in [s for s in range(1, m + 1) if m % s == 0 and m // s % code.r == 0]:
                schemes += [random_scheme(code, s, rng.randrange(1, code.k + 1), rng)
                            for _ in range(8)]
        for scheme in schemes:
            code, s = scheme.sub.code, scheme.sub.s
            p = code.field.p
            mat = realize_matrices(scheme)
            ranks = [linalg.rank_mod_p(np.vstack([
                R.T @ code.parity[u][l].operator() % p for l, R in enumerate(mat.matrices)]), p)
                for u in range(code.k)]
            assert all(rank % s == 0 for rank in ranks)
            report = gamma_ranks_matrix(scheme.sub, scheme.failed, mat)
            assert report.gammas == tuple(rank // s for rank in ranks)
            assert report == gamma_ranks(scheme)

    def test_rank_not_multiple_of_s_rejected(self, rs64, rs64_gf81, monkeypatch, rng):
        # a kernel that returns one pivot (or basis row) too many, an odd
        # rank at s = 2, is caught for p = 2 and odd p alike
        rref_rows, echelon_bits = linalg.rref_rows, linalg.echelon_bits
        monkeypatch.setattr(linalg, "rref_rows",
                            lambda rows, p: [*rref_rows(rows, p), len(rows[0])])
        monkeypatch.setattr(linalg, "echelon_bits",
                            lambda rows: tuple([*part, 0] for part in echelon_bits(rows)))
        for code in (rs64, rs64_gf81):
            scheme = random_scheme(code, 2, 1, rng)
            with pytest.raises(InvalidMatrix, match="of node 1 block is not a multiple of s=2"):
                gamma_ranks_matrix(scheme.sub, 1, realize_matrices(scheme))

    def test_matrix_validation(self, rs53):
        scheme = bundled_scheme("rs53", 1)
        mat = realize_matrices(scheme)
        # nested lists are refused, not converted
        nested = MatrixScheme(scheme.sub, 1, mat.reference,
                              tuple(R.tolist() for R in mat.matrices))
        with pytest.raises(ParseError, match="^repair matrices must be integer arrays, got list$"):
            gamma_ranks_matrix(scheme.sub, 1, nested)
        # a reference that is no m-vector of integers is refused on construction
        with pytest.raises(DimensionMismatch, match=r"^reference vector has shape \(2,\)"):
            MatrixScheme(scheme.sub, 1, [0.5, "x"], mat.matrices)
        with pytest.raises(DimensionMismatch):
            gamma_ranks_matrix(scheme.sub, 1,
                               MatrixScheme(scheme.sub, 1, mat.reference,
                                            mat.matrices[:1]))
        bad = np.array(mat.matrices[0])
        bad[:, 1] = 0
        with pytest.raises(InvalidMatrix):
            gamma_ranks_matrix(scheme.sub, 1,
                               MatrixScheme(scheme.sub, 1, mat.reference,
                                            (bad, mat.matrices[1])))


    @pytest.mark.parametrize("edit", [
        lambda R: R + 0.5,
        lambda R: np.where(R == 1, 1.9, R),
        lambda R: np.where(np.arange(R.shape[1]) == 0, 0.5, R),
        lambda R: R.astype(bool),
    ], ids=["shifted", "1.9 for 1", "column of 0.5", "bool"])
    def test_non_integer_matrix_rejected(self, rs53, edit):
        # truncated to int64, the first three ranked like the integer
        # matrices or as a zero column (gammas (3, 3, 2)), and bools passed
        scheme = bundled_scheme("rs53", 1)
        mat = realize_matrices(scheme)
        hostile = MatrixScheme(scheme.sub, 1, mat.reference,
                               tuple(map(edit, mat.matrices)))
        with pytest.raises(ParseError, match="^repair matrix entries must be integers, got "):
            gamma_ranks_matrix(scheme.sub, 1, hostile)

    def test_integer_matrix_dtypes_accepted(self, rs53):
        scheme = bundled_scheme("rs53", 1)
        mat = realize_matrices(scheme)
        narrow = MatrixScheme(scheme.sub, 1, mat.reference,
                              tuple(R.astype(np.uint8) for R in mat.matrices))
        assert gamma_ranks_matrix(scheme.sub, 1, narrow) == gamma_ranks(scheme)

    def test_entries_read_mod_p(self, rs53, rs64_gf81):
        # a column of 2s over GF(2) is a zero column (it ranked as gammas
        # (3, 3, 2) when judged as integers)
        scheme = bundled_scheme("rs53", 1)
        mat = realize_matrices(scheme)
        twos = np.array(mat.matrices[0])
        twos[:, 0] = 2
        with pytest.raises(InvalidMatrix, match="zero column"):
            gamma_ranks_matrix(scheme.sub, 1, MatrixScheme(scheme.sub, 1, mat.reference,
                                                           (twos, mat.matrices[1])))
        # entries moved by multiples of p rank as their residues: int64 ones
        # near 2^63, whose product overflowed, uint64 ones from 2^63, which an
        # int64 cast wrapped, negative int8 ones, and a mix of dtypes
        odd = RepairScheme.from_flat(SubpacketizationSpec(rs64_gf81, 2), 2, [0, 4])
        for scheme, want in ((scheme, gamma_ranks(scheme).gammas), (odd, (2, 2, 2, 1))):
            p, mat = scheme.sub.code.field.p, realize_matrices(scheme)
            assert gamma_ranks(scheme).gammas == want
            signed = tuple(R + p * 2 ** 61 for R in mat.matrices)
            unsigned = tuple(R.astype(np.uint64) + np.uint64(p * 2 ** 62) for R in mat.matrices)
            assert unsigned[0].min() >= 2 ** 63
            negative = tuple(R.astype(np.int8) - np.int8(p) for R in mat.matrices)
            for moved in (signed, unsigned, negative, (signed[0], unsigned[1])):
                hostile = MatrixScheme(scheme.sub, scheme.failed, mat.reference, moved)
                assert gamma_ranks_matrix(scheme.sub, scheme.failed, hostile).gammas == want


class TestRecoverNode:
    def test_zero_codeword(self, rs53, f16):
        cw = encode(rs53, [f16.zero()] * 3)
        result = recover_node(cw, bundled_scheme("rs53", 1))
        assert result.element.is_zero
        assert all(s.is_zero for s in result.symbols)

    def test_roundtrip_all_bundled(self, rs53, rs64, fb1410, rs64_gf81, rng):
        cases = [(code, bundled_schemes(code.name)) for code in (rs53, rs64, fb1410)]
        # odd characteristic: clique schemes at s=2 and their lifts to s=1
        part = generate_clique(rs64_gf81)
        clique = {i: find_repair(part, i).scheme for i in range(1, 5)}
        cases += [(rs64_gf81, clique),
                  (rs64_gf81, {i: lift_scheme(s, 2) for i, s in clique.items()})]
        for code, schemes in cases:
            q1 = code.field.q - 1
            for node, scheme in schemes.items():
                report = gamma_ranks(scheme)
                msg = [code.field.element(rng.randrange(q1))
                       for _ in range(code.k)]
                cw = encode(code, msg)
                result = recover_node(cw, scheme)
                assert result.element == cw[node - 1]
                assert result.total_symbols == report.total_bw
                assert result.total_bits == report.total_bits

    def test_download_counts_match_gammas(self, rs64, f16, rng):
        sub = SubpacketizationSpec(rs64, 2)
        scheme = RepairScheme(sub, 2, ((f16.one(),), (f16.element(3),)))
        report = gamma_ranks(scheme)
        cw = encode(rs64, [f16.element(rng.randrange(15)) for _ in range(4)])
        result = recover_node(cw, scheme)
        for u in range(1, 5):
            if u == 2:
                assert u not in result.downloads
            else:
                assert result.downloads[u] == report.gammas[u - 1]
        assert result.downloads[5] == result.downloads[6] == sub.beta

    def test_infeasible_rejected(self, rs53, f16):
        sub = SubpacketizationSpec(rs53, 1)
        one = f16.one()
        scheme = RepairScheme(sub, 1, ((one, one), (one, one)))
        cw = encode(rs53, [f16.one()] * 3)
        with pytest.raises(InfeasibleScheme, match=r"gamma_1 = 2 < alpha = 4"):
            recover_node(cw, scheme)

    def test_infeasible_rejected_odd_p(self, rs64_gf81):
        # the failed block's rank comes from the elimination that also solves
        # for the signal; it must be the element route's gamma
        sub = SubpacketizationSpec(rs64_gf81, 1)
        scheme = RepairScheme.from_flat(sub, 1, [0] * (sub.code.r * sub.beta))
        assert gamma_ranks(scheme).gammas[0] == 2
        cw = encode(rs64_gf81, [rs64_gf81.field.one()] * rs64_gf81.k)
        with pytest.raises(InfeasibleScheme, match=r"^gamma_1 = 2 < alpha = 4$"):
            recover_node(cw, scheme)

    def test_infeasible_rejected_m8(self, fb1410):
        sub = SubpacketizationSpec(fb1410, 1)
        scheme = RepairScheme.from_flat(sub, 1, [0] * (sub.code.r * sub.beta))
        assert gamma_ranks(scheme).gammas[0] == 4
        cw = encode(fb1410, [fb1410.field.one()] * fb1410.k)
        with pytest.raises(InfeasibleScheme, match=r"^gamma_1 = 4 < alpha = 8$"):
            recover_node(cw, scheme)

    def test_eliminations_by_characteristic(self, rs64_gf81, monkeypatch, rng):
        # p = 2 eliminates on bit-rows (linalg.echelon_bits), odd p on lists by
        # linalg.rref_rows: one call per surviving node and one for the
        # failed block
        schemes = [bundled_scheme("rs53", 1), bundled_scheme("fb1410", 3),
                   find_repair(generate_clique(rs64_gf81), 1).scheme]
        codewords = []
        for scheme in schemes:
            code = scheme.sub.code
            codewords.append(encode(code, [
                code.field.element(rng.randrange(code.field.q - 1))
                for _ in range(code.k)]))
            # builds the lazy subfield tables: tower_inverse comes from one
            # linalg.rref_rows over GF(p), p = 2 included, before the patch
            recover_node(codewords[-1], scheme)
        calls = []
        rref_rows = linalg.rref_rows

        def odd_only(rows, p):
            if p == 2:
                raise AssertionError("rref_rows called over GF(2)")
            calls.append(p)
            return rref_rows(rows, p)
        monkeypatch.setattr(linalg, "rref_rows", odd_only)
        for scheme, cw in zip(schemes, codewords):
            calls.clear()
            assert recover_node(cw, scheme).element == cw[scheme.failed - 1]
            code = scheme.sub.code
            assert calls == ([] if code.field.p == 2 else [code.field.p] * code.k)

    def test_no_operators_per_call(self, rs64_gf81, monkeypatch, rng):
        # every equation and interference row is a lookup in the lazily
        # built unit table, and a custom reference a lookup of its log in
        # unit_logs: after one warm-up call, no recovery builds an operator,
        # multiplies GF(p) matrices or solves for the reference's nu
        clique = find_repair(generate_clique(rs64_gf81), 2).scheme
        schemes = [*bundled_schemes("rs53").values(), *bundled_schemes("fb1410").values(),
                   clique, lift_scheme(clique, 2)]
        cases = []
        for scheme in schemes:
            field = scheme.sub.code.field
            cw = encode(scheme.sub.code, [field.element(rng.randrange(field.q - 1))
                                          for _ in range(scheme.sub.code.k)])
            for reference in (None, field.coords_table[rng.randrange(2, field.q)]):
                recover_node(cw, scheme, reference)
                cases.append((scheme, cw, reference))

        def refuse(*args):
            raise AssertionError("operator built, GF(p) product taken or system solved")
        monkeypatch.setattr(FieldSpec, "operators", refuse)
        monkeypatch.setattr(linalg, "matmul_mod_p", refuse)
        monkeypatch.setattr(linalg, "solve_mod_p", refuse)
        for scheme, cw, reference in cases:
            assert recover_node(cw, scheme, reference).element == cw[scheme.failed - 1]

    def test_matrix_route_never_ranks_elements(self, rs64_gf81, monkeypatch, rng):
        # gamma_ranks_matrix and recover_node stay an independent oracle of
        # the element rank kernels, for p = 2 and odd p alike
        part = generate_clique(rs64_gf81)
        schemes = [bundled_scheme("rs53", 1), bundled_scheme("fb1410", 1),
                   find_repair(part, 1).scheme,
                   lift_scheme(find_repair(part, 2).scheme, 2)]
        reports = [gamma_ranks(scheme) for scheme in schemes]

        def refuse(*args):
            raise AssertionError("element rank kernel or table read")
        monkeypatch.setattr(SubfieldSpec, "rank_exps", refuse)
        monkeypatch.setattr(SubfieldSpec, "rank_batch", refuse)
        for kernel in ("bit_rank", "bit_rank_batch", "bit_echelon_batch", "bit_extend_batch",
                       "zech_rank_batch", "zech_echelon_batch", "zech_extend_batch"):
            monkeypatch.setattr(linalg, kernel, refuse)
        monkeypatch.setattr(SubpacketizationSpec, "node_keys", property(refuse))
        monkeypatch.setattr(FieldSpec, "rank_keys", property(refuse))
        # the operators are built in batches, never one element at a time
        monkeypatch.setattr(FieldElement, "operator", refuse)
        for scheme, report in zip(schemes, reports):
            code, failed = scheme.sub.code, scheme.failed
            mat = realize_matrices(scheme)
            assert gamma_ranks_matrix(scheme.sub, failed, mat) == report
            cw = encode(code, [code.field.element(rng.randrange(code.field.q - 1))
                               for _ in range(code.k)])
            result = recover_node(cw, scheme)
            assert result.element == cw[failed - 1]
            assert result.total_symbols == report.total_bw

    def test_matrix_route_names_no_element_kernel(self):
        # the same independence read off the source: the matrix-route
        # functions name no element-route kernel or table, and gf, which
        # holds the element route, never names the matrix route's GF(2)
        # kernel
        def names(tree):
            return {node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.Attribute))}

        element = re.compile(r"(bit|zech)_(rank|echelon|extend)\w*|rank_exps|rank_\w*batch"
                             r"|rank_keys|node_keys|slot_shifts")
        route = {"_equations", "realize_matrices", "gamma_ranks_matrix", "recover_node",
                 "_solve_bits", "_solve_mod_p"}
        tree = ast.parse(Path(repair.__file__).read_text())
        functions = {node.name: node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name in route}
        assert set(functions) == route
        assert {name: sorted(filter(element.fullmatch, names(node)))
                for name, node in functions.items()} == dict.fromkeys(route, [])
        assert "echelon_bits" not in names(ast.parse(Path(gf.__file__).read_text()))

    def test_back_substitution_is_solve_mod_p(self, rng):
        # the failed block alone, with no interference and signal bit j the
        # right-hand side b_j: the rank _solve_bits counts off its forward
        # echelon is A's, and on invertible systems of every size up to
        # 16 its back-substituted solution is solve_mod_p's
        solved = 0
        while solved < 120:
            m = rng.randrange(1, 17)
            A = np.array([[rng.randrange(2) for _ in range(m)] for _ in range(m)])
            b = np.array([rng.randrange(2) for _ in range(m)])
            rows = [sum(v << c for c, v in enumerate(row)) for row in A.tolist()]
            ranks, rank, x = repair._solve_bits([rows], [0], [(v, 1) for v in b.tolist()], 0)
            assert ranks == {} and rank == linalg.rank_mod_p(A, 2)
            if rank == m:
                assert x == linalg.solve_mod_p(A, b, 2).tolist()
                solved += 1

    def test_reference_immaterial(self, rs53, f16, rng):
        scheme = bundled_scheme("rs53", 3)
        cw = encode(rs53, [f16.element(rng.randrange(15)) for _ in range(3)])
        results = [recover_node(cw, scheme,
                                f16.coords_table[f16.element(rng.randrange(15)).index])
                   for _ in range(5)]
        assert all(r.element == cw[2] for r in results)
        assert len({r.total_bits for r in results}) == 1


def _roles(code, parities):
    """``code`` made systematic on the nodes outside ``parities``, in
    increasing order: (new code, order)."""
    return systematic_on(code, [u for u in range(1, code.n + 1) if u not in parities])


class TestRoleChoice:
    """Which n-k of the other nodes act as parities is free: every k nodes
    of an MDS code are an information set (``codes.systematic_on``)."""

    def _optimum(self, code, s, failed, parities):
        new, order = _roles(code, parities)
        assert verify_mds(new)
        cfg = SearchConfig(SubpacketizationSpec(new, s), order.index(failed) + 1)
        return exhaustive_search(cfg).best_report.total_bits

    def test_rs64_node_4_at_s2(self, rs64):
        # the deployed parities {5, 6} need 14 bits, the parities {1, 2} 12
        assert self._optimum(rs64, 2, 4, {5, 6}) == 14
        assert self._optimum(rs64, 2, 4, {1, 2}) == 12

    def test_rs53_reaches_9_bits(self, f16):
        # RS(5,3) over GF(2^4) at z^7, z^5, z^9, z^3, z^8: node 1 needs 10
        # bits in the deployed form and 9 under three of its six choices
        code = rs_systematic(f16, [f16.element(e) for e in (7, 5, 9, 3, 8)], 3)
        optima = {parities: self._optimum(code, 1, 1, parities)
                  for parities in itertools.combinations(range(2, 6), 2)}
        assert optima == {(2, 3): 9, (2, 4): 10, (2, 5): 9,
                          (3, 4): 10, (3, 5): 9, (4, 5): 10}

    @pytest.mark.parametrize("parities, flat, gammas", [
        ((2, 3, 5, 8), [0, 84, 38, 9], (4, 3, 3, 2, 3, 2, 2, 3, 4, 2)),
        ((3, 7, 8, 10), [0, 6, 10, 12], None)])
    def test_fb1410_56_bit_schemes(self, fb1410, rng, parities, flat, gammas):
        # 56 bits for fb1410 node 1 at s=2, against 60 in the deployed form,
        # on the element route and the matrix oracle, and node 1 rebuilt
        # from original codewords, reordered, some with zero symbols
        new, order = _roles(fb1410, parities)
        assert order[0] == 1 and order[10:] == parities
        assert verify_mds(new)
        scheme = RepairScheme.from_flat(SubpacketizationSpec(new, 2), 1, flat)
        report = gamma_ranks(scheme)
        assert report.feasible and report.total_bits == 56
        assert gamma_ranks_matrix(scheme.sub, 1, realize_matrices(scheme)) == report
        if gammas is not None:
            assert report.gammas == gammas
        field = fb1410.field
        for zeros in (0, 0.2, 0.5):
            message = [field.element(None if rng.random() < zeros else rng.randrange(255))
                       for _ in range(10)]
            original = encode(fb1410, message)
            codeword = Codeword(new, [original[u - 1] for u in order])
            result = recover_node(codeword, scheme)
            assert result.element == original[0] and result.total_bits == 56


class TestSchemeJson:
    def test_roundtrip(self, rs53):
        scheme = bundled_scheme("rs53", 1)
        again = scheme_from_json(scheme.to_json(), rs53)
        assert again == scheme

    def test_flat_roundtrip(self, rs64):
        schemes = [s for name in BUNDLED_CODES for s in bundled_schemes(name).values()]
        schemes.append(lift_scheme(find_repair(generate_clique(rs64), 2).scheme, 2))
        for scheme in schemes:
            assert RepairScheme.from_flat(
                scheme.sub, scheme.failed, scheme.flat_exps()) == scheme
        flat = schemes[0].flat_exps()
        for wrong in (flat[:-1], flat + [1, 2]):
            with pytest.raises((ValueError, DimensionMismatch)):
                RepairScheme.from_flat(schemes[0].sub, schemes[0].failed, wrong)

    @staticmethod
    def _scheme_file(tmp_path, code_entry):
        """The rs53 node 1 scheme written with another "code" entry."""
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(
            {**bundled_scheme("rs53", 1).to_json(), "code": code_entry}))
        return str(path)

    def test_inline_code(self, rs53, tmp_path):
        again = load_scheme(self._scheme_file(tmp_path, rs53.to_json()))
        assert again.sub.code == rs53

    def test_named_code_requires_resolution(self, tmp_path):
        with pytest.raises(ParseError):
            load_scheme(self._scheme_file(tmp_path, "mine"))

    @pytest.mark.parametrize("entry", ["[" * 900 + "0" + "]" * 900,
                                       json.dumps("x" * 100_000)],
                             ids=["nested", "long"])
    def test_unknown_code_entry_quoted_in_part(self, tmp_path, entry):
        path = Path(self._scheme_file(tmp_path, "@"))
        path.write_text(path.read_text().replace('"@"', entry))
        with pytest.raises(ParseError, match=r"\.\.\.; pass --code$") as exc:
            load_scheme(str(path))
        assert len(str(exc.value)) < 200

    def test_unbundled_name_must_match_given_code(self, rs53, tmp_path):
        path = self._scheme_file(tmp_path, "mine")
        mine = CodeSpec.from_json({**rs53.to_json(), "name": "mine"})
        scheme = load_scheme(path, mine)
        assert scheme.sub.code == mine
        assert scheme.flat_exps() == bundled_scheme("rs53", 1).flat_exps()
        with pytest.raises(ParseError, match="'mine', not 'rs53'"):
            load_scheme(path, rs53)

    @pytest.mark.parametrize("differs, edit", [
        ("n", lambda c: {**bundled_code("rs64").to_json(), "name": "rs53"}),
        ("field", lambda c: {**c, "field": {"p": 2, "poly": [1, 0, 0, 1, 1]}}),
        ("parity", lambda c: {**c, "parity": [row[:-1] + [1] for row in c["parity"]]}),
    ])
    def test_mismatch_names_the_difference(self, rs53, tmp_path, differs, edit):
        # the two codes share a name, so their reprs alone would read alike
        path = self._scheme_file(tmp_path, edit(rs53.to_json()))
        with pytest.raises(ParseError, match=f"differ in {differs}\\)$"):
            load_scheme(path, rs53)

    def test_bundled_schemes_match_golden(self):
        for name in BUNDLED_CODES:
            schemes = bundled_schemes(name)
            assert list(schemes) == sorted(GOLDEN_TOTAL_BITS[name])
            for node, scheme in schemes.items():
                report = gamma_ranks(scheme)
                assert scheme.failed == node and report.feasible
                assert report.total_bits == GOLDEN_TOTAL_BITS[name][node]

    def test_bad_payload(self, rs53):
        with pytest.raises(ParseError):
            scheme_from_json({"code": "rs53", "failed": 1}, rs53)
