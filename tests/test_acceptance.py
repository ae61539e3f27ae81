"""Acceptance suite: every criterion as one timed test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All expected values are either published numbers for the
bundled codes or were computed here by independent means (enumeration,
the explicit matrix-rank oracle, or end-to-end simulation).
"""

import random
import time

from mdsrepair.bundled import bundled_code, bundled_scheme, bundled_schemes
from mdsrepair.clique import clique_bound, find_repair, generate_clique
from mdsrepair.codes import encode
from mdsrepair.gf import FieldSpec
from mdsrepair.repair import (
    RepairScheme,
    SubpacketizationSpec,
    baselines,
    gamma_ranks,
    gamma_ranks_matrix,
    lift_scheme,
    realize_matrices,
    recover_node,
)
from mdsrepair.search import SearchConfig, exhaustive_search, random_search


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def _report(n: int, timer: _Timer, budget: float, message: str) -> None:
    assert timer.elapsed < budget, (
        f"criterion {n} took {timer.elapsed:.2f}s, budget {budget}s")
    print(f"ACCEPTANCE {n} PASS ({timer.elapsed:.2f}s < {budget:g}s): {message}")


def _random_scheme(code, s, failed, rng):
    sub = SubpacketizationSpec(code, s)
    q1 = code.field.q - 1
    elements = tuple(
        tuple(code.field.element(rng.randrange(q1)) for _ in range(sub.beta))
        for _ in range(code.r))
    return RepairScheme(sub, failed, elements)


def test_criterion_1_rs53_golden_schemes():
    with _Timer() as t:
        expected_gammas = {1: (4, 3, 3), 2: (3, 4, 3), 3: (3, 3, 4)}
        for node in (1, 2, 3):
            report = gamma_ranks(bundled_scheme("rs53", node))
            assert report.feasible
            assert report.total_bits == 10
            assert report.gammas == expected_gammas[node]
    _report(1, t, 1.0, "(5,3) bundled schemes: feasible, 10 bits each, "
                       "node-1 gammas (4,3,3)")


def test_criterion_2_rs53_exhaustive_optimality():
    with _Timer() as t:
        sub = SubpacketizationSpec(bundled_code("rs53"), 1)
        for node in (1, 2, 3):
            result = exhaustive_search(SearchConfig(sub, node))
            assert result.proven_optimal
            assert result.evaluated == 3375
            assert result.best_report.total_bits == 10
    _report(2, t, 5.0, "(5,3) exhaustive search: minimum is 10 bits for "
                       "every node (3375 normalized tuples each)")


def test_criterion_3_rs64_clique():
    with _Timer() as t:
        code = bundled_code("rs64")
        part = generate_clique(code)
        assert part.cliques == ((1, 4), (2,), (3,))
        bounds = tuple(clique_bound(part, i) for i in range(1, 5))
        assert bounds == (7, 6, 6, 7)
        sub = SubpacketizationSpec(code, 2)
        for i in range(1, 5):
            cr = find_repair(part, i)
            report = gamma_ranks(cr.scheme)
            assert report.feasible and report.total_bw == bounds[i - 1]
            result = exhaustive_search(SearchConfig(sub, i))
            assert result.evaluated == 15
            assert result.best_report.total_bw == bounds[i - 1]
    _report(3, t, 1.0, "(6,4) cliques {1,4}{2}{3}, bounds (7,6,6,7) achieved "
                       "and confirmed optimal over all 15 candidates at s=2")


def test_criterion_4_rs64_lifting_and_gf2_optimality():
    with _Timer() as t:
        code = bundled_code("rs64")
        part = generate_clique(code)
        for node in (2, 3):
            lifted = lift_scheme(find_repair(part, node).scheme, 2)
            report = gamma_ranks(lifted)
            assert report.feasible and report.total_bits == 12
        for node in (1, 4):
            report = gamma_ranks(bundled_scheme("rs64", node))
            assert report.feasible and report.total_bits == 12
        sub = SubpacketizationSpec(code, 1)
        for node in (1, 4):
            result = exhaustive_search(SearchConfig(sub, node))
            assert result.best_report.total_bits == 12
    _report(4, t, 30.0, "(6,4) lifted clique schemes and bundled schemes all "
                        "reach 12 bits; exhaustive GF(2) search confirms 12 "
                        "is minimal for nodes 1 and 4")


def test_criterion_5_fb1410_golden_schemes():
    with _Timer() as t:
        expected = (65, 64, 64, 64, 63, 64, 64, 65, 65, 64)
        totals = []
        for node in range(1, 11):
            report = gamma_ranks(bundled_scheme("fb1410", node))
            assert report.feasible
            assert baselines(report.sub) == (80, 26)
            totals.append(report.total_bits)
        assert tuple(totals) == expected
        mean = sum(totals) / len(totals)
        assert mean == 64.2
        assert abs((80 - mean) / 80 - 0.1975) < 1e-12  # ~20% under naive
    _report(5, t, 2.0, "(14,10) bundled schemes: bandwidths "
                       f"{expected}, mean 64.2 bits, 19.75% under naive 80, "
                       "cut-set 26")


def test_criterion_6_matrix_oracle_equivalence():
    with _Timer() as t:
        rng = random.Random(6)
        checked = 0
        for name, s, count in (("rs53", 1, 300), ("rs53", 2, 200),
                               ("rs64", 1, 300), ("rs64", 2, 200)):
            code = bundled_code(name)
            q1 = code.field.q - 1
            for _ in range(count):
                failed = rng.randrange(1, code.k + 1)
                scheme = _random_scheme(code, s, failed, rng)
                expect = gamma_ranks(scheme)
                for _ in range(3):
                    ref = code.field.element(rng.randrange(q1)).vector()
                    mat = realize_matrices(scheme, ref)
                    assert gamma_ranks_matrix(scheme.sub, failed, mat) == expect
                checked += 1
        assert checked == 1000
    _report(6, t, 120.0, "element-rank and explicit repair-matrix routes agree "
                         "on 1000 random schemes x 3 references (rs53, rs64, "
                         "s=1 and s=2)")


def test_criterion_7_end_to_end_repair():
    with _Timer() as t:
        rng = random.Random(7)
        recoveries = 0
        for name in ("rs53", "rs64", "fb1410"):
            code = bundled_code(name)
            q1 = code.field.q - 1
            schemes = dict(bundled_schemes(name))
            if name == "rs64":  # clique-derived schemes cover nodes 2 and 3
                part = generate_clique(code)
                for node in (2, 3):
                    schemes[node] = lift_scheme(find_repair(part, node).scheme, 2)
            reports = {node: gamma_ranks(s) for node, s in schemes.items()}
            for _ in range(100):
                msg = [code.field.element(rng.randrange(q1))
                       for _ in range(code.k)]
                cw = encode(code, msg)
                node = rng.choice(sorted(schemes))
                result = recover_node(cw, schemes[node])
                assert result.element == cw[node - 1]
                assert result.total_bits == reports[node].total_bits
                recoveries += 1
        # and every scheme is exercised at least once on a fresh message
        for name in ("rs53", "rs64", "fb1410"):
            code = bundled_code(name)
            q1 = code.field.q - 1
            for node, scheme in bundled_schemes(name).items():
                msg = [code.field.element(rng.randrange(q1))
                       for _ in range(code.k)]
                cw = encode(code, msg)
                result = recover_node(cw, scheme)
                assert result.element == cw[node - 1]
                assert result.total_bits == gamma_ranks(scheme).total_bits
                recoveries += 1
        assert recoveries == 315
    _report(7, t, 120.0, "recover_node reconstructs the erased node exactly "
                         "with bits-on-wire equal to the reported bandwidth "
                         "(315 recoveries across rs53/rs64/fb1410)")


def test_criterion_8_algebra_suite():
    with _Timer() as t:
        for field in (FieldSpec(2, [1, 1, 1]), FieldSpec(2, [1, 1, 0, 0, 1])):
            p = field.p
            elements = list(field.elements())
            # ring homomorphism of the operator map, exhaustively
            for a in elements:
                ga = a.operator()
                for b in elements:
                    assert ((a * b).operator() == (ga @ b.operator()) % p).all()
                    assert ((a + b).operator() == (ga + b.operator()) % p).all()
                    assert ((a * b).vector() == (ga @ b.vector()) % p).all()
            # P1 additivity and P2 commutativity of the operator set
            ops = [e.operator() for e in elements]
            op_set = {op.tobytes() for op in ops}
            for A in ops:
                for B in ops:
                    assert ((A + B) % p).tobytes() in op_set
                    assert ((A @ B) % p == (B @ A) % p).all()
            # left-product bijection: source^T . operator(.) is injective on
            # nonzero elements, for every nonzero source
            for src_el in field.nonzero_elements():
                src = src_el.vector()
                rows = {tuple((src @ b.operator()) % p)
                        for b in field.nonzero_elements()}
                assert len(rows) == field.q - 1
        # report scaling invariance on 1000 random cases
        rng = random.Random(8)
        cases = [("rs53", 1, 300), ("rs64", 1, 300), ("rs64", 2, 200),
                 ("fb1410", 1, 200)]
        for name, s, count in cases:
            code = bundled_code(name)
            q1 = code.field.q - 1
            for _ in range(count):
                failed = rng.randrange(1, code.k + 1)
                scheme = _random_scheme(code, s, failed, rng)
                c = code.field.element(rng.randrange(q1))
                scaled = RepairScheme(
                    scheme.sub, failed,
                    tuple(tuple(c * e for e in row) for row in scheme.elements))
                assert gamma_ranks(scaled) == gamma_ranks(scheme)
    _report(8, t, 120.0, "homomorphism / additivity / commutativity / "
                         "left-product bijection exhaustive on GF(4) and "
                         "GF(16); scaling invariance on 1000 random schemes")


def test_criterion_9_fb1410_random_search():
    with _Timer() as t:
        sub = SubpacketizationSpec(bundled_code("fb1410"), 1)
        cfg = SearchConfig(sub, 1, mode="random", samples=100_000, seed=0)
        first = random_search(cfg)
        assert first.best_report.feasible
        assert first.best_report.total_bits <= 72
        # frozen outcome of this seed, pinning cross-run determinism
        assert first.best_report.total_bits == 65
        assert first.best.flat_exps() == [0, 101, 162, 222, 104, 87, 11, 80]
        second = random_search(cfg)
        assert second.best.flat_exps() == first.best.flat_exps()
        assert second.best_report == first.best_report
        assert second.evaluated == first.evaluated == 100_000
    _report(9, t, 120.0, "seeded 100000-sample search on fb1410 node 1 finds "
                         "a feasible 65-bit scheme (<= 72 required); two runs "
                         "are bit-identical")
