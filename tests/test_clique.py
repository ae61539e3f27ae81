import pytest

from mdsrepair.clique import clique_bound, find_repair, generate_clique
from mdsrepair.codes import CodeSpec
from mdsrepair.errors import NotNormalized, NotTwoParity, OddExtensionDegree, ParseError
from mdsrepair.gf import FieldSpec
from mdsrepair.repair import RepairScheme, SubpacketizationSpec, baselines, gamma_ranks


class TestGenerateClique:
    def test_64_partition(self, rs64):
        part = generate_clique(rs64)
        assert part.cliques == ((1, 4), (2,), (3,))
        assert part.sub.s == 2

    def test_53_single_clique(self, rs53):
        assert generate_clique(rs53).cliques == ((1, 2, 3),)

    def test_equal_coefficients_single_clique(self, f16):
        one = f16.one()
        z7 = f16.element(7)
        code = CodeSpec(6, 4, f16, [[one, z7]] * 4)
        assert generate_clique(code).cliques == ((1, 2, 3, 4),)

    def test_matches_coset_decomposition(self, rs64, rs53, f16):
        # cliques are cosets of the subfield's multiplicative subgroup:
        # group nodes by second-parity exponent mod (q-1)/(p^s-1)
        for code in (rs64, rs53):
            part = generate_clique(code)
            step = part.sub.subfield.exp_step
            cosets = {}
            for i in range(1, code.k + 1):
                cosets.setdefault(code.parity[i - 1][1].exp % step, []).append(i)
            assert sorted(map(tuple, cosets.values())) == sorted(part.cliques)

    def test_errors(self, fb1410, rs64, f16):
        with pytest.raises(NotTwoParity):
            generate_clique(fb1410)
        f8 = FieldSpec(2, [1, 1, 0, 1])
        one8 = f8.one()
        with pytest.raises(OddExtensionDegree):
            generate_clique(CodeSpec(4, 2, f8, [[one8, one8], [one8, f8.zeta()]]))
        denorm = CodeSpec(6, 4, f16,
                          [[f16.element(1), r[1]] for r in rs64.parity])
        with pytest.raises(NotNormalized):
            generate_clique(denorm)


class TestCliqueBound:
    def test_64_bounds(self, rs64):
        part = generate_clique(rs64)
        assert [clique_bound(part, i) for i in (1, 2, 3, 4)] == [7, 6, 6, 7]

    def test_single_clique_bound_is_naive(self, rs53):
        part = generate_clique(rs53)
        for i in (1, 2, 3):
            assert clique_bound(part, i) == part.sub.file_size == 6


@pytest.mark.parametrize("entry", [clique_bound, find_repair])
@pytest.mark.parametrize("node", [True, 1.0, 2.5, "1"])
def test_non_integer_node_rejected(rs64, entry, node):
    with pytest.raises(ParseError, match="node"):
        entry(generate_clique(rs64), node)


class TestFindRepair:
    def test_64_node2(self, rs64, f16):
        cr = find_repair(generate_clique(rs64), 2)
        assert cr.mu == f16.element(3)  # inverse of z^12
        assert cr.chosen_clique == (1, 4)
        assert not cr.degenerate
        report = gamma_ranks(cr.scheme)
        assert report.feasible and report.total_bw == 6 == cr.bound

    def test_64_node1_tie_breaks_low(self, rs64, f16):
        cr = find_repair(generate_clique(rs64), 1)
        assert cr.chosen_clique == (2,)  # tie between {2} and {3}
        assert cr.mu == f16.element(11)  # inverse of z^4
        assert gamma_ranks(cr.scheme).total_bw == 7 == cr.bound

    def test_64_all_nodes_achieve_bound(self, rs64):
        part = generate_clique(rs64)
        for i in range(1, 5):
            cr = find_repair(part, i)
            report = gamma_ranks(cr.scheme)
            assert report.feasible
            assert report.total_bw == clique_bound(part, i)

    def test_53_degenerate_naive(self, rs53):
        part = generate_clique(rs53)
        for i in (1, 2, 3):
            cr = find_repair(part, i)
            assert cr.degenerate and cr.chosen_clique is None
            report = gamma_ranks(cr.scheme)
            assert report.feasible
            assert report.total_bw == 6 == baselines(report.sub)[0]

    def test_same_clique_ranks_move_together(self, rs64, rs53):
        # under any mu, two nodes of one clique are simultaneously rank 1
        # or rank 2
        for code in (rs64, rs53):
            part = generate_clique(code)
            sub = SubpacketizationSpec(code, code.field.m // 2)
            one = code.field.one()
            for mu in code.field.nonzero_elements():
                ranks = {}
                for i in range(1, code.k + 1):
                    prods = [one * code.parity[i - 1][0],
                             mu * code.parity[i - 1][1]]
                    from mdsrepair.gf import rank_over_subfield
                    ranks[i] = rank_over_subfield(prods, sub.subfield)
                for clique in part.cliques:
                    assert len({ranks[i] for i in clique}) == 1

    def test_exhaustive_never_beats_bound(self, rs64, rs53, rs64_gf81):
        # every candidate mu value (first element fixed to 1 by scaling
        # invariance) on each code
        for code in (rs64, rs53, rs64_gf81):
            part = generate_clique(code)
            sub = SubpacketizationSpec(code, code.field.m // 2)
            one = code.field.one()
            for i in range(1, code.k + 1):
                bound = clique_bound(part, i)
                best = None
                for mu in code.field.nonzero_elements():
                    report = gamma_ranks(RepairScheme(sub, i, ((one,), (mu,))))
                    if report.feasible:
                        best = report.total_bw if best is None else min(best, report.total_bw)
                assert best == bound
