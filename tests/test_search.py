import itertools

import pytest

from mdsrepair.clique import clique_bound, generate_clique
from mdsrepair.codes import encode
from mdsrepair.errors import NoFeasibleFound, SearchSpaceTooLarge
from mdsrepair.repair import (SchemeEvaluator, SubpacketizationSpec, baselines,
                              recover_node)
from mdsrepair.search import (
    SearchConfig,
    exhaustive_search,
    random_search,
)


class TestExhaustive:
    def test_53_optimum_all_nodes(self, rs53):
        sub = SubpacketizationSpec(rs53, 1)
        for node in (1, 2, 3):
            result = exhaustive_search(SearchConfig(sub, node))
            assert result.proven_optimal
            assert result.evaluated == 15 ** 3
            assert result.best_report.total_bw == 10
            assert result.best_report.feasible

    def test_64_gf2_optimum_nodes_1_and_4(self, rs64):
        sub = SubpacketizationSpec(rs64, 1)
        for node in (1, 4):
            result = exhaustive_search(SearchConfig(sub, node))
            assert result.best_report.total_bw == 12

    def test_64_subfield_matches_clique_bound(self, rs64):
        part = generate_clique(rs64)
        sub = SubpacketizationSpec(rs64, 2)
        for node in range(1, 5):
            result = exhaustive_search(SearchConfig(sub, node))
            assert result.evaluated == 15
            assert result.best_report.total_bw == clique_bound(part, node)

    def test_normalization_loses_nothing(self, rs53):
        # the minimum over all 15^4 unpinned tuples is the pinned minimum
        sub = SubpacketizationSpec(rs53, 1)
        pinned = exhaustive_search(SearchConfig(sub, 1))
        ev = SchemeEvaluator(sub, 1)
        free = min(total for feasible, total in
                   map(ev.evaluate, itertools.product(range(15), repeat=4))
                   if feasible)
        assert free == pinned.best_report.total_bw

    def test_space_cap(self, fb1410):
        with pytest.raises(SearchSpaceTooLarge):
            exhaustive_search(SearchConfig(SubpacketizationSpec(fb1410, 1), 1))

    def test_lexicographic_tie_break(self, rs53):
        # first element pinned to exponent 0; remaining exponents are
        # enumerated in ascending order, so re-running is bit-identical
        sub = SubpacketizationSpec(rs53, 1)
        a = exhaustive_search(SearchConfig(sub, 2))
        b = exhaustive_search(SearchConfig(sub, 2))
        assert a.best.flat_exps() == b.best.flat_exps()
        assert a.best.flat_exps()[0] == 0

    def test_minimum_at_least_cutset(self, rs53, rs64):
        for code, s in ((rs53, 1), (rs53, 2), (rs64, 2)):
            sub = SubpacketizationSpec(code, s)
            for node in range(1, code.k + 1):
                result = exhaustive_search(SearchConfig(sub, node))
                assert result.best_report.total_bw >= baselines(sub)[1]

    def test_best_scheme_recovers(self, rs53, f16, rng):
        result = exhaustive_search(SearchConfig(SubpacketizationSpec(rs53, 1), 2))
        cw = encode(rs53, [f16.element(rng.randrange(15)) for _ in range(3)])
        assert recover_node(cw, result.best).element == cw[1]


class TestRandom:
    def test_single_sample_deterministic(self, rs53):
        cfg = SearchConfig(SubpacketizationSpec(rs53, 1), 1, mode="random",
                           samples=1, seed=7)
        try:
            a = random_search(cfg)
            b = random_search(cfg)
            assert a.best.flat_exps() == b.best.flat_exps()
            assert a.evaluated == b.evaluated == 1
        except NoFeasibleFound:
            with pytest.raises(NoFeasibleFound):
                random_search(cfg)

    def test_same_seed_same_result(self, fb1410):
        cfg = SearchConfig(SubpacketizationSpec(fb1410, 1), 3, mode="random",
                           samples=500, seed=42)
        a = random_search(cfg)
        b = random_search(cfg)
        assert a.best.flat_exps() == b.best.flat_exps()
        assert a.best_report == b.best_report
        assert not a.proven_optimal

    def test_different_seed_may_differ(self, fb1410):
        sub = SubpacketizationSpec(fb1410, 1)
        a = random_search(SearchConfig(sub, 1, mode="random", samples=200, seed=1))
        b = random_search(SearchConfig(sub, 1, mode="random", samples=200, seed=2))
        # both feasible; elements drawn from different streams
        assert a.best_report.feasible and b.best_report.feasible

    def test_no_feasible_found(self, rs53):
        # hunt a seed whose single sample is infeasible, then pin it
        sub = SubpacketizationSpec(rs53, 1)
        for seed in range(200):
            cfg = SearchConfig(sub, 1, mode="random", samples=1, seed=seed)
            try:
                random_search(cfg)
            except NoFeasibleFound:
                with pytest.raises(NoFeasibleFound):
                    random_search(cfg)
                return
        pytest.skip("every probed seed drew a feasible sample")

    def test_samples_validated(self, rs53):
        cfg = SearchConfig(SubpacketizationSpec(rs53, 1), 1, mode="random", samples=0)
        with pytest.raises(ValueError):
            random_search(cfg)

    def test_best_is_feasible_and_recovers(self, fb1410, f256, rng):
        result = random_search(SearchConfig(
            SubpacketizationSpec(fb1410, 1), 7, mode="random", samples=300, seed=11))
        assert result.best_report.feasible
        cw = encode(fb1410, [f256.element(rng.randrange(255))
                             for _ in range(10)])
        got = recover_node(cw, result.best)
        assert got.element == cw[6]
        assert got.total_bits == result.best_report.total_bits


class TestConfig:
    def test_mode_validated(self, rs53):
        with pytest.raises(ValueError):
            SearchConfig(SubpacketizationSpec(rs53, 1), 1, mode="annealing")

    def test_node_validated(self, rs53):
        with pytest.raises(ValueError):
            SearchConfig(SubpacketizationSpec(rs53, 1), 9)

    def test_space_size(self, rs53, fb1410):
        assert SearchConfig(SubpacketizationSpec(rs53, 1), 1).space_size == 15 ** 3
        assert SearchConfig(SubpacketizationSpec(fb1410, 1), 1).space_size == 255 ** 7
