import contextlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdsrepair import linalg, search
from mdsrepair.clique import clique_bound, generate_clique
from mdsrepair.codes import encode, rs_systematic
from mdsrepair.errors import (DimensionMismatch, InvalidMatrix, NoFeasibleFound, ParseError,
                              SearchSpaceTooLarge)
from mdsrepair.gf import rank_over_subfield
from mdsrepair.repair import (RepairScheme, SchemeEvaluator, SubpacketizationSpec, baselines,
                              gamma_ranks, recover_node)
from mdsrepair.search import (
    SearchConfig,
    exhaustive_search,
    random_search,
)


def _record_chunks(monkeypatch):
    """Keep every chunk the search hands to the evaluator."""
    seen = []
    batch = SchemeEvaluator.evaluate_batch

    def recording(self, flats):
        seen.append(np.array(flats))
        return batch(self, flats)

    monkeypatch.setattr(SchemeEvaluator, "evaluate_batch", recording)
    return seen


def _lists(scored):
    """A scorer's (ok, totals, gammas) as lists."""
    return tuple(a.tolist() for a in scored)


def _outcome(cfg):
    """What a search reports: winner, its report, evaluated and feasible."""
    run = exhaustive_search if cfg.mode == "exhaustive" else random_search
    res = run(cfg)
    return res.best.flat_exps(), res.best_report, res.evaluated, res.feasible


def _odd_p_searches(code):
    """An exhaustive search at s=2 and a seeded random one at s=1."""
    return [SearchConfig(SubpacketizationSpec(code, 2), 1),
            SearchConfig(SubpacketizationSpec(code, 1), 2,
                         mode="random", samples=1500, seed=3)]


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

    def test_feasible_count_matches_brute_count(self, rs53):
        sub = SubpacketizationSpec(rs53, 1)
        result = exhaustive_search(SearchConfig(sub, 2))
        ev = SchemeEvaluator(sub, 2)
        brute = sum(ev.evaluate((0,) + tail)[0]
                    for tail in itertools.product(range(15), repeat=3))
        assert result.evaluated == 15 ** 3
        assert result.feasible == brute

    @staticmethod
    def _check_completion_chunks(cfg, monkeypatch):
        # exhaustive search scores heads, never full tuples: the heads it
        # hands over, each completed by its range of last exponents, run
        # through the space in lexicographic order, at most CHUNK candidates
        # per call
        seen = []
        completions = SchemeEvaluator.evaluate_completions

        def recording(self, heads, lasts):
            seen.append((np.array(heads), lasts))
            return completions(self, heads, lasts)

        monkeypatch.setattr(SchemeEvaluator, "evaluate_completions", recording)
        refused = _record_chunks(monkeypatch)
        outcome = _outcome(cfg)
        assert not refused
        q1 = cfg.sub.code.field.q - 1
        flats = [[*head, last] for heads, lasts in seen
                 for head in heads.tolist() for last in lasts]
        assert flats == [[0, *t] for t in itertools.product(range(q1), repeat=cfg.free_slots)]
        assert max(len(heads) * len(lasts) for heads, lasts in seen) <= search.CHUNK
        return outcome

    def test_lexicographic_chunks(self, rs64, monkeypatch):
        self._check_completion_chunks(SearchConfig(SubpacketizationSpec(rs64, 1), 1),
                                      monkeypatch)

    @pytest.mark.parametrize("name, s", [("rs53", 1), ("rs53", 2), ("rs64", 1), ("rs64", 2)])
    def test_chunk_below_q1_splits_heads(self, request, monkeypatch, name, s):
        # CHUNK = 7 < q-1 = 15: each head's completions are split in ranges
        # of at most 7, in order, with the same winner and feasible count
        sub = SubpacketizationSpec(request.getfixturevalue(name), s)
        for node in range(1, sub.code.k + 1):
            cfg = SearchConfig(sub, node)
            before = _outcome(cfg)
            with monkeypatch.context() as patch:
                patch.setattr(search, "CHUNK", 7)
                assert self._check_completion_chunks(cfg, patch) == before

    @pytest.mark.parametrize("name, s, winners, feasible", [
        ("rs53", 1, [[0, 1, 0, 6], [0, 1, 0, 2], [0, 1, 0, 11]], 1344),
        ("rs53", 2, [[0, 0], [0, 0], [0, 0]], 12),
        ("rs64", 1, [[0, 2, 0, 6], [0, 5, 3, 8], [0, 2, 4, 11], [0, 1, 0, 1]], 1344),
        ("rs64", 2, [[0, 0], [0, 3], [0, 3], [0, 0]], 12),
        ("rs64_gf81", 2, [[0, 6], [0, 4], [0, 4], [0, 6]], 72)])
    def test_pinned_outcomes(self, request, name, s, winners, feasible):
        # the lexicographically first optimum and the feasible count of
        # every node, as scoring every full tuple with evaluate_batch finds them
        code = request.getfixturevalue(name)
        sub = SubpacketizationSpec(code, s)
        for node, winner in enumerate(winners, 1):
            result = exhaustive_search(SearchConfig(sub, node))
            assert result.best.flat_exps() == winner
            assert result.evaluated == (code.field.q - 1) ** (len(winner) - 1)
            assert result.feasible == feasible

    def test_no_free_slot(self, f16):
        # RS(4,3) at s=4: one parity, beta=1, so the one candidate is the
        # pinned element 1, an empty head completed by the exponent 0
        code = rs_systematic(f16, [f16.element(i) for i in range(4)], 3, "rs43")
        sub = SubpacketizationSpec(code, 4)
        for node in (1, 2, 3):
            cfg = SearchConfig(sub, node)
            assert (cfg.slots, cfg.space_size) == (1, 1)
            result = exhaustive_search(cfg)
            assert result.best.flat_exps() == [0]
            assert (result.evaluated, result.feasible) == (1, 1)
            assert result.best_report.gammas == (1, 1, 1)

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

    @pytest.mark.parametrize("samples", [True, "7"])
    def test_non_integer_samples_rejected(self, rs53, samples):
        cfg = SearchConfig(SubpacketizationSpec(rs53, 1), 1, mode="random",
                           samples=samples)
        with pytest.raises(ParseError, match="samples"):
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


class TestStream:
    @pytest.mark.parametrize("q1", [2, 4, 8, 15, 80, 129, 255])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_bulk_draw_is_the_stdlib_stream(self, q1, seed):
        # uneven takes, empty ones and takes that the kept surplus covers
        # included, concatenate to the stdlib stream
        sizes = [0, 1, 7 * 1030, 0, 3 * search.CHUNK + 5, 2, 13, 1]
        take = search._stream(random.Random(seed), q1)
        got = [take(count) for count in sizes]
        assert [len(values) for values in got] == sizes
        assert all(values.dtype == np.uint32 for values in got)
        ref = random.Random(seed)
        assert np.concatenate(got).tolist() == [ref.randrange(q1)
                                                for _ in range(sum(sizes))]

    @pytest.mark.parametrize("name, samples", [
        ("fb1410", 1), ("fb1410", search.CHUNK + 13), ("rs64_gf81", search.CHUNK + 13)],
        ids=["1", str(search.CHUNK + 13), f"rs64_gf81-{search.CHUNK + 13}"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_search_candidates_are_the_stdlib_stream(self, request, monkeypatch,
                                                     name, samples, seed):
        code = request.getfixturevalue(name)
        sub = SubpacketizationSpec(code, 1)
        seen = _record_chunks(monkeypatch)
        # a single sample may well be infeasible; the stream is still drawn
        with contextlib.suppress(NoFeasibleFound):
            random_search(SearchConfig(sub, 3, mode="random", samples=samples,
                                       seed=seed))
        rng = random.Random(seed)
        q1, free = code.field.q - 1, code.r * sub.beta - 1
        ref = [[0] + [rng.randrange(q1) for _ in range(free)] for _ in range(samples)]
        assert np.vstack(seen).tolist() == ref

    def test_criterion_9_stream(self, fb1410):
        # the frozen winner of the 100k-sample fb1410 node-1 search, seed 0
        result = random_search(SearchConfig(SubpacketizationSpec(fb1410, 1), 1,
                                            mode="random", samples=100_000, seed=0))
        assert result.best.flat_exps() == [0, 101, 162, 222, 104, 87, 11, 80]
        assert result.best_report.total_bits == 65


class TestBatch:
    @pytest.mark.parametrize("name, s", [
        ("fb1410", 1), ("fb1410", 2), ("rs53", 1), ("rs64", 1), ("rs64", 2),
        ("rs64_gf81", 1), ("rs64_gf81", 2), ("rs64_gf15625", 1), ("rs64_gf15625", 3)])
    def test_batch_matches_scalar(self, request, name, s):
        code = request.getfixturevalue(name)
        sub = SubpacketizationSpec(code, s)
        q1 = code.field.q - 1
        draw = random.Random(f"{name}:{s}")
        # a middle node splits the other nodes in two runs
        for failed in (1, 2, code.k):
            ev = SchemeEvaluator(sub, failed)
            flats = [[draw.randrange(q1) for _ in range(code.r * sub.beta)]
                     for _ in range(2000)]
            want = [total for feasible, total in map(ev.evaluate, flats)]
            # only what was ranked: the ascending indices of the feasible
            # tuples, their totals and their k gammas, a C-ordered row each
            ok, totals, gammas = ev.evaluate_batch(np.array(flats))
            assert ok.tolist() == [i for i, total in enumerate(want) if total is not None]
            assert totals.tolist() == [want[i] for i in ok]
            assert 0 < len(ok) < len(flats)
            assert gammas.shape == (len(ok), code.k) and gammas.flags.c_contiguous
            # the gammas of a feasible tuple are its report's
            for i, row in zip(ok.tolist(), gammas.tolist()):
                if i >= 200:
                    break
                report = gamma_ranks(RepairScheme.from_flat(sub, failed, flats[i]))
                assert tuple(row) == report.gammas

    @pytest.mark.parametrize("name", ["fb1410", "rs64_gf81"])
    def test_batch_reduces_its_input(self, request, name):
        # exponents outside [0, q-1), negative ones included, score as their
        # residues; in-range input is used as it is, and left unchanged
        code = request.getfixturevalue(name)
        sub = SubpacketizationSpec(code, 1)
        q1 = code.field.q - 1
        draw = random.Random(name)
        flats = np.array([[draw.randrange(q1) for _ in range(code.r * sub.beta)]
                          for _ in range(500)])
        moved = flats + q1 * np.array([[draw.randrange(-3, 4) for _ in row]
                                       for row in flats])
        kept = flats.copy()
        ev = SchemeEvaluator(sub, 2)
        assert _lists(ev.evaluate_batch(moved)) == _lists(ev.evaluate_batch(flats))
        assert np.array_equal(flats, kept)

    def test_unsigned_exponents_from_2_63(self, fb1410):
        # uint64 exponents from 2^63 score as their residues on both routes:
        # the criterion-9 winner with 255 * 2^56 added to slot 1 is the
        # winner, at 65 bits, for evaluate and both scorers
        ev = SchemeEvaluator(SubpacketizationSpec(fb1410, 1), 1)
        flats = np.array([[0, 101, 162, 222, 104, 87, 11, 80]], dtype=np.uint64)
        flats[0, 1] += np.uint64(255 << 56)
        assert flats[0, 1] >= 2 ** 63
        assert ev.evaluate(flats[0].tolist()) == (True, 65)
        assert _lists(ev.evaluate_batch(flats))[:2] == ([0], [65])
        assert _lists(ev.evaluate_completions(flats[:, :7], range(80, 81)))[:2] == ([0], [65])

    @pytest.mark.parametrize("name", ["fb1410", "rs64_gf81"])
    def test_chunks_of_no_and_all_feasible(self, request, name):
        # a chunk with no feasible candidate and one with nothing else, on
        # both scorers: the completions are heads with the last exponent 0
        code = request.getfixturevalue(name)
        sub = SubpacketizationSpec(code, 1)
        q1, k = code.field.q - 1, code.k
        draw = random.Random(name)
        ev = SchemeEvaluator(sub, 2)
        flats = [[*(draw.randrange(q1) for _ in range(code.r * sub.beta - 1)), 0]
                 for _ in range(300)]
        scored = list(map(ev.evaluate, flats))
        for feasible in (False, True):
            chunk = np.array([flat for flat, (ok, _) in zip(flats, scored) if ok == feasible])
            totals = [total for ok, total in scored if ok] if feasible else []
            assert len(chunk)
            ok, got, gammas = ev.evaluate_batch(chunk)
            assert ok.tolist() == list(range(len(totals))) and got.tolist() == totals
            assert gammas.shape == (len(totals), k)
            ok, got, gammas = ev.evaluate_completions(chunk[:, :-1], range(1))
            assert ok.tolist() == list(range(len(totals))) and got.tolist() == totals
            assert gammas.shape == (len(chunk), k, 1)

    @pytest.mark.parametrize("name", ["rs64", "fb1410", "rs64_gf81"])
    def test_evaluators_read_the_field_rank_keys(self, request, name, monkeypatch, rng):
        # GF(2^4), GF(2^8), GF(3^4): the field builds the key table once and
        # each spec its node keys once, from it; no evaluator, for any failed
        # node or s, keeps a table of its own
        code = request.getfixturevalue(name)
        field = code.field
        rank_keys = field.rank_keys
        assert not rank_keys.flags.writeable
        if field.p == 2:
            # the smallest unsigned dtype holding q-1
            assert rank_keys.dtype == (np.uint8 if field.q <= 256 else np.uint16)
            assert len(rank_keys) == 2 * (field.q - 1)
        for s in (1, 2):
            sub = SubpacketizationSpec(code, s)
            node_keys = sub.node_keys
            assert node_keys.dtype == rank_keys.dtype
            read = []
            take = np.take

            def recording(table, *args, **kwargs):
                read.append(table)
                return take(table, *args, **kwargs)

            monkeypatch.setattr(np, "take", recording)
            for failed in range(1, code.k + 1):
                ev = SchemeEvaluator(sub, failed)
                assert not [k for k, v in vars(ev).items()
                            if isinstance(v, np.ndarray)]
                ev.evaluate_batch(np.array(
                    [[rng.randrange(field.q - 1) for _ in range(code.r * sub.beta)]
                     for _ in range(50)]))
                assert ev.sub.node_keys is node_keys
            monkeypatch.undo()
            # every gather reads a view of this spec's node keys
            assert read and all(np.shares_memory(table, node_keys) for table in read)

    def test_odd_p_search_never_calls_evaluate(self, rs64_gf81, monkeypatch):
        cfgs = _odd_p_searches(rs64_gf81)
        before = list(map(_outcome, cfgs))

        def refuse(self, flat_exps):
            raise AssertionError("search scored a candidate with evaluate")

        monkeypatch.setattr(SchemeEvaluator, "evaluate", refuse)
        assert list(map(_outcome, cfgs)) == before

    def test_odd_p_search_ranks_in_batches(self, rs64_gf81, monkeypatch, rng):
        # odd p has one element kernel: a report or a rank_over_subfield
        # ranks all its sets in one zech_rank_batch call, and a search ranks
        # only in batches, one elimination per block set and chunk, and
        # takes its winner's report from them: no report-sized call
        calls = []
        for name in ("zech_rank_batch", "zech_echelon_batch"):
            def counting(cols, *args, name=name, kernel=getattr(linalg, name)):
                calls.append((name, cols.shape[1]))
                return kernel(cols, *args)

            monkeypatch.setattr(linalg, name, counting)

        def rank_calls(run, *args):
            calls.clear()
            run(*args)
            return [n for name, n in calls if name == "zech_rank_batch"]

        field, k = rs64_gf81.field, rs64_gf81.k
        for s in (1, 2):
            sub = SubpacketizationSpec(rs64_gf81, s)
            flat = [rng.randrange(field.q - 1) for _ in range(rs64_gf81.r * sub.beta)]
            scheme = RepairScheme.from_flat(sub, 1, flat)
            assert rank_calls(gamma_ranks, scheme) == [k]
            elems = [field.element(rng.randrange(field.q - 1)) for _ in range(3)]
            assert rank_calls(rank_over_subfield, elems, sub.subfield) == [1]
        for cfg in _odd_p_searches(rs64_gf81):
            # each search is one chunk: a random chunk's two eliminations,
            # its two zech_rank_batch calls, or exhaustive search's one head
            # echelon, whose pivots each completion's one key is reduced
            # against; no report is ranked after
            ranked = rank_calls(_outcome, cfg)
            assert k not in ranked
            assert len(ranked) == (2 if cfg.mode == "random" else 0)
            assert sum(name == "zech_echelon_batch" for name, _ in calls) == (
                2 if cfg.mode == "random" else 1)

    def test_gf2_search_ranks_in_batches(self, rs64, fb1410, monkeypatch, rng):
        # the p = 2 twin: a report ranks its sets on python ints, with no
        # batch kernel, and a search ranks only in batches, one elimination
        # per block set and chunk, and takes its winner's report from them
        calls = []
        for name in ("bit_rank_batch", "bit_echelon_batch"):
            def counting(cols, *args, name=name, kernel=getattr(linalg, name)):
                calls.append((name, cols.shape[1]))
                return kernel(cols, *args)

            monkeypatch.setattr(linalg, name, counting)
        for code in (rs64, fb1410):
            sub = SubpacketizationSpec(code, 1)
            flat = [rng.randrange(code.field.q - 1) for _ in range(code.r * sub.beta)]
            calls.clear()
            gamma_ranks(RepairScheme.from_flat(sub, 1, flat))
            assert calls == []
        for cfg in (SearchConfig(SubpacketizationSpec(rs64, 2), 1),
                    SearchConfig(SubpacketizationSpec(rs64, 1), 2, mode="random",
                                 samples=1500, seed=3),
                    SearchConfig(SubpacketizationSpec(fb1410, 1), 3, mode="random",
                                 samples=2000, seed=3)):
            # one chunk: a random chunk's two eliminations, its two
            # bit_rank_batch calls, the failed node's N sets and the
            # feasible tuples' k sets each; exhaustive search's one head
            # echelon, whose pivots each completion's one key is reduced
            # against
            calls.clear()
            _outcome(cfg)
            ranked = [n for name, n in calls if name == "bit_rank_batch"]
            k = cfg.sub.code.k
            assert sum(name == "bit_echelon_batch" for name, _ in calls) == (
                2 if cfg.mode == "random" else 1)
            if cfg.mode == "random":
                assert ranked[0] == cfg.samples and ranked[1] % k == 0
                assert k not in ranked
            else:
                assert ranked == []

    def test_batch_rejects_malformed_tuples(self, fb1410):
        # as evaluate does: a tuple of the wrong length, or a batch that is
        # not an (N, slots) integer array, raises before anything is ranked
        sub = SubpacketizationSpec(fb1410, 1)
        ev = SchemeEvaluator(sub, 1)
        with pytest.raises(DimensionMismatch):
            ev.evaluate([0] * 7)
        with pytest.raises(DimensionMismatch):
            ev.evaluate_batch(np.zeros((5, 7), dtype=np.int64))
        with pytest.raises(DimensionMismatch):
            ev.evaluate_batch(np.zeros(8, dtype=np.int64))
        with pytest.raises(DimensionMismatch):
            ev.evaluate_batch(np.zeros((2, 3, 8), dtype=np.int64))
        with pytest.raises(ParseError):
            ev.evaluate_batch([[0.5] * 8])
        with pytest.raises(ParseError):
            ev.evaluate_batch(np.ones((3, 8), dtype=bool))
        # integer input of any width is read as int64
        flats = np.array([[0, 1, 2, 3, 4, 5, 6, 7]])
        want = _lists(ev.evaluate_batch(flats))
        assert _lists(ev.evaluate_batch(flats.astype(np.uint8))) == want
        assert _lists(ev.evaluate_batch(flats.tolist())) == want

    def test_small_chunks_same_winners(self, rs53, rs64, fb1410, monkeypatch):
        cfgs = [SearchConfig(SubpacketizationSpec(code, s), node)
                for code, s in ((rs53, 1), (rs64, 1), (rs64, 2))
                for node in range(1, code.k + 1)]
        cfgs.append(SearchConfig(SubpacketizationSpec(fb1410, 1), 2,
                                 mode="random", samples=300, seed=9))

        before = list(map(_outcome, cfgs))
        monkeypatch.setattr(search, "CHUNK", 7)
        assert list(map(_outcome, cfgs)) == before

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundary_same_outcome(self, fb1410, rs64_gf81, monkeypatch, offset):
        # samples = CHUNK - 1, CHUNK, CHUNK + 1: one chunk short of full, one
        # full chunk, and a full chunk plus a single candidate, against the
        # same searches in 7-row chunks
        samples = search.CHUNK + offset
        cfgs = [SearchConfig(SubpacketizationSpec(fb1410, 1), 2, mode="random",
                             samples=samples, seed=11),
                SearchConfig(SubpacketizationSpec(rs64_gf81, 2), 3, mode="random",
                             samples=samples, seed=11)]
        before = list(map(_outcome, cfgs))
        assert [evaluated for _, _, evaluated, _ in before] == [samples] * 2
        monkeypatch.setattr(search, "CHUNK", 7)
        assert list(map(_outcome, cfgs)) == before

    def test_rank_not_multiple_of_s_rejected(self, rs64, monkeypatch):
        monkeypatch.setattr(linalg, "bit_rank_batch",
                            lambda cols, m: np.full(cols.shape[1], 3))
        ev = SchemeEvaluator(SubpacketizationSpec(rs64, 2), 1)
        with pytest.raises(InvalidMatrix):
            ev.evaluate_batch(np.array([[0, 1], [2, 3]]))

    def test_rank_not_multiple_of_s_rejected_odd_p(self, rs64_gf81, monkeypatch):
        monkeypatch.setattr(linalg, "zech_rank_batch",
                            lambda cols, *tables: np.full(cols.shape[1], 3))
        ev = SchemeEvaluator(SubpacketizationSpec(rs64_gf81, 2), 1)
        with pytest.raises(InvalidMatrix):
            ev.evaluate_batch(np.array([[0, 1], [2, 3]]))


class TestCompletions:
    @pytest.mark.parametrize("name", ["rs53", "rs64", "fb1410", "rs64_gf81"])
    @pytest.mark.parametrize("s", [1, 2])
    def test_completions_are_evaluate_batch(self, request, name, s):
        # every completion of random heads scores as evaluate_batch scores
        # the full tuple; heads with a repeated exponent in one parity are
        # rank-deficient (zero pivots), and heads whose elements at one
        # node all lie in the prime field put that node's pivots at
        # position 0, below most last elements
        code = request.getfixturevalue(name)
        sub = SubpacketizationSpec(code, s)
        p, q1, beta = code.field.p, code.field.q - 1, sub.beta
        slots = code.r * beta
        draw = random.Random(f"{name}:{s}")
        heads = [[draw.randrange(q1) for _ in range(slots - 1)] for _ in range(20)]
        for head in heads[:6]:
            j = draw.randrange(slots - 1)
            head[j] = head[j - j % beta]
        for row in sub.slot_shifts[:3]:
            heads.append([(draw.randrange(p - 1) * (q1 // (p - 1)) - shift) % q1
                          for shift in row[:slots - 1]])
        heads = np.array(heads)
        flats = np.array([[*head, last] for head in heads.tolist() for last in range(q1)])
        for failed in (1, 2, code.k):
            ev = SchemeEvaluator(sub, failed)
            want = ev.evaluate_batch(flats)
            ok, totals, gammas = ev.evaluate_completions(heads, range(q1))
            # the same feasible indices h * (q-1) + v and totals, and every
            # node's gammas of each feasible completion at [h, :, v]
            assert _lists((ok, totals)) == _lists(want[:2])
            assert 0 < len(ok) < len(flats)
            assert gammas.shape == (len(heads), code.k, q1)
            assert gammas.swapaxes(1, 2).reshape(-1, code.k)[ok].tolist() == want[2].tolist()
            for lasts in (range(3), range(5, 9), range(q1 - 1, q1)):
                part = ev.evaluate_completions(heads, lasts)
                assert part[2].tolist() == gammas[..., lasts.start:lasts.stop].tolist()
                inside = [(i // q1, i % q1 - lasts.start, total)
                          for i, total in zip(ok.tolist(), totals.tolist()) if i % q1 in lasts]
                assert _lists(part[:2]) == ([h * len(lasts) + v for h, v, _ in inside],
                                            [total for _, _, total in inside])

    def test_completions_reject_malformed_input(self, fb1410):
        sub = SubpacketizationSpec(fb1410, 1)
        ev = SchemeEvaluator(sub, 2)
        heads = np.zeros((3, 7), dtype=np.int64)
        assert ev.evaluate_completions(heads, range(250, 255))[2].shape == (3, 10, 5)
        # a head is slots-1 = 7 exponents
        for bad in (np.zeros((3, 6), dtype=np.int64), np.zeros((3, 8), dtype=np.int64),
                    np.zeros(7, dtype=np.int64)):
            with pytest.raises(DimensionMismatch):
                ev.evaluate_completions(bad, range(5))
        with pytest.raises(ParseError):
            ev.evaluate_completions(heads.astype(float), range(5))
        # the last exponents: a range of step 1 in [0, q-1)
        for lasts in (range(-1, 5), range(250, 256), range(300, 301), range(5, 3)):
            with pytest.raises(DimensionMismatch):
                ev.evaluate_completions(heads, lasts)
        for lasts in (range(0, 10, 2), range(5, 0, -1), [0, 1, 2]):
            with pytest.raises(ParseError):
                ev.evaluate_completions(heads, lasts)

    @pytest.mark.parametrize("name", ["fb1410", "rs64_gf81"])
    def test_completions_of_nothing(self, request, name):
        # no head, or an empty range of last exponents, scores no completion,
        # as evaluate_batch scores no tuple
        sub = SubpacketizationSpec(request.getfixturevalue(name), 1)
        q1, k, width = sub.code.field.q - 1, sub.code.k, sub.code.r * sub.beta
        ev = SchemeEvaluator(sub, 1)
        assert _lists(ev.evaluate_batch(np.zeros((0, width), dtype=np.int64)))[:2] == ([], [])
        for h, lasts in ((0, range(q1)), (3, range(5, 5)), (0, range(0))):
            ok, totals, gammas = ev.evaluate_completions(
                np.zeros((h, width - 1), dtype=np.int64), lasts)
            assert (ok.tolist(), totals.tolist()) == ([], [])
            assert gammas.shape == (h, k, len(lasts))

    @pytest.mark.parametrize("name, kernel", [("rs64", "bit_extend_batch"),
                                              ("rs64_gf81", "zech_extend_batch")])
    def test_rank_not_multiple_of_s_rejected(self, request, monkeypatch, name, kernel):
        # exhaustive search checks every head rank, from which the ranks of
        # the extended sets follow
        monkeypatch.setattr(linalg, kernel, lambda rows, pivots, *tables: (
            np.full(len(rows), 3, dtype=np.uint8), np.zeros(rows.shape, dtype=bool)))
        sub = SubpacketizationSpec(request.getfixturevalue(name), 2)
        with pytest.raises(InvalidMatrix):
            exhaustive_search(SearchConfig(sub, 1))


class TestConfig:
    def test_mode_validated(self, rs53):
        with pytest.raises(ValueError):
            SearchConfig(SubpacketizationSpec(rs53, 1), 1, mode="annealing")

    def test_node_validated(self, rs53):
        with pytest.raises(ValueError):
            SearchConfig(SubpacketizationSpec(rs53, 1), 9)

    @pytest.mark.parametrize("failed", [True, 1.0, 2.5, "1"])
    def test_non_integer_node_rejected(self, rs53, failed):
        with pytest.raises(ParseError, match="failed node"):
            SearchConfig(SubpacketizationSpec(rs53, 1), failed)

    def test_search_refuses_the_other_mode(self, rs53):
        sub = SubpacketizationSpec(rs53, 1)
        with pytest.raises(ValueError, match="random-mode"):
            exhaustive_search(SearchConfig(sub, 1, mode="random", samples=5))
        with pytest.raises(ValueError, match="exhaustive-mode"):
            random_search(SearchConfig(sub, 1))

    @pytest.mark.parametrize("seed", [-5, -1, 1.5, "5", True, None])
    def test_seed_validated(self, rs53, seed):
        # random.seed takes abs() of an int: seed -5 would replay seed 5
        with pytest.raises(ValueError, match="seed"):
            SearchConfig(SubpacketizationSpec(rs53, 1), 1, mode="random", seed=seed)

    def test_space_size(self, rs53, fb1410):
        assert SearchConfig(SubpacketizationSpec(rs53, 1), 1).space_size == 15 ** 3
        assert SearchConfig(SubpacketizationSpec(fb1410, 1), 1).space_size == 255 ** 7


def test_searches_never_import_numpy_random():
    # numpy.random costs about 6 MiB of resident memory, more than a search
    # holds at its peak; the draws come from the stdlib Mersenne Twister.
    # NumPy before 2.0 loads it on its own import, so only what the
    # searches add counts
    probe = """\
import sys
import numpy
def loaded():
    return {m for m in sys.modules if m.startswith("numpy.random")}
before = loaded()
from mdsrepair import bundled
from mdsrepair.repair import SubpacketizationSpec
from mdsrepair.search import SearchConfig, exhaustive_search, random_search
random_search(SearchConfig(SubpacketizationSpec(bundled.load_code("fb1410"), 1), 1,
                           mode="random", samples=5000, seed=0))
exhaustive_search(SearchConfig(SubpacketizationSpec(bundled.load_code("rs64"), 1), 1))
print(sorted(loaded() - before))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["[]"]
