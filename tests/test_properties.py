"""Property tests across the two repair routes, over p in {2, 3, 5, 7}.

The element route (``gamma_ranks``, ranked by ``SubfieldSpec.rank_exps``)
and the explicit-matrix route (``realize_matrices`` +
``gamma_ranks_matrix`` and ``recover_node``) share no rank code, so each
checks the other.  For odd p the element route ranks with the batch kernel
(``linalg.zech_rank_batch``) that ``SchemeEvaluator.evaluate_batch`` runs,
so there the matrix route is the one independent check of both.  The
matrix route realizes its equations from the one table per field
(``FieldSpec.unit_functional``), a reference row being a log shift into it,
which ``realize_matrices`` gathers and ``recover_node`` reads on python
ints.
``gamma_ranks_matrix`` multiplies operators, then ranks each node's block
on python ints like ``recover_node`` eliminates: by ``linalg.echelon_bits``
on bit-rows for p = 2, here on GF(2^4) and GF(2^8), and by
``linalg.rref_rows`` on lists for odd p.  ``test_routes_agree``
runs the same number of examples on every (code, s) of ``SUBS``, so each
reaches ``recover_node`` on feasible schemes.  The batched scorer
``SchemeEvaluator.evaluate_batch`` is checked against the matrix route too,
and the sub-symbols that ``recover_node`` returns (``subfield_coords``)
against element arithmetic, at s = 1, 2, 3 and 4.  One ``recover_node``
takes about 0.03 ms on RS(5,3) over GF(2^4) and 0.08 ms on RS(6,4) over
GF(3^4) (0.07 and 0.10 ms with the operator products it replaced), and
one matrix report about 0.09 ms on fb1410 (0.35 ms when each block went
through ``linalg.rank_mod_p``) and 0.07 ms on RS(6,4) over GF(3^4).

A search takes its winner's report from the gammas of the batch that
scored it, so ``test_exhaustive_report_is_both_routes`` and
``test_random_report_is_both_routes`` check that report against both
routes, on the bundled codes and RS(6,4) over GF(3^4) at s = 1 and 2, with
random chunks of 7, 100 and ``CHUNK`` candidates.
"""

from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mdsrepair import search
from mdsrepair.bundled import bundled_code
from mdsrepair.codes import encode, normalize_parity, rs_systematic
from mdsrepair.errors import NoFeasibleFound
from mdsrepair.gf import FieldSpec
from mdsrepair.repair import (
    RepairScheme,
    SchemeEvaluator,
    SubpacketizationSpec,
    gamma_ranks,
    gamma_ranks_matrix,
    lift_scheme,
    realize_matrices,
    recover_node,
)
from mdsrepair.search import SearchConfig, exhaustive_search, random_search

# deterministic and bounded, so the suite stays reproducible and fast
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


GF16, GF81, GF25, GF49 = (FieldSpec(2, [1, 1, 0, 0, 1]), FieldSpec(3, [2, 0, 0, 1, 1]),
                          FieldSpec(5, [2, 1, 1]), FieldSpec(7, [3, 1, 1]))
GF5_6 = FieldSpec(5, [2, 0, 0, 0, 0, 1, 1])  # x^6 + x^5 + 2
GF256 = FieldSpec(2, [1, 0, 1, 1, 1, 0, 0, 0, 1])  # x^8 + x^4 + x^3 + x^2 + 1
RS53, RS64, RS42, RS42_7, RS64_5, RS64_256 = (
    rs_systematic(f, [f.element(i) for i in range(n)], k)
    for f, n, k in ((GF16, 5, 3), (GF81, 6, 4), (GF25, 4, 2), (GF49, 4, 2),
                    (GF5_6, 6, 4), (GF256, 6, 4)))
# every (code, s) with s | m and n-k | m/s
SUBS = [SubpacketizationSpec(code, s)
        for code, s in ((RS53, 1), (RS53, 2), (RS64, 1), (RS64, 2), (RS42, 1),
                        (RS42_7, 1), (RS64_5, 1), (RS64_5, 3), (RS64_256, 1),
                        (RS64_256, 2), (RS64_256, 4))]


@st.composite
def schemes(draw, min_s=1, sub=None):
    if sub is None:
        sub = draw(st.sampled_from([sub for sub in SUBS if sub.s >= min_s]))
    code = sub.code
    # distinct within a parity: a repeated element adds nothing to that
    # parity's span, and most schemes drawn with repeats were infeasible
    exps = st.lists(st.integers(0, code.field.q - 2), min_size=sub.beta,
                    max_size=sub.beta, unique=True)
    failed = draw(st.integers(1, code.k))
    elements = tuple(tuple(map(code.field.element, draw(exps))) for _ in range(code.r))
    return RepairScheme(sub, failed, elements)


# every (code, s) of SUBS gets the same share of examples
@pytest.mark.parametrize("sub", SUBS, ids=lambda sub: (
    f"RS{sub.code.n}{sub.code.k}-GF{sub.code.field.p}^{sub.code.field.m}-s{sub.s}"))
@settings(PROPERTY, max_examples=15)
@given(st.data())
def test_routes_agree(sub, data):
    scheme = data.draw(schemes(sub=sub))
    failed = scheme.failed
    field = sub.code.field
    reference = field.coords_table[data.draw(st.integers(1, field.q - 1))]
    # drawn before the feasibility test, so that every example of a code makes
    # the same number of draws: hypothesis replays an example's prefix with
    # its draw count as the cap, and a feasible scheme's extra draws overran it
    message = [field.element(data.draw(st.integers(0, field.q - 2)))
               for _ in range(sub.code.k)]
    report = gamma_ranks(scheme)
    assert gamma_ranks_matrix(sub, failed, realize_matrices(scheme, reference)) == report
    ok, totals, gammas = SchemeEvaluator(sub, failed).evaluate_batch([scheme.flat_exps()])
    assert ok.tolist() == [0] * report.feasible
    assert totals.tolist() == [report.total_bw] * report.feasible
    if not report.feasible:
        return
    assert tuple(gammas[0].tolist()) == report.gammas
    codeword = encode(sub.code, message)
    result = recover_node(codeword, scheme, reference)
    assert result.element == codeword[failed - 1]
    downloads = {u + 1: g for u, g in enumerate(report.gammas) if u != failed - 1}
    downloads.update({sub.code.k + 1 + l: sub.beta for l in range(sub.code.r)})
    assert result.downloads == downloads
    assert result.total_symbols == report.total_bw
    # the sub-symbols c_j lie in GF(p^s) and sum_j c_j z^j is the element
    assert len(result.symbols) == sub.alpha
    assert all(sub.subfield.contains(c) for c in result.symbols)
    total = field.zero()
    for j, c in enumerate(result.symbols):
        total = total + c * field.element(j)
    assert total == result.element


@PROPERTY
@given(schemes(), st.integers(0, 1 << 16))
def test_scaling_invariance(scheme, c):
    c = scheme.sub.code.field.element(c)
    scaled = RepairScheme(scheme.sub, scheme.failed,
                          tuple(tuple(c * e for e in row) for row in scheme.elements))
    assert gamma_ranks(scaled) == gamma_ranks(scheme)


@PROPERTY
@given(schemes(min_s=2))
def test_lift_keeps_bits(scheme):
    base = gamma_ranks(scheme)
    lifted = gamma_ranks(lift_scheme(scheme, scheme.sub.s))
    assert lifted.gammas == tuple(scheme.sub.s * g for g in base.gammas)
    assert lifted.feasible == base.feasible
    assert lifted.total_bits == base.total_bits


# the bundled codes and RS(6,4) over GF(3^4) at z^0..z^5, normalized, at
# every valid s; fb1410's exhaustive spaces (255^7 at s = 1, 255^3 at s = 2)
# take too long, so it is searched at random only
SEARCHED = [SubpacketizationSpec(code, s)
            for code in (*map(bundled_code, ("rs53", "rs64", "fb1410")),
                         normalize_parity(RS64))
            for s in (1, 2)]
SEARCH_IDS = [f"{sub.code.name or 'RS64-GF3^4'}-s{sub.s}" for sub in SEARCHED]


def _check_search_report(result):
    """A search's report, taken from the batch that scored its winner, is
    what the element route and the matrix route give the winner, in python
    ints."""
    best, report = result.best, result.best_report
    assert report.feasible
    assert all(type(g) is int for g in report.gammas)
    assert report == gamma_ranks(best)
    assert report == gamma_ranks_matrix(best.sub, best.failed, realize_matrices(best))


@pytest.mark.parametrize("sub", [sub for sub in SEARCHED if sub.code.field.q < 256],
                         ids=[i for i, sub in zip(SEARCH_IDS, SEARCHED)
                              if sub.code.field.q < 256])
def test_exhaustive_report_is_both_routes(sub):
    for failed in range(1, sub.code.k + 1):
        _check_search_report(exhaustive_search(SearchConfig(sub, failed)))


@pytest.mark.parametrize("sub", SEARCHED, ids=SEARCH_IDS)
@settings(PROPERTY, max_examples=6)
@given(st.data())
def test_random_report_is_both_routes(sub, data):
    # chunks of 7 and 100 put most winners in a later chunk than the first
    cfg = SearchConfig(sub, data.draw(st.integers(1, sub.code.k)), mode="random",
                       samples=data.draw(st.integers(1, 600)),
                       seed=data.draw(st.integers(0, 2 ** 32 - 1)))
    with mock.patch.object(search, "CHUNK", data.draw(st.sampled_from([7, 100, search.CHUNK]))):
        try:
            result = random_search(cfg)
        except NoFeasibleFound:
            reject()
    _check_search_report(result)
