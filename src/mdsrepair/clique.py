"""Optimal repair of 2-parity codes at beta = 1 over the half-degree subfield.

For an (n, n-2) code over GF(p^m) with m even and a normalized first parity
column, put systematic nodes i and j in the same clique iff the ratio of
their second-parity coefficients lies in GF(p^(m/2)).  The relation is
transitive (the nonzero subfield is a multiplicative subgroup, so cliques
are its cosets), and node i cannot be repaired with fewer than
M - C_i * alpha / 2 subfield symbols, where C_i is the size of the largest
clique avoiding i.  Picking the repair element mu as the inverse of the
second-parity coefficient of any node in that clique achieves the bound:
mu aligns that whole clique's interference to rank 1 while every other
block stays full.
"""

from __future__ import annotations


from ._value import Value
from .codes import CodeSpec
from .errors import (CliqueBoundMissed, NotNormalized, NotTwoParity,
                     OddExtensionDegree, as_node)
from .gf import FieldElement
from .repair import RepairScheme, SubpacketizationSpec, gamma_ranks


class CliquePartition(Value):
    """Disjoint cliques (cosets of the half-degree subfield's multiplicative
    group) covering the systematic nodes, ordered by smallest member."""

    sub: SubpacketizationSpec
    cliques: tuple


class CliqueRepair(Value):
    """find_repair outcome: the scheme, its repair element mu, and whether
    the partition was degenerate (single clique, no gain over naive)."""

    scheme: RepairScheme
    mu: FieldElement
    bound: int
    degenerate: bool
    chosen_clique: tuple | None


def generate_clique(code: CodeSpec) -> CliquePartition:
    """Partition the systematic nodes by subfield-membership of pairwise
    second-parity coefficient ratios."""
    if code.r != 2:
        raise NotTwoParity(f"code has {code.r} parities, clique repair needs 2")
    if code.field.m % 2:
        raise OddExtensionDegree(f"extension degree {code.field.m} is odd")
    if any(row[0] != code.field.one() for row in code.parity):
        raise NotNormalized(
            "first parity column must be all ones (apply normalize_parity)")
    sub = SubpacketizationSpec(code, code.field.m // 2)
    subfield = sub.subfield
    cliques: list[list[int]] = []
    for i in range(1, code.k + 1):
        coeff = code.parity[i - 1][1]
        for c in cliques:
            rep = code.parity[c[0] - 1][1]
            if subfield.contains(coeff / rep):
                c.append(i)
                break
        else:
            cliques.append([i])
    return CliquePartition(sub, tuple(tuple(c) for c in cliques))


def _largest_avoiding(part: CliquePartition, i: int):
    """Largest clique not containing i; ties broken toward the clique with
    the smallest member.  None when every node shares one clique."""
    best = None
    for c in part.cliques:
        if i not in c and (best is None or len(c) > len(best)):
            best = c
    return best


def clique_bound(part: CliquePartition, i: int) -> int:
    """Repair bandwidth lower bound for node i, in GF(p^(m/2)) symbols:
    M - C_i * alpha / 2 (alpha = 2 here, so M - C_i)."""
    i = as_node(i, part.sub.code.k)
    c = _largest_avoiding(part, i)
    c_i = len(c) if c else 0
    return part.sub.file_size - (c_i * part.sub.alpha) // 2


def find_repair(part: CliquePartition, i: int) -> CliqueRepair:
    """Build the bandwidth-optimal scheme for node i.

    Picks the largest clique avoiding i, takes its lowest-index node l and
    mu = inverse of l's second-parity coefficient.  When the partition is a
    single clique no alignment is possible; the result is flagged
    degenerate and carries a naive-bandwidth scheme (smallest feasible mu).
    """
    code = part.sub.code
    i = as_node(i, code.k)
    target = _largest_avoiding(part, i)
    one = code.field.one()
    if target is not None:
        mu = code.parity[target[0] - 1][1].inverse()
        degenerate = False
    else:
        # any mu keeping the useful block full rank; take the smallest
        mu = next(
            e for e in code.field.nonzero_elements()
            if not part.sub.subfield.contains(e * code.parity[i - 1][1]))
        degenerate = True
    scheme = RepairScheme(part.sub, i, ((one,), (mu,)))
    report = gamma_ranks(scheme)
    bound = clique_bound(part, i)
    if not report.feasible or (not degenerate and report.total_bw != bound):
        raise CliqueBoundMissed(
            f"clique repair promise violated for node {i}: "
            f"feasible={report.feasible}, total={report.total_bw}, bound={bound}")
    return CliqueRepair(scheme, mu, bound, degenerate,
                        tuple(target) if target else None)
