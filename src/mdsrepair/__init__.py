"""Repair-bandwidth toolkit for scalar MDS storage codes.

Vectorizes codes over subfields, evaluates and searches repair schemes
expressed as repair field elements, and implements the optimal clique
repair strategy for 2-parity codes.
"""

__version__ = "0.1.0"

from .bundled import bundled_code, bundled_scheme, bundled_schemes
from .clique import CliquePartition, CliqueRepair, clique_bound, find_repair, generate_clique
from .codes import (CodeSpec, Codeword, encode, normalize_parity, rs_systematic,
                    systematic_on, verify_mds)
from .gf import (
    FieldElement,
    FieldSpec,
    SubfieldSpec,
    find_left_operator,
    rank_over_subfield,
    subfield_coords,
)
from .repair import (
    MatrixScheme,
    RecoveryResult,
    RepairReport,
    RepairScheme,
    SubpacketizationSpec,
    baselines,
    gamma_ranks,
    gamma_ranks_matrix,
    lift_scheme,
    realize_matrices,
    recover_node,
    scheme_from_json,
)
from .search import SearchConfig, SearchResult, exhaustive_search, random_search

__all__ = [
    "__version__",
    "FieldSpec", "FieldElement", "SubfieldSpec",
    "find_left_operator", "rank_over_subfield", "subfield_coords",
    "CodeSpec", "Codeword", "rs_systematic", "normalize_parity", "systematic_on",
    "verify_mds", "encode",
    "SubpacketizationSpec", "baselines",
    "RepairScheme", "RepairReport", "MatrixScheme", "RecoveryResult",
    "gamma_ranks", "lift_scheme", "realize_matrices", "gamma_ranks_matrix",
    "recover_node", "scheme_from_json",
    "CliquePartition", "CliqueRepair", "generate_clique", "clique_bound", "find_repair",
    "SearchConfig", "SearchResult", "exhaustive_search", "random_search",
    "bundled_code", "bundled_scheme", "bundled_schemes",
]
