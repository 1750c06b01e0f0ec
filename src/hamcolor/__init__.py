"""Hamiltonian colorings of block graphs.

Generate block-graph families, measure their detour metrics, evaluate
the general span lower bound and the family closed forms, construct
bound-achieving colorings for symmetric block graphs, and verify
everything against brute-force oracles at small scale.
"""

__version__ = "0.1.0"

from .coloring import (
    ColorResult,
    ConditionReport,
    HamColoring,
    check_ordering_conditions,
    color_graph,
    coloring_from_ordering,
    greedy_min_coloring_for_ordering,
    greedy_ordering,
    sym_ordering,
    validate_coloring,
)
from .detour import (
    DetourProfile,
    branch_relation,
    detour_distance,
    detour_matrix,
    detour_profile,
)
from .errors import (
    BudgetExceededError,
    CyclicBlockStructureError,
    DanglingVertexError,
    DisconnectedError,
    GraphStructureError,
    HamcolorError,
    InvalidSpecError,
    NegativeGapError,
    NotAPermutationError,
    NotSymmetricError,
    OutOfStatedRangeWarning,
    OverlappingBlocksError,
    SameVertexError,
    SizeMismatchError,
)
from .exact import SearchBudget, brute_longest_path, exact_hc
from .families import (
    SymmetricCoordinates,
    SymmetricSpec,
    gen_path,
    gen_random_block_graph,
    gen_star,
    gen_symmetric,
    gen_union,
    symmetric_coordinates,
)
from .formulas import (
    lower_bound,
    path_hc,
    phi,
    star_hc,
    sym_hc,
    sym_order_count,
    sym_total_level,
    union_hc,
)
from .graphs import (
    BlockCutTree,
    BlockGraph,
    from_json,
    to_dot,
    to_json,
)

__all__ = [
    "__version__",
    "BlockCutTree",
    "BlockGraph",
    "ColorResult",
    "ConditionReport",
    "DetourProfile",
    "HamColoring",
    "SearchBudget",
    "SymmetricCoordinates",
    "SymmetricSpec",
    "branch_relation",
    "brute_longest_path",
    "check_ordering_conditions",
    "color_graph",
    "coloring_from_ordering",
    "detour_distance",
    "detour_matrix",
    "detour_profile",
    "exact_hc",
    "from_json",
    "gen_path",
    "gen_random_block_graph",
    "gen_star",
    "gen_symmetric",
    "gen_union",
    "greedy_min_coloring_for_ordering",
    "greedy_ordering",
    "lower_bound",
    "path_hc",
    "phi",
    "star_hc",
    "sym_hc",
    "sym_order_count",
    "sym_ordering",
    "sym_total_level",
    "symmetric_coordinates",
    "to_dot",
    "to_json",
    "union_hc",
    "validate_coloring",
    "BudgetExceededError",
    "CyclicBlockStructureError",
    "DanglingVertexError",
    "DisconnectedError",
    "GraphStructureError",
    "HamcolorError",
    "InvalidSpecError",
    "NegativeGapError",
    "NotAPermutationError",
    "NotSymmetricError",
    "OutOfStatedRangeWarning",
    "OverlappingBlocksError",
    "SameVertexError",
    "SizeMismatchError",
]
