"""Minimum path covers, maximum antichains and width-preserving
sparsification of DAGs, built around an incremental parameterized solver."""

from . import errors
from .antichain import chain_cover_from_mpc, max_antichain, max_antichain_from_flow
from .dag import (Dag, PathCover, build_dag, gen_random_dag, prefix, reaches,
                  remark_family)
from .flow import (Flow, FlowNetwork, check_flow, decompose, flow_from_cover,
                   reduce)
from .incremental import (K2, K3, LevelAssignment, SolverState, SolveResult,
                          TraversalResult, solve)
from .oracle import oracle_max_antichain, oracle_width, validate_cover
from .shrink import shrink
from .sparsify import sparsify_all, sparsify_vertex
from .thinning import (RedCycle, SupportGraph, cover_support,
                       eliminate_red_cycle, splice, thin,
                       width_preserving_sparsify)

__all__ = [
    "errors",
    "Dag", "PathCover", "build_dag", "prefix", "reaches", "gen_random_dag",
    "remark_family",
    "Flow", "FlowNetwork", "reduce", "flow_from_cover", "decompose",
    "check_flow",
    "sparsify_vertex", "sparsify_all",
    "K2", "K3", "SolverState", "SolveResult", "TraversalResult",
    "LevelAssignment", "solve",
    "shrink",
    "max_antichain", "max_antichain_from_flow", "chain_cover_from_mpc",
    "RedCycle", "SupportGraph", "splice", "thin", "cover_support",
    "eliminate_red_cycle",
    "width_preserving_sparsify",
    "oracle_width", "oracle_max_antichain", "validate_cover",
]
