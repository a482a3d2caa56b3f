"""Exact next-to-shortest (strictly second-shortest) simple paths on
directed graphs with positive weights."""

from types import ModuleType as _ModuleType

from .disjoint import (
    CyclicGraphError,
    DisjointPathPair,
    ForwardDag,
    SharedTerminalError,
    topological_order,
    two_disjoint_paths,
)
from .generate import layered_digraph, random_digraph
from .graph import (
    DistanceTable,
    Edge,
    GraphFormatError,
    InternalInvariantError,
    InvalidPathError,
    Path,
    PathCheck,
    SolveOutcome,
    WeightedDigraph,
    format_weight,
    is_layered,
    is_straight,
    parse_graph,
    path_weight,
    serialize_graph,
    shortest_distances,
    validate_path,
)
from .oracle import (
    BudgetExceeded,
    exhaustive_next_to_shortest,
    exhaustive_two_disjoint_paths,
    ranked_next_to_shortest,
    simple_paths,
)
from .pipeline import PipelineResult, solve, solve_detailed
from .reduction import (
    BackEdgeRemoval,
    EliminationRecord,
    ReductionTrace,
    TraceError,
    apply_step,
    layerize,
    lift_path,
    straighten,
)
from .solver import shortest_path_avoiding, solve_layered

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
