"""End-to-end next-to-shortest path solve on an arbitrary positively
weighted digraph: straighten, layerize, solve the layered graph, lift the
answer back, and take the minimum against the candidates the reductions
recorded along the way."""
from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    InternalInvariantError,
    Path,
    SolveOutcome,
    WeightedDigraph,
    path_weight,
    shortest_distances,
    validate_path,
)
from .reduction import ReductionTrace, layerize, lift_path, straighten
from .solver import solve_layered


@dataclass(frozen=True)
class PipelineResult:
    outcome: SolveOutcome
    straighten_trace: ReductionTrace
    layerize_trace: ReductionTrace
    layered_graph: WeightedDigraph | None
    layered_outcome: SolveOutcome


def solve(g: WeightedDigraph) -> SolveOutcome:
    """Next-to-shortest s-to-t path of g, or the none-marker."""
    return solve_detailed(g).outcome


def solve_detailed(g: WeightedDigraph) -> PipelineResult:
    """Run the full pipeline and keep the intermediate traces.

    The reported path is the minimum-weight entry of the candidate pool:
    detour paths recorded by the reductions (already in original
    coordinates) plus the lifted layered-graph solution, all weighed in the
    original graph. Ties keep the earliest entry, making the output
    deterministic.
    """
    d = shortest_distances(g)
    dst = d.from_s[g.t]
    if dst is None:
        # No s-to-t path at all, hence no not-shortest one.
        return PipelineResult(
            SolveOutcome.none(), ReductionTrace(), ReductionTrace(), None, SolveOutcome.none()
        )
    g_s, tr_s = straighten(g)
    g_l, tr_l = layerize(g_s)
    layered_sol = solve_layered(g_l)

    pool: list[tuple[Path, int]] = list(tr_s.candidates)
    for p, _w in tr_l.candidates:
        lifted = lift_path(tr_s, p)
        pool.append((lifted, path_weight(g, lifted)))
    if layered_sol.found:
        lifted = lift_path(tr_s, lift_path(tr_l, layered_sol.path))
        pool.append((lifted, path_weight(g, lifted)))

    if not pool:
        outcome = SolveOutcome.none()
    else:
        weight, idx = min((w, i) for i, (_p, w) in enumerate(pool))
        path = pool[idx][0]
        check = validate_path(g, path)
        if not check.simple or check.weight != weight or weight <= dst:
            raise InternalInvariantError(
                f"pipeline produced an invalid answer {path} (weight {weight})"
            )
        outcome = SolveOutcome.of(path, weight)
    return PipelineResult(outcome, tr_s, tr_l, g_l, layered_sol)
