"""End-to-end next-to-shortest path solve on an arbitrary positively
weighted digraph: straighten, layerize, solve the layered graph, lift the
answer back, and take the minimum against the candidates the reductions
recorded along the way."""
from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    SolveOutcome,
    WeightedDigraph,
    check_answer,
    path_weight,
    shortest_distances,
    validate_path,
)
from .reduction import ReductionTrace, incumbent, layerize, lift_path, straighten
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

    The reported path is the minimum-weight entry of the candidate pool,
    weighed in the original graph: straighten's candidates (already in its
    coordinates), then layerize's, then the lifted layered-graph solution.
    Ties keep the earliest entry, making the output deterministic. The pool
    is picked from the weights the reductions recorded, and only the
    winner's path is built.

    A layerize candidate weighs in g what it recorded in g_s. Its tree
    paths use tight edges only, and no shortcut is tight: a tight detour
    would put its eliminated vertices on a shortest s-t path. So only its
    removed back-edge can be a shortcut, and lifting splices in that one
    detour of eliminated vertices, which closes no loop. The final
    `check_answer` checks the answer's ends, simplicity and weight.

    Straighten takes `incumbent(g)`, the weight of a simple path that is
    not shortest, found in one edge pass, as a bound on the answer A, and
    leaves out of its overlay the detours outside the bound's ellipse.
    Every pool entry of weight <= bound is then the one an unbounded
    straighten gives, in the same order, and every other entry weighs more
    than bound >= A (see `straighten`). So the answer's weight is always
    the unbounded one, and so is its path when a reduction candidate wins.
    A layered winner could meet another route of equal weight first, as
    tuples start only at back vertices and a dropped shortcut can remove
    one; none has been seen to.
    """
    d = shortest_distances(g)
    dst = d.dst
    if dst is None:
        # No s-to-t path at all, hence no not-shortest one.
        return PipelineResult(
            SolveOutcome.none(), ReductionTrace(), ReductionTrace(), None, SolveOutcome.none()
        )
    g_s, tr_s = straighten(g, incumbent(g))
    g_l, tr_l = layerize(g_s)
    layered_sol = solve_layered(g_l)

    pool = tr_s.weights + tr_l.weights
    if layered_sol.found:
        # Removing back-edges keeps every vertex and the surviving edges'
        # weights, so the layered answer is already a path of g_s. A path
        # that the lift leaves as it was uses no shortcut, so it weighs the
        # same in g.
        layered = lift_path(tr_s, layered_sol.path)
        pool.append(
            layered_sol.weight if layered == layered_sol.path else path_weight(g, layered)
        )

    if not pool:
        outcome = SolveOutcome.none()
    else:
        weight, k = min((w, k) for k, w in enumerate(pool))
        n_s, n_l = len(tr_s.weights), len(tr_l.weights)
        if k < n_s:
            path = tr_s.candidate_path(k)
        elif k < n_s + n_l:
            path = lift_path(tr_s, tr_l.candidate_path(k - n_s))
        else:
            path = layered
        check_answer(g, path, weight, validate_path(g, path))
        outcome = SolveOutcome.of(path, weight)
    return PipelineResult(outcome, tr_s, tr_l, g_l, layered_sol)
