"""Graph reductions: vertex elimination to a straight graph, then back-edge
removal / forward-edge subdivision to a layered graph.

Every transformation is logged in a ReductionTrace so that any path in the
reduced graph can be lifted back to the original graph, and so that
candidate next-to-shortest paths generated mid-reduction survive in
original-graph coordinates. Replaying a trace against the original graph
reproduces the reduced graph exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .graph import (
    DistanceTable,
    Edge,
    Path,
    WeightedDigraph,
    is_straight,
    layering_violations,
    min_children_to_t,
    min_parents_from_s,
    path_weight,
    shortest_distances,
    tree_path_from_s,
    tree_path_to_t,
)


class TraceError(RuntimeError):
    """A lifted path does not match the recorded transformation steps."""


@dataclass(frozen=True)
class VertexDeletion:
    """Removal of a vertex that no s-to-t path can use."""

    vertex: int


@dataclass(frozen=True)
class EliminationRecord:
    """One vertex elimination: the removed vertex, its neighborhoods, and the
    shortcut edges that now encode detours through it.

    An in/out pair (x, y) becomes a shortcut edge when the edge was absent
    before, or when the detour weight w(x,u)+w(u,y) strictly undercuts the
    old weight (old weights kept in `replaced_weights`).
    """

    vertex: int
    in_neighbors: frozenset[int]
    out_neighbors: frozenset[int]
    shortcut_edges: frozenset[Edge]
    replaced_weights: dict[Edge, int] = field(default_factory=dict)


@dataclass(frozen=True)
class BackEdgeRemoval:
    edge: Edge


@dataclass(frozen=True)
class SubdivisionRecord:
    """A forward edge replaced by a chain of fresh vertices, one per distance
    value the edge used to skip. q_values runs d(s,u) = q0 < ... < qk+1 = d(s,v);
    chain edge weights are the consecutive differences."""

    edge: Edge
    chain: tuple[int, ...]
    q_values: tuple[int, ...]


Step = Union[VertexDeletion, EliminationRecord, BackEdgeRemoval, SubdivisionRecord]


@dataclass
class ReductionTrace:
    """Ordered transformation log plus candidate paths found along the way.

    Candidates are stored in the coordinates of the graph the reduction
    started from (lifted eagerly at creation), with weights measured there.
    """

    steps: list[Step] = field(default_factory=list)
    candidates: list[tuple[Path, int]] = field(default_factory=list)


def eliminate_vertex(
    g: WeightedDigraph, u: int, d: DistanceTable | None = None
) -> tuple[WeightedDigraph, EliminationRecord]:
    """Remove u, wiring its in-neighbors to its out-neighbors.

    A new edge (x, y) gets weight w(x,u)+w(u,y); an existing one keeps
    min(old, detour). Distances between surviving vertices are unchanged.
    Requires u off every shortest s-to-t path but on some s-to-t walk:
    d(s,u) + d(u,t) must be finite and exceed d(s,t).
    """
    if u not in g.vertices:
        raise ValueError(f"vertex {u} not in graph")
    if u in (g.s, g.t):
        raise ValueError("cannot eliminate a terminal")
    if d is None:
        d = shortest_distances(g)
    du, ut, dst = d.from_s[u], d.to_t[u], d.from_s[g.t]
    if du is None or ut is None:
        raise ValueError(f"vertex {u} is not on any s-to-t walk")
    if dst is not None and du + ut <= dst:
        raise ValueError(f"vertex {u} lies on a shortest path; elimination would lose it")
    g2, rec = _eliminate(g, u)
    return g2, rec


def _eliminate(g: WeightedDigraph, u: int) -> tuple[WeightedDigraph, EliminationRecord]:
    in_nbrs = frozenset(x for x, _ in g.adj_in[u])
    out_nbrs = frozenset(y for y, _ in g.adj_out[u])
    edges = {e: w for e, w in g.edges.items() if u not in e}
    shortcuts: set[Edge] = set()
    replaced: dict[Edge, int] = {}
    for x in in_nbrs:
        wxu = g.edges[(x, u)]
        for y in out_nbrs:
            if x == y:
                continue
            detour = wxu + g.edges[(u, y)]
            old = edges.get((x, y))
            if old is None:
                edges[(x, y)] = detour
                shortcuts.add((x, y))
            elif detour < old:
                edges[(x, y)] = detour
                shortcuts.add((x, y))
                replaced[(x, y)] = old
    g2 = g.replace(vertices=g.vertices - {u}, edges=edges)
    return g2, EliminationRecord(u, in_nbrs, out_nbrs, frozenset(shortcuts), replaced)


def lift_through_elimination(rec: EliminationRecord, path: Path) -> Path:
    """Map a path of the reduced graph back before the elimination.

    If the path crosses no shortcut edge it is already valid. Otherwise the
    whole stretch from the first shortcut edge to the last is replaced by
    the detour through the removed vertex; the result is a simple path of
    weight at most the reduced path's weight.
    """
    hits = [
        i for i, e in enumerate(zip(path, path[1:])) if e in rec.shortcut_edges
    ]
    if not hits:
        return path
    first, last = hits[0], hits[-1]
    return path[: first + 1] + (rec.vertex,) + path[last + 1 :]


def apply_step(g: WeightedDigraph, step: Step) -> WeightedDigraph:
    """Replay one recorded transformation step."""
    if isinstance(step, VertexDeletion):
        u = step.vertex
        return g.replace(
            vertices=g.vertices - {u},
            edges={e: w for e, w in g.edges.items() if u not in e},
        )
    if isinstance(step, EliminationRecord):
        return _eliminate(g, step.vertex)[0]
    if isinstance(step, BackEdgeRemoval):
        edges = dict(g.edges)
        del edges[step.edge]
        return g.replace(edges=edges)
    if isinstance(step, SubdivisionRecord):
        edges = dict(g.edges)
        del edges[step.edge]
        u, v = step.edge
        nodes = (u,) + step.chain + (v,)
        for i in range(len(nodes) - 1):
            edges[(nodes[i], nodes[i + 1])] = step.q_values[i + 1] - step.q_values[i]
        return g.replace(vertices=g.vertices | set(step.chain), edges=edges)
    raise TypeError(f"unknown step {step!r}")


def lift_path(trace: ReductionTrace, path: Path) -> Path:
    """Lift a path of the reduced graph back through a whole trace.

    Replays the steps in reverse: subdivision chains contract to their
    original edge (weight-preserving), edge removals and vertex deletions
    pass the path through unchanged, and each elimination splices the
    removed vertex back across its shortcut edges. The result is valid in
    the trace's input graph with weight at most the reduced path's weight.
    """
    for step in reversed(trace.steps):
        if isinstance(step, (VertexDeletion, BackEdgeRemoval)):
            continue
        if isinstance(step, EliminationRecord):
            if step.vertex in path:
                raise TraceError(f"path already contains eliminated vertex {step.vertex}")
            path = lift_through_elimination(step, path)
        elif isinstance(step, SubdivisionRecord):
            path = _contract_chain(step, path)
        else:
            raise TypeError(f"unknown step {step!r}")
    return path


def _contract_chain(step: SubdivisionRecord, path: Path) -> Path:
    chain_set = set(step.chain)
    if not chain_set & set(path):
        return path
    u, v = step.edge
    k = len(step.chain)
    out: list[int] = []
    i = 0
    while i < len(path):
        if path[i] in chain_set:
            # Chain vertices have unique in/out edges, so a valid path must
            # traverse the full run u, chain..., v.
            if (
                i == 0
                or path[i - 1] != u
                or tuple(path[i : i + k]) != step.chain
                or i + k >= len(path)
                or path[i + k] != v
            ):
                raise TraceError(f"path enters subdivision chain of {step.edge} mid-way")
            i += k  # skip to v, appended by the normal branch
        else:
            out.append(path[i])
            i += 1
    return tuple(out)


def straighten(g: WeightedDigraph) -> tuple[WeightedDigraph, ReductionTrace]:
    """Reduce to a graph where every vertex lies on a shortest s-to-t path.

    Repeatedly deletes vertices that cannot reach both terminals and
    eliminates the smallest-id vertex violating straightness. When an
    eliminated vertex's detour (x,u),(u,y) loses to an existing edge (x,y)
    that sits on a shortest path, the detour path is recorded as a
    candidate next-to-shortest path (in original coordinates), because the
    reduced graph can no longer represent it.
    """
    d = shortest_distances(g)
    if d.from_s[g.t] is None:
        raise ValueError("no s-to-t path exists")
    trace = ReductionTrace()
    cur = g
    while True:
        d = shortest_distances(cur)
        dst = d.from_s[cur.t]
        u = _first_non_straight(cur, d, dst)
        if u is None:
            return cur, trace
        du, ut = d.from_s[u], d.to_t[u]
        if du is None or ut is None:
            cur = apply_step(cur, VertexDeletion(u))
            trace.steps.append(VertexDeletion(u))
            continue
        _collect_detour_candidates(g, cur, d, u, trace)
        nxt, rec = _eliminate(cur, u)
        trace.steps.append(rec)
        cur = nxt


def _first_non_straight(g: WeightedDigraph, d: DistanceTable, dst: int) -> int | None:
    for u in sorted(g.vertices):
        du, ut = d.from_s[u], d.to_t[u]
        if du is None or ut is None or du + ut != dst:
            return u
    return None


def _collect_detour_candidates(
    original: WeightedDigraph,
    cur: WeightedDigraph,
    d: DistanceTable,
    u: int,
    trace: ReductionTrace,
) -> None:
    """Record s->x, (x,u,y), y->t detours for edges (x,y) cheaper than the
    detour but lying on a shortest s-to-t path."""
    dst = d.from_s[cur.t]
    parents = children = None
    for x, wxu in cur.adj_in[u]:
        for y, wuy in cur.adj_out[u]:
            if x == y or (x, y) not in cur.edges:
                continue
            wxy = cur.edges[(x, y)]
            if wxy >= wxu + wuy:
                continue
            dx, yt = d.from_s[x], d.to_t[y]
            if dx is None or yt is None or dx + wxy + yt != dst:
                continue  # no shortest path traverses (x, y)
            if parents is None:
                parents = min_parents_from_s(cur, d)
                children = min_children_to_t(cur, d)
            q = tree_path_from_s(cur, parents, x) + (u,) + tree_path_to_t(cur, children, y)
            lifted = lift_path(trace, q)
            trace.candidates.append((lifted, path_weight(original, lifted)))


def layering_potential(g: WeightedDigraph, d: DistanceTable) -> int:
    """Count of edges violating layeredness in a straight graph (see
    `layering_violations`)."""
    if not is_straight(g, d):
        raise ValueError("graph is not (s,t)-straight")
    back_viol, fwd_viol = layering_violations(g, d)
    return len(back_viol) + len(fwd_viol)


def layerize(g: WeightedDigraph) -> tuple[WeightedDigraph, ReductionTrace]:
    """Reduce a straight graph to a layered one.

    Each iteration fixes one violating edge, chosen deterministically
    (back-edge violations before forward ones, smallest ids first):

    * a violating back-edge (u,v) is removed, after recording the candidate
      path s->u, (u,v), v->t built from the fixed forward shortest-path
      trees -- the cheapest path through that edge, which the reduced graph
      loses;
    * a layer-skipping forward edge is subdivided into a chain with one
      fresh vertex per skipped distance value.

    Distances from s and the set of distinct distance values are preserved
    throughout, and the violation count drops by exactly one per step.
    """
    d = shortest_distances(g)
    if not is_straight(g, d):
        raise ValueError("graph is not (s,t)-straight")
    trace = ReductionTrace()
    cur = g
    while True:
        d = shortest_distances(cur)
        back_viol, fwd_viol = layering_violations(cur, d)
        if back_viol:
            u, v = back_viol[0]
            parents = min_parents_from_s(cur, d)
            children = min_children_to_t(cur, d)
            candidate = tree_path_from_s(cur, parents, u) + tree_path_to_t(cur, children, v)
            lifted = lift_path(trace, candidate)
            trace.candidates.append((lifted, path_weight(g, lifted)))
            step: Step = BackEdgeRemoval((u, v))
        elif fwd_viol:
            u, v = fwd_viol[0]
            du, w = d.from_s[u], cur.edges[(u, v)]
            qs = sorted(
                {
                    d.from_s[z]
                    for z in cur.vertices
                    if du < d.from_s[z] < du + w
                }
            )
            fresh = max(cur.vertices) + 1
            chain = tuple(range(fresh, fresh + len(qs)))
            step = SubdivisionRecord((u, v), chain, (du, *qs, d.from_s[v]))
        else:
            return cur, trace
        cur = apply_step(cur, step)
        trace.steps.append(step)
