"""Graph reductions: vertex elimination to a straight graph, then back-edge
removal / forward-edge subdivision to a layered graph.

Every transformation is logged in a ReductionTrace so that any path in the
reduced graph can be lifted back to the original graph, and so that
candidate next-to-shortest paths generated mid-reduction survive in
original-graph coordinates. Replaying a trace against the original graph
(`apply_step`, one step at a time) reproduces the reduced graph exactly;
the reductions themselves make one pass over a mutable working graph and
never replay.
"""
from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Union

from .graph import (
    DistanceTable,
    Edge,
    Path,
    WeightedDigraph,
    is_straight,
    layering_violations,
    path_weight,
    shortest_distances,
    straightness_violations,
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
    """Replay one recorded transformation step (the reference the one-pass
    reductions are tested against; they do not call it)."""
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


# The working graph of a reduction: out[u][v] == inn[v][u] == w(u, v).
Adjacency = dict[int, dict[int, int]]


def _working_graph(g: WeightedDigraph) -> tuple[Adjacency, Adjacency]:
    out: Adjacency = {u: {} for u in g.vertices}
    inn: Adjacency = {u: {} for u in g.vertices}
    for (u, v), w in g.edges.items():
        out[u][v] = w
        inn[v][u] = w
    return out, inn


def _freeze(g: WeightedDigraph, out: Adjacency) -> WeightedDigraph:
    return g.replace(
        vertices=out,
        edges={(u, v): w for u, nbrs in out.items() for v, w in nbrs.items()},
    )


def _unlink(out: Adjacency, inn: Adjacency, u: int) -> tuple[dict[int, int], dict[int, int]]:
    """Remove u and its edges from the working graph; return its in- and
    out-edges."""
    ins, outs = inn.pop(u), out.pop(u)
    for x in ins:
        del out[x][u]
    for y in outs:
        del inn[y][u]
    return ins, outs


def _tight_walk(adj: Adjacency, dist: dict[int, int | None], v: int, end: int) -> list[int]:
    """Walk from v to `end`, each time to the smallest-id neighbor z with
    dist[z] + w == dist[current].

    Over in-edges with d(s,.) this is the smallest-id predecessor tree path
    from s to v, reversed; over out-edges with d(.,t) it is the smallest-id
    successor tree path from v to t.
    """
    walk = [v]
    while v != end:
        dv = dist[v]
        v = min(z for z, w in adj[v].items() if dist[z] is not None and dist[z] + w == dv)
        walk.append(v)
    return walk


def _tree_path(
    g: WeightedDigraph, out: Adjacency, inn: Adjacency, d: DistanceTable, x: int, mid: Path, y: int
) -> Path:
    """s -> x along the smallest-id shortest-path tree from s, then `mid`,
    then y -> t along the smallest-id shortest-path tree to t."""
    to_x = _tight_walk(inn, d.from_s, x, g.s)
    return (*reversed(to_x), *mid, *_tight_walk(out, d.to_t, y, g.t))


def straighten(g: WeightedDigraph) -> tuple[WeightedDigraph, ReductionTrace]:
    """Reduce to a graph where every vertex lies on a shortest s-to-t path.

    Visits the vertices violating straightness once, in ascending id order:
    those that cannot reach both terminals are deleted, the others are
    eliminated. When an eliminated vertex's detour (x,u),(u,y) loses to an
    existing edge (x,y) that sits on a shortest path, the detour path
    s->x, (x,u,y), y->t along the smallest-id shortest-path trees is
    recorded as a candidate next-to-shortest path (in original
    coordinates), because the reduced graph can no longer represent it.

    Distances are computed once, on the input, and the steps mutate a
    working copy that is frozen once, at the end. This is sound because
    deleting or eliminating a non-straight vertex keeps d(s,.) and d(.,t) of
    every vertex on an s-to-t walk; a vertex can lose a finite distance only
    when its other one is already infinite, and it is deleted either way.
    So the set of non-straight vertices never changes, and every distance
    read here is the input's. An elimination adds, replaces or removes no
    tight edge at a vertex of a shortest path (that would put u on a
    shortest path), so the trees are the same after it as before.
    """
    d = shortest_distances(g)
    from_s, to_t = d.from_s, d.to_t
    dst = from_s[g.t]
    if dst is None:
        raise ValueError("no s-to-t path exists")
    trace = ReductionTrace()
    off = straightness_violations(g, d)
    if not off:
        return g, trace
    out, inn = _working_graph(g)
    origin: dict[Edge, int] = {}  # edge -> index of the last elimination that set it
    for u in off:
        if from_s[u] is None or to_t[u] is None:
            _unlink(out, inn, u)
            trace.steps.append(VertexDeletion(u))
            continue
        ins, outs = _unlink(out, inn, u)
        shortcuts: set[Edge] = set()
        replaced: dict[Edge, int] = {}
        detours: list[Edge] = []
        for x, wxu in ins.items():
            out_x, dx = out[x], from_s[x]
            for y, wuy in outs.items():
                if x == y:
                    continue
                old, detour = out_x.get(y), wxu + wuy
                if old is None or detour < old:
                    out_x[y] = inn[y][x] = detour
                    shortcuts.add((x, y))
                    if old is not None:
                        replaced[(x, y)] = old
                elif old < detour:
                    yt = to_t[y]
                    if dx is not None and yt is not None and dx + old + yt == dst:
                        detours.append((x, y))  # (x, y) lies on a shortest path
        for x, y in sorted(detours):
            lifted = _lift(trace.steps, origin, _tree_path(g, out, inn, d, x, (u,), y))
            trace.candidates.append((lifted, path_weight(g, lifted)))
        origin.update(dict.fromkeys(shortcuts, len(trace.steps)))
        trace.steps.append(
            EliminationRecord(u, frozenset(ins), frozenset(outs), frozenset(shortcuts), replaced)
        )
    return _freeze(g, out), trace


def _lift(steps: list[Step], origin: dict[Edge, int], path: Path) -> Path:
    """`lift_path` of a path of the current working graph.

    Only an elimination that set one of the path's edges can change it, so
    only those are visited, highest step first; each splice adds two edges
    through the restored vertex, whose origins join the queue.
    """
    queued = {origin[e] for e in zip(path, path[1:]) if e in origin}
    heap = [-k for k in queued]
    heapq.heapify(heap)
    while heap:
        rec = steps[-heapq.heappop(heap)]
        lifted = lift_through_elimination(rec, path)
        if lifted is path:
            continue
        path = lifted
        i = path.index(rec.vertex)
        for e in ((path[i - 1], rec.vertex), (rec.vertex, path[i + 1])):
            k = origin.get(e)
            if k is not None and k not in queued:
                queued.add(k)
                heapq.heappush(heap, -k)
    return path


def layering_potential(g: WeightedDigraph, d: DistanceTable) -> int:
    """Count of edges violating layeredness in a straight graph (see
    `layering_violations`)."""
    if not is_straight(g, d):
        raise ValueError("graph is not (s,t)-straight")
    back_viol, fwd_viol = layering_violations(g, d)
    return len(back_viol) + len(fwd_viol)


def layerize(g: WeightedDigraph) -> tuple[WeightedDigraph, ReductionTrace]:
    """Reduce a straight graph to a layered one.

    Fixes every violating edge once, back-edge violations before forward
    ones, smallest ids first:

    * a violating back-edge (u,v) is removed, after recording the candidate
      path s->u, (u,v), v->t built from the smallest-id shortest-path trees
      -- the cheapest path through that edge, which the reduced graph
      loses;
    * a layer-skipping forward edge is subdivided into a chain with one
      fresh vertex per skipped distance value.

    Distances are computed once, on the input, and the violations are
    listed once. Removing a back-edge and subdividing a forward edge keep
    d(s,.) and d(.,t) of every vertex and the set of distinct distance
    values; each step fixes exactly one violation and creates none. A
    removed back-edge is never tight, so the trees the candidates follow
    do not change either, and the candidates need no lifting: only
    back-edge removals precede them.
    """
    d = shortest_distances(g)
    if not is_straight(g, d):
        raise ValueError("graph is not (s,t)-straight")
    trace = ReductionTrace()
    back, fwd = layering_violations(g, d)
    if not back and not fwd:
        return g, trace
    from_s = d.from_s
    out, inn = _working_graph(g)
    for u, v in back:
        candidate = _tree_path(g, out, inn, d, u, (), v)
        trace.candidates.append((candidate, path_weight(g, candidate)))
        del out[u][v], inn[v][u]
        trace.steps.append(BackEdgeRemoval((u, v)))
    values = sorted(set(from_s.values()))
    fresh = max(g.vertices) + 1
    for u, v in fwd:
        du, dv = from_s[u], from_s[v]
        qs = values[bisect.bisect_right(values, du) : bisect.bisect_left(values, dv)]
        chain = tuple(range(fresh, fresh + len(qs)))
        fresh += len(qs)
        del out[u][v], inn[v][u]
        nodes, q_values = (u, *chain, v), (du, *qs, dv)
        for a, b, qa, qb in zip(nodes, nodes[1:], q_values, q_values[1:]):
            out.setdefault(a, {})[b] = inn.setdefault(b, {})[a] = qb - qa
        trace.steps.append(SubdivisionRecord((u, v), chain, q_values))
    return _freeze(g, out), trace
