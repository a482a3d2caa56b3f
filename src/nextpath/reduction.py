"""Graph reductions: an overlay step to a straight graph, then back-edge
removal / forward-edge subdivision to a layered graph.

Straightening eliminates every vertex off all shortest s-to-t paths at once.
Eliminating a set of vertices is Gaussian elimination in the (min,+)
semiring (Carré 1971), so the reduced graph has a closed form: the weight
left on (x, y) between two survivors is min(w(x, y), lightest x-to-y
detour whose inner vertices are all eliminated) -- the boundary clique of
a Customizable Route Planning overlay. One Dijkstra per boundary vertex
(a survivor with an edge into the eliminated set) finds those detours,
and lifting splices them back in.

Every transformation is logged in a ReductionTrace so that any path in the
reduced graph can be lifted back to the original graph, and so that
candidate next-to-shortest paths generated mid-reduction survive in
original-graph coordinates. Replaying a trace against the original graph
(`apply_step`, one step at a time) reproduces the reduced graph exactly;
the reductions themselves make one pass and never replay.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Mapping, Union

from .graph import (
    DistanceTable,
    Edge,
    Path,
    WeightedDigraph,
    dijkstra,
    is_straight,
    layering_violations,
    parent_path,
    path_weight,
    shortest_distances,
    straightness_violations,
)


class TraceError(RuntimeError):
    """A lifted path does not match the recorded transformation steps."""


@dataclass(frozen=True)
class EliminationRecord:
    """The overlay step: the eliminated vertices, and for each shortcut edge
    (x, y) between survivors the inner vertices of the detour it encodes.

    (x, y) is a shortcut when the edge was absent or heavier than the
    lightest x-to-y detour through eliminated vertices only; its weight is
    then that detour's.
    """

    vertices: frozenset[int]
    shortcut_edges: Mapping[Edge, Path]


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


Step = Union[EliminationRecord, BackEdgeRemoval, SubdivisionRecord]


@dataclass
class ReductionTrace:
    """Ordered transformation log plus candidate paths found along the way.

    Candidates are stored in the coordinates of the graph the reduction
    started from, with weights measured there.
    """

    steps: list[Step] = field(default_factory=list)
    candidates: list[tuple[Path, int]] = field(default_factory=list)


def apply_step(g: WeightedDigraph, step: Step) -> WeightedDigraph:
    """Replay one recorded transformation step (the reference the one-pass
    reductions are tested against; they do not call it)."""
    if isinstance(step, EliminationRecord):
        edges = {e: w for e, w in g.edges.items() if step.vertices.isdisjoint(e)}
        for (x, y), inner in step.shortcut_edges.items():
            edges[(x, y)] = path_weight(g, (x, *inner, y))
        return g.replace(vertices=g.vertices - step.vertices, edges=edges)
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
    original edge (weight-preserving), edge removals pass the path through
    unchanged, and an elimination splices each shortcut's detour back in.
    The result is valid in the trace's input graph with weight at most the
    reduced path's weight.
    """
    for step in reversed(trace.steps):
        if isinstance(step, BackEdgeRemoval):
            continue
        if isinstance(step, EliminationRecord):
            if not step.vertices.isdisjoint(path):
                raise TraceError(f"path {path} already contains an eliminated vertex")
            path = _splice(step, path)
        elif isinstance(step, SubdivisionRecord):
            path = _contract_chain(step, path)
        else:
            raise TypeError(f"unknown step {step!r}")
    return path


def _splice(step: EliminationRecord, path: Path) -> Path:
    """Replace each shortcut edge of `path` by its detour, then cut every
    loop two detours close, keeping a vertex's first occurrence.

    Positive weights make the cut path no heavier. The path's own vertices
    are distinct, so a repeated vertex is an eliminated one and the cut
    keeps it: a lifted path that was not shortest stays not shortest.
    """
    walk = [path[0]]
    for e in zip(path, path[1:]):
        walk += step.shortcut_edges.get(e, ())
        walk.append(e[1])
    out: list[int] = []
    at: dict[int, int] = {}
    for v in walk:
        if v in at:
            for u in out[at[v] + 1 :]:
                del at[u]
            del out[at[v] + 1 :]
        else:
            at[v] = len(out)
            out.append(v)
    return tuple(out)


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


def _tight_walk(
    adj: Mapping[int, tuple[tuple[int, int], ...]], dist: Mapping[int, int | None], v: int, end: int
) -> list[int]:
    """Walk from v to `end`, each time to the smallest-id neighbor z with
    dist[z] + w == dist[current].

    Over in-edges with d(s,.) this is the smallest-id predecessor tree path
    from s to v, reversed; over out-edges with d(.,t) it is the smallest-id
    successor tree path from v to t.
    """
    walk = [v]
    while v != end:
        dv = dist[v]
        v = next(z for z, w in adj[v] if dist[z] is not None and dist[z] + w == dv)
        walk.append(v)
    return walk


def _tree_path(g: WeightedDigraph, d: DistanceTable, x: int, mid: Path, y: int) -> Path:
    """s -> x along the smallest-id shortest-path tree from s, then `mid`,
    then y -> t along the smallest-id shortest-path tree to t, all in g.

    The reductions call this on their input graph while they change a copy:
    they never add, remove or reweigh a tight edge at a vertex of a
    shortest path, so the trees are the same in both.
    """
    to_x = _tight_walk(g.adj_in, d.from_s, x, g.s)
    return (*reversed(to_x), *mid, *_tight_walk(g.adj_out, d.to_t, y, g.t))


def straighten(g: WeightedDigraph) -> tuple[WeightedDigraph, ReductionTrace]:
    """Reduce to a graph where every vertex lies on a shortest s-to-t path.

    Every vertex violating straightness is eliminated in one overlay step.
    The inner set holds those that reach both terminals; a vertex cut off
    from s or t lies on no walk between two survivors, so it adds no
    detour. For each survivor x with an edge into the inner set, one
    Dijkstra over x's edges into the inner set and the inner vertices'
    out-edges never expands a survivor, so each survivor y != x it settles
    comes with its lightest x-to-y detour through inner vertices only.
    (x, y) becomes a shortcut of the detour's weight when it was absent or
    heavier. When (x, y) is instead a tight edge lighter than the detour,
    the path s -> x, the detour, y -> t along the smallest-id shortest-path
    trees is recorded as a candidate next-to-shortest path, because the
    reduced graph can no longer represent it. It is simple: the tree paths
    hold survivors only and lie on either side of the tight edge.

    Distances are computed once, on the input. Removing vertices off every
    shortest path keeps d(s,.) and d(.,t) of each survivor, and leaves the
    same graph as eliminating the vertices one at a time, which is Gaussian
    elimination in the (min,+) semiring.
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
    gone = frozenset(off)
    edges = {e: w for e, w in g.edges.items() if gone.isdisjoint(e)}
    inner_out = {u: g.adj_out[u] for u in off if from_s[u] is not None and to_t[u] is not None}
    into: dict[int, list[tuple[int, int]]] = {}
    for u in inner_out:
        for x, w in g.adj_in[u]:
            if x not in gone:
                into.setdefault(x, []).append((u, w))
    shortcuts: dict[Edge, Path] = {}
    for x in sorted(into):
        dist, parent = dijkstra({**inner_out, x: into[x]}, x)
        for y in sorted(dist):
            if y == x or y in gone:
                continue
            old, detour = edges.get((x, y)), dist[y]
            if old is None or detour < old:
                edges[(x, y)] = detour
                shortcuts[(x, y)] = parent_path(parent, x, y)[1:-1]
            elif old < detour and from_s[x] + old + to_t[y] == dst:
                candidate = _tree_path(g, d, x, parent_path(parent, x, y)[1:-1], y)
                trace.candidates.append((candidate, path_weight(g, candidate)))
    trace.steps.append(EliminationRecord(gone, shortcuts))
    return g.replace(vertices=g.vertices - gone, edges=edges), trace


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

    Distances are computed once, on the input, the violations are listed
    once, and the steps edit one copy of the edge map. Removing a back-edge and subdividing a forward edge keep
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
    edges = dict(g.edges)
    for u, v in back:
        candidate = _tree_path(g, d, u, (), v)
        trace.candidates.append((candidate, path_weight(g, candidate)))
        del edges[(u, v)]
        trace.steps.append(BackEdgeRemoval((u, v)))
    values = sorted(set(from_s.values()))
    first = fresh = max(g.vertices) + 1
    for u, v in fwd:
        du, dv = from_s[u], from_s[v]
        qs = values[bisect.bisect_right(values, du) : bisect.bisect_left(values, dv)]
        chain = tuple(range(fresh, fresh + len(qs)))
        fresh += len(qs)
        del edges[(u, v)]
        nodes, q_values = (u, *chain, v), (du, *qs, dv)
        for a, b, qa, qb in zip(nodes, nodes[1:], q_values, q_values[1:]):
            edges[(a, b)] = qb - qa
        trace.steps.append(SubdivisionRecord((u, v), chain, q_values))
    return g.replace(vertices=g.vertices.union(range(first, fresh)), edges=edges), trace
