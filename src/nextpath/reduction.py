"""Graph reductions: an overlay step to a straight graph, then back-edge
removal to the graph the layered search takes.

Straightening eliminates every vertex off all shortest s-to-t paths at once.
Eliminating a set of vertices is Gaussian elimination in the (min,+)
semiring (Carré 1971), so the reduced graph has a closed form: the weight
left on (x, y) between two survivors is min(w(x, y), lightest x-to-y
detour whose inner vertices are all eliminated) -- the boundary clique of
a Customizable Route Planning overlay. One Dijkstra per boundary vertex
(a survivor with an edge into the eliminated set) finds those detours,
and lifting splices them back in. Given an upper bound on the answer,
`incumbent`'s one edge pass, the overlay holds only the eliminated
vertices inside the bound's ellipse, d(s,v) + d(v,t) <= bound, as no walk
the answer can use leaves it; the others are deleted without detours.

Every transformation is logged in a ReductionTrace so that any path in the
reduced graph can be lifted back to the original graph, and so that
candidate next-to-shortest paths generated mid-reduction survive in
original-graph coordinates. Replaying a trace against the original graph
(`apply_step`, one step at a time) reproduces the reduced graph exactly;
the reductions themselves make one pass and never replay.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping, Sequence, Union

from .graph import (
    DistanceTable,
    Edge,
    InvalidPathError,
    Path,
    VertexIndex,
    WeightedDigraph,
    _graph,
    _index,
    dijkstra,
    parent_path,
    path_weight,
    shortest_distances,
)


class TraceError(RuntimeError):
    """A lifted path does not match the recorded transformation steps."""


@dataclass(frozen=True)
class EliminationRecord:
    """The overlay step: the eliminated vertices, and for each shortcut edge
    (x, y) between survivors the inner vertices of the detour it encodes.

    (x, y) is a shortcut when the edge was absent or heavier than the
    lightest x-to-y detour through eliminated vertices only; its weight is
    then that detour's. `straighten` records the map read-only, as what
    `lift_path` splices.
    """

    vertices: frozenset[int]
    shortcut_edges: Mapping[Edge, Path]


@dataclass(frozen=True)
class BackEdgeRemoval:
    edge: Edge


# Never produced; perfbench/tracing.py imports it until ROADMAP item 5b drops that import.
@dataclass(frozen=True)
class SubdivisionRecord:
    edge: Edge
    chain: tuple[int, ...]
    q_values: tuple[int, ...]


Step = Union[EliminationRecord, BackEdgeRemoval]


@dataclass(frozen=True)
class ReductionTrace:
    """Ordered transformation log plus candidate paths found along the way.

    A candidate is recorded as its weight, in `weights`, and the ends of its
    path, in `ends`: (x, mid, y), with x and y slots of `graph` and `mid`
    ids, stands for s -> x along the smallest-id shortest-path tree from s,
    then `mid`, then y -> t along the smallest-id shortest-path tree to t.
    The path lies in the graph the reduction started from and is weighed
    there. `graph` is the straight graph the reduction returns
    (`straighten`) or takes (`layerize`), whose trees are the input's; it
    is None only on a trace without candidates. On a straight graph a tight
    edge is a forward one and d(.,t) = d(s,t) - d(s,.), so both trees lie
    in its layering: slot v's parent is `layering.parent[v]`, and its
    successor its smallest forward head, `forward[v][0]`. The graph is
    immutable, so `candidate_path` builds the same path whenever it is
    called, and builds only the paths something reads; `candidates`, every
    (path, weight) in record order, is derived on each read.
    """

    steps: list[Step] = field(default_factory=list)
    weights: list[int] = field(default_factory=list)
    ends: list[tuple[int, Path, int]] = field(default_factory=list)
    graph: WeightedDigraph | None = field(default=None, repr=False, compare=False)

    def candidate_path(self, k: int) -> Path:
        x, mid, y = self.ends[k]
        g = self.graph
        ix, layering = g.index, g.layering
        to_x = parent_path(layering.parent, ix.slot[g.s], x)
        to_t, t = [y], ix.slot[g.t]
        while y != t:
            y = layering.forward[y][0]
            to_t.append(y)
        return (*map(ix.ids.__getitem__, to_x), *mid, *map(ix.ids.__getitem__, to_t))

    @property
    def candidates(self) -> list[tuple[Path, int]]:
        return [(self.candidate_path(k), w) for k, w in enumerate(self.weights)]


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
    raise TypeError(f"unknown step {step!r}")


def lift_path(trace: ReductionTrace, path: Path) -> Path:
    """Lift a path of the reduced graph back through a whole trace.

    Replays the steps in reverse: edge removals pass the path through
    unchanged, and an elimination splices each shortcut's detour back in.
    The result is valid in the trace's input graph with weight at most the
    reduced path's weight. An empty path raises InvalidPathError.
    """
    if not path:
        raise InvalidPathError("empty vertex sequence")
    for step in reversed(trace.steps):
        if isinstance(step, BackEdgeRemoval):
            continue
        if not isinstance(step, EliminationRecord):
            raise TypeError(f"unknown step {step!r}")
        if not step.vertices.isdisjoint(path):
            raise TraceError(f"path {path} already contains an eliminated vertex")
        path = _splice(step, path)
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


def incumbent(g: WeightedDigraph) -> int | None:
    """An upper bound on the weight of g's next-to-shortest path, from one
    pass over the edges: the least d(s,u) + w + d(v,t) over the edges
    (u, v, w) with d(s,u) + d(v,t) < d(s,t) < d(s,u) + w + d(v,t). None
    when g is straight, when t is unreachable or when no edge qualifies.

    Such an edge closes a simple path that is not shortest, s -> u along a
    shortest path, (u, v), then a shortest path to t: a vertex z on both
    shortest paths would have d(s,z) + d(z,t) <= d(s,u) + d(v,t) < d(s,t),
    which no vertex has. So the answer weighs at most the bound. No path is
    built: only its weight is read.
    """
    d = shortest_distances(g)
    ds, dt, dst = d.ds, d.dt, d.dst
    if not d.off or dst is None:
        return None
    best = None
    for u, row in enumerate(g.index.out):
        du = ds[u]
        if du is None:
            continue
        # With slack = dst - d(s,u): d(v,t) < slack < w + d(v,t).
        slack = dst - du
        for v, w in row:
            dv = dt[v]
            if dv is not None and dv < slack < dv + w and (best is None or du + w + dv < best):
                best = du + w + dv
    return best


def straighten(
    g: WeightedDigraph, bound: int | None = None
) -> tuple[WeightedDigraph, ReductionTrace]:
    """Reduce to a graph where every vertex lies on a shortest s-to-t path.

    Each vertex of the input table's `off` is eliminated in one overlay step.
    The inner set holds those that reach both terminals; a vertex cut off
    from s or t lies on no walk between two survivors, so it adds no
    detour. For each survivor x with an edge into the inner set, one
    Dijkstra over x's edges into the inner set and the inner vertices'
    out-edges never expands a survivor, so each survivor y != x it settles
    comes with its lightest x-to-y detour through inner vertices only.
    (x, y) becomes a shortcut of the detour's weight when it was absent or
    heavier. When (x, y) is instead a tight edge lighter than the detour,
    the path s -> x, the detour, y -> t along the smallest-id shortest-path
    trees is a candidate next-to-shortest path, because the reduced graph
    can no longer represent it. It is recorded as its weight and its ends:
    x and y as slots of the returned graph, and the detour's inner ids
    between them; the trace builds the path only when it is read, on the
    returned graph's layering. Those trees are the input's: a tight in-edge
    (z, x) of a survivor x puts z on a shortest path, so it survives, and
    the edge stays, as no detour is lighter than a tight edge; a tight
    out-edge likewise; and no shortcut is tight, as a tight detour would put
    its eliminated vertices on a shortest path. The path is simple: the tree
    paths hold survivors only and lie on either side of the tight edge.

    The input's distance table is read once, and weighs each candidate:
    d(s,x) + detour + d(y,t). Removing vertices off every shortest path
    keeps d(s,.) and d(.,t) of each survivor, so the returned graph's table
    is the input's, restricted to the survivors, and is handed on rather
    than computed again. The result is the same graph as eliminating the
    vertices one at a time, which is Gaussian elimination in the (min,+)
    semiring.

    With a `bound` on the answer, from `incumbent`, an eliminated vertex v
    enters the overlay only when d(s,v) + d(v,t) <= bound; the others are
    deleted without detours, as the cut-off ones are, and the record still
    lists every eliminated vertex. The answer's weight is unchanged:
    (1) every vertex of a walk of weight <= bound lies inside that ellipse;
    (2) so for survivors x, y with d(s,x) + detour + d(y,t) <= bound, every
    vertex on a lightest x-y detour, and every vertex that relaxes one of
    them to its final distance, is kept, and the kept vertices settle in
    the same (distance, slot) order: the detour, its parent path and the
    shortcut-or-candidate decision for (x, y) are the unbounded ones;
    (3) hence every entry of the pipeline's pool of weight <= bound is the
    unbounded one, in the same relative order, and (4) every entry that is
    new or heavier weighs more than bound >= the answer. The bounded overlay
    keeps no all-pairs distance between survivors, only those within the
    ellipse, which is why the bound is an argument: without it this is the
    exact (min,+) closed form.
    """
    d = shortest_distances(g)
    ds, dt, dst, off = d.ds, d.dt, d.dst, d.off
    if dst is None:
        raise ValueError("no s-to-t path exists")
    if not off:
        return g, ReductionTrace(graph=g)
    ix = g.index
    ids = ix.ids
    left = frozenset(off)
    edges = {
        (i, j): w
        for i, row in enumerate(ix.out) if i not in left
        for j, w in row if j not in left
    }
    # The overlay, by slot: each inner vertex keeps its out-edges, and each
    # survivor has none but, in its own Dijkstra, its edges into the inner set.
    overlay: list[Sequence[tuple[int, int]]] = [()] * len(ids)
    into: dict[int, list[tuple[int, int]]] = {}
    for i in off:
        if ds[i] is None or dt[i] is None or (bound is not None and ds[i] + dt[i] > bound):
            continue
        overlay[i] = ix.out[i]
        for j, w in ix.into[i]:
            if j not in left:
                into.setdefault(j, []).append((i, w))
    # Renumbering the kept slots keeps their order, so the rows stay in
    # (tail, head) order, and a candidate's ends are slots of the result.
    kept = [i for i in range(len(ids)) if i not in left]
    new = dict(zip(kept, range(len(kept))))
    shortcuts: dict[Edge, Path] = {}
    weights: list[int] = []
    ends: list[tuple[int, Path, int]] = []
    for i in sorted(into):
        overlay[i] = into[i]
        dist, parent = dijkstra(overlay, i)
        overlay[i] = ()
        for j in sorted(dist):
            if j == i or j in left:
                continue
            old, detour = edges.get((i, j)), dist[j]
            if old is None or detour < old:
                edges[(i, j)] = detour
                inner = parent_path(parent, i, j)[1:-1]
                shortcuts[(ids[i], ids[j])] = tuple(map(ids.__getitem__, inner))
            elif old < detour and ds[i] + old + dt[j] == dst:
                inner = parent_path(parent, i, j)[1:-1]
                ends.append((new[i], tuple(map(ids.__getitem__, inner)), new[j]))
                weights.append(ds[i] + detour + dt[j])
    gone = frozenset(map(ids.__getitem__, off))
    # Built without the constructor, whose checks hold: every kept edge is
    # the input's, between survivors, and a shortcut joins two distinct
    # survivors with a sum of the input's weights.
    rows = [(new[i], new[j], w) for (i, j), w in sorted(edges.items())]
    index = _index({ids[i]: k for k, i in enumerate(kept)}, rows)
    table = DistanceTable(
        index.ids, tuple(map(ds.__getitem__, kept)), tuple(map(dt.__getitem__, kept)), dst, ()
    )
    g_s = _graph(g.s, g.t, g.scale, index, table)
    step = EliminationRecord(gone, MappingProxyType(shortcuts))
    return g_s, ReductionTrace([step], weights, ends, g_s)


def layerize(g: WeightedDigraph) -> tuple[WeightedDigraph, ReductionTrace]:
    """Reduce a straight graph to one the layered search takes: every
    back-edge goes strictly back.

    Each back-edge (u,v) that does not, the graph's `layering.against`, is
    removed, smallest ids first, after recording the candidate path s->u,
    (u,v), v->t along the smallest-id shortest-path trees -- the cheapest
    path through that edge, which the reduced graph loses -- as its weight
    and its ends, slots (u, (), v); the trace builds the path only when it is
    read. Forward edges stay as they are: weights are positive, so each one
    already goes strictly up a layer, and the search takes an edge that
    spans several layers whole.

    The input's distance table and layering are read once; the table weighs
    each candidate, d(s,u) + w(u,v) + d(v,t). The removals drop each edge
    from its tail's `out` row of the input's index; the returned index
    shares every other row, and derives its own `into`. A removed back-edge
    is never tight, so every distance stays, and no layer and no other
    edge's kind changes: the returned graph carries the input's table and
    layering (with no `against` edges), handed on rather than computed
    again. The trees the candidates follow do not change either, so the
    candidates need no lifting.
    """
    d = shortest_distances(g)
    layering = g.layering
    if not layering.against:
        return g, ReductionTrace(graph=g)
    ix = g.index
    out = list(ix.out)
    steps: list[Step] = []
    weights: list[int] = []
    ends: list[tuple[int, Path, int]] = []
    for i, j in layering.against:
        # A row is sorted by head, and (j,) sorts just before j's pair.
        row = out[i]
        k = bisect_left(row, (j,))
        out[i] = row[:k] + row[k + 1 :]
        ends.append((i, (), j))
        weights.append(d.ds[i] + row[k][1] + d.dt[j])
        steps.append(BackEdgeRemoval((ix.ids[i], ix.ids[j])))
    index = VertexIndex(ix.ids, ix.slot, tuple(out))
    g_l = _graph(g.s, g.t, g.scale, index, d, replace(layering, against=()))
    return g_l, ReductionTrace(steps, weights, ends, g)
