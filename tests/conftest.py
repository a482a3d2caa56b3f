"""Shared builders for the test suite."""
from __future__ import annotations

import heapq
import random
from types import MappingProxyType

from nextpath import WeightedDigraph, layered_digraph, shortest_distances
from nextpath.graph import VertexIndex, dijkstra, edge_slack, layering_violations


def build_graph(n, edges, s=0, t=None, scale=0):
    """Graph on vertices 0..n-1 from an {(u, v): w} mapping or (u, v, w) list."""
    if not isinstance(edges, dict):
        edges = {(u, v): w for u, v, w in edges}
    return WeightedDigraph(frozenset(range(n)), dict(edges), s, n - 1 if t is None else t, scale)


def skip_edge_graph(seed):
    """A layered graph without back-edges plus extra edges that shorten no
    distance: same-layer edges and layer-skipping edges that weigh their
    span (kept whole) or more (removed as back-edges)."""
    base = layered_digraph(8, 3, 0, seed)
    dist = shortest_distances(base).from_s
    rng = random.Random(seed)
    edges = dict(base.edges)
    vs = sorted(base.vertices)
    for _ in range(14):
        u, v = rng.choice(vs), rng.choice(vs)
        if u != v and (u, v) not in edges:
            edges[(u, v)] = max(dist[v] - dist[u], 1) + rng.choice((0, 0, 1, 2))
    return WeightedDigraph(base.vertices, edges, base.s, base.t)


def with_span_edges(g, count, seed):
    """`g`, a layered graph, plus up to `count` forward edges that each skip
    at least one distance value and weigh exactly the distance they span,
    so that no distance changes and the edges stay whole in `layerize`."""
    dist = shortest_distances(g).from_s
    rng = random.Random(f"span:{seed}")
    edges = dict(g.edges)
    vs = sorted(g.vertices)
    for _ in range(count):
        u, v = rng.choice(vs), rng.choice(vs)
        if (u, v) not in edges and dist[v] - dist[u] >= 2:
            edges[(u, v)] = dist[v] - dist[u]
    return g.replace(edges=edges)


def with_off_path_vertices(g, count, seed):
    """`g` plus `count` fresh vertices, each entered from one vertex of g
    and left to one or two others (weights 1..6), so that most of them lie
    on no shortest s-t path and some shorten or add detours."""
    rng = random.Random(f"off:{seed}")
    edges = dict(g.edges)
    vs = sorted(g.vertices)
    fresh = range(vs[-1] + 1, vs[-1] + 1 + count)
    for x in fresh:
        edges[(rng.choice(vs), x)] = rng.randint(1, 6)
        for v in rng.sample(vs, rng.randint(1, 2)):
            edges[(x, v)] = rng.randint(1, 6)
    return WeightedDigraph(g.vertices | set(fresh), edges, g.s, g.t, g.scale)


def layered_tiers(layers, width):
    """The layers that `layered_digraph(layers, width, ...)` builds: s, then
    `width` consecutive ids per middle layer, then t."""
    middle = [tuple(range(1 + i * width, 1 + (i + 1) * width)) for i in range(layers - 2)]
    return [(0,), *middle, (1 + (layers - 2) * width,)]


def back_edge_room(layers, width):
    """How many back-edges such a graph holds: one per vertex and smaller
    id, which lies in an earlier layer."""
    return sum(tier[0] * len(tier) for tier in layered_tiers(layers, width))


def relabelled(g, seed):
    """`g` with its vertex ids, s and t included, permuted by a seeded
    shuffle, so that ids no longer grow with the distance from s."""
    ids = sorted(g.vertices)
    new = ids[:]
    random.Random(f"relabel:{seed}").shuffle(new)
    m = dict(zip(ids, new))
    edges = {(m[u], m[v]): w for (u, v), w in g.edges.items()}
    return WeightedDigraph(g.vertices, edges, m[g.s], m[g.t], g.scale)


def skip_path_graph(n, back_edges, seed):
    """The unit path 0 -> 1 -> ... -> n-1 plus n distinct edges (u, v) with
    v >= u + 2 that weigh v - u, plus `back_edges` edges (u, v) with v < u
    and weights 1..3. Without back-edges the answer is NONE, as every s-t
    path is a shortest one."""
    rng = random.Random(seed)
    edges = {(i, i + 1): 1 for i in range(n - 1)}
    while len(edges) < 2 * n - 1:
        u, v = sorted(rng.sample(range(n), 2))
        if v - u >= 2 and (u, v) not in edges:
            edges[(u, v)] = v - u
    rng = random.Random(f"back:{seed}")
    total = len(edges) + back_edges
    while len(edges) < total:
        v, u = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges[(u, v)] = rng.randint(1, 3)
    return WeightedDigraph(frozenset(range(n)), edges, 0, n - 1)


def bead_graph(wide_layers, width, back_edges, seed):
    """Layers of `width` vertices alternating with one-vertex cut layers,
    from {s} to {t}, each vertex joined by a unit edge to every vertex of
    the next layer, plus `back_edges` edges into strictly earlier layers
    (weights 1..3).

    A back-edge spans a cut layer that a simple path through it would visit
    twice, so the answer is NONE; every layer's forward edges share one tail
    or one head.
    """
    tiers = [[0]]
    for _ in range(wide_layers):
        nxt = tiers[-1][-1] + 1
        tiers += [list(range(nxt, nxt + width)), [nxt + width]]
    layer = {v: i for i, tier in enumerate(tiers) for v in tier}
    n = len(layer)
    edges = {(u, v): 1 for lo, hi in zip(tiers, tiers[1:]) for u in lo for v in hi}
    rng = random.Random(seed)
    back = [(u, v) for u in range(n) for v in range(n) if layer[v] < layer[u]]
    for e in rng.sample(back, back_edges):
        edges[e] = rng.randint(1, 3)
    return WeightedDigraph(frozenset(range(n)), edges, 0, n - 1)


TRIANGLE = "3 3 0 2\n0 1 1\n1 2 1\n0 2 1\n"

# two parallel unit chains 0-1-2-5 and 0-3-4-5 plus back-edge 4->1
PARALLEL_CHAINS = {
    (0, 1): 1, (1, 2): 1, (2, 5): 1,
    (0, 3): 1, (3, 4): 1, (4, 5): 1,
    (4, 1): 1,
}


def fresh_distances(g):
    """(from_s, to_t) of g as plain dicts, by a fresh Dijkstra each way
    rather than g's cached table."""
    ix = g.index
    from_s, _ = dijkstra(ix.out, ix.slot[g.s])
    to_t, _ = dijkstra(ix.into, ix.slot[g.t])
    return (
        {u: from_s.get(i) for i, u in enumerate(ix.ids)},
        {u: to_t.get(i) for i, u in enumerate(ix.ids)},
    )


def heap_dijkstra(adj, source, *, target=None, blocked=frozenset(), limit=None, met=None):
    """`graph.dijkstra` by a heap of (distance, slot) pairs, one per strict
    improvement, with no code in common: the reference for its bucket
    queue's `dist` with its settle order, `parent` and `met`."""
    dist, parent = {}, {}
    best = [None] * len(adj)
    best[source] = 0
    heap = [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = du
        if u == target:
            break
        for v, w in adj[u]:
            nd = du + w
            if best[v] is not None and nd >= best[v]:
                continue
            if limit is not None and nd >= limit:
                continue
            if v in blocked:
                if met is not None:
                    met.add(v)
                continue
            best[v] = nd
            parent[v] = u
            heapq.heappush(heap, (nd, v))
    return dist, parent


def bfs_path_around(adj, a, b, avoid):
    """The BFS path a -> b around the vertex `avoid` in the digraph with
    out-lists `adj`, heads taken in list order, or None when every path
    passes `avoid`: whole levels in turn, each vertex's parent fixed when it
    is first met, with no code in common with the program. The reference
    for the path of a disjoint-pair query that parks one token at `avoid`."""
    parent = {a: None}
    level = [a]
    while level and b not in parent:
        nxt = []
        for u in level:
            for v in adj[u]:
                if v != avoid and v not in parent:
                    parent[v] = u
                    nxt.append(v)
        level = nxt
    if b not in parent:
        return None
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def sorted_rows_index(vertices, edges):
    """The `VertexIndex` of a graph on `vertices` with the {(u, v): w} map
    `edges`, built from the map in its own order, with a sort per row: the
    reference for `graph._index`, which sorts no row. Its `into` is set
    from the map's own rows, sorted, so it is the reference for the `into`
    that an index derives from `out`."""
    ids = tuple(sorted(vertices))
    slot = {u: i for i, u in enumerate(ids)}
    out, into = [[] for _ in ids], [[] for _ in ids]
    for (u, v), w in edges.items():
        out[slot[u]].append((slot[v], w))
        into[slot[v]].append((slot[u], w))
    index = VertexIndex(ids, MappingProxyType(slot), tuple(tuple(sorted(r)) for r in out))
    index.__dict__["into"] = tuple(tuple(sorted(r)) for r in into)
    return index


def sum_rule_off(g, from_s, to_t):
    """The vertices of g on no shortest s-t path, in id order, all of them
    when t is unreachable, by the distance-sum rule d(s,u) + d(u,t) !=
    d(s,t) over the given (from_s, to_t): the reference for a
    `DistanceTable`'s `off`, which the program finds by another rule."""
    dst = from_s[g.t]
    return tuple(
        u
        for u in sorted(g.vertices)
        if from_s[u] is None or to_t[u] is None or from_s[u] + to_t[u] != dst
    )


def floyd_warshall(g):
    """Independent all-pairs distances (no Dijkstra involved)."""
    verts = sorted(g.vertices)
    dist = {(u, v): (0 if u == v else None) for u in verts for v in verts}
    for (u, v), w in g.edges.items():
        if dist[(u, v)] is None or w < dist[(u, v)]:
            dist[(u, v)] = w
    for k in verts:
        for i in verts:
            dik = dist[(i, k)]
            if dik is None:
                continue
            for j in verts:
                dkj = dist[(k, j)]
                if dkj is None:
                    continue
                old = dist[(i, j)]
                if old is None or dik + dkj < old:
                    dist[(i, j)] = dik + dkj
    return dist


def violation_count(g):
    """Edges of a straight graph that violate layeredness: the potential
    that each layerize step lowers by one."""
    back, fwd = layering_violations(g)
    return len(back) + len(fwd)


def back_edge_split(g, path):
    """(prefix, middle, suffix) of an s-t path cut at its first and last
    back-edges (positive `edge_slack`, which takes slots), or None when it
    has no back-edge. `middle` runs from the first back-edge's tail to the
    last one's head."""
    d, slot = shortest_distances(g), g.index.slot
    backs = [
        i
        for i, (u, v) in enumerate(zip(path, path[1:]))
        if edge_slack(d, slot[u], slot[v], g.edges[(u, v)])
    ]
    if not backs:
        return None
    i, j = backs[0], backs[-1]
    return path[: i + 1], path[i : j + 2], path[j + 1 :]


def bellman_ford_from(g, source):
    """Independent single-source distances by edge relaxation."""
    dist = {u: None for u in g.vertices}
    dist[source] = 0
    for _ in range(len(g.vertices)):
        changed = False
        for (u, v), w in g.edges.items():
            if dist[u] is not None and (dist[v] is None or dist[u] + w < dist[v]):
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


def edge_bound(g):
    """min d(s,u) + w(u,v) + d(v,t) over the edges whose sum is finite and
    exceeds d(s,t), or None when no edge qualifies; distances by
    Bellman-Ford.

    Every not-shortest simple s-t path uses such an edge and weighs at
    least its sum, so this bounds the answer from below on any graph. On a
    DAG every walk is simple and the walk s->u, (u,v), v->t along shortest
    paths realizes the sum, so there the bound is the answer.
    """
    from_s = bellman_ford_from(g, g.s)
    rev = WeightedDigraph(g.vertices, {(v, u): w for (u, v), w in g.edges.items()}, g.t, g.s)
    to_t = bellman_ford_from(rev, g.t)
    dst = from_s[g.t]
    sums = [
        from_s[u] + w + to_t[v]
        for (u, v), w in g.edges.items()
        if from_s[u] is not None and to_t[v] is not None
    ]
    return min((x for x in sums if x > dst), default=None)
