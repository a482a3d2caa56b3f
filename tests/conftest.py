"""Shared builders for the test suite."""
from __future__ import annotations

import random

from nextpath import WeightedDigraph, layered_digraph, shortest_distances
from nextpath.graph import edge_slack, layering_violations


def build_graph(n, edges, s=0, t=None, scale=0):
    """Graph on vertices 0..n-1 from an {(u, v): w} mapping or (u, v, w) list."""
    if not isinstance(edges, dict):
        edges = {(u, v): w for u, v, w in edges}
    return WeightedDigraph(frozenset(range(n)), dict(edges), s, n - 1 if t is None else t, scale)


def skip_edge_graph(seed):
    """A layered graph without back-edges plus extra edges that shorten no
    distance: same-layer edges and layer-skipping edges that weigh their
    span (subdivided) or more (removed as back-edges)."""
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


def violation_count(g, d):
    """Edges of a straight graph that violate layeredness: the potential
    that each layerize step lowers by one."""
    back, fwd = layering_violations(g, d)
    return len(back) + len(fwd)


def back_edge_split(g, path):
    """(prefix, middle, suffix) of an s-t path cut at its first and last
    back-edges (positive `edge_slack`), or None when it has no back-edge.
    `middle` runs from the first back-edge's tail to the last one's head."""
    d = shortest_distances(g)
    backs = [i for i, e in enumerate(zip(path, path[1:])) if edge_slack(d, *e, g.edges[e])]
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
