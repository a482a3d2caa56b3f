"""Seeded instance families that `nextpath.generate` does not provide.

Both are built only from public `nextpath` constructors, so they exercise
the solver exactly as a user-supplied graph would.
"""
from __future__ import annotations

import random

from nextpath import WeightedDigraph, layered_digraph, shortest_distances


def layer_skip_digraph(
    layers: int,
    width: int,
    skip_edges: int,
    seed: int,
    *,
    max_span: int,
    slack_share: float,
) -> WeightedDigraph:
    """A layered graph without back-edges plus `skip_edges` forward edges
    that each span k in [2, max_span] layers.

    A skip edge weighs exactly k with probability 1 - slack_share, which makes
    `layerize` subdivide it into k unit edges; otherwise it carries slack
    (weight k + 1 or k + 2), which makes `layerize` remove it as a back-edge
    and record a candidate. No skip edge is shorter than the unit chain it
    spans, so distances and straightness are those of the base graph.
    """
    if max_span < 2 or max_span > layers - 1:
        raise ValueError("max_span must be in [2, layers - 1]")
    base = layered_digraph(layers, width, 0, seed)
    dist = shortest_distances(base).from_s
    tiers: list[list[int]] = [[] for _ in range(layers)]
    for v in sorted(base.vertices):
        tiers[dist[v]].append(v)
    rng = random.Random(f"layer-skip:{seed}")
    edges = dict(base.edges)
    added = 0
    while added < skip_edges:
        k = rng.randint(2, max_span)
        i = rng.randrange(layers - k)
        u, v = rng.choice(tiers[i]), rng.choice(tiers[i + k])
        if (u, v) in edges:
            continue
        edges[(u, v)] = k if rng.random() >= slack_share else k + rng.randint(1, 2)
        added += 1
    return WeightedDigraph(base.vertices, edges, base.s, base.t)


def bead_digraph(
    wide_layers: int,
    width: int,
    back_edges: int,
    seed: int,
    *,
    back_weight_max: int = 3,
) -> WeightedDigraph:
    """Layers of `width` vertices alternating with single-vertex cut layers,
    starting and ending with the cuts {s} and {t}, plus random back-edges.

    Unit forward edges join every vertex to every vertex of the next layer.
    A forward path must visit each layer in turn, so a back-edge from layer i
    to layer j < i forces a second visit of every cut layer in [j, i], and
    there is one in every such range. No simple s-to-t path uses a back-edge:
    the next-to-shortest answer is NONE by construction.
    """
    if wide_layers < 1 or width < 1:
        raise ValueError("need at least one wide layer of width >= 1")
    tiers: list[list[int]] = [[0]]
    nxt = 1
    for _ in range(wide_layers):
        tiers.append(list(range(nxt, nxt + width)))
        tiers.append([nxt + width])
        nxt += width + 1
    n = nxt
    edges: dict[tuple[int, int], int] = {}
    for lower, upper in zip(tiers, tiers[1:]):
        for u in lower:
            for v in upper:
                edges[(u, v)] = 1
    layer_of = {v: i for i, tier in enumerate(tiers) for v in tier}
    available = sum(
        len(tiers[i]) * len(tiers[j]) for i in range(len(tiers)) for j in range(i)
    )
    if back_edges > available:
        raise ValueError(f"at most {available} back-edges fit these parameters")
    rng = random.Random(f"bead:{seed}")
    added = 0
    while added < back_edges:
        u, v = rng.randrange(n), rng.randrange(n)
        if layer_of[v] >= layer_of[u] or (u, v) in edges:
            continue
        edges[(u, v)] = rng.randint(1, back_weight_max)
        added += 1
    return WeightedDigraph(frozenset(range(n)), edges, 0, n - 1)
