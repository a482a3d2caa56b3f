"""Deterministic random instance generation for tests and benchmarks."""
from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate

from .graph import Edge, WeightedDigraph


def random_digraph(n: int, p: float, w_max: int, seed: int) -> WeightedDigraph:
    """Simple digraph on vertices 0..n-1 with s=0, t=n-1: every ordered pair
    becomes an edge independently with probability p, weights uniform in
    [1, w_max]. Byte-identical output per seed."""
    if n < 2:
        raise ValueError("need at least two vertices")
    if not 0 <= p <= 1:
        raise ValueError("edge probability must be in [0, 1]")
    if w_max < 1:
        raise ValueError("maximum weight must be at least 1")
    rng = random.Random(seed)
    edges: dict[Edge, int] = {}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                edges[(u, v)] = rng.randint(1, w_max)
    return WeightedDigraph(frozenset(range(n)), edges, 0, n - 1)


def layered_digraph(
    layers: int,
    width: int,
    back_edges: int,
    seed: int,
    *,
    back_weight_max: int = 3,
) -> WeightedDigraph:
    """A graph that is layered by construction.

    Layer 1 holds s, layer `layers` holds t, and the layers in between hold
    `width` vertices each. Unit-weight forward edges join consecutive layers
    so that every vertex sits on some shortest s-to-t path; `back_edges`
    extra edges point to strictly earlier layers with weights in
    [1, back_weight_max] (any positive weight keeps the graph layered,
    since such edges can shorten no distance).
    """
    if layers < 2:
        raise ValueError("need at least the two terminal layers")
    if width < 1:
        raise ValueError("width must be at least 1")
    if back_edges < 0:
        raise ValueError("back-edge count must be non-negative")
    if back_weight_max < 1:
        raise ValueError("maximum back-edge weight must be at least 1")
    rng = random.Random(seed)
    tiers: list[list[int]] = [[0]]
    nxt = 1
    for _ in range(layers - 2):
        tiers.append(list(range(nxt, nxt + width)))
        nxt += width
    tiers.append([nxt])
    n = nxt + 1

    edges: dict[Edge, int] = {}
    for i in range(layers - 1):
        cur, upper = tiers[i], tiers[i + 1]
        tails = [rng.choice(cur) for _ in upper]
        edges.update(dict.fromkeys(zip(tails, upper), 1))
        for u in cur:
            if u not in tails:
                edges[(u, rng.choice(upper))] = 1
        for u in cur:
            for v in upper:
                if (u, v) not in edges and rng.random() < 0.25:
                    edges[(u, v)] = 1

    # The (later, earlier) pairs, numbered in (u, v) order: vertex u is the
    # tail of tier[0] of them, one per id below its layer, the first numbered
    # offsets[u]. `sample` only indexes its population, so drawing numbers
    # picks the pairs that drawing from the list of pairs would, with no
    # list of a size quadratic in the vertex count.
    offsets = list(accumulate((tier[0] for tier in tiers for _ in tier), initial=0))
    total = offsets[-1]
    if back_edges > total:
        raise ValueError(f"at most {total} back-edges fit these layer parameters")
    for k in rng.sample(range(total), back_edges):
        u = bisect_right(offsets, k) - 1
        edges[(u, k - offsets[u])] = rng.randint(1, back_weight_max)

    return WeightedDigraph(frozenset(range(n)), edges, 0, n - 1)
