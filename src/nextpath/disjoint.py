"""Two vertex-disjoint paths in a DAG, such as the forward subgraph of a
layered graph.

The search is a BFS over token pairs, in the line of Perl and Shiloach
(JACM 1978): a state holds one vertex per path, and only the token that is
earlier in topological order may advance (a token parked at its target
never moves). That schedule rules out the two tokens ever occupying one
vertex at different times. The BFS keeps each state's first parent, and each
path is one token's coordinate of the state walk from start to goal.
O(n*m) per query.

On a query that parks one token at its target only the other token moves,
so the pair search is that token's BFS around the parked vertex. On a
layering whose forward edges all climb exactly one layer, `layer_walk` finds
the same path by a depth-first walk.

The search runs on a `ForwardDag`, built from a topological order and an
adjacency; `topological_order` gives Kahn's order for a DAG that comes
without one.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, KeysView, Mapping, Sequence

from .graph import Path, WeightedDigraph, parent_path


class CyclicGraphError(ValueError):
    """The input graph has a directed cycle and admits no topological order."""


class SharedTerminalError(ValueError):
    """A terminal appears in both query pairs; such queries are never
    feasible and signal a caller bug rather than an infeasible instance."""


@dataclass(frozen=True)
class DisjointPathPair:
    p1: Path
    p2: Path


class ForwardDag:
    """An acyclic digraph with a certified topological order.

    `ForwardDag(order, adj)` takes `order`, which lists every vertex once,
    and `adj`, a list per vertex sorted by head id, so that every search
    here is deterministic; `adj` is used as it is. The order is kept as
    `rank`, the one vertex map; the reachability closure is derived on the
    first `reaches`, which a query that parks both tokens never makes. The
    one pass, in reverse order, that builds the closure also certifies the
    order: an edge that does not go later in it raises CyclicGraphError, a
    vertex without a list or an edge out of the vertex set ValueError.
    The closure holds a bitmask of up to n bits per vertex, so it takes
    O(n^2) bits.
    """

    def __init__(self, order: Sequence[int], adj: Mapping[int, Sequence[int]]):
        self.rank = {u: i for i, u in enumerate(order)}
        if len(self.rank) != len(order):
            raise ValueError("the order lists a vertex twice")
        self.adj = adj

    @property
    def vertices(self) -> KeysView[int]:
        """The vertex set, a read-only view of `rank`."""
        return self.rank.keys()

    @classmethod
    def from_graph(cls, g: WeightedDigraph) -> "ForwardDag":
        """Treat every edge of g as a DAG edge, in Kahn's order; weights are
        irrelevant here."""
        ids = g.index.ids
        adj = {u: [ids[j] for j, _w in out] for u, out in zip(ids, g.index.out)}
        return cls(topological_order(ids, adj), adj)

    @cached_property
    def _descendants(self) -> dict[int, int]:
        """Reachability closure as bitmasks indexed by rank, built in reverse
        order of `rank`. A head whose closure is not built yet does not go
        later in the order: the pass raises CyclicGraphError, or ValueError
        when the head is not a vertex."""
        rank, adj = self.rank, self.adj
        desc: dict[int, int] = {}
        get = desc.get
        for u in reversed(rank):
            try:
                heads = adj[u]
            except KeyError:
                raise ValueError(f"vertex {u} has no adjacency list") from None
            acc = 1 << rank[u]
            for v in heads:
                dv = get(v)
                if dv is None:
                    if v in rank:
                        raise CyclicGraphError(f"edge ({u}, {v}) goes against the order")
                    raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
                acc |= dv
            desc[u] = acc
        return desc

    def reaches(self, u: int, v: int) -> bool:
        """Whether u reaches v; ValueError for a vertex outside the DAG."""
        try:
            return bool(self._descendants[u] >> self.rank[v] & 1)
        except KeyError as err:
            raise ValueError(f"vertex {err.args[0]} not in the DAG") from None


def topological_order(vertices: Iterable[int], adj: Mapping[int, Iterable[int]]) -> list[int]:
    """Kahn's order of the digraph on `vertices` with out-lists `adj` (a
    vertex without a list has no out-edge), smallest id first among the
    ready vertices. An edge out of the vertex set raises ValueError, a
    directed cycle CyclicGraphError."""
    indeg = dict.fromkeys(vertices, 0)
    for u in indeg:
        for v in adj.get(u, ()):
            if v not in indeg:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
            indeg[v] += 1
    heap = [u for u, k in indeg.items() if k == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in adj.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(order) != len(indeg):
        raise CyclicGraphError("graph contains a directed cycle")
    return order


def layer_walk(
    adj: Sequence[Sequence[int]], lam: Sequence[int], a: int, b: int, avoid: int
) -> Path | None:
    """The path a -> b around `avoid` that `two_disjoint_paths` returns with
    `avoid` parked, by a depth-first walk, on a layering without spans:
    `adj` lists each vertex's forward heads in ascending order, `lam` gives
    its layer, and every forward edge climbs exactly one layer. The walk
    tries the heads in order, enters each vertex at most once, never enters
    `avoid`, and enters no layer at or above b's but at b itself; it returns
    the first path that reaches b.

    That path is the pair search's. With `avoid` parked only the other token
    moves, so the pair search is a BFS from a around `avoid` over the
    vertices that reach b, and returns its tree path to b. Every path into
    such a vertex runs through such vertices only, so leaving out the rest
    changes no tree path. As every edge climbs one layer, the BFS's levels
    are the layers, and a vertex is found by the first-dequeued of its
    tails. So, level by level, the BFS dequeues the vertices in the
    lexicographic order of their tree paths from a, and each tree path is
    the lexicographically smallest path to its vertex around `avoid`; the
    walk, trying heads in order, meets that path to b first. A vertex the
    walk backs out of reaches b only through `avoid`: each of its heads is
    `avoid`, lies at or above b's layer, or was backed out of before, as the
    walk's path lies in lower layers. So skipping it when met again loses
    nothing. Towards t, as every other vertex has a forward head, the walk
    backs up only where a vertex's one head is `avoid`, and costs about the
    path's length.
    """
    top = lam[b]
    seen = {a, avoid}
    path = [a]
    heads = [iter(adj[a])]
    while heads:
        for v in heads[-1]:
            if v == b:
                path.append(b)
                return tuple(path)
            if v not in seen and lam[v] < top:
                seen.add(v)
                path.append(v)
                heads.append(iter(adj[v]))
                break
        else:
            heads.pop()
            path.pop()
    return None


def two_disjoint_paths(
    dag: ForwardDag, pair1: tuple[int, int], pair2: tuple[int, int]
) -> DisjointPathPair | None:
    """Vertex-disjoint paths s1->t1 and s2->t2 in a DAG, or None.

    A pair may degenerate to a single vertex (s1 == t1 yields the empty
    path at s1), but a terminal shared between the two pairs is a contract
    violation and raises SharedTerminalError. With one token parked only
    the other moves, and its path is the BFS path around the parked vertex:
    the lexicographically smallest of the fewest-hop ones. Every query but
    one that parks both tokens reads the closure.
    """
    s1, t1 = pair1
    s2, t2 = pair2
    for x in (s1, t1, s2, t2):
        if x not in dag.vertices:
            raise ValueError(f"terminal {x} not in graph")
    if {s1, t1} & {s2, t2}:
        raise SharedTerminalError(f"pairs {pair1} and {pair2} share a terminal")
    if s1 == t1 and s2 == t2:
        return DisjointPathPair((s1,), (s2,))
    if not dag.reaches(s1, t1) or not dag.reaches(s2, t2):
        return None

    adj, rank, reaches = dag.adj, dag.rank, dag.reaches
    start, goal = (s1, s2), (t1, t2)
    parent = {start: start}
    queue = deque([start])
    # The goal is the one state where neither token may move, and its
    # parent is fixed when it is first reached.
    while queue and goal not in parent:
        state = queue.popleft()
        u, v = state
        if u != t1 and (v == t2 or rank[u] < rank[v]):
            moves = [(x, v) for x in adj[u] if x != v and reaches(x, t1)]
        else:
            moves = [(u, y) for y in adj[v] if y != u and reaches(y, t2)]
        for nxt in moves:
            if nxt not in parent:
                parent[nxt] = state
                queue.append(nxt)
    if goal not in parent:
        return None
    # A state repeats the vertex of the token that waited, and a token never
    # revisits a vertex of a DAG.
    walk = parent_path(parent, start, goal)
    return DisjointPathPair(
        tuple(dict.fromkeys(u for u, _ in walk)), tuple(dict.fromkeys(v for _, v in walk))
    )
