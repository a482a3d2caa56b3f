"""Two vertex-disjoint paths in a DAG, such as the forward subgraph of a
layered graph.

The search is a BFS over token pairs, in the line of Perl and Shiloach
(JACM 1978): a state holds one vertex per path, and only the token that is
earlier in topological order may advance (a token parked at its target
never moves). That schedule rules out the two tokens ever occupying one
vertex at different times. The BFS keeps each state's first parent, and each
path is one token's coordinate of the state walk from start to goal.
O(n*m) per query.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

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

    Adjacency lists are kept sorted by head id so every search here is
    deterministic. `ForwardDag(vertices, adj)` sorts them and finds Kahn's
    smallest-id-first order; `from_order` takes both as they are given.
    """

    def __init__(self, vertices: Iterable[int], adj: Mapping[int, Iterable[int]]):
        self.vertices = frozenset(vertices)
        self.adj = {u: tuple(sorted(adj.get(u, ()))) for u in self.vertices}
        self.rank = self._topological_rank()

    @classmethod
    def from_order(cls, order: Sequence[int], adj: Mapping[int, Sequence[int]]) -> "ForwardDag":
        """The DAG whose topological order is `order`, which lists every
        vertex once, and whose adjacency is `adj`, a list per vertex already
        sorted by head id; both are used as they are. One pass in reverse
        order certifies the order and builds the reachability closure: an
        edge that does not go later in it raises CyclicGraphError, a vertex
        without a list or an edge out of the vertex set ValueError."""
        dag = _ordered_dag(order, adj)
        dag._descendants = dag._closure()
        return dag

    @classmethod
    def from_graph(cls, g: WeightedDigraph) -> "ForwardDag":
        """Treat every edge of g as a DAG edge; weights are irrelevant here."""
        ids = g.index.ids
        return cls(ids, {u: [ids[j] for j, _w in out] for u, out in zip(ids, g.index.out)})

    def _topological_rank(self) -> dict[int, int]:
        """Kahn's order, smallest id first among the ready vertices; the
        rank decides which token of the pair search moves."""
        indeg = {u: 0 for u in self.vertices}
        for u in self.vertices:
            for v in self.adj[u]:
                if v not in indeg:
                    raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
                indeg[v] += 1
        heap = [u for u in self.vertices if indeg[u] == 0]
        heapq.heapify(heap)
        rank: dict[int, int] = {}
        while heap:
            u = heapq.heappop(heap)
            rank[u] = len(rank)
            for v in self.adj[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(heap, v)
        if len(rank) != len(self.vertices):
            raise CyclicGraphError("graph contains a directed cycle")
        return rank

    @cached_property
    def rank(self) -> dict[int, int]:
        """The given order as ranks, on first read; `ForwardDag(vertices,
        adj)` sets it at once from Kahn's order."""
        return {u: i for i, u in enumerate(self._order)}

    @cached_property
    def _descendants(self) -> dict[int, int]:
        """The closure, on first use; `from_order` sets it at once."""
        return self._closure()

    def _closure(self) -> dict[int, int]:
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


def _ordered_dag(order: Sequence[int], adj: Mapping[int, Sequence[int]]) -> ForwardDag:
    """`ForwardDag.from_order(order, adj)` without its closure: the pass
    that builds the closure, and certifies `order` as it goes, runs on the
    first `reaches`, and `rank` waits for its first read, which a query
    with a parked token never makes. The caller vouches for `order` and
    `adj`."""
    dag = ForwardDag.__new__(ForwardDag)
    dag.vertices = frozenset(order)
    dag.adj = adj
    dag._order = order
    return dag


def _single_path(dag: ForwardDag, a: int, b: int, avoid: int) -> Path | None:
    """Deterministic BFS path a -> b around the vertex `avoid`, for a != b
    and avoid not in {a, b}. The pair search below returns the same path
    when one token is parked at `avoid`, but its pair states cost several
    times as much, and most of the layered search's queries are of this
    kind."""
    parent: dict[int, int] = {a: a}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for v in dag.adj[u]:
            if v == avoid or v in parent:
                continue
            parent[v] = u
            if v == b:
                return parent_path(parent, a, b)
            queue.append(v)
    return None


def two_disjoint_paths(
    dag: ForwardDag, pair1: tuple[int, int], pair2: tuple[int, int]
) -> DisjointPathPair | None:
    """Vertex-disjoint paths s1->t1 and s2->t2 in a DAG, or None.

    A pair may degenerate to a single vertex (s1 == t1 yields the empty
    path at s1), but a terminal shared between the two pairs is a contract
    violation and raises SharedTerminalError.
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
    if s1 == t1:
        p2 = _single_path(dag, s2, t2, s1)
        return DisjointPathPair((s1,), p2) if p2 is not None else None
    if s2 == t2:
        p1 = _single_path(dag, s1, t1, s2)
        return DisjointPathPair(p1, (s2,)) if p1 is not None else None
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
