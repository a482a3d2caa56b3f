"""Two vertex-disjoint paths in a DAG, such as the forward subgraph of a
layered graph.

The search is a pair-token dynamic program over topological order: a state
holds one vertex per path, and the token that is earlier in topological
order is the only one allowed to advance. That schedule rules out the two
tokens ever occupying one vertex at different times, so a state path to the
goal yields genuinely vertex-disjoint paths. O(n*m) per query.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .graph import Path, WeightedDigraph


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
    deterministic.
    """

    def __init__(self, vertices: Iterable[int], adj: Mapping[int, Iterable[int]]):
        self.vertices = frozenset(vertices)
        self.adj: dict[int, tuple[int, ...]] = {
            u: tuple(sorted(adj.get(u, ()))) for u in self.vertices
        }
        self.rank = self._topological_rank()

    @classmethod
    def from_graph(cls, g: WeightedDigraph) -> "ForwardDag":
        """Treat every edge of g as a DAG edge; weights are irrelevant here."""
        adj: dict[int, list[int]] = {u: [] for u in g.vertices}
        for u, v in g.edges:
            adj[u].append(v)
        return cls(g.vertices, adj)

    def _topological_rank(self) -> dict[int, int]:
        indeg = {u: 0 for u in self.vertices}
        for u in self.vertices:
            for v in self.adj[u]:
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
    def _bit_index(self) -> dict[int, int]:
        return {u: i for i, u in enumerate(sorted(self.vertices))}

    @cached_property
    def _descendants(self) -> dict[int, int]:
        """Reachability closure as bitmasks, computed bottom-up."""
        idx = self._bit_index
        desc = {u: 1 << idx[u] for u in self.vertices}
        for u in sorted(self.vertices, key=self.rank.get, reverse=True):
            acc = desc[u]
            for v in self.adj[u]:
                acc |= desc[v]
            desc[u] = acc
        return desc

    def reaches(self, u: int, v: int) -> bool:
        return bool(self._descendants[u] >> self._bit_index[v] & 1)


def _single_path(dag: ForwardDag, a: int, b: int, avoid: frozenset[int]) -> Path | None:
    """Deterministic BFS path a -> b avoiding a vertex set."""
    if a in avoid or b in avoid:
        return None
    if a == b:
        return (a,)
    parent: dict[int, int] = {a: a}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for v in dag.adj[u]:
            if v in avoid or v in parent:
                continue
            parent[v] = u
            if v == b:
                rev = [b]
                while rev[-1] != a:
                    rev.append(parent[rev[-1]])
                return tuple(reversed(rev))
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
        p2 = _single_path(dag, s2, t2, frozenset((s1,)))
        return DisjointPathPair((s1,), p2) if p2 is not None else None
    if s2 == t2:
        p1 = _single_path(dag, s1, t1, frozenset((s2,)))
        return DisjointPathPair(p1, (s2,)) if p1 is not None else None
    if not dag.reaches(s1, t1) or not dag.reaches(s2, t2):
        return None

    rank = dag.rank
    start = (s1, s2)
    goal = (t1, t2)
    parent: dict[tuple[int, int], tuple[tuple[int, int], int]] = {start: (start, 0)}
    queue = deque([start])
    found = False
    while queue:
        state = queue.popleft()
        if state == goal:
            found = True
            break
        u, v = state
        if u != t1 and (v == t2 or rank[u] < rank[v]):
            # token 1 is behind (or token 2 is parked): only it may move
            for u2 in dag.adj[u]:
                if u2 != v and dag.reaches(u2, t1):
                    nxt = (u2, v)
                    if nxt not in parent:
                        parent[nxt] = (state, 1)
                        queue.append(nxt)
        elif v != t2:
            for v2 in dag.adj[v]:
                if v2 != u and dag.reaches(v2, t2):
                    nxt = (u, v2)
                    if nxt not in parent:
                        parent[nxt] = (state, 2)
                        queue.append(nxt)
    if not found:
        return None
    rev1: list[int] = []
    rev2: list[int] = []
    state = goal
    while state != start:
        prev, moved = parent[state]
        if moved == 1:
            rev1.append(state[0])
        else:
            rev2.append(state[1])
        state = prev
    p1 = (s1, *reversed(rev1))
    p2 = (s2, *reversed(rev2))
    return DisjointPathPair(p1, p2)

