"""Exhaustive reference implementations for desk-scale verification.

Everything here enumerates rather than reduces, so it is independent of the
solver pipeline and usable as ground truth against it. The full
enumerations are practical up to a dozen vertices; `ranked_next_to_shortest`
ranks simple paths by weight instead, so it reaches graphs of hundreds of
vertices that have few shortest paths.
"""
from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator

from .disjoint import DisjointPathPair, ForwardDag, SharedTerminalError
from .graph import (
    InternalInvariantError,
    Path,
    SolveOutcome,
    WeightedDigraph,
    path_weight,
    validate_path,
)

DEFAULT_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    """The instance has more simple paths than the enumeration budget."""


def _dfs_paths(
    succ: Callable[[int], Iterable[int]], a: int, b: int, avoid: frozenset[int]
) -> Iterator[Path]:
    """Yield every simple a-to-b path that avoids `avoid`, in DFS order with
    successors tried in `succ` order. The stack is explicit, so a path may
    be longer than the recursion limit."""
    if a in avoid or b in avoid:
        return
    path, on_path = [a], {a}
    # frames[i] iterates the not yet tried successors of path[i]
    frames: list[Iterator[int]] = []
    while True:
        if path[-1] == b:
            yield tuple(path)
            frames.append(iter(()))
        else:
            frames.append(iter(succ(path[-1])))
        while frames:
            v = next((v for v in frames[-1] if v not in on_path and v not in avoid), None)
            if v is not None:
                break
            frames.pop()
            on_path.remove(path.pop())
        else:
            return
        path.append(v)
        on_path.add(v)


def simple_paths(
    g: WeightedDigraph, a: int, b: int, budget: int | None = DEFAULT_BUDGET
) -> Iterator[tuple[Path, int]]:
    """Yield every simple a-to-b path with its weight, in DFS order with
    ascending adjacency. Raises BudgetExceeded past `budget` paths, and
    ValueError on a negative budget."""
    if budget is not None and budget < 0:
        raise ValueError("budget must be non-negative")
    count = 0
    ix = g.index
    paths = _dfs_paths(lambda u: (ix.ids[j] for j, _w in ix.out[ix.slot[u]]), a, b, frozenset())
    for path in paths:
        count += 1
        if budget is not None and count > budget:
            raise BudgetExceeded(f"more than {budget} simple paths")
        yield path, path_weight(g, path)


def exhaustive_next_to_shortest(
    g: WeightedDigraph, budget: int | None = DEFAULT_BUDGET
) -> SolveOutcome:
    """Minimum-weight s-to-t path strictly longer than the shortest, by full
    enumeration; the explicit none-marker when no such path exists."""
    best: tuple[int, Path] | None = None
    second: tuple[int, Path] | None = None
    for path, w in simple_paths(g, g.s, g.t, budget):
        if best is None or w < best[0]:
            second = best if best is not None else second
            best = (w, path)
        elif w == best[0]:
            continue
        elif second is None or w < second[0]:
            second = (w, path)
    if second is None:
        return SolveOutcome.none()
    check = validate_path(g, second[1])
    if not check.simple or check.weight != second[0]:
        raise InternalInvariantError("oracle produced an invalid witness")
    return SolveOutcome.of(second[1], second[0])


def _lightest_path(
    adj: dict[int, list[tuple[int, int]]], a: int, b: int,
    avoid: frozenset[int], cut: set[tuple[int, int]],
) -> tuple[int, Path] | None:
    """A lightest a-to-b path that enters no vertex of `avoid` and takes no
    edge of `cut`, with its weight, by a heap Dijkstra of its own; None when
    there is none."""
    dist, parent, done = {a: 0}, {}, set()
    heap = [(0, a)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        if u == b:
            path = [b]
            while path[-1] != a:
                path.append(parent[path[-1]])
            return d, tuple(reversed(path))
        done.add(u)
        for v, w in adj[u]:
            if v in avoid or v in done or (u, v) in cut:
                continue
            if v not in dist or d + w < dist[v]:
                dist[v], parent[v] = d + w, u
                heapq.heappush(heap, (d + w, v))
    return None


def ranked_next_to_shortest(g: WeightedDigraph, budget: int = DEFAULT_BUDGET) -> SolveOutcome:
    """Minimum-weight s-to-t path strictly longer than the shortest, by
    ranking simple paths by weight (Yen, "Finding the K shortest loopless
    paths in a network", Management Science 1971) until the first one
    heavier than the shortest; the none-marker when the paths run out.

    Its work grows with the number of shortest paths, not of all simple
    paths, so it checks graphs far beyond the exhaustive oracle's reach as
    long as they have few shortest paths; it raises BudgetExceeded past
    `budget` ranked paths, and ValueError on a negative budget.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    weights = g.edges
    adj: dict[int, list[tuple[int, int]]] = {u: [] for u in g.vertices}
    for (u, v), w in weights.items():
        adj[u].append((v, w))
    first = _lightest_path(adj, g.s, g.t, frozenset(), set())
    # `ranked` holds the shortest paths ranked so far, `heap` the next
    # candidates; each path popped counts against the budget.
    ranked: list[tuple[int, Path]] = []
    heap = [] if first is None else [first]
    seen = {p for _w, p in heap}
    while heap:
        if len(ranked) == budget:
            raise BudgetExceeded(f"more than {budget} ranked paths")
        w_last, last = heapq.heappop(heap)
        if ranked and w_last > ranked[0][0]:
            check = validate_path(g, last)
            if not check.simple or check.weight != w_last:
                raise InternalInvariantError("oracle produced an invalid witness")
            return SolveOutcome.of(last, w_last)
        ranked.append((w_last, last))
        # Each deviation from `last` at its i-th vertex: keep the root
        # last[:i + 1], then a lightest spur to t that avoids the root and
        # every edge a ranked path with the same root takes next.
        root_weight = 0
        for i in range(len(last) - 1):
            root = last[: i + 1]
            cut = {p[i : i + 2] for _w, p in ranked if p[: i + 1] == root}
            spur = _lightest_path(adj, last[i], g.t, frozenset(root[:-1]), cut)
            if spur is not None:
                path = root[:-1] + spur[1]
                if path not in seen:
                    seen.add(path)
                    heapq.heappush(heap, (root_weight + spur[0], path))
            root_weight += weights[last[i : i + 2]]
    return SolveOutcome.none()


def _dag_paths(
    dag: ForwardDag, a: int, b: int, avoid: frozenset[int]
) -> Iterator[Path]:
    return _dfs_paths(dag.adj.__getitem__, a, b, avoid)


def exhaustive_two_disjoint_paths(
    dag: ForwardDag, pair1: tuple[int, int], pair2: tuple[int, int]
) -> DisjointPathPair | None:
    """Brute-force search over all path pairs; mirrors two_disjoint_paths'
    contract, including the terminal checks."""
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
        for p2 in _dag_paths(dag, s2, t2, frozenset((s1,))):
            return DisjointPathPair((s1,), p2)
        return None
    if s2 == t2:
        for p1 in _dag_paths(dag, s1, t1, frozenset((s2,))):
            return DisjointPathPair(p1, (s2,))
        return None
    for p1 in _dag_paths(dag, s1, t1, frozenset()):
        for p2 in _dag_paths(dag, s2, t2, frozenset(p1)):
            return DisjointPathPair(p1, p2)
    return None
