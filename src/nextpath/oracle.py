"""Exhaustive reference implementations for desk-scale verification.

Everything here enumerates rather than reduces, so it is independent of the
solver pipeline and usable as ground truth against it. Practical up to a
dozen vertices.
"""
from __future__ import annotations

from typing import Iterator

from .disjoint import DisjointPathPair, ForwardDag, SharedTerminalError
from .graph import (
    InternalInvariantError,
    Path,
    SolveOutcome,
    WeightedDigraph,
    validate_path,
)

DEFAULT_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    """The instance has more simple paths than the enumeration budget."""


def simple_paths(
    g: WeightedDigraph, a: int, b: int, budget: int | None = DEFAULT_BUDGET
) -> Iterator[tuple[Path, int]]:
    """Yield every simple a-to-b path with its weight, in DFS order with
    ascending adjacency. Raises BudgetExceeded past `budget` paths."""
    count = 0
    path, weights, on_path = [a], [0], {a}
    # frames[i] iterates the not yet tried out-edges of path[i]
    frames: list[Iterator[tuple[int, int]]] = []
    while True:
        if path[-1] == b:
            count += 1
            if budget is not None and count > budget:
                raise BudgetExceeded(f"more than {budget} simple paths")
            yield tuple(path), weights[-1]
            frames.append(iter(()))
        else:
            frames.append(iter(g.adj_out[path[-1]]))
        while frames:
            step = next(((v, w) for v, w in frames[-1] if v not in on_path), None)
            if step is not None:
                break
            frames.pop()
            on_path.remove(path.pop())
            weights.pop()
        else:
            return
        v, w = step
        path.append(v)
        on_path.add(v)
        weights.append(weights[-1] + w)


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


def _dag_paths(
    dag: ForwardDag, a: int, b: int, avoid: frozenset[int]
) -> Iterator[Path]:
    if a in avoid or b in avoid:
        return
    stack = [a]
    on_path = {a}

    def rec(u: int) -> Iterator[Path]:
        if u == b:
            yield tuple(stack)
            return
        for v in dag.adj[u]:
            if v in on_path or v in avoid:
                continue
            stack.append(v)
            on_path.add(v)
            yield from rec(v)
            stack.pop()
            on_path.remove(v)

    yield from rec(a)


def exhaustive_two_disjoint_paths(
    dag: ForwardDag, pair1: tuple[int, int], pair2: tuple[int, int]
) -> DisjointPathPair | None:
    """Brute-force search over all path pairs; mirrors two_disjoint_paths'
    contract, including the shared-terminal rejection."""
    s1, t1 = pair1
    s2, t2 = pair2
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
