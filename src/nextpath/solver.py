"""Next-to-shortest path search on a layered graph.

The solver enumerates endpoint pairs (a, b) of a potential middle segment
(both incident to back-edges, with d(a) > d(b)) together with a pair of
same-layer forward waypoint edges. For each tuple it builds two disjoint
forward paths s -> a and b -> t through the waypoints, removes their
vertices, and completes the route with an exact shortest a -> b path on the
residual graph. The minimum-weight completed route over all tuples is the
answer; if no tuple completes, no not-shortest path exists.

Any completed route is automatically a simple not-shortest s -> t path: the
middle segment descends from d(a) to d(b) < d(a), which forces a back-edge.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterator

from .disjoint import DisjointPathPair, ForwardDag, two_disjoint_paths
from .graph import (
    Edge,
    InternalInvariantError,
    Path,
    SolveOutcome,
    WeightedDigraph,
    dijkstra,
    edge_slack,
    layer_assignment,
    path_weight,
    shortest_distances,
    shortest_path_avoiding,
    validate_path,
)


class _LayeredSearch:
    """State for one solve: distances, layers, the back vertices, the forward
    edges by tail and by tail layer (only the layers that can hold a waypoint
    pair), the forward DAG once a tuple needs it, memoized disjoint-pair
    queries for the outer paths, and the incumbent (the lightest route found
    so far, as (weight, path))."""

    def __init__(self, g: WeightedDigraph):
        self.g = g
        self.d = d = shortest_distances(g)
        self.lam = lam = layer_assignment(g, d)  # rejects non-layered input
        self.dst: int = d.from_s[g.t]
        # One pass in (tail, head) order, which fixes each layer's edge order
        # and so the tuple order; the input check above leaves every slack
        # defined and non-negative.
        back: set[int] = set()
        slacks: list[int] = []
        self.forward: dict[int, list[int]] = {u: [] for u in g.vertices}
        by_layer: dict[int, list[Edge]] = {}
        for u in sorted(g.vertices):
            for v, w in g.adj_out[u]:
                slack = edge_slack(d, u, v, w)
                if slack:
                    back.update((u, v))
                    slacks.append(slack)
                else:
                    self.forward[u].append(v)
                    by_layer.setdefault(lam[u], []).append((u, v))
        self.back_vertices = frozenset(back)
        # A waypoint pair is two edges with distinct tails and distinct heads,
        # which a layer holds exactly when its edges have two of each.
        self.forward_by_tail_layer = {
            layer: edges
            for layer, edges in by_layer.items()
            if len({u for u, _ in edges}) > 1 and len({v for _, v in edges}) > 1
        }
        # Smallest possible excess of any not-shortest path over d(s,t):
        # every back-edge contributes its own slack, forward edges none.
        self.floor = self.dst + min(slacks, default=0)
        self._pairs: dict[tuple[tuple[int, int], ...], DisjointPathPair | None] = {}
        self.best: tuple[int, Path] | None = None

    @cached_property
    def dag(self) -> ForwardDag:
        """The forward subgraph, acyclic because distance from s strictly
        increases along every forward edge; built when the scan reaches its
        first tuple."""
        return ForwardDag(self.g.vertices, self.forward)

    def disjoint_pair(
        self, pair1: tuple[int, int], pair2: tuple[int, int]
    ) -> DisjointPathPair | None:
        """`two_disjoint_paths` over the forward DAG, memoized."""
        key = (pair1, pair2)
        if key not in self._pairs:
            self._pairs[key] = two_disjoint_paths(self.dag, pair1, pair2)
        return self._pairs[key]

    def waypoint_split(
        self, a: int, b: int, xp: int, x: int, yp: int, y: int
    ) -> DisjointPathPair | None:
        """Disjoint forward paths s -> xp -> x -> a and b -> yp -> y -> t,
        where (xp, x) and (yp, y) are forward edges whose tails share one
        layer in range(layer(b), layer(a)).

        Splits at that layer boundary into two disjoint-pair queries: the
        prefix (s -> xp, b -> yp) lives in layers up to layer(xp), and the
        suffix (x -> a, y -> t) in layers from layer(x) on, because forward
        edges advance the layer by exactly one. The halves cannot collide,
        so concatenating them is sound.
        """
        prefix = self.disjoint_pair((self.g.s, xp), (b, yp))
        if prefix is None:
            return None
        suffix = self.disjoint_pair((x, a), (y, self.g.t))
        if suffix is None:
            return None
        return DisjointPathPair(prefix.p1 + suffix.p1, prefix.p2 + suffix.p2)

    def scan(self) -> tuple[int, Path] | None:
        """Evaluate the tuple space in enumeration order: a, then b, both
        ascending over the back vertices, then waypoint-edge pairs.

        Returns the first minimum-weight candidate as (weight, path), or
        None. A route of pair (a, b) weighs at least base + dist(a, b), where
        the integer base = d(s,t) + d(a) - d(b) > d(s,t). So under an incumbent
        of excess E over d(s,t) only dist(a, b) < E - 1 can win, and a's bound
        table is that Dijkstra ball, valid for every later b as `best` only
        decreases.
        Pruning only drops tuples that cannot strictly beat the incumbent,
        and the scan stops once a candidate reaches `floor`, so the result
        equals that of a plain full scan.
        """
        g, dfs, lam = self.g, self.d.from_s, self.lam
        for a in sorted(self.back_vertices):
            # A tuple needs a waypoint layer in range(lam(b), lam(a)); `top`
            # is the last one below a (0 if none), and b must not lie above it.
            top = max((x for x in self.forward_by_tail_layer if x < lam[a]), default=0)
            if a == g.t or not top:
                continue
            radius = None if self.best is None else self.best[0] - self.dst - 1
            table, _ = dijkstra(g.adj_out, a, limit=radius)
            for b in sorted(self.back_vertices.intersection(table)):
                if lam[b] > top or b == g.s:
                    continue
                lower = table[b]
                base = dfs[a] - dfs[b] + self.dst
                # No route of this pair weighs less than base + lower.
                if self.best is not None and base + lower >= self.best[0]:
                    continue
                for weight, path in self._pair_routes(a, b, base):
                    self.best = (weight, path)
                    if weight <= self.floor:
                        return self.best
                    if base + lower >= weight:
                        break
        return self.best

    def _pair_routes(self, a: int, b: int, base: int) -> Iterator[tuple[int, Path]]:
        """Completed routes of pair (a, b) lighter than the incumbent, in tuple
        enumeration order, with their weights; each is checked before it is yielded.

        Every failed residual search leaves its cut (see `graph.dijkstra`).
        The limit only shrinks during one visit, as `best` only decreases,
        so a later tuple whose blocked set contains a cut fails too and is
        skipped without a search."""
        g, lam, dag = self.g, self.lam, self.dag
        by_layer = self.forward_by_tail_layer
        cuts: list[set[int]] = []
        for layer in range(lam[b], lam[a]):
            edges_here = by_layer.get(layer, ())
            for xp, x in edges_here:
                if xp == b or x == b or not dag.reaches(x, a):
                    continue
                for yp, y in edges_here:
                    if xp == yp or x == y or y == a:
                        continue
                    if not dag.reaches(b, yp):
                        continue
                    outer = self.waypoint_split(a, b, xp, x, yp, y)
                    if outer is None:
                        continue
                    blocked = (set(outer.p1) | set(outer.p2)) - {a, b}
                    if any(cut <= blocked for cut in cuts):
                        continue
                    # Read now: the incumbent may improve while this generator waits.
                    limit = None if self.best is None else self.best[0] - base
                    met: set[int] = set()
                    p0 = shortest_path_avoiding(g, blocked, a, b, limit, met)
                    if p0 is None:
                        cuts.append(met)
                        continue
                    weight = base + path_weight(g, p0)
                    full = outer.p1 + p0[1:] + outer.p2[1:]
                    _check_candidate(g, full, weight, self.dst)
                    yield weight, full


def _check_candidate(g: WeightedDigraph, path: Path, weight: int, dst: int) -> None:
    """Defensive check, kept in release builds: a constructed candidate that
    fails validation is a solver bug, never an input condition."""
    check = validate_path(g, path)
    if not check.simple or check.weight != weight or weight <= dst:
        raise InternalInvariantError(
            f"solver built an invalid candidate {path} (weight {weight})"
        )


def solve_layered(g: WeightedDigraph) -> SolveOutcome:
    """Find a next-to-shortest s-to-t path of a layered graph, or report none.

    Deterministic: one sequential scan enumerates tuples with a ascending,
    b ascending, then waypoint-edge pairs in lexicographic order, and ties
    in weight keep the first-found path.
    """
    best = _LayeredSearch(g).scan()
    if best is None:
        return SolveOutcome.none()
    return SolveOutcome.of(best[1], best[0])
