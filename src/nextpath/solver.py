"""Next-to-shortest path search on a layered graph: a straight graph in
which every back-edge goes strictly back. A forward edge may span several
layers.

The solver enumerates endpoint pairs (a, b) of a potential middle segment
(both incident to back-edges, with d(a) > d(b)) together with a pair of
forward waypoint edges that cross one layer boundary. For each tuple it
builds two disjoint forward paths s -> a and b -> t through the waypoints,
removes their vertices, and completes the route with an exact shortest
a -> b path on the residual graph. The minimum-weight completed route over
all tuples is the answer; if no tuple completes, no not-shortest path
exists. An edge that spans several layers stands for the chain of one-layer
steps the paper's layered graph would hold in its place: an outer path used
such a chain whole or not at all, so blocking the edge's two ends blocks the
same routes.

Any completed route is automatically a simple not-shortest s -> t path: the
middle segment descends from d(a) to d(b) < d(a), which forces a back-edge.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import chain

from .disjoint import DisjointPathPair, ForwardDag, layer_walk, two_disjoint_paths
from .graph import (
    Edge,
    Layering,
    Path,
    SolveOutcome,
    WeightedDigraph,
    check_answer,
    dijkstra,
    path_weight,
    shortest_path_avoiding,
    validate_path,
)


class _LayeredSearch:
    """State for one solve: distances, the graph's layering, which
    `solve_layered` checks once and hands in, the layer boundaries that can
    hold a waypoint pair, and, once a scan needs them, the back vertices,
    the floor, the floor reach, the start vertices a with the last such
    boundary below each (those in the reach for a ceiling scan, all of
    them for a full scan), the forward edges that cross a boundary and the
    forward DAG, and memoized disjoint-pair queries for the outer paths. The
    set-up and the memo serve every scan of the same search. A vertex here,
    s and t too, is a slot of the graph's index; ids appear only at the
    residual search, `shortest_path_avoiding`, and in the routes returned."""

    def __init__(self, g: WeightedDigraph, layering: Layering):
        self.g = g
        self.d = d = g.distances
        self.s, self.t = g.index.slot[g.s], g.index.slot[g.t]
        self.lam = lam = layering.lam
        self.layers, self.forward, self.spans = layering.layers, layering.forward, layering.spans
        self.back = layering.back
        self.dst: int = d.dst
        # A waypoint pair is two forward edges across one boundary l|l+1 with
        # distinct tails and distinct heads. In a straight graph every vertex
        # of layer l has a forward out-edge across it and every vertex of
        # layer l+1 a forward in-edge, so the boundary has two tails exactly
        # when layer l has two vertices or a span from below passes over
        # layer l, and two heads exactly when layer l+1 has two vertices or a
        # span across it ends above layer l+1. `passing` is the highest layer
        # that a span from the layers so far reaches.
        reach = [0] * len(self.layers)
        for u, v in self.spans:
            reach[lam[u]] = max(reach[lam[u]], lam[v])
        # A tuple needs a waypoint boundary l|l+1 with l in
        # range(lam(b), lam(a)). tops[l] is the last waypoint boundary below
        # layer l (0 if none), a running maximum over the layers; a vertex a
        # with tops[lam(a)] = 0 starts no tuple, and b must not lie above it.
        self.waypoints: set[int] = set()
        self._tops = tops = [0] * len(self.layers)
        passing = 0
        for layer in range(1, len(self.layers) - 1):
            tails = len(self.layers[layer]) > 1 or passing > layer
            passing = max(passing, reach[layer])
            if tails and (len(self.layers[layer + 1]) > 1 or passing > layer + 1):
                self.waypoints.add(layer)
            tops[layer + 1] = layer if layer in self.waypoints else tops[layer]
        self._crossing: dict[int, list[Edge]] = {}
        self._pairs: dict[tuple[tuple[int, int], ...], DisjointPathPair | None] = {}

    @cached_property
    def back_vertices(self) -> frozenset[int]:
        """The endpoints of the back-edges."""
        return frozenset(chain.from_iterable(self.back))

    @cached_property
    def floor(self) -> int:
        """Smallest possible weight of a not-shortest path: every back-edge
        adds its own slack to d(s,t), a forward edge none."""
        return self.dst + min(self.back.values(), default=0)

    def _starts_of(self, vertices: Iterable[int]) -> Iterator[tuple[int, int]]:
        """The starts among `vertices`, in their order: each vertex a other
        than t with a waypoint boundary below its layer, with the last such
        boundary."""
        tops, lam, t = self._tops, self.lam, self.t
        return ((a, tops[lam[a]]) for a in vertices if a != t and tops[lam[a]])

    @cached_property
    def starts(self) -> list[tuple[int, int]]:
        """The back vertices that are starts, ascending: those of a full
        scan, listed when one runs."""
        return list(self._starts_of(sorted(self.back_vertices)))

    @cached_property
    def reach_starts(self) -> list[tuple[int, int]]:
        """The starts in `floor_reach`, ascending: those a scan under a
        bound of at most floor + 1 visits (see `scan`), listed from the
        reach, which is built only once some back vertex is a start."""
        if next(self._starts_of(self.back_vertices), None) is None:
            return []
        return list(self._starts_of(sorted(self.floor_reach & self.back_vertices)))

    @cached_property
    def dag(self) -> ForwardDag:
        """The forward subgraph, built on the scan's first reach that the
        layers leave open (see `climbs`) or disjoint-pair query that is not
        a walk: one where both tokens move or both are parked, or any on a
        layering with spans (see `disjoint_pair`). Distance from s strictly
        increases along every forward edge, so the vertices by (d(s,u), u),
        the layers in turn, are a topological order. Its closure waits for
        the first such reach or pair query; every pair query but one that
        parks both tokens reads it."""
        return ForwardDag([u for layer in self.layers for u in layer], self.forward)

    def climbs(self, u: int, v: int) -> bool:
        """Whether u reaches v in the forward DAG. Every forward edge climbs
        a layer, so only u itself reaches a vertex at or below u's layer,
        and only a pair whose v lies above u's layer asks the closure."""
        return u == v or self.lam[u] < self.lam[v] and self.dag.reaches(u, v)

    @cached_property
    def floor_reach(self) -> frozenset[int]:
        """The vertices a with dist(a, x) <= least - 2, where
        least = floor - d(s,t) is the least back-edge slack and x the tail
        of some back-edge of that slack: the only starts that can pass a
        pair under a bound of at most floor + 1 (see `scan`). Built when the
        ceiling scan lists its starts, if there is one. A back-edge goes
        strictly back and weighs at least 1, so least >= 2; at 2, as weights
        are positive integers, dist(a, x) <= 0 forces a = x, and the reach
        is the tails. Otherwise one Dijkstra over the in-edges, from a
        virtual source with a unit edge to each tail, cut at `least`."""
        ix = self.g.index
        least = self.floor - self.dst
        tails = sorted({u for (u, _), slack in self.back.items() if slack == least})
        if least == 2:
            return frozenset(tails)
        virtual = len(ix.ids)
        reach, _ = dijkstra((*ix.into, tuple((j, 1) for j in tails)), virtual, limit=least)
        del reach[virtual]
        return frozenset(reach)

    def crossing(self, layer: int) -> list[Edge]:
        """The forward edges that cross boundary layer|layer+1, in (tail,
        head) order: the out-edges of the layer's vertices and the edges
        that pass over it from below. Built on the first call."""
        edges = self._crossing.get(layer)
        if edges is None:
            edges = [(u, v) for u in self.layers[layer] for v in self.forward[u]]
            lam = self.lam
            over = [(u, v) for u, v in self.spans if lam[u] < layer < lam[v]]
            if over:
                edges = sorted(edges + over)
            self._crossing[layer] = edges
        return edges

    def disjoint_pair(
        self, pair1: tuple[int, int], pair2: tuple[int, int]
    ) -> DisjointPathPair | None:
        """`two_disjoint_paths` over the forward DAG, memoized. On a layering
        without spans a query that parks exactly one token walks the layers
        from the other (`disjoint.layer_walk`), which finds the path that
        `two_disjoint_paths` returns there; with spans that path is the
        smallest among the fewest-hop ones, which the walk does not find."""
        key = (pair1, pair2)
        if key not in self._pairs:
            (s1, t1), (s2, t2) = pair1, pair2
            if self.spans or (s1 == t1) == (s2 == t2):
                pair = two_disjoint_paths(self.dag, pair1, pair2)
            elif s1 == t1:
                p2 = layer_walk(self.forward, self.lam, s2, t2, s1)
                pair = DisjointPathPair((s1,), p2) if p2 is not None else None
            else:
                p1 = layer_walk(self.forward, self.lam, s1, t1, s2)
                pair = DisjointPathPair(p1, (s2,)) if p1 is not None else None
            self._pairs[key] = pair
        return self._pairs[key]

    def waypoint_split(
        self, a: int, b: int, xp: int, x: int, yp: int, y: int
    ) -> DisjointPathPair | None:
        """Disjoint forward paths s -> xp -> x -> a and b -> yp -> y -> t,
        where (xp, x) and (yp, y) are forward edges that both cross one
        boundary l|l+1 with l in range(layer(b), layer(a)).

        Splits at that boundary into two disjoint-pair queries: the prefix
        (s -> xp, b -> yp) lives in layers up to l, and the suffix
        (x -> a, y -> t) in layers from l + 1 on, because every forward edge
        raises the layer. The halves cannot collide, so concatenating them
        is sound.
        """
        prefix = self.disjoint_pair((self.s, xp), (b, yp))
        if prefix is None:
            return None
        suffix = self.disjoint_pair((x, a), (y, self.t))
        if suffix is None:
            return None
        return DisjointPathPair(prefix.p1 + suffix.p1, prefix.p2 + suffix.p2)

    def scan(self, ceiling: int | None) -> tuple[int, Path] | None:
        """Evaluate the tuple space in enumeration order: a, then b, both
        ascending over the back vertices, then waypoint-edge pairs.

        Returns the first minimum-weight candidate lighter than `ceiling`
        (None: no ceiling) as (weight, path), or None. The ceiling is the
        first `bound`, and every route found, the incumbent, lowers it to its
        own weight. A route of pair (a, b) weighs at least base + dist(a, b),
        where the integer base = d(s,t) + d(a) - d(b) > d(s,t). So under a
        bound of excess E over d(s,t) only dist(a, b) < E - 1 can count, and
        a's bound table is that Dijkstra ball, valid for every later b as
        `bound` only decreases. Pruning only drops tuples that cannot weigh
        less than `bound`, and the scan stops once a candidate reaches
        `floor`. So without a ceiling the result equals that of a plain full
        scan, and under a ceiling above `floor` it is the same route whenever
        that route weighs `floor` (see `solve_layered`).

        Under a bound of at most floor + 1 a pair counts only if its excess
        d(a) - d(b) + dist(a, b) is at most least = floor - d(s,t), the least
        back-edge slack. Slack telescopes: a path weighs d(end) - d(start)
        plus the slacks of its edges, which are 0 on a forward edge and at
        least `least` on a back-edge. So the shortest a -> b path has total
        slack equal to that excess: it descends through exactly one
        back-edge (x, y), of slack `least`, and climbs from a to x on
        forward edges. It weighs at most least - 1, as d(a) > d(b), and
        (x, y) at least 1, so dist(a, x) <= least - 2. A start outside
        `floor_reach` therefore has no pair that passes `base + lower <
        bound`, and the scan skips it without a bound table; the result and
        the memo are those of a scan that visits it. So a scan under such a
        ceiling lists only the starts in the reach (`reach_starts`); the
        full scan (`ceiling` None) lists every start, and skips a start
        outside the reach once its bound is that low.
        """
        out, ds, lam = self.g.index.out, self.d.ds, self.lam
        best: tuple[int, Path] | None = None
        bound = ceiling
        narrow = ceiling is not None and ceiling <= self.floor + 1
        for a, top in self.reach_starts if narrow else self.starts:
            narrow = bound is not None and bound <= self.floor + 1
            if narrow and a not in self.floor_reach:
                continue
            radius = None if bound is None else bound - self.dst - 1
            table, _ = dijkstra(out, a, limit=radius)
            for b in sorted(self.back_vertices.intersection(table)):
                if lam[b] > top or b == self.s:
                    continue
                lower = table[b]
                base = ds[a] - ds[b] + self.dst
                # No route of this pair weighs less than base + lower.
                if bound is not None and base + lower >= bound:
                    continue
                route = self._pair_route(a, b, base, lower, bound)
                if route is not None:
                    best, bound = route, route[0]
                    if bound <= self.floor:
                        return best
        return best

    def _pair_route(
        self, a: int, b: int, base: int, lower: int, bound: int | None
    ) -> tuple[int, Path] | None:
        """The first lightest completed route of pair (a, b) lighter than
        `bound`, in tuple enumeration order, with its weight, or None. Each
        route found is checked and lowers the bound; the visit ends at a
        route that weighs `floor` or base + `lower`, which no later one
        beats.

        Every failed residual search leaves its cut (see `graph.dijkstra`).
        The limit only shrinks during one visit, as `bound` only decreases,
        so a later tuple whose blocked set contains a cut fails too and is
        skipped without a search."""
        g, lam, climbs = self.g, self.lam, self.climbs
        ids, slot = g.index.ids, g.index.slot
        best: tuple[int, Path] | None = None
        cuts: list[set[int]] = []
        for layer in range(lam[b], lam[a]):
            if layer not in self.waypoints:
                continue
            edges_here = self.crossing(layer)
            below = None
            for xp, x in edges_here:
                if xp == b or x == b or not climbs(x, a):
                    continue
                if below is None:
                    # The edges (yp, y), y != a, whose tail the layers leave
                    # b able to climb to (see `climbs`), listed once; only a
                    # tail above b's layer asks the DAG, per (xp, x) as it
                    # meets one, so no DAG is built before a tuple needs it.
                    below = [
                        (yp, y) for yp, y in edges_here if y != a and (yp == b or lam[yp] > lam[b])
                    ]
                for yp, y in below:
                    if xp == yp or x == y or yp != b and not climbs(b, yp):
                        continue
                    outer = self.waypoint_split(a, b, xp, x, yp, y)
                    if outer is None:
                        continue
                    blocked = (set(outer.p1) | set(outer.p2)) - {a, b}
                    if any(cut <= blocked for cut in cuts):
                        continue
                    limit = None if bound is None else bound - base
                    met: set[int] = set()
                    p0 = shortest_path_avoiding(
                        g, set(map(ids.__getitem__, blocked)), ids[a], ids[b], limit, met
                    )
                    if p0 is None:
                        cuts.append(set(map(slot.__getitem__, met)))
                        continue
                    weight = base + path_weight(g, p0)
                    p1, p2 = (tuple(map(ids.__getitem__, p)) for p in (outer.p1, outer.p2))
                    full = p1 + p0[1:] + p2[1:]
                    check_answer(g, full, weight, validate_path(g, full))
                    best, bound = (weight, full), weight
                    if weight <= self.floor or base + lower >= weight:
                        return best
        return best


def _layering(g: WeightedDigraph) -> Layering:
    """g's layering, after the input check of the layered search: g is
    straight (`layering` raises otherwise), and every back-edge goes
    strictly back; raises ValueError("graph is not (s,t)-layered") if not."""
    try:
        layering = g.layering
    except ValueError:
        raise ValueError("graph is not (s,t)-layered") from None
    if layering.against:
        raise ValueError("graph is not (s,t)-layered")
    return layering


def solve_layered(g: WeightedDigraph) -> SolveOutcome:
    """Find a next-to-shortest s-to-t path of a layered graph, or report none.

    Deterministic: a scan enumerates tuples with a ascending, b ascending,
    then waypoint-edge pairs in lexicographic order, and ties in weight keep
    the first-found path.

    No route weighs less than `floor`, so the search first scans under the
    ceiling floor + 1 (iterative deepening), with bound tables, pair prunes
    and residual limits all at the floor radius from the start, and bound
    tables only for the starts in the floor reach; only if that finds
    nothing does the full scan follow, reusing the memoized disjoint pairs.
    The answer is the full scan's:
    - pruning under the ceiling drops only tuples that cannot weigh exactly
      `floor`, and a start outside the floor reach has only such tuples;
    - a cut stays sound under any limit no larger than the one it failed
      under;
    - a limited Dijkstra keeps every closer vertex's distance and parent,
      so a tuple's residual path does not depend on the limit it meets;
    - a full scan prunes no floor tuple before its first floor route, and
      stops there.
    So when a route weighs `floor`, both scans return the first such route
    in enumeration order, and when none does, the ceiling scan returns None.

    A path weighs d(s,t) plus the slacks of its edges, and a forward edge
    has none, so without a back-edge every s-t path is shortest: the answer
    is none, and no search is set up. Every tuple needs a waypoint
    boundary, so without one the answer is none too, and the search has
    set up its boundaries only: no back vertex, floor or start.

    Raises ValueError("graph is not (s,t)-layered") when `g` is not
    straight or has a back-edge that does not go strictly back.
    """
    layering = _layering(g)
    if not layering.back:
        return SolveOutcome.none()
    search = _LayeredSearch(g, layering)
    if not search.waypoints:
        return SolveOutcome.none()
    best = search.scan(search.floor + 1)
    if best is None:
        best = search.scan(None)
    if best is None:
        return SolveOutcome.none()
    return SolveOutcome.of(best[1], best[0])
