"""Core digraph types: exact integer weights, distances, edge slack.

Weights are kept as exact scaled integers (a decimal input like "2.5" is
stored as 25 with scale=1) so that the equality tests behind edge slack
and the straight/layered predicates are never subject to rounding.
Graphs are immutable after construction and safe to share.
"""
from __future__ import annotations

import bisect
import heapq
import re
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

Edge = tuple[int, int]
Path = tuple[int, ...]

# Parse-time guard: reject inputs whose path weights could exceed a signed
# 64-bit accumulator. Python ints never wrap, but the format contract does
# not depend on that.
MAX_ACCUMULATOR = 2**63 - 1

_WEIGHT_RE = re.compile(r"^(\d+)(?:\.(\d{1,9}))?$", re.ASCII)


class GraphFormatError(ValueError):
    """Malformed edge-list input; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class InvalidPathError(ValueError):
    """A vertex sequence is not a walk of the host graph."""


class InternalInvariantError(RuntimeError):
    """A structural guarantee failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class WeightedDigraph:
    """Simple directed graph with strictly positive integer edge weights.

    `vertices` need not be contiguous: reductions delete vertices and
    subdivisions allocate fresh ids past the current maximum, keeping the
    surviving ids stable. `scale` is the power of ten by which the original
    decimal weights were multiplied; it only matters when formatting output.
    `edges` is a read-only view of a private copy of the map passed in, so
    the cached adjacencies can never go stale.
    """

    vertices: frozenset[int]
    edges: Mapping[Edge, int]
    s: int
    t: int
    scale: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))
        if self.s == self.t:
            raise ValueError("source and sink must differ")
        if self.s not in self.vertices or self.t not in self.vertices:
            raise ValueError("source/sink must be graph vertices")
        for (u, v), w in self.edges.items():
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
            if w <= 0:
                raise ValueError(f"non-positive weight on edge ({u}, {v})")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adj_out(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Outgoing adjacency, `u -> ((v, w), ...)` sorted by head id."""
        adj: dict[int, list[tuple[int, int]]] = {u: [] for u in self.vertices}
        for (u, v), w in self.edges.items():
            adj[u].append((v, w))
        return {u: tuple(sorted(nbrs)) for u, nbrs in adj.items()}

    @cached_property
    def adj_in(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Incoming adjacency, `v -> ((u, w), ...)` sorted by tail id."""
        adj: dict[int, list[tuple[int, int]]] = {u: [] for u in self.vertices}
        for (u, v), w in self.edges.items():
            adj[v].append((u, w))
        return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}

    @cached_property
    def distances(self) -> "DistanceTable":
        """Exact distances from s and to t, computed once; read-only, so shared."""
        out, _ = dijkstra(self.adj_out, self.s)
        into, _ = dijkstra(self.adj_in, self.t)
        return DistanceTable(
            from_s=MappingProxyType({u: out.get(u) for u in self.vertices}),
            to_t=MappingProxyType({u: into.get(u) for u in self.vertices}),
        )

    def replace(self, *, vertices=None, edges=None) -> "WeightedDigraph":
        """Copy with a new vertex set and/or edge map (s, t, scale kept)."""
        return WeightedDigraph(
            vertices=self.vertices if vertices is None else frozenset(vertices),
            edges=self.edges if edges is None else edges,
            s=self.s,
            t=self.t,
            scale=self.scale,
        )


@dataclass(frozen=True)
class DistanceTable:
    """Exact distances from s and to t; None marks unreachable.

    Unreachable is a real sentinel, never a large finite stand-in, so it can
    never leak into weight arithmetic. Both maps are read-only views.
    """

    from_s: Mapping[int, int | None]
    to_t: Mapping[int, int | None]


@dataclass(frozen=True)
class PathCheck:
    simple: bool
    weight: int
    uses_back_edge: bool


@dataclass(frozen=True)
class SolveOutcome:
    """Either a next-to-shortest path with its weight, or the explicit
    "none exists" marker (path and weight both None)."""

    path: Path | None
    weight: int | None

    @property
    def found(self) -> bool:
        return self.path is not None

    @staticmethod
    def none() -> "SolveOutcome":
        return SolveOutcome(None, None)

    @staticmethod
    def of(path: Path, weight: int) -> "SolveOutcome":
        return SolveOutcome(tuple(path), weight)


def dijkstra(
    adj: Mapping[int, Iterable[tuple[int, int]]],
    source: int,
    *,
    target: int | None = None,
    blocked: frozenset[int] | set[int] = frozenset(),
    limit: int | None = None,
    met: set[int] | None = None,
) -> tuple[dict[int, int], dict[int, int]]:
    """Exact distances from `source` that never enter `blocked`, and the
    parent that set each reached vertex's distance. `dist` holds settled
    vertices only; with a `target` the search stops once it is settled. Only
    a strict improvement pushes, so on ties the first parent stays. A
    positive `limit` pushes nothing at distance `limit` or more; every vertex
    closer keeps its distance and parent, and those entries pop in order.

    Each blocked vertex that a settled vertex would have pushed below
    `limit` is added to `met`. When the target is not reached, `met` is a
    cut: a search whose blocked set contains it fails too, under any limit
    no larger, because the first vertex of a lighter path that leaves the
    settled ball is either in `met` or would have been settled."""
    dist: dict[int, int] = {}
    best = {source: 0}
    parent: dict[int, int] = {}
    heap = [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = du
        if u == target:
            break
        for v, w in adj.get(u, ()):
            if v in dist:
                continue
            nd = du + w
            if limit is not None and nd >= limit:
                continue
            if v in blocked:
                if met is not None:
                    met.add(v)
                continue
            old = best.get(v)
            if old is None or nd < old:
                best[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def shortest_path_avoiding(
    g: WeightedDigraph,
    blocked: frozenset[int] | set[int],
    a: int,
    b: int,
    limit: int | None = None,
    met: set[int] | None = None,
) -> Path | None:
    """Exact shortest a-to-b path avoiding `blocked`, over all edge types;
    None also when that path weighs `limit` or more. On None, `met` holds
    the search's cut (see `dijkstra`)."""
    if a in blocked or b in blocked:
        raise ValueError("endpoints must not be blocked")
    dist, parent = dijkstra(g.adj_out, a, target=b, blocked=blocked, limit=limit, met=met)
    if b not in dist:
        return None
    return parent_path(parent, a, b)


def parent_path(parent: Mapping[int, int], a: int, b: int) -> Path:
    """The path a -> b that follows `parent` back from b until it reaches a."""
    rev = [b]
    while rev[-1] != a:
        rev.append(parent[rev[-1]])
    return tuple(reversed(rev))


def shortest_distances(g: WeightedDigraph) -> DistanceTable:
    """Distances from s and to t: the graph's own `distances`, cached."""
    return g.distances


def edge_slack(d: DistanceTable, u: int, v: int, w: int) -> int | None:
    """d(s,u) + w(u,v) - d(s,v): positive on a back-edge, zero on a forward
    edge, None when an endpoint is unreachable from s. The one place that
    decides back against forward."""
    du, dv = d.from_s[u], d.from_s[v]
    if du is None or dv is None:
        return None
    return du + w - dv


def path_weight(g: WeightedDigraph, path: Path) -> int:
    """Exact weight of a walk; raises InvalidPathError on a missing edge."""
    total = 0
    for u, v in zip(path, path[1:]):
        try:
            total += g.edges[(u, v)]
        except KeyError:
            raise InvalidPathError(f"missing edge ({u}, {v})") from None
    return total


def validate_path(g: WeightedDigraph, path: Path) -> PathCheck:
    """Check edge existence, simplicity, exact weight and back-edge usage.

    An edge whose tail is unreachable from s cannot be classified and is not
    counted as a back-edge; this only affects walks that do not start at s.
    """
    if not path:
        raise InvalidPathError("empty vertex sequence")
    for u in path:
        if u not in g.vertices:
            raise InvalidPathError(f"unknown vertex {u}")
    weight = path_weight(g, path)
    d = g.distances
    uses_back = any(edge_slack(d, u, v, g.edges[(u, v)]) for u, v in zip(path, path[1:]))
    return PathCheck(simple=len(set(path)) == len(path), weight=weight, uses_back_edge=uses_back)


def straightness_violations(g: WeightedDigraph, d: DistanceTable) -> list[int]:
    """Vertices on no shortest s-to-t path, sorted by id; all of them when t
    is unreachable from s."""
    from_s, to_t, dst = d.from_s, d.to_t, d.from_s[g.t]
    return sorted(
        u
        for u in g.vertices
        if from_s[u] is None or to_t[u] is None or from_s[u] + to_t[u] != dst
    )


def is_straight(g: WeightedDigraph, d: DistanceTable) -> bool:
    """True when every vertex lies on at least one shortest s-to-t path."""
    return not straightness_violations(g, d)


def is_layered(g: WeightedDigraph, d: DistanceTable) -> bool:
    """True when the graph is straight and no edge violates layeredness
    (see `layering_violations`)."""
    return is_straight(g, d) and layering_violations(g, d) == ([], [])


def layering_violations(g: WeightedDigraph, d: DistanceTable) -> tuple[list[Edge], list[Edge]]:
    """Edges of a straight graph that violate layeredness, split by kind.

    A back-edge (positive `edge_slack`) violates unless it strictly
    decreases the distance; a forward edge violates when it skips some
    intermediate distance value. Back-edges come first, then layer-skipping
    forward edges; both lists are sorted by edge ids.
    """
    values = sorted({d.from_s[u] for u in g.vertices})
    back: list[Edge] = []
    fwd: list[Edge] = []
    for (u, v), w in g.edges.items():
        du, dv = d.from_s[u], d.from_s[v]
        if edge_slack(d, u, v, w):
            if du <= dv:
                back.append((u, v))
        elif values[bisect.bisect_right(values, du)] < dv:
            fwd.append((u, v))
    back.sort()
    fwd.sort()
    return back, fwd


def layer_assignment(g: WeightedDigraph, d: DistanceTable) -> dict[int, int]:
    """Layer of each vertex of a layered graph: the 1-based rank of d(s,u)
    among the distinct distances; rejects non-layered input.

    Forward edges advance the layer by exactly one and back-edges go
    strictly backward.
    """
    if not is_layered(g, d):
        raise ValueError("graph is not (s,t)-layered")
    values = sorted({d.from_s[u] for u in g.vertices})
    rank = {val: i + 1 for i, val in enumerate(values)}
    return {u: rank[d.from_s[u]] for u in g.vertices}


# ---------------------------------------------------------------------------
# Edge-list text format
#
#   first data line:  n m s t        (counts and 0-based terminal ids)
#   then m lines:     u v w          (w a positive decimal, <= 9 fraction digits)
#   '#' starts a comment; blank lines are ignored.
#   Lines end at LF, CR LF or a lone CR, as in a file opened in text mode.
# ---------------------------------------------------------------------------


def parse_int(field: str) -> int:
    """An ASCII integer `-?[0-9]+`. Raises ValueError on anything else,
    including the '+', '_' and non-ASCII digits that int() alone accepts."""
    if not (field.isascii() and field.lstrip("-").isdigit()):
        raise ValueError(f"not an integer: {field!r}")
    return int(field)  # rejects a repeated '-'


def parse_graph(text: str | bytes) -> WeightedDigraph:
    """Parse the edge-list format into a graph with scaled integer weights.

    All weights are scaled by one global power of ten (the smallest making
    every weight integral). Lines end at LF, CR LF or a lone CR. Errors
    carry the offending line number: a malformed line first, then a missing
    header or a wrong edge count, then the first duplicate edge, then an
    overflow on the first line with the largest weight.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    header: tuple[int, int, int, int] | None = None
    edges: dict[Edge, int] = {}  # unscaled integer parts until the end
    fracs: dict[Edge, str] = {}  # fraction digits of the non-integral weights
    duplicate: tuple[int, int, int] | None = None  # (line, u, v) of the first
    repeats = 0
    top_w, top_frac, top_line = 0, "", None  # largest weight, first line with it
    for lineno, line in enumerate(text.split("\n"), start=1):
        if "#" in line:
            line = line.partition("#")[0]
        fields = line.split()
        if not fields:
            continue
        if header is None:
            if len(fields) != 4:
                raise GraphFormatError("expected header 'n m s t'", lineno)
            try:
                n, m, s, t = (parse_int(f) for f in fields)
            except ValueError:
                raise GraphFormatError("non-integer header field", lineno) from None
            if n < 2:
                raise GraphFormatError("need at least two vertices", lineno)
            if m < 0:
                raise GraphFormatError("negative edge count", lineno)
            if not (0 <= s < n and 0 <= t < n):
                raise GraphFormatError("source/sink id out of range", lineno)
            if s == t:
                raise GraphFormatError("source and sink must differ", lineno)
            header = (n, m, s, t)
            continue
        # A plain ASCII-digit line that passes every check skips parse_int
        # and the weight pattern; any other line takes the checked path.
        if (
            len(fields) == 3
            and line.isascii()
            and fields[0].isdigit()
            and fields[1].isdigit()
            and fields[2].isdigit()
            and (u := int(fields[0])) < n
            and (v := int(fields[1])) < n
            and u != v
            and (w := int(fields[2]))
        ):
            frac = ""
        else:
            if len(fields) != 3:
                raise GraphFormatError("expected edge line 'u v w'", lineno)
            try:
                u, v = parse_int(fields[0]), parse_int(fields[1])
            except ValueError:
                raise GraphFormatError("non-integer vertex id", lineno) from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"vertex id out of range 0..{n - 1}", lineno)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            match = _WEIGHT_RE.match(fields[2])
            if match is None:
                raise GraphFormatError(
                    "weight must be a positive decimal with at most 9 fractional digits", lineno
                )
            w = int(match.group(1))
            frac = (match.group(2) or "").rstrip("0")
            if w == 0 and not frac:
                raise GraphFormatError("non-positive weight", lineno)
        key = (u, v)
        if key in edges:
            repeats += 1
            if duplicate is None:
                duplicate = (lineno, u, v)
            continue
        edges[key] = w
        if frac:
            fracs[key] = frac
        # (w, frac) orders like the weight's value, as frac has no trailing zeros.
        if w >= top_w and (w > top_w or frac > top_frac):
            top_w, top_frac, top_line = w, frac, lineno

    if header is None:
        raise GraphFormatError("empty input: missing header line")
    n, m, s, t = header
    found = len(edges) + repeats
    if found != m:
        raise GraphFormatError(f"header declares {m} edges, found {found}")
    if duplicate is not None:
        lineno, u, v = duplicate
        raise GraphFormatError(f"duplicate edge ({u}, {v})", lineno)
    scale = max(map(len, fracs.values()), default=0)
    if scale:
        unit = 10**scale
        edges = {key: w * unit for key, w in edges.items()}
        for key, frac in fracs.items():
            edges[key] += int(frac.ljust(scale, "0"))
        top_w = top_w * unit + int(top_frac.ljust(scale, "0"))
    if n * top_w > MAX_ACCUMULATOR:
        raise GraphFormatError("weight overflow after scaling", top_line)
    return WeightedDigraph(frozenset(range(n)), edges, s, t, scale)


def format_weight(w: int, scale: int) -> str:
    """Render a scaled integer weight back in the input's decimal scale."""
    if scale == 0:
        return str(w)
    q, r = divmod(w, 10**scale)
    frac = str(r).zfill(scale).rstrip("0")
    return f"{q}.{frac}" if frac else str(q)


def serialize_graph(g: WeightedDigraph) -> str:
    """Exact inverse of parse_graph (edges sorted by endpoint ids)."""
    if g.vertices != frozenset(range(g.vertex_count)):
        raise ValueError("only graphs with contiguous vertex ids serialize")
    out = [f"{g.vertex_count} {g.edge_count} {g.s} {g.t}"]
    for (u, v) in sorted(g.edges):
        out.append(f"{u} {v} {format_weight(g.edges[(u, v)], g.scale)}")
    return "\n".join(out) + "\n"
