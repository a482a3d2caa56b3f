"""Core digraph types: exact integer weights, distances, edge slack, layers.

Weights are kept as exact scaled integers (a decimal input like "2.5" is
stored as 25 with scale=1) so that the equality tests behind edge slack
and the straight/layered predicates are never subject to rounding.
Graphs are immutable after construction and safe to share.
"""
from __future__ import annotations

import bisect
import decimal
import heapq
import json
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

Edge = tuple[int, int]
Path = tuple[int, ...]

# Parse-time guard: reject inputs whose path weights could exceed a signed
# 64-bit accumulator. Python ints never wrap, but the format contract does
# not depend on that.
MAX_ACCUMULATOR = 2**63 - 1

_WEIGHT_RE = re.compile(r"^(\d+)(?:\.(\d{1,9}))?$", re.ASCII)
# Drops the ASCII digits, and no other digit, leaving a plain edge list's
# shape: its spaces and line feeds.
_DROP_DIGITS = str.maketrans("", "", "0123456789")
# Turns a plain edge list, its last LF cut, into the items of a JSON array.
_PLAIN_TO_JSON = str.maketrans(" \n", ",,")


class GraphFormatError(ValueError):
    """Malformed edge-list input; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class InvalidPathError(ValueError):
    """A vertex sequence is not a walk of the host graph."""


class InternalInvariantError(RuntimeError):
    """A structural guarantee failed; indicates a bug, not bad input."""


@dataclass(frozen=True, init=False, repr=False)
class WeightedDigraph:
    """Simple directed graph with strictly positive integer edge weights.

    A graph stores its terminals `s` and `t`, its `scale` and its `index`
    (see `VertexIndex`), its one stored form of its vertices and edges,
    built at construction by `_index` and read-only, so shared. The
    constructor takes the vertices as any iterable of int ids and the edges
    as a map from (u, v) to an int weight; it checks both, then keeps
    neither. `vertices`, a frozenset, and `edges`, a read-only map in
    (u, v) order, are views derived from `index` on first read. The ids
    need not be contiguous: reductions delete vertices and never add one,
    so the surviving ids stay stable. `scale`, an int >= 0, is the power of
    ten by which the original decimal weights were multiplied; it only
    matters when formatting output. Inside a solve a vertex is its slot in
    `index`, and no hot path reads `edges`; ids appear at the parse, in the
    public functions and in the output. Two graphs are equal when their
    stored fields are, which derives no view; a graph is unhashable.
    """

    s: int
    t: int
    scale: int
    index: VertexIndex
    __hash__ = None

    def __init__(
        self, vertices: Iterable[int], edges: Mapping[Edge, int], s: int, t: int, scale: int = 0
    ) -> None:
        vertices = frozenset(vertices)
        if type(scale) is not int or scale < 0:
            raise ValueError("scale must be a non-negative integer")
        if s == t:
            raise ValueError("source and sink must differ")
        if s not in vertices or t not in vertices:
            raise ValueError("source/sink must be graph vertices")
        # Int ids only: a float or bool id serializes text that `parse_graph`
        # rejects, and a float one cannot index the slot lists.
        if set(map(type, vertices)) | {type(s), type(t)} != {int}:
            raise ValueError("vertex ids and terminals must be integers")
        for (u, v), w in edges.items():
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in vertices or v not in vertices:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"non-integer vertex id on edge ({u}, {v})")
            # Exact ints only, so that no weight sum rounds: no float, Decimal,
            # Fraction or bool.
            if type(w) is not int:
                raise ValueError(f"non-integer weight on edge ({u}, {v})")
            if w <= 0:
                raise ValueError(f"non-positive weight on edge ({u}, {v})")
        slot = {u: i for i, u in enumerate(sorted(vertices))}
        rows = sorted([(slot[u], slot[v], w) for (u, v), w in edges.items()])
        self.__dict__.update(s=s, t=t, scale=scale, index=_index(slot, rows))

    def __repr__(self) -> str:
        return (
            f"WeightedDigraph(vertices={self.vertices!r}, edges={self.edges!r}, "
            f"s={self.s!r}, t={self.t!r}, scale={self.scale!r})"
        )

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.index.ids)

    @cached_property
    def edges(self) -> Mapping[Edge, int]:
        """The read-only map from each edge to its weight, in (u, v) order."""
        ids, out = self.index.ids, self.index.out
        return MappingProxyType({(u, ids[j]): w for u, row in zip(ids, out) for j, w in row})

    @property
    def vertex_count(self) -> int:
        return len(self.index.ids)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.index.out))

    @cached_property
    def distances(self) -> "DistanceTable":
        """Exact distances and the vertices off every shortest s-t path,
        computed once; read-only, so shared. A sweep after the Dijkstra from
        s finds those (`_off_slots`). A straight graph, with none, settles
        every slot and has d(v,t) = d(s,t) - d(s,v), one map over `ds`; any
        other takes a second Dijkstra, to t. A graph that `straighten` or
        `layerize` returns is built holding its table, handed on from the
        reduction's input (see `_graph`)."""
        ix = self.index
        t = ix.slot[self.t]
        out, _ = dijkstra(ix.out, ix.slot[self.s])
        off = _off_slots(ix, out, t)
        dst = out.get(t)
        slots = range(len(ix.ids))
        ds = tuple(map(out.get, slots))
        if off:
            into, _ = dijkstra(ix.into, t)
            dt = tuple(map(into.get, slots))
        else:
            dt = tuple(map(operator.sub, repeat(dst), ds))
        return DistanceTable(ix.ids, ds, dt, dst, off)

    @cached_property
    def layering(self) -> "Layering":
        """Layers and edge kinds of a straight graph (see `Layering`), built
        once in one pass over the edges in (tail, head) order, or handed on
        by `layerize`; read-only, so shared. Raises ValueError when the graph
        is not straight, which leaves every slack defined and non-negative.
        The pass computes each `edge_slack` inline."""
        d = self.distances
        if d.off:
            raise ValueError("graph is not (s,t)-straight")
        ds = d.ds
        rank = {x: i for i, x in enumerate(sorted(set(ds)), start=1)}
        lam = tuple(map(rank.__getitem__, ds))
        layers: list[list[int]] = [[] for _ in range(len(rank) + 1)]
        forward, back, spans, against = [], {}, [], []
        for u, (du, lu, nbrs) in enumerate(zip(ds, lam, self.index.out)):
            layers[lu].append(u)
            heads = []
            for j, w in nbrs:
                slack = du + w - ds[j]
                if not slack:
                    heads.append(j)
                    if lam[j] > lu + 1:
                        spans.append((u, j))
                elif lam[j] < lu:
                    back[(u, j)] = slack
                else:
                    against.append((u, j))
            forward.append(tuple(heads))
        return Layering(
            lam, tuple(map(tuple, layers)), tuple(forward), tuple(spans),
            MappingProxyType(back), tuple(against),
        )

    def replace(self, *, vertices=None, edges=None) -> "WeightedDigraph":
        """Copy with a new vertex set and/or edge map (s, t, scale kept)."""
        vertices = self.index.ids if vertices is None else vertices
        edges = self.edges if edges is None else edges
        return WeightedDigraph(vertices, edges, self.s, self.t, self.scale)


@dataclass(frozen=True)
class VertexIndex:
    """A graph's vertices numbered by rank: slot i holds the i-th smallest
    id, so memory grows with the vertex count, never with the largest id,
    and slot order is id order, which keeps every smallest-id-first tie.

    `slot` maps an id to its slot. `out[i]` lists slot i's out-edges as
    (head slot, weight) in head order. Every field is read-only. A graph's
    `index`, its one stored form of its vertices and edges, is built by
    `_index`. Equality compares the fields and never derives `into`.
    """

    ids: tuple[int, ...]
    slot: Mapping[int, int]
    out: tuple[tuple[tuple[int, int], ...], ...]

    @cached_property
    def into(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """`into[i]` lists slot i's in-edges as (tail slot, weight) in tail
        order: `out` transposed on first read, in slot order, so no row
        needs a sort; read-only, so shared."""
        into: list[list[tuple[int, int]]] = [[] for _ in self.ids]
        for i, row in enumerate(self.out):
            for j, w in row:
                into[j].append((i, w))
        return tuple(map(tuple, into))


@dataclass(frozen=True)
class DistanceTable:
    """Exact distances from s and to t by slot of the graph's index, whose
    `ids` it shares: `ds[i]` is d(s, ids[i]), `dt[i]` is d(ids[i], t), and
    `dst` is d(s,t); None marks unreachable. `off` lists the slots on no
    shortest s-t path, ascending, all of them when t is unreachable from s;
    the graph is (s,t)-straight when it is empty.

    Unreachable is a real sentinel, never a large finite stand-in, so it can
    never leak into weight arithmetic. On a straight graph `dt` is d(s,t) -
    `ds`, which its one Dijkstra yields (see `WeightedDigraph.distances`).
    `from_s` and `to_t`, read-only maps by id, are derived on first read.
    """

    ids: tuple[int, ...]
    ds: tuple[int | None, ...]
    dt: tuple[int | None, ...]
    dst: int | None
    off: tuple[int, ...]

    @cached_property
    def from_s(self) -> Mapping[int, int | None]:
        return MappingProxyType(dict(zip(self.ids, self.ds)))

    @cached_property
    def to_t(self) -> Mapping[int, int | None]:
        return MappingProxyType(dict(zip(self.ids, self.dt)))


@dataclass(frozen=True)
class Layering:
    """The distance layers of a straight graph, and the kind of each edge,
    all by slot of the graph's index; an edge is a (tail, head) slot pair.

    Layer l >= 1 holds the slots with the l-th smallest distinct d(s,u):
    `lam[u]` is slot u's layer, and `layers[l]` lists the layer ascending.
    A forward edge (zero `edge_slack`) climbs at least one layer, as
    weights are positive: `forward[u]` lists slot u's heads ascending, and
    `spans` lists those edges that climb more than one. A back-edge goes
    strictly back (`back`, edge to slack) or not (`against`). Edge lists
    are in (tail, head) order, and every field is read-only. `parent`, the
    forward rows transposed to each slot's smallest tail, is derived on
    first read, so every reader of one layering shares one table.
    """

    lam: tuple[int, ...]
    layers: tuple[tuple[int, ...], ...]
    forward: tuple[tuple[int, ...], ...]
    spans: tuple[Edge, ...]
    back: Mapping[Edge, int]
    against: tuple[Edge, ...]

    @cached_property
    def parent(self) -> tuple[int | None, ...]:
        """`parent[v]` is the smallest z with v in `forward[z]`, slot v's
        parent on the smallest-id shortest-path tree from s; None for s,
        which alone has no forward in-edge. Read-only, so shared: a
        `ReductionTrace` walks it with `parent_path` for the s -> x part of
        each candidate path it builds."""
        parent: list[int | None] = [None] * len(self.forward)
        # The smallest tail writes last.
        for i in reversed(range(len(self.forward))):
            for j in self.forward[i]:
                parent[j] = i
        return tuple(parent)


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
    adj: Sequence[Iterable[tuple[int, int]]],
    source: int,
    *,
    target: int | None = None,
    blocked: frozenset[int] | set[int] = frozenset(),
    limit: int | None = None,
    met: set[int] | None = None,
) -> tuple[dict[int, int], dict[int, int]]:
    """Exact distances from `source` that never enter `blocked`, and the
    parent that set each reached vertex's distance, over the vertices
    0..len(adj)-1, where `adj[u]` lists u's out-edges as (v, w): the slots of
    a `VertexIndex`. `dist` holds settled vertices only, in settle order;
    with a `target` the search stops once it is settled. Only a strict
    improvement pushes, so on ties the first parent stays. A positive
    `limit` pushes nothing at distance `limit` or more; every vertex closer
    keeps its distance and parent.

    The queue is a bucket queue (Dial, CACM 12(11), 1969) keyed by
    distance: a heap of the distinct distances pushed, and each one's list
    of the slots pushed at it. A popped distance settles its slots in slot
    order, the order of a heap of (distance, slot) pairs: a weight is
    positive, so settling a slot pushes only at larger distances and never
    into the list being settled. `best[v]` starts at `limit`, so one test
    rejects a push that is no better and one at or past the limit; as only
    a strict improvement pushes, a slot is listed at most once per
    distance, and a listed slot whose best has since fallen is stale.

    Each blocked vertex that a settled vertex would have pushed below
    `limit` is added to `met`. When the target is not reached, `met` is a
    cut: a search whose blocked set contains it fails too, under any limit
    no larger, because the first vertex of a lighter path that leaves the
    settled ball is either in `met` or would have been settled."""
    dist: dict[int, int] = {}
    # best[v] is the lightest distance pushed for v, else `limit`, so it is
    # dist[v] once v is settled.
    best: list[int | None] = [limit] * len(adj)
    best[source] = 0
    parent: dict[int, int] = {}
    bucket = {0: [source]}
    heap = [0]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        du = pop(heap)
        slots = bucket.pop(du)
        slots.sort()
        for u in slots:
            if best[u] != du:
                continue
            dist[u] = du
            if u == target:
                return dist, parent
            for v, w in adj[u]:
                nd = du + w
                old = best[v]
                if old is not None and nd >= old:
                    continue
                if v in blocked:
                    if met is not None:
                        met.add(v)
                    continue
                best[v] = nd
                parent[v] = u
                if nd in bucket:
                    bucket[nd].append(v)
                else:
                    bucket[nd] = [v]
                    push(heap, nd)
    return dist, parent


def _off_slots(ix: VertexIndex, from_s: dict[int, int], t: int) -> tuple[int, ...]:
    """The slots on no shortest s-t path, ascending, all of them when slot t
    is unreachable, as the int objects of `ix.slot`, whose values are the
    slots ascending (see `_index`), so that a table keeps no int of its
    own. `from_s` is `dijkstra`'s table from s over `ix.out`, in settle
    order. The program's one straightness rule.

    A slot is on a shortest s-t path iff it settled and is either t or has
    a tight out-edge, d(s,u) + w = d(s,v), to a slot on one. A tight edge
    strictly raises d(s,.), as weights are positive, so its head settled
    later: one sweep over every settled slot in reverse settle order decides
    them all, and a slot that never settled is on no such path."""
    # on[v] is d(s,v) once v is found on a shortest s-t path, else None,
    # which no distance equals.
    out = ix.out
    on: list[int | None] = [None] * len(out)
    on[t] = from_s.get(t)
    for u, du in reversed(from_s.items()):
        if u != t:
            for v, w in out[u]:
                if du + w == on[v]:
                    on[u] = du
                    break
    return tuple(compress(ix.slot.values(), map(operator.is_, on, repeat(None))))


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
    ix = g.index
    try:
        sa, sb = ix.slot[a], ix.slot[b]
    except KeyError as err:
        raise ValueError(f"vertex {err.args[0]} not in the graph") from None
    cut: set[int] | None = None if met is None else set()
    # An id outside the graph maps to None, which blocks nothing.
    stop = set(map(ix.slot.get, blocked))
    dist, parent = dijkstra(ix.out, sa, target=sb, blocked=stop, limit=limit, met=cut)
    if cut:
        met.update(map(ix.ids.__getitem__, cut))
    if sb not in dist:
        return None
    return tuple(map(ix.ids.__getitem__, parent_path(parent, sa, sb)))


def parent_path(parent: Mapping[int, int] | Sequence[int | None], a: int, b: int) -> Path:
    """The path a -> b that follows `parent` back from b until it reaches a:
    the one parent walk, over a search's parent map or a layering's table."""
    rev = [b]
    while rev[-1] != a:
        rev.append(parent[rev[-1]])
    return tuple(reversed(rev))


def shortest_distances(g: WeightedDigraph) -> DistanceTable:
    """Distances from s and to t: the graph's own `distances`, computed on
    first use or handed on by the reduction that made the graph."""
    return g.distances


def edge_slack(d: DistanceTable, u: int, v: int, w: int) -> int | None:
    """d(s,u) + w(u,v) - d(s,v) for the edge between slots u and v of d's
    graph: positive on a back-edge, zero on a forward edge, None when an
    endpoint is unreachable from s. The one place that decides back against
    forward."""
    du, dv = d.ds[u], d.ds[v]
    if du is None or dv is None:
        return None
    return du + w - dv


def path_weight(g: WeightedDigraph, path: Path) -> int:
    """Exact weight of a walk; raises InvalidPathError on a missing edge."""
    return sum(_edge_weights(g, path))


def _edge_weights(g: WeightedDigraph, path: Path) -> list[int]:
    """The weights of a walk's edges in walk order, each found by bisection
    in its tail's `index` row, which is in head order; raises
    InvalidPathError on a missing edge."""
    slot, out = g.index.slot, g.index.out
    weights = []
    for u, v in zip(path, path[1:]):
        i, j = slot.get(u), slot.get(v)
        if i is not None and j is not None:
            row = out[i]
            k = bisect.bisect_left(row, (j,))
            if k < len(row) and row[k][0] == j:
                weights.append(row[k][1])
                continue
        raise InvalidPathError(f"missing edge ({u}, {v})")
    return weights


def validate_path(g: WeightedDigraph, path: Path) -> PathCheck:
    """Check edge existence, simplicity, exact weight and back-edge usage.

    An edge whose tail is unreachable from s cannot be classified and is not
    counted as a back-edge; this only affects walks that do not start at s.
    """
    if not path:
        raise InvalidPathError("empty vertex sequence")
    try:
        slots = list(map(g.index.slot.__getitem__, path))
    except KeyError as err:
        raise InvalidPathError(f"unknown vertex {err.args[0]}") from None
    weights = _edge_weights(g, path)
    d = g.distances
    uses_back = any(map(edge_slack, repeat(d), slots, slots[1:], weights))
    return PathCheck(
        simple=len(set(path)) == len(path), weight=sum(weights), uses_back_edge=uses_back
    )


def check_answer(g: WeightedDigraph, path: Path, weight: int, check: PathCheck) -> None:
    """The release-build check of a built answer: unless `path`, whose
    `validate_path` verdict is `check`, is a simple s-t path of g of weight
    `weight` > d(s,t), raise InternalInvariantError, as a bug, never an input
    condition. Each caller validates the path, so a tracer sees whose it is."""
    simple_s_t = check.simple and (path[0], path[-1]) == (g.s, g.t)
    if not simple_s_t or check.weight != weight or weight <= g.distances.dst:
        raise InternalInvariantError(f"built an invalid answer {path} (weight {weight})")


def is_straight(g: WeightedDigraph, d: DistanceTable) -> bool:
    """True when every vertex lies on a shortest s-to-t path: g's table `d`
    has an empty `off`."""
    return not d.off


def is_layered(g: WeightedDigraph, d: DistanceTable) -> bool:
    """True when the graph is straight and no edge violates layeredness
    (see `layering_violations`)."""
    return is_straight(g, d) and layering_violations(g) == ([], [])


def layering_violations(g: WeightedDigraph) -> tuple[list[Edge], list[Edge]]:
    """Edges of a straight graph that violate layeredness, split by kind:
    the back-edges that do not go strictly back, then the forward edges
    that skip a layer, both in (tail, head) order (see `Layering`), as
    id pairs."""
    ids, lay = g.index.ids, g.layering
    return tuple([(ids[u], ids[v]) for u, v in edges] for edges in (lay.against, lay.spans))


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

    A plain edge list is read in one pass over the whole text (see
    `_parse_plain`), any other text line by line (`_parse_lines`). Both end
    in `_edge_list`, the one place for the checks on the whole list, so both
    give the same graph or the same error. All weights are scaled by one
    global power of ten (the smallest making every weight integral), and a
    weight may have any number of digits. Lines end at LF, CR LF or a lone
    CR. Errors carry the offending line number: a malformed line first, then
    a missing header or a wrong edge count, then the first duplicate edge,
    then an overflow on the first line with the largest weight.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return _parse_plain(text) or _parse_lines(text)


def _parse_plain(text: str) -> WeightedDigraph | None:
    """The graph of a plain edge list, as `serialize_graph` writes one:
    ASCII digits, single spaces and LF endings; edge k is on line k + 2.
    None for any other text, for a token with a leading zero or too long
    for int(), and for a line that fails its check, whose error
    `_parse_lines` then raises. The text with its digits dropped proves the
    shape, one JSON decode turns every token into an int, and the header,
    head and weight checks run over whole columns; `_edge_list` makes the
    tail and self-loop checks.

    The shape is three spaces and a line feed, then two spaces and a line
    feed per edge line, with the text ending in a line feed; the decode
    rejects an empty token, so each token is one or more ASCII digits."""
    if not text.endswith("\n"):
        return None
    shape = text.translate(_DROP_DIGITS)
    if shape != "   \n" + "  \n" * ((len(shape) - 4) // 3):
        return None
    try:
        vals = json.loads("[" + text[:-1].translate(_PLAIN_TO_JSON) + "]")
    except ValueError:  # JSON admits no empty token or leading zero; int() no more than 4,300 digits
        return None
    n, m, s, t = vals[:4]
    us, vs, ws = vals[4::3], vals[5::3], vals[6::3]
    del vals
    if not (
        s < n and t < n and s != t  # so n >= 2
        and max(vs, default=0) < n and min(ws, default=1) > 0
    ):
        return None
    return _edge_list(n, m, s, t, us, vs, ws, 0, range(2, m + 2))


def _parse_lines(text: str) -> WeightedDigraph:
    """`parse_graph` on any text: a loop checks each line and keeps its edge,
    then the weights are scaled and `_edge_list` checks the whole list,
    which never returns None here, as every line passed its checks."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    header: tuple[int, int, int, int] | None = None
    lines, us, vs, digits, fracs = [], [], [], [], []
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
        w, frac = match.group(1).lstrip("0"), (match.group(2) or "").rstrip("0")
        if not (w or frac):
            raise GraphFormatError("non-positive weight", lineno)
        lines.append(lineno)
        us.append(u)
        vs.append(v)
        digits.append(w)
        fracs.append(frac)

    if header is None:
        raise GraphFormatError("empty input: missing header line")
    scale = max(map(len, fracs), default=0)
    if scale:
        digits = [w + frac.ljust(scale, "0") for w, frac in zip(digits, fracs)]
    try:
        ws = list(map(int, digits))
    except ValueError:  # a weight past int()'s 4,300-digit limit; a Decimal has none
        ws = [int(decimal.Decimal(w)) for w in digits]
    return _edge_list(*header, us, vs, ws, scale, lines)


def _edge_list(
    n: int, m: int, s: int, t: int, us: list[int], vs: list[int], ws: list[int],
    scale: int, lines: Sequence[int],
) -> WeightedDigraph | None:
    """The graph of a checked header and edge columns, edge k from line
    `lines[k]` with scaled weight `ws[k]`. None when an edge is a self-loop
    or its tail is not below n: a line check that `_parse_plain` leaves to
    this list, and whose error `_parse_lines` raises. Otherwise raises, in
    order, a wrong edge count, the first duplicate edge, an overflow at the
    first largest weight.

    The ids are 0..n-1, so each id is its slot, and one int object serves
    as both. `_index` takes the list as given, and refuses it at the first
    edge out of strictly increasing (u, v) order, the order in which
    `serialize_graph` writes it, at a self-loop and at a tail past the last
    row. Only a refused list, or one of the wrong length, pays for the tail
    and self-loop passes over its columns; a refused list that passes them
    is checked for a duplicate, then sorted once."""
    slot = {u: u for u in range(n)}
    index = _index(slot, zip(us, vs, ws))
    if index is None and (max(us, default=0) >= n or not all(map(operator.ne, us, vs))):
        return None
    if len(ws) != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(ws)}")
    if index is None:
        pairs = list(zip(us, vs))
        if len(set(pairs)) != m:
            seen: set[Edge] = set()
            for edge, lineno in zip(pairs, lines):
                if edge in seen:
                    raise GraphFormatError(f"duplicate edge {edge}", lineno)
                seen.add(edge)
        index = _index(slot, sorted(zip(us, vs, ws)))
    top = max(ws, default=0)
    if n * top > MAX_ACCUMULATOR:
        raise GraphFormatError("weight overflow after scaling", lines[ws.index(top)])
    # Built without `WeightedDigraph.__init__`, whose checks are made:
    # - s != t: `_parse_plain`'s `s != t`, `_parse_lines`' "source and sink
    #   must differ";
    # - s and t are vertices: `s < n and t < n` (a plain text holds no
    #   sign), "source/sink id out of range";
    # - int ids and terminals: both parses read every integer as an int;
    # - no self-loop: `_index`'s refusal, then `all(map(operator.ne, us,
    #   vs))` above, "self-loop at vertex";
    # - every edge within the vertex set: `max(vs) < n` in `_parse_plain`,
    #   and for a tail `_index`'s refusal, then `max(us) >= n` above;
    #   "vertex id out of range";
    # - positive integer weights: each is int() of its digits, `min(ws) > 0`,
    #   "non-positive weight" (positive when its digits are not all zero);
    # - an int scale >= 0: 0, or the most fraction digits of a weight.
    return _graph(s, t, scale, index)


def _graph(
    s: int, t: int, scale: int, index: VertexIndex,
    distances: DistanceTable | None = None, layering: Layering | None = None,
) -> WeightedDigraph:
    """The graph of `index`, built by setting its four fields without
    `__init__`: the caller vouches for the constructor's checks and `index`,
    and for a given `distances` and `layering` as the graph's own, over its
    vertices exactly (only a reduction that returns a straight graph passes
    them). They are stored at once, so that neither a Dijkstra nor an edge
    pass runs."""
    g = object.__new__(WeightedDigraph)
    g.__dict__.update(s=s, t=t, scale=scale, index=index)
    if distances is not None:
        g.__dict__["distances"] = distances
    if layering is not None:
        g.__dict__["layering"] = layering
    return g


def _index(
    slot: dict[int, int], edges: Iterable[tuple[int, int, int]]
) -> VertexIndex | None:
    """The `index` of the graph on the keys of `slot`, in id order, each
    mapped to its slot, whose edges are the (i, j, w) slot rows of `edges`:
    the one builder of index rows, which keeps `slot` as its map. It proves
    the order while it buckets, and returns None at the first row that is
    not strictly after the one before it in (i, j) order, that is a
    self-loop, or whose tail has no row, where the row lookup itself fails;
    a slot is a non-negative int, and a head is the caller's to check.
    Bucketing the rows in list order leaves each `out` row in head order, so
    no row needs a sort."""
    ids = tuple(slot)
    out: list[list[tuple[int, int]]] = [[] for _ in ids]
    i0 = j0 = -1
    try:
        for i, j, w in edges:
            if i != i0:
                if i < i0:
                    return None
                add = out[i].append
                i0, j0 = i, -1
            if j <= j0 or j == i:
                return None
            add((j, w))
            j0 = j
    except IndexError:
        return None
    return VertexIndex(ids, MappingProxyType(slot), tuple(map(tuple, out)))


def format_weight(w: int, scale: int) -> str:
    """Render a scaled integer weight back in the input's decimal scale."""
    if scale == 0:
        return str(w)
    q, r = divmod(w, 10**scale)
    frac = str(r).zfill(scale).rstrip("0")
    return f"{q}.{frac}" if frac else str(q)


def serialize_graph(g: WeightedDigraph) -> str:
    """Exact inverse of parse_graph (edges sorted by endpoint ids). The
    lines are read off the `index` rows: with ids 0..n-1 a slot is its id,
    and the rows, in head order, list the edges in (u, v) order."""
    ids = g.index.ids
    if (ids[0], ids[-1]) != (0, len(ids) - 1):  # sorted distinct ints: 0..n-1 exactly
        raise ValueError("only graphs with contiguous vertex ids serialize")
    scale = g.scale
    out = [f"{g.vertex_count} {g.edge_count} {g.s} {g.t}"]
    for u, row in enumerate(g.index.out):
        for v, w in row:
            out.append(f"{u} {v} {format_weight(w, scale)}")
    return "\n".join(out) + "\n"
