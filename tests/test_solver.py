"""layered-solver: back-edge split of answers, residual paths, full enumeration."""
from __future__ import annotations

import dataclasses
import itertools
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nextpath.disjoint
import nextpath.graph
import nextpath.reduction
import nextpath.solver
from conftest import (
    PARALLEL_CHAINS,
    back_edge_room,
    back_edge_split,
    bead_graph,
    build_graph,
    floyd_warshall,
    fresh_distances,
    relabelled,
    skip_edge_graph,
    sorted_rows_index,
    with_span_edges,
)
from nextpath import (
    ForwardDag,
    WeightedDigraph,
    exhaustive_next_to_shortest,
    is_layered,
    is_straight,
    layered_digraph,
    layerize,
    parse_graph,
    path_weight,
    random_digraph,
    serialize_graph,
    shortest_distances,
    shortest_path_avoiding,
    solve,
    solve_detailed,
    solve_layered,
    straighten,
    two_disjoint_paths,
    validate_path,
)
from nextpath.disjoint import layer_walk
from nextpath.graph import dijkstra, edge_slack
from nextpath.oracle import simple_paths
from nextpath.reduction import incumbent
from nextpath.solver import _LayeredSearch, _layering


def test_decomposition_of_shortest_path_is_none():
    g = build_graph(6, PARALLEL_CHAINS, s=0, t=5)
    assert back_edge_split(g, (0, 1, 2, 5)) is None


def test_decomposition_single_back_edge():
    g = build_graph(6, PARALLEL_CHAINS, s=0, t=5)
    prefix, middle, suffix = back_edge_split(g, (0, 3, 4, 1, 2, 5))
    assert middle == (4, 1)
    assert middle[0] == 4 and middle[-1] == 1
    assert prefix == (0, 3, 4) and suffix == (1, 2, 5)
    assert prefix + middle[1:-1] + suffix == (0, 3, 4, 1, 2, 5)


@pytest.mark.parametrize("seed", range(8))
def test_decomposition_outer_fragments_are_forward(seed):
    g = layered_digraph(5, 2, 3, seed)
    d = shortest_distances(g)
    dst = d.from_s[g.t]

    def slack(u, v):
        return edge_slack(d, u, v, g.edges[(u, v)])

    for path, w in simple_paths(g, g.s, g.t, budget=3000):
        if w == dst:
            continue
        prefix, middle, suffix = back_edge_split(g, path)
        for fragment in (prefix, suffix):
            for u, v in zip(fragment, fragment[1:]):
                assert slack(u, v) == 0
        assert slack(*middle[:2]) > 0 and slack(*middle[-2:]) > 0


def test_solver_none_without_back_edges():
    g = build_graph(3, {(0, 1): 1, (1, 2): 1}, s=0, t=2)
    assert not solve_layered(g).found


def test_solver_worked_instance():
    g = build_graph(6, PARALLEL_CHAINS, s=0, t=5)
    out = solve_layered(g)
    assert out.path == (0, 3, 4, 1, 2, 5)
    assert out.weight == 5
    assert shortest_distances(g).from_s[5] == 3


def record_searches(monkeypatch):
    """Patch `_LayeredSearch.__init__` to keep every search that solves make."""
    made = []
    init = _LayeredSearch.__init__

    def keeping(search, g, layering):
        init(search, g, layering)
        made.append(search)

    monkeypatch.setattr(_LayeredSearch, "__init__", keeping)
    return made


def test_solver_builds_no_forward_dag_without_a_waypoint_tuple(monkeypatch):
    # A graph without back-edges has no middle segment, so every s-t path
    # is shortest: the answer is none, and no search is set up.
    made = record_searches(monkeypatch)
    for seed in range(10):
        g = layered_digraph(5, 3, 0, seed)
        assert not solve_layered(g).found
        assert not solve_layered(relabelled(with_span_edges(g, 4, seed), seed)).found
    assert len(made) == 0
    assert not any("dag" in search.__dict__ or search._crossing for search in made)


def test_a_graph_without_a_waypoint_boundary_is_answered_from_its_boundaries(monkeypatch):
    # Every layer of a bead graph shares one tail or one head with the next,
    # so no boundary holds a waypoint pair, and no tuple exists: the search
    # sets up its boundaries, and answers none with no start, floor reach
    # or DAG.
    made = record_searches(monkeypatch)
    for seed in range(10):
        g = bead_graph(4, 3, 10, seed)
        assert _layering(g).back
        assert not solve_layered(g).found
    assert len(made) == 10
    for search in made:
        assert not search.waypoints
        assert not {"back_vertices", "floor", "starts", "floor_reach", "dag"} & vars(search).keys()
        assert not search._crossing and not search._pairs


def layerized_with_a_flat_edge(seed):
    """(g, layerize(g) of g plus a unit edge inside one layer): a layered
    graph without back-edges, whose one `against` edge `layerize` removes."""
    g = layered_digraph(6, 3, 0, seed)
    lam = g.layering.lam
    u, v = next((u, v) for u in sorted(lam) for v in sorted(lam) if u != v and lam[u] == lam[v])
    g = g.replace(edges={**g.edges, (u, v): 1})
    return g, layerize(g)


def test_a_graph_without_back_edges_still_takes_the_input_check(monkeypatch):
    """The answer of a graph without back-edges is none only once the input
    check passes: an `against` edge still fails it, before any search."""
    made = record_searches(monkeypatch)
    for seed in range(5):
        g, (g_l, _) = layerized_with_a_flat_edge(seed)
        assert g.layering.against and not g.layering.back
        with pytest.raises(ValueError, match=r"^graph is not \(s,t\)-layered$"):
            solve_layered(g)
        assert not solve_layered(g_l).found
    assert made == []


def test_layerize_shares_every_row_it_does_not_edit():
    """`layerize` drops each removed edge from its tail's `out` row of its
    input's index and shares every other row; the index is the one the
    public constructor builds from the remaining edges, and derives its
    `into` on first read."""
    for seed in range(5):
        g, (g_l, trace) = layerized_with_a_flat_edge(seed)
        [step] = trace.steps
        assert "index" in vars(g_l) and "edges" not in vars(g_l)
        kept = {e: w for e, w in g.edges.items() if e != step.edge}
        public = WeightedDigraph(g.vertices, kept, g.s, g.t)
        assert g_l.index == public.index and g_l == public
        ix, ix_l = g.index, g_l.index
        i, j = map(ix.slot.__getitem__, step.edge)
        assert ix_l.ids is ix.ids and ix_l.slot is ix.slot
        assert [k for k, row in enumerate(ix_l.out) if row is not ix.out[k]] == [i]
        assert "into" not in vars(ix_l)
        ref = sorted_rows_index(g_l.vertices, kept)
        assert ix_l.into == ref.into and ix_l.into[j] == tuple(p for p in ix.into[j] if p[0] != i)


def test_a_search_without_a_start_builds_no_floor_reach():
    """A graph that `layerize` makes holds its input's distances and
    layering; a search that visits no start builds no floor reach."""
    for seed in range(5):
        _, (g_l, trace) = layerized_with_a_flat_edge(seed)
        assert trace.steps and {"distances", "layering"} <= vars(g_l).keys()
        search = _LayeredSearch(g_l, _layering(g_l))
        assert search.starts == [] and search.scan(search.floor + 1) is None
        assert search.scan(None) is None and not solve_layered(g_l).found
        assert "floor_reach" not in search.__dict__


def test_floor_reach_is_its_distance_definition():
    """`floor_reach` holds the slots of the vertices a with dist(a, x) <=
    least - 2 for a tail x of a back-edge of the least slack, by
    Floyd-Warshall's distances. A back-edge of a layered graph goes
    strictly back, so least >= 2; at 2 the reach is those tails, and no
    in-edge is read, so the graph derives no `into`."""
    sigmas = Counter()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        st.integers(4, 6),
        st.integers(2, 4),
        st.integers(1, 6),
        st.integers(1, 7),
        st.integers(0, 4),
        st.integers(0, 2**16),
    )
    def check(layers, width, back, w_max, skips, seed):
        g = layered_digraph(layers, width, back, seed, back_weight_max=w_max)
        g = with_span_edges(g, skips, seed)
        search = _LayeredSearch(g, _layering(g))
        slacks = g.layering.back
        least = min(slacks.values())
        assert least == search.floor - search.dst >= 2
        tails = {u for (u, _), slack in slacks.items() if slack == least}
        dist = floyd_warshall(g)
        assert search.floor_reach == {
            g.index.slot[a]
            for a in g.vertices
            if any(dist[(a, x)] is not None and dist[(a, x)] <= least - 2 for x in tails)
        }
        assert ("into" in vars(g.index)) == (least > 2)
        sigmas[min(least, 3)] += 1

    check()
    assert sigmas[2] > 20 and sigmas[3] > 20


def test_the_layer_rule_agrees_with_the_closure():
    """`climbs(u, v)` is the reachability of the certified forward DAG on
    every vertex pair, and decides each pair whose v is not above u's
    layer without building the closure. Relabelled, so that ids do not
    follow the layers."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(
        st.integers(3, 7),
        st.integers(1, 4),
        st.integers(0, 6),
        st.integers(0, 6),
        st.integers(0, 2**16),
    )
    def check(layers, width, back, skips, seed):
        assume(back <= back_edge_room(layers, width))
        g = with_span_edges(layered_digraph(layers, width, back, seed), skips, seed)
        h = relabelled(g, seed)
        search = _LayeredSearch(h, _layering(h))
        lam = search.lam
        order = [u for layer in search.layers for u in layer]
        closure = ForwardDag(order, search.forward)
        assert closure.reaches(search.g.s, search.g.t)  # builds and certifies the closure
        pairs = list(itertools.product(order, repeat=2))
        level = [(u, v) for u, v in pairs if lam[v] <= lam[u]]
        assert [search.climbs(u, v) for u, v in level] == [u == v for u, v in level]
        assert [u == v for u, v in level] == [closure.reaches(u, v) for u, v in level]
        assert "_descendants" not in vars(search.dag)
        assert [search.climbs(u, v) for u, v in pairs] == [closure.reaches(u, v) for u, v in pairs]

    check()


def test_a_floor_answer_builds_no_in_rows_and_no_closure(monkeypatch):
    """`layered_digraph(36, 18, 200, 11)`, read from its file as the
    `layered-dense` benchmark reads its instances, answers at the floor
    with a least slack of 2: its floor reach reads no in-edge, and its two
    pair queries each park a token on a layering without spans, so they
    walk the layers: no graph derives `into`, and no forward DAG is built,
    so neither its closure nor its `rank`."""
    made = record_searches(monkeypatch)
    g = parse_graph(serialize_graph(layered_digraph(36, 18, 200, 11)))
    got = solve(g)
    [search] = made
    assert got.weight == search.floor == search.dst + 2
    assert "into" not in vars(g.index) and "into" not in vars(search.g.index)
    assert len(search._pairs) == 2 and not search.spans
    assert "dag" not in vars(search)


def assert_search_setup(g):
    """`_LayeredSearch(g, _layering(g))`'s set-up against definitions from
    scratch. Eager
    filing lists each forward edge under every boundary l|l+1 it crosses, in
    (tail, head) order; a boundary holds a waypoint pair when its edges have
    two distinct tails and two distinct heads, and a start's top is the last
    such boundary below it. The search keeps its vertices by slot, and is
    compared here by id, through the graph's index. Returns the search, and
    the layers and the forward edges by id."""
    d = shortest_distances(g)
    ids, slot = g.index.ids, g.index.slot
    values = sorted(set(d.from_s.values()))
    lam = {u: values.index(d.from_s[u]) + 1 for u in g.vertices}
    slack = {(u, v): edge_slack(d, slot[u], slot[v], w) for (u, v), w in g.edges.items()}
    back = [e for e, x in slack.items() if x > 0]
    forward = sorted(e for e, x in slack.items() if x == 0)
    assert len(back) + len(forward) == g.edge_count
    by_layer = {}
    for u, v in forward:
        for layer in range(lam[u], lam[v]):
            by_layer.setdefault(layer, []).append((u, v))
    search = _LayeredSearch(g, _layering(g))
    assert (search.s, search.t) == (slot[g.s], slot[g.t])
    assert dict(zip(ids, search.lam)) == lam
    back_vertices = {u for e in back for u in e}
    assert search.back_vertices == set(map(slot.__getitem__, back_vertices))
    assert search.floor == d.from_s[g.t] + min((slack[e] for e in back), default=0)
    assert search.waypoints == {
        layer
        for layer, edges in by_layer.items()
        if len({u for u, _ in edges}) > 1 and len({v for _, v in edges}) > 1
    }
    top = {
        a: max((x for x in search.waypoints if x < lam[a]), default=0) for a in back_vertices
    }
    assert [(ids[a], x) for a, x in search.starts] == [
        (a, top[a]) for a in sorted(back_vertices) if a != g.t and top[a]
    ]
    assert search._crossing == {}
    assert {
        layer: [(ids[u], ids[v]) for u, v in search.crossing(layer)] for layer in by_layer
    } == by_layer
    assert {ids[u]: [ids[v] for v in heads] for u, heads in enumerate(search.dag.adj)} == {
        u: [v for x, v in forward if x == u] for u in g.vertices
    }
    assert [ids[u] for u in search.dag.rank] == sorted(g.vertices, key=lambda u: (lam[u], u))
    return search, lam, forward


@pytest.mark.parametrize("seed", range(8))
def test_search_setup_matches_edge_slack(seed):
    """Odd seeds add edges that span several layers; seeds 2, 3, 6 and 7
    relabel the vertices, so that ids do not grow with the layer."""
    g = layered_digraph(5 + seed % 3, 2 + seed % 3, 3 + seed, seed)
    g = with_span_edges(g, 6 * (seed % 2), seed)
    if seed & 2:
        g = relabelled(g, seed)
    search, lam, forward = assert_search_setup(g)
    assert search.back_vertices and search.waypoints
    assert any(lam[v] > lam[u] + 1 for u, v in forward) == bool(seed % 2)


def test_waypoint_boundaries_follow_from_layer_sizes():
    """The set-up finds the waypoint boundaries from the layer sizes and the
    edges that skip a layer, without filing any edge per boundary. Bead
    graphs alternate wide layers with one-vertex cut layers; a boundary next
    to a cut layer holds a pair only through an edge that passes over it."""
    thin = []

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        st.booleans(),
        st.integers(3, 5),
        st.integers(1, 4),
        st.integers(0, 8),
        st.integers(0, 10),
        st.booleans(),
        st.integers(0, 2**16),
    )
    def check(beads, layers, width, back, skips, relabel, seed):
        if beads:
            g = bead_graph(layers, width, back, seed)
        else:
            g = layered_digraph(2 * layers, width, back, seed)
        g = with_span_edges(g, skips, seed)
        if relabel:
            g = relabelled(g, seed)
        search, lam, _ = assert_search_setup(g)
        sizes = Counter(lam.values())
        thin.append(any(sizes[x] == 1 or sizes[x + 1] == 1 for x in search.waypoints))

    check()
    assert 20 <= sum(thin) <= len(thin) - 20


def test_solver_skips_layers_without_a_waypoint_pair(monkeypatch):
    # Every layer of a bead graph has one tail or one head, so no two of its
    # forward edges can serve as disjoint waypoints: the scan needs no
    # reachability test and no bound table at all.
    calls = []
    reaches = ForwardDag.reaches

    def counting(dag, u, v):
        calls.append((u, v))
        return reaches(dag, u, v)

    monkeypatch.setattr(ForwardDag, "reaches", counting)

    def bound_table(*args, **kwargs):
        calls.append(args)
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(nextpath.solver, "dijkstra", bound_table)
    made = record_searches(monkeypatch)
    for seed in range(10):
        assert not solve_layered(bead_graph(4, 3, 10, seed)).found
    assert calls == []
    # No start vertex, so no boundary's crossing edges and no DAG either.
    assert len(made) == 10
    assert not any(
        search.starts or search._crossing or {"dag", "floor_reach"} & search.__dict__.keys()
        for search in made
    )


def test_bound_tables_stop_at_the_incumbent_radius(monkeypatch):
    # A full single-source table per back vertex settles 16,740 vertices
    # over these five solves. Each ceiling scan takes a floor-radius table
    # only for the starts in its floor reach, which with a least slack of 2
    # is the least-slack tails, found without a search: 5 Dijkstras settling
    # 27 vertices, where a floor-reach search and a table for every start
    # took 10 and 56, and a table for every start 63 and 319.
    settled = []

    def counting(*args, **kwargs):
        dist, parent = dijkstra(*args, **kwargs)
        settled.append(len(dist))
        return dist, parent

    monkeypatch.setattr(nextpath.solver, "dijkstra", counting)
    for seed in range(5):
        assert solve_layered(layered_digraph(24, 12, 150, seed)).found
    assert (len(settled), sum(settled)) == (5, 27)


def test_floor_first_search_returns_the_full_scans_route():
    """`solve_layered` scans under the ceiling floor + 1 first and falls back
    to the full scan only if that finds nothing; either way the route is the
    full scan's. The draws reach all three exits: a route at the floor, a
    route above it (the fallback's), and NONE."""
    exits = set()

    @settings(derandomize=True, database=None, max_examples=250, deadline=None)
    @given(
        st.integers(4, 7),
        st.integers(2, 4),
        st.integers(0, 10),
        st.integers(1, 7),
        st.integers(0, 6),
        st.integers(0, 2**16),
    )
    def check(layers, width, back, w_max, skips, seed):
        g = layered_digraph(layers, width, back, seed, back_weight_max=w_max)
        g = with_span_edges(g, skips, seed)
        search = _LayeredSearch(g, _layering(g))
        full = search.scan(None)
        got = solve_layered(g)
        assert (got.found, got.weight, got.path) == (
            (False, None, None) if full is None else (True, *full)
        )
        exits.add("none" if full is None else "floor" if full[0] == search.floor else "above")

    check()
    assert exits == {"floor", "above", "none"}


def test_floor_reach_skips_only_starts_without_a_ceiling_pair():
    """A start outside `floor_reach` has no pair that the ceiling scan's
    check `base + lower < floor + 1` passes, in its own floor-radius bound
    table; so the filtered ceiling scan returns the route of a scan that
    visits every start, and leaves the same memoized disjoint pairs and
    boundary lists."""
    skipped = kept = 0

    @settings(derandomize=True, database=None, max_examples=250, deadline=None)
    @given(
        st.integers(4, 7),
        st.integers(2, 4),
        st.integers(0, 10),
        st.integers(1, 7),
        st.integers(0, 6),
        st.integers(0, 2**16),
    )
    def check(layers, width, back, w_max, skips, seed):
        nonlocal skipped, kept
        g = layered_digraph(layers, width, back, seed, back_weight_max=w_max)
        g = with_span_edges(g, skips, seed)
        search = _LayeredSearch(g, _layering(g))
        ix, dfs, dst, ceiling = g.index, search.d.from_s, search.dst, search.floor + 1
        for a, top in search.starts:
            if ix.slot[a] in search.floor_reach:
                kept += 1
                continue
            skipped += 1
            table, _ = dijkstra(ix.out, ix.slot[a], limit=ceiling - dst - 1)
            for j, lower in table.items():
                b = ix.ids[j]
                if b in search.back_vertices and search.lam[b] <= top and b != g.s:
                    assert dst + dfs[a] - dfs[b] + lower >= ceiling
        unfiltered = _LayeredSearch(g, _layering(g))
        unfiltered.floor_reach = frozenset(range(len(ix.ids)))
        assert search.scan(ceiling) == unfiltered.scan(ceiling)
        assert search._pairs == unfiltered._pairs
        assert search._crossing == unfiltered._crossing

    check()
    assert skipped > 100 and kept > 100


def test_floor_first_search_skips_the_full_scan_on_seed_41(monkeypatch):
    """The full scan of this instance runs 1,533 residual searches and 5,890
    disjoint-pair queries before it reaches a route at the floor; under the
    floor ceiling every bound table and residual search starts at the floor
    radius. Both of its disjoint-pair queries park a token, and its
    layering has no spans, so both are walks."""
    calls = {"bound": [], "residual": 0, "pair": 0, "walk": 0}

    def bound_table(*args, **kwargs):
        calls["bound"].append(kwargs.get("limit"))
        return dijkstra(*args, **kwargs)

    def residual(*args):
        calls["residual"] += 1
        return shortest_path_avoiding(*args)

    def pair(*args):
        calls["pair"] += 1
        return two_disjoint_paths(*args)

    def walk(*args):
        calls["walk"] += 1
        return layer_walk(*args)

    monkeypatch.setattr(nextpath.solver, "dijkstra", bound_table)
    monkeypatch.setattr(nextpath.solver, "shortest_path_avoiding", residual)
    monkeypatch.setattr(nextpath.solver, "two_disjoint_paths", pair)
    monkeypatch.setattr(nextpath.solver, "layer_walk", walk)
    g = layered_digraph(36, 18, 200, 41)
    out = solve_layered(g)
    assert out.weight == _LayeredSearch(g, _layering(g)).floor == 37
    assert (calls["residual"], calls["pair"], calls["walk"]) == (1, 0, 2)
    assert calls["bound"] and None not in calls["bound"]


def test_seed_41_builds_one_boundary_list_and_no_kahn_order(monkeypatch):
    """The solve visits one pair, (a, b) = (588, 569), which spans the one
    boundary 33|34. Of the 33 waypoint boundaries it files the crossing
    edges of that one only, and its two parked queries walk the layers, so
    it builds no DAG, and Kahn's order never runs."""
    made = record_searches(monkeypatch)
    kahn, visited = [], []
    monkeypatch.setattr(nextpath.disjoint, "topological_order", lambda *args: kahn.append(args))
    route = _LayeredSearch._pair_route

    def visiting(search, a, b, *args):
        visited.append((a, b))
        return route(search, a, b, *args)

    monkeypatch.setattr(_LayeredSearch, "_pair_route", visiting)
    assert solve_layered(layered_digraph(36, 18, 200, 41)).weight == 37
    [search] = made
    assert visited == [(588, 569)] and (search.lam[588], search.lam[569]) == (34, 33)
    assert len(search.waypoints) == 33 and list(search._crossing) == [33]
    assert "dag" not in search.__dict__ and kahn == []


# The two parallel unit chains without their back-edge, plus one edge.
@pytest.mark.parametrize(
    "extra,violations",
    [
        pytest.param((1, 3, 1), ([(1, 3)], []), id="same-layer-back-edge"),
        pytest.param((1, 4, 5), ([(1, 4)], []), id="back-edge-pointing-forward"),
        pytest.param((0, 5, 2), None, id="vertex-not-straight"),
    ],
)
def test_solver_rejects_non_layered_input(extra, violations):
    u, v, w = extra
    edges = {e: x for e, x in PARALLEL_CHAINS.items() if e != (4, 1)}
    g = build_graph(6, {**edges, (u, v): w}, s=0, t=5)
    d = shortest_distances(g)
    if violations is None:
        assert not is_straight(g, d)
    else:
        assert is_straight(g, d) and nextpath.graph.layering_violations(g) == violations
    with pytest.raises(ValueError, match="layered"):
        solve_layered(g)


def test_a_graph_that_is_not_straight_gets_the_layered_message(monkeypatch):
    """The search's input check reads the graph's `layering`, which raises
    on a graph whose table lists a vertex off every shortest path; the
    search restates that error in its own words. On a fresh graph the
    set-up runs the one straightness sweep, inside `distances`, and no
    other straightness pass."""
    edges = {e: x for e, x in PARALLEL_CHAINS.items() if e != (4, 1)}
    bent = build_graph(6, {**edges, (0, 5): 2}, s=0, t=5)
    assert not is_straight(bent, shortest_distances(bent))
    with pytest.raises(ValueError) as caught:
        solve_layered(bent)
    assert str(caught.value) == "graph is not (s,t)-layered"
    # A copy, so that the generator's own layering check is not cached.
    g = layered_digraph(5, 3, 4, 1).replace()
    callers = []
    sweep = nextpath.graph._off_slots

    def counting(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return sweep(*args)

    monkeypatch.setattr(nextpath.graph, "_off_slots", counting)
    _LayeredSearch(g, _layering(g))
    assert callers == ["distances"]
    _LayeredSearch(g, _layering(g))
    assert callers == ["distances"]


def test_solver_takes_a_layer_skipping_forward_edge():
    # The two parallel unit chains with their back-edge, plus the edge 0->2
    # that skips a layer: the search takes it whole and matches the oracle.
    g = build_graph(6, {**PARALLEL_CHAINS, (0, 2): 2}, s=0, t=5)
    d = shortest_distances(g)
    assert is_straight(g, d) and nextpath.graph.layering_violations(g) == ([], [(0, 2)])
    search = _LayeredSearch(g, _layering(g))
    assert search.waypoints == {2} and search.crossing(2) == [(0, 2), (1, 2), (3, 4)]
    want = exhaustive_next_to_shortest(g)
    assert want.found and solve_layered(g).weight == want.weight == 5


def test_a_graph_built_from_a_layerize_output_computes_its_own_table():
    """`layerize` hands its table on to the graph it returns, but a graph
    made from that one with `replace` starts without a table, so the layered
    search checks it against its own distances."""
    g_l, tr_l = layerize(skip_edge_graph(1))
    assert tr_l.steps and "distances" in g_l.__dict__
    d = g_l.distances
    rank = {x: i for i, x in enumerate(sorted(set(d.from_s.values())))}
    # One edge from s that skips layers and is lighter than the span it skips.
    v = min(u for u in g_l.vertices if rank[d.from_s[u]] == 3)
    skipping = g_l.replace(edges={**g_l.edges, (g_l.s, v): 1})
    # Every out-edge of one vertex gone: it reaches t no more, which a table
    # carried over from g_l would not show, and each edge left is layered.
    x = min(u for u in g_l.vertices if rank[d.from_s[u]] == 2)
    cut_off = g_l.replace(edges={e: w for e, w in g_l.edges.items() if e[0] != x})
    for h in (skipping, cut_off):
        assert "distances" not in h.__dict__
        assert (dict(h.distances.from_s), dict(h.distances.to_t)) == fresh_distances(h)
        assert h.distances != d
        with pytest.raises(ValueError, match="layered"):
            _LayeredSearch(h, _layering(h))


def test_a_solve_never_runs_the_unit_step_layering_check(monkeypatch):
    """`layerize` and the search read the graph's `layering` directly: the
    back-edges to remove and the search's input check are its `against`
    edges. So a solve needs no `layering_violations`, which also lists
    every layer-skipping forward edge."""
    layered, skipping = layered_digraph(5, 3, 4, 1), skip_edge_graph(1)
    assert is_layered(layered, shortest_distances(layered))
    assert not is_layered(skipping, shortest_distances(skipping))
    calls = []
    check = nextpath.graph.layering_violations

    def counting(g):
        calls.append(g)
        return check(g)

    monkeypatch.setattr(nextpath.graph, "layering_violations", counting)
    # An imported name would bypass the patch.
    assert not hasattr(nextpath.reduction, "layering_violations")
    assert not hasattr(nextpath.solver, "layering_violations")
    solve_layered(layered)
    solve(skipping)
    assert calls == []


def test_a_layered_solve_checks_its_input_once(monkeypatch):
    """`solve_layered` checks the layering and hands it to the search it
    sets up, which checks it no more."""
    checked = []

    def counting(g):
        checked.append(g)
        return _layering(g)

    monkeypatch.setattr(nextpath.solver, "_layering", counting)
    made = record_searches(monkeypatch)
    g = layered_digraph(6, 3, 5, 2)
    assert solve_layered(g).found
    assert checked == [g] and [search.g for search in made] == [g]


def test_a_solve_builds_one_layering_on_the_straightened_graph(monkeypatch):
    """`layerize` builds the straightened graph's layering and hands it on
    to the graph it returns, which the search reads."""
    built = []
    layering = nextpath.graph.Layering

    def counting(*fields):
        built.append(fields)
        return layering(*fields)

    monkeypatch.setattr(nextpath.graph, "Layering", counting)
    removals = 0
    for seed in range(12):
        g = skip_edge_graph(seed) if seed % 2 else random_digraph(8, 0.4, 4, seed)
        built.clear()
        result = solve_detailed(g)
        if shortest_distances(g).from_s[g.t] is None:
            assert built == []
            continue
        assert len(built) == 1
        made = layering(*built[0])
        assert result.layered_graph.layering == dataclasses.replace(made, against=())
        assert made == straighten(g, incumbent(g))[0].layering
        removals += len(result.layerize_trace.steps)
    assert removals


def _drawn_graph(kind, seed):
    """A small graph of one of the shapes the layered search may be given."""
    if kind == "random":
        return random_digraph(4 + seed % 6, 0.4, 3, seed)
    if kind == "skip-edge":
        return skip_edge_graph(seed)
    rng = random.Random(seed)
    g = layered_digraph(3 + seed % 4, 2 + seed % 3, seed % 6, seed)
    vs = sorted(g.vertices)
    u, v = rng.choice([(u, v) for u in vs for v in vs if u != v and (u, v) not in g.edges])
    g = g.replace(edges={**g.edges, (u, v): rng.randint(1, 4)})
    if kind == "one-edge":
        return g
    g_s, _ = straighten(g if seed % 2 else skip_edge_graph(seed))
    return g_s if kind == "straightened" else layerize(g_s)[0]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    st.sampled_from(["random", "one-edge", "skip-edge", "straightened", "layerized"]),
    st.integers(0, 2**16),
)
def test_search_accepts_exactly_straight_graphs_whose_back_edges_go_back(kind, seed):
    """The search takes a straight graph whose back-edges all go strictly
    back, with or without layer-skipping forward edges, and rejects every
    other graph; `layerize` always returns one it takes."""
    g = _drawn_graph(kind, seed)
    d = shortest_distances(g)
    try:
        lam = _LayeredSearch(g, _layering(g)).lam
    except ValueError:
        assert kind != "layerized"
        assert not is_straight(g, d) or nextpath.graph.layering_violations(g)[0]
        return
    assert is_straight(g, d)
    assert nextpath.graph.layering_violations(g)[0] == []
    values = sorted(set(d.from_s.values()))
    assert dict(zip(g.index.ids, lam)) == {u: values.index(d.from_s[u]) + 1 for u in g.vertices}


def test_residual_path_single_back_edge():
    g = build_graph(6, PARALLEL_CHAINS, s=0, t=5)
    assert shortest_path_avoiding(g, {0, 2, 3, 5}, 4, 1) == (4, 1)


def test_residual_path_blocked_set_disconnects():
    g = build_graph(6, PARALLEL_CHAINS, s=0, t=5)
    assert shortest_path_avoiding(g, {1, 5}, 2, 3) is None
    with pytest.raises(ValueError):
        shortest_path_avoiding(g, {4}, 4, 1)


@pytest.mark.parametrize("seed", range(6))
def test_residual_weights_match_enumeration(seed):
    g = layered_digraph(5, 2, 3, seed)
    verts = sorted(g.vertices)
    blocked = {verts[2], verts[-2]}
    for a in verts[:3]:
        for b in verts[-3:]:
            if a == b or a in blocked or b in blocked:
                continue
            sub = g.replace(
                edges={
                    (u, v): w
                    for (u, v), w in g.edges.items()
                    if u not in blocked and v not in blocked
                }
            )
            want = min(
                (w for _p, w in simple_paths(sub, a, b, budget=4000)), default=None
            )
            got = shortest_path_avoiding(g, blocked, a, b)
            if want is None:
                assert got is None
            else:
                assert got is not None and path_weight(g, got) == want


@pytest.mark.parametrize("layers,width,back", [(4, 2, 2), (5, 2, 3), (5, 3, 4), (6, 2, 5)])
def test_solver_matches_oracle_on_seeded_layered_instances(layers, width, back):
    for seed in range(25):
        g = layered_digraph(layers, width, back, seed * 13 + layers)
        want = exhaustive_next_to_shortest(g)
        got = solve_layered(g)
        assert want.found == got.found, seed
        if want.found:
            assert want.weight == got.weight, seed


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.integers(5, 7),
    st.integers(2, 4),
    st.integers(0, 14),
    st.integers(1, 3),
    st.integers(0, 2**16),
)
def test_solver_matches_oracle_on_drawn_layered_graphs(layers, width, back, w_max, seed):
    g = layered_digraph(layers, width, back, seed, back_weight_max=w_max)
    want = exhaustive_next_to_shortest(g)
    got = solve_layered(g)
    assert (got.found, got.weight) == (want.found, want.weight)


def _check_span_edge_instance(layers, width, back, skips, seed):
    """Checks `solve_detailed` on a layered graph with span-weight skip
    edges, and `solve_layered` on what `layerize` makes of it, against the
    oracle; returns whether the searched graph keeps an edge that spans
    more than one layer."""
    g = with_span_edges(layered_digraph(layers, width, back, seed), skips, seed)
    want = exhaustive_next_to_shortest(g)
    got = solve_detailed(g).outcome
    assert (got.found, got.weight) == (want.found, want.weight)
    g_l, _ = layerize(g)
    want_l = want if g_l is g else exhaustive_next_to_shortest(g_l)
    got_l = solve_layered(g_l)
    assert (got_l.found, got_l.weight) == (want_l.found, want_l.weight)
    search = _LayeredSearch(g_l, _layering(g_l))
    return any(search.lam[v] > search.lam[u] + 1 for u in g_l.vertices for v in search.forward[u])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.integers(4, 7),
    st.integers(2, 3),
    st.integers(0, 8),
    st.integers(1, 8),
    st.integers(0, 2**16),
)
def test_solver_matches_oracle_with_layer_spanning_edges(layers, width, back, skips, seed):
    _check_span_edge_instance(layers, width, back, skips, seed)


def test_layer_spanning_edges_reach_the_search():
    """The property above draws from a family in which the search does get
    edges that span layers: most fixed draws keep one."""
    kept = sum(
        _check_span_edge_instance(4 + seed % 4, 2 + seed % 2, seed % 9, 1 + seed % 8, seed)
        for seed in range(40)
    )
    assert kept >= 20


def test_solver_outputs_validate_and_satisfy_weight_identities():
    for seed in range(20):
        g = layered_digraph(5, 3, 5, seed, back_weight_max=9)
        out = solve_layered(g)
        if not out.found:
            continue
        d = shortest_distances(g)
        dst = d.from_s[g.t]
        check = validate_path(g, out.path)
        assert check.simple and check.weight == out.weight > dst
        prefix, middle, suffix = back_edge_split(g, out.path)
        # outer fragments are forward shortest routes
        assert path_weight(g, prefix) == d.from_s[middle[0]]
        assert path_weight(g, suffix) == dst - d.from_s[middle[-1]]
        # interior of the middle segment stays strictly between the endpoints
        for u in middle[1:-1]:
            assert d.from_s[middle[-1]] < d.from_s[u] < d.from_s[middle[0]]


def test_solver_is_deterministic_and_keeps_the_floor_exit():
    for seed in (0, 3, 9):
        g = layered_digraph(6, 3, 6, seed, back_weight_max=7)
        assert solve_layered(g) == solve_layered(g)
    # Without the incumbent's pruning and the floor exit this instance takes
    # minutes. Criterion 8 bounds a solve at 30 s.
    g = layered_digraph(24, 12, 150, 3)
    want = solve_layered(g)
    start = time.perf_counter()
    assert solve_layered(g) == want
    assert time.perf_counter() - start < 30


def test_multi_hop_middle_segment():
    # frozen by seed search: the best route descends through two back-edges,
    # so the middle segment has an interior vertex
    g = layered_digraph(6, 3, 5, 426, back_weight_max=2)
    out = solve_layered(g)
    assert out.weight == 10 == exhaustive_next_to_shortest(g).weight
    d = shortest_distances(g)
    _, middle, _ = back_edge_split(g, out.path)
    assert middle == (10, 4, 1)
    assert d.from_s[middle[-1]] < d.from_s[4] < d.from_s[middle[0]]
