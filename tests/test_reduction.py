"""reduction: straightening, layerization, traces and lifting."""
from __future__ import annotations

import random
from collections import Counter
from functools import reduce
from itertools import count, islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    build_graph,
    floyd_warshall,
    fresh_distances,
    relabelled,
    skip_edge_graph,
    sorted_rows_index,
    sum_rule_off,
    violation_count,
    with_span_edges,
)
from nextpath import (
    BackEdgeRemoval,
    EliminationRecord,
    InvalidPathError,
    ReductionTrace,
    TraceError,
    WeightedDigraph,
    apply_step,
    exhaustive_next_to_shortest,
    is_layered,
    is_straight,
    layered_digraph,
    layerize,
    lift_path,
    parse_graph,
    path_weight,
    random_digraph,
    serialize_graph,
    shortest_distances,
    solve,
    straighten,
    validate_path,
)
from nextpath import reduction
from nextpath.graph import layering_violations
from nextpath.oracle import simple_paths
from nextpath.pipeline import solve_detailed
from nextpath.reduction import incumbent
from test_metamorphic import relabelling


# --- the overlay step ----------------------------------------------------------


def test_eliminate_keeps_cheaper_existing_edge():
    # detour through 1 costs 4, the direct edge costs 1: min rule keeps 1,
    # and (s, t) is not a shortcut edge
    g = build_graph(3, {(0, 1): 2, (1, 2): 2, (0, 2): 1}, s=0, t=2)
    g2, trace = straighten(g)
    assert g2.edges == {(0, 2): 1}
    assert trace.steps == [EliminationRecord(frozenset({1}), {})]


def test_eliminate_creates_shortcut_for_absent_edge():
    # no direct s-t edge; a disjoint shortest route keeps the graph connected
    g = build_graph(4, {(0, 1): 2, (1, 3): 2, (0, 2): 1, (2, 3): 1}, s=0, t=3)
    g2, trace = straighten(g)
    assert g2.edges == {(0, 2): 1, (2, 3): 1, (0, 3): 4}
    assert trace.steps == [EliminationRecord(frozenset({1}), {(0, 3): (1,)})]


def connected_seeds(number, n, p, w_max):
    """The first `number` seeds whose random_digraph(n, p, w_max, seed) has an
    s-t path, so that no case of a test over them checks nothing."""
    seeds = []
    for seed in count():
        g = random_digraph(n, p, w_max, seed)
        if shortest_distances(g).from_s[g.t] is not None:
            seeds.append(seed)
            if len(seeds) == number:
                return seeds


@pytest.mark.parametrize("seed", connected_seeds(8, 7, 0.45, 4))
def test_eliminate_preserves_surviving_distances(seed):
    g = random_digraph(7, 0.45, 4, seed)
    g2, _ = straighten(g)
    before, after = floyd_warshall(g), floyd_warshall(g2)
    for x in g2.vertices:
        for y in g2.vertices:
            assert before[(x, y)] == after[(x, y)], (seed, x, y)


# --- the incumbent bound -------------------------------------------------------


def test_incumbent_is_none_on_straight_graphs_and_without_an_s_t_path():
    for seed in range(6):
        for g in (layered_digraph(6, 3, 5, seed), skip_edge_graph(seed)):
            assert not shortest_distances(g).off
            assert incumbent(g) is None
    assert incumbent(build_graph(3, {(0, 1): 1, (2, 1): 1}, s=0, t=2)) is None


def test_incumbent_is_none_when_no_edge_qualifies():
    # The unit path 0 -> 1 -> 2 -> 3 plus the chord (0, 3): not straight,
    # and the answer is the path, but no edge (u, v) has d(s,u) + d(v,t)
    # below d(s,t) = 1 and d(s,u) + w + d(v,t) above it.
    g = build_graph(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
    assert shortest_distances(g).off and incumbent(g) is None
    assert solve(g).weight == 3


def bounded_seeds(number, n, p, w_max):
    """The first `number` seeds whose random_digraph(n, p, w_max, seed) gets
    an incumbent, so that no case of a test over them checks nothing."""
    return list(islice((s for s in count() if incumbent(random_digraph(n, p, w_max, s))), number))


def test_incumbent_bounds_the_answer_and_is_a_simple_path_weight():
    """Over small random graphs, the incumbent is None or at least the
    oracle's answer, and it is the weight of a simple s-t path that is not
    shortest: the path it stands for exists."""
    bounded = tight = 0
    for seed in range(300):
        g = random_digraph(5 + seed % 6, (0.3, 0.4, 0.5)[seed % 3], 1 + seed % 5, seed)
        bound = incumbent(g)
        if bound is None:
            continue
        answer = exhaustive_next_to_shortest(g)
        assert answer.found and bound >= answer.weight, seed
        dst = shortest_distances(g).dst
        assert bound in {w for _path, w in simple_paths(g, g.s, g.t) if w > dst}, seed
        bounded += 1
        tight += bound == answer.weight
    assert bounded >= 100 and 0 < tight < bounded


@pytest.mark.parametrize("seed", bounded_seeds(8, 8, 0.45, 4))
def test_bounded_straighten_keeps_the_distances_inside_the_bound(seed):
    """A bounded overlay leaves out the detours outside the bound's
    ellipse: between survivors x and y no distance falls, and d(x, y) holds
    whenever d(s,x) + d(x,y) + d(y,t) is within the bound."""
    g = random_digraph(8, 0.45, 4, seed)
    bound = incumbent(g)
    g2, _ = straighten(g, bound)
    d = shortest_distances(g)
    before, after = floyd_warshall(g), floyd_warshall(g2)
    for x in g2.vertices:
        for y in g2.vertices:
            if before[(x, y)] is None:
                assert after[(x, y)] is None
                continue
            assert after[(x, y)] is None or after[(x, y)] >= before[(x, y)], (seed, x, y)
            if d.from_s[x] + before[(x, y)] + d.to_t[y] <= bound:
                assert after[(x, y)] == before[(x, y)], (seed, x, y)


# --- lifting through the overlay step -------------------------------------------


def test_lift_identity_without_shortcuts():
    g = build_graph(3, {(0, 1): 2, (1, 2): 2, (0, 2): 1}, s=0, t=2)
    _, trace = straighten(g)
    assert lift_path(trace, (0, 2)) == (0, 2)


def test_lift_single_shortcut():
    g = build_graph(4, {(0, 1): 2, (1, 3): 2, (0, 2): 1, (2, 3): 1}, s=0, t=3)
    g2, trace = straighten(g)
    lifted = lift_path(trace, (0, 3))
    assert lifted == (0, 1, 3)
    assert path_weight(g, lifted) == g2.edges[(0, 3)] == 4
    with pytest.raises(TraceError):
        lift_path(trace, (0, 1, 3))  # 1 is eliminated


def test_lift_across_two_shortcuts():
    # frozen by seed search: a reduced path crossing two shortcut edges,
    # each spliced back to its own detour
    g = random_digraph(8, 0.45, 4, 58)
    g2, trace = straighten(g)
    (rec,) = trace.steps
    reduced = (0, 1, 2, 7)
    assert [e for e in zip(reduced, reduced[1:]) if e in rec.shortcut_edges] == [(0, 1), (2, 7)]
    lifted = lift_path(trace, reduced)
    assert lifted == (0, 4, 1, 2, 5, 7)
    assert path_weight(g, lifted) == path_weight(g2, reduced) == 12


def test_the_recorded_shortcuts_are_read_only():
    """The record is what `lift_path` splices, so an assignment to its map
    must not change a lift."""
    g = random_digraph(12, 0.3, 5, 20)
    (rec,) = straighten(g)[1].steps
    edge = next(iter(rec.shortcut_edges))
    with pytest.raises(TypeError):
        rec.shortcut_edges[edge] = ()
    assert rec.shortcut_edges[edge]


def test_lift_cuts_the_loop_two_detours_close():
    # frozen by seed search: the detours of (1, 5) and (5, 7) both pass
    # through 8, so splicing gives 0 1 8 5 8 6 7 4 9; the cut keeps the
    # first 8 and drops the loop 8 5 8
    g = random_digraph(10, 0.5, 1, 44)
    g2, trace = straighten(g)
    (rec,) = trace.steps
    assert rec.shortcut_edges[(1, 5)] == (8,) and rec.shortcut_edges[(5, 7)] == (8, 6)
    lifted = lift_path(trace, (0, 1, 5, 7, 4, 9))
    assert lifted == (0, 1, 8, 6, 7, 4, 9)
    assert validate_path(g, lifted).simple
    assert path_weight(g, lifted) < path_weight(g2, (0, 1, 5, 7, 4, 9))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.integers(6, 13), st.integers(1, 4), st.integers(0, 10**6))
@example(10, 1, 44)
def test_lift_through_straighten_gives_no_heavier_simple_paths(n, w_max, seed):
    """Every simple s-t path of the straightened graph lifts to a simple
    s-t path of the input that weighs no more."""
    g = random_digraph(n, 0.5, w_max, seed)
    if shortest_distances(g).from_s[g.t] is None:
        return
    g2, trace = straighten(g)
    for path, w in islice(simple_paths(g2, g2.s, g2.t, budget=None), 60):
        lifted = lift_path(trace, path)
        check = validate_path(g, lifted)
        assert (lifted[0], lifted[-1]) == (g.s, g.t)
        assert check.simple and check.weight <= w


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_lift_through_layerize_keeps_simple_paths_and_weights(seed):
    """Every simple s-t path of layerize's output is one of its input, and
    lifting leaves it as it is: layerize only removes edges."""
    g = skip_edge_graph(seed)
    g_l, trace = layerize(g)
    for path, w in islice(simple_paths(g_l, g_l.s, g_l.t, budget=None), 60):
        lifted = lift_path(trace, path)
        assert lifted == path
        assert (lifted[0], lifted[-1]) == (g.s, g.t)
        check = validate_path(g, lifted)
        assert check.simple and check.weight == w


# --- straighten -----------------------------------------------------------------


def test_straighten_identity_on_straight_input():
    g = build_graph(3, {(0, 1): 1, (1, 2): 1}, s=0, t=2)
    g2, trace = straighten(g)
    assert g2 == g
    assert trace.steps == [] and trace.candidates == []


def test_straighten_worked_example_records_detour_candidate():
    g = build_graph(3, {(0, 1): 2, (1, 2): 2, (0, 2): 1}, s=0, t=2)
    g2, trace = straighten(g)
    assert g2.edges == {(0, 2): 1}
    assert trace.candidates == [((0, 1, 2), 4)]


def test_straighten_output_is_straight_and_bounded():
    for seed in range(25):
        g = random_digraph(8, 0.4, 4, seed)
        if shortest_distances(g).from_s[g.t] is None:
            continue
        g2, trace = straighten(g)
        assert is_straight(g2, shortest_distances(g2))
        assert len(trace.steps) <= g.vertex_count
        for path, w in trace.candidates:
            check = validate_path(g, path)
            assert check.simple and check.weight == w


# --- layerize --------------------------------------------------------------------


def test_layerize_keeps_layer_skipping_edge_whole():
    g = build_graph(4, {(0, 1): 1, (1, 2): 1, (0, 2): 2, (2, 3): 1}, s=0, t=3)
    assert layering_violations(g) == ([], [(0, 2)])
    g2, trace = layerize(g)
    assert g2 is g and trace.steps == [] and trace.candidates == []
    # With a same-layer back-edge beside it, only the back-edge goes.
    g = build_graph(5, {**g.edges, (0, 4): 1, (4, 2): 1, (1, 4): 1, (4, 1): 2}, s=0, t=3)
    g2, trace = layerize(g)
    assert trace.steps == [BackEdgeRemoval((1, 4)), BackEdgeRemoval((4, 1))]
    assert trace.candidates == [((0, 1, 4, 2, 3), 4), ((0, 4, 1, 2, 3), 5)]
    assert g2.vertices == g.vertices
    assert dict(g2.edges) == {e: w for e, w in g.edges.items() if e not in {(1, 4), (4, 1)}}
    assert layering_violations(g2) == ([], [(0, 2)])


def test_layerize_identity_on_layered_input():
    g = build_graph(3, {(0, 1): 1, (1, 2): 1}, s=0, t=2)
    assert violation_count(g) == 0
    g2, trace = layerize(g)
    assert g2 == g and trace.steps == []


def test_layerize_requires_straight():
    g = build_graph(3, {(0, 1): 1, (1, 2): 1, (0, 2): 1}, s=0, t=2)
    with pytest.raises(ValueError, match="straight"):
        layerize(g)


def against_edge_graph(seed):
    """A layered graph with back-edges, tied shortest paths and spans, plus
    up to 8 edges that climb no layer or climb with slack, which `layerize`
    removes, each recording a candidate; no distance changes."""
    g = with_span_edges(layered_digraph(7, 3, 5, seed), 6, seed)
    ds = shortest_distances(g).from_s
    rng = random.Random(f"against:{seed}")
    edges = dict(g.edges)
    for _ in range(8):
        u, v = rng.sample(sorted(g.vertices), 2)
        if (u, v) not in edges and ds[v] >= ds[u]:
            edges[(u, v)] = ds[v] - ds[u] + rng.randint(1, 3)
    return g.replace(edges=edges)


def into_walk_path(g, x, mid, y):
    """The reference for a candidate's path, from slots of g to ids: s -> x
    by the smallest tight in-edge of each vertex, over an `into` built from
    g's edge map, then `mid`, then y -> t by the smallest tight out-edge;
    g need not be straight."""
    ix, d = sorted_rows_index(g.vertices, g.edges), g.distances
    head, tail = [x], [y]
    while head[-1] != ix.slot[g.s]:
        v = head[-1]
        head.append(
            next(j for j, w in ix.into[v] if d.ds[j] is not None and d.ds[j] + w == d.ds[v])
        )
    while tail[-1] != ix.slot[g.t]:
        v = tail[-1]
        tail.append(next(j for j, w in ix.out[v] if d.dt[j] is not None and d.dt[j] + w == d.dt[v]))
    return tuple(ix.ids[v] for v in (*reversed(head), *mid, *tail))


def test_layerize_candidates_follow_the_trees_of_an_into_walk():
    """`layerize` walks its candidates' trees on the layering's forward
    rows; each path is the one a walk over the in-edges gives, on graphs
    with spans, ties, and ids that are shuffled or sparse, and neither the
    input nor the output index derives `into`."""
    spanning = candidates = 0
    for seed in range(40):
        built = against_edge_graph(seed)
        for g in (built, relabelled(built, seed), relabelling(built, random.Random(seed))[0]):
            assert g.layering.against and g.layering.back
            g_l, trace = layerize(g)
            expected = [(into_walk_path(g, *ends), w) for ends, w in zip(trace.ends, trace.weights)]
            assert trace.candidates == expected
            assert "into" not in vars(g.index) and "into" not in vars(g_l.index)
            spanning += bool(g.layering.spans)
            candidates += len(expected)
    assert spanning >= 100 and candidates >= 400


def test_straighten_candidates_follow_the_trees_of_an_into_walk():
    """`straighten`, bounded or not, walks its candidates' trees on the
    layering of the graph it returns; each path is the one a walk over the
    input's in-edges gives, on graphs that are not straight, with tied
    shortest paths, and ids that are shuffled or sparse, and building the
    paths derives no `into` on the returned graph's index."""
    graphs = tied = candidates = bounded = 0
    for seed in range(60):
        built = random_digraph(14, 0.3, 2, seed)
        if shortest_distances(built).dst is None:
            continue
        for g in (built, relabelled(built, seed), relabelling(built, random.Random(seed))[0]):
            d, ix = g.distances, g.index
            assert d.off
            graphs += 1
            tied += any(
                sum(d.ds[j] is not None and d.ds[j] + w == d.ds[v] for j, w in ix.into[v]) > 1
                for v in range(len(ix.ids)) if v not in d.off
            )
            for bound in (None, incumbent(g)):
                g_s, trace = straighten(g, bound)
                slot = {x: ix.slot[i] for x, i in enumerate(g_s.index.ids)}
                expected = [
                    (into_walk_path(g, slot[x], tuple(map(ix.slot.get, mid)), slot[y]), w)
                    for (x, mid, y), w in zip(trace.ends, trace.weights)
                ]
                assert trace.candidates == expected
                assert "into" not in vars(g_s.index)
                candidates += len(expected)
                bounded += len(expected) if bound is not None else 0
    assert graphs >= 150 and tied >= 40 and bounded >= 180 and candidates >= 650


def test_a_layer_skip_solve_derives_no_into(monkeypatch):
    """A graph with layer-skipping edges and no back-edge, as `layer-skip`
    draws them: its solve walks the winner's trees on the layering and
    sets no search up, so neither its index nor layerize's derives `into`."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from families import layer_skip_digraph

    found = 0
    for seed in range(10):
        g = layer_skip_digraph(10, 3, 12, seed, max_span=4, slack_share=0.3)
        result = solve_detailed(g)
        assert result.outcome.weight == exhaustive_next_to_shortest(g).weight
        assert not result.layered_outcome.found and not result.layered_graph.layering.back
        found += result.outcome.found
        assert "into" not in vars(g.index) and "into" not in vars(result.layered_graph.index)
    assert found >= 5


@pytest.mark.parametrize("seed", range(12))
def test_layerize_invariants_per_iteration(seed):
    """Replaying the trace: each step removes one back-edge that does not go
    strictly back, and keeps every vertex, every distance and every
    layer-skipping forward edge; none of the first kind is left at the end."""
    g = random_digraph(8, 0.5, 5, seed)
    if shortest_distances(g).from_s[g.t] is None:
        pytest.skip("no s-t path")
    g_s, _ = straighten(g)
    g_l, trace = layerize(g_s)
    cur = g_s
    d = shortest_distances(cur)
    back, fwd = layering_violations(cur)
    assert len(trace.steps) == len(back)
    for step in trace.steps:
        nxt = apply_step(cur, step)
        d_nxt = shortest_distances(nxt)
        assert nxt.vertices == cur.vertices
        assert (dict(d_nxt.from_s), dict(d_nxt.to_t)) == (dict(d.from_s), dict(d.to_t))
        back = back[1:]
        assert layering_violations(nxt) == (back, fwd)
        assert violation_count(nxt) == violation_count(cur) - 1
        cur, d = nxt, d_nxt
    assert cur == g_l and back == []
    assert is_layered(g_l, d) == (not fwd)


REPLAY_GRAPHS = (
    # sparse: parts unreachable from s or not reaching t
    [random_digraph(10, 0.2, 5, seed) for seed in range(20)]
    + [random_digraph(8, 0.45, 4, seed) for seed in (3, 5, 11)]
    + [random_digraph(10, 0.3, 5, 20)]
    + [layered_digraph(6, 3, 6, seed) for seed in range(4)]
    + [skip_edge_graph(seed) for seed in range(10)]
)


def _on_shortest_path(d, v, dst):
    return d.from_s[v] is not None and d.to_t[v] is not None and d.from_s[v] + d.to_t[v] == dst


def _tree_paths(g, d, x, y):
    """s -> x and y -> t, each along the smallest-id tight edges of g."""
    def tight(adj, dist, v):
        return min(z for z, w in adj[v] if dist[z] is not None and dist[z] + w == dist[v])

    preds, succs = {v: [] for v in g.vertices}, {v: [] for v in g.vertices}
    for (u, v), w in g.edges.items():
        preds[v].append((u, w))
        succs[u].append((v, w))
    head, tail = [x], [y]
    while head[-1] != g.s:
        head.append(tight(preds, d.from_s, head[-1]))
    while tail[-1] != g.t:
        tail.append(tight(succs, d.to_t, tail[-1]))
    return tuple(reversed(head)), tuple(tail)


def _lightest_detour(cur, inner, x, y):
    """Weight of the lightest x-to-y path of cur whose inner vertices all lie
    in `inner`, by enumeration, or None."""
    keep = inner | {x, y}
    edges = {(u, v): w for (u, v), w in cur.edges.items() if u in keep and v in keep}
    edges.pop((x, y), None)
    sub = WeightedDigraph(frozenset(keep), edges, x, y)
    return min((w for _, w in simple_paths(sub, x, y, budget=None)), default=None)


def _check_overlay(g, cur, step, candidates):
    """The overlay step replayed on cur, by definition and with fresh
    distances. A pair of survivors (x, y) is a shortcut exactly when the
    lightest detour through the eliminated vertices undercuts w(x, y) or
    the edge is absent, and it records such a detour. In ascending (x, y)
    order, every tight edge lighter than its lightest detour gives one
    candidate: s -> x, a lightest detour, y -> t along the smallest-id
    trees."""
    d = shortest_distances(cur)
    dst = d.from_s[cur.t]
    survivors = sorted(cur.vertices - step.vertices)
    expected = []
    for x in survivors:
        for y in survivors:
            detour = _lightest_detour(cur, step.vertices, x, y) if x != y else None
            old = cur.edges.get((x, y))
            if detour is not None and (old is None or detour < old):
                inner = step.shortcut_edges[(x, y)]
                assert set(inner) <= step.vertices
                assert path_weight(cur, (x, *inner, y)) == detour
                continue
            assert (x, y) not in step.shortcut_edges
            if detour is not None and old < detour and d.from_s[x] + old + d.to_t[y] == dst:
                expected.append((x, y, detour))
    assert len(candidates) == len(expected)
    for (path, w), (x, y, detour) in zip(candidates, expected):
        head, tail = _tree_paths(cur, d, x, y)
        mid = path[len(head) : len(path) - len(tail)]
        assert path[: len(head)] == head and path[len(path) - len(tail) :] == tail
        assert set(mid) <= step.vertices
        assert w == path_weight(g, path) == d.from_s[x] + detour + d.to_t[y]


def test_trace_replay_reproduces_reduced_graphs():
    """Replaying each trace step by step gives the returned graph and the
    recorded candidates, and every intermediate graph keeps the distances
    the one-pass reductions read off their single distance table."""
    kinds: set[type] = set()
    solved = cut_off = spanning = 0
    for g in REPLAY_GRAPHS:
        d0 = shortest_distances(g)
        dst = d0.from_s[g.t]
        if dst is None:
            continue
        solved += 1
        g_s, tr_s = straighten(g)
        # one overlay step eliminates every non-straight vertex; those cut
        # off from s or t add no shortcut and no candidate
        off = sum_rule_off(g, d0.from_s, d0.to_t)
        assert [step.vertices for step in tr_s.steps] == [frozenset(off)] * bool(off)
        inner = [u for u in off if d0.from_s[u] is not None and d0.to_t[u] is not None]
        cut_off += len(off) > len(inner)
        if not inner:
            assert tr_s.candidates == []
            assert all(not step.shortcut_edges for step in tr_s.steps)
        cur = g
        for step in tr_s.steps:
            if isinstance(step, EliminationRecord):
                _check_overlay(g, cur, step, tr_s.candidates)
            cur = apply_step(cur, step)
            d = shortest_distances(cur)
            for v in cur.vertices:
                # straightness never changes, nor do the distances of the
                # vertices on an s-to-t walk
                assert _on_shortest_path(d, v, dst) == _on_shortest_path(d0, v, dst)
                if d0.from_s[v] is not None and d0.to_t[v] is not None:
                    assert (d.from_s[v], d.to_t[v]) == (d0.from_s[v], d0.to_t[v])
        assert cur == g_s

        g_l, tr_l = layerize(g_s)
        d1 = shortest_distances(g_s)
        back, fwd = layering_violations(g_s)
        # each back-edge violation listed once is fixed by exactly one step,
        # in order, and the layer-skipping forward edges stay
        assert [step.edge for step in tr_l.steps] == back
        cur, expected = g_s, []
        for i, step in enumerate(tr_l.steps):
            if isinstance(step, BackEdgeRemoval):
                head, tail = _tree_paths(cur, shortest_distances(cur), *step.edge)
                expected.append((head + tail, path_weight(g_s, head + tail)))
            cur = apply_step(cur, step)
            d = shortest_distances(cur)
            assert cur.vertices == g_s.vertices
            for v in g_s.vertices:
                assert (d.from_s[v], d.to_t[v]) == (d1.from_s[v], d1.to_t[v])
            assert layering_violations(cur) == (back[i + 1 :], fwd)
        assert cur == g_l
        assert tr_l.candidates == expected
        spanning += bool(fwd)

        for host, trace in ((g, tr_s), (g_s, tr_l)):
            for path, w in trace.candidates:
                check = validate_path(host, path)
                assert path[0] == g.s and path[-1] == g.t and check.simple
                assert w == check.weight == path_weight(host, path) > dst
        kinds |= {type(step) for step in tr_s.steps + tr_l.steps}
    assert solved >= 30 and cut_off >= 10
    assert kinds == {EliminationRecord, BackEdgeRemoval}
    assert spanning >= 5


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.booleans(), st.integers(0, 10**6))
def test_trace_replay_reproduces_reduced_graphs_on_drawn_inputs(skip_edges, seed):
    """Folding `apply_step` over each trace rebuilds the graph that
    `straighten`, bounded by the incumbent or not, or `layerize` returned,
    edge for edge."""
    g = skip_edge_graph(seed) if skip_edges else random_digraph(6 + seed % 8, 0.35, 4, seed)
    if shortest_distances(g).from_s[g.t] is None:
        return
    g_s, tr_s = straighten(g)
    g_l, tr_l = layerize(g_s)
    g_b, tr_b = straighten(g, incumbent(g))
    for host, trace, out in ((g, tr_s, g_s), (g_s, tr_l, g_l), (g, tr_b, g_b)):
        replayed = reduce(apply_step, trace.steps, host)
        assert (replayed.vertices, replayed.s, replayed.t) == (out.vertices, out.s, out.t)
        assert dict(replayed.edges) == dict(out.edges) and replayed == out


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.booleans(), st.integers(0, 10**6))
def test_reduced_graphs_hold_the_index_of_sorted_rows(skip_edges, seed):
    """`straighten` builds its output's index from the rows it kept and the
    shortcuts it made, and `layerize` edits `out` rows only: each returned
    graph that differs from its input derives no `into` before it is read,
    and its index, with that `into`, is the one a sort of each row gives."""
    g = skip_edge_graph(seed) if skip_edges else random_digraph(6 + seed % 8, 0.35, 4, seed)
    if shortest_distances(g).from_s[g.t] is None:
        return
    g_s, tr_s = straighten(g)
    fresh = [g_s] if tr_s.steps else []
    assert all("into" not in vars(h.index) for h in fresh)
    g_l, tr_l = layerize(g_s)
    if tr_l.steps:
        assert "into" not in vars(g_l.index)
        fresh.append(g_l)
    for out in fresh:
        reference = sorted_rows_index(out.vertices, out.edges)
        assert out.index == reference and out.index.into == reference.into


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.booleans(), st.integers(0, 10**6))
def test_reductions_hand_on_their_inputs_distances(skip_edges, seed):
    """The table each reduction stores on the graph it returns equals a
    fresh Dijkstra on that graph's vertices and edges, and its empty `off`
    the one of a copy rebuilt through the constructor; a reduction that
    changes nothing returns its input. Each graph holds its index and no
    edge map, and each, parsed ones too, takes its vertex set, a frozenset,
    from its index ids. The table, and layerize's layering, are held as
    the reduction returns its graph: handed on, or read on the input that
    it returns unchanged."""
    g = skip_edge_graph(seed) if skip_edges else random_digraph(6 + seed % 8, 0.35, 4, seed)
    if shortest_distances(g).from_s[g.t] is None:
        return
    g_s, tr_s = straighten(g)
    assert "distances" in vars(g_s)
    g_l, tr_l = layerize(g_s)
    assert {"distances", "layering"} <= set(vars(g_l))
    assert all("index" in vars(h) and "edges" not in vars(h) for h in (g, g_s, g_l))
    for h in (parse_graph(serialize_graph(g)), g, g_s, g_l):
        assert type(h.vertices) is frozenset and h.vertices == frozenset(h.index.ids)
    for host, trace, out in ((g, tr_s, g_s), (g_s, tr_l, g_l)):
        assert (out is host) == (not trace.steps)
        assert "distances" in out.__dict__
        assert (dict(out.distances.from_s), dict(out.distances.to_t)) == fresh_distances(out)
        assert out.distances.off == () == out.replace().distances.off
    # straighten drops vertices and restricts the table to the survivors;
    # layerize keeps every vertex, so it hands its input's table on as it is.
    assert (g_s.distances is g.distances) == (not tr_s.steps)
    assert g_l.distances is g_s.distances
    # layerize hands its input's layering on, too: the same as a fresh pass.
    assert "layering" in g_l.__dict__
    assert g_l.layering == g_l.replace().layering
    assert g_l.layering.against == ()


def test_each_reduction_computes_distances_once(monkeypatch):
    calls: Counter[str] = Counter()

    def counted(name):
        fn = getattr(reduction, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(reduction, name, wrapper)

    for name in ("shortest_distances", "apply_step", "lift_path"):
        counted(name)
    g = random_digraph(10, 0.3, 5, 20)
    g_s, tr_s = straighten(g)
    assert calls == {"shortest_distances": 1}
    d = shortest_distances(g)
    [step] = tr_s.steps
    assert step.vertices == frozenset(sum_rule_off(g, d.from_s, d.to_t))
    # the record holds vertices cut off from s or t as well as shortcuts
    assert None in {d.from_s[u] for u in step.vertices} | {d.to_t[u] for u in step.vertices}
    assert step.shortcut_edges
    _, tr_l = layerize(g_s)
    assert {type(step) for step in tr_l.steps} == {BackEdgeRemoval}
    assert calls == {"shortest_distances": 2}


# --- lifting through whole traces --------------------------------------------------


def test_lift_path_identity_when_untouched():
    g = build_graph(4, {(0, 1): 1, (1, 2): 1, (0, 2): 2, (2, 3): 1}, s=0, t=3)
    _, trace = layerize(g)
    assert lift_path(trace, (0, 1, 2, 3)) == (0, 1, 2, 3)


def test_lift_path_keeps_a_layer_skipping_edge():
    # layerize leaves the skip edge 0->2 whole and removes the back-edge
    # 1->3, so lifting changes no path of its output.
    g = build_graph(4, {(0, 1): 1, (1, 2): 1, (0, 2): 2, (2, 3): 1, (1, 3): 3}, s=0, t=3)
    g_l, trace = layerize(g)
    assert trace.steps == [BackEdgeRemoval((1, 3))]
    assert lift_path(trace, (0, 2, 3)) == (0, 2, 3)
    assert path_weight(g, (0, 2, 3)) == path_weight(g_l, (0, 2, 3))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: straighten(random_digraph(12, 0.3, 5, 20))[1], id="straighten"),
        pytest.param(lambda: layerize(skip_edge_graph(2))[1], id="layerize"),
        pytest.param(ReductionTrace, id="empty"),
    ],
)
def test_lift_path_rejects_an_empty_path(make):
    trace = make()
    with pytest.raises(InvalidPathError, match="^empty vertex sequence$"):
        lift_path(trace, ())


def test_straighten_rejects_a_graph_without_an_s_t_path():
    with pytest.raises(ValueError, match="^no s-to-t path exists$"):
        straighten(build_graph(3, {(0, 1): 1}, s=0, t=2))


def test_layerize_output_with_gaps_in_its_ids_does_not_serialize():
    # straighten drops the isolated vertex 2, and layerize adds no vertex,
    # so the ids are 0, 1, 3, 4.
    g = build_graph(5, {(0, 1): 1, (1, 3): 1, (3, 4): 1, (0, 3): 2}, s=0, t=4)
    g_l, _ = layerize(straighten(g)[0])
    assert sorted(g_l.vertices) == [0, 1, 3, 4]
    with pytest.raises(ValueError, match="^only graphs with contiguous vertex ids serialize$"):
        serialize_graph(g_l)


@pytest.mark.parametrize("seed", connected_seeds(10, 7, 0.5, 3))
def test_lift_round_trips_validate_with_bounded_weight(seed):
    g = random_digraph(7, 0.5, 3, seed)
    g_s, tr_s = straighten(g)
    g_l, tr_l = layerize(g_s)
    count = 0
    for path, w in simple_paths(g_l, g_l.s, g_l.t, budget=5000):
        lifted = lift_path(tr_s, lift_path(tr_l, path))
        check = validate_path(g, lifted)
        assert check.simple and check.weight <= w
        count += 1
        if count >= 10:
            break


# --- end-to-end weight agreement (small scale; acceptance runs the big one) ----


def test_reduction_pipeline_matches_oracle_weights():
    agreements = 0
    for seed in range(60):
        g = random_digraph(7, 0.4, 3, seed)
        want = exhaustive_next_to_shortest(g)
        got = solve(g)
        assert want.found == got.found, seed
        if want.found:
            assert want.weight == got.weight, seed
            agreements += 1
    assert agreements > 10  # family is not degenerate
