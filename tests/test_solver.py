"""layered-solver: back-edge split of answers, residual paths, full enumeration."""
from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nextpath.solver
from conftest import PARALLEL_CHAINS, back_edge_split, bead_graph, build_graph
from nextpath import (
    ForwardDag,
    exhaustive_next_to_shortest,
    layer_assignment,
    layered_digraph,
    path_weight,
    shortest_distances,
    shortest_path_avoiding,
    solve_layered,
    validate_path,
)
from nextpath.graph import dijkstra, edge_slack
from nextpath.oracle import simple_paths
from nextpath.solver import _LayeredSearch


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


def test_solver_builds_no_forward_dag_without_a_waypoint_tuple(monkeypatch):
    # Bead layers hold no waypoint pair and a graph without back-edges has
    # no middle segment, so no tuple is reached and no DAG is needed.
    built = []
    init = ForwardDag.__init__

    def counting(dag, *args):
        built.append(dag)
        init(dag, *args)

    monkeypatch.setattr(ForwardDag, "__init__", counting)
    for seed in range(10):
        assert not solve_layered(bead_graph(4, 3, 10, seed)).found
        assert not solve_layered(layered_digraph(5, 3, 0, seed)).found
    assert built == []


@pytest.mark.parametrize("seed", range(8))
def test_search_setup_matches_edge_slack(seed):
    g = layered_digraph(5 + seed % 3, 2 + seed % 3, 3 + seed, seed)
    d = shortest_distances(g)
    lam = layer_assignment(g, d)
    slack = {(u, v): edge_slack(d, u, v, w) for (u, v), w in g.edges.items()}
    back = [e for e, x in slack.items() if x > 0]
    forward = sorted(e for e, x in slack.items() if x == 0)
    assert back and len(back) + len(forward) == g.edge_count
    by_layer = {}
    for u, v in forward:
        by_layer.setdefault(lam[u], []).append((u, v))
    search = _LayeredSearch(g)
    assert search.back_vertices == {u for e in back for u in e}
    assert search.floor == d.from_s[g.t] + min(slack[e] for e in back)
    assert search.forward_by_tail_layer == {
        layer: edges
        for layer, edges in by_layer.items()
        if len({u for u, _ in edges}) > 1 and len({v for _, v in edges}) > 1
    }
    assert search.dag.adj == {u: tuple(v for x, v in forward if x == u) for u in g.vertices}


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
    for seed in range(10):
        assert not solve_layered(bead_graph(4, 3, 10, seed)).found
    assert calls == []


def test_bound_tables_stop_at_the_incumbent_radius(monkeypatch):
    # A full single-source table per back vertex settles 16,740 vertices
    # over these five solves.
    settled = []

    def counting(*args, **kwargs):
        dist, parent = dijkstra(*args, **kwargs)
        settled.append(len(dist))
        return dist, parent

    monkeypatch.setattr(nextpath.solver, "dijkstra", counting)
    for seed in range(5):
        assert solve_layered(layered_digraph(24, 12, 150, seed)).found
    assert len(settled) == 63 and sum(settled) <= 16_740 // 3


def test_solver_rejects_non_layered_input():
    g = build_graph(3, {(0, 1): 1, (1, 2): 1, (0, 2): 1}, s=0, t=2)
    with pytest.raises(ValueError, match="layered"):
        solve_layered(g)


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
