"""reduction: straightening, layerization, traces and lifting."""
from __future__ import annotations

from collections import Counter
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_graph, floyd_warshall, skip_edge_graph, violation_count
from nextpath import (
    BackEdgeRemoval,
    EliminationRecord,
    SubdivisionRecord,
    TraceError,
    WeightedDigraph,
    apply_step,
    exhaustive_next_to_shortest,
    is_layered,
    is_straight,
    layered_digraph,
    layerize,
    lift_path,
    path_weight,
    random_digraph,
    shortest_distances,
    solve,
    straighten,
    validate_path,
)
from nextpath import reduction
from nextpath.graph import layering_violations, straightness_violations
from nextpath.oracle import simple_paths


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


@pytest.mark.parametrize("seed", range(8))
def test_eliminate_preserves_surviving_distances(seed):
    g = random_digraph(7, 0.45, 4, seed)
    if shortest_distances(g).from_s[g.t] is None:
        pytest.skip("no s-t path")
    g2, _ = straighten(g)
    before, after = floyd_warshall(g), floyd_warshall(g2)
    for x in g2.vertices:
        for y in g2.vertices:
            assert before[(x, y)] == after[(x, y)], (seed, x, y)


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
    """Every simple s-t path of layerize's output lifts to a simple s-t
    path of its input of the same weight, with every chain contracted."""
    g = skip_edge_graph(seed)
    g_l, trace = layerize(g)
    for path, w in islice(simple_paths(g_l, g_l.s, g_l.t, budget=None), 60):
        lifted = lift_path(trace, path)
        assert set(lifted) <= g.vertices
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


def test_layerize_subdivides_layer_skipping_edge():
    g = build_graph(4, {(0, 1): 1, (1, 2): 1, (0, 2): 2, (2, 3): 1}, s=0, t=3)
    d = shortest_distances(g)
    assert violation_count(g, d) == 1
    g2, trace = layerize(g)
    assert trace.steps == [SubdivisionRecord(edge=(0, 2), chain=(4,), q_values=(0, 1, 2))]
    assert g2.edges == {(0, 1): 1, (1, 2): 1, (0, 4): 1, (4, 2): 1, (2, 3): 1}
    assert is_layered(g2, shortest_distances(g2))


def test_layerize_identity_on_layered_input():
    g = build_graph(3, {(0, 1): 1, (1, 2): 1}, s=0, t=2)
    d = shortest_distances(g)
    assert violation_count(g, d) == 0
    g2, trace = layerize(g)
    assert g2 == g and trace.steps == []


def test_layerize_requires_straight():
    g = build_graph(3, {(0, 1): 1, (1, 2): 1, (0, 2): 1}, s=0, t=2)
    with pytest.raises(ValueError, match="straight"):
        layerize(g)


@pytest.mark.parametrize("seed", range(12))
def test_layerize_invariants_per_iteration(seed):
    """Replaying the trace: the violation count drops by exactly one per step
    while distances from s and the distinct-distance count are preserved."""
    g = random_digraph(8, 0.5, 5, seed)
    if shortest_distances(g).from_s[g.t] is None:
        pytest.skip("no s-t path")
    g_s, _ = straighten(g)
    g_l, trace = layerize(g_s)
    cur = g_s
    d = shortest_distances(cur)
    phi = violation_count(cur, d)
    assert len(trace.steps) == phi
    assert is_layered(cur, d) == (phi == 0)
    for step in trace.steps:
        nxt = apply_step(cur, step)
        d_cur, d_nxt = shortest_distances(cur), shortest_distances(nxt)
        assert violation_count(nxt, d_nxt) == phi - 1
        assert is_layered(nxt, d_nxt) == (phi - 1 == 0)
        for z in cur.vertices & nxt.vertices:
            assert d_cur.from_s[z] == d_nxt.from_s[z]
        assert len({d_cur.from_s[z] for z in cur.vertices}) == len(
            {d_nxt.from_s[z] for z in nxt.vertices}
        )
        cur, phi = nxt, phi - 1
    assert cur == g_l
    assert phi == 0 and is_layered(g_l, shortest_distances(g_l))


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
        return next(z for z, w in adj[v] if dist[z] is not None and dist[z] + w == dist[v])

    head, tail = [x], [y]
    while head[-1] != g.s:
        head.append(tight(g.adj_in, d.from_s, head[-1]))
    while tail[-1] != g.t:
        tail.append(tight(g.adj_out, d.to_t, tail[-1]))
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
    solved = cut_off = 0
    for g in REPLAY_GRAPHS:
        d0 = shortest_distances(g)
        dst = d0.from_s[g.t]
        if dst is None:
            continue
        solved += 1
        g_s, tr_s = straighten(g)
        # one overlay step eliminates every non-straight vertex; those cut
        # off from s or t add no shortcut and no candidate
        off = straightness_violations(g, d0)
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
        back, fwd = layering_violations(g_s, d1)
        # each violation listed once is fixed by exactly one step, in order
        assert [step.edge for step in tr_l.steps] == back + fwd
        cur, expected = g_s, []
        for i, step in enumerate(tr_l.steps):
            if isinstance(step, BackEdgeRemoval):
                head, tail = _tree_paths(cur, shortest_distances(cur), *step.edge)
                expected.append((head + tail, path_weight(g_s, head + tail)))
            cur = apply_step(cur, step)
            d = shortest_distances(cur)
            for v in g_s.vertices:
                assert (d.from_s[v], d.to_t[v]) == (d1.from_s[v], d1.to_t[v])
            if isinstance(step, SubdivisionRecord):
                assert [d.from_s[c] for c in step.chain] == list(step.q_values[1:-1])
            assert {d.from_s[v] for v in cur.vertices} == set(d1.from_s.values())
            b, f = layering_violations(cur, d)
            assert b + f == (back + fwd)[i + 1 :]
        assert cur == g_l
        assert tr_l.candidates == expected

        for host, trace in ((g, tr_s), (g_s, tr_l)):
            for path, w in trace.candidates:
                check = validate_path(host, path)
                assert path[0] == g.s and path[-1] == g.t and check.simple
                assert w == check.weight == path_weight(host, path) > dst
        kinds |= {type(step) for step in tr_s.steps + tr_l.steps}
    assert solved >= 30 and cut_off >= 10
    assert kinds == {EliminationRecord, BackEdgeRemoval, SubdivisionRecord}


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
    assert step.vertices == frozenset(straightness_violations(g, d))
    # the record holds vertices cut off from s or t as well as shortcuts
    assert None in {d.from_s[u] for u in step.vertices} | {d.to_t[u] for u in step.vertices}
    assert step.shortcut_edges
    _, tr_l = layerize(g_s)
    assert {type(step) for step in tr_l.steps} == {BackEdgeRemoval, SubdivisionRecord}
    assert calls == {"shortest_distances": 2}


# --- lifting through whole traces --------------------------------------------------


def test_lift_path_identity_when_untouched():
    g = build_graph(4, {(0, 1): 1, (1, 2): 1, (0, 2): 2, (2, 3): 1}, s=0, t=3)
    _, trace = layerize(g)
    assert lift_path(trace, (0, 1, 2, 3)) == (0, 1, 2, 3)


def test_lift_path_contracts_subdivision_chain():
    g = build_graph(4, {(0, 1): 1, (1, 2): 1, (0, 2): 2, (2, 3): 1}, s=0, t=3)
    g_l, trace = layerize(g)
    lifted = lift_path(trace, (0, 4, 2, 3))
    assert lifted == (0, 2, 3)
    assert path_weight(g, lifted) == path_weight(g_l, (0, 4, 2, 3))


def test_lift_path_rejects_partial_chain_use():
    g = build_graph(4, {(0, 1): 1, (1, 2): 1, (0, 2): 2, (2, 3): 1}, s=0, t=3)
    _, trace = layerize(g)
    with pytest.raises(TraceError):
        lift_path(trace, (4, 2, 3))  # enters the chain without its tail vertex


@pytest.mark.parametrize("seed", range(10))
def test_lift_round_trips_validate_with_bounded_weight(seed):
    g = random_digraph(7, 0.5, 3, seed)
    if shortest_distances(g).from_s[g.t] is None:
        pytest.skip("no s-t path")
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
