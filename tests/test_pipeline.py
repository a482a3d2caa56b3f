"""End-to-end pipeline behavior beyond what the CLI tests cover."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PARALLEL_CHAINS, TRIANGLE, build_graph, edge_bound
from nextpath import (
    exhaustive_next_to_shortest,
    layered_digraph,
    parse_graph,
    random_digraph,
    shortest_distances,
    solve,
    solve_detailed,
    validate_path,
)
from nextpath.graph import dijkstra


def test_triangle_answer():
    assert solve(parse_graph(TRIANGLE)).path == (0, 1, 2)


def test_no_path_resolves_to_none_immediately():
    g = build_graph(3, {(1, 0): 1, (2, 1): 1}, s=0, t=2)
    result = solve_detailed(g)
    assert not result.outcome.found
    assert result.layered_graph is None


def test_layered_answer_survives_lifting():
    g = build_graph(6, PARALLEL_CHAINS, s=0, t=5)
    result = solve_detailed(g)
    assert result.outcome.path == (0, 3, 4, 1, 2, 5)
    assert result.layered_outcome.found


@pytest.mark.parametrize("seed", range(3))
def test_layered_input_shares_one_distance_table(monkeypatch, seed):
    """Both reductions return a layered input unchanged, so the pipeline,
    both reductions and the layered search read one table: two Dijkstras,
    from s and to t."""
    calls = []

    def counting(adj, source, **kwargs):
        calls.append(source)
        return dijkstra(adj, source, **kwargs)

    monkeypatch.setattr("nextpath.graph.dijkstra", counting)
    g = layered_digraph(6, 3, 0, seed)
    assert not solve(g).found
    assert sorted(calls) == sorted([g.s, g.t])


def test_outcome_always_validates():
    for seed in range(40):
        g = random_digraph(8, 0.45, 4, seed)
        out = solve(g)
        if not out.found:
            continue
        d = shortest_distances(g)
        check = validate_path(g, out.path)
        assert check.simple
        assert check.weight == out.weight > d.from_s[g.t]
        assert check.uses_back_edge


def test_deterministic_across_runs():
    for seed in (2, 8, 21):
        g = random_digraph(9, 0.5, 5, seed)
        assert solve(g) == solve(g)


def test_matches_oracle_including_none_cases():
    for seed in range(50):
        g = random_digraph(6, 0.35, 2, seed)
        want = exhaustive_next_to_shortest(g)
        got = solve(g)
        assert want.found == got.found
        if want.found:
            assert want.weight == got.weight


@st.composite
def small_instances(draw):
    """A digraph on 2..7 vertices with weights 1..3 (many ties), s = 0 and
    t = n - 1. Up to three edges get a reverse twin, forming 2-cycles; the
    sparse draws leave parts cut off from s or from t."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.dictionaries(st.sampled_from(pairs), st.integers(1, 3), max_size=14))
    if edges:
        for u, v in draw(st.lists(st.sampled_from(sorted(edges)), max_size=3)):
            edges.setdefault((v, u), draw(st.integers(1, 3)))
    return build_graph(n, edges)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_instances())
def test_solve_matches_oracle_on_small_graphs(g):
    got, want = solve(g), exhaustive_next_to_shortest(g)
    assert (got.found, got.weight) == (want.found, want.weight)
    if got.found:
        check = validate_path(g, got.path)
        assert (got.path[0], got.path[-1]) == (g.s, g.t)
        assert check.simple and check.weight == got.weight
        assert got.weight > shortest_distances(g).from_s[g.t]


@st.composite
def dags(draw):
    """An acyclic digraph on 2..60 vertices with s = 0 and t = n - 1: every
    edge (u, v) has u < v <= u + 5, so most draws connect s to t, and
    weights 1..4 tie often."""
    n = draw(st.integers(2, 60))
    edge = st.tuples(st.integers(0, n - 2), st.integers(1, 5), st.integers(1, 4))
    drawn = draw(st.lists(edge, min_size=2 * n, max_size=3 * n))
    return build_graph(n, {(u, min(u + k, n - 1)): w for u, k, w in drawn})


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(dags())
def test_solve_on_a_dag_is_the_edge_bound(g):
    """Every walk of a DAG is simple, so the lightest not-shortest path is
    the lightest edge detour."""
    got, bound = solve(g), edge_bound(g)
    assert got.weight == bound
    assert got.found == (bound is not None)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_instances())
def test_edge_bound_is_a_lower_bound(g):
    got, bound = solve(g), edge_bound(g)
    if bound is None:
        assert not got.found
    elif got.found:
        assert got.weight >= bound
