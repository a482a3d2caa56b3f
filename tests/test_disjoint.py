"""dag-2vdp: pair DP for two vertex-disjoint paths, and the solver's
waypoint split built on it.

`test_exact_paths_match_recorded_digest` pins the DP's answer paths, not
only their feasibility. When a change to the paths is intended, say why in
the change and print the new digest from the repository root with

    PYTHONPATH=src python tests/test_disjoint.py

With `--walks FILE...` the script solves each graph file instead and
replays every walk that the layered search makes through
`two_disjoint_paths`, and every pair search it makes with one token parked
through the BFS reference in conftest.py (see `replayed_parked_queries`);
it prints how many it replayed, or exits with the first mismatch.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import itertools
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import PARALLEL_CHAINS, bfs_path_around, build_graph, relabelled, with_span_edges
from nextpath import (
    CyclicGraphError,
    DisjointPathPair,
    ForwardDag,
    SharedTerminalError,
    layered_digraph,
    parse_graph,
    shortest_distances,
    shortest_path_avoiding,
    solve,
    topological_order,
    two_disjoint_paths,
)
from nextpath import solver
from nextpath.disjoint import layer_walk
from nextpath.graph import edge_slack
from nextpath.oracle import exhaustive_two_disjoint_paths
from nextpath.solver import _LayeredSearch, _layering


def dag_of(edges, n):
    """The DAG on 0..n-1 with `edges`, in Kahn's order."""
    adj = {u: sorted(v for x, v in edges if x == u) for u in range(n)}
    return ForwardDag(topological_order(range(n), adj), adj)


def forward_dag(g):
    return _LayeredSearch(g, _layering(g)).dag


def assert_valid_pair(dag, pair, q1, q2):
    assert not set(pair.p1) & set(pair.p2)
    assert (pair.p1[0], pair.p1[-1]) == q1 and (pair.p2[0], pair.p2[-1]) == q2
    for path in (pair.p1, pair.p2):
        for u, v in zip(path, path[1:]):
            assert v in dag.adj[u]


def test_disjoint_singletons():
    dag = dag_of([(0, 1), (2, 3)], 4)
    pair = two_disjoint_paths(dag, (0, 1), (2, 3))
    assert pair.p1 == (0, 1) and pair.p2 == (2, 3)


def test_shared_terminal_is_a_contract_error():
    dag = dag_of([(0, 1), (0, 2), (1, 3), (2, 3)], 4)  # diamond
    with pytest.raises(SharedTerminalError):
        two_disjoint_paths(dag, (0, 3), (0, 3))


def test_degenerate_single_vertex_pair():
    dag = dag_of([(0, 1), (1, 2)], 3)
    pair = two_disjoint_paths(dag, (0, 0), (1, 2))
    assert pair.p1 == (0,) and pair.p2 == (1, 2)
    # the empty path still blocks its vertex
    assert two_disjoint_paths(dag, (1, 1), (0, 2)) is None


def test_cut_vertex_makes_pairs_infeasible():
    # X gadget: both routes must pass vertex 2
    dag = dag_of([(0, 2), (1, 2), (2, 3), (2, 4)], 5)
    assert two_disjoint_paths(dag, (0, 3), (1, 4)) is None


def test_cyclic_input_rejected():
    g = build_graph(3, {(0, 1): 1, (1, 0): 1, (0, 2): 1}, s=0, t=2)
    with pytest.raises(CyclicGraphError, match="^graph contains a directed cycle$"):
        ForwardDag.from_graph(g)
    with pytest.raises(CyclicGraphError, match="^graph contains a directed cycle$"):
        topological_order([0, 1], {0: [1], 1: [0]})


def test_supplied_order_is_certified():
    adj = {0: [1, 2], 1: [3], 2: [3], 3: []}
    assert ForwardDag([0, 2, 1, 3], adj).rank == {0: 0, 2: 1, 1: 2, 3: 3}
    assert topological_order(adj, adj) == [0, 1, 2, 3]
    with pytest.raises(CyclicGraphError):
        ForwardDag([0, 3, 1, 2], adj).reaches(0, 1)
    with pytest.raises(CyclicGraphError):
        ForwardDag([0, 1], {0: [1], 1: [0]}).reaches(0, 1)


def test_a_deferred_dag_certifies_its_order_on_the_first_reach():
    """A `ForwardDag` keeps its adjacency as given and builds no closure,
    which a query with both tokens parked never reads; the first `reaches`
    builds the closure and certifies the order."""
    adj = {0: [1, 2], 1: [3], 2: [3], 3: []}
    dag = ForwardDag([0, 2, 1, 3], adj)
    pair = two_disjoint_paths(dag, (0, 0), (2, 2))
    assert (pair.p1, pair.p2) == ((0,), (2,))
    assert "_descendants" not in vars(dag)
    assert dag.adj is adj and dag.vertices == frozenset(adj)
    assert dag.reaches(0, 3) and not dag.reaches(2, 1)
    for order, adj, error, message in (
        ([0, 3, 1, 2], adj, CyclicGraphError, "edge (2, 3) goes against the order"),
        ([0, 1], {0: [1, 2], 1: []}, ValueError, "edge (0, 2) leaves the vertex set"),
        ([0, 1], {0: [1]}, ValueError, "vertex 1 has no adjacency list"),
    ):
        dag = ForwardDag(order, adj)
        with pytest.raises(error) as info:
            dag.reaches(0, 1)
        assert info.type is error and str(info.value) == message


def test_a_parked_query_certifies_the_order():
    """A query that parks one token reads the closure, so a DAG whose
    order an edge goes against is a cycle error there too, as on a query
    where both tokens move."""
    adj = {0: [1, 2], 1: [3], 2: [3], 3: []}
    for query in (((0, 0), (2, 3)), ((2, 3), (0, 0)), ((0, 1), (2, 3))):
        with pytest.raises(CyclicGraphError) as info:
            two_disjoint_paths(ForwardDag([0, 3, 1, 2], adj), *query)
        assert str(info.value) == "edge (2, 3) goes against the order"


@pytest.mark.parametrize(
    "order, adj",
    [
        ([1, 0, 1], {0: [], 1: [0]}),
        (
            [0, 1, 2, 3, 4, 5, 6, 0],
            {0: [1, 3, 4, 6], 1: [3, 5, 6], 2: [5, 6], 3: [4, 6], 4: [], 5: [], 6: []},
        ),
    ],
    ids=["two-vertices", "seven-vertices"],
)
def test_an_order_that_repeats_a_vertex_is_rejected(order, adj):
    """Ranked by its last place, a repeated vertex would break the pair
    search's schedule: on the second DAG, (0, 3) and (1, 4) would get the
    overlapping paths (0, 3) and (1, 3, 4)."""
    with pytest.raises(ValueError, match="^the order lists a vertex twice$"):
        ForwardDag(order, adj)


@pytest.mark.parametrize(
    "adj",
    [{0: [0, 1], 1: []}, {0: [1], 1: [1]}, {0: [], 1: [2], 2: [0]}],
    ids=["self-loop-first", "self-loop-last", "edge-to-earlier"],
)
def test_supplied_order_rejects_self_loops_and_edges_back(adj):
    with pytest.raises(CyclicGraphError, match="goes against the order"):
        ForwardDag(sorted(adj), adj).reaches(0, 1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: topological_order([0, 1], {0: [1, 2]}), "edge (0, 2) leaves the vertex set"),
        (
            lambda: ForwardDag([0, 1], {0: [1, 2], 1: []}).reaches(0, 1),
            "edge (0, 2) leaves the vertex set",
        ),
        (lambda: ForwardDag([0, 1], {0: [1]}).reaches(0, 1), "vertex 1 has no adjacency list"),
        (
            lambda: two_disjoint_paths(ForwardDag([0, 1, 2, 3], {0: [1]}), (0, 2), (3, 3)),
            "vertex 3 has no adjacency list",
        ),
        (
            lambda: two_disjoint_paths(
                ForwardDag([0, 1, 2, 3], {0: [5], 1: [], 2: [], 3: []}), (3, 3), (0, 2)
            ),
            "edge (0, 5) leaves the vertex set",
        ),
    ],
    ids=["kahn-head", "order-head", "order-list", "parked-list", "parked-head"],
)
def test_vertices_outside_the_dag_are_value_errors(build, message):
    """Neither a bare KeyError nor a cycle: the input names a vertex that
    the DAG does not hold, or holds no list for."""
    with pytest.raises(ValueError) as info:
        build()
    assert info.type is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda: dag_of([(0, 1)], 2),
        lambda: ForwardDag([0, 1], {0: [1], 1: []}),
    ],
    ids=["kahn", "order"],
)
@pytest.mark.parametrize("query, missing", [((0, 5), 5), ((7, 1), 7), ((7, 5), 7)])
def test_reaches_names_a_vertex_outside_the_dag(build, query, missing):
    """A ValueError that names the vertex, not a bare KeyError."""
    dag = build()
    with pytest.raises(ValueError) as info:
        dag.reaches(*query)
    assert info.type is ValueError
    assert str(info.value) == f"vertex {missing} not in the DAG"


@pytest.mark.parametrize("a, b, missing", [(0, 9, 9), (9, 5, 9), (7, 9, 7), (-1, 5, -1)])
def test_shortest_path_avoiding_names_a_vertex_outside_the_graph(a, b, missing):
    """A ValueError that names the vertex, not a bare KeyError."""
    g = build_graph(6, PARALLEL_CHAINS, s=0, t=5)
    with pytest.raises(ValueError) as info:
        shortest_path_avoiding(g, set(), a, b)
    assert info.type is ValueError
    assert str(info.value) == f"vertex {missing} not in the graph"


def test_deterministic_output():
    dag = dag_of([(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)], 6)
    first = two_disjoint_paths(dag, (0, 5), (1, 4))
    second = two_disjoint_paths(dag, (0, 5), (1, 4))
    assert first == second


@pytest.mark.parametrize(
    "query, missing",
    [(((0, 9), (1, 2)), 9), (((0, 2), (9, 9)), 9), (((0, 3), (7, 8)), 7)],
)
@pytest.mark.parametrize("find", [two_disjoint_paths, exhaustive_two_disjoint_paths])
def test_terminals_outside_the_dag_are_rejected(find, query, missing):
    dag = dag_of([(0, 1), (1, 2), (2, 3)], 4)
    with pytest.raises(ValueError, match=f"^terminal {missing} not in graph$"):
        find(dag, *query)


@st.composite
def dags(draw):
    """A DAG on 2..9 vertices whose ids are not in topological order."""
    n = draw(st.integers(2, 9))
    order = draw(st.permutations(range(n)))
    forward = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    return dag_of(draw(st.lists(st.sampled_from(forward), unique=True)), n)


@settings(derandomize=True, database=None, deadline=None)
@given(st.data())
def test_reaches_is_bfs_reachability_under_either_order(data):
    """Under Kahn's order and under the drawn order; the closure is built on
    the first `reaches`."""
    n = data.draw(st.integers(1, 12))
    order = data.draw(st.permutations(range(n)))
    forward = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(forward), unique=True)) if forward else []
    adj = {u: sorted(v for x, v in edges if x == u) for u in range(n)}
    for dag in (ForwardDag(topological_order(range(n), adj), adj), ForwardDag(order, adj)):
        assert "_descendants" not in vars(dag)
        for u in range(n):
            seen, stack = {u}, [u]
            while stack:
                for v in adj[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            assert [dag.reaches(u, v) for v in range(n)] == [v in seen for v in range(n)]


@settings(derandomize=True, database=None, deadline=None)
@given(dags())
def test_disjoint_pairs_agree_with_exhaustive_search(dag):
    """Every pair of terminal pairs that share no terminal, degenerate pairs
    (s == t) included."""
    verts = sorted(dag.vertices)
    for s1, t1, s2, t2 in itertools.product(verts, repeat=4):
        if {s1, t1} & {s2, t2}:
            continue
        q = ((s1, t1), (s2, t2))
        got = two_disjoint_paths(dag, *q)
        want = exhaustive_two_disjoint_paths(dag, *q)
        assert (got is None) == (want is None), q
        if got is not None:
            assert_valid_pair(dag, got, *q)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(8, 40), st.floats(1, 4), st.integers(0, 2**16))
def test_a_parked_token_gets_the_bfs_path_around_it(n, degree, seed):
    """Beyond the digest's 7 vertices: on a DAG whose ids are not in
    topological order, with `degree` out-edges per vertex on average, and
    60 random queries, each with exactly one token parked, in either place,
    `two_disjoint_paths` returns the reference BFS path of the other token
    around the parked vertex, or None with it."""
    rng = random.Random(seed)
    order = rng.sample(range(n), n)
    p = 2 * degree / n
    dag = dag_of(
        [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p], n
    )
    found = 0
    for _ in range(60):
        a, b, avoid = rng.sample(range(n), 3)
        path = bfs_path_around(dag.adj, a, b, avoid)
        assert_pair_search_agrees(dag, a, b, avoid, path)
        found += path is not None and len(path) > 2
    assume(found)


@pytest.mark.parametrize("trial", range(40))
def test_agrees_with_exhaustive_search(trial):
    rng = random.Random(trial)
    n = rng.randint(4, 9)
    adj = {
        u: [v for v in range(u + 1, n) if rng.random() < 0.4] for u in range(n)
    }
    dag = ForwardDag(topological_order(range(n), adj), adj)
    verts = range(n)
    for s1 in verts:
        for t1 in verts:
            q = ((s1, t1), ((s1 + 1) % n, (t1 + 2) % n))
            if {q[0][0], q[0][1]} & {q[1][0], q[1][1]}:
                continue
            got = two_disjoint_paths(dag, *q)
            want = exhaustive_two_disjoint_paths(dag, *q)
            assert (got is None) == (want is None), (trial, q)
            if got is not None:
                assert_valid_pair(dag, got, q[0], q[1])


PAIR_DIGEST = "96514e0a8c651054298bce6cf9ba3d725c0b5a988da59f36fd357d9bac5d13d2"


def pair_digest():
    """sha256 of every two_disjoint_paths answer, over 120 seeded DAGs on 2..7
    vertices (ids not in topological order) and every pairing of terminals
    that shares no terminal: 45,920 queries."""
    h = hashlib.sha256()
    for seed in range(120):
        rng = random.Random(seed)
        n = 2 + seed % 6
        order = rng.sample(range(n), n)
        p = rng.uniform(0.2, 0.8)
        dag = dag_of(
            [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p],
            n,
        )
        for s1, t1, s2, t2 in itertools.product(range(n), repeat=4):
            if {s1, t1} & {s2, t2}:
                continue
            pair = two_disjoint_paths(dag, (s1, t1), (s2, t2))
            h.update(repr((s1, t1, s2, t2, pair and (pair.p1, pair.p2))).encode())
    return h.hexdigest()


def test_exact_paths_match_recorded_digest():
    assert pair_digest() == PAIR_DIGEST


# --- walks on a layering without spans -----------------------------------------


def layer_dag(layering):
    """The forward DAG of `layering`, in the layer order the search uses."""
    return ForwardDag([u for layer in layering.layers for u in layer], layering.forward)


def assert_pair_search_agrees(dag, a, b, avoid, path):
    """`two_disjoint_paths` on the query a -> b with `avoid` parked, in
    either place, returns the pair that holds `path`, or None with it."""
    for query, want in (
        (((a, b), (avoid, avoid)), path and DisjointPathPair(path, (avoid,))),
        (((avoid, avoid), (a, b)), path and DisjointPathPair((avoid,), path)),
    ):
        got = two_disjoint_paths(dag, *query)
        assert got == want, f"{query}: want {want}, the pair search gives {got}"


def assert_walk_is_the_bfs_path(layering, a, b, avoid):
    """`layer_walk` returns the reference BFS path, and the pair search
    agrees. Returns the path."""
    path = layer_walk(layering.forward, layering.lam, a, b, avoid)
    assert path == bfs_path_around(layering.forward, a, b, avoid), (a, b, avoid)
    assert_pair_search_agrees(layer_dag(layering), a, b, avoid, path)
    return path


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    st.integers(3, 10),
    st.integers(1, 5),
    st.booleans(),
    st.integers(0, 2**16),
    st.data(),
)
def test_layer_walk_finds_the_bfs_path(layers, width, relabel, seed, data):
    """On `layered_digraph` instances, whose forward edges all climb one
    layer, relabelled or not, so that slot order and layer order differ:
    random (a, b, avoid) triples, most with a below b."""
    g = layered_digraph(layers, width, 2, seed)
    if relabel:
        g = relabelled(g, seed)
    layering = _layering(g)
    assert not layering.spans
    lam, found = layering.lam, 0
    for _ in range(20):
        a, b, avoid = data.draw(
            st.lists(st.integers(0, len(lam) - 1), min_size=3, max_size=3, unique=True)
        )
        if lam[a] > lam[b]:
            a, b = b, a
        found += assert_walk_is_the_bfs_path(layering, a, b, avoid) is not None
    assume(found)


# Unit edges over the layers {0}, {1, 2}, {3, 4}, {5, 6}, {7}.
DEAD_END = [
    (u, v, 1) for u, v in [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 7)]
]


def test_layer_walk_backs_out_of_a_dead_end():
    """Around 5 the smallest head 1 leads to 3, whose one head is 5: the
    walk backs out of 3 and 1, and from 2 skips 3, which it has backed out
    of, for 4."""
    layering = _layering(build_graph(8, DEAD_END, s=0, t=7))
    read = []

    class Recording(tuple):
        def __getitem__(self, u):
            read.append(u)
            return tuple.__getitem__(self, u)

    path = layer_walk(Recording(layering.forward), layering.lam, 0, 7, 5)
    assert path == (0, 2, 4, 6, 7)
    assert read == [0, 1, 3, 2, 4, 6]
    assert assert_walk_is_the_bfs_path(layering, 0, 7, 5) == path
    # No vertex in b's layer but b: 3 shares b = 4's layer, so 1 is a dead
    # end, and without 2 there is no path.
    assert assert_walk_is_the_bfs_path(layering, 0, 4, 5) == (0, 2, 4)
    assert assert_walk_is_the_bfs_path(layering, 0, 4, 2) is None


def test_a_parked_query_walks_without_a_forward_dag():
    """The search's parked queries on a layering without spans are walks:
    the same pairs as `two_disjoint_paths`, and no DAG built."""
    g = build_graph(8, DEAD_END + [(6, 1, 2)], s=0, t=7)
    search = _LayeredSearch(g, _layering(g))
    dag = layer_dag(_layering(g))
    for query in (((0, 7), (5, 5)), ((3, 3), (0, 7)), ((1, 1), (2, 6)), ((0, 6), (4, 4))):
        assert search.disjoint_pair(*query) == two_disjoint_paths(dag, *query), query
    assert "dag" not in vars(search)


def test_a_span_keeps_the_parked_query_on_the_bfs():
    """Layers {0}, {1, 2}, {3, 4}, {5}, and the span 2 -> 5 over layer 2.
    The lexicographically smallest path 0 -> 5 is (0, 1, 3, 5), which a
    walk finds, but the BFS returns the fewest-hop (0, 2, 5), and so must
    the search."""
    edges = [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 4, 1), (3, 5, 1), (4, 5, 1), (2, 5, 2)]
    g = build_graph(6, edges, s=0, t=5)
    layering = _layering(g)
    assert layering.spans == ((2, 5),)
    assert layer_walk(layering.forward, layering.lam, 0, 5, 4) == (0, 1, 3, 5)
    assert bfs_path_around(layering.forward, 0, 5, 4) == (0, 2, 5)
    search = _LayeredSearch(g, layering)
    assert search.disjoint_pair((0, 5), (4, 4)) == DisjointPathPair((0, 2, 5), (4,))
    assert "dag" in vars(search)


@contextlib.contextmanager
def replayed_parked_queries():
    """Wraps `layer_walk` and `two_disjoint_paths` under the names the
    solver calls them by, so that each parked query is checked as it is
    made. For a walk, `two_disjoint_paths`, with the avoided vertex parked
    in either place, must return the pair that holds the walk's path; for a
    pair search with exactly one token parked, the moving token's path must
    be `bfs_path_around`'s, in either place too. Yields the lists of the
    walks' paths and of the parked pair searches' queries."""
    walks, searches = [], []

    def walk(adj, lam, a, b, avoid):
        path = layer_walk(adj, lam, a, b, avoid)
        dag = ForwardDag(sorted(range(len(adj)), key=lam.__getitem__), adj)
        assert_pair_search_agrees(dag, a, b, avoid, path)
        walks.append(path)
        return path

    def search(dag, pair1, pair2):
        (s1, t1), (s2, t2) = pair1, pair2
        if (s1 == t1) != (s2 == t2):
            (a, b), avoid = (pair2, s1) if s1 == t1 else (pair1, s2)
            assert_pair_search_agrees(dag, a, b, avoid, bfs_path_around(dag.adj, a, b, avoid))
            searches.append((pair1, pair2))
        return two_disjoint_paths(dag, pair1, pair2)

    with mock.patch.object(solver, "layer_walk", walk), mock.patch.object(
        solver, "two_disjoint_paths", search
    ):
        yield walks, searches


def test_every_walk_of_a_layered_dense_solve_matches_two_disjoint_paths(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    build = importlib.import_module("workloads").WORKLOADS["layered-dense"].build
    with replayed_parked_queries() as (walks, searches):
        solve(build(0))
    assert walks and not searches


def test_every_parked_pair_search_of_a_random_general_solve_is_the_bfs_path(monkeypatch):
    """Instance 7 of `random-general` layers with spans, so its parked
    queries go to `two_disjoint_paths`, which must give the reference path."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    build = importlib.import_module("workloads").WORKLOADS["random-general"].build
    with replayed_parked_queries() as (walks, searches):
        solve(build(7))
    assert searches and not walks


# --- the solver's waypoint split ----------------------------------------------


def test_waypoint_parallel_chains():
    g = build_graph(6, PARALLEL_CHAINS, s=0, t=5)
    # middle endpoints a=4, b=1; waypoints (3,4) on route 1 and (1,2) on route 2
    pair = _LayeredSearch(g, _layering(g)).waypoint_split(4, 1, 3, 4, 1, 2)
    assert pair.p1 == (0, 3, 4)
    assert pair.p2 == (1, 2, 5)


def test_waypoint_empty_fragments_at_terminals():
    # prefix query degenerates to an identity-endpoint pair: p1's prefix
    # fragment is the empty path at s
    g = build_graph(6, PARALLEL_CHAINS, s=0, t=5)
    pair = two_disjoint_paths(forward_dag(g), (0, 0), (1, 1))
    assert pair.p1 == (0,) and pair.p2 == (1,)


def test_waypoint_prefix_suffix_regions_are_disjoint():
    hits = 0
    for seed in range(12):
        g = layered_digraph(5, 3, 4, seed)
        search = _LayeredSearch(g, _layering(g))
        d, dag, lam = search.d, search.dag, search.lam
        vb = sorted(search.back_vertices)
        fwd = [(u, v) for u in sorted(g.vertices) for v in search.forward[u]]
        for a in vb:
            for b in vb:
                if d.from_s[a] <= d.from_s[b] or b == g.s or a == g.t:
                    continue
                for xp, x in fwd:
                    for yp, y in fwd:
                        if xp == yp or x == y or lam[xp] != lam[yp]:
                            continue
                        if not (lam[b] <= lam[yp] and lam[x] <= lam[a]):
                            continue
                        if {xp, x, a} & {b, yp, y}:
                            continue
                        pair = search.waypoint_split(a, b, xp, x, yp, y)
                        if pair is None:
                            continue
                        hits += 1
                        assert_valid_pair(dag, pair, (g.s, a), (b, g.t))
                        cut = lam[x]
                        p1_pre = [u for u in pair.p1 if lam[u] < cut]
                        p1_suf = [u for u in pair.p1 if lam[u] >= cut]
                        assert max(lam[u] for u in p1_pre) < min(lam[u] for u in p1_suf)
                        assert xp in p1_pre and x in p1_suf
                        assert yp in pair.p2 and y in pair.p2
    assert hits > 20


def test_waypoint_feasibility_matches_exhaustive_pair_search():
    """Brute force: enumerate all forward s->a paths through (xp, x) and all
    b->t paths through (yp, y); feasible iff some pair is disjoint."""
    from nextpath.oracle import _dag_paths

    def exhaustive_waypoint(g, dag, a, b, xp, x, yp, y):
        for p1 in _dag_paths(dag, g.s, a, frozenset()):
            hops = set(zip(p1, p1[1:]))
            if (xp, x) not in hops:
                continue
            for p2 in _dag_paths(dag, b, g.t, frozenset(p1)):
                if (yp, y) in set(zip(p2, p2[1:])):
                    return True
        return False

    agreements = feasible = 0
    for seed in range(14):
        g = layered_digraph(4 + seed % 3, 2 + seed % 2, 3 + seed % 3, seed * 5 + 1)
        search = _LayeredSearch(g, _layering(g))
        d, dag, lam = search.d, search.dag, search.lam
        vb = sorted(search.back_vertices)
        fwd = [(u, v) for u in sorted(g.vertices) for v in search.forward[u]]
        for a in vb:
            for b in vb:
                if d.from_s[a] <= d.from_s[b] or b == g.s or a == g.t:
                    continue
                for xp, x in fwd:
                    for yp, y in fwd:
                        if xp == yp or x == y or lam[xp] != lam[yp]:
                            continue
                        if lam[b] > lam[yp] or lam[x] > lam[a]:
                            continue
                        if {xp, x, a} & {b, yp, y}:
                            continue
                        got = search.waypoint_split(a, b, xp, x, yp, y)
                        want = exhaustive_waypoint(g, dag, a, b, xp, x, yp, y)
                        assert (got is not None) == want, (seed, a, b, xp, x, yp, y)
                        agreements += 1
                        feasible += got is not None
    assert agreements > 100 and feasible > 10


def test_layer_order_and_kahn_order_agree_on_waypoint_queries():
    """The search's DAG ranks vertices by (d(s,u), u); `topological_order`
    by Kahn's smallest-id-first order. On relabelled layered graphs,
    drawn until the two orders differ, both give a disjoint pair for the
    same waypoint-split queries, and every pair is valid in its DAG. The
    search's vertices are slots, whose order is id order, so Kahn's order
    on slots is Kahn's order on ids."""
    queries = []

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(
        st.integers(4, 6),
        st.integers(2, 3),
        st.integers(1, 6),
        st.integers(0, 6),
        st.integers(0, 2**16),
    )
    def check(layers, width, back, skips, seed):
        g = with_span_edges(layered_digraph(layers, width, back, seed), skips, seed)
        h = relabelled(g, seed)
        search = _LayeredSearch(h, _layering(h))
        slots = range(len(search.g.index.ids))
        kahn_order = topological_order(slots, dict(zip(slots, search.forward)))
        ours, kahn = search.dag, ForwardDag(kahn_order, search.forward)
        assume(list(ours.rank) != list(kahn.rank))
        s, t, lam = search.s, search.t, search.lam
        for a, b in itertools.permutations(sorted(search.back_vertices), 2):
            for layer in search.waypoints.intersection(range(lam[b], lam[a])):
                edges = search.crossing(layer)
                for (xp, x), (yp, y) in itertools.product(edges, repeat=2):
                    if xp == yp or x == y:
                        continue
                    for q in (((s, xp), (b, yp)), ((x, a), (y, t))):
                        if set(q[0]) & set(q[1]):
                            continue
                        got = [two_disjoint_paths(dag, *q) for dag in (ours, kahn)]
                        assert (got[0] is None) == (got[1] is None), q
                        for dag, pair in zip((ours, kahn), got):
                            if pair is not None:
                                assert_valid_pair(dag, pair, *q)
                        queries.append(got[0] is not None)

    check()
    assert sum(queries) > 3000 and len(queries) - sum(queries) > 3000


def test_forward_paths_between_fixed_vertices_have_equal_weight():
    from nextpath.oracle import simple_paths

    for seed in range(6):
        g = layered_digraph(5, 2, 2, seed)
        d = shortest_distances(g)
        fwd_only = g.replace(
            edges={(u, v): w for (u, v), w in g.edges.items() if edge_slack(d, u, v, w) == 0}
        )
        for a in sorted(g.vertices)[:4]:
            for b in sorted(g.vertices)[-4:]:
                if a == b:
                    continue
                weights = {w for _p, w in simple_paths(fwd_only, a, b, budget=2000)}
                assert len(weights) <= 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--walks"]:
        files = sys.argv[2:]
        with replayed_parked_queries() as (walks, searches):
            for name in files:
                with open(name, encoding="utf-8") as fh:
                    g = parse_graph(fh.read())
                try:
                    solve(g)
                except AssertionError as exc:
                    sys.exit(f"{name}: {exc}")
        print(
            f"{len(files)} graphs: {len(walks)} walks match two_disjoint_paths, "
            f"{len(searches)} parked pair searches match the BFS reference"
        )
        sys.exit()
    print(pair_digest())
