"""graph-core: parsing, distances, classification, predicates, layers."""
from __future__ import annotations

from decimal import Decimal
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TRIANGLE, bellman_ford_from, build_graph
from nextpath import (
    GraphFormatError,
    InvalidPathError,
    WeightedDigraph,
    format_weight,
    is_layered,
    is_straight,
    layer_assignment,
    layered_digraph,
    parse_graph,
    path_weight,
    random_digraph,
    serialize_graph,
    shortest_distances,
    shortest_path_avoiding,
    validate_path,
)
from nextpath.graph import dijkstra, edge_slack, straightness_violations
from nextpath.oracle import simple_paths


# --- parsing ---------------------------------------------------------------


def test_parse_triangle():
    g = parse_graph(TRIANGLE)
    assert g.vertex_count == 3 and g.s == 0 and g.t == 2
    assert g.edges == {(0, 1): 1, (1, 2): 1, (0, 2): 1}
    assert g.scale == 0


def test_parse_accepts_comments_blank_lines_and_bytes():
    text = "# header\n\n3 1 0 2  # inline\n\n0 1 1\n"
    g = parse_graph(text.encode())
    assert g.edges == {(0, 1): 1}


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("2 1 0 1\n0 1 0\n", 2, "non-positive"),
        ("2 2 0 1\n0 1 1\n0 1 2\n", 3, "duplicate edge"),
        ("2 1 0 1\n0 0 1\n", 2, "self-loop"),
        ("2 1 0 1\n0 7 1\n", 2, "out of range"),
        ("2 1 1 1\n0 1 1\n", 1, "must differ"),
        ("2 1 0 1\nnope\n", 2, "edge line"),
        ("1 0 0 0\n", 1, "two vertices"),
        ("2 1 0 1\n0 1 1.1234567891\n", 2, "fractional"),
        ("2 1 0 1\n0 1 9999999999999999999\n", 2, "overflow"),
        ("1_1 2 0 2\n0 1 1\n1 2 1\n", 1, "non-integer header"),
        ("3 2 0 +2\n0 1 1\n1 2 1\n", 1, "non-integer header"),
        ("2 1 0 1\n+0 1 1\n", 2, "non-integer vertex id"),
        ("2 1 0 1\n0 1 \u0661\n", 2, "positive decimal"),
        ("3 2 0 2\n0 1 1\x0c\n1 2 0\n", 3, "non-positive"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert err.value.line == line
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("3 3 0 2\n0 1 1\n0 1 1\n1 2 x\n", 4, "positive decimal"),
        ("3 3 0 2\n0 1 1\n0 1 1\n", None, "header declares 3 edges, found 2"),
        ("3 3 0 2\n0 1 1\n0 1 1\n1 2 9999999999999999999\n", 3, "duplicate edge"),
        ("3 4 0 2\n0 1 1\n1 2 1\n1 2 2\n0 1 2\n", 4, "duplicate edge (1, 2)"),
        ("3 2 0 2\n0 1 9999999999999999999\n1 2 9999999999999999999\n", 2, "overflow"),
        ("3 2 0 2\n0 1 0.5\n1 2 999999999999999999\n", 3, "overflow"),
        ("3 2 0 2\n0 1 999999999999999999.1\n1 2 999999999999999999.5\n", 3, "overflow"),
        ("2 1 0 1\n0 1 461168601842738790.4\n", 2, "overflow"),
        ("2 1 0 1\n-1 1 1\n", 2, "vertex id out of range"),
    ],
)
def test_parse_error_precedence(text, line, fragment):
    """A malformed line beats the edge count, which beats a duplicate, which
    beats an overflow; an overflow names the first line with the largest
    scaled weight."""
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_parse_reads_minus_zero_as_zero():
    assert parse_graph("2 1 0 1\n-0 1 1\n").edges == {(0, 1): 1}


def test_parse_ends_lines_only_at_lf_crlf_and_cr():
    g = parse_graph("3 2 0 2\n0 1 1 # a\u2028b\n1 2 1\n")
    assert g.edges == {(0, 1): 1, (1, 2): 1}
    assert parse_graph("3 2 0 2\r0 1 1\r1 2 1\r") == g
    assert parse_graph("3 2 0 2\r\n0 1 1\r\n1 2 1\r\n") == g


def test_parse_edge_count_mismatch():
    with pytest.raises(GraphFormatError, match="declares 2 edges"):
        parse_graph("3 2 0 2\n0 1 1\n")


def test_decimal_weights_share_one_global_scale():
    g = parse_graph("3 2 0 2\n0 1 2.5\n1 2 3\n")
    assert g.scale == 1
    assert g.edges == {(0, 1): 25, (1, 2): 30}
    # trailing zeros do not inflate the scale
    g2 = parse_graph("2 1 0 1\n0 1 0.50\n")
    assert g2.scale == 1 and g2.edges[(0, 1)] == 5
    # the largest weight a 2-vertex graph accepts: 2 * w <= 2**63 - 1
    g3 = parse_graph("2 1 0 1\n0 1 461168601842738790.3\n")
    assert g3.edges[(0, 1)] == 4611686018427387903


def test_serialize_round_trip():
    for text in (TRIANGLE, "3 2 0 2\n0 1 2.5\n1 2 3\n"):
        g = parse_graph(text)
        assert parse_graph(serialize_graph(g)) == g
    for seed in range(5):
        g = random_digraph(6, 0.5, 4, seed)
        assert parse_graph(serialize_graph(g)) == g


_DECIMALS = st.one_of(
    st.integers(1, 10**6).map(str),
    st.tuples(st.integers(0, 10**6), st.text("0123456789", min_size=1, max_size=9))
    .filter(lambda p: p[0] or p[1].strip("0"))
    .map(lambda p: f"{p[0]}.{p[1]}"),
)


@st.composite
def edge_list_texts(draw):
    n = draw(st.integers(2, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.dictionaries(pairs, _DECIMALS, max_size=12))
    lines = [f"{n} {len(edges)} 0 {n - 1}"] + [f"{u} {v} {w}" for (u, v), w in edges.items()]
    return "\n".join(lines) + "\n", edges


@settings(derandomize=True, database=None)
@given(edge_list_texts())
def test_parse_serialize_round_trip(drawn):
    text, weights = drawn
    g = parse_graph(text)
    for (u, v), w in weights.items():
        assert Decimal(g.edges[(u, v)]).scaleb(-g.scale) == Decimal(w)
    out = serialize_graph(g)
    assert parse_graph(out) == g
    assert serialize_graph(parse_graph(out)) == out


def test_format_weight():
    assert format_weight(2, 0) == "2"
    assert format_weight(25, 1) == "2.5"
    assert format_weight(30, 1) == "3"
    assert format_weight(5, 2) == "0.05"


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        build_graph(3, {(0, 0): 1})
    with pytest.raises(ValueError):
        build_graph(3, {(0, 1): 0})
    with pytest.raises(ValueError):
        WeightedDigraph(frozenset({0, 1}), {}, 0, 0)


def test_edges_are_read_only():
    src = {(0, 1): 1, (1, 2): 1}
    g = WeightedDigraph(frozenset(range(3)), src, 0, 2)
    adj = g.adj_out
    with pytest.raises(TypeError):
        g.edges[(0, 2)] = 5
    src[(0, 2)] = 5  # the graph holds its own copy of the map it was given
    assert g.edges == {(0, 1): 1, (1, 2): 1}
    assert g.adj_out is adj
    assert adj == {0: ((1, 1),), 1: ((2, 1),), 2: ()}
    assert g.replace(edges=g.edges) == g


# --- distances ------------------------------------------------------------


def test_triangle_distances():
    g = parse_graph(TRIANGLE)
    d = shortest_distances(g)
    assert [d.from_s[u] for u in range(3)] == [0, 1, 1]
    assert [d.to_t[u] for u in range(3)] == [1, 1, 0]


def test_unreachable_is_a_sentinel():
    g = build_graph(3, {(1, 2): 1}, s=0, t=1)
    d = shortest_distances(g)
    assert d.from_s[2] is None and d.from_s[1] is None
    assert d.to_t[0] is None


def test_seed42_distances_match_enumeration_oracle():
    # frozen from brute-force simple-path enumeration over this instance
    g = random_digraph(5, 0.5, 5, 42)
    assert sorted(g.edges.items()) == [
        ((0, 2), 3), ((0, 3), 2), ((1, 3), 4), ((1, 4), 1),
        ((2, 0), 5), ((3, 1), 4), ((4, 0), 2), ((4, 2), 2), ((4, 3), 3),
    ]
    d = shortest_distances(g)
    assert [d.from_s[u] for u in range(5)] == [0, 6, 3, 2, 7]
    assert [d.to_t[u] for u in range(5)] == [7, 1, 12, 5, 0]


@pytest.mark.parametrize("seed", range(8))
def test_distances_agree_with_relaxation_oracle(seed):
    g = random_digraph(7, 0.4, 5, seed)
    d = shortest_distances(g)
    assert d.from_s == bellman_ford_from(g, g.s)


def test_distance_table_is_computed_once_per_graph():
    g = random_digraph(7, 0.4, 5, 1)
    assert shortest_distances(g) is shortest_distances(g)


def test_distance_table_is_read_only():
    d = shortest_distances(random_digraph(7, 0.4, 5, 1))
    with pytest.raises(TypeError):
        d.from_s[0] = 1
    with pytest.raises(TypeError):
        d.to_t[0] = 1


@st.composite
def blocked_queries(draw):
    """A digraph on 2..7 vertices with weights 1..3 (many ties), distinct
    endpoints a = s and b = t, and a set of other vertices to avoid."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.dictionaries(st.sampled_from(pairs), st.integers(1, 3)))
    a, b = draw(st.permutations(range(n)))[:2]
    blocked = draw(st.frozensets(st.sampled_from(range(n)).filter(lambda v: v not in (a, b))))
    g = build_graph(n, edges, s=a, t=b)
    rest = g.replace(
        vertices=g.vertices - blocked,
        edges={(u, v): w for (u, v), w in g.edges.items() if not {u, v} & blocked},
    )
    return g, blocked, rest


@settings(derandomize=True, database=None)
@given(blocked_queries())
def test_dijkstra_matches_relaxation_on_the_unblocked_graph(query):
    g, blocked, rest = query
    want = {v: d for v, d in bellman_ford_from(rest, g.s).items() if d is not None}
    dist, parent = dijkstra(g.adj_out, g.s, blocked=blocked)
    assert dist == want
    for v, u in parent.items():
        assert dist[u] + g.edges[(u, v)] == dist[v]
    cut, _ = dijkstra(g.adj_out, g.s, target=g.t, blocked=blocked)
    assert cut.get(g.t) == want.get(g.t)
    assert all(dist[v] == d for v, d in cut.items())


@settings(derandomize=True, database=None)
@given(blocked_queries())
def test_shortest_path_avoiding_is_a_lightest_simple_path(query):
    g, blocked, rest = query
    weights = [w for _p, w in simple_paths(rest, g.s, g.t, budget=None)]
    path = shortest_path_avoiding(g, blocked, g.s, g.t)
    if not weights:
        assert path is None
        return
    assert path is not None and path[0] == g.s and path[-1] == g.t
    assert len(set(path)) == len(path) and not set(path) & blocked
    assert path_weight(g, path) == min(weights)


@settings(derandomize=True, database=None)
@given(blocked_queries(), st.integers(1, 10))
def test_a_limit_keeps_everything_closer_than_it(query, limit):
    g, blocked, _rest = query
    dist, parent = dijkstra(g.adj_out, g.s, blocked=blocked)
    near = {v: d for v, d in dist.items() if d < limit}
    assert dijkstra(g.adj_out, g.s, blocked=blocked, limit=limit) == (
        near,
        {v: u for v, u in parent.items() if v in near},
    )
    path = shortest_path_avoiding(g, blocked, g.s, g.t)
    if path is not None and path_weight(g, path) >= limit:
        path = None
    assert shortest_path_avoiding(g, blocked, g.s, g.t, limit) == path


@settings(derandomize=True, database=None)
@given(blocked_queries(), st.data())
def test_a_failed_search_leaves_a_cut_that_decides_wider_searches(query, data):
    g, blocked, _rest = query
    dist, _ = dijkstra(g.adj_out, g.s, blocked=blocked)
    inner = sorted(g.vertices - {g.s, g.t})
    for limit in (None, *range(1, 11)):
        met: set[int] = set()
        if shortest_path_avoiding(g, blocked, g.s, g.t, limit, met) is not None:
            continue
        # Exactly the blocked vertices pushed from the settled ball below the limit.
        assert met == {
            v
            for u, du in dist.items()
            for v, w in g.adj_out[u]
            if v in blocked and (limit is None or du + w < limit)
        }, limit
        # Any superset of the cut blocks every route below any limit no larger.
        wider = met | (data.draw(st.frozensets(st.sampled_from(inner))) if inner else set())
        for cap in (None, *range(1, 11)) if limit is None else range(1, limit + 1):
            assert shortest_path_avoiding(g, wider, g.s, g.t, cap) is None, (limit, wider, cap)


# --- classification ---------------------------------------------------------


def test_classification_examples():
    g = build_graph(3, {(0, 1): 1, (1, 2): 1, (2, 1): 5}, s=0, t=2)
    d = shortest_distances(g)
    assert edge_slack(d, 2, 1, 5) > 0  # back-edge: 2 + 5 > 1
    assert edge_slack(d, 0, 1, 1) == 0  # forward edge: the equality case
    assert edge_slack(d, 1, 2, 1) == 0


def test_classification_matches_independent_distances():
    g = layered_digraph(4, 2, 2, seed=7)
    d = shortest_distances(g)
    dist = bellman_ford_from(g, g.s)
    for (u, v), w in g.edges.items():
        assert (edge_slack(d, u, v, w) > 0) == (dist[u] + w > dist[v])


# --- path validation --------------------------------------------------------


def test_validate_path_triangle():
    g = parse_graph(TRIANGLE)
    check = validate_path(g, (0, 1, 2))
    assert check.simple and check.weight == 2 and check.uses_back_edge
    check = validate_path(g, (0, 2))
    assert check.simple and check.weight == 1 and not check.uses_back_edge


def test_validate_path_missing_edge():
    g = parse_graph(TRIANGLE)
    with pytest.raises(InvalidPathError, match=r"missing edge \(2, 0\)"):
        validate_path(g, (0, 2, 0))


def test_validate_path_detects_repeats():
    g = build_graph(3, {(0, 1): 1, (1, 0): 1, (0, 2): 1}, s=0, t=2)
    check = validate_path(g, (0, 1, 0, 2))
    assert not check.simple and check.weight == 3


@pytest.mark.parametrize("seed", range(6))
def test_not_shortest_iff_back_edge(seed):
    # over every simple s-t path of a seeded 8-vertex instance
    g = random_digraph(8, 0.35, 3, seed)
    d = shortest_distances(g)
    dst = d.from_s[g.t]
    if dst is None:
        pytest.skip("no s-t path for this seed")
    for path, w in simple_paths(g, g.s, g.t):
        assert (w > dst) == validate_path(g, path).uses_back_edge


# --- structural predicates ---------------------------------------------------


def test_straight_and_layered_examples():
    g = parse_graph(TRIANGLE)
    assert not is_straight(g, shortest_distances(g))  # vertex 1: 1 + 1 > 1

    path_graph = build_graph(3, {(0, 1): 1, (1, 2): 1}, s=0, t=2)
    d = shortest_distances(path_graph)
    assert is_straight(path_graph, d)
    assert is_layered(path_graph, d)


def test_straightness_violations_lists_vertices_off_every_shortest_path():
    # 1 lies only on a longer path, 3 is cut off from s, 4 cannot reach t
    g = build_graph(5, {(0, 1): 2, (1, 2): 1, (0, 2): 2, (3, 2): 1, (0, 4): 1}, s=0, t=2)
    assert straightness_violations(g, shortest_distances(g)) == [1, 3, 4]
    no_route = build_graph(3, {(1, 0): 1}, s=0, t=2)
    assert straightness_violations(no_route, shortest_distances(no_route)) == [0, 1, 2]


def test_layered_rejects_skipping_edge():
    g = build_graph(4, {(0, 1): 1, (1, 2): 1, (0, 2): 2, (2, 3): 1}, s=0, t=3)
    d = shortest_distances(g)
    assert is_straight(g, d)
    assert not is_layered(g, d)  # edge (0,2) spans past distance value 1


def test_layer_assignment_path_graph():
    g = build_graph(3, {(0, 1): 1, (1, 2): 1}, s=0, t=2)
    lam = layer_assignment(g, shortest_distances(g))
    assert [lam[u] for u in range(3)] == [1, 2, 3]


def test_layer_assignment_parallel_chains_share_layers():
    g = build_graph(
        6, {(0, 1): 1, (1, 2): 1, (2, 5): 1, (0, 3): 1, (3, 4): 1, (4, 5): 1}, s=0, t=5
    )
    lam = layer_assignment(g, shortest_distances(g))
    assert lam[1] == lam[3] == 2
    assert lam[2] == lam[4] == 3


def test_layer_assignment_rejects_non_layered():
    g = parse_graph(TRIANGLE)
    with pytest.raises(ValueError, match="layered"):
        layer_assignment(g, shortest_distances(g))


@pytest.mark.parametrize("seed", range(10))
def test_layer_stepping_on_generated_instances(seed):
    g = layered_digraph(4 + seed % 3, 2, 2 + seed % 4, seed)
    d = shortest_distances(g)
    lam = layer_assignment(g, d)
    for (u, v), w in g.edges.items():
        slack = edge_slack(d, u, v, w)
        if slack == 0:
            assert lam[v] == lam[u] + 1
        else:
            assert slack > 0 and lam[v] < lam[u]
    for u in g.vertices:
        for v in g.vertices:
            assert (d.from_s[u] < d.from_s[v]) == (lam[u] < lam[v])


# --- package surface -------------------------------------------------------


def test_all_exports_no_modules():
    import nextpath

    modules = [n for n in nextpath.__all__ if isinstance(getattr(nextpath, n), ModuleType)]
    assert modules == []
    assert "solve" in nextpath.__all__ and "WeightedDigraph" in nextpath.__all__
