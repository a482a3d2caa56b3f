"""End-to-end pipeline behavior beyond what the CLI tests cover."""
from __future__ import annotations

import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PARALLEL_CHAINS,
    TRIANGLE,
    bead_graph,
    build_graph,
    edge_bound,
    fresh_distances,
    skip_edge_graph,
    skip_path_graph,
    sum_rule_off,
    with_off_path_vertices,
)
from nextpath import (
    InternalInvariantError,
    WeightedDigraph,
    exhaustive_next_to_shortest,
    layered_digraph,
    parse_graph,
    random_digraph,
    serialize_graph,
    shortest_distances,
    solve,
    solve_detailed,
    solve_layered,
    validate_path,
)
from nextpath import cli, pipeline, solver
from nextpath.graph import Layering, SolveOutcome, dijkstra, path_weight
from nextpath.reduction import ReductionTrace, lift_path


@pytest.mark.parametrize("through", ["cli", "sparse-ids"])
def test_each_stage_keeps_its_table_by_slot_and_derives_no_id_view(
    monkeypatch, tmp_path, capsys, through
):
    """Each stage's distance table, the input's, straighten's and
    layerize's, is stored by slot and aligned with its graph's index, whose
    ids it shares. A solve derives neither id view, `from_s` nor `to_t`;
    a read derives each from the slots. Seed 20's graph is one that
    straighten shrinks, solved through `cli.main` from its file, and
    through `solve_detailed` on a copy built by the constructor on sparse
    ids, in reverse order, so that no id is its slot."""
    g = random_digraph(12, 0.3, 5, 20)
    seen = []
    for name in ("straighten", "layerize", "solve_layered"):
        real = getattr(pipeline, name)
        monkeypatch.setattr(
            pipeline, name, lambda h, *rest, real=real: seen.append(h) or real(h, *rest)
        )
    if through == "cli":
        f = tmp_path / "g.txt"
        f.write_text(serialize_graph(g))
        assert cli.main(["solve", str(f)]) == 0
        assert capsys.readouterr().out.startswith("7\n")
    else:
        m = {u: 1000 - 97 * u for u in g.vertices}
        edges = {(m[u], m[v]): w for (u, v), w in g.edges.items()}
        result = solve_detailed(WeightedDigraph(m.values(), edges, m[g.s], m[g.t]))
        assert result.layered_outcome.found and result.outcome.weight == 7
    assert len(seen) == 3 and seen[1].vertex_count < seen[0].vertex_count
    # layerize hands its input's table on, so the views are read only below.
    assert not {"from_s", "to_t"} & {k for h in seen for k in vars(h.distances)}
    for h in seen:
        d, ids = h.distances, h.index.ids
        assert d.ids is ids and len(d.ds) == len(d.dt) == len(ids)
        assert d.from_s == dict(zip(ids, d.ds)) and d.to_t == dict(zip(ids, d.dt))


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
    both reductions and the layered search read one table. The input is
    straight, so the table takes one Dijkstra, from s's slot."""
    calls = _count_dijkstras(monkeypatch)
    g = layered_digraph(6, 3, 0, seed)
    assert not solve(g).found
    assert calls == [g.index.slot[g.s]]


def test_graph_not_straight_takes_a_dijkstra_to_t(monkeypatch):
    """A graph with a vertex on no shortest s-t path takes a second
    Dijkstra for its table, from t's slot over the in-edges."""
    calls = _count_dijkstras(monkeypatch)
    drawn = 0
    for seed in range(10):
        g = random_digraph(12, 0.3, 5, seed)
        if not sum_rule_off(g, *fresh_distances(g)):
            continue
        drawn += 1
        calls.clear()
        shortest_distances(g)
        assert calls == [g.index.slot[g.s], g.index.slot[g.t]]
    assert drawn >= 5


def _count_dijkstras(monkeypatch):
    """The list of source slots of the `graph.dijkstra` calls from here on."""
    calls = []

    def counting(adj, source, **kwargs):
        calls.append(source)
        return dijkstra(adj, source, **kwargs)

    monkeypatch.setattr("nextpath.graph.dijkstra", counting)
    return calls


def _solve_peak(g):
    """solve(g) and the peak bytes it allocated, traced in this process."""
    tracemalloc.start()
    try:
        answer = solve(g)
        return answer, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "make",
    [lambda seed: layered_digraph(8, 4, 10, seed), lambda seed: random_digraph(12, 0.3, 5, seed)],
    ids=["layered", "random"],
)
def test_sparse_ids_solve_like_their_ranks(make, seed):
    """A vertex's slot is its rank, so ids u * 10**12 + 7 solve to the mapped
    answer, and no table grows with the largest id: the solve allocates no
    more than that of the same graph on ids 0..n-1."""
    g = make(seed)

    def big(u):
        return u * 10**12 + 7

    sparse = WeightedDigraph(
        frozenset(map(big, g.vertices)),
        {(big(u), big(v)): w for (u, v), w in g.edges.items()},
        big(g.s),
        big(g.t),
        g.scale,
    )
    want, dense_peak = _solve_peak(g)
    got, sparse_peak = _solve_peak(sparse)
    assert got.weight == want.weight
    assert got.path == (None if want.path is None else tuple(map(big, want.path)))
    assert sparse_peak < 2 * dense_peak


@pytest.mark.parametrize(
    "make,reduced",
    [
        pytest.param(lambda: random_digraph(14, 0.3, 5, 3), (True, True), id="random"),
        pytest.param(lambda: skip_edge_graph(2), (False, True), id="skip-edge"),
        pytest.param(lambda: layered_digraph(5, 3, 4, 1), (False, False), id="layered"),
        pytest.param(lambda: bead_graph(3, 3, 4, 1), (False, False), id="beads"),
    ],
)
def test_solve_computes_one_distance_table(monkeypatch, make, reduced):
    """`straighten` and `layerize` hand their input's distances on to the
    graph they return, so a solve of a freshly parsed graph computes that
    graph's table and no other. `reduced` says which reductions change it."""
    g = parse_graph(serialize_graph(make()))
    computed = []
    prop = WeightedDigraph.__dict__["distances"]

    def counting(graph, compute=prop.func):
        computed.append(graph)
        return compute(graph)

    monkeypatch.setattr(prop, "func", counting)
    result = solve_detailed(g)
    assert (bool(result.straighten_trace.steps), bool(result.layerize_trace.steps)) == reduced
    assert len(computed) == 1 and computed[0] is g


# Straight and layered, but for the back-edge 1 -> 2 between two vertices of
# one layer, which `layerize` removes after recording its candidate.
_AGAINST = "4 5 0 3\n0 1 1\n0 2 1\n1 2 1\n1 3 1\n2 3 1\n"


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: random_digraph(14, 0.3, 5, 3), id="random"),
        pytest.param(lambda: skip_edge_graph(2), id="skip-edge"),
        pytest.param(lambda: layered_digraph(5, 3, 4, 1), id="layered"),
        pytest.param(lambda: layered_digraph(36, 18, 200, 11), id="layered-dense"),
        pytest.param(lambda: parse_graph(_AGAINST), id="against"),
    ],
)
def test_a_parsed_graph_is_solved_from_its_index_alone(make):
    """A parsed graph holds its `index` and no `edges`; no stage of a
    solve reads `edges`, so a solve never derives it, whatever the
    reductions do."""
    g = parse_graph(serialize_graph(make()))
    assert "index" in vars(g) and "edges" not in vars(g)
    result = solve_detailed(g)
    assert "edges" not in vars(g)
    assert result.outcome == solve(WeightedDigraph(g.vertices, dict(g.edges), g.s, g.t))


def test_the_pipeline_weighs_only_the_paths_a_lift_changes(monkeypatch):
    """The reductions weigh their candidates off the distance table, and the
    layered answer comes weighed, so the pipeline weighs at most one path in
    g again: the lifted layered answer, when lifting changed it. A path the
    lift leaves as it was uses no shortcut, so its weight holds in g; a
    layerize candidate's recorded weight holds in g even when the lift
    changes it; and the final check confirms the answer's. Straighten's
    bound drops the shortcuts no answer can use, so a layered answer that a
    lift changes is rare: seed 180 is the first."""
    weighed = []
    monkeypatch.setattr(
        pipeline, "path_weight", lambda g, path: weighed.append(path) or path_weight(g, path)
    )
    kept = changed = 0
    for seed in range(200):
        weighed.clear()
        result = solve_detailed(random_digraph(12, 0.3, 5, seed))
        if not result.layered_outcome.found:
            assert weighed == []
            continue
        p = result.layered_outcome.path
        q = lift_path(result.straighten_trace, p)
        assert weighed == ([q] if q != p else [])
        changed += q != p
        kept += q == p
    assert kept and changed


def test_the_bounded_pipeline_answers_as_the_unbounded_one(monkeypatch):
    """Straighten's bound drops only detours that no answer within it can
    use, so the pipeline's outcome, path included, is the one it gives
    without a bound, here with `incumbent` patched to find none."""
    graphs = [
        *(random_digraph(100, 0.045, 10, seed) for seed in range(60)),
        *(random_digraph(30, 0.12, 9, seed) for seed in range(100)),
        *(random_digraph(12, 0.3, 5, seed) for seed in range(200)),
        *(
            with_off_path_vertices(layered_digraph(4 + seed % 5, 3, seed % 7, seed), 5, seed)
            for seed in range(100)
        ),
    ]
    bounded = [pipeline.incumbent(g) is not None for g in graphs]
    bounded_outcomes = [solve(g) for g in graphs]
    monkeypatch.setattr(pipeline, "incumbent", lambda g: None)
    for g, outcome in zip(graphs, bounded_outcomes):
        assert outcome == solve(g)
    assert sum(bounded[:360]) >= 200 and sum(bounded[360:]) >= 30


@pytest.mark.parametrize(
    "shape,seeds",
    [((12, 0.3, 5), range(900)), ((30, 0.12, 9), range(280)), ((8, 0.5, 2), range(1300))],
    ids=["12-0.3-5", "30-0.12-9", "8-0.5-2"],
)
def test_a_layerize_candidate_weighs_in_g_what_it_recorded(shape, seeds):
    """Lifted to g, every layerize candidate weighs exactly its recorded
    weight, also when the lift changes it: its tree paths use only tight
    edges, no shortcut is tight, so only its removed back-edge can be a
    shortcut, and splicing in that one detour closes no loop. The pipeline
    relies on this to pick the pool's minimum from recorded weights."""
    candidates = changed = 0
    for seed in seeds:
        g = random_digraph(*shape, seed)
        result = solve_detailed(g)
        for p, w in result.layerize_trace.candidates:
            q = lift_path(result.straighten_trace, p)
            assert path_weight(g, q) == w
            candidates += 1
            changed += q != p
    assert changed and candidates > changed


def check_candidates(g):
    """Every candidate that a solve of g records, straighten's as built and
    layerize's lifted through straighten's trace, is a simple s-t path of g
    that weighs exactly its recorded weight, more than d(s,t). Returns the
    number of candidates of each reduction, (0, 0) when t is unreachable."""
    dst = shortest_distances(g).dst
    if dst is None:
        return 0, 0
    result = solve_detailed(g)
    tr_s, tr_l = result.straighten_trace, result.layerize_trace
    lifted = [(lift_path(tr_s, p), w) for p, w in tr_l.candidates]
    for name, pool in (("straighten", tr_s.candidates), ("layerize", lifted)):
        for path, w in pool:
            check = validate_path(g, path)
            assert (path[0], path[-1]) == (g.s, g.t), f"{name} candidate {path} is not s-t"
            assert check.simple, f"{name} candidate {path} is not simple"
            assert check.weight == w, f"{name} candidate {path} weighs {check.weight}, not {w}"
            assert w > dst, f"{name} candidate {path} is shortest"
    return len(tr_s.weights), len(lifted)


def test_every_candidate_is_a_simple_path_of_its_recorded_weight():
    """`check_candidates` on random graphs of 8 to 37 vertices whose
    largest weight is 1 to 4: most have an s-t path, and both reductions
    record candidates on them."""
    graphs = straightened = layerized = 0
    for seed in range(300):
        g = random_digraph(8 + seed % 30, 0.25, 1 + seed % 4, seed)
        n_s, n_l = check_candidates(g)
        graphs += shortest_distances(g).dst is not None
        straightened += n_s
        layerized += n_l
    assert graphs >= 270 and straightened >= 700 and layerized >= 1400


def _eager_first_minimum(g, result):
    """The pool built eagerly, as the reference: every candidate's path,
    each layerize candidate and the layered answer lifted to g and weighed
    there; then the first entry of least weight, and which part of the
    pool it came from."""
    tr_s, tr_l = result.straighten_trace, result.layerize_trace
    pool = [(p, w, "straighten") for p, w in tr_s.candidates]
    lifted = [p for p, _w in tr_l.candidates]
    if result.layered_outcome.found:
        lifted.append(result.layered_outcome.path)
    for k, p in enumerate(lifted):
        q = lift_path(tr_s, p)
        pool.append((q, path_weight(g, q), "layerize" if k < len(tr_l.candidates) else "layered"))
    if not pool:
        return SolveOutcome.none(), None
    path, weight, part = min(pool, key=lambda entry: entry[1])
    return SolveOutcome.of(path, weight), part


@pytest.mark.parametrize(
    "make,seeds,parts",
    [
        pytest.param(
            lambda seed: random_digraph(12, 0.3, 5, seed), range(120),
            {None, "straighten", "layerize"}, id="random",
        ),
        pytest.param(skip_edge_graph, range(200), {"layerize", "layered"}, id="skip-edge"),
        pytest.param(
            lambda seed: layered_digraph(6, 3, 8, seed), range(40), {"layered"}, id="layered"
        ),
        pytest.param(lambda seed: bead_graph(3, 3, 6, seed), range(20), {None}, id="beads"),
    ],
)
def test_the_answer_is_the_eager_pools_first_minimum(make, seeds, parts):
    """Picking the winner from recorded weights and building its path alone
    answers what building and weighing every pool entry answered: the same
    path and weight, ties going to the earliest entry. `parts` is which
    parts of the pool the answers came from over the seeds (None: no
    answer), so that each family exercises what it should."""
    won = set()
    for seed in seeds:
        g = make(seed)
        result = solve_detailed(g)
        want, part = _eager_first_minimum(g, result)
        assert result.outcome == want
        won.add(part)
    assert won == parts


# Two unit chains 0-1-2-5 and 0-3-4-5 (shortest distance 3), the strict
# back-edge 4 -> 1 that gives the layered answer 0 3 4 1 2 5 (weight 5), and
# back-edges inside layers, which `layerize` removes, each recording a
# candidate of weight 5 too: 1 -> 3 records 0 1 3 4 5.
_TIES = {
    (0, 1): 1, (1, 2): 1, (2, 5): 1, (0, 3): 1, (3, 4): 1, (4, 5): 1,
    (4, 1): 1, (1, 3): 2,
}
_MORE_TIES = {**_TIES, (2, 4): 2, (3, 1): 2}


def test_a_layerize_candidate_that_ties_the_layered_answer_wins():
    """The pool keeps the first entry of least weight, and layerize's
    candidates come before the layered answer."""
    result = solve_detailed(build_graph(6, _TIES))
    assert result.layered_outcome == SolveOutcome.of((0, 3, 4, 1, 2, 5), 5)
    assert result.layerize_trace.candidates == [((0, 1, 3, 4, 5), 5)]
    assert result.outcome == SolveOutcome.of((0, 1, 3, 4, 5), 5)


def test_only_the_winners_trees_are_walked(monkeypatch, tmp_path, capsys):
    """A solve builds the path of the winning candidate alone, one walk up
    each shortest-path tree; `--dump-trace` prints every candidate, so it
    walks the trees of all of them. `walks` gets the ids of the two ends of
    each path built, where its two tree walks start."""
    walks = []
    build = ReductionTrace.candidate_path

    def recording(trace, k):
        x, _mid, y = trace.ends[k]
        walks.extend(trace.graph.index.ids[v] for v in (x, y))
        return build(trace, k)

    monkeypatch.setattr(ReductionTrace, "candidate_path", recording)
    g = build_graph(6, _MORE_TIES)
    assert len(g.layering.against) == 3
    result = solve_detailed(g)
    assert result.outcome == SolveOutcome.of((0, 1, 3, 4, 5), 5)
    assert walks == [1, 3]
    f = tmp_path / "ties.txt"
    f.write_text(serialize_graph(g))
    walks.clear()
    assert cli.main(["solve", "--dump-trace", str(f)]) == 0
    assert capsys.readouterr().err.count("candidate weight=5") == 3
    assert len(walks) == 2 + 2 * 3
    walks.clear()
    assert cli.main(["solve", str(f)]) == 0
    assert len(walks) == 2


@pytest.mark.parametrize("seed", [2, 4, 19])
def test_both_traces_share_one_table_of_tree_parents(monkeypatch, seed):
    """`straighten`'s and `layerize`'s traces walk the trees of one straight
    graph, the one straighten returns, whose layering builds its table of
    tree parents once: reading every candidate of both traces builds that
    one table and no other. Each graph is a `random-general` one whose two
    traces both hold candidates, 2 to 14 in all."""
    built = []
    prop = Layering.__dict__["parent"]

    def counting(layering, build=prop.func):
        built.append(layering)
        return build(layering)

    monkeypatch.setattr(prop, "func", counting)
    straightened = []
    real = pipeline.straighten
    monkeypatch.setattr(
        pipeline, "straighten", lambda *args: straightened.append(real(*args)) or straightened[0]
    )
    result = solve_detailed(random_digraph(100, 0.045, 10, seed))
    tr_s, tr_l = result.straighten_trace, result.layerize_trace
    assert tr_s.weights and tr_l.weights
    assert len(built) <= 1
    assert [w for _, w in tr_s.candidates + tr_l.candidates] == tr_s.weights + tr_l.weights
    g_s = straightened[0][0]
    assert len(built) == 1 and built[0] is g_s.layering


def test_an_answer_that_does_not_end_at_t_is_an_internal_error(monkeypatch):
    """A lift that dropped the answer's last vertex would leave a simple
    path of the stated weight that misses t; the final check refuses it."""
    g = layered_digraph(7, 3, 8, 0)
    assert solve(g) == SolveOutcome.of((0, 2, 4, 8, 11, 5, 7, 10, 15, 16), 10)
    monkeypatch.setattr(pipeline, "lift_path", lambda trace, path: lift_path(trace, path)[:-1])
    with pytest.raises(InternalInvariantError, match="invalid answer"):
        solve(g)


def test_a_candidate_of_the_wrong_weight_is_an_internal_error(monkeypatch):
    """The layered search checks each route it completes."""
    g = layered_digraph(7, 3, 8, 0)
    monkeypatch.setattr(solver, "path_weight", lambda g, path: path_weight(g, path) + 1)
    with pytest.raises(InternalInvariantError, match="invalid answer"):
        solve_layered(g)


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


def test_many_long_skip_edges_add_no_vertex():
    """A unit path of 800 vertices plus 800 edges that each weigh the span
    they skip: the search gets the input's own vertices, where subdividing
    each skip edge into unit steps would make about 209,000."""
    g = skip_path_graph(800, 0, 1)
    result = solve_detailed(g)
    assert not result.outcome.found
    assert result.layered_graph.vertex_count <= g.vertex_count


def test_long_skip_edges_with_back_edges_keep_their_weight():
    # 300 vertices, 300 skip edges and 15 back-edges; the weight was pinned
    # when each skip edge was still subdivided into unit steps (30,956
    # layered vertices then).
    g = skip_path_graph(300, 15, 1)
    result = solve_detailed(g)
    assert result.outcome.weight == 304
    assert result.layered_graph.vertex_count <= g.vertex_count


if __name__ == "__main__":
    files = sys.argv[1:]
    straightened = layerized = 0
    for name in files:
        with open(name, encoding="utf-8") as fh:
            g = parse_graph(fh.read())
        try:
            n_s, n_l = check_candidates(g)
        except AssertionError as exc:
            sys.exit(f"{name}: {exc}")
        straightened += n_s
        layerized += n_l
    print(
        f"{len(files)} graphs: {straightened} straighten and {layerized} layerize candidates,"
        " each a simple s-t path of its recorded weight"
    )
