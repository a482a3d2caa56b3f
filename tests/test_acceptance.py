"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -q -s` to see the lines live.
"""
from __future__ import annotations

import random
import time

from conftest import back_edge_split, floyd_warshall, violation_count
from nextpath import (
    EliminationRecord,
    ForwardDag,
    ReductionTrace,
    apply_step,
    exhaustive_next_to_shortest,
    exhaustive_two_disjoint_paths,
    is_straight,
    layered_digraph,
    layerize,
    lift_path,
    random_digraph,
    shortest_distances,
    solve,
    solve_detailed,
    straighten,
    topological_order,
    two_disjoint_paths,
    validate_path,
)
from nextpath.cli import main as cli_main
from nextpath.graph import edge_slack
from nextpath.oracle import simple_paths
from nextpath.solver import _LayeredSearch, _layering, solve_layered

RANDOM_GRID = [
    (n, p, w_max)
    for n in range(4, 10)
    for p in (0.2, 0.4, 0.6)
    for w_max in (1, 5)
]

LAYERED_GRID = [
    (layers, width, back)
    for layers, width in ((3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2))
    for back in (0, 1, 2, 3)
]


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _random_instances(seeds_per_combo: int):
    for n, p, w_max in RANDOM_GRID:
        for seed in range(seeds_per_combo):
            yield random_digraph(n, p, w_max, seed * 7919 + n * 131 + int(p * 10) + w_max)


def test_criterion_1_oracle_equivalence_end_to_end():
    start = time.monotonic()
    disagreements = 0
    n_random = n_layered = 0
    for g in _random_instances(28):
        n_random += 1
        want = exhaustive_next_to_shortest(g)
        got = solve(g)
        if want.found != got.found or (want.found and want.weight != got.weight):
            disagreements += 1
    for layers, width, back in LAYERED_GRID:
        for seed in range(18):
            g = layered_digraph(layers, width, back, seed * 37 + layers * 5 + width)
            n_layered += 1
            want = exhaustive_next_to_shortest(g)
            got = solve(g)
            if want.found != got.found or (want.found and want.weight != got.weight):
                disagreements += 1
    elapsed = time.monotonic() - start
    assert n_random >= 1000 and n_layered >= 500
    assert disagreements == 0
    assert elapsed < 60.0
    _report(
        "1 oracle-equivalence",
        f"{n_random} random + {n_layered} layered instances, "
        f"0 disagreements, {elapsed:.1f}s",
    )


def test_criterion_2_not_shortest_iff_back_edge():
    instances_with_paths = 0
    paths_checked = 0
    violations = 0
    for n, p, w_max in RANDOM_GRID:
        for seed in range(4):
            g = random_digraph(n, p, w_max, seed * 401 + n + int(p * 100) + w_max)
            d = shortest_distances(g)
            dst = d.from_s[g.t]
            if dst is None:
                continue
            saw_path = False
            for path, w in simple_paths(g, g.s, g.t):
                saw_path = True
                paths_checked += 1
                if (w > dst) != validate_path(g, path).uses_back_edge:
                    violations += 1
            instances_with_paths += saw_path
    assert instances_with_paths >= 100
    assert violations == 0
    _report(
        "2 back-edge-equivalence",
        f"{instances_with_paths} instances, {paths_checked} paths, 0 violations",
    )


def test_criterion_3_reduction_invariants():
    reductions = 0
    violations = 0
    seed = 0
    while reductions < 210:
        seed += 1
        n = 5 + seed % 4
        g = random_digraph(n, 0.45, (seed % 2) * 4 + 1, seed * 17)
        if shortest_distances(g).from_s[g.t] is None:
            continue
        reductions += 1
        g_s, tr_s = straighten(g)
        cur = g
        ap_before = floyd_warshall(cur)
        for step in tr_s.steps:
            nxt = apply_step(cur, step)
            ap_after = floyd_warshall(nxt)
            if isinstance(step, EliminationRecord):
                for x in nxt.vertices:
                    for y in nxt.vertices:
                        if ap_before[(x, y)] != ap_after[(x, y)]:
                            violations += 1
            cur, ap_before = nxt, ap_after
        assert cur == g_s
        g_l, tr_l = layerize(g_s)
        cur = g_s
        d_cur = shortest_distances(cur)
        phi = violation_count(cur)
        for step in tr_l.steps:
            nxt = apply_step(cur, step)
            d_nxt = shortest_distances(nxt)
            if violation_count(nxt) != phi - 1:
                violations += 1
            if any(d_cur.from_s[z] != d_nxt.from_s[z] for z in cur.vertices & nxt.vertices):
                violations += 1
            if len({d_cur.from_s[z] for z in cur.vertices}) != len(
                {d_nxt.from_s[z] for z in nxt.vertices}
            ):
                violations += 1
            cur, d_cur, phi = nxt, d_nxt, phi - 1
        assert cur == g_l
    assert violations == 0
    _report("3 reduction-invariants", f"{reductions} reductions replayed, 0 violations")


def test_criterion_4_layeredness_postcondition():
    """`layerize` returns a graph the layered search takes: straight, on the
    input's own vertices, with every back-edge going strictly back and every
    forward edge going up at least one layer; a forward edge may span
    several."""
    violations = 0
    outputs = spanning = 0
    for g in _random_instances(4):
        if shortest_distances(g).from_s[g.t] is None:
            continue
        g_s, _ = straighten(g)
        g_l, _ = layerize(g_s)
        outputs += 1
        violations += g_l.vertices != g_s.vertices
        bad, spans = _layer_stepping_violations(g_l)
        violations += bad
        spanning += spans
    for layers, width, back in LAYERED_GRID:
        g = layered_digraph(layers, width, back, layers * 100 + width * 10 + back)
        outputs += 1
        bad, spans = _layer_stepping_violations(g)
        violations += bad + spans
    assert violations == 0 and spanning > 0
    _report(
        "4 layeredness-postcondition",
        f"{outputs} layered outputs ({spanning} keep an edge spanning layers), 0 violations",
    )


def _layer_stepping_violations(g) -> tuple[int, int]:
    """(edges that break the search's input contract, forward edges that
    span more than one layer)."""
    d = shortest_distances(g)
    if not is_straight(g, d):
        return 1, 0
    lam, slot = _LayeredSearch(g, _layering(g)).lam, g.index.slot
    bad = spans = 0
    for (x, y), w in g.edges.items():
        u, v = slot[x], slot[y]
        slack = edge_slack(d, u, v, w)
        if slack == 0:
            bad += lam[v] <= lam[u]
            spans += lam[v] > lam[u] + 1
        else:
            bad += not slack > 0 or lam[v] >= lam[u]
    return bad, spans


def test_criterion_5_disjoint_paths_sound_and_complete():
    rng = random.Random(20240)
    queries = 0
    violations = 0
    while queries < 2000:
        n = rng.randint(5, 10)
        p = rng.choice((0.25, 0.4, 0.55))
        adj = {u: [v for v in range(u + 1, n) if rng.random() < p] for u in range(n)}
        dag = ForwardDag(topological_order(range(n), adj), adj)
        for _ in range(30):
            s1, t1, s2, t2 = (rng.randrange(n) for _ in range(4))
            if {s1, t1} & {s2, t2}:
                continue
            queries += 1
            got = two_disjoint_paths(dag, (s1, t1), (s2, t2))
            want = exhaustive_two_disjoint_paths(dag, (s1, t1), (s2, t2))
            if (got is None) != (want is None):
                violations += 1
                continue
            if got is None:
                continue
            if set(got.p1) & set(got.p2):
                violations += 1
            if (got.p1[0], got.p1[-1]) != (s1, t1) or (got.p2[0], got.p2[-1]) != (s2, t2):
                violations += 1
            for path in (got.p1, got.p2):
                for u, v in zip(path, path[1:]):
                    if v not in dag.adj[u]:
                        violations += 1
    assert violations == 0
    _report("5 disjoint-paths", f"{queries} queries vs exhaustive search, 0 violations")


def test_criterion_6_lift_round_trip():
    lifted_paths = 0
    equal_weight = 0
    violations = 0
    seed = 0
    while lifted_paths < 500:
        seed += 1
        g = random_digraph(5 + seed % 5, 0.5, (seed % 3) + 1, seed * 23)
        if shortest_distances(g).from_s[g.t] is None:
            continue
        g_s, tr_s = straighten(g)
        g_l, tr_l = layerize(g_s)
        for path, w_layered in simple_paths(g_l, g_l.s, g_l.t, budget=10_000):
            lifted, crossed = _lift_and_flag_shortcuts(tr_l, tr_s, path)
            check = validate_path(g, lifted)
            if not check.simple or check.weight > w_layered:
                violations += 1
            if not crossed:
                equal_weight += 1
                if check.weight != w_layered:
                    violations += 1
            lifted_paths += 1
            if lifted_paths % 8 == 0:
                break  # at most 8 paths per instance, for variety
    assert violations == 0
    assert equal_weight > 0
    _report(
        "6 lift-round-trip",
        f"{lifted_paths} paths lifted ({equal_weight} shortcut-free, equal weight), "
        "0 violations",
    )


def _lift_and_flag_shortcuts(tr_l, tr_s, path):
    """Lift step by step, reporting whether any elimination shortcut was
    crossed (only those lifts may shrink the weight)."""
    crossed = False
    for trace in (tr_l, tr_s):
        for step in reversed(trace.steps):
            if isinstance(step, EliminationRecord):
                crossed |= any(e in step.shortcut_edges for e in zip(path, path[1:]))
            path = lift_path(ReductionTrace(steps=[step]), path)
    return path, crossed


def test_criterion_7_output_validity_and_decomposition_bound():
    found = 0
    violations = 0
    for g in _random_instances(8):
        result = solve_detailed(g)
        out = result.outcome
        if out.found:
            found += 1
            d = shortest_distances(g)
            check = validate_path(g, out.path)
            if not (check.simple and check.weight == out.weight):
                violations += 1
            if not (out.weight > d.from_s[g.t] and check.uses_back_edge):
                violations += 1
        # the middle-segment distance bound is a layered-graph guarantee:
        # check it on the layered solver's own output
        if result.layered_outcome.found:
            violations += _decomposition_bound_violations(
                result.layered_graph, result.layered_outcome.path
            )
    # seeded layered instances drive the same bound directly, including one
    # whose optimal middle segment has an interior vertex
    for layers, width, back in LAYERED_GRID:
        for seed in range(6):
            g = layered_digraph(layers, width, back, seed * 11 + back, back_weight_max=9)
            out = solve_layered(g)
            if out.found:
                found += 1
                violations += _decomposition_bound_violations(g, out.path)
    g = layered_digraph(6, 3, 5, 426, back_weight_max=2)
    out = solve_layered(g)
    _, middle, _ = back_edge_split(g, out.path)
    assert len(middle) > 2  # interior vertices present
    violations += _decomposition_bound_violations(g, out.path)
    assert found > 200
    assert violations == 0
    _report("7 output-validity", f"{found} solved instances, 0 violations")


def _decomposition_bound_violations(g, path) -> int:
    d = shortest_distances(g)
    split = back_edge_split(g, path)
    if split is None:
        return 1  # a found answer must not be shortest
    middle = split[1]
    hi = d.from_s[middle[0]]
    lo = d.from_s[middle[-1]]
    if lo >= hi:
        return 1
    return sum(1 for u in middle[1:-1] if not lo < d.from_s[u] < hi)


def test_criterion_8_scale_sanity(tmp_path, capsys):
    g = layered_digraph(10, 6, 18, 42)
    assert g.vertex_count == 50
    assert 120 <= g.edge_count <= 180
    from nextpath import serialize_graph

    f = tmp_path / "big.txt"
    f.write_text(serialize_graph(g))

    start = time.monotonic()
    code = cli_main(["solve", str(f)])
    elapsed = time.monotonic() - start
    assert code == 0
    assert capsys.readouterr().out
    assert elapsed < 30.0
    _report("8 scale-sanity", f"50 vertices / {g.edge_count} edges solved in {elapsed:.2f}s")
