"""oracle: exhaustive references keep themselves honest.

The ranked oracle also checks `solve` on any edge-list files:

    PYTHONPATH=src python tests/test_oracle.py FILE...

It prints the number of graphs checked and exits 0 when the ranked
oracle's `found` and weight equal `solve`'s on each; the first mismatch
stops it with the file and both answers.
"""
from __future__ import annotations

import sys

import pytest

from conftest import PARALLEL_CHAINS, TRIANGLE, build_graph
from nextpath import (
    ForwardDag,
    SharedTerminalError,
    exhaustive_next_to_shortest,
    exhaustive_two_disjoint_paths,
    parse_graph,
    random_digraph,
    ranked_next_to_shortest,
    solve,
    topological_order,
    validate_path,
)
from nextpath.oracle import BudgetExceeded, simple_paths


def test_triangle_two_paths():
    g = parse_graph(TRIANGLE)
    out = exhaustive_next_to_shortest(g)
    assert out.path == (0, 1, 2) and out.weight == 2
    assert ranked_next_to_shortest(g) == out


def test_single_edge_has_no_second_path():
    g = build_graph(2, {(0, 1): 1})
    assert not exhaustive_next_to_shortest(g).found
    assert not ranked_next_to_shortest(g).found


def test_parallel_chains_weight():
    # three simple s-t paths: 3 (top), 3 (bottom), 5 (crossover)
    g = build_graph(6, PARALLEL_CHAINS, s=0, t=5)
    paths = sorted(w for _p, w in simple_paths(g, 0, 5))
    assert paths == [3, 3, 5]
    out = exhaustive_next_to_shortest(g)
    assert out.weight == 5
    # the ranked oracle ranks both shortest paths, then the crossover
    assert ranked_next_to_shortest(g, budget=3).weight == 5
    with pytest.raises(BudgetExceeded):
        ranked_next_to_shortest(g, budget=2)


def test_budget_exceeded_is_loud():
    g = random_digraph(8, 0.9, 1, 3)
    with pytest.raises(BudgetExceeded):
        exhaustive_next_to_shortest(g, budget=10)


def test_negative_budget_is_rejected_before_any_path():
    g = random_digraph(8, 0.9, 1, 3)
    with pytest.raises(ValueError, match="budget must be non-negative"):
        next(simple_paths(g, g.s, g.t, budget=-1))
    with pytest.raises(ValueError, match="budget must be non-negative"):
        exhaustive_next_to_shortest(g, budget=-5)
    with pytest.raises(ValueError, match="budget must be non-negative"):
        ranked_next_to_shortest(g, budget=-1)
    # A zero budget is valid: it admits no path at all.
    unreachable = build_graph(3, {(0, 1): 1}, s=0, t=2)
    for oracle in (exhaustive_next_to_shortest, ranked_next_to_shortest):
        with pytest.raises(BudgetExceeded):
            oracle(g, budget=0)
        assert not oracle(unreachable, budget=0).found


def test_oracle_weight_invariant_under_relabeling():
    import random

    for seed in range(6):
        g = random_digraph(7, 0.45, 4, seed)
        rng = random.Random(seed + 99)
        perm = list(range(7))
        rng.shuffle(perm)
        relabeled = build_graph(
            7,
            {(perm[u], perm[v]): w for (u, v), w in g.edges.items()},
            s=perm[0],
            t=perm[6],
        )
        a, b = exhaustive_next_to_shortest(g), exhaustive_next_to_shortest(relabeled)
        assert a.found == b.found
        if a.found:
            assert a.weight == b.weight


def test_oracle_witness_is_always_valid():
    for seed in range(10):
        g = random_digraph(7, 0.5, 3, seed)
        out = exhaustive_next_to_shortest(g)
        if out.found:
            check = validate_path(g, out.path)
            assert check.simple and check.weight == out.weight


def answer(outcome):
    return outcome.found, outcome.weight


def test_ranked_oracle_matches_the_exhaustive_one_on_small_graphs():
    """Weights 1..3 put ties everywhere, among the shortest paths and among
    the next ones; sparse draws give NONE answers and unreachable sinks."""
    found = none = 0
    for seed in range(400):
        g = random_digraph(4 + seed % 8, (0.2, 0.35, 0.5)[seed % 3], 1 + seed % 3, seed)
        ranked = ranked_next_to_shortest(g)
        assert answer(ranked) == answer(exhaustive_next_to_shortest(g)), seed
        if ranked.found:
            check = validate_path(g, ranked.path)
            assert check.simple and check.weight == ranked.weight
        found += ranked.found
        none += not ranked.found
    assert found >= 100 and none >= 50


def test_ranked_oracle_matches_solve_beyond_the_exhaustive_reach():
    """On 100-vertex random graphs, the shape of the `random-general`
    benchmark, where straighten's bound acts and no enumeration of all
    simple paths finishes."""
    found = 0
    for seed in range(100):
        g = random_digraph(100, 0.045, 10, seed)
        solved = solve(g)
        assert answer(ranked_next_to_shortest(g)) == answer(solved), seed
        found += solved.found
    assert found >= 50


def kahn_dag(adj):
    """The DAG with the out-lists `adj`, one per vertex, in Kahn's order."""
    return ForwardDag(topological_order(adj, adj), adj)


def test_exhaustive_disjoint_pairs():
    dag = kahn_dag({0: [1], 1: [], 2: [3], 3: []})
    pair = exhaustive_two_disjoint_paths(dag, (0, 1), (2, 3))
    assert pair.p1 == (0, 1) and pair.p2 == (2, 3)

    x_gadget = kahn_dag({0: [2], 1: [2], 2: [3, 4], 3: [], 4: []})
    assert exhaustive_two_disjoint_paths(x_gadget, (0, 3), (1, 4)) is None
    with pytest.raises(SharedTerminalError):
        exhaustive_two_disjoint_paths(x_gadget, (0, 3), (0, 4))


def test_exhaustive_disjoint_pairs_on_long_dag_path():
    # a 1,200-vertex path as p1 and a separate edge as p2: the DAG path
    # enumeration must not recurse once per path vertex
    n = 1200
    dag = kahn_dag({i: [i + 1] for i in range(n - 1)} | {n - 1: [], n: [n + 1], n + 1: []})
    pair = exhaustive_two_disjoint_paths(dag, (0, n - 1), (n, n + 1))
    assert pair.p1 == tuple(range(n)) and pair.p2 == (n, n + 1)


if __name__ == "__main__":
    files = sys.argv[1:]
    for name in files:
        with open(name, encoding="utf-8") as fh:
            g = parse_graph(fh.read())
        ranked, solved = answer(ranked_next_to_shortest(g)), answer(solve(g))
        if ranked != solved:
            sys.exit(f"{name}: ranked oracle {ranked}, solve {solved}")
    print(f"{len(files)} graphs: the ranked oracle agrees with solve")
