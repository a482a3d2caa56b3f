"""Every small graph, exhaustively: `solve` against the oracle on each
graph of three sets, so that every tie pattern up to their size is met
(the small-scope hypothesis: most bugs show on some small instance)."""
from __future__ import annotations

import itertools

import pytest

from nextpath import WeightedDigraph, exhaustive_next_to_shortest, solve, validate_path


def arcs(n, *, inner):
    """Every arc on vertices 0..n-1 with s = 0 and t = n - 1; with `inner`,
    only those that neither enter s nor leave t."""
    return [
        (u, v)
        for u, v in itertools.permutations(range(n), 2)
        if not inner or (v != 0 and u != n - 1)
    ]


SETS = {
    "4-all-arcs-unit": (4, arcs(4, inner=False), (1,)),  # 4,096 graphs
    "4-inner-arcs-1-2": (4, arcs(4, inner=True), (1, 2)),  # 2,187 graphs
    "5-inner-arcs-unit": (5, arcs(5, inner=True), (1,)),  # 8,192 graphs
}


@pytest.mark.parametrize("name", SETS)
def test_solve_matches_the_oracle_on_every_small_graph(name):
    n, pool, weights = SETS[name]
    vertices = frozenset(range(n))
    found = 0
    for choice in itertools.product((None, *weights), repeat=len(pool)):
        g = WeightedDigraph(
            vertices, {arc: w for arc, w in zip(pool, choice) if w is not None}, 0, n - 1
        )
        got, want = solve(g), exhaustive_next_to_shortest(g)
        assert (got.found, got.weight) == (want.found, want.weight), g
        if got.found:
            check = validate_path(g, got.path)
            assert check.simple and check.weight == got.weight, g
            found += 1
    assert found
