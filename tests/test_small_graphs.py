"""Every small graph, exhaustively: `solve` against the oracle on each
graph of three sets, so that every tie pattern up to their size is met
(the small-scope hypothesis: most bugs show on some small instance).

A larger sweep, too long for the test run, is run by name:

    PYTHONPATH=src python tests/test_small_graphs.py 5-inner-arcs-1-2

It prints the number of graphs with an answer and exits 0 when every
graph agrees; the first disagreement fails with the graph.
"""
from __future__ import annotations

import itertools
import random
import sys

import pytest

from nextpath import (
    WeightedDigraph,
    cli,
    exhaustive_next_to_shortest,
    serialize_graph,
    solve,
    validate_path,
)


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
# Run by name only, in its own CI job: 1,594,323 graphs, about 4-6 min.
SWEEPS = {**SETS, "5-inner-arcs-1-2": (5, arcs(5, inner=True), (1, 2))}


def graphs(name):
    """Every graph of the named set: each arc of the pool absent or
    weighted by one of the set's weights."""
    n, pool, weights = SWEEPS[name]
    vertices = frozenset(range(n))
    for choice in itertools.product((None, *weights), repeat=len(pool)):
        yield WeightedDigraph(
            vertices, {arc: w for arc, w in zip(pool, choice) if w is not None}, 0, n - 1
        )


def sweep(name):
    """Check `solve` against the oracle on every graph of the named set:
    the same `found` and weight, and a simple path of that weight. Returns
    how many graphs have an answer."""
    found = 0
    for g in graphs(name):
        got, want = solve(g), exhaustive_next_to_shortest(g)
        assert (got.found, got.weight) == (want.found, want.weight), g
        if got.found:
            check = validate_path(g, got.path)
            assert check.simple and check.weight == got.weight, g
            found += 1
    return found


@pytest.mark.parametrize("name", SETS)
def test_solve_matches_the_oracle_on_every_small_graph(name):
    assert sweep(name)


def test_solve_and_oracle_print_the_same_weight_through_the_cli(tmp_path, capsys):
    """On a fixed sample of 25 graphs from the sets, `nextpath solve` and
    `nextpath oracle` both exit 0 and print the same first line: the
    weight, or NONE."""
    pool = [g for name in SETS for g in graphs(name)]
    firsts = set()
    for k, g in enumerate(random.Random(19).sample(pool, 25)):
        f = tmp_path / f"g{k}.txt"
        f.write_text(serialize_graph(g))
        lines = {}
        for command in ("solve", "oracle"):
            assert cli.main([command, str(f)]) == 0
            lines[command] = capsys.readouterr().out.splitlines()[0]
        assert lines["solve"] == lines["oracle"], g
        firsts.add(lines["solve"])
    assert "NONE" in firsts and len(firsts) > 2


if __name__ == "__main__":
    (set_name,) = sys.argv[1:]
    print(f"{set_name}: all agree, {sweep(set_name)} with an answer")
