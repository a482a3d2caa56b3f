"""Metamorphic relations: four rewrites of a graph whose answer is known
from the original's, checked on seeded samples of `nextpath.generate` and
of the builders in `conftest`. Each compares `found` and the weight only,
as a rewrite may change which of several lightest paths is first.

- reversal: every edge transposed and s and t swapped; a simple path
  reversed is one of the same weight, so the answer weighs the same;
- scaling: every weight times k >= 2, so the answer weighs k times as much;
- subdivision: up to 5 edges of weight >= 2 each split in two by a fresh
  vertex, which adds no simple s-t path and loses none;
- relabelling: the ids mapped one to one onto a sparse set, drawn from
  range(10n) or from negative values, so that no slot of the graph's index
  equals its id.

The same relations run over any edge-list files:

    PYTHONPATH=src python tests/test_metamorphic.py FILE...

It prints the number of graphs checked and exits 0 when every relation
holds; the first that fails stops it with the file and the relation.
"""
from __future__ import annotations

import random
import sys

import pytest

from conftest import bead_graph, skip_edge_graph, skip_path_graph, with_span_edges
from nextpath import (
    WeightedDigraph,
    exhaustive_next_to_shortest,
    layered_digraph,
    parse_graph,
    random_digraph,
    solve,
)


def reversal(g, rng):
    edges = {(v, u): w for (u, v), w in g.edges.items()}
    return WeightedDigraph(g.vertices, edges, g.t, g.s, g.scale), 1


def scaling(g, rng):
    k = rng.randint(2, 5)
    edges = {e: k * w for e, w in g.edges.items()}
    return WeightedDigraph(g.vertices, edges, g.s, g.t, g.scale), k


def subdivision(g, rng):
    heavy = sorted(e for e, w in g.edges.items() if w >= 2)
    edges = dict(g.edges)
    fresh = max(g.vertices) + 1
    split = rng.sample(heavy, min(5, len(heavy)))
    for k, (u, v) in enumerate(split):
        w = edges.pop((u, v))
        a = rng.randint(1, w - 1)
        edges[(u, fresh + k)], edges[(fresh + k, v)] = a, w - a
    vertices = g.vertices | set(range(fresh, fresh + len(split)))
    return WeightedDigraph(vertices, edges, g.s, g.t, g.scale), 1


def relabelling(g, rng):
    n = len(g.vertices)
    pool = range(10 * n) if rng.random() < 0.5 else range(-10 * n, 0)
    m = dict(zip(sorted(g.vertices), rng.sample(pool, n)))
    edges = {(m[u], m[v]): w for (u, v), w in g.edges.items()}
    return WeightedDigraph(m.values(), edges, m[g.s], m[g.t], g.scale), 1


RELATIONS = {f.__name__: f for f in (reversal, scaling, subdivision, relabelling)}


def check_relations(g, seed):
    """Solve g and its rewrite by each relation, seeded by `seed`, and
    assert that the answers agree: the same `found`, and the rewrite's
    weight k times the original's. The message names the relation."""
    want = solve(g)
    for name, rewrite in RELATIONS.items():
        h, k = rewrite(g, random.Random(f"{name}:{seed}"))
        got = solve(h)
        expected = (want.found, None if want.weight is None else k * want.weight)
        assert (got.found, got.weight) == expected, f"{name} does not hold (seed {seed})"


FAMILIES = {
    "random-12": (lambda seed: random_digraph(12, 0.3, 5, seed), 150),
    "random-100": (lambda seed: random_digraph(100, 0.045, 10, seed), 30),
    "random-40": (lambda seed: random_digraph(40, 0.15, 2, seed), 40),
    "layered-10": (lambda seed: layered_digraph(10, 4, 12, seed), 60),
    "layered-36": (lambda seed: layered_digraph(36, 18, 200, seed), 6),
    "skip-edge": (skip_edge_graph, 20),
    "span-edges": (lambda seed: with_span_edges(layered_digraph(8, 3, 10, seed), 12, seed), 20),
    "bead": (lambda seed: bead_graph(4, 3, 10, seed), 10),
    "skip-path": (lambda seed: skip_path_graph(20, 6, seed), 10),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_relations_hold_on_every_seeded_graph(family):
    build, count = FAMILIES[family]
    for seed in range(count):
        check_relations(build(seed), seed)


def test_solve_matches_the_oracle_on_sparse_ids():
    """On random graphs relabelled onto sparse ids, negative ones half of
    the time, `solve` gives the oracle's `found` and weight, and its path
    is a path of the relabelled graph."""
    for seed in range(100):
        rng = random.Random(f"sparse:{seed}")
        g, _ = relabelling(random_digraph(rng.randint(6, 12), 0.3, 4, seed), rng)
        got, want = solve(g), exhaustive_next_to_shortest(g)
        assert (got.found, got.weight) == (want.found, want.weight), g
        assert got.path is None or set(got.path) <= g.vertices


if __name__ == "__main__":
    files = sys.argv[1:]
    for k, name in enumerate(files):
        with open(name, encoding="utf-8") as fh:
            g = parse_graph(fh.read())
        try:
            check_relations(g, k)
        except AssertionError as exc:
            sys.exit(f"{name}: {exc}")
    print(f"{len(files)} graphs: all {len(RELATIONS)} relations hold")
