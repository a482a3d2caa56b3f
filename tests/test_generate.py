"""instance-gen: reproducibility and by-construction guarantees."""
from __future__ import annotations

import pytest

from nextpath import (
    exhaustive_next_to_shortest,
    is_layered,
    layered_digraph,
    random_digraph,
    serialize_graph,
    shortest_distances,
    solve,
)


def test_same_seed_is_byte_identical():
    for seed in (0, 7, 123):
        a = serialize_graph(random_digraph(6, 0.5, 5, seed))
        b = serialize_graph(random_digraph(6, 0.5, 5, seed))
        assert a == b
        c = serialize_graph(layered_digraph(4, 2, 2, seed))
        d = serialize_graph(layered_digraph(4, 2, 2, seed))
        assert c == d


def test_full_probability_forces_both_edges():
    for seed in (1, 2, 3):
        g = random_digraph(2, 1.0, 1, seed)
        assert g.edges == {(0, 1): 1, (1, 0): 1}


def test_zero_probability_gives_edgeless_graph():
    g = random_digraph(5, 0.0, 3, 4)
    assert g.edges == {}
    assert not solve(g).found  # no path at all resolves to none


def test_random_digraph_validates_parameters():
    with pytest.raises(ValueError):
        random_digraph(1, 0.5, 1, 0)
    with pytest.raises(ValueError):
        random_digraph(3, 1.5, 1, 0)
    with pytest.raises(ValueError):
        random_digraph(3, 0.5, 0, 0)


def test_minimal_layered_instance_is_a_path():
    g = layered_digraph(3, 1, 0, seed=5)
    assert g.edges == {(0, 1): 1, (1, 2): 1}


@pytest.mark.parametrize("seed", range(15))
def test_layered_outputs_pass_the_predicate(seed):
    g = layered_digraph(3 + seed % 4, 1 + seed % 3, seed % 6, seed)
    assert is_layered(g, shortest_distances(g))


def test_layered_with_too_many_back_edges_rejected():
    with pytest.raises(ValueError, match="back-edges"):
        layered_digraph(2, 1, 2, seed=0)  # only (t, s) fits
    with pytest.raises(ValueError):
        layered_digraph(1, 1, 0, seed=0)
    with pytest.raises(ValueError):
        layered_digraph(3, 0, 0, seed=0)
    with pytest.raises(ValueError, match="back-edge weight must be at least 1"):
        layered_digraph(3, 2, 1, seed=0, back_weight_max=0)


def test_layered_instance_solver_oracle_cross_check():
    g = layered_digraph(4, 2, 1, seed=11)
    assert solve(g) == exhaustive_next_to_shortest(g)
