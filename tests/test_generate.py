"""instance-gen: reproducibility and by-construction guarantees."""
from __future__ import annotations

import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import back_edge_room, layered_tiers
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
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(st.data())
def test_layered_outputs_pass_the_predicate(seed, data):
    """Layered by construction: under each seed, a drawn shape, back-edge
    count within the room and weight bound give a layered graph whose
    layers are the generator's tiers: s, then `width` consecutive ids per
    middle layer, then t."""
    layers, width = data.draw(st.integers(2, 7)), data.draw(st.integers(1, 5))
    back_edges = data.draw(st.integers(0, min(back_edge_room(layers, width), 40)))
    g = layered_digraph(
        layers, width, back_edges, seed, back_weight_max=data.draw(st.integers(1, 9))
    )
    assert is_layered(g, shortest_distances(g))
    assert g.layering.layers == ((), *layered_tiers(layers, width))


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


# sha256 of serialize_graph(layered_digraph(layers, width, back_edges, seed,
# back_weight_max=M)), keyed by (layers, width, back_edges, seed, M). Every
# benchmark corpus and recorded answer rests on these bytes. The grid takes
# `Random.sample` down both of its paths: the copy of the population it
# draws from when the pairs are few (3 2 5 draws all 5, 5 3 12 draws 12 of
# 22) and the set of drawn numbers when they are many.
LAYERED_DIGESTS = {
    (2, 1, 0, 0, 3): "a90d3d0d424f88c18da3370d5e5db6d8e3b2241b6e8143f1a1ec5a535ef23779",
    (2, 1, 1, 5, 1): "860003362c29e99ecc1ffdadc9d09cdc0a92823fea55dbc8bc133288aab95a78",
    (3, 1, 0, 5, 3): "5226f7747ccb5afea274ac736163fb2345332c8ed3c9ea6355a98574819b0c50",
    (3, 2, 5, 0, 3): "96aab99e0497ad303aeaa2a0b488f3112703579e078c986ab175bd62552594b6",
    (3, 2, 5, 1, 9): "9b8878f3c30799061a063540a607f6b293e215d577e96f426fb238b33c0b58a2",
    (4, 2, 2, 7, 3): "3ce2488e197c81975d9670d709e5199e4c0c49b235bfdbba291dc99bcd4d1ae2",
    (5, 3, 12, 2, 2): "5ed7980f042bec9511b509e572e4ddd26415e092d1613951794125c095490b0e",
    (7, 3, 8, 3, 3): "07811f1a92ba04096f155aaa4ed15072f1fa3b856960734900602937624d4548",
    (12, 6, 20, 7, 3): "21a6071efa39e68c6b0b326372ded1824871a4e097820e03d87be4162ec9f407",
    (12, 6, 150, 4, 5): "02676bac7510960a054563eafb186512774d4d88b28b148de5f18471437669e1",
    (20, 6, 150, 11, 3): "11a34487197702b40ac1ed728d6f589694edd751ac1b7bcc2ee2dd5cf6ca5d52",
    (36, 18, 200, 0, 3): "c0bc223c00c70251d156d1bfa06650e817b96339267d07967dd8b5122cd7fcd3",
    (36, 18, 200, 11, 3): "bf4f7c03defec88e0000b3ea0ea126ecc02d1fb6821850029c7a43ff5094fa3e",
    (36, 18, 200, 1401, 7): "16fcafda36be64cea03f80116d88fc3392e39b1923e1fdd3233e40f02596f8ae",
    (40, 8, 0, 0, 3): "d659d1280f1fa9855d431d5e7a7ea860aa39bd5f96d1e617b503c6f54103081b",
    (40, 8, 0, 11, 3): "b839df45340ffcf2f4c435e99bae5aa20c4e36afdd2fea1f00b5e03f015057be",
    (60, 40, 400, 1, 3): "6300457ce62fcd3121a825cb2da10de759f1f62d9c0a0cbdce2678904ff47660",
    (300, 1, 10, 0, 3): "723e60eac1f018952fae10e7ed8a7936f3105f3e1fd85f22c9ebc5cf80eaf9ce",
}
# How many back-edges fit, as the error names it, keyed by (layers, width,
# back_edges); seed 0.
BACK_EDGE_ROOM = {
    (2, 1, 2): 1,
    (3, 2, 6): 5,
    (4, 2, 100): 13,
    (36, 18, 1000000): 182989,
}


@pytest.mark.parametrize("params", LAYERED_DIGESTS, ids=lambda p: "-".join(map(str, p)))
def test_layered_output_is_pinned(params):
    layers, width, back_edges, seed, m = params
    text = serialize_graph(layered_digraph(layers, width, back_edges, seed, back_weight_max=m))
    assert hashlib.sha256(text.encode()).hexdigest() == LAYERED_DIGESTS[params]


@pytest.mark.parametrize("params", BACK_EDGE_ROOM, ids=lambda p: "-".join(map(str, p)))
def test_layered_names_the_back_edges_that_fit(params):
    room = BACK_EDGE_ROOM[params]
    assert back_edge_room(*params[:2]) == room
    with pytest.raises(ValueError, match=f"^at most {room} back-edges fit these layer parameters$"):
        layered_digraph(*params, seed=0)
    layers, width, _ = params
    if room < 100:  # and every one of them is drawn
        assert len(layered_digraph(layers, width, room, seed=0).layering.back) == room


def test_layered_set_up_memory_is_linear():
    """3,000 single-vertex layers have about 4.5 million (later, earlier)
    pairs; drawing 10 of them must not list them all."""
    tracemalloc.start()
    try:
        layered_digraph(3000, 1, 10, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
