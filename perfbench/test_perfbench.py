"""Tests of the benchmark's own generators, checker and tracer.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import nextpath  # noqa: E402
from nextpath import (  # noqa: E402
    exhaustive_next_to_shortest,
    is_layered,
    is_straight,
    serialize_graph,
    shortest_distances,
)
from nextpath.cli import main as cli_main  # noqa: E402

import tracing  # noqa: E402
from check import check_solve_output  # noqa: E402
from families import bead_digraph, layer_skip_digraph  # noqa: E402
from workloads import MAX_SOLVE_S, STRATUM, WORKLOADS  # noqa: E402


def _skip(seed):
    return layer_skip_digraph(12, 4, 15, seed, max_span=5, slack_share=0.3)


def _bead(seed):
    return bead_digraph(4, 3, 10, seed)


@pytest.mark.parametrize("build", [_skip, _bead])
def test_families_are_deterministic_per_seed(build):
    assert serialize_graph(build(3)) == serialize_graph(build(3))
    assert serialize_graph(build(3)) != serialize_graph(build(4))


@pytest.mark.parametrize("seed", range(10))
def test_layer_skip_is_straight_but_not_layered(seed):
    g = _skip(seed)
    d = shortest_distances(g)
    assert is_straight(g, d)
    assert not is_layered(g, d)


@pytest.mark.parametrize("seed", range(30))
def test_small_beads_have_no_next_to_shortest_path(seed):
    g = _bead(seed)  # 9 layers
    assert is_layered(g, shortest_distances(g))
    assert not exhaustive_next_to_shortest(g).found


def test_stratified_corpus_is_seeded_and_covers_every_stratum():
    w = WORKLOADS["layered-none"]
    cost = {i: float(i) for i in range(w.pool)}
    picks = w.instance_seeds(7, cost)
    assert picks == w.instance_seeds(7, cost)
    assert picks != w.instance_seeds(8, cost)
    assert sorted(p // STRATUM for p in picks) == list(range(w.corpus))


def test_recorded_pools_fit_the_workloads():
    refs = json.loads((Path(__file__).resolve().parent / "references.json").read_text())
    assert set(refs) == set(WORKLOADS)
    for name, w in WORKLOADS.items():
        pool, excluded = refs[name]["pool"], refs[name]["excluded"]
        assert len(pool) == w.pool
        assert all(seconds <= MAX_SOLVE_S for _answer, seconds in pool.values())
        assert all(seconds > MAX_SOLVE_S for seconds in excluded.values())
        # the pool is the lowest seeds that were not left out
        seeds = set(map(int, pool)) | set(map(int, excluded))
        assert seeds == set(range(len(pool) + len(excluded)))


TRIANGLE = "3 3 0 2\n0 1 1\n1 2 1\n0 2 1\n"


@pytest.mark.parametrize(
    "stdout, reference, ok",
    [
        ("2\n0 1 2\n", "2", True),
        ("2\n0 1 2\n", "3", False),  # weight differs from the reference
        ("3\n0 1 2\n", "3", False),  # path weighs 2, not the printed 3
        ("2\n0 2 1 2\n", "2", False),  # not simple, (2, 1) not an edge
        ("1\n1 2\n", "1", False),  # does not start at s
        ("NONE\n", "2", False),
        ("NONE\n", "NONE", True),
        ("2\n0 1 2\n", "NONE", False),
    ],
)
def test_checker(stdout, reference, ok):
    assert (check_solve_output(TRIANGLE, stdout, reference) is None) == ok


def _solve(file):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli_main(["solve", str(file)]) == 0
    return out.getvalue()


def test_tracer_restores_attributes_and_keeps_stdout(tmp_path):
    file = tmp_path / "g.txt"
    file.write_text(serialize_graph(nextpath.random_digraph(25, 0.15, 5, 1)))
    owners = tracing.SPANS + tracing.HOT + tracing.COUNTED
    before = [getattr(owner, attr) for owner, attr, _name in owners]
    plain = _solve(file)
    tracer = tracing.Tracer()
    with tracer, tracer.request():
        traced = _solve(file)
    assert traced == plain
    assert [getattr(owner, attr) for owner, attr, _name in owners] == before
    metrics = tracer.per_solve()
    assert metrics["reduction.straighten_s"] > 0
    assert metrics["reduction.distances_calls"] >= 1
    root = [s for s in tracer.spans if s.parent is None]
    assert len(root) == 1
    assert all(s.request == root[0].request for s in tracer.spans)
