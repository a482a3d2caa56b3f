"""Same answers: `nextpath solve --dump-trace` on a fixed seeded corpus.

Each entry of data/solve_digests.json is the sha256 of the exit code, stdout
and stderr of one solve, so any change to an answer, a reduction step or a
recorded candidate shows up here. When an output change is intended, say
why in the change and regenerate the file from the repository root with

    PYTHONPATH=src python tests/test_solve_digests.py

which prints the name of each entry whose digest changed, so that the
change can list them.
"""
from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from conftest import bead_graph, relabelled, skip_edge_graph, with_span_edges
from nextpath import WeightedDigraph, layered_digraph, random_digraph, serialize_graph
from nextpath.cli import main

DIGESTS = Path(__file__).parent / "data" / "solve_digests.json"


def corpus():
    """(name, graph) pairs: ties everywhere (weights up to 3), back-edges
    with tied residual paths, skip edges, decimal weights and NONE answers
    (bead graphs: a full scan of the layered search)."""
    for seed in range(22):
        n, p = 6 + seed % 5, (0.25, 0.35, 0.45)[seed % 3]
        yield f"random_digraph({n}, {p}, 3, {seed})", random_digraph(n, p, 3, seed)
    for seed in range(22):
        layers, width, back = 4 + seed % 4, 2 + seed % 2, 2 * (seed % 5)
        yield (
            f"layered_digraph({layers}, {width}, {back}, {seed})",
            layered_digraph(layers, width, back, seed),
        )
    for seed in range(4):
        yield (
            f"layered_digraph(5, 3, 6, {seed}, back_weight_max=1)",
            layered_digraph(5, 3, 6, seed, back_weight_max=1),
        )
    # The answers of these depend on the residual path's tie rule: a vertex
    # keeps the first parent that reaches its distance.
    for layers, width, back, seed, bw in (
        (5, 2, 4, 20, 3), (5, 2, 8, 1, 2), (5, 3, 4, 29, 2),
        (5, 3, 6, 8, 3), (6, 2, 8, 21, 2), (6, 3, 8, 17, 3),
    ):
        yield (
            f"layered_digraph({layers}, {width}, {back}, {seed}, back_weight_max={bw})",
            layered_digraph(layers, width, back, seed, back_weight_max=bw),
        )
    # Mid-size graphs on which the incumbent prunes most endpoint pairs; the
    # (12, 6, 8, 5) and (12, 5, 10, 8) scans never reach the floor.
    for layers, width, back, seed, bw in (
        (12, 6, 40, 0, 3), (12, 6, 40, 1, 3), (12, 6, 40, 3, 3), (12, 6, 40, 5, 3),
        (12, 6, 8, 5, 3), (12, 5, 10, 8, 3), (10, 6, 12, 5, 3),
        (12, 6, 15, 1, 1), (12, 6, 15, 4, 1), (12, 6, 10, 0, 1),
    ):
        yield (
            f"layered_digraph({layers}, {width}, {back}, {seed}, back_weight_max={bw})",
            layered_digraph(layers, width, back, seed, back_weight_max=bw),
        )
    for seed in range(10):
        yield f"skip_edge_graph({seed})", skip_edge_graph(seed)
    for seed in range(10):
        wide, width, back = 2 + seed % 3, 2 + seed % 2, 4 + seed
        yield f"bead_graph({wide}, {width}, {back}, {seed})", bead_graph(wide, width, back, seed)
    # Ids that do not grow with the layer: the answer path depends on the
    # forward DAG's topological order, which ranks by (d(s,u), u).
    for seed, layers, width, back, bw, skips in ((419, 8, 3, 2, 3, 5), (1913, 8, 5, 2, 2, 4)):
        g = layered_digraph(layers, width, back, seed, back_weight_max=bw)
        yield (
            f"relabelled(with_span_edges(layered_digraph({layers}, {width}, {back}, {seed}, "
            f"back_weight_max={bw}), {skips}, {seed}), {seed})",
            relabelled(with_span_edges(g, skips, seed), seed),
        )
    g = random_digraph(8, 0.4, 25, 7)
    yield "random_digraph(8, 0.4, 25, 7) at scale 1", WeightedDigraph(
        g.vertices, g.edges, g.s, g.t, scale=1
    )


def solve_digest(g: WeightedDigraph, workdir: Path) -> str:
    path = workdir / "g.txt"
    path.write_text(serialize_graph(g))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["solve", "--dump-trace", str(path)])
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests(workdir: Path) -> dict[str, str]:
    return {name: solve_digest(g, workdir) for name, g in corpus()}


def test_solve_output_matches_recorded_digests(tmp_path):
    assert digests(tmp_path) == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = digests(Path(tmp))
    for name, digest in new.items():
        if old.get(name) != digest:
            print(name)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(new, indent=1) + "\n")
