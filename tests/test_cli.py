"""CLI: subcommands, output contracts, exit codes."""
from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TRIANGLE
import nextpath
import nextpath.cli
from nextpath import InternalInvariantError, TraceError
from nextpath.cli import main
from nextpath.graph import edge_slack

PARALLEL_CHAINS_TEXT = "6 7 0 5\n0 1 1\n1 2 1\n2 5 1\n0 3 1\n3 4 1\n4 5 1\n4 1 1\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE)
    return str(path)


@pytest.fixture
def chains_file(tmp_path):
    path = tmp_path / "chains.txt"
    path.write_text(PARALLEL_CHAINS_TEXT)
    return str(path)


def test_solve_triangle(capsys, triangle_file):
    code, out, _ = run(capsys, "solve", triangle_file)
    assert code == 0
    assert out == "2\n0 1 2\n"


def test_solve_single_edge_none(capsys, tmp_path):
    f = tmp_path / "edge.txt"
    f.write_text("2 1 0 1\n0 1 1\n")
    code, out, _ = run(capsys, "solve", str(f))
    assert code == 0 and out == "NONE\n"


def test_solve_reports_descaled_weights(capsys, tmp_path):
    f = tmp_path / "dec.txt"
    f.write_text("3 3 0 2\n0 1 0.5\n1 2 0.5\n0 2 0.5\n")
    code, out, _ = run(capsys, "solve", str(f))
    assert code == 0 and out.splitlines()[0] == "1"


def test_parse_error_exits_2(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("2 1 0 1\n0 1 0\n")
    code, _, err = run(capsys, "solve", str(f))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/graph.txt")
    assert code == 2


@pytest.mark.parametrize(
    "text, err",
    [
        ("3 3 0\n0 1 1\n", "error: line 1: expected header 'n m s t'\n"),
        ("# a comment\n3 -1 0 2\n", "error: line 2: negative edge count\n"),
        ("3 0 0 3\n", "error: line 1: source/sink id out of range\n"),
        ("3 0 -1 2\n", "error: line 1: source/sink id out of range\n"),
        ("# only a comment\n\n", "error: empty input: missing header line\n"),
    ],
)
def test_header_errors_exit_2(capsys, tmp_path, text, err):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    assert run(capsys, "solve", str(f)) == (2, "", err)


@pytest.mark.parametrize("exc", [InternalInvariantError, TraceError])
def test_internal_errors_exit_3_without_a_traceback(capsys, monkeypatch, triangle_file, exc):
    def fail(g):
        raise exc("broken invariant")

    monkeypatch.setattr("nextpath.cli.solve_detailed", fail)
    assert run(capsys, "solve", triangle_file) == (3, "", "internal error: broken invariant\n")


def test_an_invalid_answer_exits_3(capsys, monkeypatch, tmp_path):
    """A lift that drops the answer's last vertex leaves a path that misses
    t; the pipeline's check refuses it, and `solve` exits 3."""
    f = tmp_path / "layered.txt"
    f.write_text(nextpath.serialize_graph(nextpath.layered_digraph(7, 3, 8, 0)))
    lift = nextpath.pipeline.lift_path
    monkeypatch.setattr(nextpath.pipeline, "lift_path", lambda trace, path: lift(trace, path)[:-1])
    code, out, err = run(capsys, "solve", str(f))
    assert (code, out) == (3, "") and err.startswith("internal error: built an invalid answer ")


def test_out_of_memory_exits_2_without_a_traceback(capsys, monkeypatch, triangle_file):
    def fail(g):
        raise MemoryError

    monkeypatch.setattr("nextpath.cli.solve_detailed", fail)
    assert run(capsys, "solve", triangle_file) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "command,text,code",
    [
        pytest.param("solve", TRIANGLE, 0, id="exit-0"),
        pytest.param("solve", "3 1 0 2\n0 1 x\n", 2, id="exit-2"),
        pytest.param("solve", TRIANGLE, 3, id="exit-3"),
        pytest.param("oracle", PARALLEL_CHAINS_TEXT, 4, id="exit-4"),
    ],
)
def test_main_pauses_the_collector_and_restores_it(
    capsys, monkeypatch, tmp_path, collecting, command, text, code
):
    """A command runs with the cyclic collector paused, and `main` leaves it
    as the caller had it on every exit."""
    seen = []
    parse = nextpath.cli.parse_graph

    def watching(text):
        seen.append(gc.isenabled())
        return parse(text)

    def fail(g):
        raise InternalInvariantError("broken invariant")

    monkeypatch.setattr("nextpath.cli.parse_graph", watching)
    if code == 3:
        monkeypatch.setattr("nextpath.cli.solve_detailed", fail)
    f = tmp_path / "g.txt"
    f.write_text(text)
    argv = [command, str(f)] + (["--budget", "1"] if command == "oracle" else [])
    was = gc.isenabled()
    try:
        gc.enable() if collecting else gc.disable()
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is collecting
    finally:
        gc.enable() if was else gc.disable()
    assert seen == [False]


def test_module_entry_point_solves_the_readme_triangle(triangle_file):
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-m", "nextpath", "solve", triangle_file],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "2\n0 1 2\n", "")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_a_success(triangle_file, unbuffered):
    """A reader that has gone away, as after `| head -c 1`, is not an input
    error: exit 0 and nothing on stderr, whether the write that fails is a
    print's or the final flush's."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "nextpath", "solve", triangle_file],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, check=False,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


def test_oracle_agrees_with_solve(capsys, chains_file):
    code, solve_out, _ = run(capsys, "solve", chains_file)
    assert code == 0
    code, oracle_out, _ = run(capsys, "oracle", chains_file)
    assert code == 0
    assert solve_out == oracle_out
    assert solve_out.splitlines()[0] == "5"


def test_oracle_budget_exit_code(capsys, chains_file):
    code, _, err = run(capsys, "oracle", chains_file, "--budget", "1")
    assert code == 4 and "budget" in err


def test_oracle_negative_budget_exits_2(capsys, triangle_file):
    code, out, err = run(capsys, "oracle", triangle_file, "--budget", "-5")
    assert code == 2 and out == ""
    assert err == "error: budget must be non-negative\n"


def test_oracle_on_long_path_graph_answers_none(capsys, tmp_path):
    n = 1200
    f = tmp_path / "long.txt"
    f.write_text(f"{n} {n - 1} 0 {n - 1}\n" + "".join(f"{i} {i + 1} 1\n" for i in range(n - 1)))
    code, out, err = run(capsys, "oracle", str(f))
    assert code == 0 and out == "NONE\n" and err == ""


def test_check_round_trip(capsys, chains_file, tmp_path):
    code, out, _ = run(capsys, "solve", chains_file)
    weight, path_line = out.splitlines()
    path_file = tmp_path / "path.txt"
    path_file.write_text(path_line + "\n")
    code, out, _ = run(capsys, "check", chains_file, str(path_file))
    assert code == 0
    assert out.splitlines()[-1] == f"NOT-SHORTEST, weight {weight}"
    assert "uses-back-edge=yes" in out


def test_check_shortest_path(capsys, triangle_file, tmp_path):
    path_file = tmp_path / "p.txt"
    path_file.write_text("0 2\n")
    code, out, _ = run(capsys, "check", triangle_file, str(path_file))
    assert code == 0 and out.splitlines()[-1] == "SHORTEST"


def test_check_rejects_non_ascii_integer_path_ids(capsys, triangle_file, tmp_path):
    path_file = tmp_path / "p.txt"
    path_file.write_text("0 1\n+2\n")
    code, _, err = run(capsys, "check", triangle_file, str(path_file))
    assert code == 2
    assert "line 2" in err and "integer vertex ids" in err


def test_check_missing_edge(capsys, triangle_file, tmp_path):
    path_file = tmp_path / "p.txt"
    path_file.write_text("2 0\n")
    code, out, _ = run(capsys, "check", triangle_file, str(path_file))
    assert code == 0
    assert out.startswith("INVALID: missing edge")


@pytest.mark.parametrize(
    "graph, path, verdict",
    [
        (TRIANGLE, "0 1\n", "NOT-AN-S-T-PATH"),
        ("3 4 0 2\n0 1 1\n1 0 1\n1 2 1\n0 2 1\n", "0 1 0 1 2\n", "NOT-SIMPLE"),
    ],
)
def test_check_verdicts_on_walks_that_are_not_simple_s_t_paths(
    capsys, tmp_path, graph, path, verdict
):
    graph_file, path_file = tmp_path / "g.txt", tmp_path / "p.txt"
    graph_file.write_text(graph)
    path_file.write_text(path)
    code, out, err = run(capsys, "check", str(graph_file), str(path_file))
    assert (code, out.splitlines()[-1], err) == (0, verdict, "")


def test_check_unknown_vertex_is_invalid(capsys, triangle_file, tmp_path):
    path_file = tmp_path / "p.txt"
    path_file.write_text("0 7 2\n")
    assert run(capsys, "check", triangle_file, str(path_file)) == (
        0, "INVALID: unknown vertex 7\n", ""
    )


def test_check_empty_path_file_exits_2(capsys, triangle_file, tmp_path):
    path_file = tmp_path / "p.txt"
    path_file.write_text("# no ids\n\n")
    code, out, err = run(capsys, "check", triangle_file, str(path_file))
    assert (code, out, err) == (2, "", "error: empty path file\n")


def test_gen_solve_oracle_loop(capsys, tmp_path):
    out_file = tmp_path / "gen.txt"
    code, _, _ = run(
        capsys, "gen", "layered", "--layers", "4", "--width", "2",
        "--back-edges", "2", "--seed", "11", "-o", str(out_file),
    )
    assert code == 0
    code, solve_out, _ = run(capsys, "solve", str(out_file))
    assert code == 0
    code, oracle_out, _ = run(capsys, "oracle", str(out_file))
    assert code == 0
    assert solve_out == oracle_out


def test_gen_is_reproducible(capsys):
    code, first, _ = run(capsys, "gen", "random", "--n", "6", "--p", "0.5",
                         "--w-max", "4", "--seed", "3")
    assert code == 0
    code, second, _ = run(capsys, "gen", "random", "--n", "6", "--p", "0.5",
                          "--w-max", "4", "--seed", "3")
    assert first == second


def test_gen_rejects_a_back_weight_max_below_1(capsys):
    code, out, err = run(capsys, "gen", "layered", "--layers", "3", "--width", "2",
                         "--back-edges", "1", "--back-weight-max", "0")
    assert code == 2 and out == ""
    assert err == "error: maximum back-edge weight must be at least 1\n"


def test_gen_rejects_a_negative_back_edge_count(capsys):
    assert run(capsys, "gen", "layered", "--layers", "3", "--width", "2", "--back-edges", "-1") == (
        2, "", "error: back-edge count must be non-negative\n"
    )


def test_vdp_feasible_and_infeasible(capsys, tmp_path):
    f = tmp_path / "dag.txt"
    f.write_text("4 2 0 3\n0 1 1\n2 3 1\n")
    code, out, _ = run(capsys, "vdp", str(f), "0", "1", "2", "3")
    assert code == 0 and out == "p1: 0 1\np2: 2 3\n"

    x = tmp_path / "x.txt"
    x.write_text("5 4 0 4\n0 2 1\n1 2 1\n2 3 1\n2 4 1\n")
    code, out, _ = run(capsys, "vdp", str(x), "0", "3", "1", "4")
    assert code == 0 and out == "INFEASIBLE\n"


def test_vdp_contract_errors_exit_2(capsys, tmp_path):
    f = tmp_path / "dag.txt"
    f.write_text("4 2 0 3\n0 1 1\n2 3 1\n")
    code, _, err = run(capsys, "vdp", str(f), "0", "1", "0", "3")
    assert code == 2 and "share a terminal" in err

    cyc = tmp_path / "cyc.txt"
    cyc.write_text("3 3 0 2\n0 1 1\n1 0 1\n0 2 1\n")
    code, _, err = run(capsys, "vdp", str(cyc), "0", "1", "1", "2")
    assert code == 2 and "cycle" in err


def test_stats_layered_instance(capsys, chains_file):
    code, out, _ = run(capsys, "stats", chains_file)
    assert code == 0
    lines = dict(line.split(": ") for line in out.splitlines())
    assert lines["vertices"] == "6" and lines["edges"] == "7"
    assert lines["back-edges"] == "1" and lines["forward-edges"] == "6"
    assert lines["shortest-distance"] == "3"
    assert lines["straight"] == "yes" and lines["layered"] == "yes"
    assert lines["layering-violations"] == "0"


def test_stats_non_straight_instance(capsys, triangle_file):
    code, out, _ = run(capsys, "stats", triangle_file)
    assert code == 0
    lines = dict(line.split(": ") for line in out.splitlines())
    assert lines["straight"] == "no"
    assert "layering-violations" not in lines


def test_stats_counts_edges_with_an_unreachable_tail_as_unclassified(capsys, tmp_path):
    # 0->2 has slack 2 (back), 0->1 and 1->2 are tight, 3 is cut off from s
    f = tmp_path / "cut.txt"
    f.write_text("4 4 0 2\n0 1 1\n1 2 1\n0 2 4\n3 1 1\n")
    code, out, _ = run(capsys, "stats", str(f))
    assert code == 0
    lines = dict(line.split(": ") for line in out.splitlines())
    assert lines["back-edges"] == "1" and lines["forward-edges"] == "2"
    assert lines["unclassified-edges"] == "1"
    assert lines["straight"] == "no"


def test_stats_classifies_edges_from_the_index(capsys, monkeypatch, tmp_path):
    """`stats` reads a parsed graph off its `index` rows and never derives
    its `edges`; the counts are those of the edge map."""
    f = tmp_path / "layered.txt"
    f.write_text(nextpath.serialize_graph(nextpath.layered_digraph(6, 3, 8, 2)))
    loaded = []

    def load(path, parse=nextpath.cli._load_graph):
        loaded.append(parse(path))
        return loaded[-1]

    monkeypatch.setattr(nextpath.cli, "_load_graph", load)
    code, out, _ = run(capsys, "stats", str(f))
    [g] = loaded
    assert code == 0 and "index" in vars(g) and "edges" not in vars(g)
    lines = dict(line.split(": ") for line in out.splitlines())
    d = nextpath.shortest_distances(g)
    slacks = [edge_slack(d, u, v, w) for (u, v), w in dict(g.edges).items()]
    assert (lines["back-edges"], lines["forward-edges"]) == ("8", str(slacks.count(0)))
    assert int(lines["edges"]) == len(slacks) == slacks.count(0) + 8


def test_dump_trace_goes_to_stderr(capsys, triangle_file):
    plain_code, plain_out, _ = run(capsys, "solve", triangle_file)
    code, out, err = run(capsys, "solve", triangle_file, "--dump-trace")
    assert code == plain_code == 0
    assert out == plain_out  # stdout contract untouched
    assert "eliminate 1" in err
    assert "candidate weight=2" in err


def test_dump_trace_layerize_section_lists_removals_then_candidates(capsys, tmp_path):
    # 1->4 and 4->1 join one layer; 0->2 skips a layer and stays whole.
    f = tmp_path / "skip.txt"
    f.write_text("5 8 0 3\n0 1 1\n1 2 1\n0 2 2\n2 3 1\n0 4 1\n4 2 1\n1 4 1\n4 1 2\n")
    code, out, err = run(capsys, "solve", str(f), "--dump-trace")
    assert code == 0 and out == "4\n0 1 4 2 3\n"
    assert err.splitlines() == [
        "# straighten: 0 steps, 0 candidates",
        "# layerize: 2 steps, 2 candidates",
        "remove-back-edge 1->4",
        "remove-back-edge 4->1",
        "candidate weight=4: 0 1 4 2 3",
        "candidate weight=5: 0 4 1 2 3",
    ]
