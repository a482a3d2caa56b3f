"""CLI: subcommands, output contracts, exit codes."""
from __future__ import annotations

import pytest

from conftest import TRIANGLE
from nextpath.cli import main

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


def test_dump_trace_goes_to_stderr(capsys, triangle_file):
    plain_code, plain_out, _ = run(capsys, "solve", triangle_file)
    code, out, err = run(capsys, "solve", triangle_file, "--dump-trace")
    assert code == plain_code == 0
    assert out == plain_out  # stdout contract untouched
    assert "eliminate 1" in err
    assert "candidate weight=2" in err
