"""Command-line interface.

Subcommands: solve, check, oracle, gen, vdp, stats. Graphs travel in the
edge-list text format (see graph.parse_graph); path files hold one line of
space-separated vertex ids.

Exit codes: 0 success (including a NONE answer and INFEASIBLE queries,
and a reader that closes stdout early, as `| head -c 1` does: the rest of
the output is dropped, and nothing goes to stderr), 2 unreadable or
malformed input, or out of memory (one line, `error: out of memory`, never
a traceback), 3 internal invariant failure, 4 oracle budget exceeded.
"""
from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

from .disjoint import CyclicGraphError, ForwardDag, SharedTerminalError, two_disjoint_paths
from .generate import layered_digraph, random_digraph
from .graph import (
    GraphFormatError,
    InternalInvariantError,
    InvalidPathError,
    WeightedDigraph,
    edge_slack,
    format_weight,
    is_straight,
    layering_violations,
    parse_graph,
    parse_int,
    serialize_graph,
    validate_path,
)
from .oracle import BudgetExceeded, DEFAULT_BUDGET, exhaustive_next_to_shortest
from .pipeline import solve_detailed
from .reduction import BackEdgeRemoval, EliminationRecord, TraceError


def _load_graph(path: str) -> WeightedDigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _load_path_file(path: str) -> tuple[int, ...]:
    ids: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                ids.extend(parse_int(tok) for tok in raw.split("#", 1)[0].split())
            except ValueError:
                raise GraphFormatError("path file must hold integer vertex ids", lineno) from None
    if not ids:
        raise GraphFormatError("empty path file")
    return tuple(ids)


def _print_outcome(g: WeightedDigraph, path, weight) -> None:
    if path is None:
        print("NONE")
    else:
        print(format_weight(weight, g.scale))
        print(" ".join(str(v) for v in path))


def _dump_trace(result, g: WeightedDigraph) -> None:
    for name, trace in (
        ("straighten", result.straighten_trace),
        ("layerize", result.layerize_trace),
    ):
        candidates = trace.candidates
        print(f"# {name}: {len(trace.steps)} steps, {len(candidates)} candidates",
              file=sys.stderr)
        for step in trace.steps:
            if isinstance(step, EliminationRecord):
                removed = " ".join(str(v) for v in sorted(step.vertices))
                shortcuts = " ".join(f"{u}->{v}" for u, v in sorted(step.shortcut_edges))
                print(f"eliminate {removed} shortcuts[{shortcuts}]", file=sys.stderr)
            elif isinstance(step, BackEdgeRemoval):
                print(f"remove-back-edge {step.edge[0]}->{step.edge[1]}", file=sys.stderr)
        for path, weight in candidates:
            ids = " ".join(str(v) for v in path)
            print(f"candidate weight={format_weight(weight, g.scale)}: {ids}",
                  file=sys.stderr)


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    result = solve_detailed(g)
    if args.dump_trace:
        _dump_trace(result, g)
    _print_outcome(g, result.outcome.path, result.outcome.weight)
    return 0


def _cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    outcome = exhaustive_next_to_shortest(g, budget=args.budget)
    _print_outcome(g, outcome.path, outcome.weight)
    return 0


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    path = _load_path_file(args.path)
    try:
        check = validate_path(g, path)
    except InvalidPathError as exc:
        print(f"INVALID: {exc}")
        return 0
    dst = g.distances.dst
    back = "yes" if check.uses_back_edge else "no"
    simple = "yes" if check.simple else "no"
    print(f"simple={simple} weight={format_weight(check.weight, g.scale)} uses-back-edge={back}")
    if path[0] != g.s or path[-1] != g.t:
        print("NOT-AN-S-T-PATH")
    elif not check.simple:
        print("NOT-SIMPLE")
    elif check.weight == dst:
        print("SHORTEST")
    else:
        print(f"NOT-SHORTEST, weight {format_weight(check.weight, g.scale)}")
    return 0


def _cmd_gen(args) -> int:
    if args.family == "random":
        g = random_digraph(args.n, args.p, args.w_max, args.seed)
    else:
        g = layered_digraph(
            args.layers,
            args.width,
            args.back_edges,
            args.seed,
            back_weight_max=args.back_weight_max,
        )
    text = serialize_graph(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_vdp(args) -> int:
    g = _load_graph(args.graph)
    dag = ForwardDag.from_graph(g)
    result = two_disjoint_paths(dag, (args.s1, args.t1), (args.s2, args.t2))
    if result is None:
        print("INFEASIBLE")
    else:
        print("p1: " + " ".join(str(v) for v in result.p1))
        print("p2: " + " ".join(str(v) for v in result.p2))
    return 0


def _cmd_stats(args) -> int:
    g = _load_graph(args.graph)
    d = g.distances
    # The edges as stored, by slot; reading `g.edges` would derive a map.
    slacks = [edge_slack(d, i, j, w) for i, row in enumerate(g.index.out) for j, w in row]
    unclassified = slacks.count(None)
    forward = slacks.count(0)
    back = len(slacks) - unclassified - forward
    dst = d.dst
    straight = is_straight(g, d)
    # Only a straight graph has a layering.
    violations = sum(map(len, layering_violations(g))) if straight else None
    print(f"vertices: {g.vertex_count}")
    print(f"edges: {g.edge_count}")
    print(f"back-edges: {back}")
    print(f"forward-edges: {forward}")
    print(f"unclassified-edges: {unclassified}")
    print("shortest-distance: " + ("UNREACHABLE" if dst is None else format_weight(dst, g.scale)))
    print(f"straight: {'yes' if straight else 'no'}")
    print(f"layered: {'yes' if violations == 0 else 'no'}")
    if straight:
        print(f"layering-violations: {violations}")
    return 0


@functools.cache  # parse_args leaves the parser unchanged, so build it once
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nextpath",
        description="Exact next-to-shortest (strictly second-shortest) simple "
        "paths on positively weighted digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance end to end")
    p_solve.add_argument("graph")
    p_solve.add_argument("--dump-trace", action="store_true",
                         help="describe the reduction steps on stderr")
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="brute-force reference answer")
    p_oracle.add_argument("graph")
    p_oracle.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                          help="maximum number of simple paths to enumerate")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_check = sub.add_parser("check", help="classify a path against a graph")
    p_check.add_argument("graph")
    p_check.add_argument("path")
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("gen", help="emit a random instance")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    p_rand = gen_sub.add_parser("random")
    p_rand.add_argument("--n", type=int, required=True)
    p_rand.add_argument("--p", type=float, required=True)
    p_rand.add_argument("--w-max", type=int, default=1)
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.add_argument("-o", "--output")
    p_layer = gen_sub.add_parser("layered")
    p_layer.add_argument("--layers", type=int, required=True)
    p_layer.add_argument("--width", type=int, required=True)
    p_layer.add_argument("--back-edges", type=int, default=0)
    p_layer.add_argument("--back-weight-max", type=int, default=3)
    p_layer.add_argument("--seed", type=int, default=0)
    p_layer.add_argument("-o", "--output")
    p_gen.set_defaults(func=_cmd_gen)

    p_vdp = sub.add_parser("vdp", help="two vertex-disjoint paths in a DAG")
    p_vdp.add_argument("graph")
    p_vdp.add_argument("s1", type=int)
    p_vdp.add_argument("t1", type=int)
    p_vdp.add_argument("s2", type=int)
    p_vdp.add_argument("t2", type=int)
    p_vdp.set_defaults(func=_cmd_vdp)

    p_stats = sub.add_parser("stats", help="structural summary of an instance")
    p_stats.add_argument("graph")
    p_stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # A command builds no reference cycles, so reference counting frees all
    # it allocates and the cyclic collector's passes would only cost time.
    # The caller's collector state comes back whatever the command does.
    collecting = gc.isenabled()
    gc.disable()
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout, so no one reads the rest of the output:
        # a success. What is left in the buffer goes to os.devnull, so that
        # the interpreter's flush at shutdown cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (GraphFormatError, CyclicGraphError, SharedTerminalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalInvariantError, TraceError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
