"""Independent check of `nextpath solve` output.

Does not use the program's own `validate_path`: the printed path must be a
simple s-to-t path over edges of the input, its weight must equal the
printed weight, and that weight must equal the recorded reference answer.
"""
from __future__ import annotations


def read_instance(text: str) -> tuple[dict[tuple[int, int], int], int, int]:
    """Edges, s and t of an instance file with integer weights."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    _n, _m, s, t = (int(x) for x in rows[0])
    return {(int(u), int(v)): int(w) for u, v, w in rows[1:]}, s, t


def check_solve_output(instance_text: str, stdout: str, reference: str) -> str | None:
    """None when `stdout` is a correct answer to the instance; otherwise why
    it is not.

    `reference` is the first line a correct solve prints: a weight, or
    NONE. Instances here have integer weights (scale 0).
    """
    edges, s, t = read_instance(instance_text)
    lines = stdout.splitlines()
    if reference == "NONE":
        return None if lines == ["NONE"] else f"expected NONE, got {lines[:2]!r}"
    if len(lines) != 2:
        return f"expected a weight line and a path line, got {len(lines)} lines"
    if lines[0] != reference:
        return f"weight {lines[0]!r} differs from reference {reference!r}"
    try:
        path = [int(tok) for tok in lines[1].split()]
    except ValueError:
        return f"path line is not a vertex list: {lines[1]!r}"
    if len(path) < 2 or path[0] != s or path[-1] != t:
        return "path does not run from s to t"
    if len(set(path)) != len(path):
        return "path repeats a vertex"
    total = 0
    for u, v in zip(path, path[1:]):
        w = edges.get((u, v))
        if w is None:
            return f"path uses ({u}, {v}), which is not an input edge"
        total += w
    if str(total) != lines[0]:
        return f"path weighs {total}, printed weight is {lines[0]}"
    return None
