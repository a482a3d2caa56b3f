"""Record the reference answer of every pool instance into references.json.

    python3 perfbench/record_references.py [WORKLOAD ...]

Run from the repository root at a commit whose answers are trusted; the
benchmark then holds every later commit to them. Each answer is the first
line `nextpath solve` prints (the weight, or NONE), accepted only after the
printed path passes the benchmark's own checker. The solve time recorded
with it (see KEY_SOLVES) orders the pool into strata and keeps instances
slower than MAX_SOLVE_S out of the pool (see workloads.py). Workloads not
named keep their recorded answers.
"""
from __future__ import annotations

import json
import statistics
import sys
import tempfile
from pathlib import Path

from run import HERE, SRC, solve

sys.path.insert(0, str(SRC))

from nextpath import serialize_graph  # noqa: E402
from nextpath.cli import main as cli_main  # noqa: E402

from check import check_solve_output  # noqa: E402
from workloads import MAX_SOLVE_S, WORKLOADS  # noqa: E402
from yardstick import Yardstick  # noqa: E402

# Solves per instance whose median, corrected for the host's speed, is the
# recorded solve time.
KEY_SOLVES = 3


def record(name: str, workdir: Path) -> dict[str, dict]:
    """The workload's pool, {instance seed: [answer, solve seconds]}, and
    the seeds left out of it, {instance seed: solve seconds}."""
    workload = WORKLOADS[name]
    yard = Yardstick()
    pool: dict[str, list] = {}
    excluded: dict[str, float] = {}
    seed = 0
    while len(pool) < workload.pool:
        file = workdir / f"{name}-{seed}.txt"
        text = serialize_graph(workload.build(seed))
        file.write_text(text, encoding="utf-8")
        times: list[float] = []
        answer = None
        while len(times) < KEY_SOLVES and sum(times) <= MAX_SOLVE_S:
            dt, stdout, failure = solve(cli_main, file)
            if failure is None:
                answer = answer or stdout.splitlines()[0]
                failure = check_solve_output(text, stdout, answer)
            if failure is not None:
                raise SystemExit(f"{name} seed {seed}: {failure}")
            times.append(yard.scale(dt))
        seconds = round(statistics.median(times), 4)
        if seconds > MAX_SOLVE_S:
            excluded[str(seed)] = seconds
        else:
            pool[str(seed)] = [answer, seconds]
        print(f"{name} {seed}: {answer} ({seconds:.3f} s)", file=sys.stderr)
        seed += 1
    return {"pool": pool, "excluded": excluded}


def main(names: list[str]) -> int:
    out = HERE / "references.json"
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        recorded = {name: record(name, Path(tmp)) for name in names or list(WORKLOADS)}
    refs = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    refs.update(recorded)
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
