"""Set-up of one benchmark run, in a process of its own.

    python3 perfbench/make_corpus.py WORKLOAD SEED DIR

Imports `nextpath` from `src/`, generates the workload's corpus for SEED
(see workloads.py) and writes instance i to DIR/i.txt. Prints, as one JSON
list, the reference answer of each instance in corpus order. Running it in
its own process keeps the generators' memory out of the solving process's
peak and times the import as a fresh process pays it.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import nextpath  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main(name: str, seed: int, out: Path) -> int:
    origin = Path(nextpath.__file__).resolve()
    if SRC not in origin.parents:
        print(f"error: nextpath was imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    pool = {int(k): v for k, v in refs[name]["pool"].items()}
    workload = WORKLOADS[name]
    answers = []
    for i, instance_seed in enumerate(workload.instance_seeds(seed, {k: v[1] for k, v in pool.items()})):
        text = nextpath.serialize_graph(workload.build(instance_seed))
        (out / f"{i}.txt").write_text(text, encoding="utf-8")
        answers.append(pool[instance_seed][0])
    print(json.dumps(answers))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])))
