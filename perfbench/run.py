"""Seeded end-to-end benchmark of `nextpath solve`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from `src/`; nothing
is installed. One process, one thread, closed loop: each timed operation is
one in-process `nextpath.cli.main(["solve", FILE])` with the default
`threads=1`, and the next starts when it returns. Stdout is captured and
checked against the recorded reference answer (see check.py). A solve fails
on a non-zero exit code, a traceback or a wrong answer.

Set-up (make_corpus.py, timed as `setup_s`, the median of SETUP_REPEATS
runs) imports `nextpath` in a fresh process, generates the workload's
corpus from the seed (see workloads.py) and writes each instance to a file.
One untimed warm-up solve follows. Every end-to-end time is corrected for
the host's speed (yardstick.py); `peak_rss_mib` is the solving process's.

With `--trace 0` the loop solves the corpus round-robin for S seconds, and
at least once through; corpus sizes give each instance about two solves.
Every instance weighs the same in the metrics: its time is the median of
its solves, `solves_per_s` is correct instances over the sum of those times
and `solve_p50_s` is their median, taken over the corpus. With `--trace 1`
it solves each instance untraced and then traced (tracing.py), requires
byte-identical stdout, and reports the per-layer metrics as means per solve.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Exits 2 without a result when the program's source is missing or
set-up fails.
"""
from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from check import check_solve_output
from yardstick import Yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


@dataclass(frozen=True)
class Instance:
    file: Path
    reference: str


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class SetupError(RuntimeError):
    pass


def set_up(name: str, seed: int, workdir: Path) -> tuple[float, list[Instance]]:
    """Run make_corpus.py; returns the seconds it took and the instances."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "make_corpus.py"), name, str(seed), str(workdir)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(proc.stderr.strip() or f"make_corpus.py exited {proc.returncode}")
    answers = json.loads(proc.stdout)
    return seconds, [Instance(workdir / f"{i}.txt", a) for i, a in enumerate(answers)]


def solve(main, file: Path) -> tuple[float, str, str | None]:
    """One timed solve: (seconds, stdout, failure reason or None)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["solve", str(file)])
    except Exception:
        dt = perf_counter() - t0
        return dt, out.getvalue(), "traceback: " + traceback.format_exc().splitlines()[-1]
    dt = perf_counter() - t0
    if rc != 0:
        return dt, out.getvalue(), f"exit code {rc}: {err.getvalue().strip()}"
    return dt, out.getvalue(), None


def _failure(inst: Instance, stdout: str, failure: str | None) -> bool:
    """Check one solve; report and return True when it failed."""
    if failure is None:
        text = inst.file.read_text(encoding="utf-8")
        failure = check_solve_output(text, stdout, inst.reference)
    if failure is not None:
        print(f"FAILED {inst.file.name}: {failure}", file=sys.stderr)
    return failure is not None


def timed_loop(main, instances: list[Instance], seconds: float, yard: Yardstick) -> dict:
    times: list[list[float]] = [[] for _ in instances]
    failed_instances: set[int] = set()
    attempted = failed = 0
    start = perf_counter()
    i = 0
    while i < len(instances) or perf_counter() - start < seconds:
        k = i % len(instances)
        dt, stdout, failure = solve(main, instances[k].file)
        times[k].append(yard.scale(dt))
        attempted += 1
        if _failure(instances[k], stdout, failure):
            failed += 1
            failed_instances.add(k)
        i += 1
    per_instance = [statistics.median(ts) for ts in times]
    correct = len(instances) - len(failed_instances)
    return {
        "attempted": attempted,
        "failed": failed,
        "solves_per_s": correct / sum(per_instance),
        "solve_p50_s": statistics.median(per_instance),
    }


def traced_loop(main, instances: list[Instance], seconds: float) -> dict:
    import tracing

    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    failed = 0
    start = perf_counter()
    i = 0
    while not traced or perf_counter() - start < seconds:
        inst = instances[i % len(instances)]
        dt0, out0, failure = solve(main, inst.file)
        with tracer, tracer.request():
            dt1, out1, failure1 = solve(main, inst.file)
        failure = failure or failure1
        if failure is None and out1 != out0:
            failure = "traced stdout differs from untraced stdout"
        failed += _failure(inst, out0, failure)
        untraced.append(dt0)
        traced.append(dt1)
        i += 1
    metrics = tracer.per_solve()
    metrics["trace.solve_s"] = statistics.fmean(traced)
    metrics["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(untraced)
    return {"attempted": len(traced), "failed": failed, **metrics}


def src_lines() -> int:
    return sum(
        len(f.read_text(encoding="utf-8").splitlines())
        for f in sorted((SRC / "nextpath").rglob("*.py"))
    )


def run(args: argparse.Namespace, declared: dict) -> dict:
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        yard = Yardstick()
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, instances = set_up(args.workload, args.seed, workdir)
            setups.append(yard.scale(seconds))
        sys.path.insert(0, str(SRC))
        from nextpath.cli import main as cli_main
        # Untimed warm-up: the first pass over fresh code runs slower.
        solve(cli_main, instances[0].file)
        if args.trace:
            result = traced_loop(cli_main, instances, args.seconds)
            result["src_lines"] = src_lines()
        else:
            result = timed_loop(cli_main, instances, args.seconds, yard)
            result["setup_s"] = statistics.median(setups)
            result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    names = declared["per_layer" if args.trace else "end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result[m["name"]], "unit": m["unit"]} for m in names},
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "nextpath" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'nextpath'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        report = run(args, declared)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{report['attempted']} solves, {report['failed']} failed",
        file=sys.stderr,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
