"""The four benchmark workloads: one per pipeline stage's worst case.

Each workload draws its corpus from a pool of STRATUM * corpus instances
whose reference answers and solve times were recorded once, in
`references.json`. The pool holds the lowest instance seeds whose recorded
solve took at most MAX_SOLVE_S; the seeds left out are recorded there too,
with their times, as findings. The corpus is a stratified sample of the
pool: the pool is sorted by recorded solve time and cut into `corpus`
strata of STRATUM neighbours, and the workload seed picks one instance
from each stratum and the order they are solved in. Every seed thus gets
its own instances, with the same spread of costs as the pool, so a
run-to-run difference comes from the program, not from drawing a luckier
corpus.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from nextpath import WeightedDigraph, layered_digraph, random_digraph

from families import bead_digraph, layer_skip_digraph

STRATUM = 5
# A run must time each corpus instance about twice within BENCHMARK.json's
# run_seconds, so a far slower instance cannot join a pool.
MAX_SOLVE_S = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], WeightedDigraph]
    corpus: int

    @property
    def pool(self) -> int:
        return STRATUM * self.corpus

    def instance_seeds(self, seed: int, recorded_seconds: dict[int, float]) -> list[int]:
        """The run's corpus, in solve order: one pool member per stratum.
        `recorded_seconds` maps each pool member to its recorded solve time."""
        if len(recorded_seconds) != self.pool:
            raise ValueError(f"{self.name}: pool of {len(recorded_seconds)}, need {self.pool}")
        rng = random.Random(f"{self.name}:{seed}")
        by_cost = sorted(recorded_seconds, key=lambda i: (recorded_seconds[i], i))
        picks = [
            rng.choice(by_cost[k : k + STRATUM]) for k in range(0, self.pool, STRATUM)
        ]
        rng.shuffle(picks)
        return picks


# Why each workload, the layer it loads and its shape are recorded in
# BENCHMARK.json. A corpus takes 7 to 12 s to solve once, so that a run of
# 20 s solves each instance about twice.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-general", lambda seed: random_digraph(100, 0.045, 10, seed), 28),
        Workload(
            "layer-skip",
            lambda seed: layer_skip_digraph(40, 8, 120, seed, max_span=12, slack_share=0.2),
            14,
        ),
        Workload("layered-dense", lambda seed: layered_digraph(36, 18, 200, seed), 30),
        Workload("layered-none", lambda seed: bead_digraph(20, 6, 150, seed), 16),
    )
}
