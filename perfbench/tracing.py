"""Out-of-program tracing of one `nextpath solve`.

The program looks its collaborators up as module attributes at call time,
so replacing those attributes is enough to observe every layer boundary
without editing the program. Stage calls become in-memory spans with a
parent id; hot inner calls are aggregated (calls, seconds, non-None
results) so that tracing them does not allocate per call; the DAG
reachability test is only counted, because timing a sub-microsecond call
would cost more than the call.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import nextpath.cli
import nextpath.disjoint
import nextpath.pipeline
import nextpath.reduction
import nextpath.solver
from nextpath.reduction import BackEdgeRemoval, EliminationRecord, SubdivisionRecord

# (module, attribute, metric prefix)
SPANS = (
    (nextpath.cli, "parse_graph", "cli.parse"),
    (nextpath.pipeline, "shortest_distances", "pipeline.distances"),
    (nextpath.pipeline, "straighten", "reduction.straighten"),
    (nextpath.pipeline, "layerize", "reduction.layerize"),
    (nextpath.pipeline, "solve_layered", "solver.solve_layered"),
    (nextpath.pipeline, "validate_path", "pipeline.validate"),
)
HOT = (
    (nextpath.pipeline, "lift_path", "pipeline.lift"),
    (nextpath.reduction, "shortest_distances", "reduction.distances"),
    (nextpath.reduction, "apply_step", "reduction.apply_step"),
    (nextpath.reduction, "lift_path", "reduction.lift"),
    (nextpath.solver, "dijkstra", "solver.bound_dijkstra"),
    (nextpath.solver, "shortest_path_avoiding", "solver.residual"),
    (nextpath.solver, "two_disjoint_paths", "disjoint.pair"),
    (nextpath.solver, "validate_path", "solver.validate"),
)
COUNTED = ((nextpath.disjoint.ForwardDag, "reaches", "disjoint.reaches"),)
# Read off the ReductionTraces and graphs that the reductions return.
SIZES = (
    "reduction.straighten.steps",
    "reduction.straighten.fill_in",
    "reduction.straighten.candidates",
    "reduction.layerize.subdivisions",
    "reduction.layerize.back_edge_removals",
    "reduction.layerize.fresh_vertices",
    "reduction.layered_vertices",
    "reduction.layered_edges",
)


@dataclass
class Span:
    id: int
    parent: int | None
    request: int
    name: str
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans, hot-call aggregates, counters and per-stage sizes.

    Use as a context manager: entering patches every attribute named in
    SPANS, HOT and COUNTED; leaving restores the originals, also on error.
    Wrap each solve in `request()` to open its root span.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.hot: dict[str, list] = {name: [0, 0.0, 0] for _m, _a, name in HOT}
        self.counts: dict[str, int] = {name: 0 for _o, _a, name in COUNTED}
        self.sizes: dict[str, int] = dict.fromkeys(SIZES, 0)
        self._stack: list[Span] = []
        self._requests = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        observers = {
            "reduction.straighten": self._observe_straighten,
            "reduction.layerize": self._observe_layerize,
        }
        try:
            for owner, attr, name in SPANS:
                self._patch(owner, attr, self._span_wrapper(name, observers.get(name)))
            for owner, attr, name in HOT:
                self._patch(owner, attr, self._hot_wrapper(name))
            for owner, attr, name in COUNTED:
                self._patch(owner, attr, self._count_wrapper(name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans),
            parent.id if parent else None,
            parent.request if parent else self._requests,
            name,
        )
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextmanager
    def request(self):
        """Root span of one solve."""
        span = self._open("solve")
        try:
            yield span
        finally:
            self._close(span)
            self._requests += 1

    def _span_wrapper(self, name: str, observe):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(span)
                if observe is not None:
                    observe(result)
                return result

            return wrapper

        return make

    def _hot_wrapper(self, name: str):
        agg = self.hot[name]
        stack = self._stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                dt = perf_counter() - t0
                agg[0] += 1
                agg[1] += dt
                if result is not None:
                    agg[2] += 1
                if stack:
                    stack[-1].child_s += dt
                return result

            return wrapper

        return make

    def _count_wrapper(self, name: str):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        return make

    def _add(self, key: str, value: int) -> None:
        self.sizes[key] += value

    def _observe_straighten(self, result) -> None:
        _g, trace = result
        self._add("reduction.straighten.steps", len(trace.steps))
        self._add(
            "reduction.straighten.fill_in",
            sum(len(s.shortcut_edges) for s in trace.steps if isinstance(s, EliminationRecord)),
        )
        self._add("reduction.straighten.candidates", len(trace.candidates))

    def _observe_layerize(self, result) -> None:
        g, trace = result
        subdivisions = [s for s in trace.steps if isinstance(s, SubdivisionRecord)]
        self._add("reduction.layerize.subdivisions", len(subdivisions))
        self._add(
            "reduction.layerize.back_edge_removals",
            sum(isinstance(s, BackEdgeRemoval) for s in trace.steps),
        )
        self._add("reduction.layerize.fresh_vertices", sum(len(s.chain) for s in subdivisions))
        self._add("reduction.layered_vertices", g.vertex_count)
        self._add("reduction.layered_edges", g.edge_count)

    # -- summary --------------------------------------------------------

    def per_solve(self) -> dict[str, float]:
        """Every per-layer metric, as a mean per traced solve (ratios are
        pooled over all calls)."""
        n = max(self._requests, 1)
        out: dict[str, float] = {}
        span_total: dict[str, float] = {}
        for span in self.spans:
            span_total[span.name] = span_total.get(span.name, 0.0) + span.duration
        for _o, _a, name in SPANS:
            out[f"{name}_s"] = span_total.get(name, 0.0) / n
        out["solver.self_s"] = sum(
            s.self_s for s in self.spans if s.name == "solver.solve_layered"
        ) / n
        for name, (calls, seconds, found) in self.hot.items():
            out[f"{name}_calls"] = calls / n
            out[f"{name}_s"] = seconds / n
            out[f"{name}_found_ratio"] = found / calls if calls else 0.0
        for name, calls in self.counts.items():
            out[f"{name}_calls"] = calls / n
        for key, total in self.sizes.items():
            out[key] = total / n
        return out
