"""In-memory span tracer and the wrappers that attribute time to layers.

The benchmark measures the program from outside: it never edits the
library.  For a traced run it replaces public functions and methods of
each layer with timing wrappers, at the place the caller looks the name
up (a module attribute such as ``repro.core.sspc.select_dimensions``, or
a method on its class), and restores the originals afterwards.

A span is ``[name, start, end, parent, thread]`` with ``perf_counter``
times; ``parent`` is the index of the enclosing span on the same thread
(``-1`` for a root).  ``perf_counter`` reads the monotonic clock, so the
spans a traced daemon writes line up with the benchmark's own.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple


class Tracer:
    """Collects spans and counters in memory; written out when a run ends."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            self.spans.append([name, time.perf_counter(), None, parent, threading.get_ident()])
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished leaf span under the current thread's open span."""
        stack = self._stack()
        with self._lock:
            self.spans.append(
                [name, start, end, stack[-1] if stack else -1, threading.get_ident()]
            )

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"run_id": self.run_id, "spans": self.spans, "counts": self.counts}, handle)

    def merge(self, exported: dict) -> None:
        """Append another process's spans (parents re-based) and counters."""
        offset = len(self.spans)
        for name, start, end, parent, thread in exported["spans"]:
            self.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, thread]
            )
        for name, value in exported["counts"].items():
            self.counts[name] += value


# ---------------------------------------------------------------------- #
# span arithmetic
# ---------------------------------------------------------------------- #
def covered(interval: Tuple[float, float], children: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    low, high = interval
    total = 0.0
    cursor = low
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, list] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0 and end is not None:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        if end is None:
            result.append(0.0)
            continue
        result.append((end - start) - covered((start, end), children.get(index, ())))
    return result


def layer_table(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: total seconds, self seconds and number of spans."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end = span[0], span[1], span[2]
        if end is None:
            continue
        row = table.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        row["total_s"] += end - start
        row["self_s"] += own
        row["calls"] += 1
    return table


def chrome_trace(tracer: Tracer) -> dict:
    """The spans as a Chrome trace (``chrome://tracing`` / Perfetto)."""
    finished = [span for span in tracer.spans if span[2] is not None]
    origin = min((span[1] for span in finished), default=0.0)
    events = []
    for index, (name, start, end, parent, thread) in enumerate(tracer.spans):
        if end is None:
            continue
        events.append(
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": thread,
                "args": {"span": index, "parent": parent, "run_id": tracer.run_id},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": dict(tracer.counts)}


# ---------------------------------------------------------------------- #
# wrappers
# ---------------------------------------------------------------------- #
class Patcher:
    """Replaces attributes and puts the originals back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def set(self, owner, attribute: str, value) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def everywhere(self, original, value) -> None:
        """Rebind every ``repro`` module attribute that names ``original``."""
        found = False
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, current in list(vars(module).items()):
                if current is original:
                    self.set(module, attribute, value)
                    found = True
        if not found:
            raise RuntimeError("no module binds %r" % (original,))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, value = self._saved.pop()
            setattr(owner, attribute, value)


def timed(tracer: Tracer, name: str, fn, after=None):
    """``fn`` inside a span; ``after(args, kwargs, result)`` runs post-call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


class _ActiveSlices:
    """Awaitable that records a span for each slice a coroutine runs.

    The time a coroutine spends suspended (waiting for the client's next
    bytes) is not work of the layer, so only the stretches between a
    resume and the next suspension are recorded.
    """

    def __init__(self, tracer: Tracer, name: str, coroutine) -> None:
        self._tracer = tracer
        self._name = name
        self._coroutine = coroutine

    def __await__(self):
        inner = self._coroutine.__await__()
        value, error = None, None
        while True:
            start = time.perf_counter()
            try:
                signal = inner.throw(error) if error is not None else inner.send(value)
            except StopIteration as stop:
                self._tracer.add(self._name, start, time.perf_counter())
                return stop.value
            except BaseException:
                self._tracer.add(self._name, start, time.perf_counter())
                raise
            self._tracer.add(self._name, start, time.perf_counter())
            try:
                value, error = (yield signal), None
            except BaseException as exc:  # delivered into the coroutine, which decides
                value, error = None, exc


def timed_coroutine(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _ActiveSlices(tracer, name, fn(*args, **kwargs))

    return wrapper


def install(tracer: Tracer) -> Patcher:
    """Wrap every traced layer's public entry points; returns the undo handle."""
    import repro.server.app  # noqa: F401 - binds the names patched below
    import repro.stream.engine  # noqa: F401
    from repro.core import grid as grid_module
    from repro.core.assignment import assign_objects
    from repro.core.assignment_engine import AssignmentEngine
    from repro.core.dimension_selection import select_dimensions
    from repro.core.representatives import (
        compute_phi_scores,
        find_bad_cluster,
        replace_representatives,
    )
    from repro.core.seed_groups import SeedGroupBuilder
    from repro.core.sspc import SSPC
    from repro.core.stats_cache import ClusterStatsCache
    from repro.server.http import HTTPRequest, json_response, read_request
    from repro.serving.artifact import ModelArtifact
    from repro.serving.index import ProjectedClusterIndex
    from repro.stream.engine import StreamingSSPC

    patch = Patcher()

    def method(owner, attribute, name, after=None):
        patch.set(owner, attribute, timed(tracer, name, owner.__dict__[attribute], after))

    def function(original, name, after=None):
        patch.everywhere(original, timed(tracer, name, original, after))

    def fitted(args, kwargs, result):
        tracer.count("sspc.iterations", result.n_iterations_)

    def groups_built(args, kwargs, result):
        private_groups, public_groups = result
        tracer.count("seed_groups.groups", len(private_groups) + len(public_groups))

    method(SSPC, "fit", "sspc.fit", fitted)
    method(SeedGroupBuilder, "build", "seed_groups.build", groups_built)
    method(
        grid_module.Grid,
        "__init__",
        "grid.build",
        lambda args, kwargs, result: tracer.count("grid.builds"),
    )
    method(grid_module.Grid, "hill_climb", "grid.search")
    method(grid_module.Grid, "absolute_peak", "grid.search")
    function(grid_module.one_dimensional_density_profile, "grid.density_profile")
    function(
        select_dimensions,
        "select_dim",
        lambda args, kwargs, result: tracer.count("select_dim.calls"),
    )
    function(assign_objects, "assign")
    for fn in (find_bad_cluster, replace_representatives, compute_phi_scores):
        function(fn, "representatives")

    gains = AssignmentEngine.__dict__["gains"]

    def counted_gains(self):
        before = self.n_columns_recomputed
        result = gains(self)
        tracer.count("engine.columns_requested", self.n_clusters)
        tracer.count("engine.columns_recomputed", self.n_columns_recomputed - before)
        return result

    patch.set(AssignmentEngine, "gains", timed(tracer, "engine.gains", counted_gains))
    method(AssignmentEngine, "compute", "engine.gains")

    statistics = ClusterStatsCache.__dict__["statistics"]

    def counted_statistics(self, members):
        hits, misses = self.hits, self.misses
        result = statistics(self, members)
        tracer.count("stats_cache.hits", self.hits - hits)
        tracer.count("stats_cache.misses", self.misses - misses)
        return result

    patch.set(ClusterStatsCache, "statistics", functools.wraps(statistics)(counted_statistics))

    method(ModelArtifact, "save", "artifact.save")
    load = ModelArtifact.__dict__["load"].__func__
    patch.set(ModelArtifact, "load", classmethod(timed(tracer, "artifact.load", load)))

    def rows(counter):
        def after(args, kwargs, result):
            tracer.count(counter, len(args[1] if len(args) > 1 else kwargs["points"]))

        return after

    method(ProjectedClusterIndex, "predict", "index.predict", rows("index.predict_points"))
    method(
        ProjectedClusterIndex,
        "partial_update",
        "index.partial_update",
        rows("index.partial_update_points"),
    )
    method(StreamingSSPC, "process_batch", "stream.batch")

    patch.everywhere(read_request, timed_coroutine(tracer, "http.parse", read_request))
    method(HTTPRequest, "json", "http.decode")
    function(json_response, "http.encode")
    return patch


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #
#: The BENCHMARK.json per-layer metrics, in order: (name, unit).  Each is
#: a total over the run's traced pass; a layer the workload never enters
#: reads 0.
PER_LAYER = (
    ("seed_groups.build_s", "s"),
    ("seed_groups.self_s", "s"),
    ("seed_groups.groups", "count"),
    ("grid.build_s", "s"),
    ("grid.builds", "count"),
    ("grid.search_s", "s"),
    ("grid.density_profile_s", "s"),
    ("select_dim.s", "s"),
    ("select_dim.calls", "count"),
    ("assign.s", "s"),
    ("engine.gains_s", "s"),
    ("engine.dirty_ratio", "ratio"),
    ("stats_cache.hit_rate", "ratio"),
    ("stats_cache.stat_passes", "count"),
    ("representatives.s", "s"),
    ("sspc.iterations", "count"),
    ("sspc.loop_s", "s"),
    ("artifact.save_s", "s"),
    ("artifact.load_s", "s"),
    ("index.predict_s", "s"),
    ("index.predict_points", "count"),
    ("index.partial_update_s", "s"),
    ("index.partial_update_points", "count"),
    ("http.parse_s", "s"),
    ("http.decode_s", "s"),
    ("http.encode_s", "s"),
    ("batcher.batch_size_p50", "count"),
    ("batcher.queue_wait_p50_ms", "ms"),
    ("batcher.flushes", "count"),
    ("server.predict_p50_ms", "ms"),
    ("stream.batch_s", "s"),
    ("stream.self_s", "s"),
    ("stream.spawns", "count"),
    ("stream.retires", "count"),
    ("stream.drift_refreshes", "count"),
    ("trace_overhead_pct", "%"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced(run_id: str, work):
    """Run ``work()`` with every layer wrapped; returns ``(tracer, result)``."""
    tracer = Tracer(run_id)
    patch = install(tracer)
    try:
        return tracer, work()
    finally:
        patch.restore()


def record(result, tracer: Tracer, extra: Dict[str, float]) -> None:
    """Store a traced pass's per-layer metrics, layer table and spans on ``result``."""
    result.per_layer = layer_metrics(tracer, extra)
    result.layers = layer_table(tracer.spans)
    result.trace = tracer


def layer_metrics(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every :data:`PER_LAYER` metric from the spans, counters and ``extra``.

    ``extra`` supplies what the workload reads outside the spans (the
    daemon's ``/metrics``, the engine's adaptation counters, the tracing
    overhead).
    """
    spans = tracer.spans
    table = layer_table(spans)
    counts = tracer.counts

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    # The SSPC iteration loop: from the end of a fit's seed-group build to
    # the end of the fit.
    loop = 0.0
    build_end: Dict[int, float] = {}
    for name, start, end, parent, _ in spans:
        if name == "seed_groups.build" and parent >= 0 and spans[parent][0] == "sspc.fit":
            build_end[parent] = max(build_end.get(parent, start), end)
    for fit, last_build in build_end.items():
        loop += spans[fit][2] - last_build
    # process_batch minus the index fold it calls.
    folds_in_batches = sum(
        end - start
        for name, start, end, parent, _ in spans
        if name == "index.partial_update" and parent >= 0 and spans[parent][0] == "stream.batch"
    )
    hits, misses = counts.get("stats_cache.hits", 0.0), counts.get("stats_cache.misses", 0.0)
    values = {
        "seed_groups.build_s": total("seed_groups.build"),
        "seed_groups.self_s": table.get("seed_groups.build", {}).get("self_s", 0.0),
        "seed_groups.groups": counts.get("seed_groups.groups", 0.0),
        "grid.build_s": total("grid.build"),
        "grid.builds": counts.get("grid.builds", 0.0),
        "grid.search_s": total("grid.search"),
        "grid.density_profile_s": total("grid.density_profile"),
        "select_dim.s": total("select_dim"),
        "select_dim.calls": counts.get("select_dim.calls", 0.0),
        "assign.s": total("assign"),
        "engine.gains_s": total("engine.gains"),
        "engine.dirty_ratio": _ratio(
            counts.get("engine.columns_recomputed", 0.0),
            counts.get("engine.columns_requested", 0.0),
        ),
        "stats_cache.hit_rate": _ratio(hits, hits + misses),
        "stats_cache.stat_passes": misses,
        "representatives.s": total("representatives"),
        "sspc.iterations": counts.get("sspc.iterations", 0.0),
        "sspc.loop_s": loop,
        "artifact.save_s": total("artifact.save"),
        "artifact.load_s": total("artifact.load"),
        "index.predict_s": total("index.predict"),
        "index.predict_points": counts.get("index.predict_points", 0.0),
        "index.partial_update_s": total("index.partial_update"),
        "index.partial_update_points": counts.get("index.partial_update_points", 0.0),
        "http.parse_s": total("http.parse"),
        "http.decode_s": total("http.decode"),
        "http.encode_s": total("http.encode"),
        "stream.batch_s": total("stream.batch"),
        "stream.self_s": total("stream.batch") - folds_in_batches,
    }
    values.update(extra)
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}
