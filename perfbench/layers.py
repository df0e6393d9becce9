"""Per-layer accounting for the traced run, measured from outside ``src/``.

Layers that run in the benchmark's own process are timed by wrapping
their public entry points, and only for the length of the traced run:
:class:`Tracing` swaps every reference a ``repro`` module holds to an
entry point for a timing wrapper, and puts the originals back on exit.
The timed runs never install it.

Layers that run in spawn workers or in the daemon cannot be wrapped
from here; for those the traced run reads the spans the program
already records under ``REPRO_TRACE`` (``worker.cell``,
``schedule.*``, ``serve.*``) and folds them with :func:`fold_spans`.

A layer's *self time* is its wrapped calls' wall time minus the part
spent in nested wrapped calls, so self times add up without double
counting and ``unattributed_s`` is the traced wall time minus their sum.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict

from common import now

#: Every per-layer metric a traced run reports, with its unit.  A layer
#: that does not run on a workload reads 0 there.
PER_LAYER = {
    "mesh.s": "s",
    "mesh.calls": "count",
    "sweeps.s": "s",
    "sweeps.calls": "count",
    "partition.s": "s",
    "partition.calls": "count",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "heuristics.self_s": "s",
    "heuristics.calls": "count",
    "list_scheduler.s": "s",
    "list_scheduler.calls": "count",
    "list_scheduler.tasks_per_s": "1/s",
    "list_scheduler.heap_s": "s",
    "list_scheduler.bucket_s": "s",
    "list_scheduler.vector_s": "s",
    "list_scheduler.heap_calls": "count",
    "list_scheduler.bucket_calls": "count",
    "list_scheduler.vector_calls": "count",
    "analysis.s": "s",
    "comm.c1_s": "s",
    "comm.c2_s": "s",
    "parallel.pool_starts": "count",
    "parallel.warm_s": "s",
    "parallel.publish_s": "s",
    "parallel.dispatch_s": "s",
    "parallel.wait_s": "s",
    "parallel.chunks": "count",
    "parallel.peak_worker_rss_mb": "MiB",
    "parallel.speedup_vs_serial": "ratio",
    "campaign.commits": "count",
    "campaign.commit_s": "s",
    "serve.chunks": "count",
    "serve.cells_per_chunk": "ratio",
    "serve.shed": "count",
    "serve.registry_hits": "count",
    "serve.registry_misses": "count",
    "serve.batch_s": "s",
    "serve.dispatch_s": "s",
    "serve.reply_s": "s",
    "validate.schedules": "count",
    "bench.self_s": "s",
    "unattributed_s": "s",
    "unattributed_frac": "ratio",
    "trace.overhead_s": "s",
}

ENGINES = ("heap", "bucket", "vector")

#: Worker span name -> engine, for the kernels that run out of process.
_ENGINE_OF_SPAN = {
    "schedule.heap": "heap",
    "schedule.heap_unassigned": "heap",
    "schedule.bucket": "bucket",
    "schedule.pool": "bucket",
    "schedule.vector": "vector",
}


class LayerClock:
    """Wall and self time per layer, for calls on one thread."""

    def __init__(self) -> None:
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: list = []

    def call(self, layer: str, fn, *args, **kwargs):
        frame = [0.0]  # time spent in nested wrapped calls
        self._stack.append(frame)
        start = now()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = now() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            self.self_s[layer] += elapsed - frame[0]
            self.calls[layer] += 1

    def attributed_s(self) -> float:
        return sum(self.self_s.values())


class Tracing:
    """Context manager that wraps every layer's entry points in a
    :class:`LayerClock` and validates every schedule it sees."""

    def __init__(self) -> None:
        self.clock = LayerClock()
        self.dispatch_stats: list = []
        self.tasks_scheduled = 0
        self.validated = 0
        self._undo: list = []

    # -- patching ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Point every ``repro`` module's reference to ``original`` at
        ``replacement`` (modules bind entry points by name at import)."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, replacement)

    def _timed(self, layer: str, original) -> None:
        clock = self.clock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return clock.call(layer, original, *args, **kwargs)

        self._replace_everywhere(original, wrapper)

    def __enter__(self) -> "Tracing":
        import repro.experiments.runner  # noqa: F401  (binds entry points by name)
        from repro import cache
        from repro.analysis.metrics import summarize_schedule
        from repro.campaign.store import ResultStore
        from repro.comm.cost import c2_cost, interprocessor_edges
        from repro.core import list_scheduler
        from repro.heuristics.registry import ALGORITHMS
        from repro.mesh.generators import make_mesh
        from repro.parallel.dispatcher import run_dispatch
        from repro.partition.multilevel import partition_mesh_blocks
        from repro.sweeps.dag_builder import build_instance_batched

        self._timed("mesh", make_mesh)
        self._timed("sweeps", build_instance_batched)
        self._timed("partition", partition_mesh_blocks)
        self._timed("cache.load", cache.load_instance)
        self._timed("cache.store", cache.store_instance)
        self._timed("analysis", summarize_schedule)
        self._timed("comm.c1", interprocessor_edges)
        self._timed("comm.c2", c2_cost)
        self._wrap_kernel(list_scheduler.list_schedule)
        self._wrap_kernel(list_scheduler.list_schedule_unassigned)
        self._wrap_dispatch(run_dispatch)
        record = ResultStore.record_result
        self._undo.append((ResultStore, "record_result", record))
        ResultStore.record_result = functools.wraps(record)(
            lambda *a, **kw: self.clock.call("campaign.commit", record, *a, **kw)
        )
        for name, algorithm in list(ALGORITHMS.items()):
            self._undo.append((ALGORITHMS, name, algorithm))
            ALGORITHMS[name] = self._algorithm_wrapper(algorithm)
        self._counters_before = dict(cache.COUNTERS)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()
        from repro import cache

        self.cache_hits = cache.COUNTERS["hit"] - self._counters_before["hit"]
        self.cache_misses = cache.COUNTERS["miss"] - self._counters_before["miss"]

    def _validate(self, schedule) -> None:
        from repro.core.schedule import validate_schedule

        self.clock.call("bench", validate_schedule, schedule)
        self.validated += 1

    def _algorithm_wrapper(self, algorithm):
        def heuristic(inst, m, *args, **kwargs):
            schedule = self.clock.call("heuristics", algorithm, inst, m, *args, **kwargs)
            self._validate(schedule)
            return schedule

        return heuristic

    def _wrap_kernel(self, original) -> None:
        """List scheduling, charged to the engine ``resolve_engine`` picks."""
        import numpy as np

        from repro.core.list_scheduler import resolve_engine
        from repro.core.schedule import Schedule

        signature = inspect.signature(original)

        @functools.wraps(original)
        def kernel(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            priority = a["priority"]
            if priority is not None:
                priority = np.asarray(priority)
            engine = self.clock.call(
                "bench", resolve_engine, a["engine"], priority, a["inst"], a["m"]
            )
            result = self.clock.call(
                f"list_scheduler.{engine}", original, *args, **kwargs
            )
            self.tasks_scheduled += a["inst"].n_tasks
            if isinstance(result, Schedule):
                self._validate(result)
            return result

        self._replace_everywhere(original, kernel)

    def _wrap_dispatch(self, original) -> None:
        """``run_dispatch`` with a ``DispatchStats`` injected when the
        caller passed none, so the parallel plane's phases are recorded."""
        from repro.parallel.dispatcher import DispatchStats

        signature = inspect.signature(original)

        @functools.wraps(original)
        def dispatch(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            if bound.arguments.get("stats") is None:
                bound.arguments["stats"] = DispatchStats()
            self.dispatch_stats.append(bound.arguments["stats"])
            return self.clock.call("parallel", original, *bound.args, **bound.kwargs)

        self._replace_everywhere(original, dispatch)

    # -- report --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """The wrapped layers' share of :data:`PER_LAYER` (name -> value)."""
        s, calls = self.clock.self_s, self.clock.calls
        out = {
            "mesh.s": s["mesh"],
            "mesh.calls": calls["mesh"],
            "sweeps.s": s["sweeps"],
            "sweeps.calls": calls["sweeps"],
            "partition.s": s["partition"],
            "partition.calls": calls["partition"],
            "cache.load_s": s["cache.load"],
            "cache.store_s": s["cache.store"],
            "cache.hits": self.cache_hits,
            "cache.misses": self.cache_misses,
            "heuristics.self_s": s["heuristics"],
            "heuristics.calls": calls["heuristics"],
            "analysis.s": s["analysis"],
            "comm.c1_s": s["comm.c1"],
            "comm.c2_s": s["comm.c2"],
            "campaign.commits": calls["campaign.commit"],
            "campaign.commit_s": s["campaign.commit"],
            "validate.schedules": self.validated,
            "bench.self_s": s["bench"],
        }
        out.update(_kernel_totals(
            {e: s[f"list_scheduler.{e}"] for e in ENGINES},
            {e: calls[f"list_scheduler.{e}"] for e in ENGINES},
            self.tasks_scheduled,
        ))
        stats = self.dispatch_stats
        out["parallel.pool_starts"] = len(stats)
        out["parallel.warm_s"] = sum(d.warm_s for d in stats)
        out["parallel.publish_s"] = sum(d.publish_s for d in stats)
        out["parallel.dispatch_s"] = sum(d.dispatch_s for d in stats)
        out["parallel.wait_s"] = sum(d.wait_s for d in stats)
        out["parallel.chunks"] = sum(d.n_chunks for d in stats)
        out["parallel.peak_worker_rss_mb"] = max(
            (d.peak_worker_rss_mb for d in stats), default=0.0
        )
        return out


def report_layers(result, values: dict) -> None:
    """Put every :data:`PER_LAYER` metric on ``result``; 0 where the
    layer does not run on this workload."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"not a per-layer metric: {sorted(unknown)}")
    for name, unit in PER_LAYER.items():
        result.put(name, values.get(name, 0.0), unit)


def _kernel_totals(seconds: dict, calls: dict, tasks: int) -> dict:
    """The ``list_scheduler.*`` metrics from per-engine time and calls."""
    out = {}
    for e in ENGINES:
        out[f"list_scheduler.{e}_s"] = seconds[e]
        out[f"list_scheduler.{e}_calls"] = calls[e]
    total_s = sum(seconds.values())
    out["list_scheduler.s"] = total_s
    out["list_scheduler.calls"] = sum(calls.values())
    out["list_scheduler.tasks_per_s"] = tasks / total_s if total_s else 0.0
    return out


def fold_spans(spans) -> dict:
    """Kernel and heuristic time from spans recorded in other processes.

    ``spans`` are ``(name, dur_s, args)`` triples; ``worker.cell`` covers
    one grid cell, so its time minus the ``schedule.*`` kernel spans
    inside it is charged to ``heuristics`` (this includes the summary
    and communication metrics, which have no span of their own).
    """
    seconds = dict.fromkeys(ENGINES, 0.0)
    calls = dict.fromkeys(ENGINES, 0)
    tasks, cell_s, cells = 0, 0.0, 0
    for name, dur, args in spans:
        engine = _ENGINE_OF_SPAN.get(name)
        if engine is not None:
            seconds[engine] += dur
            calls[engine] += 1
            tasks += int((args or {}).get("n_tasks", 0))
        elif name == "worker.cell":
            cell_s += dur
            cells += 1
    out = _kernel_totals(seconds, calls, tasks)
    out["heuristics.self_s"] = cell_s - out["list_scheduler.s"]
    out["heuristics.calls"] = cells
    return out
