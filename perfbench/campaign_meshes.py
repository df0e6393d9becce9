"""campaign_meshes: a multi-mesh ``run_campaign`` on the parallel plane.

Four mesh families x k in {8, 24} give 8 instance groups of about
3000 cells.  Every group runs cheap Algorithm 1 cells (random_delay,
m in {16, 128}, blocks {1, 16}, two seeds: 64 cells), so construction,
the worker pool and the result store do the work and the scheduling
kernel does little.  Each pass starts cold: in-process caches cleared,
an empty ``REPRO_CACHE_DIR`` and a new result store.

The campaign is observed only through its public ``stats`` argument:
a :class:`CommitClock` stamps the time of every committed cell, which
gives each instance group's latency (``p50_ms``/``p95_ms``) and its
cold start, from the previous group's last commit (or the call) to its
own first commit (``setup_s``, the median over groups).  A group's
latency is its best over the passes of a run, since host contention
only ever adds time.
"""

from __future__ import annotations

import itertools
import json
import os

from common import (
    BenchFailure,
    Hygiene,
    Result,
    another_repeat,
    largest_child_rss_mb,
    median,
    now,
    percentile,
    vm_hwm_mb,
    workload_rng,
)

FAMILIES = ("tetonly", "well_logging", "long", "prismtet")
FULL_CELLS = 3000
SMOKE_CELLS = 150
WORKERS = 2
MIN_PASSES = 2


def make_spec(seed: int, smoke: bool):
    from repro.campaign import CampaignSpec

    rng = workload_rng("campaign_meshes", seed)
    mesh_seed = rng.randrange(1 << 20)
    cell_seeds = sorted(rng.sample(range(1 << 20), 2))
    grid = {
        "mesh": list(FAMILIES[:2] if smoke else FAMILIES),
        "target_cells": SMOKE_CELLS if smoke else FULL_CELLS,
        "mesh_seed": mesh_seed,
        "k": [8] if smoke else [8, 24],
        "algorithms": ["random_delay"],
        "block_sizes": [1, 16],
        "m": [16, 128],
        "seeds": cell_seeds,
    }
    return CampaignSpec.from_dict({"name": "campaign_meshes", "grid": [grid]})


def _commit_clock():
    from repro.campaign import CampaignStats

    class CommitClock(CampaignStats):
        """Campaign stats whose ``cells_executed`` counter stamps each commit."""

        def __init__(self) -> None:
            self.commit_times: list = []
            super().__init__()

        @property
        def cells_executed(self) -> int:
            return len(self.commit_times)

        @cells_executed.setter
        def cells_executed(self, value: int) -> None:
            del self.commit_times[value:]
            while len(self.commit_times) < value:
                self.commit_times.append(now())

    return CommitClock()


def campaign_pass(spec, directory, workers: int):
    """One cold campaign into ``directory``: ``(wall, start, clock)``."""
    from repro import cache
    from repro.campaign import run_campaign
    from repro.experiments.runner import clear_caches

    clear_caches()
    clock = _commit_clock()
    with cache.override_dir(directory / "cache"):
        start = now()
        run_campaign(spec, directory / "store.sqlite", workers=workers, stats=clock)
        wall = now() - start
    if clock.cells_executed != clock.cells_total:
        raise BenchFailure(
            f"campaign committed {clock.cells_executed} of {clock.cells_total} cells"
        )
    return wall, start, clock


def group_times(start: float, clock) -> tuple[list, list]:
    """Per instance group: (latency, cold start), in seconds."""
    latencies, cold = [], []
    previous, i = start, 0
    for size in clock.group_cells:
        times = clock.commit_times[i:i + size]
        i += size
        cold.append(times[0] - previous)
        latencies.append(times[-1] - previous)
        previous = times[-1]
    return latencies, cold


def reference_report(spec) -> str:
    """The report a fresh serial ``run_grid`` per group produces."""
    from repro.campaign import group_config, group_key
    from repro.experiments.runner import run_grid

    rows = []
    for _, cells in itertools.groupby(spec.compile(), key=group_key):
        rows.extend(run_grid(group_config(list(cells), spec), workers=1))
    return json.dumps(rows, indent=1, sort_keys=True) + "\n"


def check_pass(spec, directory, reference: str, hygiene: Hygiene) -> None:
    from repro.campaign import ResultStore, report_json

    with ResultStore.open(directory / "store.sqlite", spec) as store:
        report = report_json(spec, store)
    if report != reference:
        raise BenchFailure(
            f"campaign report in {directory.name} differs from the serial reference"
        )
    hygiene.check(directory / "cache")


def run(seed: int, seconds: float, trace: bool, smoke: bool, scratch) -> Result:
    from layers import Tracing, fold_spans, report_layers

    hygiene = Hygiene()
    spec = make_spec(seed, smoke)
    n_cells = len(spec.compile())
    result = Result("campaign_meshes")

    walls, latencies, colds, dirs = [], [], [], []
    start = now()
    while another_repeat(start, walls, seconds, MIN_PASSES):
        directory = scratch / f"pass{len(walls)}"
        wall, t0, clock = campaign_pass(spec, directory, WORKERS)
        lat, cold = group_times(t0, clock)
        walls.append(wall)
        latencies.append(lat)
        colds.extend(cold)
        dirs.append(directory)
    rss = vm_hwm_mb() + largest_child_rss_mb()
    result.attempted = n_cells * len(walls)
    result.notes.append(
        f"{clock.groups} instance groups, {n_cells} cells, workers={WORKERS}; "
        f"{len(walls)} pass(es)"
    )
    best = [min(group) for group in zip(*latencies)]
    result.put("cells_per_s", n_cells / sum(best), "1/s", len(walls))
    result.put("setup_s", median(colds), "s", len(colds))
    result.put("p50_ms", percentile(best, 50) * 1e3, "ms", len(best))
    result.put("p95_ms", percentile(best, 95) * 1e3, "ms", len(best))
    result.put("peak_rss_mb", rss, "MiB")

    if trace:
        from repro import obs

        obs.reset()
        obs.enable_tracing()  # workers ship their worker.* / schedule.* spans
        try:
            with Tracing() as tracing:
                traced_dir = scratch / "traced"
                traced_wall = campaign_pass(spec, traced_dir, WORKERS)[0]
        finally:
            obs.disable_tracing()
        spans = [(s.name, s.dur, s.args) for s in obs.drain_spans() if s.pid != os.getpid()]
        obs.reset()
        dirs.append(traced_dir)
        serial_dir = scratch / "serial"
        serial_wall = campaign_pass(spec, serial_dir, 1)[0]
        dirs.append(serial_dir)
        layers = tracing.layer_metrics()
        layers.update(fold_spans(spans))
        unattributed = traced_wall - tracing.clock.attributed_s()
        layers.update(
            {
                "parallel.speedup_vs_serial": serial_wall / median(walls),
                "unattributed_s": unattributed,
                "unattributed_frac": unattributed / traced_wall,
                "trace.overhead_s": traced_wall - layers["bench.self_s"] - median(walls),
            }
        )
        report_layers(result, layers)
        result.notes.append(
            f"serial (workers=1) pass {serial_wall:.3f} s against "
            f"{median(walls):.3f} s at workers={WORKERS}"
        )

    reference = reference_report(spec)
    for directory in dirs:
        check_pass(spec, directory, reference, hygiene)
    hygiene.check()
    return result
