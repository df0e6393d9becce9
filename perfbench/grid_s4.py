"""grid_s4: the paper's Fig. 2/3 shoot-out as a serial ``run_grid``.

One tetonly-like mesh swept with the S4 set (k=24): five algorithms,
m in {16, 128}, block sizes {1, 16}, two seeds -- 40 cells, 20 rows.
Construction is paid once per run and reported as ``setup_s``; the
timed phase is scheduling, which dominates this workload.  m=16 runs
the heap engine and m=128 the bucket engine under ``auto``, so both
kernel regimes are timed.

Each row is its own ``run_grid`` call on the memoised instance, so a
row is the unit of latency (``p50_ms``/``p95_ms``); rows are
independent, so the rows equal one whole-grid ``run_grid``.  The timed
phase repeats whole passes over the rows, and each row counts with its
best pass, since host contention only ever adds time.
"""

from __future__ import annotations

from dataclasses import replace

from common import (
    BenchFailure,
    Hygiene,
    Result,
    another_repeat,
    median,
    now,
    percentile,
    vm_hwm_mb,
    workload_rng,
)

ALGORITHMS = (
    "random_delay",
    "random_delay_priority",
    "improved_random_delay",
    "dfds",
    "descendant",
)
FULL_CELLS = 2000
SMOKE_CELLS = 300
SETUP_REPEATS = 7
MIN_PASSES = 3


def make_config(seed: int, smoke: bool):
    from repro.experiments.configs import ExperimentConfig

    rng = workload_rng("grid_s4", seed)
    return ExperimentConfig(
        mesh="tetonly",
        target_cells=SMOKE_CELLS if smoke else FULL_CELLS,
        k=8 if smoke else 24,
        m_values=(16, 128),
        block_sizes=(1, 16),
        algorithms=ALGORITHMS,
        seeds=tuple(rng.randrange(2**31) for _ in range(2)),
        mesh_seed=rng.randrange(2**31),
        name="grid_s4",
    )


def row_configs(config) -> list:
    """One single-row config per output row, in ``run_grid`` row order."""
    return [
        replace(config, algorithms=(a,), block_sizes=(b,), m_values=(m,))
        for a in config.algorithms
        for b in config.block_sizes
        for m in config.m_values
    ]


def cold_setup(config) -> float:
    """Caches cleared, then the instance and its block labelling built."""
    from repro.experiments.runner import clear_caches, get_blocks, get_instance

    clear_caches()
    start = now()
    get_instance(config)
    for size in config.block_sizes:
        if size > 1:
            get_blocks(config, size)
    return now() - start


def grid_pass(rows: list) -> tuple[list, list, float]:
    """Run every row once: ``(rows out, per-row seconds, pass seconds)``."""
    from repro.experiments.runner import run_grid

    out, latencies = [], []
    start = now()
    for row in rows:
        t0 = now()
        out.extend(run_grid(row, workers=1))
        latencies.append(now() - t0)
    return out, latencies, now() - start


def reference_rows(config) -> list:
    """The whole grid in one serial call on the heap engine, the
    repository's reference implementation."""
    from repro.experiments.runner import run_grid

    return run_grid(replace(config, engine="heap"), workers=1)


def run(seed: int, seconds: float, trace: bool, smoke: bool, scratch) -> Result:
    from layers import Tracing, report_layers

    hygiene = Hygiene()
    config = make_config(seed, smoke)
    rows = row_configs(config)
    n_cells = len(rows) * len(config.seeds)
    result = Result("grid_s4")

    cold_setup(config)  # the process's first set-up also pays one-time imports
    setups = [cold_setup(config) for _ in range(SETUP_REPEATS)]
    passes, latencies, outputs = [], [], []
    start = now()
    while another_repeat(start, passes, seconds, MIN_PASSES):
        out, lat, wall = grid_pass(rows)
        outputs.append(out)
        latencies.extend(lat)
        passes.append(wall)
    rss = vm_hwm_mb()
    result.attempted = n_cells * len(passes)

    from repro.experiments.runner import get_instance

    inst = get_instance(config)
    result.notes.append(
        f"mesh tetonly {inst.n_cells} cells, k={inst.k}, {inst.n_tasks} tasks; "
        f"{len(passes)} pass(es) of {n_cells} cells"
    )
    # Each row's fastest pass: host contention only ever adds time, so
    # the best of several interleaved passes is the steady estimate.
    best = [min(latencies[i::len(rows)]) for i in range(len(rows))]
    result.put("cells_per_s", n_cells / sum(best), "1/s", len(passes))
    result.put("setup_s", median(setups), "s", len(setups))
    result.put("p50_ms", percentile(best, 50) * 1e3, "ms", len(best))
    result.put("p95_ms", percentile(best, 95) * 1e3, "ms", len(best))
    result.put("peak_rss_mb", rss, "MiB")

    if trace:
        with Tracing() as tracing:
            t0 = now()
            cold_setup(config)
            traced_out, _, _ = grid_pass(rows)
            traced_wall = now() - t0
        outputs.append(traced_out)
        untraced = median(setups) + median(passes)
        layers = tracing.layer_metrics()
        unattributed = traced_wall - tracing.clock.attributed_s()
        layers.update(
            {
                "unattributed_s": unattributed,
                "unattributed_frac": unattributed / traced_wall,
                "trace.overhead_s": traced_wall - layers["bench.self_s"] - untraced,
            }
        )
        report_layers(result, layers)

    reference = reference_rows(config)
    for i, out in enumerate(outputs):
        if out != reference:
            raise BenchFailure(
                f"grid_s4 pass {i}: rows differ from the serial heap-engine reference"
            )
    hygiene.check()
    return result
