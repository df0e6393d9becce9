"""Worker-process side of the parallel grid plane.

Top-level (picklable) functions the dispatcher and the serve batcher run
inside pool workers, plus :func:`warm_instance` — the parent-side cache
warm-up that decides which :class:`~repro.core.dag.Dag` memo caches get
materialised before the instance is published to shared memory.  Workers
attach zero-copy and inherit exactly those caches, so the expensive
per-instance precomputations (union CSR, padded successor matrix, level
structure, b-levels, descendant counts) happen once per grid instead of
once per worker.

A worker attaches lazily: the first chunk against a segment maps it, and
the attachment is kept for as long as the segment lives (see
:func:`repro.parallel.shm_store.attach`).  A chunk's cells share one
block size, and the chunk carries that size's cell→block labelling
itself; the parent computes labellings (lint rule RPL101 keeps
partitioning out of workers).
"""

from __future__ import annotations

import atexit
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # annotation-only imports; runtime imports stay lazy
    import numpy as np

    from repro.analysis.metrics import ScheduleSummary
    from repro.core.instance import SweepInstance
    from repro.parallel.dispatcher import GridCell
    from repro.parallel.shm_store import StoreManifest

__all__ = ["warm_instance", "init_worker", "run_chunk"]


def warm_instance(
    inst: "SweepInstance",
    algorithms: Iterable[str] = (),
    engine: str = "auto",
) -> None:
    """Materialise the memo caches the given workload will need.

    Always warmed (both list-scheduling engines touch them): the union
    DAG, its successor CSR, indegree/outdegree, and level structure, plus
    the per-direction levels behind ``task_levels`` (the priority basis
    of the random-delay family).  Warmed per engine: unless ``engine`` is
    ``"heap"``, whatever
    :func:`repro.core.fast_scheduler.padded_promotion` picks for the
    batched kernel — the dense padded successor matrix on most instances,
    nothing extra on the very wide shallow ones that promote through the
    CSR (where the matrix build would dwarf the structural warm).  Warmed
    on demand: per-direction descendant counts (``descendant*``),
    b-levels and successor CSR (``dfds*`` / ``blevel*``).  T-levels are
    supported by the cache wire format but warmed only here if an
    algorithm family starts using them — nothing in the registry does
    today.

    Everything warmed here ships to attached workers through the
    shared-memory cache wire format, so a worker running the batched
    kernel performs zero cache rebuilds (``dag.cache.rebuild`` stays 0 —
    pinned by ``tests/test_parallel_rss.py``; the heap engine's
    Python-list conversions are per-process by nature).
    """
    union = inst.union_dag()
    union.successor_csr()
    union.indegree()
    union.outdegree()
    union.num_levels()
    union.topological_order()
    if engine != "heap":
        from repro.core.fast_scheduler import padded_promotion

        padded_promotion(union)
    inst.task_levels()
    for g in inst.dags:
        g.num_levels()
        g.indegree()
        g.outdegree()
    names = set(algorithms)
    if any(n.startswith("descendant") for n in names):
        for g in inst.dags:
            g.descendant_counts()
    if any(n.startswith(("dfds", "blevel")) for n in names):
        for g in inst.dags:
            g.b_levels()
            g.successor_csr()


def _die_with_parent() -> None:
    """Arm ``PR_SET_PDEATHSIG`` so a dead driver takes its pool down.

    A driver that dies without cleanup (``SIGKILL``, OOM kill, a hard
    crash — exactly what the campaign plane's resume contract covers)
    would otherwise orphan every pool worker on its call-queue read
    forever.  Linux-only and best-effort: anywhere ``prctl`` is missing
    the workers keep today's behaviour.  If the parent died in the
    window before the flag was armed, exit immediately — the new parent
    (init) will never die for us.
    """
    import signal

    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # 1 = PR_SET_PDEATHSIG
    except Exception:
        return
    import os

    if os.getppid() == 1:
        os.kill(os.getpid(), signal.SIGKILL)


def init_worker(trace: bool = False) -> None:
    """Pool initializer for grid and serve workers.

    Ties the worker's lifetime to the driver's (:func:`_die_with_parent`)
    so a SIGKILL'd campaign, grid run or daemon never strands orphan
    workers, and registers an exit hook that drops the worker's
    mappings when it dies.  Stores are attached by the first chunk that
    needs them (:func:`run_chunk`).

    ``trace`` mirrors the parent's tracing switch explicitly (env
    inheritance is not enough when the parent enabled tracing
    programmatically, and spawn-context workers inherit no module
    state).  The buffers are reset either way so a fork-started worker
    never re-ships spans it inherited from the parent's buffer.
    """
    from repro import obs
    from repro.parallel.shm_store import detach_all

    _die_with_parent()
    if trace:
        obs.enable_tracing()
    else:
        obs.disable_tracing()
    obs.reset()
    atexit.register(detach_all)


def run_chunk(
    manifest: "StoreManifest",
    cells: Sequence["GridCell"],
    with_comm: bool,
    engine: str,
    blocks: "np.ndarray | None" = None,
) -> tuple[list[tuple[int, "ScheduleSummary"]], float, dict | None]:
    """Execute one chunk of grid cells against the shared instance.

    Every cell of the chunk has the same block size; ``blocks`` is that
    size's cell→block labelling (``None`` for block size 1).

    Returns ``(pairs, peak_rss_mb, obs_payload)`` where ``pairs`` is a
    list of ``(cell index, ScheduleSummary)`` — keyed results, so the
    dispatcher aggregates by cell index and a transport reordering
    cannot silently mis-assign rows — ``peak_rss_mb`` is this worker's
    peak RSS (the flat-memory evidence ``tests/test_parallel_rss.py``
    pins), and
    ``obs_payload`` carries this worker's buffered spans/metrics back
    over the result channel (``None`` when tracing is disabled).

    On failure the drained payload is attached to the raised exception
    (:func:`repro.obs.attach_payload_to_exception`), so even a
    :class:`~repro.util.errors.SanitizerError` mid-chunk loses no trace
    data — the dispatcher recovers it in the parent.
    """
    from repro import obs
    from repro.experiments.runner import run_cell_on
    from repro.parallel.dispatcher import process_peak_rss_mb
    from repro.parallel.shm_store import attach, verify_attached
    from repro.util.timing import Timer

    try:
        if len({cell.block_size for cell in cells}) > 1:
            raise ValueError(
                "a chunk's cells must share one block size: one labelling "
                "travels with the chunk"
            )
        with obs.span(
            "worker.chunk",
            cat="parallel",
            args_fn=lambda: {"cells": len(cells)},
        ):
            with obs.span("worker.attach", cat="parallel"), Timer() as t_at:
                inst = attach(manifest)
            obs.gauge_max("parallel.attach_s", t_at.elapsed)
            pairs = []
            for cell in cells:
                with obs.span(
                    "worker.cell",
                    cat="parallel",
                    args_fn=lambda cell=cell: {
                        "index": cell.index,
                        "algorithm": cell.algorithm,
                        "m": cell.m,
                    },
                ):
                    summary = run_cell_on(
                        inst,
                        cell.algorithm,
                        cell.m,
                        cell.block_size,
                        cell.seed,
                        with_comm=with_comm,
                        engine=engine,
                        blocks=blocks,
                    )
                pairs.append((cell.index, summary))
            # Under REPRO_SANITIZE=1 pin any stray segment write to the
            # chunk that made it (no-op otherwise).
            with obs.span("sanitize.verify_chunk", cat="sanitize"):
                verify_attached(manifest)
    except BaseException as exc:
        obs.attach_payload_to_exception(exc)
        raise
    return pairs, process_peak_rss_mb(), obs.export_payload()
