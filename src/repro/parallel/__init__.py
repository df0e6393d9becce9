"""Shared-memory instance plane + locality-aware parallel grid dispatch.

Two cooperating pieces make multi-worker experiment grids scale on real
hardware instead of multiplying work:

* :class:`SharedInstanceStore` (:mod:`repro.parallel.shm_store`) — the
  parent serialises one sweep instance (edge/CSR arrays, materialised DAG
  memo caches) into a single ``multiprocessing.shared_memory`` segment;
  workers attach read-only zero-copy numpy views, so W workers share one
  copy instead of rebuilding and holding W.
* the dispatcher (:mod:`repro.parallel.dispatcher`) — batches all seeds
  of a grid row into one task, groups tasks by block size, packs them
  into cost-balanced chunks that each carry their block labelling, and
  streams keyed ``(cell index, summary)``
  results back while guaranteeing segment cleanup even when a worker
  crashes mid-grid.

``repro.experiments.runner.run_grid(workers=N)`` is the front door; the
output is bit-identical to the serial run for any worker count.
"""

from repro.parallel.dispatcher import (
    CellBatch,
    DispatchStats,
    GridCell,
    grid_cells,
    plan_batches,
    plan_chunks,
    process_peak_rss_mb,
    run_dispatch,
)
from repro.parallel.sanitize import sanitize_enabled
from repro.parallel.shm_store import (
    SHM_PREFIX,
    SharedInstanceStore,
    StoreManifest,
    attach,
    detach_all,
    list_orphan_segments,
    verify_attached,
)
from repro.parallel.worker import warm_instance

__all__ = [
    "SHM_PREFIX",
    "CellBatch",
    "DispatchStats",
    "GridCell",
    "SharedInstanceStore",
    "StoreManifest",
    "attach",
    "detach_all",
    "grid_cells",
    "list_orphan_segments",
    "plan_batches",
    "plan_chunks",
    "process_peak_rss_mb",
    "run_dispatch",
    "sanitize_enabled",
    "verify_attached",
    "warm_instance",
]
