"""The batched list-scheduling kernel (``engine="bucket"``).

The second engine behind :func:`repro.core.list_scheduler.list_schedule`
and :func:`~repro.core.list_scheduler.list_schedule_unassigned`.  Where
the heap engine pops one ``(priority, tid)`` tuple at a time, this kernel
runs the paper's greedy rule one BSP-style *superstep* at a time over the
whole ready set, held as one sorted ``int64`` array of packed
``(processor, key, tid)`` codes (``(key, tid)`` in unassigned mode):

1. **pop** — each processor's minimum is the first code of its run in the
   sorted pool, so one group-boundary mask pops every processor's task at
   once (unassigned mode pops the first ``m`` codes instead).
2. **promote** — in-degrees of the popped tasks' successors drop in one
   vectorised step.  :func:`padded_promotion` picks how, from the
   instance alone: a dense padded successor matrix plus
   ``np.subtract.at`` on most instances, or a CSR gather folded by
   ``np.bincount``/``np.unique`` on very wide shallow ones (and on ragged
   graphs whose padded matrix would blow up memory).
3. **merge** — newly ready codes are sorted and merged into the remaining
   pool with one ``np.searchsorted`` + ``np.insert``.

**Endgame drain**: once ``pool.size == remaining`` every unexecuted task
is ready, so no promotion can happen again and each queue just drains in
``(key, tid)`` order.  The kernel then assigns all remaining start times
in one shot — rank within each processor's run (assigned mode) or
``t + i // m`` on machine ``i % m`` (unassigned mode).  This is exact,
not an approximation.

Keys: every priority family this repository uses is numeric, so
integer priorities with a small range are used directly (offset by the
minimum) and anything else numeric is rank compressed through
``np.unique``, which preserves order and equality and therefore the
schedule.  An instance whose packed code would exceed
:data:`_CODE_BITS` bits even after compression is scheduled by the heap
engine instead.

Output is *exactly equivalent* to the heap engine — same start times,
same machine numbers, same tie-breaks, same errors — which
``tests/test_engine_equivalence.py`` pins under both promotion
strategies, and ``tests/test_engine_mutations.py`` backs by killing the
seeded faults below.  Callers reach this module through
``engine="bucket"`` (or its alias ``"vector"``) or through ``"auto"``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.dag import Dag, _gather_csr
from repro.core.instance import SweepInstance
from repro.util.errors import InvalidScheduleError

__all__ = [
    "batched_schedule",
    "bucket_supports",
    "bucket_keys",
    "bucket_preferred",
    "padded_promotion",
]

#: Integer priorities whose value range exceeds ``_DENSE_SLACK * N + 1024``
#: go through rank compression instead of a direct offset, so packed keys
#: can never blow up on sparse keys like ``level * 10**9``.
_DENSE_SLACK = 4

#: ``engine="auto"`` needs enough pops per step to amortise numpy call
#: overhead (~2us per ufunc here); below this effective width (mean
#: wavefront capped at ``m``) the heap engine's C heapq is faster.
#: Calibrated on the tetonly-mesh benchmark family: at effective width 64
#: the kernel breaks even, at 128+ it is 1.5-3x faster.
_POOL_MIN_WIDTH = 64

#: At or above this mean *uncapped* wavefront (``n_tasks // num_levels``)
#: the kernel promotes through CSR gathers instead of the padded matrix,
#: and ``engine="auto"`` picks the kernel at any ``m``: the endgame drain
#: batches most of such an instance, and building the padded matrix costs
#: more than it saves.  Calibrated on the bench families: wide_layer
#: (width 8000) is ~2x faster on CSR promotion, mesh_large (width ~1100)
#: favours the padded matrix.
_CSR_MIN_WIDTH = 4000

#: Bit budget of one packed ``(processor, key, tid)`` code; it must stay
#: a non-negative ``int64``.
_CODE_BITS = 62

#: Test-only fault-injection point for the mutation-kill suite
#: (``tests/test_engine_mutations.py``).  One of ``None`` (production) or:
#:
#: * ``"promote_off_by_one"`` — promoted codes get key + 1;
#: * ``"skip_promotion"`` — only the first newly ready code of a superstep
#:   is merged, the rest are lost;
#: * ``"unsorted_merge"`` — new codes are appended unsorted, breaking the
#:   pool's sorted invariant;
#: * ``"frontier_off_by_one"`` — the pop loses its last task whenever a
#:   superstep pops more than one;
#: * ``"stale_indegree"`` — duplicate same-superstep decrements of one
#:   task fold to a single decrement;
#: * ``"unstable_tiebreak"`` — the tid component of the packed code is
#:   inverted, flipping every equal-priority tie-break.
#:
#: Arming any fault disables the endgame drain, so the faults always run
#: through the superstep loop.  Never set outside tests.
_MUTATION: str | None = None

#: Test-only override of :func:`padded_promotion`: ``None`` (choose from
#: the instance), ``"padded"`` or ``"csr"``.  Lets the equivalence and
#: mutation suites run both promotion strategies on every instance.
_FORCE_PROMOTION: str | None = None


def bucket_supports(priority) -> bool:
    """Can the batched kernel reproduce the heap engine on this priority?

    ``None`` (uniform) and any real-numeric array without NaN qualify —
    integer keys are packed directly, floats through exact rank
    compression.  Object arrays (tuple keys) and NaN-bearing floats need
    the heap engine's comparison semantics.
    """
    if priority is None:
        return True
    arr = np.asarray(priority)
    if arr.dtype == np.bool_ or np.issubdtype(arr.dtype, np.integer):
        return True
    if np.issubdtype(arr.dtype, np.floating):
        return not bool(np.isnan(arr).any())
    return False


def bucket_keys(priority, n_tasks: int) -> np.ndarray:
    """Dense non-negative ``int64`` keys equivalent to ``priority`` ordering.

    Preserves both relative order and equality of the original keys, so a
    schedule built on the returned keys is bit-identical to one built on
    the raw priorities.  Raises :class:`InvalidScheduleError` when the
    priorities are not supported (see :func:`bucket_supports`).
    """
    if priority is None:
        return np.zeros(n_tasks, dtype=np.int64)
    if not bucket_supports(priority):
        raise InvalidScheduleError(
            "bucket engine requires numeric NaN-free priorities; "
            "use engine='heap' for non-scalar keys"
        )
    arr = np.asarray(priority)
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if arr.dtype == np.bool_ or np.issubdtype(arr.dtype, np.integer):
        lo = int(arr.min())
        hi = int(arr.max())
        if hi - lo <= _DENSE_SLACK * n_tasks + 1024:
            return arr.astype(np.int64) - lo
    # Sparse integers and floats: exact rank compression.  np.unique sorts
    # and deduplicates, so equal keys share a rank and order is preserved.
    _, inverse = np.unique(arr, return_inverse=True)
    return inverse.astype(np.int64)


def _mean_width(union: Dag) -> int:
    """Uncapped mean wavefront: tasks per level of the union DAG."""
    d = union.num_levels()
    return union.n // d if d > 0 else 0


def bucket_preferred(inst: SweepInstance, m: int, priority) -> bool:
    """Should ``engine="auto"`` pick the batched kernel here?

    True when the priorities are supported *and* the instance is wide
    enough for supersteps to beat C heapq: an effective width
    ``min(m, n_tasks // num_levels)`` of at least :data:`_POOL_MIN_WIDTH`,
    or an uncapped width of at least :data:`_CSR_MIN_WIDTH`.  An explicit
    ``engine="bucket"`` runs the kernel regardless of width.
    """
    if not bucket_supports(priority):
        return False
    width = _mean_width(inst.union_dag())
    return min(m, width) >= _POOL_MIN_WIDTH or width >= _CSR_MIN_WIDTH


def padded_promotion(union: Dag) -> tuple[np.ndarray, np.ndarray] | None:
    """The padded successor matrix the kernel promotes through, or ``None``.

    ``None`` means CSR promotion: the instance's uncapped mean wavefront
    reaches :data:`_CSR_MIN_WIDTH`, or :meth:`Dag.padded_successors`
    declines a ragged graph.  This is the one place the choice is made;
    :func:`repro.parallel.worker.warm_instance` calls it too, so workers
    warm exactly the caches the kernel reads.
    """
    if _FORCE_PROMOTION == "csr":
        return None
    if _FORCE_PROMOTION is None and _mean_width(union) >= _CSR_MIN_WIDTH:
        return None
    return union.padded_successors()


def _pool_codes(
    key: np.ndarray, n_tasks: int, m: int | None
) -> tuple[np.ndarray, int, int] | None:
    """Packed ``(proc?, key, tid)`` code parameters.

    Returns ``(key, logn, kb)`` where ``code = (key << logn) | tid`` fits
    :data:`_CODE_BITS` bits together with ``m`` processor values above it
    (when ``m`` is given).  Wide keys are rank compressed first; if even
    the compressed key cannot fit, returns ``None``.
    """
    logn = max(1, (n_tasks - 1).bit_length()) if n_tasks > 1 else 1
    logm = max(1, (m - 1).bit_length()) if m is not None else 0
    kb = max(1, int(key.max()).bit_length()) if key.size else 1
    if logn + kb + logm > _CODE_BITS:
        _, inverse = np.unique(key, return_inverse=True)
        key = inverse.astype(np.int64)
        kb = max(1, int(key.max()).bit_length()) if key.size else 1
        if logn + kb + logm > _CODE_BITS:
            return None
    return key, logn, kb


def _csr_decrement(
    indeg: np.ndarray, off: np.ndarray, tgt: np.ndarray, done: np.ndarray
) -> np.ndarray:
    """CSR in-degree decrement; returns the newly ready task ids.

    A dense ``np.bincount`` histogram when the gathered successor batch
    rivals the vertex count (O(n) and branch-free beats sorting it), and
    ``np.unique(..., return_counts=True)`` when it is sparse.  Both fold
    duplicate edges and same-step sibling completions into one
    subtraction per target.
    """
    succ = _gather_csr(off, tgt, done)
    if not succ.size:
        return succ
    if succ.size >= indeg.size // 4:
        counts = np.bincount(succ, minlength=indeg.size)
        touched = np.flatnonzero(counts)
        counts = counts[touched]
    else:
        touched, counts = np.unique(succ, return_counts=True)
    indeg[touched] -= 1 if _MUTATION == "stale_indegree" else counts
    return touched[indeg[touched] == 0]


def _supersteps(
    union: Dag,
    m: int,
    code_of: np.ndarray,
    logn: int,
    pshift: int | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run the kernel; ``pshift`` is the processor field's shift, or
    ``None`` in unassigned mode.  Returns ``(start, machine)``; ``machine``
    is ``None`` exactly in assigned mode."""
    n_tasks = code_of.size
    mut = _MUTATION
    padded = padded_promotion(union)
    if padded is None:
        off, tgt = union.successor_csr()
        indeg = union.indegree()
    else:
        succ_of = padded[0]
        indeg = padded[1].copy()
    tid_mask = (1 << logn) - 1

    def decode(codes: np.ndarray) -> np.ndarray:
        tids = codes & tid_mask
        return n_tasks - 1 - tids if mut == "unstable_tiebreak" else tids

    pool = np.sort(code_of[np.flatnonzero(indeg[:n_tasks] == 0)])
    start = np.full(n_tasks, -1, dtype=np.int64)
    machine = None if pshift is not None else np.full(n_tasks, -1, dtype=np.int64)
    # first[i] is True iff pool[i] is the first (= smallest) code of its
    # processor's run; slot 0 is always a run start.
    first = np.ones(n_tasks + 1, dtype=bool)
    remaining = n_tasks
    t = 0
    supersteps = 0
    peak_ready = 0
    while remaining:
        r = pool.size
        if not r:
            raise InvalidScheduleError(
                "no ready task but tasks remain — instance has a cycle"
            )
        if r > peak_ready:
            peak_ready = r
        supersteps += 1
        f = first[:r]
        if pshift is not None:
            pp = pool >> pshift
            np.not_equal(pp[1:], pp[:-1], out=f[1:])
        if r == remaining and mut is None:
            # Endgame drain: no promotion is left, so every queue drains
            # in (key, tid) order — batch all remaining starts at once.
            idx = np.arange(r, dtype=np.int64)
            done = decode(pool)
            if machine is None:
                offset = idx - np.maximum.accumulate(np.where(f, idx, 0))
            else:
                offset = idx // m
                machine[done] = idx % m
            start[done] = t + offset
            t += int(offset.max()) + 1
            break
        if machine is None:
            if mut == "frontier_off_by_one":
                hits = np.flatnonzero(f)
                if hits.size > 1:
                    f[hits[-1]] = False
            popped, pool = pool[f], pool[~f]
        else:
            n_exec = min(m, r)
            if mut == "frontier_off_by_one" and n_exec > 1:
                n_exec -= 1
            popped, pool = pool[:n_exec], pool[n_exec:]
        done = decode(popped)
        start[done] = t
        if machine is not None:
            machine[done] = np.arange(done.size, dtype=np.int64)
        remaining -= done.size
        if padded is None:
            newly = _csr_decrement(indeg, off, tgt, done)
        else:
            succ = succ_of[done].ravel()
            if mut == "stale_indegree":
                indeg[succ] -= 1
            else:
                np.subtract.at(indeg, succ, 1)
            newly = succ[indeg[succ] == 0]
        if newly.size:
            # Tasks freed by several predecessors at once repeat in the
            # padded gather; np.unique both dedups and sorts their codes.
            nc = np.unique(code_of[newly])
            if mut == "promote_off_by_one":
                nc += 1 << logn
            elif mut == "skip_promotion":
                nc = nc[:1]
            at = np.searchsorted(pool, nc)
            if mut == "unsorted_merge":
                at[:] = pool.size
            pool = np.insert(pool, at, nc)
        t += 1
    obs.inc("scheduler.pool.steps", t)
    obs.inc("scheduler.pool.supersteps", supersteps)
    obs.gauge_max("scheduler.pool.peak_ready", peak_ready)
    return start, machine


def batched_schedule(
    inst: SweepInstance,
    m: int,
    priority: np.ndarray | None,
    assignment: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Schedule ``inst`` on the batched kernel.

    ``assignment`` (cell → processor) selects assigned mode; ``None``
    runs the unassigned (Graham) mode.  Returns ``(start, machine)`` —
    ``machine`` is ``None`` in assigned mode — or ``None`` when the
    packed codes cannot fit :data:`_CODE_BITS` bits, in which case the
    caller must run the heap engine.  Callers go through
    ``list_schedule(..., engine="bucket")`` /
    ``list_schedule_unassigned``, which validate the arguments first.
    """
    n_tasks = inst.n_tasks
    key = bucket_keys(priority, n_tasks)
    packed = _pool_codes(key, n_tasks, None if assignment is None else m)
    if packed is None:
        return None
    key, logn, kb = packed
    tid = np.arange(n_tasks, dtype=np.int64)
    if _MUTATION == "unstable_tiebreak":
        tid = n_tasks - 1 - tid
    code_of = (key << logn) | tid
    pshift = None
    if assignment is not None:
        pshift = logn + kb
        code_of |= np.tile(np.asarray(assignment, dtype=np.int64), inst.k) << pshift
    with obs.span(
        "schedule.pool",
        cat="scheduler",
        args_fn=lambda: {"n_tasks": n_tasks, "m": m},
    ):
        return _supersteps(inst.union_dag(), m, code_of, logn, pshift)
