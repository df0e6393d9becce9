"""Prioritized list scheduling (Section 3, "List Scheduling").

Two modes, matching the paper:

* :func:`list_schedule` — tasks are pre-assigned to processors (through a
  cell→processor assignment, which enforces the same-processor
  constraint).  At every step each processor runs its highest-priority
  ready task.  This is the engine behind Algorithm 2 and all the
  prioritized heuristics (level / descendant / DFDS).

* :func:`list_schedule_unassigned` — any processor may run any task
  (classical Graham list scheduling on ``m`` identical machines).  Used as
  the preprocessing step of Algorithm 3 and as the relaxation that yields
  a lower bound on OPT.

Two interchangeable engines implement both modes:

* ``engine="heap"`` — the reference implementation below: one binary heap
  per processor, ``O(N log N + m * makespan)`` for ``N = n*k`` tasks.
* ``engine="bucket"`` — :mod:`repro.core.fast_scheduler`: the batched
  kernel.  The whole ready set is one sorted array of packed
  ``(processor, key, tid)`` codes, advanced a superstep at a time with
  vectorised pops, in-degree decrements and merges, plus an exact
  endgame drain.  Bit-identical output (pinned by
  ``tests/test_engine_equivalence.py``), 1.5–3x faster than the heap on
  wide wavefronts.  ``engine="vector"`` is accepted as an alias.
* ``engine="auto"`` (default) — the batched kernel when the priorities
  are numeric and NaN-free *and* the instance is wide enough for
  batching to win (:func:`repro.core.fast_scheduler.bucket_preferred`:
  an effective width of
  :data:`~repro.core.fast_scheduler._POOL_MIN_WIDTH` tasks per step, or
  an uncapped mean wavefront of
  :data:`~repro.core.fast_scheduler._CSR_MIN_WIDTH` tasks per level),
  the heap otherwise.  Narrow instances stay on the heap because C
  ``heapq`` beats any numpy batching there; object/tuple keys stay on
  the heap because they need real comparisons.

Priorities are *minimised*; callers wanting "higher is better" negate
their keys.  Ties break deterministically by task id, so results are
reproducible bit-for-bit for a fixed seed — on either engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush, heappop

import numpy as np

from repro import obs
from repro.core.instance import SweepInstance
from repro.core.schedule import Schedule
from repro.util.errors import InvalidScheduleError

__all__ = [
    "list_schedule",
    "list_schedule_unassigned",
    "UnassignedSchedule",
    "ENGINES",
    "resolve_engine",
]

#: Valid values of the ``engine`` parameter.  ``"vector"`` is an alias of
#: ``"bucket"``, kept so recorded requests and campaign specs still resolve.
ENGINES = ("heap", "bucket", "vector", "auto")


def resolve_engine(engine: str, priority, inst=None, m=None) -> str:
    """Map an ``engine`` request to the engine that will run: ``"heap"``
    or ``"bucket"``.

    ``"auto"`` picks the batched kernel when it can reproduce the heap
    engine exactly (numeric, NaN-free priorities — see
    :func:`repro.core.fast_scheduler.bucket_supports`) *and*, when
    ``inst``/``m`` are given, the instance is wide enough for batching to
    be faster (:func:`repro.core.fast_scheduler.bucket_preferred`), the
    heap otherwise.  An explicit ``"bucket"`` (or ``"vector"``) runs the
    batched kernel on any supported priorities regardless of width, and
    raises on unsupported ones.
    """
    if engine not in ENGINES:
        raise InvalidScheduleError(
            f"unknown engine {engine!r}; choose one of {', '.join(ENGINES)}"
        )
    if engine == "heap":
        return "heap"
    from repro.core.fast_scheduler import bucket_preferred, bucket_supports

    if not bucket_supports(priority):
        if engine != "auto":
            raise InvalidScheduleError(
                f"{engine} engine requires numeric NaN-free priorities; "
                "use engine='heap' (or 'auto') for non-scalar keys"
            )
        return "heap"
    if engine == "auto" and inst is not None and m is not None:
        return "bucket" if bucket_preferred(inst, m, priority) else "heap"
    return "bucket"


def list_schedule(
    inst: SweepInstance,
    m: int,
    assignment: np.ndarray,
    priority: np.ndarray | None = None,
    meta: dict | None = None,
    engine: str = "auto",
) -> Schedule:
    """Prioritized list scheduling with a fixed cell→processor assignment.

    Parameters
    ----------
    inst:
        The sweep instance.
    m:
        Number of processors.
    assignment:
        ``(n_cells,)`` array mapping cells to processors in ``[0, m)``.
    priority:
        ``(n_tasks,)`` array of priorities, **smaller runs first**.  When
        ``None`` all tasks share one priority and ties break by task id.
    meta:
        Provenance stored on the returned :class:`Schedule`.
    engine:
        One of :data:`ENGINES` (see module docs).  Both engines produce
        bit-identical schedules.

    Notes
    -----
    The produced schedule has no avoidable idle time: a processor is idle
    at a step only if none of its assigned tasks is ready.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (inst.n_cells,):
        raise InvalidScheduleError(
            f"assignment has shape {assignment.shape}, expected ({inst.n_cells},)"
        )
    if inst.n_cells and (assignment.min() < 0 or assignment.max() >= m):
        raise InvalidScheduleError(
            f"assignment values must lie in [0, {m})"
        )
    n_tasks = inst.n_tasks
    if priority is not None:
        priority = np.asarray(priority)
        if priority.shape != (n_tasks,):
            raise InvalidScheduleError(
                f"priority has shape {priority.shape}, expected ({n_tasks},)"
            )
    if resolve_engine(engine, priority, inst, m) == "bucket":
        from repro.core.fast_scheduler import batched_schedule

        # None when the packed codes overflow: fall through to the heap.
        batched = batched_schedule(inst, m, priority, assignment)
        if batched is not None:
            return Schedule(
                instance=inst,
                m=m,
                start=batched[0],
                assignment=assignment,
                meta=dict(meta or {}),
            )
    with obs.span(
        "schedule.heap",
        cat="scheduler",
        args_fn=lambda: {"n_tasks": n_tasks, "m": m},
    ):
        union = inst.union_dag()
        off_l, tgt_l = union.successor_lists()
        indeg = union.indegree_list()
        proc_of_task = np.tile(assignment, inst.k).tolist()
        if priority is None:
            prio = [0] * n_tasks
        else:
            prio = priority.tolist()

        heaps: list[list] = [[] for _ in range(m)]
        nonempty: set[int] = set()
        for tid in range(n_tasks):
            if indeg[tid] == 0:
                p = proc_of_task[tid]
                heappush(heaps[p], (prio[tid], tid))
                nonempty.add(p)

        start = np.full(n_tasks, -1, dtype=np.int64)
        remaining = n_tasks
        t = 0
        while remaining:
            if not nonempty:
                raise InvalidScheduleError(
                    "no ready task but tasks remain — instance has a cycle"
                )
            executed = []
            for p in list(nonempty):
                heap = heaps[p]
                _, tid = heappop(heap)
                start[tid] = t
                executed.append(tid)
                if not heap:
                    nonempty.discard(p)
            remaining -= len(executed)
            for tid in executed:
                for s in tgt_l[off_l[tid] : off_l[tid + 1]]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        p = proc_of_task[s]
                        heappush(heaps[p], (prio[s], s))
                        nonempty.add(p)
            t += 1
    # Heap-op counts are exact functions of the run (every task is pushed
    # and popped exactly once), so the metrics cost nothing in the loop.
    obs.inc("scheduler.heap.runs")
    obs.inc("scheduler.heap.pushes", n_tasks)
    obs.inc("scheduler.heap.pops", n_tasks)
    obs.inc("scheduler.heap.steps", t)

    return Schedule(
        instance=inst,
        m=m,
        start=start,
        assignment=assignment,
        meta=dict(meta or {}),
    )


@dataclass
class UnassignedSchedule:
    """Result of Graham list scheduling on ``m`` identical machines.

    This relaxes the same-processor constraint, so it is *not* a feasible
    sweep schedule; it is the preprocessing artifact of Algorithm 3 and a
    lower-bound witness (its makespan is at most ``(2 - 1/m) * OPT_relaxed``
    and ``OPT_relaxed <= OPT``).
    """

    m: int
    start: np.ndarray  # (n_tasks,) step each task ran at
    machine: np.ndarray  # (n_tasks,) machine each task ran on

    @property
    def makespan(self) -> int:
        if self.start.size == 0:
            return 0
        return int(self.start.max()) + 1


def list_schedule_unassigned(
    inst: SweepInstance,
    m: int,
    priority: np.ndarray | None = None,
    engine: str = "auto",
) -> UnassignedSchedule:
    """Greedy (Graham) list scheduling of the union DAG, any-task-anywhere.

    At every step the ``m`` machines grab the ``m`` smallest-priority ready
    tasks.  Every layer of the resulting step structure has at most ``m``
    tasks — exactly the width-reduction Algorithm 3's preprocessing needs.
    ``engine`` selects the heap or batched implementation (bit-identical).
    """
    if m <= 0:
        raise InvalidScheduleError(f"processor count must be positive, got {m}")
    n_tasks = inst.n_tasks
    if priority is not None:
        priority = np.asarray(priority)
        if priority.shape != (n_tasks,):
            raise InvalidScheduleError(
                f"priority has shape {priority.shape}, expected ({n_tasks},)"
            )
    if resolve_engine(engine, priority, inst, m) == "bucket":
        from repro.core.fast_scheduler import batched_schedule

        batched = batched_schedule(inst, m, priority)
        if batched is not None:
            start, machine = batched
            assert machine is not None
            return UnassignedSchedule(m=m, start=start, machine=machine)
    with obs.span(
        "schedule.heap_unassigned",
        cat="scheduler",
        args_fn=lambda: {"n_tasks": n_tasks, "m": m},
    ):
        union = inst.union_dag()
        off_l, tgt_l = union.successor_lists()
        indeg = union.indegree_list()
        if priority is None:
            prio = [0] * n_tasks
        else:
            prio = priority.tolist()

        heap: list = []
        for tid in range(n_tasks):
            if indeg[tid] == 0:
                heappush(heap, (prio[tid], tid))

        start = np.full(n_tasks, -1, dtype=np.int64)
        machine = np.full(n_tasks, -1, dtype=np.int64)
        remaining = n_tasks
        t = 0
        while remaining:
            if not heap:
                raise InvalidScheduleError(
                    "no ready task but tasks remain — instance has a cycle"
                )
            executed = []
            mach = 0
            while heap and mach < m:
                _, tid = heappop(heap)
                start[tid] = t
                machine[tid] = mach
                executed.append(tid)
                mach += 1
            remaining -= len(executed)
            for tid in executed:
                for s in tgt_l[off_l[tid] : off_l[tid + 1]]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        heappush(heap, (prio[s], s))
            t += 1
    obs.inc("scheduler.heap.runs")
    obs.inc("scheduler.heap.pushes", n_tasks)
    obs.inc("scheduler.heap.pops", n_tasks)
    obs.inc("scheduler.heap.steps", t)

    return UnassignedSchedule(m=m, start=start, machine=machine)
