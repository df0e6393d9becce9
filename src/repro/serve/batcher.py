"""Request coalescing and dispatch onto the resident worker pool.

The daemon's latency/throughput trade is made here: schedule requests
arriving within a small window (``max_delay_s``) that are *compatible*
— same published segment, engine, block size, and comm setting — are
coalesced into one grid chunk and dispatched as a single IPC round trip
to a **resident** spawn-context pool (created once at daemon start, so
a warm request never pays interpreter/import startup).  Workers run the
exact chunk entry point of the one-shot dispatcher
(:func:`repro.parallel.worker.run_chunk`), so results are bit-identical
to ``run_grid`` by construction: every cell's randomness is a function
of its seed alone.  A chunk has one block size, and its labelling (from
the registry entry's memo) travels with the chunk; a worker attaches to
each instance's segment once and keeps it while the segment lives.

Batches respect per-request deadlines twice: an already-expired request
is dropped from the chunk at dispatch (its slot answered with
``deadline_exceeded``), and a result arriving after the deadline is
discarded the same way — a client never receives a stale result.
"""

from __future__ import annotations

import asyncio
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.serve import protocol
from repro.serve.instances import Lease
from repro.util.errors import ServeError
from repro.util.timing import now

__all__ = ["BatchRequest", "Batcher"]

#: Default coalescing window: long enough that one pipelined burst of
#: client frames lands in one chunk, short enough to be invisible next
#: to scheduling work.
DEFAULT_MAX_DELAY_S = 0.005

#: Hard cap on cells per coalesced chunk (memory/latency guard).
DEFAULT_MAX_BATCH = 64


def _worker_ready() -> int:
    """No-op task used to pre-spawn pool workers at daemon start."""
    import os

    return os.getpid()


@dataclass
class BatchRequest:
    """One in-flight schedule request inside the batcher."""

    algorithm: str
    m: int
    block_size: int
    seed: object
    with_comm: bool
    engine: str
    lease: Lease
    future: asyncio.Future
    #: Absolute monotonic deadline (``repro.util.timing.now`` timeline),
    #: or ``None`` for no deadline.
    deadline: float | None = None
    #: Cell→block labelling of ``block_size`` (``None`` for size 1).
    blocks: np.ndarray | None = None

    def expired(self, at: float) -> bool:
        return self.deadline is not None and at >= self.deadline

    def batch_key(self) -> tuple:
        """Coalescing compatibility: segment × engine × block × comm."""
        return (
            self.lease.manifest.segment,
            self.engine,
            self.block_size,
            self.with_comm,
        )


@dataclass
class _PendingBatch:
    requests: list = field(default_factory=list)
    timer: object = None


class Batcher:
    """Coalesce compatible requests; dispatch chunks to a resident pool."""

    def __init__(
        self,
        workers: int = 2,
        max_delay_s: float = DEFAULT_MAX_DELAY_S,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        self.workers = max(int(workers), 1)
        self.max_delay_s = max_delay_s
        self.max_batch = max(int(max_batch), 1)
        self._pool = None
        self._batches: dict[tuple, _PendingBatch] = {}
        self._dispatches: set = set()
        self.chunks_dispatched = 0
        self.cells_dispatched = 0

    # -- pool lifecycle ------------------------------------------------

    def _new_pool(self):
        """A spawn pool of lazily-attaching workers.

        A serve worker outlives many instances: it attaches inside
        :func:`repro.parallel.worker.run_chunk`, memoised per segment
        for as long as the segment lives.
        """
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        from repro.parallel.worker import init_worker

        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=get_context("spawn"),
            initializer=init_worker,
            initargs=(obs.tracing_enabled(),),
        )

    def start(self) -> None:
        """Create the resident spawn pool and pre-spawn its workers.

        Paying interpreter+import startup here — not on the first
        request — is what makes warm request latency independent of
        process creation.
        """
        if self._pool is not None:
            return
        self._pool = self._new_pool()
        ready = [
            self._pool.submit(_worker_ready) for _ in range(self.workers)
        ]
        for fut in ready:
            fut.result()

    async def _replace_pool(self, broken) -> None:
        """Swap a pool that lost a worker for a fresh one.

        A dead worker (SIGKILL, OOM kill) breaks the whole
        ``ProcessPoolExecutor``, and every chunk that meets the broken
        pool calls this; only the first call per broken pool replaces
        it.  The fresh pool spawns its workers on demand, and the broken
        one is shut down off the event loop.
        """
        if self._pool is not broken:
            return
        obs.inc("serve.pool_replaced")
        self._pool = self._new_pool()
        await asyncio.to_thread(broken.shutdown, wait=True)

    async def _run_chunk(self, *args):
        """Run ``run_chunk(*args)`` on the pool, replacing it if broken.

        A pool found broken at submit never ran the chunk, so the chunk
        is submitted again on the replacement.  A chunk in flight when a
        worker died re-raises ``BrokenProcessPool`` after the pool is
        replaced, and the caller fails that chunk's requests.
        """
        from repro.parallel.worker import run_chunk

        pool = self._pool
        try:
            future = pool.submit(run_chunk, *args)
        except BrokenProcessPool:
            await self._replace_pool(pool)
            pool = self._pool
            future = pool.submit(run_chunk, *args)
        try:
            return await asyncio.wrap_future(future)
        except BrokenProcessPool:
            await self._replace_pool(pool)
            raise

    async def shutdown(self) -> None:
        """Flush pending batches, await in-flight chunks, stop the pool."""
        for key in list(self._batches):
            self._flush(key)
        while self._dispatches:
            await asyncio.gather(*list(self._dispatches),
                                 return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- request path --------------------------------------------------

    async def submit(self, request: BatchRequest):
        """Enqueue one request; resolves to its ``ScheduleSummary``.

        The request joins (or opens) the pending batch of its
        compatibility key; the batch flushes when the coalescing window
        elapses or the batch cap is reached, whichever first.
        """
        if self._pool is None:
            raise ServeError(protocol.E_INTERNAL, "batcher pool not started")
        key = request.batch_key()
        batch = self._batches.get(key)
        if batch is None:
            batch = self._batches[key] = _PendingBatch()
            loop = asyncio.get_running_loop()
            batch.timer = loop.call_later(
                self.max_delay_s, self._flush, key
            )
        batch.requests.append(request)
        if len(batch.requests) >= self.max_batch:
            self._flush(key)
        return await request.future

    def _flush(self, key: tuple) -> None:
        batch = self._batches.pop(key, None)
        if batch is None:
            return
        if batch.timer is not None:
            batch.timer.cancel()
        with obs.span(
            "serve.batch",
            cat="serve",
            args_fn=lambda: {
                "requests": len(batch.requests), "segment": key[0],
            },
        ):
            at = now()
            live: list[BatchRequest] = []
            for request in batch.requests:
                if request.expired(at):
                    _refuse_expired(request, "before dispatch")
                else:
                    live.append(request)
        if not live:
            return
        task = asyncio.get_running_loop().create_task(
            self._dispatch(live)
        )
        self._dispatches.add(task)
        task.add_done_callback(self._dispatches.discard)

    async def _dispatch(self, requests: list) -> None:
        """Run one coalesced chunk on the pool; settle every request."""
        from repro.parallel.dispatcher import GridCell

        first = requests[0]
        cells = tuple(
            GridCell(i, r.algorithm, r.m, r.block_size, r.seed)
            for i, r in enumerate(requests)
        )
        self.chunks_dispatched += 1
        self.cells_dispatched += len(cells)
        try:
            with obs.span(
                "serve.dispatch",
                cat="serve",
                args_fn=lambda: {"cells": len(cells)},
            ):
                pairs, worker_rss, payload = await self._run_chunk(
                    first.lease.manifest,
                    cells,
                    first.with_comm,
                    first.engine,
                    first.blocks,
                )
            obs.ingest_payload(payload)
            obs.gauge_max("serve.peak_worker_rss_mb", worker_rss)
        except BaseException as exc:
            obs.recover_payload_from_exception(exc)
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(ServeError(
                        protocol.E_INTERNAL,
                        f"worker chunk failed: {type(exc).__name__}: {exc}",
                    ))
                request.lease.release()
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            return
        at = now()
        for index, summary in pairs:
            request = requests[index]
            if request.expired(at):
                # The result exists but arrived late; the contract is an
                # error, never a stale answer.
                _refuse_expired(request, "after dispatch")
            elif not request.future.done():
                request.future.set_result(summary)
            request.lease.release()


def _refuse_expired(request: BatchRequest, when: str) -> None:
    obs.inc("serve.deadline_exceeded")
    if not request.future.done():
        request.future.set_exception(ServeError(
            protocol.E_DEADLINE_EXCEEDED,
            f"deadline expired {when} (deadline_s elapsed while the "
            "request was queued or running)",
        ))
    if when == "before dispatch":
        request.lease.release()
