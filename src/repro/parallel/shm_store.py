"""Zero-copy shared-memory publication of sweep instances.

Instead of every worker process rebuilding (and holding) its own copy
of an instance, the parent publishes it once and workers attach:

* the parent flattens one :class:`~repro.core.instance.SweepInstance`
  (plus any materialised memo caches) into a **single**
  ``multiprocessing.shared_memory`` segment via
  :meth:`SharedInstanceStore.publish`.  A segment holds exactly one
  instance and never changes between publish and unlink; block
  labellings are not part of it — each chunk of cells carries its own
  (see :func:`repro.parallel.worker.run_chunk`);
* workers :func:`attach` to the segment by name and get back a fully
  functional instance whose arrays are **read-only zero-copy views** of
  the shared pages — no deserialisation, no per-worker copy, RSS flat in
  the worker count.  A worker keeps every attachment whose segment is
  still live, so one that alternates between instances maps each once;
  an attach miss closes only the attachments whose segment is gone;
* the parent guarantees cleanup: context-manager exit, an ``atexit``
  backstop, and unlink-on-crash (the dispatcher unlinks in a ``finally``
  even when a worker raised mid-grid).

The wire format is ``SweepInstance.export_arrays()``: a JSON-able meta
dict plus named numpy arrays, laid out by
:func:`repro.core.instance.layout_arrays` (the build cache's entry
payload uses the same layout) and described by an
:class:`~repro.core.instance.ArraySpec` table in the picklable
:class:`StoreManifest` that travels to workers with each task.
"""

from __future__ import annotations

import atexit
import os
import secrets
from dataclasses import dataclass, field
from multiprocessing import shared_memory

from repro.core.instance import (
    SweepInstance,
    array_views,
    layout_arrays,
    write_arrays,
)
from repro.parallel import sanitize
from repro.util.errors import StoreError

__all__ = [
    "SHM_PREFIX",
    "StoreManifest",
    "SharedInstanceStore",
    "attach",
    "detach_all",
    "verify_attached",
    "list_orphan_segments",
]

#: Every segment this module creates is named ``reproshm_<hex>`` so leak
#: checks (tests, CI) can scan ``/dev/shm`` for survivors unambiguously.
SHM_PREFIX = "reproshm_"


@dataclass(frozen=True)
class StoreManifest:
    """Everything a worker needs to attach: segment name + array table.

    Picklable and small (no array data), so shipping it with every task
    is free.  ``meta`` is the instance's JSON-able metadata from
    :meth:`repro.core.instance.SweepInstance.export_arrays`.
    """

    segment: str
    meta: dict
    specs: tuple = field(default_factory=tuple)
    #: Content digest of the published segment, stamped only when the
    #: ``REPRO_SANITIZE=1`` sanitizer is active (else ``None``).  Workers
    #: and the owning store re-verify it to catch stray writes.
    digest: str | None = None


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Drop a segment from this process's resource tracker.

    ``SharedMemory`` registers every handle — attach included — and the
    tracker unlinks whatever is still registered at interpreter exit.
    Workers only *attach*; if their handles stayed registered the tracker
    would race the parent's unlink and spam "leaked shared_memory"
    warnings.  Ownership lives with the publishing parent alone.
    """
    try:  # pragma: no cover - tracker layout is a CPython internal
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class SharedInstanceStore:
    """One published instance in shared memory, immutable until unlink.

    Use as a context manager in the parent::

        with SharedInstanceStore.publish(inst) as store:
            pool.submit(work, store.manifest, ...)

    Exit closes *and unlinks* the segment; an ``atexit`` hook covers
    abnormal parent exits.  Workers never unlink — they :func:`attach`
    and the views die with the process.
    """

    def __init__(self, shm: shared_memory.SharedMemory, manifest: StoreManifest):
        self._shm = shm
        self._closed = False
        self.manifest = manifest
        atexit.register(self._cleanup)

    @property
    def nbytes(self) -> int:
        """Size of the shared segment in bytes."""
        return self._shm.size

    @classmethod
    def publish(cls, inst: SweepInstance) -> "SharedInstanceStore":
        """Serialise ``inst`` into one segment.

        Memo caches are included exactly as materialised on ``inst`` —
        warm them first (see :func:`repro.parallel.warm_instance`) so
        workers inherit the expensive precomputations instead of redoing
        them.
        """
        meta, arrays = inst.export_arrays()
        return cls.publish_arrays(meta, arrays)

    @classmethod
    def publish_arrays(cls, meta: dict, arrays: dict) -> "SharedInstanceStore":
        """Publish an already-exported instance payload into one segment.

        ``(meta, arrays)`` is the
        :meth:`~repro.core.instance.SweepInstance.export_arrays` wire
        format — exactly what :func:`repro.cache.load_arrays` returns on
        a build-cache hit, so a cached instance can be published to
        workers without ever rehydrating per-direction ``Dag`` objects
        in the parent.  :meth:`publish` is a thin wrapper that exports
        a live instance first.
        """
        specs, total = layout_arrays(arrays)
        name = f"{SHM_PREFIX}{secrets.token_hex(8)}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(total, 1)
        )
        try:
            write_arrays(specs, arrays, shm.buf)
            digest = (
                sanitize.segment_digest(shm.buf)
                if sanitize.sanitize_enabled() else None
            )
            manifest = StoreManifest(
                segment=shm.name, meta=meta, specs=specs, digest=digest,
            )
        except BaseException:
            # A dtype-cast failure (or KeyboardInterrupt) before the
            # handle reaches its owner would otherwise leak a named
            # segment until reboot.
            shm.close()
            shm.unlink()
            raise
        return cls(shm, manifest)

    # -- lifecycle -----------------------------------------------------

    def _cleanup(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            # Fork-started workers share this process's resource tracker;
            # their attach-time unregister (see _untrack) may have removed
            # our registration, making unlink()'s own unregister a KeyError
            # inside the tracker daemon.  Re-registering first keeps the
            # tracker's cache consistent either way (it is a set).
            try:
                from multiprocessing import resource_tracker

                resource_tracker.register(self._shm._name, "shared_memory")
            except Exception:  # pragma: no cover - CPython internal
                pass
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked elsewhere
            pass

    def close(self) -> None:
        """Close and unlink the segment (idempotent).

        Under ``REPRO_SANITIZE=1`` the segment's contents are verified
        against the published digest first, so a stray write anywhere in
        the grid run fails the owning store's shutdown loudly.
        """
        if not self._closed:
            sanitize.check_digest(
                self._shm.buf, self.manifest.digest, "store close"
            )
        self._cleanup()
        atexit.unregister(self._cleanup)

    def __enter__(self) -> "SharedInstanceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"SharedInstanceStore({self.manifest.segment!r}, {state})"


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: Per-process attachment cache: segment name -> (shm, instance).  A
#: segment never changes while it exists, so an attachment stays valid
#: until the owner unlinks the segment; a worker that alternates
#: between instances maps each one once.
_ATTACHED: dict = {}


def attach(manifest: StoreManifest) -> SweepInstance:
    """Attach to a published store; returns its instance.

    Zero-copy: the instance's arrays are read-only views of the shared
    segment.  Attachments are memoised per process and per segment, so a
    pool worker pays the mapping cost — and rebuilds the memo caches
    the segment did not ship — once per instance, no matter how many
    task chunks it executes or how often it switches instances.  On a
    miss, attachments whose segment is gone from ``/dev/shm`` (its owner
    unlinked it) are closed first; live ones are kept.
    """
    cached = _ATTACHED.get(manifest.segment)
    if cached is not None:
        return cached[1]
    live = set(list_orphan_segments())
    for name in [name for name in _ATTACHED if name not in live]:
        _close(_ATTACHED.pop(name))
    # Attach-only handle: ownership (and unlinking) stays with the
    # publishing parent; this mapping is closed once the segment is
    # gone, or by detach_all() at worker exit.
    try:
        shm = shared_memory.SharedMemory(  # repro-lint: disable=RPL003 -- worker attach never owns the segment; the publishing SharedInstanceStore holds the close+unlink paths and _close() closes this handle
            name=manifest.segment
        )
    except FileNotFoundError as exc:
        raise StoreError(
            f"shared-memory segment {manifest.segment!r} no longer exists; "
            "the publishing process likely unlinked it (daemon restarted, "
            "instance evicted, or the owning store was closed) — "
            "re-publish the instance and retry with a fresh manifest"
        ) from exc
    _untrack(shm)
    views = array_views(manifest.specs, shm.buf, writeable=False)
    if manifest.digest is not None:
        sanitize.check_digest(shm.buf, manifest.digest, "attach")
        sanitize.poison_views(views, "attach")
    inst = SweepInstance.from_arrays(manifest.meta, views)
    _ATTACHED[manifest.segment] = (shm, inst)
    return inst


def verify_attached(manifest: StoreManifest) -> None:
    """Re-verify a memoised attachment against its published digest.

    No-op unless the manifest carries a sanitizer digest and this process
    is currently attached to the segment.  Workers call this after every
    chunk so a stray write is pinned to the chunk that made it.
    """
    entry = _ATTACHED.get(manifest.segment)
    if entry is not None and manifest.digest is not None:
        sanitize.check_digest(entry[0].buf, manifest.digest, "worker chunk")


def _close(entry: tuple) -> None:
    try:
        entry[0].close()
    except BufferError:  # live views still reference the buffer
        pass


def detach_all() -> None:
    """Close every memoised attachment (worker exit)."""
    while _ATTACHED:
        _close(_ATTACHED.popitem()[1])


def list_orphan_segments() -> list[str]:
    """Names of store segments still present in ``/dev/shm``.

    Cleanup verification for tests and the CI leak check: after a grid —
    even one aborted by a worker crash — this must be empty.  Returns
    ``[]`` on platforms without a scannable ``/dev/shm``.
    """
    try:
        return sorted(
            name for name in os.listdir("/dev/shm")
            if name.startswith(SHM_PREFIX)
        )
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []
