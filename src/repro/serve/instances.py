"""Resident-instance registry of the scheduling daemon.

The daemon's whole value is amortisation: an instance is published into
shared memory **once** and then serves thousands of schedule requests.
This module owns that residency:

* **Identity** — an instance is named by its content key
  (:func:`repro.experiments.runner.content_key`), the same blake2b
  digest the on-disk build cache uses, so "resident in the daemon" and
  "cached on disk" are one identity.
* **Hydration** — a publish looks the disk cache up once
  (:func:`repro.cache.load_arrays`); on a hit the wire-format arrays go
  straight into
  :meth:`~repro.parallel.shm_store.SharedInstanceStore.publish_arrays`
  without rehydrating per-direction ``Dag`` objects.  Only a cold miss
  pays mesh + DAG construction (which then also seeds the disk cache).
* **One segment per entry** — an entry's segment holds the instance
  alone and never changes until the entry is evicted or drained.  Block
  labellings are not published: an entry memoises the labellings it
  has computed, and the batcher ships the one a chunk needs with the
  chunk.  A request for a new block size computes its labelling on the
  registry thread and publishes nothing.
* **Pinned LRU eviction** — residency is byte-accounted against a
  budget; eviction walks least-recently-used entries but **never evicts
  an instance with in-flight requests** (``pins > 0``; each in-flight
  batch holds a :class:`Lease` on its entry).

Gauges ``serve.instances.{hits,misses,evictions,resident_bytes}`` mirror
the registry counters onto the obs metrics plane.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.util.errors import ServeError

if TYPE_CHECKING:
    from repro.parallel.shm_store import SharedInstanceStore

__all__ = ["InstanceSpec", "ResidentInstance", "Lease", "InstanceRegistry"]

#: Default residency budget: generous for test/CI meshes, small enough
#: that a runaway publisher hits backpressure before the host swaps.
DEFAULT_MAX_RESIDENT_BYTES = 512 * 1024 * 1024


@dataclass(frozen=True)
class InstanceSpec:
    """The mesh-derived instance a request runs against."""

    mesh: str
    target_cells: int
    mesh_seed: int
    k: int

    @classmethod
    def from_payload(cls, payload: dict) -> "InstanceSpec":
        """Build from a validated request's ``instance`` object."""
        return cls(
            mesh=payload["mesh"],
            target_cells=payload["target_cells"],
            mesh_seed=payload["mesh_seed"],
            k=payload["k"],
        )

    def content_key(self) -> str:
        """The blake2b identity shared with :mod:`repro.cache`."""
        from repro.experiments.runner import content_key

        return content_key(
            self.mesh, self.target_cells, self.mesh_seed, self.k
        )

    def config(self):
        """An :class:`~repro.experiments.configs.ExperimentConfig` view."""
        from repro.experiments.configs import ExperimentConfig

        return ExperimentConfig(
            mesh=self.mesh,
            target_cells=self.target_cells,
            mesh_seed=self.mesh_seed,
            k=self.k,
            name="serve",
        )


@dataclass
class ResidentInstance:
    """One registry entry: identity, its segment, labellings, accounting."""

    key: str
    spec: InstanceSpec
    store: SharedInstanceStore
    #: Block size -> cell->block labelling, for every size computed so far.
    blocks: dict = field(default_factory=dict)
    #: LRU clock tick of the last touch (monotonic per registry).
    seq: int = 0
    #: In-flight leases.
    pins: int = 0

    @property
    def nbytes(self) -> int:
        return self.store.nbytes

    @property
    def block_sizes(self) -> tuple:
        return tuple(sorted(self.blocks))


@dataclass
class Lease:
    """A pin on one entry for one in-flight request batch.

    An entry with any live lease is immune to LRU eviction.
    """

    entry: ResidentInstance
    _registry: "InstanceRegistry"

    @property
    def manifest(self):
        return self.entry.store.manifest

    def release(self) -> None:
        self._registry._release(self)


class InstanceRegistry:
    """Byte-accounted, pin-aware LRU of daemon-resident instances.

    All methods are thread-safe: publishes run on the daemon's registry
    executor thread while pins/releases arrive from the event loop.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_RESIDENT_BYTES) -> None:
        self.max_bytes = max_bytes
        self._entries: dict[str, ResidentInstance] = {}
        self._lock = threading.Lock()
        self._clock = 0
        self.counters: dict[str, int] = {
            "hits": 0, "misses": 0, "evictions": 0,
        }

    # -- introspection -------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident_bytes_locked()

    def _resident_bytes_locked(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def snapshot(self) -> dict:
        """Status view: per-entry occupancy plus the counters."""
        with self._lock:
            return {
                "resident_bytes": self._resident_bytes_locked(),
                "max_bytes": self.max_bytes,
                "counters": dict(self.counters),
                "instances": [
                    {
                        "key": e.key,
                        "mesh": e.spec.mesh,
                        "target_cells": e.spec.target_cells,
                        "k": e.spec.k,
                        "block_sizes": list(e.block_sizes),
                        "bytes": e.nbytes,
                        "pins": e.pins,
                    }
                    for e in sorted(
                        self._entries.values(), key=lambda e: -e.seq
                    )
                ],
            }

    # -- lease lifecycle -----------------------------------------------

    def pin(self, entry: ResidentInstance) -> Lease:
        """Pin ``entry`` for one in-flight batch."""
        with self._lock:
            entry.pins += 1
            self._clock += 1
            entry.seq = self._clock
            return Lease(entry, self)

    def _release(self, lease: Lease) -> None:
        with self._lock:
            lease.entry.pins -= 1

    # -- publish / lookup ----------------------------------------------

    def get_or_publish(
        self,
        spec: InstanceSpec,
        block_sizes: tuple = (),
        algorithms: tuple = (),
        engine: str = "auto",
    ) -> ResidentInstance:
        """Resident entry for ``spec`` holding the labellings of ``block_sizes``.

        Registry hit: LRU-touch.  Miss: hydrate from the disk cache or
        build, publish, then evict LRU unpinned entries down to the
        byte budget.  Either way, labellings the entry does not hold yet
        are computed and memoised on it; nothing is republished.
        """
        key = spec.content_key()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.counters["hits"] += 1
                obs.inc("serve.instances.hits")
                self._clock += 1
                entry.seq = self._clock
        if entry is None:
            entry = self._publish_new(spec, key, algorithms, engine)
        from repro.experiments.runner import get_blocks

        for size in sorted({s for s in block_sizes if s > 1} - set(entry.blocks)):
            labelling = get_blocks(spec.config(), size)
            with self._lock:
                entry.blocks[size] = labelling
        return entry

    def _publish_new(self, spec, key, algorithms, engine) -> ResidentInstance:
        from repro.parallel.shm_store import SharedInstanceStore

        meta, arrays = _load_or_build_arrays(spec, key, algorithms, engine)
        store = SharedInstanceStore.publish_arrays(meta, arrays)
        entry = ResidentInstance(key=key, spec=spec, store=store)
        with self._lock:
            raced = self._entries.get(key)
            if raced is not None:
                # Another publisher won while we built; keep theirs.
                store.close()
                self._clock += 1
                raced.seq = self._clock
                return raced
            self.counters["misses"] += 1
            obs.inc("serve.instances.misses")
            self._clock += 1
            entry.seq = self._clock
            self._entries[key] = entry
            evicted = self._evict_to_budget_locked(keep=entry)
            self._gauge_locked()
        for store_ in evicted:
            store_.close()
        return entry

    def _evict_to_budget_locked(self, keep=None) -> list:
        """Drop LRU zero-pin entries until under budget; returns stores.

        The entry being published (``keep``) is exempt — evicting what a
        request is about to use would thrash.  Entries with live leases
        are never candidates, so a saturated registry can legitimately
        sit over budget; admission sheds further publishes instead.
        """
        evicted = []
        while self._resident_bytes_locked() > self.max_bytes:
            candidates = [
                e for e in self._entries.values()
                if e.pins == 0 and e is not keep
            ]
            if not candidates:
                break
            victim = min(candidates, key=lambda e: e.seq)
            del self._entries[victim.key]
            evicted.append(victim.store)
            self.counters["evictions"] += 1
            obs.inc("serve.instances.evictions")
        return evicted

    def _gauge_locked(self) -> None:
        obs.gauge(
            "serve.instances.resident_bytes", self._resident_bytes_locked()
        )

    def would_exceed_budget(self) -> bool:
        """True when a new publish cannot fit even after eviction.

        The admission plane's shedding predicate: every resident byte is
        pinned by in-flight work and the budget is already spent, so a
        publish now would only grow past the budget.
        """
        with self._lock:
            pinned = sum(
                e.nbytes for e in self._entries.values() if e.pins > 0
            )
            return pinned >= self.max_bytes

    def close_all(self) -> None:
        """Unlink every resident segment (drain path; zero orphans)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
            self._gauge_locked()
        for entry in entries:
            if entry.pins:
                raise ServeError(
                    "internal",
                    f"close_all with {entry.pins} live leases on "
                    f"{entry.key[:12]} — drain must await in-flight "
                    "requests first",
                )
            entry.store.close()


def _load_or_build_arrays(
    spec: InstanceSpec, key: str, algorithms: tuple, engine: str
) -> tuple:
    """The instance wire payload: disk-cache hit or full build.

    One cache lookup.  On a hit the arrays are published as-is (no Dag
    rehydration, no warm-up).  On a miss the instance is built, stored
    under ``key`` (when the cache is enabled) and warmed for
    ``algorithms``/``engine`` so attached workers inherit the expensive
    memo caches.
    """
    from repro import cache as build_cache
    from repro.experiments.runner import build_and_store
    from repro.parallel.worker import warm_instance

    cached = build_cache.load_arrays(key)
    if cached is not None:
        return cached
    inst = build_and_store(
        spec.mesh, spec.target_cells, spec.mesh_seed, spec.k, key
    )
    warm_instance(inst, algorithms, engine=engine)
    return inst.export_arrays()
