"""Lifecycle battery for the ``repro serve`` daemon.

Three layers, mirroring the subsystem's planes:

* **In-process** — protocol framing/validation, admission gate
  semantics, and the pin-aware LRU registry (eviction must *never*
  touch an instance with in-flight leases; a new block size publishes
  nothing; a cold publish looks the build cache up once).
* **Daemon subprocess** — a real ``python -m repro serve`` process
  driven over its unix socket: 50 pipelined schedule requests must come
  back bit-identical to a serial ``run_grid`` over the same cells
  (checksum-locked per cell *and* after row aggregation), deadlines
  must expire into typed errors instead of stale results, and a
  saturated admission queue must refuse with ``overloaded``; a
  malformed request among valid ones must be refused alone; and block
  sizes nobody published must be answered like ``run_cell``.
* **Drain** — SIGTERM on a daemon with resident instances must exit 0
  and leave zero orphan shm segments (the subprocess-kill pattern of
  ``tests/test_campaign_resume.py``), with the socket file removed.
* **Dead worker** — a SIGKILLed pool worker breaks the daemon's
  ``ProcessPoolExecutor``; the batcher fails only the chunks that were
  in flight (``internal``), replaces the pool once, and later requests
  are answered bit-identical to ``run_cell``.
"""

import asyncio
import os
import signal
import socket as socket_mod
import subprocess
import sys
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.parallel import list_orphan_segments
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.batcher import BatchRequest, Batcher
from repro.serve.client import ServeClient, parse_address
from repro.serve.instances import InstanceRegistry, InstanceSpec
from repro.util.errors import ServeError

ROOT = Path(__file__).resolve().parent.parent

#: The instance every daemon test schedules against (small and 2-D so
#: a chunk of 50 cells stays in smoke territory).
INSTANCE = {"mesh": "square2d", "target_cells": 120, "mesh_seed": 0, "k": 2}


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        payload = {"v": 1, "id": 3, "kind": "status"}
        data = protocol.encode_frame(payload)
        assert protocol.frame_length(data[:4]) == len(data) - 4
        assert protocol.decode_frame(data[4:]) == payload

    def test_oversized_length_prefix_refused(self):
        import struct

        prefix = struct.pack("<I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ServeError) as err:
            protocol.frame_length(prefix)
        assert err.value.code == protocol.E_BAD_REQUEST

    def test_undecodable_frame_refused(self):
        with pytest.raises(ServeError):
            protocol.decode_frame(b"\xff\xfe not json")
        with pytest.raises(ServeError):
            protocol.decode_frame(b"[1, 2]")  # not an object

    def test_validate_rejects_wrong_version_and_kind(self):
        with pytest.raises(ServeError) as err:
            protocol.validate_request({"v": 99, "id": 1, "kind": "status"})
        assert err.value.code == protocol.E_UNSUPPORTED_VERSION
        with pytest.raises(ServeError) as err:
            protocol.validate_request({"v": 1, "id": 1, "kind": "dance"})
        assert err.value.code == protocol.E_UNKNOWN_KIND

    def test_validate_schedule_needs_typed_fields(self):
        base = {
            "v": 1, "id": 1, "kind": "schedule", "instance": dict(INSTANCE),
            "algorithm": "fifo", "m": 4, "block_size": 1, "seed": 0,
        }
        assert protocol.validate_request(dict(base)) is not None
        for broken in (
            {**base, "m": "four"},
            {**base, "m": True},  # bools must not pass as ints
            {**base, "instance": {**INSTANCE, "k": None}},
            {**base, "deadline_s": -1.0},
        ):
            with pytest.raises(ServeError) as err:
                protocol.validate_request(broken)
            assert err.value.code == protocol.E_BAD_REQUEST

    @pytest.mark.parametrize("kind", ["schedule", "publish"])
    def test_validate_rejects_unknown_engine(self, kind):
        """An unknown or non-string engine is a ``bad_request`` at the
        front door, before the daemon publishes or pins anything."""
        base = {
            "v": 1, "id": 1, "kind": kind, "instance": dict(INSTANCE),
            "algorithm": "fifo", "m": 4, "block_size": 1, "seed": 0,
        }
        for engine in ("heap", "bucket", "vector", "auto"):
            assert protocol.validate_request({**base, "engine": engine})
        for engine in ("quantum", "", 7, None, ["bucket"]):
            with pytest.raises(ServeError) as err:
                protocol.validate_request({**base, "engine": engine})
            assert err.value.code == protocol.E_BAD_REQUEST
            assert "engine" in str(err.value)

    def test_validate_refuses_what_a_chunk_would_fail_on(self):
        """Malformed values are ``bad_request`` at the front door, never
        a worker exception that fails a whole coalesced chunk."""
        schedule = {
            "v": 1, "id": 1, "kind": "schedule", "instance": dict(INSTANCE),
            "algorithm": "fifo", "m": 4, "block_size": 1, "seed": 0,
        }
        publish = {"v": 1, "id": 1, "kind": "publish",
                   "instance": dict(INSTANCE)}
        assert protocol.validate_request(dict(schedule))
        assert protocol.validate_request({**publish, "algorithms": ["dfds"]})
        for broken in (
            {**schedule, "algorithm": "nope"},
            {**schedule, "m": 0},
            {**schedule, "block_size": 0},
            {**schedule, "seed": -1},
            {**schedule, "seed": "zero"},
            {**publish, "algorithms": 5},
            {**publish, "algorithms": "dfds"},
            {**publish, "algorithms": ["dfds", "nope"]},
        ):
            with pytest.raises(ServeError) as err:
                protocol.validate_request(broken)
            assert err.value.code == protocol.E_BAD_REQUEST

    def test_error_payload_roundtrip(self):
        response = protocol.error_response(
            7, protocol.E_OVERLOADED, "queue full", retry_after=0.25
        )
        err = protocol.error_from_payload(response)
        assert err.code == protocol.E_OVERLOADED
        assert err.retry_after == 0.25

    def test_parse_address(self):
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("tcp:127.0.0.1:900") == (
            "tcp", ("127.0.0.1", 900)
        )
        with pytest.raises(ServeError):
            parse_address("tcp:no-port")


# ---------------------------------------------------------------------------
# Admission
# ---------------------------------------------------------------------------


def _controller(max_pending=2, max_bytes=1 << 30):
    return AdmissionController(
        InstanceRegistry(max_bytes=max_bytes), max_pending=max_pending
    )


class TestAdmission:
    def test_bounded_queue_refuses_with_retry_after(self):
        gate = _controller(max_pending=2)
        gate.admit("schedule")
        gate.admit("schedule")
        with pytest.raises(ServeError) as err:
            gate.admit("schedule")
        assert err.value.code == protocol.E_OVERLOADED
        assert err.value.retry_after is not None
        gate.release()
        gate.admit("schedule")  # a slot freed; admission resumes

    def test_drain_refuses_new_work(self):
        gate = _controller()
        gate.begin_drain()
        with pytest.raises(ServeError) as err:
            gate.admit("schedule")
        assert err.value.code == protocol.E_SHUTTING_DOWN

    def test_expired_deadline_raises_typed_error(self):
        gate = _controller()
        assert gate.stamp_deadline(None) is None
        deadline = gate.stamp_deadline(1e-9)
        with pytest.raises(ServeError) as err:
            gate.check_deadline(deadline)
        assert err.value.code == protocol.E_DEADLINE_EXCEEDED


# ---------------------------------------------------------------------------
# Registry: pinned LRU
# ---------------------------------------------------------------------------


def _spec(seed: int) -> InstanceSpec:
    return InstanceSpec(
        mesh="square2d", target_cells=120, mesh_seed=seed, k=2
    )


class TestRegistry:
    def test_hit_miss_counters_and_identity(self):
        registry = InstanceRegistry()
        try:
            a1 = registry.get_or_publish(_spec(0))
            a2 = registry.get_or_publish(_spec(0))
            assert a1 is a2
            assert registry.counters == {
                "hits": 1, "misses": 1, "evictions": 0,
            }
        finally:
            registry.close_all()
        assert list_orphan_segments() == []

    def test_eviction_never_touches_pinned_entries(self):
        # Budget of one byte: every publish is over budget, so any
        # unpinned resident entry is immediately evictable.
        registry = InstanceRegistry(max_bytes=1)
        try:
            a = registry.get_or_publish(_spec(0))
            lease = registry.pin(a)

            b = registry.get_or_publish(_spec(1))
            keys = {e["key"] for e in registry.snapshot()["instances"]}
            # A is pinned by an in-flight request: still resident even
            # though the registry is far over budget.
            assert a.key in keys and b.key in keys
            assert registry.counters["evictions"] == 0

            lease.release()
            c = registry.get_or_publish(_spec(2))
            keys = {e["key"] for e in registry.snapshot()["instances"]}
            # Unpinned now: the LRU pass reclaims A and B; the entry
            # being published is exempt.
            assert a.key not in keys and b.key not in keys
            assert c.key in keys
            assert registry.counters["evictions"] == 2
        finally:
            registry.close_all()
        assert list_orphan_segments() == []

    def test_new_block_size_keeps_the_leased_segment(self):
        """A new block size computes a labelling and publishes nothing:
        the leased entry keeps its one segment."""
        from repro.experiments.runner import get_blocks

        registry = InstanceRegistry()
        try:
            entry = registry.get_or_publish(_spec(0), block_sizes=(2,))
            lease = registry.pin(entry)
            segment = lease.manifest.segment
            segments = list_orphan_segments()

            extended = registry.get_or_publish(_spec(0), block_sizes=(4,))
            assert extended is entry
            assert entry.block_sizes == (2, 4)
            assert list_orphan_segments() == segments
            second = registry.pin(entry)
            assert second.manifest.segment == segment
            second.release()
            config = _spec(0).config()
            for size in (2, 4):
                assert (entry.blocks[size] == get_blocks(config, size)).all()
            assert registry.counters == {
                "hits": 1, "misses": 1, "evictions": 0,
            }
            lease.release()
            assert entry.pins == 0
        finally:
            registry.close_all()
        assert list_orphan_segments() == []

    def test_cold_publish_looks_the_cache_up_once(self, tmp_path, monkeypatch):
        from repro import cache as build_cache
        from repro.experiments.runner import clear_caches

        monkeypatch.setenv(build_cache.DIR_ENV, str(tmp_path / "cache"))
        clear_caches()
        build_cache.reset_counters()
        registry = InstanceRegistry()
        try:
            registry.get_or_publish(_spec(3), algorithms=("dfds",))
            assert build_cache.COUNTERS == {
                "hit": 0, "miss": 1, "store": 1, "evict": 0,
            }
        finally:
            registry.close_all()
        # A fresh registry (a restarted daemon) publishes the entry's
        # arrays straight from the cache: one hit, nothing built.
        clear_caches()
        build_cache.reset_counters()
        registry = InstanceRegistry()
        try:
            entry = registry.get_or_publish(_spec(3))
            assert build_cache.COUNTERS == {
                "hit": 1, "miss": 0, "store": 0, "evict": 0,
            }
            assert entry.nbytes > 0
        finally:
            registry.close_all()
            build_cache.reset_counters()
        assert list_orphan_segments() == []

    def test_budget_shedding_predicate(self):
        registry = InstanceRegistry(max_bytes=1)
        try:
            entry = registry.get_or_publish(_spec(0))
            assert not registry.would_exceed_budget()  # evictable, not pinned
            lease = registry.pin(entry)
            assert registry.would_exceed_budget()  # every byte is pinned
            lease.release()
        finally:
            registry.close_all()

    def test_close_all_with_live_lease_fails_loudly(self):
        registry = InstanceRegistry()
        entry = registry.get_or_publish(_spec(0))
        lease = registry.pin(entry)
        with pytest.raises(ServeError, match="live leases"):
            registry.close_all()
        lease.release()
        # Entries were detached from the registry before the check; the
        # segment itself is only reclaimed here.
        entry.store.close()
        assert list_orphan_segments() == []


# ---------------------------------------------------------------------------
# Daemon subprocess battery
# ---------------------------------------------------------------------------


def _spawn_daemon(tmp_path: Path, *extra: str):
    """Start ``python -m repro serve`` and wait for its ready line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    sock = tmp_path / "serve.sock"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", str(sock), *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    if "ready" not in line:
        proc.kill()
        raise RuntimeError(f"daemon failed to start: {proc.stderr.read()}")
    return proc, str(sock)


def _terminate(proc) -> int:
    proc.send_signal(signal.SIGTERM)
    proc.communicate(timeout=120)
    return proc.returncode


@pytest.mark.grid_smoke
class TestDaemonBattery:
    def test_fifty_pipelined_requests_bit_identical_to_run_grid(
        self, tmp_path
    ):
        from repro.experiments.runner import (
            aggregate_row,
            clear_caches,
            run_grid,
        )

        algorithms = ("fifo", "random_delay_priority")
        seeds = tuple(range(25))
        proc, sock = _spawn_daemon(tmp_path, "--workers", "2")
        try:
            with ServeClient.wait_ready(sock) as client:
                requests = [
                    {
                        "instance": dict(INSTANCE),
                        "algorithm": algorithm,
                        "m": 4,
                        "block_size": 1,
                        "seed": seed,
                        "engine": "auto",
                        "with_comm": True,
                    }
                    for algorithm in algorithms
                    for seed in seeds
                ]
                assert len(requests) == 50
                summaries = client.schedule_many(requests)
                status = client.status()
        finally:
            assert _terminate(proc) == 0

        # The daemon actually batched: 50 cells in far fewer chunks.
        batcher = status["batcher"]
        assert batcher["cells_dispatched"] == 50
        assert batcher["chunks_dispatched"] < 50

        # Bit-identity against the serial runner: fold the daemon's
        # per-cell summaries (request order == the canonical grid_cells
        # order) through the same row aggregation run_grid uses.
        from dataclasses import replace

        spec = InstanceSpec.from_payload(INSTANCE)
        config = replace(
            spec.config(), algorithms=algorithms, m_values=(4,), seeds=seeds,
        )
        clear_caches()
        rows = run_grid(config, with_comm=True)
        served_rows = [
            aggregate_row(
                summaries[i * len(seeds):(i + 1) * len(seeds)],
                algorithm, 4, 1,
            )
            for i, algorithm in enumerate(algorithms)
        ]
        assert served_rows == rows
        assert list_orphan_segments() == []

    def test_deadline_expires_into_typed_error_not_stale_result(
        self, tmp_path
    ):
        # A coalescing window much longer than the deadline guarantees
        # expiry while queued — the daemon must answer with the typed
        # error, never block or return a stale result.
        proc, sock = _spawn_daemon(
            tmp_path, "--workers", "1", "--max-delay-ms", "400"
        )
        try:
            with ServeClient.wait_ready(sock) as client:
                client.publish(dict(INSTANCE))  # isolate queueing time
                with pytest.raises(ServeError) as err:
                    client.schedule(
                        dict(INSTANCE), "fifo", 4, 1, 0, deadline_s=0.05
                    )
                assert err.value.code == protocol.E_DEADLINE_EXCEEDED
                # The daemon survives and still answers.
                assert client.status()["pid"] == proc.pid
        finally:
            assert _terminate(proc) == 0
        assert list_orphan_segments() == []

    def test_saturated_queue_refuses_overloaded(self, tmp_path):
        proc, sock = _spawn_daemon(
            tmp_path, "--workers", "1",
            "--max-pending", "1", "--max-delay-ms", "300",
        )
        try:
            with ServeClient.wait_ready(sock) as client:
                client.publish(dict(INSTANCE))
                results = client.schedule_many(
                    [
                        {
                            "instance": dict(INSTANCE),
                            "algorithm": "fifo",
                            "m": 4,
                            "block_size": 1,
                            "seed": seed,
                        }
                        for seed in range(4)
                    ],
                    on_error="return",
                )
            refused = [r for r in results if isinstance(r, ServeError)]
            served = [r for r in results if not isinstance(r, ServeError)]
            assert served, "the admitted request must still be answered"
            assert refused, "a saturated queue must shed load"
            assert all(
                r.code == protocol.E_OVERLOADED and r.retry_after is not None
                for r in refused
            )
        finally:
            assert _terminate(proc) == 0
        assert list_orphan_segments() == []

    def test_malformed_request_fails_alone(self, tmp_path):
        """A malformed request among pipelined valid ones is refused on
        its own; the valid neighbours still get their results."""
        from repro.experiments.runner import run_cell

        config = InstanceSpec.from_payload(INSTANCE).config()
        proc, sock = _spawn_daemon(tmp_path, "--workers", "1")
        try:
            with ServeClient.wait_ready(sock) as client:
                client.publish(dict(INSTANCE))
                bursts = []
                for bad in ({"algorithm": "nope"}, {"m": 0}):
                    requests = [
                        {"instance": dict(INSTANCE), "algorithm": "fifo",
                         "m": 4, "block_size": 1, "seed": seed}
                        for seed in (0, 1, 2)
                    ]
                    requests[1].update(bad)
                    bursts.append(
                        client.schedule_many(requests, on_error="return")
                    )
        finally:
            assert _terminate(proc) == 0
        for results in bursts:
            assert results[0] == run_cell(config, "fifo", 4, 1, 0)
            assert results[2] == run_cell(config, "fifo", 4, 1, 2)
            assert isinstance(results[1], ServeError)
            assert results[1].code == protocol.E_BAD_REQUEST
        assert list_orphan_segments() == []

    def test_unpublished_block_sizes_answer_like_run_cell(self, tmp_path):
        """Block sizes nobody published are served from the entry's one
        segment, with answers equal to the serial runner's."""
        from repro.experiments.runner import run_cell

        tet = {"mesh": "tetonly", "target_cells": 150, "mesh_seed": 0, "k": 2}
        cells = [(size, seed) for size in (4, 8) for seed in (0, 1)]
        proc, sock = _spawn_daemon(tmp_path, "--workers", "2")
        try:
            with ServeClient.wait_ready(sock) as client:
                published = client.publish(tet)
                segments = list_orphan_segments()
                served = client.schedule_many([
                    {"instance": tet, "algorithm": "random_delay_priority",
                     "m": 4, "block_size": size, "seed": seed}
                    for size, seed in cells
                ])
                assert list_orphan_segments() == segments
                (entry,) = client.status()["registry"]["instances"]
                assert entry["block_sizes"] == [4, 8]
                assert entry["bytes"] == published["bytes"]
        finally:
            assert _terminate(proc) == 0
        config = InstanceSpec.from_payload(tet).config()
        assert served == [
            run_cell(config, "random_delay_priority", 4, size, seed)
            for size, seed in cells
        ]
        assert list_orphan_segments() == []

    def test_sigterm_drain_leaves_zero_orphans(self, tmp_path):
        proc, sock = _spawn_daemon(tmp_path, "--workers", "2")
        try:
            with ServeClient.wait_ready(sock) as client:
                # Resident state to clean up: a published instance with
                # block labellings, plus completed schedule traffic.
                client.publish(dict(INSTANCE), block_sizes=[4])
                client.schedule(dict(INSTANCE), "fifo", 4, 1, 0)
                assert client.status()["registry"]["resident_bytes"] > 0
        finally:
            returncode = _terminate(proc)
        assert returncode == 0
        assert list_orphan_segments() == []
        assert not os.path.exists(sock)
        # And a refused-after-drain connection fails cleanly rather
        # than hanging.
        with pytest.raises((FileNotFoundError, ConnectionError, OSError)):
            sock_obj = socket_mod.socket(
                socket_mod.AF_UNIX, socket_mod.SOCK_STREAM
            )
            try:
                sock_obj.connect(sock)
            finally:
                sock_obj.close()


# ---------------------------------------------------------------------------
# Dead worker: the batcher replaces a broken pool
# ---------------------------------------------------------------------------


class _StubPool:
    """A pool stand-in: answers chunks, or fails them like a broken pool.

    ``broken="submit"`` raises ``BrokenProcessPool`` from ``submit`` (a
    pool already known to be broken); ``broken="inflight"`` accepts the
    chunk and then fails its future (a worker died mid-chunk).
    """

    def __init__(self, broken=None):
        self.broken = broken
        self.submitted = 0
        self.shut_down = False

    def submit(self, fn, manifest, cells, with_comm, engine, blocks):
        if self.broken == "submit":
            raise BrokenProcessPool("a child process terminated abruptly")
        self.submitted += 1
        future = Future()
        if self.broken == "inflight":
            future.set_exception(
                BrokenProcessPool("a child process terminated abruptly")
            )
        else:
            future.set_result(
                ([(c.index, f"summary-{c.seed}") for c in cells], 1.0, None)
            )
        return future

    def shutdown(self, wait=True):
        self.shut_down = True


def _stub_batcher(first_pool):
    """A started batcher on ``first_pool``; later pools are healthy stubs."""
    batcher = Batcher(workers=2, max_delay_s=0.0)
    batcher._pool = first_pool
    batcher.replacements = []

    def new_pool():
        pool = _StubPool()
        batcher.replacements.append(pool)
        return pool

    batcher._new_pool = new_pool
    return batcher


def _stub_request(seed, block_size=1):
    lease = SimpleNamespace(
        manifest=SimpleNamespace(segment="seg"), release=lambda: None
    )
    return BatchRequest(
        algorithm="fifo", m=4, block_size=block_size, seed=seed,
        with_comm=False, engine="auto", lease=lease,
        future=asyncio.get_running_loop().create_future(),
    )


async def _settle(batcher, requests):
    return await asyncio.gather(
        *(batcher.submit(r) for r in requests), return_exceptions=True
    )


class TestBrokenPoolReplacement:
    def test_inflight_chunks_fail_internal_and_pool_is_replaced_once(self):
        broken = _StubPool(broken="inflight")

        async def scenario():
            batcher = _stub_batcher(broken)
            # Two chunks (different block sizes never coalesce) in
            # flight on the pool when it breaks.
            failed = await _settle(
                batcher, [_stub_request(0, 1), _stub_request(1, 2)]
            )
            later = await _settle(batcher, [_stub_request(2)])
            return batcher, failed, later

        batcher, failed, later = asyncio.run(scenario())
        assert broken.submitted == 2
        assert all(
            isinstance(r, ServeError) and r.code == protocol.E_INTERNAL
            for r in failed
        )
        assert "BrokenProcessPool" in str(failed[0])
        assert len(batcher.replacements) == 1
        assert broken.shut_down
        assert batcher._pool is batcher.replacements[0]
        assert later == ["summary-2"]

    def test_pool_broken_at_submit_resubmits_on_the_fresh_pool(self):
        broken = _StubPool(broken="submit")

        async def scenario():
            batcher = _stub_batcher(broken)
            return batcher, await _settle(
                batcher, [_stub_request(0), _stub_request(1, 2)]
            )

        batcher, results = asyncio.run(scenario())
        # The chunks never ran on the broken pool, so none is lost.
        assert results == ["summary-0", "summary-1"]
        assert len(batcher.replacements) == 1
        assert batcher.replacements[0].submitted == 2


def _pool_workers(daemon_pid: int) -> list:
    """PIDs of the daemon's spawn-pool workers (not its resource tracker)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except (OSError, ValueError, IndexError):
            continue
        if ppid == daemon_pid and b"spawn_main" in cmdline:
            pids.append(int(entry))
    return pids


@pytest.mark.grid_smoke
@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="finds pool workers through /proc"
)
def test_daemon_survives_a_killed_worker(tmp_path):
    from repro.experiments.runner import run_cell

    config = InstanceSpec.from_payload(INSTANCE).config()
    seeds = range(4)
    proc, sock = _spawn_daemon(tmp_path, "--workers", "2")
    try:
        with ServeClient.wait_ready(sock) as client:
            client.publish(dict(INSTANCE))
            workers = _pool_workers(proc.pid)
            assert len(workers) == 2
            victim = workers[0]
            os.kill(victim, signal.SIGKILL)
            # The daemon's pool reaps the dead worker once it has
            # noticed the breakage.
            deadline = time.monotonic() + 30
            while os.path.exists(f"/proc/{victim}"):
                assert time.monotonic() < deadline, "worker never reaped"
                time.sleep(0.05)
            sequential = [
                client.schedule(dict(INSTANCE), "random_delay_priority",
                                4, 1, seed)
                for seed in seeds
            ]
            pipelined = client.schedule_many([
                {
                    "instance": dict(INSTANCE),
                    "algorithm": "random_delay_priority",
                    "m": 4,
                    "block_size": 1,
                    "seed": seed,
                }
                for seed in seeds
            ])
            assert client.status()["pid"] == proc.pid
    finally:
        returncode = _terminate(proc)
    serial = [
        run_cell(config, "random_delay_priority", 4, 1, seed)
        for seed in seeds
    ]
    assert sequential == serial
    assert pipelined == serial
    assert returncode == 0
    assert list_orphan_segments() == []
