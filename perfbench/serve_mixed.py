"""serve_mixed: mixed closed-loop traffic against a ``repro serve`` daemon.

A ``repro serve --workers 2`` daemon serves two resident tetonly
instances of about 800 cells, at k=8 and k=24, hydrated from a build
cache the set-up pre-filled.  One client process drives it over two
connections, both closed loop (each caller waits for its reply, like
``repro request`` and ``campaign --serve``):

* A, interactive: one request in flight; algorithm from
  {random_delay_priority x2, dfds}, m from {16, 128}, block from
  {1, 16}, instance from the two.  A round is a fixed count of these
  (each combination equally often, in a seeded order).  The timed phase
  repeats the round, and the latencies of every round, pooled, are
  ``p50_ms``/``p95_ms``.
* B, campaign-style: a fixed count of bursts of 8 compatible requests
  (one instance and block size; both m values x 4 seeds) pipelined
  with ``schedule_many``, sized to last about as long as A's requests.

A round ends when both connections are done, so every round is the
same fixed request count and ``cells_per_s`` is that count over the
summed round walls.

Request seeds come from a set of four, so the distinct cells stay few
and every summary can be checked against ``run_cell``; the daemon
keeps no result cache, so a repeated cell costs the same as a new one.
``setup_s`` is daemon launch to ready plus both instance publishes.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import signal
import subprocess
import sys
import threading

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

INTERACTIVE_MIX = ("random_delay_priority", "random_delay_priority", "dfds")
BURST_ALGORITHM = "random_delay_priority"
M_VALUES = (16, 128)
BLOCK_SIZES = (1, 16)
N_SEEDS = 4
#: ``repeats`` copies of the 24 interactive combinations and
#: ``BURSTS_PER_REPEAT * repeats`` copies of the 4 burst kinds make a
#: round (72 interactive and 192 burst requests); a run makes at least
#: ``MIN_ROUNDS`` rounds, so at least 216 interactive latencies are
#: pooled and more than ten lie beyond p95.
FULL = {"cells": 800, "ks": (8, 24), "repeats": 3}
SMOKE = {"cells": 150, "ks": (4, 8), "repeats": 1}
MIN_ROUNDS = 3
BURSTS_PER_REPEAT = 2
WORKERS = 2
SETUP_REPEATS = 5
READY_TIMEOUT_S = 120.0


def make_inputs(seed: int, smoke: bool):
    """``(instances, interactive requests, bursts)`` for one seed.

    Every mix combination appears equally often and only the order and
    the cell seeds vary with ``seed``, so the tail percentiles compare
    like with like across seeds.
    """
    size = SMOKE if smoke else FULL
    rng = workload_rng("serve_mixed", seed)
    mesh_seed = rng.randrange(1 << 20)
    seeds = sorted(rng.sample(range(1 << 20), N_SEEDS))
    instances = [
        {"mesh": "tetonly", "target_cells": size["cells"], "mesh_seed": mesh_seed, "k": k}
        for k in size["ks"]
    ]
    combos = list(itertools.product(instances, INTERACTIVE_MIX, M_VALUES, BLOCK_SIZES))
    interactive = [
        {"instance": inst, "algorithm": alg, "m": m, "block_size": b,
         "seed": rng.choice(seeds)}
        for inst, alg, m, b in combos * size["repeats"]
    ]
    rng.shuffle(interactive)
    burst_keys = (list(itertools.product(instances, BLOCK_SIZES))
                  * BURSTS_PER_REPEAT * size["repeats"])
    rng.shuffle(burst_keys)
    bursts = [
        [{"instance": inst, "algorithm": BURST_ALGORITHM, "m": m, "block_size": b,
          "seed": s} for m in M_VALUES for s in seeds]
        for inst, b in burst_keys
    ]
    return instances, interactive, bursts


class Daemon:
    """One ``repro serve`` subprocess, from launch to a checked drain."""

    def __init__(self, directory, cache_dir, trace_path=None) -> None:
        self.directory = directory
        cmd = [sys.executable, "-m", "repro", "serve", "--socket", "serve.sock",
               "--workers", str(WORKERS)]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
        directory.mkdir(parents=True, exist_ok=True)
        self._log = open(directory / "daemon.log", "w")
        self.proc = subprocess.Popen(
            cmd, cwd=directory, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        # A socket path must stay short; the relative one always is.
        self.address = os.path.relpath(directory / "serve.sock")

    def wait_ready(self) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "ready" not in line:
            raise BenchFailure(f"daemon did not come up: {self._log_text()}")

    def _log_text(self) -> str:
        self._log.flush()
        return (self.directory / "daemon.log").read_text()[-2000:]

    def drain(self) -> None:
        """SIGTERM, then require a clean exit 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=120)
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise BenchFailure(
                f"daemon exited {self.proc.returncode} on SIGTERM: {self._log_text()}"
            )

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()


def launch(directory, cache_dir, instances, trace_path=None):
    """Start a daemon and publish both instances: ``(daemon, client, setup_s)``."""
    from repro.serve.client import ServeClient

    start = now()
    daemon = Daemon(directory, cache_dir, trace_path)
    try:
        daemon.wait_ready()
        client = ServeClient(daemon.address)
        for instance in instances:
            client.publish(instance, block_sizes=[b for b in BLOCK_SIZES if b > 1],
                           algorithms=sorted(set(INTERACTIVE_MIX)))
    except BaseException:
        daemon.close()
        raise
    return daemon, client, now() - start


def serve_round(address: str, interactive: list, bursts: list) -> dict:
    """A's requests one at a time with B pipelining its bursts alongside."""
    from repro.serve.client import ServeClient
    from repro.util.errors import ServeError

    burst_out: list = []
    burst_error: list = []

    def campaign_caller() -> None:
        try:
            with ServeClient(address) as client:
                for burst in bursts:
                    burst_out.extend(zip(burst, client.schedule_many(burst, on_error="return")))
        except BaseException as exc:  # re-raised on the main thread
            burst_error.append(exc)

    latencies, answers = [], []
    caller = threading.Thread(target=campaign_caller, name="serve-burst-caller")
    start = now()
    caller.start()
    try:
        with ServeClient(address) as client:
            for request in interactive:
                t0 = now()
                try:
                    answer = client.schedule(**request)
                except ServeError as exc:
                    answer = exc
                latencies.append(now() - t0)
                answers.append((request, answer))
    finally:
        caller.join()
    end = now()
    if burst_error:
        raise BenchFailure(f"campaign-style connection failed: {burst_error[0]!r}")
    return {"start": start, "wall": end - start, "latencies": latencies,
            "answers": answers + burst_out}


def check_answers(answers: list, reference: dict) -> int:
    """Every summary must equal ``run_cell`` for its cell; returns the
    number of refused requests."""
    from repro.experiments.configs import ExperimentConfig
    from repro.experiments.runner import run_cell
    from repro.util.errors import ServeError

    refused = 0
    for request, answer in answers:
        if isinstance(answer, ServeError):
            refused += 1
            continue
        inst = request["instance"]
        key = (tuple(sorted(inst.items())), request["algorithm"], request["m"],
               request["block_size"], request["seed"])
        if key not in reference:
            config = ExperimentConfig(
                mesh=inst["mesh"], target_cells=inst["target_cells"],
                mesh_seed=inst["mesh_seed"], k=inst["k"], name="serve_mixed",
            )
            reference[key] = run_cell(config, *key[1:]).as_dict()
        if answer.as_dict() != reference[key]:
            raise BenchFailure(f"daemon summary for {key[1:]} differs from run_cell")
    return refused


def prefill_cache(cache_dir, instances) -> None:
    """Build both instances once into the daemon's build cache."""
    from repro import cache
    from repro.experiments.configs import ExperimentConfig
    from repro.experiments.runner import get_instance

    with cache.override_dir(cache_dir):
        for inst in instances:
            get_instance(ExperimentConfig(
                mesh=inst["mesh"], target_cells=inst["target_cells"],
                mesh_seed=inst["mesh_seed"], k=inst["k"],
            ))


def run(seed: int, seconds: float, trace: bool, smoke: bool, scratch) -> Result:
    hygiene = Hygiene()
    instances, interactive, bursts = make_inputs(seed, smoke)
    cache_dir = scratch / "cache"
    prefill_cache(cache_dir, instances)
    result = Result("serve_mixed")
    reference: dict = {}

    setups = []
    for i in range(SETUP_REPEATS - 1):
        daemon, client, setup = launch(scratch / f"launch{i}", cache_dir, instances)
        client.close()
        daemon.drain()
        setups.append(setup)
    daemon, client, setup = launch(scratch / "timed", cache_dir, instances)
    setups.append(setup)
    rounds, walls = [], []
    try:
        start = now()
        while another_repeat(start, walls, seconds, MIN_ROUNDS):
            rounds.append(serve_round(daemon.address, interactive, bursts))
            walls.append(rounds[-1]["wall"])
        rss = vm_hwm_mb(daemon.proc.pid)
        client.close()
        daemon.drain()
    finally:
        daemon.close()

    answers = [a for r in rounds for a in r["answers"]]
    latencies = [x for r in rounds for x in r["latencies"]]
    result.attempted = len(answers)
    result.failed = check_answers(answers, reference)
    result.notes.append(
        f"{len(rounds)} round(s) of {len(interactive)} interactive requests; "
        f"{len(answers)} requests in all, {len(reference)} distinct cells"
    )
    result.put("cells_per_s", len(answers) / sum(walls), "1/s", len(rounds))
    result.put("setup_s", median(setups), "s", len(setups))
    result.put("p50_ms", percentile(latencies, 50) * 1e3, "ms", len(latencies))
    result.put("p95_ms", percentile(latencies, 95) * 1e3, "ms", len(latencies))
    result.put("peak_rss_mb", rss, "MiB")

    if trace:
        traced_round(scratch, cache_dir, instances, interactive, bursts,
                     median(walls), reference, result)
    hygiene.check(cache_dir)
    return result


def traced_round(scratch, cache_dir, instances, interactive, bursts,
                 untraced_wall, reference, result) -> None:
    """One round against a daemon started with ``--trace``; the serve and
    worker layers come from the spans it already records."""
    from layers import LayerClock, fold_spans, report_layers
    from repro import cache
    from repro.serve.instances import InstanceSpec

    trace_path = scratch / "traced" / "trace.json"
    daemon, client, _ = launch(scratch / "traced", cache_dir, instances, trace_path)
    try:
        r = serve_round(daemon.address, interactive, bursts)
        status = client.status()
        metrics = client.metrics()
        client.close()
        daemon.drain()
    finally:
        daemon.close()
    refused = check_answers(r["answers"], reference)
    if refused:
        raise BenchFailure(f"traced round: {refused} request(s) refused")

    events = [e for e in json.loads(trace_path.read_text())["traceEvents"]
              if e.get("ph") == "X"]
    daemon_pid = status["pid"]

    def total_s(name: str) -> float:
        return sum(e["dur"] for e in events if e["name"] == name) / 1e6

    layers = fold_spans(
        (e["name"], e["dur"] / 1e6, e.get("args"))
        for e in events if e["pid"] != daemon_pid
    )
    batcher = status["batcher"]
    counters = metrics["obs"]["counters"]
    registry = metrics["instances"]
    # The daemon's cache reads have no span; replay the same reads here.
    clock = LayerClock()
    with cache.override_dir(cache_dir):
        for instance in instances:
            key = InstanceSpec.from_payload(instance).content_key()
            clock.call("cache.load", cache.load_arrays, key)
    busy = _union_s(
        [(e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6) for e in events
         if e["name"] == "serve.request"],
        r["start"], r["start"] + r["wall"],
    )
    unattributed = r["wall"] - busy
    layers.update({
        "cache.load_s": clock.self_s["cache.load"],
        "cache.hits": counters.get("cache.hit", 0),
        "cache.misses": counters.get("cache.miss", 0),
        "serve.chunks": batcher["chunks_dispatched"],
        "serve.cells_per_chunk": batcher["cells_dispatched"] / max(batcher["chunks_dispatched"], 1),
        "serve.shed": status["admission"]["refused"] + counters.get("serve.deadline_exceeded", 0),
        "serve.registry_hits": registry.get("hits", 0),
        "serve.registry_misses": registry.get("misses", 0),
        "serve.batch_s": total_s("serve.batch"),
        "serve.dispatch_s": total_s("serve.dispatch"),
        "serve.reply_s": total_s("serve.reply"),
        "unattributed_s": unattributed,
        "unattributed_frac": unattributed / r["wall"],
        "trace.overhead_s": r["wall"] - untraced_wall,
    })
    report_layers(result, layers)


def _union_s(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            covered += b - a
            reach = b
    return covered
