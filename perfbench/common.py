"""Plumbing shared by the three workloads: host block, statistics, hygiene,
scratch space and the result line.

Nothing here imports ``repro`` at module level: ``run.py`` first checks
that the checkout's source tree exists and puts it on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Every file the benchmark writes (caches, stores, sockets, traces) lives
#: under this directory of the checkout and is removed when the run ends.
SCRATCH = ROOT / ".perfbench_tmp"

#: The end-to-end metrics every untraced run reports, with their units.
END_TO_END = {
    "cells_per_s": "1/s",
    "setup_s": "s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "peak_rss_mb": "MiB",
}


class BenchFailure(Exception):
    """An output or hygiene check failed; the run must not report numbers."""


def now() -> float:
    """Monotonic seconds, on the same clock as ``repro.util.timing.now``."""
    return time.perf_counter()


def workload_rng(workload: str, seed: int) -> random.Random:
    """The one source of every input a workload generates from ``--seed``."""
    return random.Random(f"{workload}/{seed}")


def median(values) -> float:
    return float(statistics.median(values))


def another_repeat(start: float, walls: list, seconds: float, minimum: int) -> bool:
    """Whether to run one more repeat of a timed phase that began at
    ``start``: always until ``minimum`` repeats, then only while one more
    (as long as the median so far) still ends within ``seconds``, so a
    run never overshoots its length by a whole repeat."""
    if len(walls) < minimum:
        return True
    return now() - start + median(walls) <= seconds


def percentile(values, q: int) -> float:
    """Percentile ``q`` (1..99) of a sample, interpolated between order
    statistics, so a mix of unequal cells does not make it jump."""
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchFailure(f"no VmHWM in /proc/{pid}/status")


def largest_child_rss_mb() -> float:
    """Peak RSS of the largest child this process has waited for, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """Digest of every ``.py`` file under ``src/``: names the code measured
    when the checkout is not a git repository."""
    h = hashlib.blake2b(digest_size=12)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_block(workload: str, seed: int) -> dict:
    """What produced a number: CPUs, library versions, code and seed."""
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "source_digest": _source_digest(),
        "workload": workload,
        "seed": seed,
    }


class Scratch:
    """A private directory under :data:`SCRATCH`, removed on exit."""

    def __init__(self, workload: str) -> None:
        self.path = SCRATCH / f"{workload}-{os.getpid()}"

    def __enter__(self) -> Path:
        import tempfile

        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        # Keep the program's and the workers' temporary files inside too.
        self._tmpdir = os.environ.get("TMPDIR")
        os.environ["TMPDIR"] = str(self.path)
        tempfile.tempdir = None
        return self.path

    def __exit__(self, *exc) -> None:
        import tempfile

        if self._tmpdir is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = self._tmpdir
        tempfile.tempdir = None
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still owns a sibling directory
            pass


class Hygiene:
    """No run may leave shared-memory segments or damaged cache files.

    Segments already present when the run started belong to someone
    else and are reported, not blamed on this run.
    """

    def __init__(self) -> None:
        from repro.parallel import list_orphan_segments

        self._list = list_orphan_segments
        self.before = set(list_orphan_segments())

    def check(self, cache_dir: Path | None = None) -> None:
        leaked = sorted(set(self._list()) - self.before)
        if leaked:
            raise BenchFailure(f"run leaked shared-memory segments: {leaked}")
        if cache_dir is not None:
            from repro import cache

            with cache.override_dir(cache_dir):
                corrupt = cache.list_corrupt_entries()
            if corrupt:
                raise BenchFailure(f"corrupt cache entries in {cache_dir}: {corrupt}")


@dataclass
class Result:
    """What one run measured; :func:`emit` prints it."""

    workload: str
    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit, number of samples behind the value)
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (float(value), unit, int(samples))


def emit(result: Result, host: dict, correct: bool, names: list) -> None:
    """Print the readable report, then the one-line JSON result last.

    ``names`` is the metric set the JSON must carry (every end-to-end
    metric for an untraced run, every per-layer metric for a traced one).
    """
    missing = [n for n in names if n not in result.metrics]
    if missing:
        raise BenchFailure(f"{result.workload}: metrics not measured: {missing}")
    print("host " + json.dumps(host, sort_keys=True))
    for note in result.notes:
        print(f"{result.workload} note: {note}")
    for name, (value, unit, samples) in result.metrics.items():
        print(f"{result.workload} {name:34s} {value:14.6g} {unit:8s} n={samples}")
    frac = result.failed / result.attempted if result.attempted else 0.0
    print(f"{result.workload} {'failed_frac':34s} {frac:14.6g} {'ratio':8s} "
          f"n={result.attempted}")
    payload = {
        "correct": bool(correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            n: {"value": result.metrics[n][0], "unit": result.metrics[n][1]}
            for n in names
        },
    }
    print(json.dumps(payload), flush=True)
