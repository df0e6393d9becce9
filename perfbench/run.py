"""Run the repository benchmark: one workload, or all three.

    python3 perfbench/run.py --workload grid_s4 --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload with no wrappers and ``REPRO_TRACE``
unset and reports the end-to-end metrics; ``--trace 1`` additionally
makes one traced run and reports the per-layer metrics.  Every run
checks its outputs and its resource hygiene and exits non-zero, without
a result line, when a check fails.  The last line of standard output is
the JSON result.  ``--workload all`` runs every workload, untraced and
traced, each in its own process.  ``--smoke`` shrinks every input so a
run takes seconds (the benchmark's own test uses it).

See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("grid_s4", "campaign_meshes", "serve_mixed")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def _bootstrap() -> None:
    """Put the checkout's ``src/`` first on the path, or refuse to run."""
    from common import SRC

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no source tree at {SRC}; nothing to measure")
    # Timed runs carry no tracing; children inherit this environment.
    os.environ.pop("REPRO_TRACE", None)
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))
    import repro

    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(SRC)):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"perfbench: {workload} trace={trace} failed "
                      f"(exit {proc.returncode})", file=sys.stderr)
                return 1
            results[(workload, trace)] = json.loads(lines[-1])
    metrics = {
        f"{w}.{name}": value
        for (w, _), res in results.items()
        for name, value in res["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap()
    # Turn SIGTERM into SystemExit so cleanup (daemon drain, scratch
    # removal) runs when the caller stops the benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload == "all":
        return _run_all(args)

    import importlib

    from common import END_TO_END, BenchFailure, Scratch, emit, host_block
    from layers import PER_LAYER

    module = importlib.import_module(args.workload)
    host = host_block(args.workload, args.seed)
    names = list(PER_LAYER if args.trace else END_TO_END)
    try:
        with Scratch(args.workload) as scratch:
            result = module.run(
                seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                smoke=args.smoke, scratch=scratch,
            )
        emit(result, host, correct=True, names=names)
        return 0
    except BenchFailure as exc:
        print(f"perfbench: {args.workload}: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's tracker process, which spawn pools
    start, so the benchmark leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
