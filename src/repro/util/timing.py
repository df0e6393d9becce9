"""Wall-clock timing: the repo's single raw-clock chokepoint.

:func:`now` is the only place the package reads ``time.perf_counter``
directly (lint rule RPL006 enforces this outside :mod:`repro.obs`).
Everything that measures wall-clock time — :class:`Timer`, ``perfbench/``,
and the :mod:`repro.obs` span tracer — goes through it, so
timestamps from different layers land on one comparable monotonic
timeline.  On Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, which is
system-wide, so readings taken in different processes of one grid run
are directly comparable after a cross-process trace merge.
"""

from __future__ import annotations

import time

__all__ = ["now", "Timer"]


def now() -> float:
    """Current monotonic reading in seconds (the raw-clock chokepoint)."""
    return time.perf_counter()


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    Usage::

        with Timer() as t:
            run_something()
        print(t.elapsed)
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self._start = now()
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._start is not None
        self.elapsed = now() - self._start
        self._start = None
