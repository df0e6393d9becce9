"""Golden-snapshot regression: every registry scheduler, pinned numbers.

Three small fixed-seed instances run through every registered algorithm;
makespan, C1, and C2 must match ``tests/goldens/registry_goldens.json``
exactly.  Any intentional behaviour change must regenerate the goldens
(``PYTHONPATH=src python scripts/regenerate_goldens.py --write``) and
commit the JSON diff — see ``docs/testing.md``.

:class:`TestFrozenCaseChecksums` pins four larger schedules — the S4
mesh at two processor counts, a pipeline of chains, and a wide shallow
DAG — by the CRC-32 of their start arrays, under both engines.  These
values are frozen, not regenerated: a different checksum means the
mesh, the DAG builder, the random-delay setup or a scheduling kernel
changed the schedules.
"""

import json
import sys
import zlib
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "scripts") not in sys.path:
    sys.path.insert(0, str(ROOT / "scripts"))

from regenerate_goldens import GOLDEN_CASES, GOLDEN_PATH, compute_goldens  # noqa: E402

REGEN = "PYTHONPATH=src python scripts/regenerate_goldens.py --write"


class TestGoldens:
    def test_golden_file_exists_and_covers_registry(self):
        from repro.heuristics import algorithm_names

        stored = json.loads(GOLDEN_PATH.read_text())
        assert set(stored) == {label for label, *_ in GOLDEN_CASES}
        for label, row in stored.items():
            assert set(row) == set(algorithm_names()), (
                f"golden case {label!r} does not cover the registry — "
                f"regenerate with: {REGEN}"
            )

    def test_registry_matches_goldens(self):
        stored = json.loads(GOLDEN_PATH.read_text())
        current = compute_goldens()
        drifted = [
            f"{case}/{algo}: stored={stored.get(case, {}).get(algo)} "
            f"current={vals}"
            for case, row in current.items()
            for algo, vals in row.items()
            if stored.get(case, {}).get(algo) != vals
        ]
        assert not drifted, (
            "golden drift (if intended, regenerate with: " + REGEN + ")\n"
            + "\n".join(drifted)
        )


#: CRC-32 of the int64 start array of each frozen case (seed 0).
FROZEN_CASE_CHECKSUMS = {
    "mesh_large": 2811619235,
    "mesh_standard": 3513323258,
    "chain": 4141441418,
    "wide_layer": 3530932037,
}


@lru_cache(maxsize=None)
def _tet_mesh():
    from repro.mesh.generators import make_mesh

    return make_mesh("tetonly", target_cells=2000, seed=0)


@lru_cache(maxsize=None)
def _frozen_case(name):
    """``(instance, m)`` of one frozen case."""
    from repro.instances.families import identical_chains, wide_shallow
    from repro.sweeps import build_instance, directions_for_mesh

    if name == "mesh_large":
        return build_instance(_tet_mesh(), directions_for_mesh(3, 24)), 512
    if name == "mesh_standard":
        return build_instance(_tet_mesh(), directions_for_mesh(3, 8)), 32
    if name == "chain":
        return identical_chains(500, 8), 8
    return wide_shallow(8000, 4, seed=0), 512


class TestFrozenCaseChecksums:
    @pytest.mark.parametrize("engine", ["heap", "bucket"])
    @pytest.mark.parametrize("name", sorted(FROZEN_CASE_CHECKSUMS))
    def test_start_checksum_unchanged(self, name, engine):
        from repro.core.assignment import random_cell_assignment
        from repro.core.list_scheduler import list_schedule
        from repro.core.random_delay import delayed_task_layers, draw_delays
        from repro.util.rng import as_rng

        inst, m = _frozen_case(name)
        rng = as_rng(0)
        delays = draw_delays(inst.k, rng)
        assignment = random_cell_assignment(inst.n_cells, m, rng)
        priority = delayed_task_layers(inst, delays)
        schedule = list_schedule(
            inst, m, assignment, priority=priority, engine=engine
        )
        start = np.ascontiguousarray(schedule.start, dtype=np.int64)
        assert zlib.crc32(start.tobytes()) == FROZEN_CASE_CHECKSUMS[name], (
            f"{name} [{engine}]: the frozen schedule changed"
        )
