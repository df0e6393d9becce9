"""Cross-engine equivalence: heap vs the batched kernel, bit for bit.

The headline guarantee of the batched kernel
(:mod:`repro.core.fast_scheduler`) is that it is a pure optimisation:
same start times, same machine numbers, same tie-breaks, same errors as
the heap engine, on every input.  This suite pins that guarantee on

* every fuzz spec family (:data:`repro.fuzz.spec.CASE_FAMILIES`),
* every registry golden case x every registry algorithm,
* every persisted fuzz-corpus entry,
* random hypothesis instances,

always exercising *both* promotion strategies of the kernel (padded
successor matrix and CSR gather) via the ``_FORCE_PROMOTION`` test hook,
so neither the width rule behind ``auto`` nor the one behind
:func:`~repro.core.fast_scheduler.padded_promotion` can hide a broken
path.  Start arrays are compared both
elementwise and by CRC-32 checksum — the same digest the frozen case
checksums in ``tests/test_goldens.py`` pin — so a checksum scheme that
ever diverged from the arrays would be caught here first.

The priority-property tests at the bottom cover the tie-break contract
itself: ``priority=None`` is the all-zeros priority, schedules depend
only on the *relative order* of priorities, and permuting equal-priority
task ids leaves every engine deterministic, mutually identical, and
oracle-clean.
"""

import json
import zlib
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fast_scheduler as fs
from repro.core.assignment import random_cell_assignment
from repro.core.list_scheduler import list_schedule, list_schedule_unassigned
from repro.core.random_delay import delayed_task_layers, draw_delays
from repro.fuzz.corpus import iter_corpus, load_entry, replay_entry
from repro.fuzz.spec import CASE_FAMILIES, build_case
from repro.heuristics import algorithm_names, get_algorithm
from repro.util.rng import as_rng

from .strategies import sweep_instances

PROMOTIONS = ("padded", "csr")


@contextmanager
def force_promotion(promotion):
    saved = fs._FORCE_PROMOTION
    fs._FORCE_PROMOTION = promotion
    try:
        yield
    finally:
        fs._FORCE_PROMOTION = saved


def start_checksum(schedule):
    """The frozen-case schedule digest: CRC-32 of the start array."""
    start = np.ascontiguousarray(schedule.start, dtype=np.int64)
    return zlib.crc32(start.tobytes())


def engine_variants():
    """Every (label, engine, forced promotion) combination the suite runs."""
    for promotion in PROMOTIONS:
        yield f"bucket[{promotion}]", "bucket", promotion


def assert_engines_match(inst, m, assignment, priority, label=""):
    """Heap vs the kernel (both promotions), assigned and unassigned.

    Asserts identical start arrays, assignments, machine numbers,
    makespans, and CRC-32 start checksums for every engine variant.
    """
    ref = list_schedule(inst, m, assignment, priority=priority, engine="heap")
    uref = list_schedule_unassigned(inst, m, priority=priority, engine="heap")
    for vlabel, engine, promotion in engine_variants():
        with force_promotion(promotion):
            got = list_schedule(
                inst, m, assignment, priority=priority, engine=engine
            )
            ugot = list_schedule_unassigned(
                inst, m, priority=priority, engine=engine
            )
        where = f"{label} [{vlabel}]"
        assert np.array_equal(got.start, ref.start), f"{where} start"
        assert np.array_equal(got.assignment, ref.assignment), (
            f"{where} assignment"
        )
        assert got.makespan == ref.makespan, f"{where} makespan"
        assert start_checksum(got) == start_checksum(ref), f"{where} checksum"
        assert np.array_equal(ugot.start, uref.start), (
            f"{where} unassigned start"
        )
        assert np.array_equal(ugot.machine, uref.machine), (
            f"{where} machine"
        )


def case_priorities(inst, seed):
    """The priority flavours every case is checked under."""
    rng = as_rng(seed)
    gamma = delayed_task_layers(inst, draw_delays(inst.k, rng))
    yield "uniform", None
    yield "delayed-level", gamma
    yield "float", rng.random(inst.n_tasks)
    yield "negative", rng.integers(-8, 8, inst.n_tasks)


class TestFuzzFamilies:
    @pytest.mark.parametrize("family", sorted(CASE_FAMILIES))
    @pytest.mark.parametrize("seed,m", [(0, 1), (1, 3), (2, 7)])
    def test_family_bit_identical(self, family, seed, m):
        inst, m = build_case(
            {"family": family, "seed": seed, "m": m, "params": {}}
        )
        rng = as_rng(seed)
        assignment = random_cell_assignment(inst.n_cells, m, rng)
        for pname, prio in case_priorities(inst, seed):
            assert_engines_match(
                inst, m, assignment, prio, label=f"{family}/{pname}"
            )


class TestRegistryGoldens:
    @pytest.fixture(scope="class")
    def golden_cases(self):
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        if str(root / "scripts") not in sys.path:
            sys.path.insert(0, str(root / "scripts"))
        from regenerate_goldens import GOLDEN_CASES

        from repro.instances import make_instance

        return [
            (label, make_instance(family, **params), m)
            for label, family, params, m in GOLDEN_CASES
        ]

    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_golden_cases_bit_identical(self, golden_cases, algorithm):
        fn = get_algorithm(algorithm)
        for label, inst, m in golden_cases:
            ref = fn(inst, m, seed=0, engine="heap")
            for vlabel, engine, promotion in engine_variants():
                with force_promotion(promotion):
                    got = fn(inst, m, seed=0, engine=engine)
                assert np.array_equal(got.start, ref.start), (
                    f"{label}/{algorithm} [{vlabel}]"
                )
                assert got.makespan == ref.makespan
                assert start_checksum(got) == start_checksum(ref)


class TestCorpus:
    def test_corpus_replays_engine_clean(self):
        entries = iter_corpus("corpus")
        for path in entries:
            entry = load_entry(path)
            result = replay_entry(entry)
            engine_violations = [
                v for v in result.violations if v.oracle == "engine_equivalence"
            ]
            assert not engine_violations, (
                f"{path.name}: {[str(v) for v in engine_violations]}"
            )

    def test_corpus_entries_are_wellformed_json(self):
        for path in iter_corpus("corpus"):
            json.loads(path.read_text())


class TestHypothesisEquivalence:
    @given(
        sweep_instances(max_n=14, max_k=3),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_instances_bit_identical(self, inst, m, seed):
        rng = as_rng(seed)
        assignment = random_cell_assignment(inst.n_cells, m, rng)
        for pname, prio in case_priorities(inst, seed):
            assert_engines_match(inst, m, assignment, prio, label=pname)


class TestPriorityProperties:
    """Satellite: tie-break determinism pinned for every engine."""

    def _engines(self):
        yield "heap", None
        for promotion in PROMOTIONS:
            yield "bucket", promotion

    @given(sweep_instances(max_n=12, max_k=3))
    @settings(max_examples=25, deadline=None)
    def test_none_equals_zeros(self, inst):
        m = 3
        assignment = np.arange(inst.n_cells) % m
        zeros = np.zeros(inst.n_tasks, dtype=np.int64)
        for engine, promotion in self._engines():
            with force_promotion(promotion):
                a = list_schedule(inst, m, assignment, priority=None,
                                  engine=engine)
                b = list_schedule(inst, m, assignment, priority=zeros,
                                  engine=engine)
                ua = list_schedule_unassigned(inst, m, priority=None,
                                              engine=engine)
                ub = list_schedule_unassigned(inst, m, priority=zeros,
                                              engine=engine)
            assert np.array_equal(a.start, b.start), (engine, promotion)
            assert np.array_equal(ua.start, ub.start), (engine, promotion)
            assert np.array_equal(ua.machine, ub.machine), (engine, promotion)

    @given(
        sweep_instances(max_n=12, max_k=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_order_preserving_transforms_do_not_matter(self, inst, seed):
        """Only the relative order of priorities affects the schedule."""
        m = 3
        rng = as_rng(seed)
        assignment = np.arange(inst.n_cells) % m
        prio = rng.integers(0, 5, inst.n_tasks)
        scaled = prio * 1000 - 7
        for engine, promotion in self._engines():
            with force_promotion(promotion):
                a = list_schedule(inst, m, assignment, priority=prio,
                                  engine=engine)
                b = list_schedule(inst, m, assignment, priority=scaled,
                                  engine=engine)
            assert np.array_equal(a.start, b.start), (engine, promotion)

    @given(
        sweep_instances(max_n=10, max_k=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_equal_priority_permutation_keeps_oracles(self, inst, seed):
        """Permuting equal-priority task ids: engines stay deterministic,
        mutually bit-identical, and the resulting schedule passes the full
        makespan-oracle pack on both the original and permuted labelling.
        """
        from repro.fuzz.oracles import OracleContext, check_schedule

        m = 2
        rng = as_rng(seed)
        # Permute cell ids (equal-priority: priorities are uniform).
        perm = rng.permutation(inst.n_cells)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(inst.n_cells)
        permuted = type(inst)(
            inst.n_cells,
            [type(g)(g.n, inv[g.edges] if g.num_edges else g.edges)
             for g in inst.dags],
        )
        for variant, vinst in (("original", inst), ("permuted", permuted)):
            assignment = np.arange(vinst.n_cells) % m
            ref = list_schedule(vinst, m, assignment, priority=None,
                                engine="heap")
            again = list_schedule(vinst, m, assignment, priority=None,
                                  engine="heap")
            assert np.array_equal(ref.start, again.start), variant
            for vlabel, engine, promotion in engine_variants():
                with force_promotion(promotion):
                    got = list_schedule(vinst, m, assignment, priority=None,
                                        engine=engine)
                assert np.array_equal(got.start, ref.start), (variant, vlabel)
            ctx = OracleContext(vinst, m)
            violations = check_schedule(ref, algorithm="fifo", ctx=ctx)
            assert not violations, (variant, [str(v) for v in violations])


class TestAutoRule:
    def test_auto_crossover_heap_bucket_vector(self):
        """The width rule: heap below the crossover, the batched kernel
        with padded promotion in the merely-wide regime, and the kernel
        with CSR promotion once the *uncapped* mean wavefront reaches
        ``_CSR_MIN_WIDTH`` tasks per level — the regime the former
        vector engine covered.  ``auto`` only ever names two engines.
        """
        from repro.core.fast_scheduler import _CSR_MIN_WIDTH, padded_promotion
        from repro.core.list_scheduler import resolve_engine
        from repro.instances.families import identical_chains, wide_shallow

        narrow = identical_chains(64, 2)
        assert resolve_engine("auto", None, narrow, 4) == "heap"
        # Wide but below the CSR crossover: padded promotion.
        wide = wide_shallow(1000, 2, seed=0)
        assert wide.n_tasks // wide.union_dag().num_levels() < _CSR_MIN_WIDTH
        assert resolve_engine("auto", None, wide, 512) == "bucket"
        assert padded_promotion(wide.union_dag()) is not None
        # At/above the CSR crossover the kernel runs at any m.
        very_wide = wide_shallow(4000, 2, seed=0)
        assert (
            very_wide.n_tasks // very_wide.union_dag().num_levels()
            >= _CSR_MIN_WIDTH
        )
        assert resolve_engine("auto", None, very_wide, 512) == "bucket"
        assert resolve_engine("auto", None, very_wide, 4) == "bucket"
        assert padded_promotion(very_wide.union_dag()) is None
        # Unsupported keys force the heap even on very wide instances.
        obj = np.empty(very_wide.n_tasks, dtype=object)
        obj[:] = [(0, i) for i in range(very_wide.n_tasks)]
        assert resolve_engine("auto", obj, very_wide, 512) == "heap"

    @pytest.mark.parametrize("engine", ["bucket", "vector"])
    def test_explicit_engine_ignores_width(self, engine):
        from repro.core.list_scheduler import resolve_engine
        from repro.instances.families import identical_chains

        narrow = identical_chains(64, 2)
        assert resolve_engine(engine, None, narrow, 4) == "bucket"

    def test_vector_is_an_alias_of_bucket(self):
        """``"vector"`` stays a valid request (campaign specs and served
        requests store the requested string) and always resolves to the
        batched kernel, with or without an instance."""
        from repro.core.list_scheduler import ENGINES, resolve_engine
        from repro.instances.families import wide_shallow

        assert "vector" in ENGINES
        assert resolve_engine("vector", None) == "bucket"
        very_wide = wide_shallow(4000, 2, seed=0)
        assert resolve_engine("vector", None, very_wide, 4) == "bucket"

    @pytest.mark.parametrize("engine", ["bucket", "vector"])
    def test_explicit_engine_rejects_object_keys(self, engine):
        from repro.core.list_scheduler import resolve_engine
        from repro.instances.families import identical_chains
        from repro.util.errors import InvalidScheduleError

        narrow = identical_chains(8, 2)
        obj = np.empty(narrow.n_tasks, dtype=object)
        obj[:] = [(0, i) for i in range(narrow.n_tasks)]
        with pytest.raises(InvalidScheduleError, match="NaN-free"):
            resolve_engine(engine, obj, narrow, 4)

    def test_unknown_engine_rejected(self):
        from repro.core.list_scheduler import resolve_engine
        from repro.util.errors import InvalidScheduleError

        with pytest.raises(InvalidScheduleError, match="unknown engine"):
            resolve_engine("quantum", None)

    @given(
        st.sampled_from(["heap", "bucket", "vector", "auto"]),
        st.one_of(st.none(), st.just("float"), st.just("object")),
        st.integers(min_value=1, max_value=600),
    )
    @settings(max_examples=30, deadline=None)
    def test_resolves_to_two_names_only(self, engine, keys, m):
        from repro.core.list_scheduler import resolve_engine
        from repro.instances.families import wide_shallow
        from repro.util.errors import InvalidScheduleError

        inst = wide_shallow(200, 2, seed=0)
        if keys is None:
            priority = None
        elif keys == "float":
            priority = np.linspace(0.0, 1.0, inst.n_tasks)
        else:
            priority = np.empty(inst.n_tasks, dtype=object)
            priority[:] = [(0, i) for i in range(inst.n_tasks)]
        try:
            resolved = resolve_engine(engine, priority, inst, m)
        except InvalidScheduleError:
            assert keys == "object" and engine in ("bucket", "vector")
            return
        assert resolved in ("heap", "bucket")


class TestCodeOverflow:
    """Packed codes that cannot fit ``_CODE_BITS`` bits go to the heap."""

    def test_overflow_falls_back_to_heap(self, monkeypatch):
        from repro import obs

        inst, m = build_case(
            {"family": "mesh", "seed": 1, "m": 3, "params": {}}
        )
        assignment = random_cell_assignment(inst.n_cells, m, as_rng(1))
        prio = as_rng(1).integers(0, 50, inst.n_tasks)
        ref = list_schedule(inst, m, assignment, priority=prio, engine="heap")
        uref = list_schedule_unassigned(inst, m, priority=prio, engine="heap")
        monkeypatch.setattr(fs, "_CODE_BITS", 4)
        was_on = obs.tracing_enabled()
        obs.enable_tracing()
        obs.reset()
        try:
            got = list_schedule(
                inst, m, assignment, priority=prio, engine="bucket"
            )
            ugot = list_schedule_unassigned(
                inst, m, priority=prio, engine="bucket"
            )
            counters = obs.drain_metrics()["counters"]
        finally:
            obs.reset()
            if not was_on:
                obs.disable_tracing()
        # Both modes ran on the heap, not the kernel...
        assert counters.get("scheduler.heap.runs") == 2
        assert "scheduler.pool.steps" not in counters
        # ...and match the heap reference bit for bit.
        assert np.array_equal(got.start, ref.start)
        assert np.array_equal(got.assignment, ref.assignment)
        assert np.array_equal(ugot.start, uref.start)
        assert np.array_equal(ugot.machine, uref.machine)

    @given(
        st.lists(st.integers(0, 2**40), max_size=64),
        st.one_of(st.none(), st.integers(1, 1000)),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_budget_boundary(self, keys, m):
        """``_pool_codes`` packs exactly when the rank-compressed key
        fits the budget: at the boundary it returns an order-preserving
        key whose largest code fits, one bit below it returns ``None``."""
        key = np.asarray(keys, dtype=np.int64)
        n = key.size
        logn = max(1, (n - 1).bit_length())
        logm = 0 if m is None else max(1, (m - 1).bit_length())
        ranks = np.unique(key, return_inverse=True)[1].reshape(-1)
        kb = max(1, int(ranks.max()).bit_length()) if n else 1
        need = logn + kb + logm
        saved = fs._CODE_BITS
        try:
            fs._CODE_BITS = need
            packed = fs._pool_codes(key, n, m)
            assert packed is not None
            got, got_logn, got_kb = packed
            assert got_logn == logn
            assert np.array_equal(
                np.unique(got, return_inverse=True)[1].reshape(-1), ranks
            )
            if n:
                top = ((0 if m is None else m - 1) << (got_logn + got_kb)) | (
                    int(got.max()) << got_logn
                ) | (n - 1)
                assert top < 2**need
            fs._CODE_BITS = need - 1
            assert fs._pool_codes(key, n, m) is None
        finally:
            fs._CODE_BITS = saved
