"""Mutation-kill tests for the batched scheduling kernel.

Same philosophy as :mod:`tests.test_validator_mutations`: each seeded
fault in :mod:`repro.core.fast_scheduler` (``_MUTATION``) must be
*killed* (detected) by at least one case in this file, and each case
documents exactly which fault it targets and why (or whether) the other
faults slip through it.  A fault that every case survives would mean the
equivalence suite's coverage has a hole exactly where the kernel's
bookkeeping is subtlest.  Arming any fault disables the endgame drain,
so the superstep loop is always the code under test, and every cell
runs under *both* promotion strategies (padded matrix and CSR gather,
forced through ``_FORCE_PROMOTION``) and must give the same outcome.

Three faults target promotion and merge — a kill case must route the
target task through a *promotion*, since the initial frontier is not
one:

* ``"promote_off_by_one"`` — promoted codes get key + 1, i.e. their
  priority is silently inflated by one.
* ``"skip_promotion"`` — only the first newly ready task of a superstep
  is merged; the rest are lost.
* ``"unsorted_merge"`` — new codes are appended after the pool instead
  of merged into it, breaking the sorted invariant the pop relies on.

Three target the superstep's other moving parts (pop cut, in-degree
decrement, packed-code tie-break); they were first written for the
standalone frontier kernel that the batched kernel absorbed:

* ``"frontier_off_by_one"`` — the pop mask loses its last processor (its
  last ``min(m, r)``-th task in unassigned mode) whenever a superstep
  pops more than one task.
* ``"stale_indegree"`` — same-superstep sibling completions are folded
  to a single decrement, so a task whose predecessors finish together
  keeps a positive in-degree forever.
* ``"unstable_tiebreak"`` — the task-id component of the packed code is
  inverted (symmetrically, so decode still works): every equal-priority
  tie now breaks toward the *higher* id.
"""

import numpy as np
import pytest

import repro.core.fast_scheduler as fs
from repro.core.dag import Dag
from repro.core.instance import SweepInstance
from repro.core.list_scheduler import list_schedule, list_schedule_unassigned
from repro.util.errors import InvalidScheduleError

MUTATIONS = ("promote_off_by_one", "skip_promotion", "unsorted_merge")
VECTOR_MUTATIONS = (
    "frontier_off_by_one",
    "stale_indegree",
    "unstable_tiebreak",
)
PROMOTIONS = ("padded", "csr")


def run(inst, m, assignment, prio, mutation, promotion, monkeypatch):
    """One kernel run with ``mutation`` armed and ``promotion`` forced."""
    monkeypatch.setattr(fs, "_MUTATION", mutation)
    monkeypatch.setattr(fs, "_FORCE_PROMOTION", promotion)
    try:
        return list_schedule(
            inst, m, np.asarray(assignment, dtype=np.int64),
            priority=np.asarray(prio), engine="bucket",
        )
    finally:
        monkeypatch.setattr(fs, "_MUTATION", None)
        monkeypatch.setattr(fs, "_FORCE_PROMOTION", None)


def check_cell(case, mutation, outcome, monkeypatch):
    """Assert ``outcome`` for ``mutation`` on ``case`` under both
    promotion strategies."""
    inst, m, assignment, prio, expected_start = case()
    for promotion in PROMOTIONS:
        where = f"{case.__name__} / {mutation} / {promotion}"
        if outcome == "correct":
            got = run(inst, m, assignment, prio, mutation, promotion,
                      monkeypatch)
            assert np.array_equal(got.start, expected_start), (
                f"{where}: fault unexpectedly changed the schedule"
            )
        elif outcome == "wrong_schedule":
            got = run(inst, m, assignment, prio, mutation, promotion,
                      monkeypatch)
            assert not np.array_equal(got.start, expected_start), (
                f"{where}: case failed to kill the fault"
            )
        elif outcome == "false_cycle":
            with pytest.raises(InvalidScheduleError, match="cycle"):
                run(inst, m, assignment, prio, mutation, promotion,
                    monkeypatch)
        else:  # pragma: no cover - matrix typo guard
            raise AssertionError(f"unknown outcome {outcome!r}")


def check_baseline(case, monkeypatch):
    """Unmutated kernel: the expected result, identical to the heap."""
    inst, m, assignment, prio, expected_start = case()
    ref = list_schedule(
        inst, m, np.asarray(assignment, dtype=np.int64),
        priority=np.asarray(prio), engine="heap",
    )
    assert np.array_equal(ref.start, expected_start)
    for promotion in PROMOTIONS:
        got = run(inst, m, assignment, prio, None, promotion, monkeypatch)
        assert np.array_equal(got.start, expected_start), promotion


# ----------------------------------------------------------------------
# promotion and merge faults
# ----------------------------------------------------------------------


def case_promote_off_by_one():
    """Kills ``promote_off_by_one``.

    a(0) -> z(1); w(2) free; one processor.  Priorities [0, 5, 5]: after
    a runs, z and w tie at priority 5 and z's lower id must win.  The
    fault promotes z at key 6, so w is popped first and the tie-break
    flips.  ``skip_promotion`` survives (the promotion batch is a
    singleton).  ``unsorted_merge`` does NOT survive: it appends z after
    w although z's code is smaller, so w runs first here too.
    """
    inst = SweepInstance(3, [Dag.from_edge_list(3, [(0, 1)])])
    return inst, 1, [0, 0, 0], [0, 5, 5], np.array([0, 1, 2])


def case_skip_promotion():
    """Kills ``skip_promotion``.

    a(0) -> b(1), a(0) -> c(2), uniform priorities: a's completion
    promotes [b, c] and the fault drops c, which is then never ready —
    the kernel must report the false cycle.  ``promote_off_by_one``
    survives (both promotions shift to key 1 together; ids still break
    the tie) and ``unsorted_merge`` survives (the pool is empty when
    [b, c] arrive, so appending them is already sorted).
    """
    inst = SweepInstance(3, [Dag.from_edge_list(3, [(0, 1), (0, 2)])])
    return inst, 1, [0, 0, 0], [0, 0, 0], np.array([0, 1, 2])


def case_unsorted_merge():
    """Kills ``unsorted_merge``.

    Roots a(0, prio 2) and w(1, prio 3); a -> z(2, prio 0); one
    processor.  After a runs, z is promoted with a code *below* w's.
    The fault appends it behind w, the pop takes the run's first code,
    and w runs before z.  ``promote_off_by_one`` survives (z lands at
    key 1, still below w) and ``skip_promotion`` survives (singleton
    batch).
    """
    inst = SweepInstance(3, [Dag.from_edge_list(3, [(0, 2)])])
    return inst, 1, [0, 0, 0], [2, 3, 0], np.array([0, 2, 1])


CASES = {
    "promote_off_by_one": case_promote_off_by_one,
    "skip_promotion": case_skip_promotion,
    "unsorted_merge": case_unsorted_merge,
}

#: What each (case, mutation) pair must do.  ``"correct"`` = survives
#: (bit-identical to production), anything else = the kill signature.
KILL_MATRIX = {
    ("promote_off_by_one", "promote_off_by_one"): "wrong_schedule",
    ("promote_off_by_one", "skip_promotion"): "correct",
    ("promote_off_by_one", "unsorted_merge"): "wrong_schedule",
    ("skip_promotion", "promote_off_by_one"): "correct",
    ("skip_promotion", "skip_promotion"): "false_cycle",
    ("skip_promotion", "unsorted_merge"): "correct",
    ("unsorted_merge", "promote_off_by_one"): "correct",
    ("unsorted_merge", "skip_promotion"): "correct",
    ("unsorted_merge", "unsorted_merge"): "wrong_schedule",
}


class TestProductionBaseline:
    """Unmutated kernel: correct result, identical to the heap engine."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bucket_matches_expected_and_heap(self, case, monkeypatch):
        check_baseline(CASES[case], monkeypatch)

    def test_force_hook_selects_promotion(self, monkeypatch):
        """The hook really switches strategy, or the kill cells would run
        one strategy twice: forced ``"csr"`` must never read the padded
        matrix, forced ``"padded"`` must, even on an instance whose
        natural choice is the other one."""
        inst, _, _, _, _ = case_promote_off_by_one()
        union = inst.union_dag()
        monkeypatch.setattr(fs, "_FORCE_PROMOTION", "csr")
        assert fs.padded_promotion(union) is None
        monkeypatch.setattr(fs, "_FORCE_PROMOTION", "padded")
        assert fs.padded_promotion(union) is not None
        monkeypatch.setattr(fs, "_CSR_MIN_WIDTH", 1)
        assert fs.padded_promotion(union) is not None
        monkeypatch.setattr(fs, "_FORCE_PROMOTION", None)
        assert fs.padded_promotion(union) is None


class TestKillMatrix:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_cell(self, case, mutation, monkeypatch):
        check_cell(CASES[case], mutation, KILL_MATRIX[(case, mutation)],
                   monkeypatch)

    def test_every_mutation_is_killed(self):
        """Census: each fault must have at least one non-surviving cell."""
        for mutation in MUTATIONS:
            kills = [
                case
                for case in CASES
                if KILL_MATRIX[(case, mutation)] != "correct"
            ]
            assert kills, f"no case kills {mutation}"


# ----------------------------------------------------------------------
# pop, decrement and tie-break faults
# ----------------------------------------------------------------------


def vcase_frontier_off_by_one():
    """Kills ``frontier_off_by_one``.

    Two free tasks on two processors, uniform priorities: production
    runs both at step 0; the fault clears the second processor's pop, so
    its task slips to step 1.  ``stale_indegree`` survives (no edges, so
    the decrement never runs) and ``unstable_tiebreak`` survives (each
    processor's queue holds a single task — there is no tie to flip).
    """
    inst = SweepInstance(2, [Dag.from_edge_list(2, [])])
    return inst, 2, [0, 1], [0, 0], np.array([0, 0])


def vcase_stale_indegree():
    """Kills ``stale_indegree``.

    a(0) -> z(2) and b(1) -> z(2) with a, b on different processors:
    both predecessors complete in the same superstep, so the gathered
    successor batch is ``[z, z]`` and the correct decrement is 2.  The
    fault subtracts 1, z's in-degree never reaches zero, and the kernel
    must report the false cycle.  ``unstable_tiebreak`` survives (each
    processor run is a singleton at every superstep; z's promotion step
    and processor are unchanged).  ``frontier_off_by_one`` does NOT
    survive — it drops b's step-0 pop, serialising the predecessors —
    which is the price of a fault that perturbs *every* multi-pop
    superstep; the cell below records the honest outcome.
    """
    inst = SweepInstance(3, [Dag.from_edge_list(3, [(0, 2), (1, 2)])])
    return inst, 2, [0, 1, 0], [0, 0, 0], np.array([0, 0, 1])


def vcase_unstable_tiebreak():
    """Kills ``unstable_tiebreak``.

    Two free tasks tied at priority 0 on one processor: id order says
    task 0 first, the inverted packed codes say task 1 first.  The other
    faults survive: one processor run per superstep means the off-by-one
    cut never fires (it needs more than one pop), and no edges means no
    decrement for ``stale_indegree`` to corrupt.
    """
    inst = SweepInstance(2, [Dag.from_edge_list(2, [])])
    return inst, 1, [0, 0], [0, 0], np.array([0, 1])


VECTOR_CASES = {
    "frontier_off_by_one": vcase_frontier_off_by_one,
    "stale_indegree": vcase_stale_indegree,
    "unstable_tiebreak": vcase_unstable_tiebreak,
}

VECTOR_KILL_MATRIX = {
    ("frontier_off_by_one", "frontier_off_by_one"): "wrong_schedule",
    ("frontier_off_by_one", "stale_indegree"): "correct",
    ("frontier_off_by_one", "unstable_tiebreak"): "correct",
    ("stale_indegree", "frontier_off_by_one"): "wrong_schedule",
    ("stale_indegree", "stale_indegree"): "false_cycle",
    ("stale_indegree", "unstable_tiebreak"): "correct",
    ("unstable_tiebreak", "frontier_off_by_one"): "correct",
    ("unstable_tiebreak", "stale_indegree"): "correct",
    ("unstable_tiebreak", "unstable_tiebreak"): "wrong_schedule",
}


class TestVectorProductionBaseline:
    """Unmutated kernel on the pop/decrement/tie-break cases."""

    @pytest.mark.parametrize("case", sorted(VECTOR_CASES))
    def test_vector_matches_expected_and_heap(self, case, monkeypatch):
        check_baseline(VECTOR_CASES[case], monkeypatch)

    def test_mutation_disables_endgame_drain(self, monkeypatch):
        """An armed fault must force the superstep loop even when the
        whole instance is one ready frontier, or drain-batched cases
        would never execute the mutated code at all.  Pinned through the
        superstep metric: the drain finishes the two-task single-proc
        case in one superstep, the loop needs two.
        """
        from repro import obs

        inst, m, assignment, prio, _ = vcase_unstable_tiebreak()
        was_on = obs.tracing_enabled()
        obs.enable_tracing()
        obs.reset()
        try:
            for promotion in PROMOTIONS:
                run(inst, m, assignment, prio, None, promotion, monkeypatch)
                drained = obs.drain_metrics()["counters"]
                assert drained.get("scheduler.pool.supersteps") == 1
                run(inst, m, assignment, prio, "stale_indegree", promotion,
                    monkeypatch)
                looped = obs.drain_metrics()["counters"]
                assert looped.get("scheduler.pool.supersteps") == 2
        finally:
            obs.reset()
            if not was_on:
                obs.disable_tracing()


class TestVectorKillMatrix:
    @pytest.mark.parametrize("case", sorted(VECTOR_CASES))
    @pytest.mark.parametrize("mutation", VECTOR_MUTATIONS)
    def test_cell(self, case, mutation, monkeypatch):
        check_cell(VECTOR_CASES[case], mutation,
                   VECTOR_KILL_MATRIX[(case, mutation)], monkeypatch)

    def test_unassigned_mode_kills(self, monkeypatch):
        """Graham mode exercises the same faults through its own pop cut
        and machine assignment: two free tied tasks on two machines run
        ``(start 0, machines 0 and 1)`` in production; the off-by-one
        cut pops only one of them per superstep, and the inverted
        tie-break hands machine 0 to the wrong task.  ``stale_indegree``
        survives (no edges).  A promoting pair a -> b, a -> c on one
        machine kills ``skip_promotion`` here too.
        """
        inst = SweepInstance(2, [Dag.from_edge_list(2, [])])
        fork = SweepInstance(3, [Dag.from_edge_list(3, [(0, 1), (0, 2)])])

        def urun(mutation, promotion, case=inst, m=2):
            monkeypatch.setattr(fs, "_MUTATION", mutation)
            monkeypatch.setattr(fs, "_FORCE_PROMOTION", promotion)
            try:
                return list_schedule_unassigned(
                    case, m, priority=np.zeros(case.n_tasks, dtype=np.int64),
                    engine="bucket",
                )
            finally:
                monkeypatch.setattr(fs, "_MUTATION", None)
                monkeypatch.setattr(fs, "_FORCE_PROMOTION", None)

        for promotion in PROMOTIONS:
            base = urun(None, promotion)
            assert np.array_equal(base.start, [0, 0])
            assert np.array_equal(base.machine, [0, 1])
            off = urun("frontier_off_by_one", promotion)
            assert not np.array_equal(off.start, base.start)
            tie = urun("unstable_tiebreak", promotion)
            assert not np.array_equal(tie.machine, base.machine)
            stale = urun("stale_indegree", promotion)
            assert np.array_equal(stale.start, base.start)
            assert np.array_equal(stale.machine, base.machine)
            assert np.array_equal(
                urun(None, promotion, fork, 1).start, [0, 1, 2]
            )
            with pytest.raises(InvalidScheduleError, match="cycle"):
                urun("skip_promotion", promotion, fork, 1)

    def test_every_vector_mutation_is_killed(self):
        """Census: each of these faults has at least one non-surviving
        cell, and together with :class:`TestKillMatrix` the census covers
        every fault the kernel can arm."""
        for mutation in VECTOR_MUTATIONS:
            kills = [
                case
                for case in VECTOR_CASES
                if VECTOR_KILL_MATRIX[(case, mutation)] != "correct"
            ]
            assert kills, f"no case kills {mutation}"
        import inspect
        import re

        armed = set(re.findall(
            r'(?:mut|_MUTATION) == "(\w+)"', inspect.getsource(fs)
        ))
        assert armed == set(MUTATIONS + VECTOR_MUTATIONS)
