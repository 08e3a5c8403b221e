"""Memory-driven refinement of divide-and-conquer subsets, run by the
subproblem scheduler: a subset that exceeds the modeled node memory is
split by one more reaction."""

import logging

import pytest

from repro.cluster.memory import MemoryModel
from repro.core.serial import nullspace_algorithm
from repro.dnc.combined import combined_parallel
from repro.dnc.subsets import SubsetSpec, refinement_reaction
from repro.engine.scheduler import MAX_REFINE_DEPTH
from repro.errors import PartitionError
from tests.conftest import assert_same_modes


@pytest.fixture(scope="module")
def tight_cap(toy_problem):
    """A per-rank cap at 40% of the unsplit toy problem's peak: subsets
    of ``("r8r",)`` refine, and every refined subset fits."""
    probe = MemoryModel(capacity_bytes=1, enforcing=False)
    nullspace_algorithm(toy_problem, memory_check=probe.check)
    return int(probe.peak_bytes * 0.4)


class TestAdaptive:
    def test_no_refinement_when_memory_ample(self, toy_record):
        run = combined_parallel(
            toy_record.reduced, ("r6r", "r8r"), 1,
            memory_model=MemoryModel(capacity_bytes=10**9),
        )
        assert run.complete
        assert run.meta["refinements"] == []
        assert run.n_efms == 8

    def test_refines_under_pressure_and_stays_correct(
        self, toy_record, toy_problem, tight_cap
    ):
        run = combined_parallel(
            toy_record.reduced, ("r8r",), 1,
            memory_model=MemoryModel(capacity_bytes=tight_cap),
        )
        assert run.complete and run.meta["refinements"]
        serial = nullspace_algorithm(toy_problem)
        assert_same_modes(serial.efms_input_order(), run.efms())

    def test_failure_reported_when_depth_exhausted(self, toy_record):
        run = combined_parallel(
            toy_record.reduced, ("r8r",), 1,
            memory_model=MemoryModel(capacity_bytes=4),
        )
        assert not run.complete
        failed = [s for s in run.subsets if not s.completed]
        assert failed
        # Each subset still out of memory carries the whole depth budget.
        assert all(
            s.spec.q_sub == 1 + MAX_REFINE_DEPTH and s.oom is not None
            for s in failed
        )

    def test_events_record_context(self, toy_record, tight_cap):
        run = combined_parallel(
            toy_record.reduced, ("r8r",), 1,
            memory_model=MemoryModel(capacity_bytes=tight_cap),
        )
        for parent, added, iteration, required in run.meta["refinements"]:
            assert added not in parent.replace("~", "").split()
            assert iteration is not None and required > tight_cap

    def test_children_take_their_parents_slot(self, toy_record, tight_cap):
        run = combined_parallel(
            toy_record.reduced, ("r8r",), 1,
            memory_model=MemoryModel(capacity_bytes=tight_cap),
        )
        refined = {parent for parent, *_ in run.meta["refinements"]}
        labels = [s.spec.label() for s in run.subsets]
        assert not refined & set(labels)
        # Depth-first expansion of the initial order, zero child first:
        # each refined label is replaced by its two children in place.
        expected = [SubsetSpec(i, ("r8r",)) for i in range(2)]
        for parent, added, *_ in run.meta["refinements"]:
            at = next(i for i, s in enumerate(expected) if s.label() == parent)
            expected[at : at + 1] = expected[at].refine(added)
        assert labels == [s.label() for s in expected]

    def test_refinement_logged_once_at_debug(self, toy_record, tight_cap, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.dnc.combined"):
            run = combined_parallel(
                toy_record.reduced, ("r8r",), 1,
                memory_model=MemoryModel(capacity_bytes=tight_cap),
            )
        records = [
            r.getMessage() for r in caplog.records if "refined" in r.getMessage()
        ]
        assert len(records) == len(run.meta["refinements"]) > 0
        for message, (parent, added, iteration, _) in zip(
            records, run.meta["refinements"]
        ):
            assert parent in message and added in message
            assert f"iteration {iteration}" in message


class TestExtensionChooser:
    def test_prefers_reversible(self, toy_record):
        spec = SubsetSpec(0, ("r8r",))
        choice = refinement_reaction(spec, toy_record.reduced)
        assert choice == "r6r"  # the only other reversible

    def test_falls_back_to_irreversible(self, toy_record):
        spec = SubsetSpec(0, ("r6r", "r8r"))
        choice = refinement_reaction(spec, toy_record.reduced)
        assert not toy_record.reduced.reaction(choice).reversible

    def test_exhaustion_raises(self, toy_record):
        all_names = toy_record.reduced.reaction_names
        spec = SubsetSpec(0, all_names)
        with pytest.raises(PartitionError):
            refinement_reaction(spec, toy_record.reduced)
