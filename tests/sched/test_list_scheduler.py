"""Tests for resource-constrained list scheduling."""

import pytest

from repro.errors import SchedulingError
from repro.ir.dfg import DFG
from repro.ir.ops import OpType
from repro.sched.asap import asap_schedule
from repro.sched.list_scheduler import list_schedule

from tests.conftest import make_chain_dfg, make_diamond_dfg, make_parallel_dfg


class TestResourceConstraints:
    def test_single_unit_serialises(self, library):
        dfg = make_parallel_dfg(OpType.ADD, 4)
        schedule = list_schedule(dfg, {"adder": 1}, library)
        assert schedule.length == 4

    def test_two_units_halve_schedule(self, library):
        dfg = make_parallel_dfg(OpType.ADD, 4)
        schedule = list_schedule(dfg, {"adder": 2}, library)
        assert schedule.length == 2

    def test_enough_units_match_asap(self, library):
        dfg = make_parallel_dfg(OpType.ADD, 4)
        schedule = list_schedule(dfg, {"adder": 4}, library)
        assert schedule.length == asap_schedule(dfg, library=library).length

    def test_missing_unit_raises(self, library):
        dfg = make_parallel_dfg(OpType.ADD, 2)
        with pytest.raises(SchedulingError):
            list_schedule(dfg, {"multiplier": 1}, library)

    def test_zero_count_raises(self, library):
        dfg = make_parallel_dfg(OpType.ADD, 2)
        with pytest.raises(SchedulingError):
            list_schedule(dfg, {"adder": 0}, library)

    def test_excess_units_do_not_help(self, library):
        dfg = make_parallel_dfg(OpType.ADD, 3)
        tight = list_schedule(dfg, {"adder": 3}, library)
        loose = list_schedule(dfg, {"adder": 30}, library)
        assert tight.length == loose.length


class TestMulticycle:
    def test_multiplier_busy_for_latency(self, library):
        # Two independent MULs on one 2-cycle multiplier: 4 steps.
        dfg = make_parallel_dfg(OpType.MUL, 2)
        schedule = list_schedule(dfg, {"multiplier": 1}, library)
        assert schedule.length == 4

    def test_diamond_under_constraint(self, library):
        dfg = make_diamond_dfg()
        schedule = list_schedule(dfg, {"multiplier": 1, "adder": 1},
                                 library)
        # MULs serialised (2 + 2), then the ADD: 5 steps.
        assert schedule.length == 5
        schedule.verify_dependencies()

    def test_diamond_with_two_multipliers(self, library):
        dfg = make_diamond_dfg()
        schedule = list_schedule(dfg, {"multiplier": 2, "adder": 1},
                                 library)
        assert schedule.length == 3


class TestCorrectness:
    def test_dependencies_always_respected(self, library):
        dfg = make_chain_dfg([OpType.MUL, OpType.ADD, OpType.MUL,
                              OpType.SUB])
        schedule = list_schedule(
            dfg, {"multiplier": 1, "adder": 1, "subtractor": 1}, library)
        schedule.verify_dependencies()

    def test_unit_capacity_never_exceeded(self, library):
        dfg = make_parallel_dfg(OpType.MUL, 6)
        allocation = {"multiplier": 2}
        schedule = list_schedule(dfg, allocation, library)
        for step in range(1, schedule.length + 1):
            active = [op for op in schedule.operations_active_at(step)
                      if op.optype is OpType.MUL]
            assert len(active) <= 2

    def test_empty_dfg(self, library):
        schedule = list_schedule(DFG("e"), {}, library)
        assert schedule.length == 0

    def test_never_shorter_than_asap(self, library):
        dfg = make_diamond_dfg()
        constrained = list_schedule(dfg, {"multiplier": 1, "adder": 1},
                                    library)
        assert (constrained.length
                >= asap_schedule(dfg, library=library).length)

    def test_priority_prefers_critical_path(self, library):
        # A long chain and an independent op compete for one adder; the
        # chain head must win the first step or the schedule stretches.
        dfg = DFG("critical")
        chain = [dfg.new_operation(OpType.ADD) for _ in range(3)]
        for producer, consumer in zip(chain, chain[1:]):
            dfg.add_dependency(producer, consumer)
        dfg.new_operation(OpType.ADD, label="lone")
        schedule = list_schedule(dfg, {"adder": 1}, library)
        assert schedule.length == 4  # optimal: lone op fills a gap
