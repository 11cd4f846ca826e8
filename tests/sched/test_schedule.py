"""Tests for the Schedule container."""

import pytest

from repro.errors import SchedulingError
from repro.ir.dfg import DFG
from repro.ir.ops import OpType
from repro.sched.schedule import Schedule, latency_table

from tests.conftest import make_diamond_dfg, make_parallel_dfg


def unit_schedule(dfg):
    return Schedule(dfg, latency_table(dfg))


class TestPlacement:
    def test_place_and_query(self):
        dfg = make_parallel_dfg(OpType.ADD, 2)
        schedule = unit_schedule(dfg)
        first, second = dfg.operations()
        schedule.place(first, 1)
        schedule.place(second, 3)
        assert schedule.start(first) == 1
        assert schedule.finish(second) == 3
        assert schedule.length == 3

    def test_zero_based_step_rejected(self):
        dfg = make_parallel_dfg(OpType.ADD, 1)
        schedule = unit_schedule(dfg)
        with pytest.raises(SchedulingError):
            schedule.place(dfg.operations()[0], 0)

    def test_unscheduled_query_raises(self):
        dfg = make_parallel_dfg(OpType.ADD, 1)
        schedule = unit_schedule(dfg)
        with pytest.raises(SchedulingError):
            schedule.start(dfg.operations()[0])

    def test_is_complete(self):
        dfg = make_parallel_dfg(OpType.ADD, 2)
        schedule = unit_schedule(dfg)
        assert not schedule.is_complete()
        for op in dfg.operations():
            schedule.place(op, 1)
        assert schedule.is_complete()

    def test_empty_schedule_length_zero(self):
        assert unit_schedule(DFG("e")).length == 0


class TestOccupancy:
    def test_operations_active_at_spans_latency(self, library):
        dfg = make_parallel_dfg(OpType.MUL, 1)
        schedule = Schedule(dfg, latency_table(dfg, library=library))
        op = dfg.operations()[0]
        schedule.place(op, 2)
        assert schedule.operations_active_at(2) == [op]
        assert schedule.operations_active_at(3) == [op]  # latency 2
        assert schedule.operations_active_at(4) == []

    def test_operations_starting_at(self):
        dfg = make_parallel_dfg(OpType.ADD, 3)
        schedule = unit_schedule(dfg)
        ops = dfg.operations()
        schedule.place(ops[0], 1)
        schedule.place(ops[1], 1)
        schedule.place(ops[2], 2)
        assert len(schedule.operations_starting_at(1)) == 2

    def test_max_type_parallelism(self):
        dfg = make_parallel_dfg(OpType.MUL, 4)
        schedule = unit_schedule(dfg)
        for op in dfg.operations():
            schedule.place(op, 1)
        assert schedule.max_type_parallelism()[OpType.MUL] == 4

    def test_max_type_parallelism_mixed(self):
        dfg = DFG("mixed")
        mul = dfg.new_operation(OpType.MUL)
        add1 = dfg.new_operation(OpType.ADD)
        add2 = dfg.new_operation(OpType.ADD)
        schedule = unit_schedule(dfg)
        schedule.place(mul, 1)
        schedule.place(add1, 1)
        schedule.place(add2, 2)
        peaks = schedule.max_type_parallelism()
        assert peaks[OpType.MUL] == 1
        assert peaks[OpType.ADD] == 1


class TestVerification:
    def test_violation_detected(self):
        dfg = make_diamond_dfg()
        schedule = unit_schedule(dfg)
        left, right, join = dfg.operations()
        schedule.place(left, 1)
        schedule.place(right, 1)
        schedule.place(join, 1)  # must be >= 2
        with pytest.raises(SchedulingError):
            schedule.verify_dependencies()

    @pytest.mark.parametrize("unplaced", [0, 2],
                             ids=["producer", "consumer"])
    def test_unplaced_operation_detected(self, unplaced):
        dfg = make_diamond_dfg()
        schedule = unit_schedule(dfg)
        operations = dfg.operations()
        for start, op in enumerate(operations, 1):
            if op is not operations[unplaced]:
                schedule.place(op, start)
        with pytest.raises(SchedulingError, match="not scheduled"):
            schedule.verify_dependencies()

    def test_as_dict(self):
        dfg = make_parallel_dfg(OpType.ADD, 1)
        schedule = unit_schedule(dfg)
        op = dfg.operations()[0]
        schedule.place(op, 2)
        assert schedule.as_dict() == {op.uid: (2, 2)}


class TestLatencyTable:
    def test_default_unit_latency(self):
        dfg = make_parallel_dfg(OpType.MUL, 2)
        table = latency_table(dfg)
        assert all(latency == 1 for latency in table.values())

    def test_library_latency(self, library):
        dfg = make_parallel_dfg(OpType.DIV, 1)
        table = latency_table(dfg, library=library)
        op = dfg.operations()[0]
        assert table[op.uid] == library.get("divider").latency
