"""Tests for the exhaustive allocation search."""

import pytest

from repro.core.exhaustive import (
    _draw_feasible_samples,
    allocation_space,
    enumerate_allocations,
    exhaustive_best_allocation,
    space_size,
)
from repro.core.rmap import RMap
from repro.errors import AllocationError
from repro.ir.ops import OpType
from repro.partition.model import TargetArchitecture

from tests.conftest import make_leaf, make_parallel_dfg


@pytest.fixture
def small_app():
    """Two BSBs over two resource axes: multiplier (cap 2), adder (cap 3)."""
    muls = make_leaf(make_parallel_dfg(OpType.MUL, 2, "muls"),
                     profile=50, name="muls", reads={"a"}, writes={"b"})
    adds = make_leaf(make_parallel_dfg(OpType.ADD, 3, "adds"),
                     profile=20, name="adds", reads={"b"}, writes={"c"})
    return [muls, adds]


def draw(library, bsbs, budget, restrictions=None):
    """The sampled search's candidates over the whole space, without
    an area limit."""
    names, ranges = allocation_space(bsbs, library,
                                     restrictions=restrictions)
    unit_areas = {name: library.area_of(name) for name in names}
    size = space_size(bsbs, library, restrictions=restrictions)
    candidates, skipped = _draw_feasible_samples(
        names, ranges, budget, unit_areas, float("inf"), size)
    assert skipped == 0
    return candidates


class TestSpace:
    def test_space_axes(self, library, small_app):
        names, ranges = allocation_space(small_app, library)
        assert names == ["adder", "multiplier"]
        assert [len(counts) for counts in ranges] == [4, 3]

    def test_space_size(self, library, small_app):
        assert space_size(small_app, library) == 12

    def test_enumeration_is_complete(self, library, small_app):
        allocations = list(enumerate_allocations(small_app, library))
        assert len(allocations) == 12
        assert RMap() in allocations
        assert RMap({"adder": 3, "multiplier": 2}) in allocations

    def test_enumeration_unique(self, library, small_app):
        allocations = list(enumerate_allocations(small_app, library))
        assert len(set(allocations)) == len(allocations)

    def test_sampling_reproducible(self, library, small_app):
        first = draw(library, small_app, 8)
        assert len(first) == 8
        assert first == draw(library, small_app, 8)

    def test_sampling_within_caps(self, library, small_app):
        # A budget above the space stops once every allocation is seen.
        sampled = draw(library, small_app, 50)
        assert sorted(sampled, key=repr) == sorted(
            enumerate_allocations(small_app, library), key=repr)
        for allocation in sampled:
            assert allocation["adder"] <= 3
            assert allocation["multiplier"] <= 2

    def test_zero_cap_restriction_is_honoured(self, library, small_app):
        """Regression: a resource capped at 0 must only take count 0.

        ``range(0, max(1, cap) + 1)`` let a zero-capped resource reach
        count 1, so the search visited allocations violating the ASAP
        restriction caps.
        """
        restrictions = {"multiplier": 0, "adder": 2}
        names, ranges = allocation_space(small_app, library,
                                         restrictions=restrictions)
        by_name = dict(zip(names, ranges))
        assert list(by_name["multiplier"]) == [0]
        assert list(by_name["adder"]) == [0, 1, 2]
        for allocation in enumerate_allocations(small_app, library,
                                                restrictions=restrictions):
            assert allocation["multiplier"] == 0
        for allocation in draw(library, small_app, 40,
                               restrictions=restrictions):
            assert allocation["multiplier"] == 0
        assert space_size(small_app, library,
                          restrictions=restrictions) == 3


class TestSearch:
    def test_finds_best_small_space(self, library, small_app):
        architecture = TargetArchitecture(library=library,
                                          total_area=6000.0)
        result = exhaustive_best_allocation(small_app, architecture,
                                            area_quanta=100)
        assert not result.sampled
        assert result.evaluations <= result.space
        # The best allocation beats or matches every enumerated one.
        from repro.partition.evaluate import evaluate_allocation

        for allocation in enumerate_allocations(small_app, library):
            if allocation.area(library) > architecture.total_area:
                continue
            other = evaluate_allocation(small_app, allocation,
                                        architecture, area_quanta=100)
            assert result.best_evaluation.speedup >= other.speedup - 1e-9

    def test_best_is_feasible(self, library, small_app):
        architecture = TargetArchitecture(library=library,
                                          total_area=3000.0)
        result = exhaustive_best_allocation(small_app, architecture,
                                            area_quanta=100)
        assert (result.best_allocation.area(library)
                <= architecture.total_area)

    def test_sampled_mode_engages(self, library, small_app):
        architecture = TargetArchitecture(library=library,
                                          total_area=6000.0)
        result = exhaustive_best_allocation(small_app, architecture,
                                            max_evaluations=5,
                                            area_quanta=100)
        assert result.sampled
        assert result.evaluations <= 5

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_rejected(self, library, small_app,
                                          budget):
        """Regression: a budget below 1 drew zero samples and then
        reported that no feasible allocation fits the ASIC area."""
        architecture = TargetArchitecture(library=library,
                                          total_area=6000.0)
        with pytest.raises(AllocationError, match="max_evaluations"):
            exhaustive_best_allocation(small_app, architecture,
                                       max_evaluations=budget,
                                       area_quanta=100)

    def test_sampled_budget_is_met_despite_infeasible_draws(self,
                                                            library,
                                                            small_app):
        """Regression: infeasible samples were skipped *without*
        replacement, silently shrinking the evaluation budget.  The
        area below rules out part of the space, yet the search must
        still deliver the full budget of feasible evaluations."""
        architecture = TargetArchitecture(library=library,
                                          total_area=2100.0)
        feasible = sum(
            1 for allocation in enumerate_allocations(small_app, library)
            if allocation.area(library) <= architecture.total_area)
        budget = feasible - 2
        assert budget >= 2, "fixture drifted: need a few feasible points"
        result = exhaustive_best_allocation(small_app, architecture,
                                            max_evaluations=budget,
                                            area_quanta=100)
        assert result.sampled
        assert result.evaluations == budget
        assert result.skipped_infeasible > 0

    def test_sampled_budget_larger_than_feasible_population(self, library,
                                                            small_app):
        """When fewer distinct feasible allocations exist than the
        budget asks for, the draw loop terminates after exhausting the
        space instead of spinning forever."""
        architecture = TargetArchitecture(library=library,
                                          total_area=2100.0)
        feasible = sum(
            1 for allocation in enumerate_allocations(small_app, library)
            if allocation.area(library) <= architecture.total_area)
        result = exhaustive_best_allocation(small_app, architecture,
                                            max_evaluations=11,
                                            area_quanta=100)
        assert result.sampled
        assert result.evaluations == min(11, feasible)

    def test_exhaustive_counts_skipped_infeasible(self, library,
                                                  small_app):
        architecture = TargetArchitecture(library=library,
                                          total_area=2100.0)
        result = exhaustive_best_allocation(small_app, architecture,
                                            area_quanta=100)
        assert not result.sampled
        assert (result.evaluations + result.skipped_infeasible
                == result.space)

    def test_history_recorded(self, library, small_app):
        architecture = TargetArchitecture(library=library,
                                          total_area=6000.0)
        result = exhaustive_best_allocation(small_app, architecture,
                                            area_quanta=100,
                                            keep_history=True)
        assert len(result.history) == result.evaluations

    def test_tie_break_prefers_smaller_datapath(self, library):
        # One BSB whose speed-up saturates at one adder: any extra
        # adders tie on speed-up, so the smaller allocation must win.
        bsb = make_leaf(make_parallel_dfg(OpType.ADD, 1, "one"),
                        profile=10, name="one", reads={"a"}, writes={"b"})
        architecture = TargetArchitecture(library=library,
                                          total_area=5000.0)
        result = exhaustive_best_allocation([bsb], architecture,
                                            area_quanta=100)
        assert result.best_allocation["adder"] <= 1
