"""Tests for allocation evaluation (the paper's evaluation loop)."""

from unittest import mock

import pytest

import repro.partition.evaluate as evaluate_module
from repro.core.rmap import RMap
from repro.engine.cache import EvalCache
from repro.errors import PartitionError
from repro.ir.ops import OpType
from repro.partition.evaluate import (
    EvaluationScan,
    bsb_costs,
    evaluate_allocation,
)
from repro.partition.model import TargetArchitecture

from tests.conftest import make_chain_dfg, make_leaf, make_parallel_dfg


@pytest.fixture
def app():
    hot = make_leaf(make_parallel_dfg(OpType.MUL, 2, "hot"),
                    profile=100, name="hot", reads={"a"}, writes={"b"})
    warm = make_leaf(make_parallel_dfg(OpType.ADD, 3, "warm"),
                     profile=20, name="warm", reads={"b"}, writes={"c"})
    return [hot, warm]


class TestEvaluate:
    def test_empty_allocation_gives_zero_speedup(self, library, app):
        architecture = TargetArchitecture(library=library,
                                          total_area=10000.0)
        evaluation = evaluate_allocation(app, RMap(), architecture)
        assert evaluation.speedup == 0.0
        assert evaluation.datapath_area == 0.0

    def test_reasonable_allocation_speeds_up(self, library, app):
        architecture = TargetArchitecture(library=library,
                                          total_area=10000.0)
        allocation = RMap({"multiplier": 2, "adder": 3})
        evaluation = evaluate_allocation(app, allocation, architecture)
        assert evaluation.speedup > 0.0
        assert evaluation.partition.hw_names

    def test_oversized_allocation_rejected(self, library, app):
        architecture = TargetArchitecture(library=library,
                                          total_area=1000.0)
        with pytest.raises(PartitionError):
            evaluate_allocation(app, RMap({"multiplier": 5}), architecture)

    def test_available_area_is_remainder(self, library, app):
        architecture = TargetArchitecture(library=library,
                                          total_area=10000.0)
        allocation = RMap({"multiplier": 1})
        evaluation = evaluate_allocation(app, allocation, architecture)
        assert evaluation.available_controller_area == pytest.approx(
            10000.0 - allocation.area(library))

    def test_datapath_fraction_bounds(self, library, app):
        architecture = TargetArchitecture(library=library,
                                          total_area=10000.0)
        evaluation = evaluate_allocation(
            app, RMap({"multiplier": 2, "adder": 3}), architecture)
        assert 0.0 < evaluation.datapath_fraction <= 1.0

    def test_accepts_plain_dict(self, library, app):
        architecture = TargetArchitecture(library=library,
                                          total_area=10000.0)
        evaluation = evaluate_allocation(app, {"multiplier": 2},
                                         architecture)
        assert evaluation.allocation == RMap({"multiplier": 2})

    def test_cache_shared_across_evaluations(self, library, app):
        architecture = TargetArchitecture(library=library,
                                          total_area=10000.0)
        cache = EvalCache()
        evaluate_allocation(app, RMap({"multiplier": 2, "adder": 3}),
                            architecture, cache=cache)
        populated = len(cache.sched)
        assert populated > 0
        evaluate_allocation(app, RMap({"multiplier": 2, "adder": 3,
                                       "divider": 1}),
                            architecture, cache=cache)
        assert len(cache.sched) == populated  # divider is irrelevant


class TestGroupMemo:
    """A scan's per-group memos return what a fresh cost build does."""

    @pytest.fixture
    def twins(self):
        # Two BSBs of one cost group (the same multiplier demand) and
        # one of another.
        return [make_leaf(make_parallel_dfg(OpType.MUL, 2, "left"),
                          profile=100, name="left", reads={"a"},
                          writes={"b"}),
                make_leaf(make_parallel_dfg(OpType.ADD, 3, "adds"),
                          profile=20, name="adds", reads={"b"},
                          writes={"c"}),
                make_leaf(make_parallel_dfg(OpType.MUL, 2, "right"),
                          profile=40, name="right", reads={"c"},
                          writes={"d"})]

    def test_raising_cost_build_leaves_no_partial_entry(self, library,
                                                        twins):
        architecture = TargetArchitecture(library=library,
                                          total_area=10000.0)
        scan = EvaluationScan(twins, architecture, cache=EvalCache())
        scan._costs_for(RMap({"multiplier": 1, "adder": 3}))
        scan._costs_for(RMap({"multiplier": 1, "adder": 1}))
        # Two multipliers: both multiplier BSBs miss; the second build
        # raises after the first succeeded.
        failing = RMap({"multiplier": 2, "adder": 1})
        compute = evaluate_module._compute_bsb_cost
        builds = []

        def flaky(*args):
            builds.append(args)
            if len(builds) == 2:
                raise RuntimeError("injected")
            return compute(*args)

        with mock.patch.object(evaluate_module, "_compute_bsb_cost",
                               flaky):
            with pytest.raises(RuntimeError, match="injected"):
                scan._costs_for(failing)
        for allocation in (failing, RMap({"multiplier": 1, "adder": 1}),
                           RMap({"multiplier": 2, "adder": 3})):
            assert list(scan._costs_for(allocation)) == bsb_costs(
                twins, allocation, architecture)

    def test_zero_count_keys_share_one_entry(self, library):
        # Without an adder the BSB is unexecutable whatever the
        # multipliers: every such candidate is one memo hit, unsigned.
        bsbs = [make_leaf(make_chain_dfg([OpType.MUL, OpType.ADD,
                                          OpType.MUL]),
                          profile=10, name="mixed", reads={"a"},
                          writes={"b"})]
        architecture = TargetArchitecture(library=library,
                                          total_area=10000.0)
        cache = EvalCache()
        scan = EvaluationScan(bsbs, architecture, cache=cache)
        scan._costs_for(RMap({"multiplier": 1, "adder": 1}))
        scan._costs_for(RMap({"multiplier": 1}))
        before = cache.stats.snapshot()["cost"]
        allocations = [RMap({"multiplier": count}) for count in (2, 3, 0)]
        with mock.patch.object(
                evaluate_module, "_group_signature",
                wraps=evaluate_module._group_signature) as signing:
            built = [list(scan._costs_for(allocation))
                     for allocation in allocations]
        assert signing.call_count == 0
        hits, misses = cache.stats.snapshot()["cost"]
        assert (hits, misses) == (before[0] + 3, before[1])
        for allocation, costs in zip(allocations, built):
            assert costs == bsb_costs(bsbs, allocation, architecture)
            assert not costs[0].movable
