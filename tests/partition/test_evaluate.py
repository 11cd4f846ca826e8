"""Tests for allocation evaluation (the paper's evaluation loop)."""

import pytest

from repro.core.rmap import RMap
from repro.engine.cache import EvalCache
from repro.errors import PartitionError
from repro.ir.ops import OpType
from repro.partition.evaluate import evaluate_allocation
from repro.partition.model import TargetArchitecture

from tests.conftest import make_leaf, make_parallel_dfg


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
