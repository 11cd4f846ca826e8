"""The PACE speed-up bound never falls below what the DP achieves."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hwlib.library import default_library
from repro.partition.model import TargetArchitecture
from repro.partition.pace import bound_gains, pace_partition, speedup_bound
from tests.partition.test_sequence_table import dp_path, make_cost

LIBRARY = default_library()

variables = st.sets(st.sampled_from("abcdef"), max_size=3)


@st.composite
def bound_instances(draw):
    """(costs, architecture, available area, quanta).

    Half the controller areas are a whole number of quanta scaled by up
    to 1e-9 either way, so they and their sums sit on quantum
    boundaries, where the DP's rounding tolerance lets it spend a hair
    more than the available area.
    """
    quanta = draw(st.integers(1, 400))
    available = draw(st.one_of(
        st.sampled_from([0.0, -1.0, -300.0]),
        st.floats(min_value=1e-3, max_value=5e4)))
    quantum = available / quanta if available > 0 else 1.0
    costs = []
    for index in range(draw(st.integers(0, 8))):
        sw = draw(st.integers(1, 5000))
        if draw(st.integers(0, 4)):
            # Positive, zero and negative gains alike; a hardware time
            # of zero would let PACE reach a hybrid time of zero, which
            # it rejects.
            hw = draw(st.one_of(st.just(sw), st.integers(1, 6000)))
            if draw(st.booleans()):
                area = draw(st.integers(1, quanta)) * quantum \
                    * (1.0 + draw(st.floats(-1e-9, 1e-9)))
            else:
                area = draw(st.floats(min_value=1e-3, max_value=5e4))
        else:
            hw, area = None, math.inf
        costs.append(make_cost("c%d" % index, sw, hw, area,
                               profile=draw(st.integers(1, 50)),
                               reads=draw(variables),
                               writes=draw(variables)))
    architecture = TargetArchitecture(
        library=LIBRARY, total_area=1e6,
        comm_cycles_per_word=draw(st.sampled_from([0.0, 0.25, 4.0])))
    return costs, architecture, available, quanta


@pytest.mark.parametrize("path", ["numpy", "python"])
@settings(max_examples=150, deadline=None)
@given(instance=bound_instances())
def test_bound_dominates_pace(path, instance):
    costs, architecture, available, quanta = instance
    with dp_path(path):
        result = pace_partition(costs, architecture, available,
                                area_quanta=quanta)
    assert speedup_bound(bound_gains(costs), available) >= result.speedup


@pytest.mark.parametrize("path", ["numpy", "python"])
@pytest.mark.parametrize("count", [2, 7, 40])
def test_rounding_slack_is_covered(path, count):
    # Every BSB takes a quantum plus 0.99e-9 of it, which the DP's
    # tolerance still charges as one quantum: with free communication
    # it moves them all, one sequence each, over the available area.
    available = 1000.0
    area = available / count * (1.0 + 0.99e-9)
    costs = [make_cost("c%d" % index, 900, 100, area)
             for index in range(count)]
    architecture = TargetArchitecture(library=LIBRARY, total_area=1e6,
                                      comm_cycles_per_word=0.0)
    with dp_path(path):
        result = pace_partition(costs, architecture, available,
                                area_quanta=count)
    assert result.controller_area_used > available
    assert speedup_bound(bound_gains(costs), available) >= result.speedup


class TestGains:
    def test_only_movable_positive_gains_in_ratio_order(self):
        costs = [make_cost("slow", 100, 400, 10),
                 make_cost("stuck", 500, None, math.inf),
                 make_cost("even", 300, 300, 5),
                 make_cost("dense", 900, 100, 20),
                 make_cost("sparse", 900, 100, 400)]
        sw_time_all, items = bound_gains(costs)
        assert sw_time_all == 2700.0
        assert items == ((800.0, 20.0), (800.0, 400.0))

    def test_nothing_to_gain_bounds_zero(self):
        costs = [make_cost("slow", 100, 400, 10),
                 make_cost("stuck", 500, None, math.inf)]
        architecture = TargetArchitecture(library=LIBRARY, total_area=1e6)
        assert speedup_bound(bound_gains(costs), 1000.0) == 0.0
        assert pace_partition(costs, architecture, 1000.0).speedup == 0.0

    @pytest.mark.parametrize("available", [0.0, -5.0])
    def test_no_area_bounds_zero(self, available):
        costs = [make_cost("dense", 900, 100, 20)]
        assert speedup_bound(bound_gains(costs), available) == 0.0

    def test_saving_covering_all_software_bounds_nothing(self):
        costs = [make_cost("free", 900, 0, 20)]
        assert speedup_bound(bound_gains(costs), 1000.0) == math.inf
