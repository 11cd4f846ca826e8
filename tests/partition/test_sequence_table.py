"""Tests for the prunable SequenceTable and the PACE DP rewrite."""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partition.pace as pace_module
from repro.apps.registry import application_spec
from repro.engine.session import Session
from repro.hwlib.library import default_library
from repro.partition.communication import sequence_communication_time
from repro.partition.model import BSBCost, TargetArchitecture
from repro.partition.pace import (
    SequenceTable,
    _quantize,
    _quantized_by_last,
    pace_partition,
)

needs_numpy = pytest.mark.skipif(pace_module._np is None,
                                 reason="numpy unavailable")


def make_cost(name, sw, hw, area, profile=1, reads=(), writes=()):
    return BSBCost(name=name, profile_count=profile, sw_time=float(sw),
                   hw_time=None if hw is None else float(hw),
                   controller_area=float(area),
                   reads=frozenset(reads), writes=frozenset(writes))


@pytest.fixture
def architecture(library):
    return TargetArchitecture(library=library, total_area=10000.0,
                              comm_cycles_per_word=4.0)


@pytest.fixture
def costs():
    return [
        make_cost("a", 500, 100, 60, profile=5,
                  reads={"x"}, writes={"y"}),
        make_cost("b", 900, 200, 80, profile=5,
                  reads={"y"}, writes={"z"}),
        make_cost("c", 100, 90, 40, profile=1,
                  reads={"z", "w"}, writes={"v"}),
        make_cost("d", 50, None, 10, profile=1,
                  reads={"v"}, writes={"u"}),
        make_cost("e", 700, 150, 120, profile=3,
                  reads={"u"}, writes={"t"}),
    ]


def reference_tables(costs, architecture, available_area):
    """The seed's from-scratch sequence enumeration, kept as the oracle."""
    count = len(costs)
    tables = {}
    for first in range(count):
        if not costs[first].movable:
            continue
        area = 0.0
        for last in range(first, count):
            cost = costs[last]
            if not cost.movable:
                break
            area += cost.controller_area
            if area > available_area:
                break
            segment = costs[first:last + 1]
            comm = sequence_communication_time(segment, architecture)
            gain = sum(c.sw_time - c.hw_time for c in segment) - comm
            tables[(first, last)] = (gain, area)
    return tables


def reference_positive(costs, architecture, available_area):
    """The oracle's positive-gain sequences in the table's entry order."""
    return sorted((last, first, gain, area)
                  for (first, last), (gain, area)
                  in reference_tables(costs, architecture,
                                      available_area).items()
                  if gain > 0)


class TestSequenceTable:
    @pytest.mark.parametrize("available", [50.0, 100.0, 150.0, 1000.0])
    def test_matches_reference(self, costs, architecture, available):
        table = SequenceTable(costs, architecture)
        assert table.positive_entries(available) == \
            reference_positive(costs, architecture, available)

    def test_growing_queries_extend_in_place(self, costs, architecture):
        table = SequenceTable(costs, architecture)
        small = list(table.positive_entries(80.0))
        assert small == reference_positive(costs, architecture, 80.0)
        large = table.positive_entries(500.0)
        assert large == reference_positive(costs, architecture, 500.0)
        assert table.horizon == 500.0

    def test_shrinking_queries_prune(self, costs, architecture):
        table = SequenceTable(costs, architecture)
        built = list(table.positive_entries(1000.0))
        pruned = table.positive_entries(90.0)
        assert pruned == reference_positive(costs, architecture, 90.0)
        # Pruning does not discard the already-built entries.
        assert table.horizon == 1000.0
        assert table.positive_entries(1000.0) == built

    def test_unmovable_breaks_rows(self, costs, architecture):
        table = SequenceTable(costs, architecture)
        pairs = {(first, last) for last, first, _, _
                 in table.positive_entries(10000.0)}
        assert (0, 3) not in pairs         # crosses the unmovable "d"
        assert (3, 3) not in pairs         # "d" itself
        assert (4, 4) in pairs

    def test_positive_entries_consistent(self, costs, architecture):
        # However the queries interleave, a shared table answers each
        # area exactly as a fresh one does, entry order included.
        table = SequenceTable(costs, architecture)
        for available in (90.0, 1000.0, 50.0, 300.0, 1000.0):
            assert table.positive_entries(available) == \
                SequenceTable(costs, architecture).positive_entries(
                    available)


class CountingCost:
    """A cost that logs every attribute read it forwards."""

    def __init__(self, cost, log):
        self._cost = cost
        self._log = log

    def __getattr__(self, name):
        self._log.append(name)
        return getattr(self._cost, name)


class TestLazyTable:
    def test_construction_reads_no_cost(self, costs, architecture):
        reads = []
        table = SequenceTable([CountingCost(cost, reads) for cost in costs],
                              architecture)
        assert table.positive_entries(0.0) == []
        assert reads == []
        assert table.positive_entries(500.0) == \
            reference_positive(costs, architecture, 500.0)
        assert reads

    def test_caller_rewriting_its_list_changes_nothing(self, costs,
                                                       architecture):
        # The evaluator rewrites the list it passed, position by
        # position, for its next candidate before this table is read.
        work = list(costs)
        table = SequenceTable(work, architecture)
        for position, cost in enumerate(reversed(costs)):
            work[position] = cost
        for available in (90.0, 1000.0, 50.0):
            assert table.positive_entries(available) == \
                SequenceTable(costs, architecture).positive_entries(
                    available)

    def test_warm_session_prepares_no_table(self, tmp_path):
        spec = application_spec("man")
        store_dir = str(tmp_path / "store")
        for attempt in range(2):
            session = Session(cache_dir=store_dir)
            program = session.program("man")
            architecture = TargetArchitecture(
                library=session.library, total_area=spec.total_area)
            session.exhaustive(program.bsbs, architecture,
                               max_evaluations=60, area_quanta=100)
            session.save_store()
        # Every partition replays from the store, so no DP reads the
        # tables the evaluator keyed them by.
        assert session.stats.miss_count("partition") == 0
        tables = [table for table, _ in session.cache.tables.values()]
        assert tables
        assert all(table._fields is None for table in tables)


class TestQuantize:
    def test_exact_multiples_do_not_round_up(self):
        assert _quantize(3.0, 1.0) == 3
        assert _quantize(300.0, 100.0) == 3

    def test_float_noise_above_boundary_forgiven(self):
        # The old int(area / quantum + 0.999999999) bumped this to 257.
        assert _quantize(256.00000000001, 1.0) == 256

    def test_real_excess_still_rounds_up(self):
        assert _quantize(256.01, 1.0) == 257
        assert _quantize(3.5, 1.0) == 4

    def test_minimum_one_quantum(self):
        assert _quantize(0.001, 1.0) == 1
        assert _quantize(0.0, 1.0) == 1

    def test_uses_true_ceiling(self):
        for area in (0.1, 1.0, 1.5, 7.25, 1234.5):
            assert _quantize(area, 0.5) == max(1, math.ceil(area / 0.5))

    AREAS = [0.001, 0.5, 1.0, 3.0, 3.5, 256.00000000001, 256.01,
             300.0, 1234.5]

    def test_dp_grouping_inlines_the_same_quantization(self):
        # _quantized_by_last inlines _quantize for speed; this pins the
        # two implementations together so they cannot drift.
        positive = [(0, index, 1.0, area)
                    for index, area in enumerate(self.AREAS)]
        for quantum in (0.5, 1.0, 100.0):
            grouped = _quantized_by_last(positive, quantum, 1)
            assert [needed for _, _, needed in grouped[0]] == \
                [_quantize(area, quantum) for area in self.AREAS]

    @needs_numpy
    def test_vectorised_quantization_matches(self):
        areas = pace_module._np.array(self.AREAS)
        for quantum in (0.5, 1.0, 100.0):
            assert pace_module._quantize_array(areas, quantum).tolist() \
                == [_quantize(area, quantum) for area in self.AREAS]


LIBRARY = default_library()


def tie_heavy_instance(rng, count):
    """Integer times, areas and communication, so savings tie exactly.

    A BSB takes hardware time 0 only when its software time is 0 too,
    as in the pipeline: only an empty DFG schedules in zero steps.  A
    zero-time hardware BSB with positive software time would let PACE
    reach a hybrid time of 0, where no speed-up is defined.
    """
    variables = "pqr"
    costs = []
    for index in range(count):
        software = rng.randint(0, 8)
        hardware = rng.randint(min(software, 1), 4) \
            if rng.random() < 0.9 else None
        costs.append(make_cost(
            "r%d" % index, software, hardware, rng.randint(1, 4),
            profile=rng.randint(1, 3),
            reads=rng.sample(variables, rng.randint(0, 2)),
            writes=rng.sample(variables, rng.randint(0, 2))))
    architecture = TargetArchitecture(
        library=LIBRARY, total_area=10000.0,
        comm_cycles_per_word=float(rng.randint(0, 1)))
    total_area = sum(int(cost.controller_area) for cost in costs)
    return costs, architecture, float(rng.randint(1, total_area + 2))


def assert_dp_paths_identical(costs, architecture, available, quanta):
    vectorised = pace_partition(costs, architecture, available,
                                area_quanta=quanta)
    with mock.patch.object(pace_module, "_np", None):
        plain = pace_partition(costs, architecture, available,
                               area_quanta=quanta)
    assert vectorised == plain


class TestDpPathEquality:
    @needs_numpy
    @pytest.mark.parametrize("available", [100.0, 180.0, 260.0, 310.0])
    def test_numpy_and_python_paths_identical(self, costs, architecture,
                                              available):
        assert_dp_paths_identical(costs, architecture, available, 57)

    @needs_numpy
    @settings(max_examples=60, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           count=st.integers(0, 40),
           quanta=st.sampled_from([1, 2, 7, 57, 150]))
    def test_paths_identical_on_tie_heavy_instances(self, rng, count,
                                                     quanta):
        assert_dp_paths_identical(*tie_heavy_instance(rng, count), quanta)

    @needs_numpy
    @pytest.mark.parametrize("seed, quanta", [(1, 57), (2, 150), (3, 7)])
    def test_paths_identical_at_eigen_size(self, seed, quanta):
        assert_dp_paths_identical(
            *tie_heavy_instance(random.Random(seed), 57), quanta)

    def test_shared_table_matches_fresh(self, costs, architecture):
        table = SequenceTable(costs, architecture)
        for available in (310.0, 260.0, 100.0):
            shared = pace_partition(costs, architecture, available,
                                    area_quanta=80, sequence_table=table)
            fresh = pace_partition(costs, architecture, available,
                                   area_quanta=80)
            assert shared == fresh
