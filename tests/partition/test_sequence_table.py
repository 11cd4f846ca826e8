"""Tests for the prunable SequenceTable and the PACE DP rewrite."""

import contextlib
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partition.pace as pace_module
from repro.apps.registry import application_spec
from repro.engine.cache import EvalCache
from repro.engine.session import Session
from repro.hwlib.library import default_library
from repro.ir.ops import OpType
from repro.partition.communication import sequence_communication_time
from repro.partition.evaluate import bsb_costs, evaluate_allocation
from repro.partition.model import BSBCost, TargetArchitecture
from repro.partition.pace import (
    SequenceTable,
    _quantize,
    _quantized_needs,
    pace_partition,
)
from tests.conftest import make_chain_dfg, make_leaf, make_parallel_dfg

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


class TestLazyTable:
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
        # Every partition replays from the store, so the evaluator
        # probes by content key alone and constructs no table.
        assert session.stats.miss_count("partition") == 0
        assert "table" not in session.stats.stages()
        entries = list(session.cache.tables.values())
        assert entries
        assert all(table is None for table, _, _ in entries)


class TestContentSharing:
    def test_equal_content_from_different_signatures_shares_one_entry(
            self, library):
        # Three chained multiplications schedule alike under one or two
        # multipliers: two signatures, one cost.
        bsbs = [make_leaf(make_chain_dfg([OpType.MUL] * 3), profile=50,
                          name="chain", reads={"x"}, writes={"y"}),
                make_leaf(make_parallel_dfg(OpType.ADD, 2), profile=5,
                          name="adds", reads={"y"}, writes={"z"})]
        architecture = TargetArchitecture(library=library,
                                          total_area=20000.0)
        one = {"multiplier": 1, "adder": 1}
        two = {"multiplier": 2, "adder": 1}
        cache = EvalCache()
        for allocation in (one, two):
            evaluate_allocation(bsbs, allocation, architecture,
                                area_quanta=50, cache=cache)
        assert len(cache.costs) == 3
        assert len(cache.interned) == 2
        assert all(first is second for first, second in zip(
            bsb_costs(bsbs, one, architecture, cache=cache),
            bsb_costs(bsbs, two, architecture, cache=cache)))
        # One entry, one table built, one content key behind both
        # partitions (their available areas differ).
        (table, content_key, _), = cache.tables.values()
        assert isinstance(table, SequenceTable)
        assert cache.stats.snapshot()["table"] == (1, 1)
        assert len(cache.partitions) == 2
        assert {key[:2] for key in cache.partitions} == {content_key}
        # The key names content, not history: a cache that saw only the
        # second allocation derives the same one.
        fresh = EvalCache()
        evaluate_allocation(bsbs, two, architecture, area_quanta=50,
                            cache=fresh)
        assert [key for _, key, _ in fresh.tables.values()] == [content_key]


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
        # _quantized_needs inlines _quantize for speed; this pins the
        # two implementations together so they cannot drift.
        positive = [(0, index, 1.0, area)
                    for index, area in enumerate(self.AREAS)]
        for quantum in (0.5, 1.0, 100.0):
            for width in (3, 10_000):
                assert _quantized_needs(positive, quantum, width) == \
                    [min(_quantize(area, quantum), width)
                     for area in self.AREAS]

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


def dp_path(name):
    """Context for one DP path: numpy as imported, or pure Python."""
    if name == "python":
        return mock.patch.object(pace_module, "_np", None)
    if pace_module._np is None:
        pytest.skip("numpy unavailable")
    return contextlib.nullcontext()


@st.composite
def area_sequences(draw):
    """(area, quanta) calls with repeats and areas that quantise alike."""
    calls = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["fresh", "repeat", "alike"]))
        if kind == "fresh" or not calls:
            calls.append((float(draw(st.integers(0, 40))),
                          draw(st.sampled_from([1, 2, 7, 57]))))
            continue
        area, quanta = draw(st.sampled_from(calls))
        if kind == "alike":
            # Scaling up by a hair scales the quantum alike: the same
            # needs, another available area.
            area *= 1.0 + draw(st.sampled_from([1e-12, 1e-10]))
        calls.append((area, quanta))
    return calls


class TestOutcomeMemo:
    @pytest.mark.parametrize("path", ["numpy", "python"])
    @settings(max_examples=60, deadline=None)
    @given(rng=st.randoms(use_true_random=False), count=st.integers(0, 30),
           calls=area_sequences())
    def test_shared_table_matches_fresh_table_per_call(self, path, rng,
                                                       count, calls):
        costs, architecture, _ = tie_heavy_instance(rng, count)
        with dp_path(path):
            table = SequenceTable(costs, architecture)
            for area, quanta in calls:
                shared = pace_partition(costs, architecture, area,
                                        area_quanta=quanta,
                                        sequence_table=table)
                fresh = pace_partition(costs, architecture, area,
                                       area_quanta=quanta)
                assert shared == fresh

    @pytest.mark.parametrize("path, dp", [("numpy", "_dp_vectorised"),
                                          ("python", "_dp_python")])
    def test_repeated_needs_run_one_dp(self, costs, architecture, path,
                                       dp):
        table = SequenceTable(costs, architecture)
        with dp_path(path), mock.patch.object(
                pace_module, dp, wraps=getattr(pace_module, dp)) as runs:
            first = pace_partition(costs, architecture, 310.0,
                                   area_quanta=80, sequence_table=table)
            again = pace_partition(costs, architecture, 310.0 * (1 + 1e-12),
                                   area_quanta=80, sequence_table=table)
            assert runs.call_count == 1
            # Every sequence needs one quantum at either width: equal
            # needs, but one more quantum to spend.
            narrow = pace_partition(costs, architecture, 1000.0,
                                    area_quanta=1, sequence_table=table)
            wide = pace_partition(costs, architecture, 1000.0,
                                  area_quanta=2, sequence_table=table)
            assert runs.call_count == 3
        assert again.available_area == 310.0 * (1 + 1e-12)
        assert again == pace_partition(costs, architecture,
                                       310.0 * (1 + 1e-12), area_quanta=80)
        assert first.hw_sequences and first.speedup == again.speedup
        assert wide == pace_partition(costs, architecture, 1000.0,
                                      area_quanta=2)
        assert len(wide.hw_sequences) > len(narrow.hw_sequences)
