"""The exhaustive scans' bound gate changes the work, never the result.

Under the speed-up objective a scan that keeps no history skips the
partition of every candidate whose admissible PACE bound is below the
incumbent's speed-up.  ``keep_history=True`` turns the gate off (the
history needs every candidate's speed-up), so the same call with a
history is the oracle: winner, evaluation and every count must match,
with strictly fewer partition lookups.
"""

import math

import pytest

from repro.apps.registry import application_spec
from repro.apps.synthetic import synthetic_bsb_array
from repro.core.rmap import RMap
from repro.engine.session import Session
from repro.partition.evaluate import EvaluationScan, evaluate_allocation
from repro.partition.model import TargetArchitecture

_COUNTS = ("evaluations", "skipped_infeasible", "space", "sampled",
           "search", "subtrees_pruned", "bound_evaluations",
           "pruned_leaves")


def synthetic(seed, total_area, bsb_count=4, ops=5):
    def build():
        session = Session()
        bsbs = synthetic_bsb_array(bsb_count, ops, seed=seed)
        return session, bsbs, TargetArchitecture(library=session.library,
                                                 total_area=total_area)
    return build


def registry(name):
    def build():
        session = Session()
        program = session.program(name)
        return session, program.bsbs, TargetArchitecture(
            library=session.library,
            total_area=application_spec(name).total_area)
    return build


def lookups(stats, stage):
    return stats.hit_count(stage) + stats.miss_count(stage)


def assert_gate_changes_only_the_work(build, **options):
    runs = []
    for keep_history in (False, True):
        session, bsbs, architecture = build()
        result = session.exhaustive(bsbs, architecture,
                                    keep_history=keep_history, **options)
        runs.append((result, session.stats))
    (gated, gated_stats), (ungated, ungated_stats) = runs
    assert gated.best_allocation == ungated.best_allocation
    assert gated.best_evaluation == ungated.best_evaluation
    for name in _COUNTS:
        assert getattr(gated, name) == getattr(ungated, name), name
    assert lookups(gated_stats, "partition") \
        < lookups(ungated_stats, "partition")
    # Every ranked candidate is still looked up and costed.
    for stage in ("eval", "cost"):
        assert lookups(gated_stats, stage) == lookups(ungated_stats, stage)
    return gated


@pytest.mark.parametrize("seed, total_area", [(3, 3000.0), (11, 8000.0),
                                              (21, 1500.0)])
@pytest.mark.parametrize("options", [
    {"search": "brute"},
    {"max_evaluations": 40},
], ids=["brute", "sampled"])
def test_small_apps(seed, total_area, options):
    assert_gate_changes_only_the_work(synthetic(seed, total_area),
                                      area_quanta=80, **options)


# The branch-and-bound walk prunes most losers before they become
# leaves; these spaces leave it some to gate.
@pytest.mark.parametrize("seed, total_area, bsb_count, ops", [
    (1, 3000.0, 4, 5), (21, 1500.0, 4, 5), (2, 3000.0, 5, 6)])
def test_small_apps_pruned(seed, total_area, bsb_count, ops):
    result = assert_gate_changes_only_the_work(
        synthetic(seed, total_area, bsb_count=bsb_count, ops=ops),
        area_quanta=80, search="pruned")
    assert result.search == "pruned"


@pytest.mark.parametrize("name", ["hal", "man"])
def test_registry_apps_with_small_budgets(name):
    result = assert_gate_changes_only_the_work(registry(name),
                                               area_quanta=120,
                                               max_evaluations=150)
    assert result.sampled


def test_hal_pruned():
    result = assert_gate_changes_only_the_work(registry("hal"),
                                               area_quanta=120,
                                               search="pruned")
    assert result.search == "pruned" and not result.sampled


def test_gated_candidate_probes_no_partition_and_builds_no_table():
    session, bsbs, architecture = synthetic(3, 3000.0)()
    allocation = RMap({"adder": 1, "multiplier": 1, "constgen": 1})
    scan = EvaluationScan(bsbs, architecture, area_quanta=80,
                          cache=session.cache)
    assert scan.evaluate(allocation, beat=math.inf) is None
    stages = session.stats.stages()
    assert "partition" not in stages and "table" not in stages
    assert not session.cache.partitions
    # The entry holds the bound's gains only: no table, and no content
    # key, which only a partition lookup reads.
    (table, content_key, gains), = session.cache.tables.values()
    assert table is None and content_key is None and gains is not None
    # The bound is admissible: at its own speed-up the candidate passes.
    expected = evaluate_allocation(bsbs, allocation, architecture,
                                   area_quanta=80)
    assert expected.speedup > 0
    assert scan.evaluate(allocation, beat=expected.speedup) == expected
