"""The exhaustive scans' bound gate changes the work, never the result.

Under the speed-up objective a scan that keeps no history skips the
partition of every candidate whose admissible PACE bound is below the
incumbent's speed-up.  ``keep_history=True`` turns the gate off (the
history needs every candidate's speed-up), so the same call with a
history is the oracle: winner, evaluation and every count must match,
with strictly fewer partition lookups.
"""

import math
import types

import pytest

from repro.apps.registry import application_spec
from repro.apps.synthetic import synthetic_bsb_array
from repro.core import exhaustive
from repro.core.objective import as_objective
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


# Brute scans past one best-bound-first block (4,096 candidates): the
# second space also skips infeasible candidates in both blocks.
@pytest.mark.parametrize("seed, ops, total_area", [(1, 20, 6000.0),
                                                   (3, 18, 4000.0)])
def test_brute_scan_larger_than_one_block(seed, ops, total_area):
    result = assert_gate_changes_only_the_work(
        synthetic(seed, total_area, bsb_count=4, ops=ops),
        area_quanta=80, search="brute")
    assert result.space > exhaustive._BLOCK


@pytest.mark.parametrize("seed, total_area", [(3, 3000.0), (21, 1500.0)])
def test_small_blocks(monkeypatch, seed, total_area):
    """Many blocks: each drops what the incumbent of earlier blocks
    already beats, and ties still resolve in scan order."""
    monkeypatch.setattr(exhaustive, "_BLOCK", 7)
    assert_gate_changes_only_the_work(synthetic(seed, total_area),
                                      area_quanta=80, search="brute")


class Candidate:
    """An allocation of a synthetic scan: its area, speed-up and bound."""

    def __init__(self, name, area, speedup, bound):
        self.name, self._area = name, area
        self.speedup, self.bound = speedup, bound

    def area(self, library):
        return self._area

    def area_from(self, unit_areas):
        return self._area

    def __repr__(self):
        return self.name


class Evaluated:
    def __init__(self, candidate):
        self.allocation = candidate
        self.speedup = candidate.speedup


class SyntheticScan:
    """Stands in for EvaluationScan: each candidate carries its bound
    and speed-up, and every partition is logged."""

    settled = []

    def __init__(self, *args, **options):
        pass

    def evaluate(self, candidate, beat=None):
        return self.settle(candidate, None)

    def bound(self, candidate):
        return candidate.bound, None

    def settle(self, candidate, pending):
        self.settled.append(candidate)
        return Evaluated(candidate)


def synthetic_scan(monkeypatch, candidates, keep_history):
    """Winner and settle order of ``_scan_candidates`` over
    ``candidates``, with the synthetic evaluator."""
    monkeypatch.setattr(exhaustive, "EvaluationScan", SyntheticScan)
    monkeypatch.setattr(SyntheticScan, "settled", [])
    session = types.SimpleNamespace(store=None, cache=None)
    architecture = types.SimpleNamespace(library=None, total_area=100.0)
    best, evaluation, _, _, counts = exhaustive._scan_candidates(
        candidates, None, architecture, 80, keep_history, session, None,
        check_area=True, objective=as_objective("speedup"))
    assert evaluation.allocation is best
    return best, counts, list(SyntheticScan.settled)


def tied_candidates():
    """``first`` and ``later`` tie on speed-up and area; ``later`` has
    the higher bound, so a best-bound-first scan settles it first."""
    return [Candidate("loser", 10.0, 1.5, 1.6),
            Candidate("first", 20.0, 2.0, 2.1),
            Candidate("larger", 30.0, 2.0, 2.2),
            Candidate("later", 20.0, 2.0, 3.0),
            Candidate("cut", 40.0, 1.0, 1.9),
            Candidate("too-big", 200.0, 9.0, 9.0)]


@pytest.mark.parametrize("block", [4096, 2, 3],
                         ids=["one-block", "blocks-of-2", "blocks-of-3"])
def test_a_tie_goes_to_the_earliest_candidate(monkeypatch, block):
    monkeypatch.setattr(exhaustive, "_BLOCK", block)
    ungated = synthetic_scan(monkeypatch, tied_candidates(), True)
    gated = synthetic_scan(monkeypatch, tied_candidates(), False)
    assert ungated[0].name == "first"
    assert gated[0].name == "first"
    assert gated[1] == ungated[1] == {"evaluations": 5,
                                      "skipped_infeasible": 1}
    # Every candidate that can tie is settled; "cut" cannot.
    assert "later" in [each.name for each in gated[2]]
    assert "cut" not in [each.name for each in gated[2]]


def test_candidates_settle_best_bound_first(monkeypatch):
    _, _, settled = synthetic_scan(monkeypatch, tied_candidates(), False)
    assert [each.name for each in settled] == ["later", "larger", "first"]
