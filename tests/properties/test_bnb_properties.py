"""Property-based tests for the branch-and-bound exhaustive search.

Random synthetic BSB arrays, random areas, random cap tightenings:
whatever the space looks like, the pruned search must return the brute
scan's exact winner, the per-candidate accounting must balance, the
speed-up bound must dominate every evaluated candidate, and the carried
evaluator must agree with one-shot evaluations candidate by candidate —
results and per-stage cache accounting alike.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import synthetic_bsb_array
from repro.core.bounds import BoundEngine
from repro.core.exhaustive import allocation_space
from repro.core.module_selection import CheapestPolicy, \
    allocate_with_selection
from repro.core.rmap import RMap
from repro.engine.cache import CacheStats
from repro.engine.session import Session
from repro.hwlib.library import ResourceLibrary, default_library
from repro.hwlib.overheads import OverheadModel
from repro.ir.ops import OpType
from repro.partition.evaluate import EvaluationScan, evaluate_allocation
from repro.partition.model import TargetArchitecture


@st.composite
def search_instances(draw):
    bsb_count = draw(st.integers(1, 4))
    ops = draw(st.integers(1, 6))
    seed = draw(st.integers(1, 50))
    chain = draw(st.sampled_from([0.0, 0.5, 1.0]))
    total_area = draw(st.sampled_from([800.0, 3000.0, 8000.0]))
    cap = draw(st.integers(1, 2))
    return bsb_count, ops, seed, chain, total_area, cap


def _setup(instance):
    bsb_count, ops, seed, chain, total_area, cap = instance
    bsbs = synthetic_bsb_array(bsb_count, ops, seed=seed,
                               chain_probability=chain)
    session = Session(library=default_library())
    architecture = TargetArchitecture(library=session.library,
                                      total_area=total_area)
    full = session.restrictions(bsbs)
    tight = RMap({name: min(count, cap)
                  for name, count in full.items()})
    return session, bsbs, architecture, tight


@settings(max_examples=40, deadline=None)
@given(search_instances())
def test_pruned_search_never_loses_the_brute_winner(instance):
    session, bsbs, architecture, tight = _setup(instance)
    brute = session.exhaustive(bsbs, architecture, restrictions=tight,
                               area_quanta=100)
    fresh, bsbs_p, architecture_p, tight_p = _setup(instance)
    pruned = fresh.exhaustive(bsbs_p, architecture_p,
                              restrictions=tight_p, area_quanta=100,
                              search="pruned")
    assert pruned.best_evaluation.speedup == brute.best_evaluation.speedup
    assert pruned.best_allocation == brute.best_allocation
    assert brute.evaluations + brute.skipped_infeasible == brute.space
    assert pruned.evaluations + pruned.skipped_infeasible \
        + pruned.pruned_leaves == pruned.space


@settings(max_examples=25, deadline=None)
@given(search_instances())
def test_bound_dominates_every_evaluated_candidate(instance):
    session, bsbs, architecture, tight = _setup(instance)
    result = session.exhaustive(bsbs, architecture, restrictions=tight,
                                area_quanta=100, keep_history=True)
    names, ranges = allocation_space(bsbs, architecture.library,
                                     restrictions=tight)
    caps = [len(counts) - 1 for counts in ranges]
    unit_areas = {name: architecture.library.area_of(name)
                  for name in names}
    engine = BoundEngine(bsbs, architecture, names, caps, session.cache)
    for allocation, speedup in result.history:
        effective = [allocation[name] for name in names]
        bound = engine.speedup_bound(
            effective, allocation.area_from(unit_areas))
        assert bound >= speedup
        # An internal node covering this leaf only relaxes the bound.
        relaxed = engine.speedup_bound(caps, 0.0)
        assert relaxed >= bound or relaxed == float("inf")


def _assert_carried_matches_one_shot(allocations, scan, scan_stats,
                                     one_shot, one_shot_stats):
    """Evaluate ``allocations`` in order through one carried ``scan`` and
    through ``one_shot`` calls on a twin session; return the carried
    evaluations.

    Each candidate must give the same result and move every stage's
    (hits, misses) by the same amount on both sides.
    """
    evaluations = []
    for allocation in allocations:
        carried_before = scan_stats.snapshot()
        one_shot_before = one_shot_stats.snapshot()
        carried = scan.evaluate(allocation)
        scratch = one_shot(allocation)
        assert carried.speedup == scratch.speedup
        assert carried.partition.hw_sequences == \
            scratch.partition.hw_sequences
        assert carried.datapath_area == scratch.datapath_area
        assert carried.overhead_area == scratch.overhead_area
        assert carried.energy == scratch.energy
        assert CacheStats.delta(carried_before, scan_stats.snapshot()) \
            == CacheStats.delta(one_shot_before, one_shot_stats.snapshot())
        evaluations.append(carried)
    return evaluations


@settings(max_examples=25, deadline=None)
@given(search_instances())
def test_delta_evaluation_matches_from_scratch(instance):
    session, bsbs, architecture, tight = _setup(instance)
    result = session.exhaustive(bsbs, architecture, restrictions=tight,
                                area_quanta=100, keep_history=True)
    allocations = [allocation for allocation, _ in result.history]
    for overhead_model in (None, OverheadModel()):
        fresh, bsbs_d, architecture_d, _ = _setup(instance)
        twin, bsbs_t, architecture_t, _ = _setup(instance)
        scan = EvaluationScan(bsbs_d, architecture_d, area_quanta=100,
                              cache=fresh.cache,
                              overhead_model=overhead_model)
        evaluations = _assert_carried_matches_one_shot(
            allocations, scan, fresh.stats,
            lambda allocation: evaluate_allocation(
                bsbs_t, allocation, architecture_t, area_quanta=100,
                cache=twin.cache, overhead_model=overhead_model,
                remember=False),
            twin.stats)
        if overhead_model is None:
            assert [evaluation.speedup for evaluation in evaluations] == \
                [speedup for _, speedup in result.history]


def _mixed_library():
    """Two units per arithmetic type; the fast ones are designated."""
    library = ResourceLibrary("mixed")
    library.add_single("fast-adder", OpType.ADD, area=240.0, latency=1)
    library.add_single("slow-adder", OpType.ADD, area=80.0, latency=3)
    library.add_single("fast-mult", OpType.MUL, area=1600.0, latency=1)
    library.add_single("slow-mult", OpType.MUL, area=700.0, latency=4)
    library.add_single("constgen", OpType.CONST, area=16.0, latency=1)
    return library


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 50),
       st.sampled_from([0.0, 0.5, 1.0]))
def test_delta_evaluation_from_module_selection_allocation(
        bsb_count, ops, seed, chain):
    """A walk around a module-selection allocation crosses homogeneous,
    heterogeneous and unexecutable signatures; carrying cost groups
    across it must match one-shot evaluation exactly."""
    mix = [OpType.ADD, OpType.ADD, OpType.MUL, OpType.CONST]

    def setup():
        library = _mixed_library()
        bsbs = synthetic_bsb_array(bsb_count, ops, seed=seed,
                                   chain_probability=chain, mix=mix)
        architecture = TargetArchitecture(library=library,
                                          total_area=20000.0)
        return Session(library=library), bsbs, architecture

    session, bsbs, architecture = setup()
    start = allocate_with_selection(bsbs, architecture.library, 6000.0,
                                    policy=CheapestPolicy()).allocation
    allocations = [start]
    for name in [unit.name for unit in architecture.library.resources()]:
        allocations.append(start.incremented(name, 1))
        if start[name]:
            allocations.append(start.incremented(name, -1))
    twin, bsbs_t, architecture_t = setup()
    scan = EvaluationScan(bsbs, architecture, area_quanta=100,
                          cache=session.cache)
    _assert_carried_matches_one_shot(
        allocations, scan, session.stats,
        lambda allocation: evaluate_allocation(
            bsbs_t, allocation, architecture_t, area_quanta=100,
            cache=twin.cache, remember=False),
        twin.stats)
