"""Oracle parity for the branch-and-bound search (PR 6 tentpole).

The contract: ``search="pruned"`` must return the *bit-identical*
winner of the brute scan — speed-up, allocation, and the deterministic
scan-order tie-breaks — on every registry application, while visiting
far fewer candidates wherever the bounds bite.  The brute scan is the
oracle; caps are tightened so every app's space is enumerable in test
time, and hal additionally runs at its full caps to pin the headline
evaluation reduction.
"""

import pytest

from repro.apps.registry import application_names, application_spec
from repro.core.bounds import BoundEngine
from repro.core.exhaustive import allocation_space
from repro.core.rmap import RMap
from repro.engine.session import Session
from repro.errors import AllocationError
from repro.partition.model import TargetArchitecture

#: Tight per-resource caps keeping every app's space enumerable here.
_TEST_CAPS = {"straight": 2, "hal": 2, "man": 1, "eigen": 1}


def _design(name):
    spec = application_spec(name)
    session = Session()
    program = session.program(name)
    architecture = TargetArchitecture(library=session.library,
                                      total_area=spec.total_area)
    return session, program.bsbs, architecture


def _tight_restrictions(session, bsbs, cap):
    full = session.restrictions(bsbs)
    return RMap({name: min(count, cap) for name, count in full.items()})


class TestPrunedMatchesBruteOracle:
    @pytest.mark.parametrize("name", application_names())
    def test_registry_app_parity_under_tight_caps(self, name):
        brute_session, brute_bsbs, brute_arch = _design(name)
        tight = _tight_restrictions(brute_session, brute_bsbs,
                                    _TEST_CAPS[name])
        brute = brute_session.exhaustive(brute_bsbs, brute_arch,
                                         restrictions=tight,
                                         area_quanta=120)
        pruned_session, pruned_bsbs, pruned_arch = _design(name)
        tight_p = _tight_restrictions(pruned_session, pruned_bsbs,
                                      _TEST_CAPS[name])
        pruned = pruned_session.exhaustive(pruned_bsbs, pruned_arch,
                                           restrictions=tight_p,
                                           area_quanta=120,
                                           search="pruned")
        assert not brute.sampled and not pruned.sampled
        assert pruned.best_evaluation.speedup == \
            brute.best_evaluation.speedup
        assert pruned.best_allocation == brute.best_allocation
        # Same tie-breaks bit-for-bit: the winning partition too.
        assert pruned.best_evaluation.partition.hw_sequences == \
            brute.best_evaluation.partition.hw_sequences
        # Every candidate is accounted exactly once.
        assert brute.evaluations + brute.skipped_infeasible == brute.space
        assert pruned.evaluations + pruned.skipped_infeasible \
            + pruned.pruned_leaves == pruned.space
        assert pruned.search == "pruned" and brute.search == "brute"

    def test_hal_full_caps_parity_and_headline_reduction(self):
        """The acceptance pin: at hal's real caps the pruned search is
        bit-identical while visiting <= 50% of the brute candidates."""
        brute_session, brute_bsbs, brute_arch = _design("hal")
        brute = brute_session.exhaustive(brute_bsbs, brute_arch,
                                         area_quanta=120)
        pruned_session, pruned_bsbs, pruned_arch = _design("hal")
        pruned = pruned_session.exhaustive(pruned_bsbs, pruned_arch,
                                           area_quanta=120,
                                           search="pruned")
        assert not pruned.sampled
        assert pruned.best_evaluation.speedup == \
            brute.best_evaluation.speedup
        assert pruned.best_allocation == brute.best_allocation
        assert pruned.evaluations * 2 <= brute.evaluations
        assert pruned.subtrees_pruned > 0
        assert pruned.bound_evaluations > 0


class TestBoundAdmissibility:
    def test_leaf_bound_covers_every_evaluated_speedup(self):
        """At a fully-decided leaf the bound must dominate the exact
        evaluation — the per-candidate form of admissibility (internal
        nodes only relax it further)."""
        session, bsbs, architecture = _design("hal")
        tight = _tight_restrictions(session, bsbs, 2)
        result = session.exhaustive(bsbs, architecture,
                                    restrictions=tight,
                                    area_quanta=120, keep_history=True)
        names, ranges = allocation_space(bsbs, architecture.library,
                                         restrictions=tight)
        caps = [len(counts) - 1 for counts in ranges]
        unit_areas = {name: architecture.library.area_of(name)
                      for name in names}
        engine = BoundEngine(bsbs, architecture, names, caps,
                             session.cache)
        assert result.history
        for allocation, speedup in result.history:
            effective = [allocation[name] for name in names]
            bound = engine.speedup_bound(
                effective, allocation.area_from(unit_areas))
            assert bound >= speedup, \
                "inadmissible bound %r < %r at %r" \
                % (bound, speedup, allocation)

    def test_every_floor_lookup_is_counted_once(self):
        """Per call, each floor the bound reads is one ``bound`` hit or
        miss: a repeated call reads them all again, as hits."""
        session, bsbs, architecture = _design("hal")
        names, ranges = allocation_space(bsbs, architecture.library)
        caps = [len(counts) - 1 for counts in ranges]
        engine = BoundEngine(bsbs, architecture, names, caps,
                             session.cache)
        first = engine.speedup_bound(list(caps), 0.0)
        hits, misses = session.stats.snapshot()["bound"]
        assert misses == len(session.cache.bounds) > 0
        assert engine.speedup_bound(list(caps), 0.0) == first
        assert session.stats.snapshot()["bound"] \
            == (2 * hits + misses, misses)


class TestSearchModeSurface:
    def test_unknown_search_mode_is_rejected(self):
        session, bsbs, architecture = _design("hal")
        with pytest.raises(AllocationError, match="search"):
            session.exhaustive(bsbs, architecture, search="genetic")

    def test_sampled_budget_overrides_the_requested_mode(self):
        session, bsbs, architecture = _design("hal")
        result = session.exhaustive(bsbs, architecture,
                                    max_evaluations=16, area_quanta=120,
                                    search="pruned", keep_history=True)
        assert result.sampled
        assert result.search == "sampled"
        assert result.history_order == "sampled"
        assert result.subtrees_pruned == 0
        assert len(result.history) == result.evaluations

    def test_enumerated_histories_are_scan_ordered(self):
        session, bsbs, architecture = _design("hal")
        tight = _tight_restrictions(session, bsbs, 1)
        result = session.exhaustive(bsbs, architecture,
                                    restrictions=tight,
                                    area_quanta=120, search="pruned",
                                    keep_history=True)
        assert result.history_order == "scan"
        names, ranges = allocation_space(bsbs, architecture.library,
                                         restrictions=tight)
        radix = [len(counts) for counts in ranges]

        def index_of(allocation):
            value = 0
            for name, base in zip(names, radix):
                value = value * base + allocation[name]
            return value

        indices = [index_of(allocation)
                   for allocation, _ in result.history]
        assert indices == sorted(indices)
        assert len(result.history) == result.evaluations
