"""Objective-layer search semantics (PR 8 tentpole).

The pluggable objectives must keep two parity contracts at once: the
default objective reproduces the historical speed-up search byte for
byte (pinned exhaustively by test_bnb_parity.py and the CI
byte-compares), and every *bounded* non-default objective's pruned
search returns the brute scan's exact winner under its own
tournament.  The unbounded Pareto objective must downgrade a pruned
request to the brute scan and still report the default tournament's
winner alongside its front.
"""

import pytest

from repro.apps.registry import application_spec
from repro.core.objective import get_objective
from repro.core.rmap import RMap
from repro.engine.session import Session
from repro.partition.model import TargetArchitecture

#: hal at cap 2 — 648 candidates, enumerable in test time.
_APP, _CAP, _QUANTA = "hal", 2, 120


def _design():
    spec = application_spec(_APP)
    session = Session()
    program = session.program(_APP)
    architecture = TargetArchitecture(library=session.library,
                                      total_area=spec.total_area)
    return session, program.bsbs, architecture


def _tight(session, bsbs):
    full = session.restrictions(bsbs)
    return RMap({name: min(count, _CAP)
                 for name, count in full.items()})


def _run(objective, search="brute"):
    session, bsbs, architecture = _design()
    tight = _tight(session, bsbs)
    return session.exhaustive(bsbs, architecture, restrictions=tight,
                              area_quanta=_QUANTA, search=search,
                              objective=objective)


class TestBoundedObjectiveParity:
    @pytest.mark.parametrize("objective", ["area", "energy"])
    def test_pruned_matches_brute_winner(self, objective):
        brute = _run(objective)
        pruned = _run(objective, search="pruned")
        assert pruned.objective == brute.objective == objective
        assert pruned.best_allocation == brute.best_allocation
        assert pruned.best_evaluation.speedup \
            == brute.best_evaluation.speedup
        assert pruned.best_evaluation.energy \
            == brute.best_evaluation.energy
        assert pruned.search == "pruned" and brute.search == "brute"
        # Candidate accounting balances for non-default bounds too.
        assert pruned.evaluations + pruned.skipped_infeasible \
            + pruned.pruned_leaves == pruned.space
        assert pruned.evaluations <= brute.evaluations

    def test_energy_winner_really_minimises_energy(self):
        brute = _run("energy")
        default = _run("speedup")
        assert brute.best_evaluation.energy \
            <= default.best_evaluation.energy


class TestParetoObjective:
    def test_pruned_request_downgrades_to_brute(self):
        result = _run("pareto", search="pruned")
        assert result.search == "brute"
        assert result.subtrees_pruned == 0
        assert result.front is not None

    def test_winner_is_the_default_tournament_winner(self):
        default = _run("speedup")
        pareto = _run("pareto")
        assert pareto.best_allocation == default.best_allocation
        assert pareto.best_evaluation.speedup \
            == default.best_evaluation.speedup

    def test_front_contains_the_single_objective_winners(self):
        objective = get_objective("pareto")
        pareto = _run("pareto")
        vectors = pareto.front.vectors()
        for name, axis in (("speedup", 0), ("area", 1), ("energy", 2)):
            winner = _run(name).best_evaluation
            session, _, _ = _design()
            target = objective.vector(winner, session.library)[axis]
            assert max(vector[axis] for vector in vectors) \
                == pytest.approx(target)


class TestIterationObjective:
    def test_default_objective_is_byte_identical(self):
        session, bsbs, architecture = _design()
        allocation = session.allocate(
            bsbs, architecture.total_area).allocation
        plain = session.iterate(bsbs, allocation, architecture,
                                area_quanta=_QUANTA)
        named = session.iterate(bsbs, allocation, architecture,
                                area_quanta=_QUANTA,
                                objective="speedup")
        assert named.final_allocation == plain.final_allocation
        assert named.final_evaluation.speedup \
            == plain.final_evaluation.speedup
        assert named.steps == plain.steps
