"""Design iteration: reduce over-allocated resources (sections 5, 5.1).

The optimistic ASAP-based controller estimate makes the allocator
"allocate a few too many resources ... than actually affordable.
However, knowing this, the designer can always reduce the number of
allocated resources slightly in order to obtain the best possible
partitions.  It is never necessary to increase the number of allocated
resources."

This module automates that designer step: starting from an allocation,
greedily try decrementing each resource's count by one, keep the
decrement that improves the PACE speed-up the most, and repeat until no
single decrement helps.  The paper's two fixes are single steps of this
loop (man: constant generators -> 1; eigen: dividers - 1).
"""

from dataclasses import dataclass, field

from repro.core.objective import as_objective
from repro.core.rmap import RMap
# evaluate_allocation stays importable here: perfbench's tracer wraps it.
from repro.partition.evaluate import (  # noqa: F401
    EvaluationScan, evaluate_allocation)


@dataclass
class IterationStep:
    """One accepted design-iteration step."""

    resource: str
    new_count: int
    speedup_before: float
    speedup_after: float

    def __str__(self):
        return "%s -> %d  (SU %.0f%% -> %.0f%%)" % (
            self.resource, self.new_count,
            self.speedup_before, self.speedup_after)


@dataclass
class IterationResult:
    """Outcome of the design-iteration loop.

    Attributes:
        initial_evaluation: Evaluation of the starting allocation.
        final_allocation: Allocation after all accepted decrements.
        final_evaluation: Its evaluation.
        steps: Accepted :class:`IterationStep` entries, in order.
    """

    initial_evaluation: object
    final_allocation: RMap
    final_evaluation: object
    steps: list = field(default_factory=list)

    @property
    def improved(self):
        return bool(self.steps)


def design_iteration(bsbs, allocation, architecture, max_steps=None,
                     area_quanta=400, session=None, overhead_model=None,
                     objective=None):
    """Run the reduce-only design-iteration loop.

    Args:
        bsbs: The application's leaf-BSB array.
        allocation: Starting allocation (typically Algorithm 1's output).
        architecture: Target architecture.
        max_steps: Optional cap on accepted decrements (the paper used a
            *single* design iteration; pass 1 to reproduce that).
        area_quanta: PACE area resolution.
        session: Optional engine
            :class:`~repro.engine.session.Session` whose cache carries
            schedules, cost arrays and whole evaluations across calls (a
            private one is created otherwise).  The loop re-examines
            each candidate decrement every round, so the evaluation memo
            makes all rounds after the first nearly free.
        overhead_model: Optional interconnect/storage model, charged by
            every evaluation (the future-work extension's ablation).
        objective: Optional objective (name or instance, see
            :mod:`repro.core.objective`) deciding what "improves" means;
            a decrement is accepted only when it strictly improves the
            objective's primary axis.  The default is the paper's
            speed-up — under it this loop is unchanged step for step.
    """
    if session is None:
        from repro.engine.session import Session

        session = Session(library=architecture.library)
    objective = as_objective(objective)
    library = architecture.library
    scan = EvaluationScan(bsbs, architecture, area_quanta=area_quanta,
                          cache=session.cache, remember=True,
                          overhead_model=overhead_model)
    allocation = RMap._coerce(allocation)
    current_eval = scan.evaluate(allocation)
    initial_eval = current_eval
    steps = []

    while max_steps is None or len(steps) < max_steps:
        best_step = None
        best_eval = None
        for name in allocation.names():
            candidate = allocation.incremented(name, -1)
            evaluation = scan.evaluate(candidate)
            if not objective.improves(evaluation, current_eval, library):
                continue
            if best_eval is None or \
                    objective.improves(evaluation, best_eval, library):
                best_eval = evaluation
                best_step = IterationStep(
                    resource=name,
                    new_count=candidate[name],
                    speedup_before=current_eval.speedup,
                    speedup_after=evaluation.speedup,
                )
        if best_step is None:
            break
        allocation = allocation.incremented(best_step.resource, -1)
        current_eval = best_eval
        steps.append(best_step)

    return IterationResult(
        initial_evaluation=initial_eval,
        final_allocation=allocation,
        final_evaluation=current_eval,
        steps=steps,
    )
